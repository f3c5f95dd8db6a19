// perfbench -- serve_mixed: an in-process shtrace-served daemon (2 workers,
// fresh store) under a closed loop of 3 HTTP clients. Two replay warm
// TSPC keys that set-up published (store hits); one sends never-seen keys
// (cold traces that publish). Hits and cold work share one queue.
//
// The layer split comes from outside the daemon: per-response `served`
// fields, /metrics deltas over the run, direct ResultStore loads of the
// warm keys, and parse timings of the real request and response bodies.
// Every time is scaled to the reference host speed (host_speed.hpp).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "host_speed.hpp"
#include "report.hpp"
#include "shtrace/chz/problem.hpp"
#include "shtrace/serve/http.hpp"
#include "shtrace/serve/json.hpp"
#include "shtrace/serve/request.hpp"
#include "shtrace/serve/server.hpp"
#include "shtrace/store/cache.hpp"
#include "shtrace/store/key.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace shtrace;
using namespace shtrace::serve;

namespace {

constexpr int kWorkers = 2;
constexpr int kHitClients = 2;
constexpr int kWarmKeys = 8;
constexpr std::size_t kColdResidualChecks = 2;
constexpr double kNominalLoad = 20e-15;

/// A TSPC request in the Fig. 8 window; only the output load varies.
std::string requestBody(double load) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"cell\":\"tspc\",\"cellOptions\":{\"outputLoadCapacitance\":%.17g},"
                  "\"tracer\":{\"bounds\":{\"setupMin\":1.2e-10,\"setupMax\":5.6e-10,"
                  "\"holdMin\":6e-11,\"holdMax\":4.6e-10},\"maxPoints\":4}}",
                  load);
    return buf;
}

/// Seeded distinct output loads in [0.8, 1.2] x nominal.
class LoadSource {
public:
    explicit LoadSource(std::uint64_t seed) : rng_(seed) {}
    double next() {
        std::uniform_real_distribution<double> u(0.8, 1.2);
        for (;;) {
            const double load = kNominalLoad * u(rng_);
            if (used_.insert(load).second) {
                return load;
            }
        }
    }

private:
    std::mt19937_64 rng_;
    std::set<double> used_;
};

/// One request of the measured loop. Kept small and in storage reserved
/// up front: the loop records tens of thousands of them, and their memory
/// counts in the process's peak RSS.
struct Sample {
    float rttMs = 0.0f;
    float queueMs = 0.0f;
    float computeMs = 0.0f;
    int status = 0;
};

constexpr std::size_t kReservedSamplesPerClient = std::size_t{1} << 17;

struct Parsed {
    bool ok = false;
    bool cacheHit = false;
    double queueMs = 0.0;
    double computeMs = 0.0;
    std::string key;
    std::string contour;  ///< canonical JSON of the contour array
    double firstSetup = 0.0;
    double firstHold = 0.0;
};

const JsonValue& field(const JsonValue& object, const char* name) {
    const JsonValue* value = object.find(name);
    if (value == nullptr) {
        throw std::runtime_error(std::string("response lacks \"") + name + "\"");
    }
    return *value;
}

/// Parses a 200 characterize response; throws on a malformed one.
Parsed parseResponse(const std::string& body) {
    Parsed p;
    const JsonValue doc = parseJson(body);
    p.ok = field(doc, "ok").asBool();
    if (!p.ok) {
        return p;
    }
    const JsonValue& served = field(doc, "served");
    p.cacheHit = field(served, "cacheHit").asBool();
    p.queueMs = field(served, "queueMillis").asNumber();
    p.computeMs = field(served, "computeMillis").asNumber();
    p.key = field(doc, "key").asString();
    const JsonValue& contour = field(doc, "contour");
    p.contour = writeJson(contour);
    if (contour.asArray().empty()) {
        throw std::runtime_error("ok response with an empty contour");
    }
    p.firstSetup = field(contour.asArray()[0], "setup").asNumber();
    p.firstHold = field(contour.asArray()[0], "hold").asNumber();
    return p;
}

/// Prometheus text -> {series -> value}; series keep their label sets.
std::map<std::string, double> scrapeMetrics(std::uint16_t port) {
    HttpClient client(port);
    const HttpClient::Response r = client.request("GET", "/metrics");
    std::map<std::string, double> series;
    std::istringstream in(r.body);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t space = line.rfind(' ');
        if (line.empty() || line[0] == '#' || space == std::string::npos) {
            continue;
        }
        series[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
    }
    return series;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a != after.end() ? a->second : 0.0) - (b != before.end() ? b->second : 0.0);
}

/// A running daemon on an ephemeral port, joined on destruction.
class Daemon {
public:
    explicit Daemon(const std::string& storeDir) : daemon_(options(storeDir)) {
        loop_ = std::thread([this] { daemon_.run(); });
    }
    ~Daemon() {
        daemon_.shutdown();
        loop_.join();
    }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    std::uint16_t port() const { return static_cast<std::uint16_t>(daemon_.port()); }

private:
    static DaemonOptions options(const std::string& storeDir) {
        DaemonOptions o;
        o.port = 0;
        o.service.threads = kWorkers;
        o.service.cacheDir = storeDir;
        return o;
    }

    ServedDaemon daemon_;
    std::thread loop_;
};

struct WarmKey {
    std::string body;
    std::string key;
    std::string contour;
};

/// Publishes every warm key through the daemon (cold traces, kWorkers at a
/// time) and records the contour each one answered with.
void populate(std::uint16_t port, std::vector<WarmKey>& warm, Result& result) {
    std::mutex mutex;
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = static_cast<std::size_t>(t); i < warm.size();
                 i += kWorkers) {
                std::string error;
                Parsed p;
                try {
                    HttpClient client(port);
                    const HttpClient::Response r =
                        client.request("POST", "/v1/characterize", warm[i].body);
                    if (r.status != 200) {
                        error = "HTTP " + std::to_string(r.status);
                    } else if (p = parseResponse(r.body); !p.ok || p.cacheHit) {
                        error = "not a fresh ok trace";
                    }
                } catch (const std::exception& e) {
                    error = e.what();
                }
                std::lock_guard<std::mutex> lock(mutex);
                if (!error.empty()) {
                    result.fail("set-up: warm key " + std::to_string(i) +
                                " did not publish: " + error);
                }
                warm[i].key = p.key;
                warm[i].contour = p.contour;
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
}

/// |h| at the first published point of a cold response, re-evaluated with
/// a problem built from the same request body.
void checkColdResidual(const std::string& body, const Parsed& p, Result& result) {
    const ServeRequest request = parseServeRequest(body, "");
    const CharacterizationProblem problem(request.fixture, request.config.criterion,
                                          request.config.recipe);
    const HEvaluation e = problem.h().evaluateValueOnly(p.firstSetup, p.firstHold);
    const double limit = kResidualToleranceFactor * request.config.tracer.corrector.hTol;
    char line[160];
    std::snprintf(line, sizeof line, "cold response: |h| = %.3g V at its first point (limit %.3g V)",
                  std::fabs(e.h), limit);
    result.note(line);
    if (!e.success || std::fabs(e.h) > limit) {
        result.fail(line);
    }
}

/// A scratch directory removed with everything in it when the run ends.
struct ScratchDir {
    explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    std::filesystem::path path;
};

template <typename Fn>
double medianMicros(Fn&& fn, int reps) {
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        fn(i);
        us.push_back(secondsSince(start) * 1e6);
    }
    return median(us);
}

}  // namespace

Result runServeMixed(const RunOptions& options) {
    Result result;
    const ScratchDir work(std::filesystem::path(options.workDir) /
                          ("serve_mixed-" + std::to_string(::getpid())));

    LoadSource loads(options.seed);
    std::vector<WarmKey> warm(kWarmKeys);
    for (WarmKey& w : warm) {
        w.body = requestBody(loads.next());
    }

    // Set-up: daemon start on a fresh store plus warm-key publication;
    // repeated, the median reported, the last daemon kept for the run.
    HostSpeed speed(/*pinCaller=*/false);
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    std::string storeDir;
    const auto setupStart = Clock::now();
    while (moreSetupRepeats(setups.size(), secondsSince(setupStart))) {
        daemon.reset();
        storeDir = (work.path / ("store-" + std::to_string(setups.size()))).string();
        const auto start = Clock::now();
        daemon = std::make_unique<Daemon>(storeDir);
        populate(daemon->port(), warm, result);
        const double wall = secondsSince(start);
        setups.push_back(speed.scale(start) * wall);
    }
    result.set("setup_s", median(setups));
    if (!result.correct()) {
        return result;
    }

    // Measured closed loop.
    const std::uint16_t port = daemon->port();
    const std::map<std::string, double> before = scrapeMetrics(port);
    std::mutex mutex;
    std::vector<std::vector<Sample>> samples(kHitClients + 1);  // per client
    for (std::vector<Sample>& v : samples) {
        v.reserve(kReservedSamplesPerClient);
    }
    std::vector<std::pair<std::string, Parsed>> coldChecks;
    const auto start = Clock::now();
    auto client = [&](int id) {
        std::unique_ptr<HttpClient> http;
        std::mt19937_64 pick(options.seed * 131 + static_cast<std::uint64_t>(id));
        const bool hitClient = id < kHitClients;
        std::vector<Sample>& mine = samples[static_cast<std::size_t>(id)];
        std::vector<std::string> failures;
        // A client that keeps failing (say, the daemon died) stops early.
        while (secondsSince(start) < options.seconds && failures.size() < 100) {
            try {
                if (http == nullptr) {
                    http = std::make_unique<HttpClient>(port);
                }
                const std::size_t w = pick() % warm.size();
                const std::string body = hitClient ? warm[w].body : [&] {
                    std::lock_guard<std::mutex> lock(mutex);
                    return requestBody(loads.next());
                }();
                Sample s;
                const auto sent = Clock::now();
                const HttpClient::Response r = http->request("POST", "/v1/characterize", body);
                const double rtt = secondsSince(sent);
                const double f = speed.scale(sent);
                s.rttMs = static_cast<float>(f * rtt * 1e3);
                s.status = r.status;
                if (r.status != 200) {
                    failures.push_back("HTTP " + std::to_string(r.status));
                    mine.push_back(s);
                    continue;
                }
                const Parsed p = parseResponse(r.body);
                s.queueMs = static_cast<float>(f * p.queueMs);
                s.computeMs = static_cast<float>(f * p.computeMs);
                mine.push_back(s);
                if (!p.ok) {
                    failures.push_back("ok:false response");
                } else if (hitClient && (!p.cacheHit || p.contour != warm[w].contour)) {
                    failures.push_back("warm request was not a store hit with set-up's contour");
                } else if (!hitClient && p.cacheHit) {
                    failures.push_back("never-seen key answered from the store");
                } else if (!hitClient && coldChecks.size() < kColdResidualChecks) {
                    coldChecks.emplace_back(body, p);  // only this client writes it
                }
            } catch (const std::exception& e) {
                // A broken connection or malformed response fails the request;
                // the next one reconnects.
                failures.push_back(std::string("request failed: ") + e.what());
                mine.push_back(Sample{});
                http.reset();
            }
        }
        std::lock_guard<std::mutex> lock(mutex);
        for (const std::string& f : failures) {
            result.fail(f);
        }
    };
    std::vector<std::thread> clients;
    for (int id = 0; id <= kHitClients; ++id) {
        clients.emplace_back(client, id);
    }
    for (std::thread& t : clients) {
        t.join();
    }
    const double loopSeconds = secondsSince(start);
    // Read before the analysis below allocates: the peak of the daemon
    // and the loop.
    result.set("peak_rss_mb", peakRssMb());
    const std::map<std::string, double> after = scrapeMetrics(port);

    std::vector<double> all, hitRtt, coldRtt, hitQueue, hitCompute, hitTransport,
        coldQueue, coldCompute, coldTransport;
    std::size_t completed = 0, http503 = 0;
    for (std::size_t id = 0; id < samples.size(); ++id) {
        const bool hit = id < kHitClients;
        for (const Sample& s : samples[id]) {
            ++result.attempted;
            if (s.status == 503) {
                ++http503;
            }
            if (s.status != 200) {
                continue;
            }
            ++completed;
            all.push_back(s.rttMs);
            (hit ? hitRtt : coldRtt).push_back(s.rttMs);
            (hit ? hitQueue : coldQueue).push_back(s.queueMs);
            (hit ? hitCompute : coldCompute).push_back(s.computeMs);
            (hit ? hitTransport : coldTransport)
                .push_back(s.rttMs - s.queueMs - s.computeMs);
        }
    }
    if (hitRtt.empty() || coldRtt.empty()) {
        result.fail("the run completed no hit or no cold request");
    }
    for (const auto& [body, parsed] : coldChecks) {
        checkColdResidual(body, parsed, result);
    }

    result.set("contour_s", 1e-3 * median(coldRtt));
    result.set("p50_ms", median(all));
    char line[256];
    std::snprintf(line, sizeof line,
                  "%zu hits (scaled p50 %.3f ms, p99 %.3f ms), %zu cold (scaled p50 %.1f ms), "
                  "%zu HTTP 503",
                  hitRtt.size(), median(hitRtt), percentile(hitRtt, 99), coldRtt.size(),
                  median(coldRtt), http503);
    result.note(line);
    result.note(speed.summary());
    if (options.trace) {
        const double cold = static_cast<double>(coldRtt.size());
        result.set("serve.rps", static_cast<double>(completed) / loopSeconds);
        result.set("serve.hit_p50_ms", median(hitRtt));
        result.set("serve.hit_p99_ms", percentile(hitRtt, 99));
        result.set("serve.cold_p50_ms", median(coldRtt));
        result.set("serve.queue_ms", median(hitQueue));
        result.set("serve.hit_compute_ms", median(hitCompute));
        result.set("serve.transport_ms", median(hitTransport));
        result.set("serve.cold_queue_ms", median(coldQueue));
        result.set("serve.cold_compute_ms", median(coldCompute));
        result.set("serve.cold_transport_ms", median(coldTransport));
        result.set("serve.http_503", static_cast<double>(http503));
        result.set("serve.coalesced", delta(before, after, "shtrace_serve_coalesced_total"));
        const double reads =
            delta(before, after, "shtrace_serve_store_read_milliseconds_count");
        result.set("store.read_ms",
                   reads > 0 ? delta(before, after, "shtrace_serve_store_read_milliseconds_sum") /
                                   reads
                             : 0.0);
        result.set("store.publish_ms",
                   cold > 0 ? delta(before, after,
                                    "shtrace_serve_store_publish_milliseconds_sum") /
                                  cold
                            : 0.0);

        // The solver's counters for the cold traces, per cold contour.
        auto perCold = [&](const char* series) {
            return cold > 0 ? delta(before, after, series) / cold : 0.0;
        };
        result.set("chz.h_evals", perCold("shtrace_h_evaluations_total"));
        result.set("chz.mpnr_iters", perCold("shtrace_mpnr_iterations_total"));
        result.set("analysis.time_steps", perCold("shtrace_time_steps_total"));
        result.set("analysis.newton_iters", perCold("shtrace_newton_iterations_total"));
        result.set("analysis.chord_iters", perCold("shtrace_chord_iterations_total"));
        result.set("analysis.sensitivity_steps", perCold("shtrace_sensitivity_steps_total"));
        result.set("circuit.full_assemblies", perCold("shtrace_device_evaluations_total"));
        result.set("circuit.residual_assemblies",
                   perCold("shtrace_residual_only_assemblies_total"));
        result.set("linalg.factorizations",
                   perCold("shtrace_lu_factorizations_total") -
                       perCold("shtrace_sparse_refactorizations_total"));
        result.set("linalg.refactorizations", perCold("shtrace_sparse_refactorizations_total"));
        result.set("linalg.solves", perCold("shtrace_lu_solves_total"));

        // Store and JSON costs, timed directly on the run's own data.
        const store::ResultStore store(storeDir);
        std::vector<std::uint64_t> keys;
        for (const WarmKey& w : warm) {
            if (const auto k = store::parseHexKey(w.key)) {
                keys.push_back(*k);
            }
        }
        double loadUs = 0.0;
        if (!keys.empty()) {
            const auto loadStart = Clock::now();
            loadUs = medianMicros(
                [&](int i) {
                    if (!store.load(keys[static_cast<std::size_t>(i) % keys.size()])) {
                        result.fail("store.load missed a warm key");
                    }
                },
                200);
            loadUs *= speed.scale(loadStart);
        }
        result.set("store.load_us", loadUs);
        HttpClient http(port);
        const std::string hitBody =
            http.request("POST", "/v1/characterize", warm[0].body).body;
        const auto parseStart = Clock::now();
        const double parseUs = medianMicros(
            [&](int) {
                parseJson(warm[0].body);
                parseJson(hitBody);
            },
            200);
        result.set("serve.json_parse_us", parseUs * speed.scale(parseStart));
    }

    return result;
}

}  // namespace perfbench
