// perfbench -- the compute workloads: paper_contours (Fig. 8 TSPC and
// Fig. 12 C2MOS) and chain16_contour (bit 0 of a 16-bit TSPC chain).
//
// The end-to-end run times characterizeInterdependent, the call a user
// makes. The traced run splits each contour into the pipeline's public
// stages (CharacterizationProblem, findSeedPoint, traceContour), times
// every h-evaluation through TimedHFunction, and prices the SimStats
// counts with the kernel probe. Every time is scaled to the reference
// host speed (host_speed.hpp).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>

#include "host_speed.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "shtrace/cells/c2mos.hpp"
#include "shtrace/cells/register_chain.hpp"
#include "shtrace/cells/tspc.hpp"
#include "shtrace/chz/characterize.hpp"
#include "shtrace/chz/seed.hpp"
#include "shtrace/chz/tracer.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace shtrace;

namespace {

// A published point may sit this far from the committed reference contour
// (the repository's dense/sparse equivalence bound).
constexpr double kReferenceTolerancePs = 2.0;
// Published points re-evaluated per contour case and run.
constexpr int kResidualSamples = 3;
// The traced stages should account for this share of the untraced contour.
constexpr double kMinCoverage = 0.95;

// The figure benches' windows (bench/bench_common.hpp).
constexpr SkewBounds kTspcWindow{120e-12, 560e-12, 60e-12, 460e-12};
constexpr SkewBounds kC2mosWindow{250e-12, 800e-12, 100e-12, 600e-12};

struct ContourCase {
    std::string name;
    RegisterFixture fixture;
    RunConfig config;

    std::vector<SkewPoint> points;  ///< first published contour
    std::vector<double> wall;       ///< untraced wall per contour (s, scaled)
    std::vector<double> rawWall;    ///< the same, unscaled
    std::vector<double> cpu;        ///< untraced thread CPU per contour (s, scaled)
    /// Per traced contour: the per-layer series (names ending in _s are
    /// scaled seconds), the traced wall, and the three stages' thread CPU
    /// time (s, scaled); entry i was measured beside untraced contour i.
    std::map<std::string, std::vector<double>> traced;
    std::vector<double> tracedWall;
    std::vector<double> tracedCpu;
    SimStats untracedStats;         ///< work of the first untraced contour
    SimStats tracedStats;           ///< work of the last traced contour
    SimStats lastCounts;            ///< its h-evaluations' share
    std::vector<KernelCosts> probes;  ///< one after each traced contour
};

/// Output-load scale the seed applies to every cell: seed 0 keeps the
/// figure configuration, any other seed moves the load by up to +-1%.
double loadScale(std::uint64_t seed) {
    if (seed == 0) {
        return 1.0;
    }
    std::mt19937_64 rng(seed);
    return 1.0 + 0.02 * (std::uniform_real_distribution<double>(0.0, 1.0)(rng) - 0.5);
}

RunConfig figureConfig(const SkewBounds& window, double transitionFraction) {
    RunConfig config;
    config.criterion.transitionFraction = transitionFraction;
    config.tracer.maxPoints = 40;
    config.tracer.bounds = window;
    config.tracer.stepLength = 8e-12;
    config.tracer.maxStepLength = 30e-12;
    config.parallel.threads = 1;
    return config;
}

std::vector<std::unique_ptr<ContourCase>> buildCases(const std::string& workload,
                                                     double scale) {
    std::vector<std::unique_ptr<ContourCase>> cases;
    auto add = [&](std::string name, RegisterFixture fixture, RunConfig config) {
        auto c = std::make_unique<ContourCase>();
        c->name = std::move(name);
        c->fixture = std::move(fixture);
        c->config = std::move(config);
        cases.push_back(std::move(c));
    };
    if (workload == "paper_contours") {
        TspcOptions tspc;
        tspc.outputLoadCapacitance *= scale;
        add("fig8", buildTspcRegister(tspc), figureConfig(kTspcWindow, 0.5));
        C2mosOptions c2mos;
        c2mos.outputLoadCapacitance *= scale;
        add("fig12", buildC2mosRegister(c2mos), figureConfig(kC2mosWindow, 0.9));
    } else {
        RegisterChainOptions chain;
        chain.bits = 16;
        chain.bit.outputLoadCapacitance *= scale;
        add("chain16", buildTspcRegisterChain(chain),
            figureConfig(kTspcWindow, 0.5));
    }
    return cases;
}

/// The traced twin of characterizeInterdependent: the same stages in the
/// same order, each timed from here. runTraced checks it does the same work.
TracedContour traceStages(ContourCase& c, HostSpeed& speed) {
    const RunConfig& cfg = c.config;
    SimStats stats;
    const auto start = Clock::now();
    const double cpuStart = threadCpuSeconds();
    const CharacterizationProblem problem(c.fixture, cfg.criterion, cfg.recipe,
                                          &stats);
    const double problemS = secondsSince(start);
    const double problemCpu = threadCpuSeconds() - cpuStart;
    const SimStats afterProblem = stats;

    const TimedHFunction h(problem.h());
    const auto seedStart = Clock::now();
    const double seedCpuStart = threadCpuSeconds();
    const SeedResult seed =
        findSeedPoint(h, problem.passSign(), cfg.seed, &stats);
    const double seedS = secondsSince(seedStart);
    const double seedCpu = threadCpuSeconds() - seedCpuStart;
    if (!seed.found) {
        throw std::runtime_error(c.name + ": traced seed search failed");
    }

    SkewPoint from = seed.seed;
    from.hold = std::clamp(from.hold, cfg.tracer.bounds.holdMin,
                           cfg.tracer.bounds.holdMax);
    const double hBeforeTrace = h.totalSeconds();
    const auto traceStart = Clock::now();
    const double traceCpuStart = threadCpuSeconds();
    TracedContour contour = traceContour(h, from, cfg.tracer, &stats);
    const double traceS = secondsSince(traceStart);
    const double traceCpu = threadCpuSeconds() - traceCpuStart;
    const double wall = secondsSince(start);
    const double f = speed.scale(start);

    SimStats counts = stats;
    // Only the h-evaluations' share: drop the criterion transients.
    counts.deviceEvaluations -= afterProblem.deviceEvaluations;
    counts.residualOnlyAssemblies -= afterProblem.residualOnlyAssemblies;
    counts.luFactorizations -= afterProblem.luFactorizations;
    counts.sparseRefactorizations -= afterProblem.sparseRefactorizations;
    counts.luSolves -= afterProblem.luSolves;
    counts.timeSteps -= afterProblem.timeSteps;
    counts.newtonIterations -= afterProblem.newtonIterations;
    counts.chordIterations -= afterProblem.chordIterations;
    counts.sensitivitySteps -= afterProblem.sensitivitySteps;
    c.tracedStats = stats;
    c.lastCounts = counts;

    const double points = static_cast<double>(contour.points.size());
    const std::map<std::string, double> sample = {
        {"chz.problem_s", f * problemS},
        {"chz.seed_s", f * seedS},
        {"chz.trace_s", f * traceS},
        {"chz.trace_self_s", f * (traceS - (h.totalSeconds() - hBeforeTrace))},
        {"chz.h_evals", static_cast<double>(stats.hEvaluations)},
        {"chz.mpnr_iters", static_cast<double>(stats.mpnrIterations)},
        {"chz.predictor_retries", static_cast<double>(contour.predictorRetries)},
        {"chz.points_per_h_eval",
         stats.hEvaluations > 0 ? points / static_cast<double>(stats.hEvaluations)
                                : 0.0},
        {"analysis.h_eval_s", f * h.totalSeconds()},
        {"analysis.h_eval_calls",
         static_cast<double>(h.gradientCalls() + h.valueOnlyCalls())},
        {"analysis.value_only_s", f * h.valueOnlySeconds()},
        {"analysis.value_only_calls", static_cast<double>(h.valueOnlyCalls())},
        {"analysis.time_steps", static_cast<double>(counts.timeSteps)},
        {"analysis.newton_iters", static_cast<double>(counts.newtonIterations)},
        {"analysis.chord_iters", static_cast<double>(counts.chordIterations)},
        {"analysis.sensitivity_steps", static_cast<double>(counts.sensitivitySteps)},
        {"circuit.full_assemblies", static_cast<double>(counts.deviceEvaluations)},
        {"circuit.residual_assemblies",
         static_cast<double>(counts.residualOnlyAssemblies)},
        {"linalg.factorizations",
         static_cast<double>(counts.luFactorizations - counts.sparseRefactorizations)},
        {"linalg.refactorizations", static_cast<double>(counts.sparseRefactorizations)},
        {"linalg.solves", static_cast<double>(counts.luSolves)},
    };
    for (const auto& [name, value] : sample) {
        c.traced[name].push_back(value);
    }
    c.tracedWall.push_back(f * wall);
    c.tracedCpu.push_back(f * (problemCpu + seedCpu + traceCpu));

    // Kernel probe right after the contour.
    if (!contour.points.empty()) {
        const SkewPoint& mid = contour.points[contour.points.size() / 2];
        const auto probeStart = Clock::now();
        KernelCosts k = probeKernels(problem, cfg.recipe, mid.setup, mid.hold);
        const double g = speed.scale(probeStart);
        k.assembleNs *= g;
        k.assembleResidualNs *= g;
        k.factorNs *= g;
        k.refactorNs *= g;
        k.solveNs *= g;
        c.probes.push_back(k);
    }
    return contour;
}

bool samePoints(const std::vector<SkewPoint>& a, const std::vector<SkewPoint>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const SkewPoint& p, const SkewPoint& q) {
                          return p.setup == q.setup && p.hold == q.hold;
                      });
}

/// Records a contour and checks it reproduces the case's first contour.
void acceptContour(ContourCase& c, const TracedContour& contour, bool success,
                   Result& result) {
    if (!success || contour.points.empty()) {
        result.fail(c.name + ": characterization failed");
        return;
    }
    if (c.points.empty()) {
        c.points = contour.points;
    } else if (!samePoints(c.points, contour.points)) {
        result.fail(c.name + ": contour differs between repeats of one input");
    }
}

/// True when two runs did the same solver work, counter for counter.
bool sameWork(const SimStats& a, const SimStats& b) {
    return a.transientSolves == b.transientSolves && a.timeSteps == b.timeSteps &&
           a.newtonIterations == b.newtonIterations &&
           a.luFactorizations == b.luFactorizations && a.luSolves == b.luSolves &&
           a.deviceEvaluations == b.deviceEvaluations &&
           a.residualOnlyAssemblies == b.residualOnlyAssemblies &&
           a.hEvaluations == b.hEvaluations && a.mpnrIterations == b.mpnrIterations;
}

void runUntraced(ContourCase& c, HostSpeed& speed, Result& result) {
    ++result.attempted;
    const auto start = Clock::now();
    const double cpu0 = threadCpuSeconds();
    const CharacterizeResult r = characterizeInterdependent(c.fixture, c.config);
    const double cpu = threadCpuSeconds() - cpu0;
    const double wall = secondsSince(start);
    const double f = speed.scale(start);
    c.cpu.push_back(f * cpu);
    c.wall.push_back(f * wall);
    c.rawWall.push_back(wall);
    if (c.wall.size() == 1) {
        c.untracedStats = r.stats;
    }
    acceptContour(c, r.contour, r.success, result);
}

void runTraced(ContourCase& c, HostSpeed& speed, Result& result) {
    ++result.attempted;
    try {
        const TracedContour contour = traceStages(c, speed);
        acceptContour(c, contour, contour.seedConverged, result);
        if (!sameWork(c.tracedStats, c.untracedStats)) {
            result.fail(c.name + ": traced stages did other work than "
                                 "characterizeInterdependent");
        }
    } catch (const std::exception& e) {
        result.fail(e.what());
    }
}

// ------------------------------------------------------- reference check

std::string referencePath(const std::string& dir, const std::string& name) {
    return dir + "/" + name + ".csv";
}

std::vector<SkewPoint> readReference(const std::string& path) {
    std::vector<SkewPoint> points;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#' || line.rfind("setup", 0) == 0) {
            continue;
        }
        std::istringstream row(line);
        SkewPoint p;
        char comma = 0;
        if (row >> p.setup >> comma >> p.hold) {
            points.push_back(p);
        }
    }
    return points;
}

void writeReference(const std::string& path, const std::vector<SkewPoint>& points) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        throw std::runtime_error("cannot write " + path);
    }
    std::fprintf(f, "setup_skew_s,hold_skew_s\n");
    for (const SkewPoint& p : points) {
        std::fprintf(f, "%.17g,%.17g\n", p.setup, p.hold);
    }
    std::fclose(f);
}

double distanceToPolyline(const SkewPoint& p, const std::vector<SkewPoint>& line) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < line.size(); ++i) {
        const SkewPoint& a = line[i];
        const SkewPoint& b = i + 1 < line.size() ? line[i + 1] : line[i];
        const double dx = b.setup - a.setup;
        const double dy = b.hold - a.hold;
        const double len2 = dx * dx + dy * dy;
        double u = 0.0;
        if (len2 > 0.0) {
            u = std::clamp(((p.setup - a.setup) * dx + (p.hold - a.hold) * dy) / len2,
                           0.0, 1.0);
        }
        best = std::min(best, std::hypot(p.setup - (a.setup + u * dx),
                                         p.hold - (a.hold + u * dy)));
    }
    return best;
}

/// Largest distance, in ps, from any point of `from` to the polyline `to`.
double maxDeviationPs(const std::vector<SkewPoint>& from,
                      const std::vector<SkewPoint>& to) {
    double worst = 0.0;
    for (const SkewPoint& p : from) {
        worst = std::max(worst, distanceToPolyline(p, to));
    }
    return worst * 1e12;
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
    char buf[256];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

/// Re-evaluates |h| at seeded published points with a fresh problem.
void checkResiduals(ContourCase& c, std::uint64_t seed, Result& result) {
    const CharacterizationProblem problem(c.fixture, c.config.criterion,
                                          c.config.recipe);
    std::mt19937_64 rng(seed * 7919 + c.name.size());
    std::uniform_int_distribution<std::size_t> pick(0, c.points.size() - 1);
    const double limit = kResidualToleranceFactor * c.config.tracer.corrector.hTol;
    double worst = 0.0;
    for (int i = 0; i < kResidualSamples; ++i) {
        const SkewPoint& p = c.points[pick(rng)];
        const HEvaluation e = problem.h().evaluateValueOnly(p.setup, p.hold);
        if (!e.success) {
            result.fail(c.name + ": h re-evaluation failed");
            continue;
        }
        worst = std::max(worst, std::fabs(e.h));
    }
    if (worst > limit) {
        result.fail(c.name + fmt(": |h| = %.3g V at a published point exceeds %.3g V",
                                 worst, limit));
    }
    result.note(c.name + fmt(": max |h| at %.0f sampled points = %.3g V (limit %.3g V)",
                             kResidualSamples, worst, limit));
}

double checkReference(ContourCase& c, const RunOptions& options, Result& result) {
    const std::string path = referencePath(options.benchDir + "/reference", c.name);
    const std::vector<SkewPoint> ref = readReference(path);
    if (ref.size() < 2) {
        result.fail(c.name + ": reference contour missing: " + path);
        return 0.0;
    }
    const double dev = maxDeviationPs(c.points, ref);
    const double back = maxDeviationPs(ref, c.points);
    result.note(c.name + fmt(": contour_dev_ps = %.6g (reference to published %.6g ps, "
                             "%.0f points)",
                             dev, back, static_cast<double>(c.points.size())));
    if (dev > kReferenceTolerancePs || back > kReferenceTolerancePs) {
        result.fail(c.name + fmt(": contour is %.3g ps from the reference (limit %.3g ps)",
                                 std::max(dev, back), kReferenceTolerancePs));
    }
    return dev;
}

/// Mean over cases of each case's median of a traced series.
double layerValue(const std::vector<std::unique_ptr<ContourCase>>& cases,
                  const std::string& key) {
    std::vector<double> perCase;
    for (const auto& c : cases) {
        const auto found = c->traced.find(key);
        if (found != c->traced.end()) {
            perCase.push_back(median(found->second));
        }
    }
    return mean(perCase);
}

void reportLayers(std::vector<std::unique_ptr<ContourCase>>& cases,
                  Result& result) {
    for (const auto& [key, series] : cases.front()->traced) {
        result.set(key, layerValue(cases, key));
    }

    // Kernel costs (median over the run's probes) priced with the counts of
    // the case's last traced contour, against its median h-evaluation time.
    std::vector<double> unknowns, asmNs, resNs, facNs, refNs, solNs, asmEst,
        linEst, hEval, overhead, cpu, coverage;
    for (const auto& c : cases) {
        if (c->probes.empty() || c->wall.empty()) {
            continue;
        }
        auto probeMedian = [&](double KernelCosts::*field) {
            std::vector<double> v;
            for (const KernelCosts& k : c->probes) {
                v.push_back(k.*field);
            }
            return median(v);
        };
        KernelCosts k = c->probes.front();
        k.assembleNs = probeMedian(&KernelCosts::assembleNs);
        k.assembleResidualNs = probeMedian(&KernelCosts::assembleResidualNs);
        k.factorNs = probeMedian(&KernelCosts::factorNs);
        k.refactorNs = probeMedian(&KernelCosts::refactorNs);
        k.solveNs = probeMedian(&KernelCosts::solveNs);
        const KernelEstimate e = estimateKernelTime(k, c->lastCounts);
        const double caseH = median(c->traced["analysis.h_eval_s"]);
        unknowns.push_back(static_cast<double>(k.unknowns));
        asmNs.push_back(k.assembleNs);
        resNs.push_back(k.assembleResidualNs);
        facNs.push_back(k.factorNs);
        refNs.push_back(k.refactorNs);
        solNs.push_back(k.solveNs);
        asmEst.push_back(e.assemblySeconds);
        linEst.push_back(e.linalgSeconds);
        hEval.push_back(caseH);
        const double untraced = median(c->wall);
        overhead.push_back((median(c->tracedWall) - untraced) / untraced);
        cpu.push_back(median(c->cpu));
        // Coverage: per round, the traced stages' CPU time over that of
        // the untraced characterizeInterdependent call of the same round;
        // work that call does outside the stages lowers the share.
        std::vector<double> rounds;
        for (std::size_t i = 0; i < c->tracedCpu.size(); ++i) {
            rounds.push_back(c->tracedCpu[i] / c->cpu[i]);
        }
        coverage.push_back(median(rounds));
        result.note(c->name +
                    fmt(": chz spans are %.2f%% of the untraced contour's CPU time",
                        100.0 * coverage.back()) +
                    fmt(" (per round %.2f%% to %.2f%%)",
                        100.0 * *std::min_element(rounds.begin(), rounds.end()),
                        100.0 * *std::max_element(rounds.begin(), rounds.end())));
        result.note(c->name + fmt(": kernel probe x%.0f: %.0f unknowns, assemble %.0f ns",
                                  static_cast<double>(c->probes.size()),
                                  static_cast<double>(k.unknowns), k.assembleNs) +
                    fmt(", residual %.0f ns, factor %.0f ns, refactor %.0f ns",
                        k.assembleResidualNs, k.factorNs, k.refactorNs) +
                    fmt(", solve %.0f ns", k.solveNs) +
                    (k.sparse ? " (sparse)" : " (dense)"));
        result.note(c->name + fmt(": of %.4g s in h-evaluations, assembly est. %.1f%%",
                                  caseH, 100.0 * e.assemblySeconds / caseH) +
                    fmt(", linalg est. %.1f%%, other est. %.1f%%",
                        100.0 * e.linalgSeconds / caseH,
                        100.0 * (caseH - e.assemblySeconds - e.linalgSeconds) / caseH));
        if (e.assemblySeconds + e.linalgSeconds > caseH) {
            result.note(c->name + ": the kernel estimates exceed the measured "
                                  "h-evaluation time; they overprice the kernels");
        }
    }
    const double h = mean(hEval);
    const double assembly = mean(asmEst);
    const double linalg = mean(linEst);
    result.set("circuit.assemble_ns", mean(asmNs));
    result.set("circuit.assemble_residual_ns", mean(resNs));
    result.set("circuit.assembly_est_s", assembly);
    result.set("circuit.assembly_share", h > 0 ? assembly / h : 0.0);
    result.set("linalg.unknowns", mean(unknowns));
    result.set("linalg.factor_ns", mean(facNs));
    result.set("linalg.refactor_ns", mean(refNs));
    result.set("linalg.solve_ns", mean(solNs));
    result.set("linalg.est_s", linalg);
    result.set("linalg.share", h > 0 ? linalg / h : 0.0);
    result.set("analysis.other_est_s", h - assembly - linalg);
    result.set("analysis.other_share", h > 0 ? (h - assembly - linalg) / h : 0.0);
    result.set("chz.contour_cpu_s", mean(cpu));
    result.set("trace_overhead_frac", mean(overhead));

    // Two calls' times on a shared host differ by a few percent however
    // they are scaled (per round 0.938-1.102 measured with chain16's two
    // rounds), so a short share is reported, not failed: the hard coverage
    // check is runTraced's equal SimStats, the same solver work.
    for (std::size_t i = 0; i < coverage.size(); ++i) {
        if (coverage[i] < kMinCoverage) {
            result.note(cases[i]->name +
                        fmt(": WARNING: chz spans cover only %.1f%% of the untraced "
                            "contour's CPU time (expected %.0f%% or more)",
                            100.0 * coverage[i], 100.0 * kMinCoverage));
        }
    }
    result.set("chz.coverage_frac", mean(coverage));
}

}  // namespace

Result runComputeWorkload(const RunOptions& options) {
    Result result;
    const double scale = loadScale(options.seed);

    // Set-up: build the workload's fixtures and warm up on each one's
    // criterion transients; repeated, the median reported.
    HostSpeed speed(/*pinCaller=*/true);
    std::vector<double> setups;
    std::vector<std::unique_ptr<ContourCase>> cases;
    const auto setupStart = Clock::now();
    while (moreSetupRepeats(setups.size(), secondsSince(setupStart))) {
        const auto start = Clock::now();
        cases = buildCases(options.workload, scale);
        for (const auto& c : cases) {
            const CharacterizationProblem warmUp(c->fixture, c->config.criterion,
                                                 c->config.recipe);
        }
        const double wall = secondsSince(start);
        setups.push_back(speed.scale(start) * wall);
    }
    result.set("setup_s", median(setups));
    result.note(fmt("output-load scale %.6f (seed %.0f)", scale,
                    static_cast<double>(options.seed)));

    // Measured loop: whole rounds (one contour per case) while another
    // round would end nearer the budget than stopping now. A traced run
    // does an untraced and a traced contour per case and round, so tracing
    // overhead is measured under the same host load; odd rounds put the
    // traced one first, so a steady drift in host speed cancels over pairs
    // of rounds.
    std::vector<double> all;
    const auto loopStart = Clock::now();
    double round = 0.0;
    for (std::size_t r = 0;; ++r) {
        const auto roundStart = Clock::now();
        for (auto& c : cases) {
            if (options.trace && r % 2 == 1) {
                runTraced(*c, speed, result);
                runUntraced(*c, speed, result);
            } else {
                runUntraced(*c, speed, result);
                if (options.trace) {
                    runTraced(*c, speed, result);
                }
            }
        }
        round = secondsSince(roundStart);
        if (secondsSince(loopStart) + 0.5 * round >= options.seconds) {
            break;
        }
    }
    result.set("peak_rss_mb", peakRssMb());

    // End-to-end metrics.
    std::vector<double> perCaseMedian;
    for (const auto& c : cases) {
        perCaseMedian.push_back(median(c->wall));
        all.insert(all.end(), c->wall.begin(), c->wall.end());
        result.note(c->name + fmt(": %.0f contours of %.0f points",
                                  static_cast<double>(c->wall.size()),
                                  static_cast<double>(c->points.size())) +
                    fmt(", scaled wall min %.4f / median %.4f / max %.4f s",
                        *std::min_element(c->wall.begin(), c->wall.end()),
                        median(c->wall),
                        *std::max_element(c->wall.begin(), c->wall.end())) +
                    fmt(", raw wall median %.4f s, scaled cpu median %.4f s",
                        median(c->rawWall), median(c->cpu)));
    }
    result.note(speed.summary());
    result.set("contour_s", mean(perCaseMedian));
    result.set("p50_ms", 1e3 * median(all));

    if (options.trace) {
        reportLayers(cases, result);
    }

    // Correctness: every seed re-evaluates |h|; the default seed is also
    // compared with the committed reference contours.
    double dev = 0.0;
    for (auto& c : cases) {
        if (c->points.empty()) {
            continue;
        }
        checkResiduals(*c, options.seed, result);
        if (!options.writeReferenceDir.empty()) {
            writeReference(referencePath(options.writeReferenceDir, c->name),
                           c->points);
        } else if (options.seed == 0) {
            dev = std::max(dev, checkReference(*c, options, result));
        }
    }
    if (options.seed == 0) {
        result.note(fmt("contour_dev_ps = %.6g", dev));
    }
    return result;
}

}  // namespace perfbench
