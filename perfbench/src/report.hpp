// perfbench -- sample statistics, clocks and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), in seconds.
double threadCpuSeconds();

/// Peak resident set size of this process so far, in MB (VmHWM).
double peakRssMb();

/// Median of `values`; 0 for an empty sample.
double median(std::vector<double> values);

/// Nearest-rank percentile (`p` in (0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Mean of `values`; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// A metric BENCHMARK.json lists: its name and unit.
struct MetricSpec {
    std::string name;
    std::string unit;
};

/// The metrics BENCHMARK.json lists under `section` ("end_to_end" or
/// "per_layer"), in file order. Throws when the file cannot be read.
std::vector<MetricSpec> readMetricSpecs(const std::string& benchmarkJson,
                                        const std::string& section);

/// What every workload hands back to main(): the metrics it measured,
/// how many operations it attempted, the failed operations and correctness
/// checks (each counts against `attempted`), and human-readable report lines.
struct Result {
    std::map<std::string, double> values;
    std::uint64_t attempted = 0;
    std::vector<std::string> notes;
    std::vector<std::string> failures;

    void set(const std::string& name, double value) { values[name] = value; }
    void note(const std::string& line) { notes.push_back(line); }
    void fail(const std::string& what) { failures.push_back(what); }
    std::size_t failed() const { return failures.size(); }
    bool correct() const { return failures.empty(); }

    /// The last stdout line: {"correct", "attempted", "failed", "metrics"},
    /// with exactly the metrics of `specs`; one this run did not set
    /// reads 0.
    std::string json(const std::vector<MetricSpec>& specs) const;
};

}  // namespace perfbench
