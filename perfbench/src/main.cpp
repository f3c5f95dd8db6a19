// perfbench -- the repository benchmark program.
//
//   perfbench --workload <paper_contours|chain16_contour|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--bench-dir perfbench] [--work-dir <dir>]
//             [--write-reference <dir>]
//
// Prints report lines, then as its last stdout line one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// that BENCHMARK.json (next to the bench dir) lists, by name and unit.
// Exits 1 when a correctness check failed, 2 on a usage or set-up error.
// perfbench/run.py builds this binary and is the command to run.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "workload.hpp"

namespace {

using perfbench::Result;

int usage(const std::string& why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <paper_contours|chain16_contour|"
                 "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
                 "[--bench-dir <dir>] [--work-dir <dir>] "
                 "[--write-reference <dir>]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunOptions options;
    options.benchDir = "perfbench";
    options.workDir = ".bench_build/work";
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) {
                return usage("missing value for " + arg);
            }
            const std::string value = argv[++i];
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                options.trace = value != "0";
            } else if (arg == "--bench-dir") {
                options.benchDir = value;
            } else if (arg == "--work-dir") {
                options.workDir = value;
            } else if (arg == "--write-reference") {
                options.writeReferenceDir = value;
            } else {
                return usage("unknown argument " + arg);
            }
        }
    } catch (const std::exception&) {
        return usage("bad numeric argument");
    }
    if (!(options.seconds > 0.0)) {
        return usage("--seconds must be positive");
    }
    std::vector<perfbench::MetricSpec> metrics;
    try {
        metrics = perfbench::readMetricSpecs(options.benchDir + "/../BENCHMARK.json",
                                             options.trace ? "per_layer" : "end_to_end");
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    Result result;
    try {
        if (options.workload == "paper_contours" ||
            options.workload == "chain16_contour") {
            result = perfbench::runComputeWorkload(options);
        } else if (options.workload == "serve_mixed") {
            result = perfbench::runServeMixed(options);
        } else {
            return usage("unknown workload '" + options.workload + "'");
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
                  << "\n";
        return 2;
    }

    for (const std::string& line : result.notes) {
        std::cout << "# " << line << "\n";
    }
    constexpr std::size_t kShownFailures = 20;
    for (std::size_t i = 0; i < result.failures.size() && i < kShownFailures; ++i) {
        std::cout << "# FAILED: " << result.failures[i] << "\n";
        std::cerr << "perfbench: FAILED: " << result.failures[i] << "\n";
    }
    if (result.failures.size() > kShownFailures) {
        std::cout << "# FAILED: ... and " << result.failures.size() - kShownFailures
                  << " more\n";
    }
    const double failedFrac =
        result.attempted > 0
            ? static_cast<double>(result.failed()) / static_cast<double>(result.attempted)
            : 1.0;
    std::cout << "# failed_frac = " << failedFrac << " (" << result.failed() << " of "
              << result.attempted << ")\n";
    std::cout << result.json(metrics) << std::endl;
    return result.correct() && result.attempted > 0 ? EXIT_SUCCESS : 1;
}
