// perfbench -- the workloads and what main() hands them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 0;  ///< 0 = the unperturbed figure configuration
    double seconds = 10.0;   ///< measured time per run
    bool trace = false;      ///< per-layer run instead of end-to-end
    std::string benchDir;    ///< perfbench/ (holds reference/)
    std::string workDir;     ///< scratch space inside the checkout
    std::string writeReferenceDir;  ///< non-empty: write reference contours
};

/// Set-up repeats until both minimums are met; setup_s is the median
/// repeat, each scaled to the reference host speed like every other time.
inline constexpr std::size_t kMinSetupRepeats = 5;
inline constexpr double kMinSetupSeconds = 3.0;

inline bool moreSetupRepeats(std::size_t done, double elapsedSeconds) {
    return done < kMinSetupRepeats || elapsedSeconds < kMinSetupSeconds;
}

/// Re-evaluated |h| at a published point must stay within this many
/// corrector tolerances (MpnrOptions::hTol).
inline constexpr double kResidualToleranceFactor = 10.0;

/// paper_contours and chain16_contour.
Result runComputeWorkload(const RunOptions& options);

/// serve_mixed.
Result runServeMixed(const RunOptions& options);

}  // namespace perfbench
