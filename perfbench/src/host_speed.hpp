// perfbench -- scaling wall times to a reference host speed.
//
// On a shared host the speed one thread gets changes by tens of percent
// every few seconds (other tenants' load on the same cores comes and goes), so
// raw wall times of one input spread far wider than a regression worth
// catching. HostSpeed runs a fixed reference kernel every few tens of
// milliseconds on the CPUs the measured work runs on, and an operation's
// wall time is reported scaled by
// kReferenceKernelSeconds / (mean kernel time while it ran). The kernel is
// compiled into the benchmark, not the library, so no change to the
// program moves it: a program that gets slower reads slower in proportion.
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// The kernel's nominal time: a scaled time reads as wall seconds on a
/// host where one run of the reference kernel takes this long.
inline constexpr double kReferenceKernelSeconds = 0.001;

class HostSpeed {
public:
    /// Starts the samplers. With `pinCaller`, the calling thread and one
    /// sampler share the CPU the caller runs on, so the samples see the
    /// speed the caller gets: for single-threaded work. Otherwise one
    /// sampler runs on each CPU the process may use and the speed is their
    /// mean: for work that spreads over the CPUs.
    explicit HostSpeed(bool pinCaller);
    ~HostSpeed();
    HostSpeed(const HostSpeed&) = delete;
    HostSpeed& operator=(const HostSpeed&) = delete;

    /// The factor that scales the wall time of an operation that ran from
    /// `start` until now to the reference speed: per sampler, the mean of
    /// the samples taken while it ran, or the latest one before it for a
    /// short operation; then the mean over samplers.
    double scale(Clock::time_point start);

    /// A report line: how many kernel runs so far, and their minimum,
    /// median and maximum time.
    std::string summary();

private:
    struct Sampler {
        std::thread thread;
        std::vector<std::pair<Clock::time_point, double>> samples;
    };

    void sampleLoop(Sampler& sampler);

    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::vector<Sampler> samplers_;
};

}  // namespace perfbench
