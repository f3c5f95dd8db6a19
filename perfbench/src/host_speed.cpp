#include "host_speed.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr std::chrono::milliseconds kSamplePeriod{40};

volatile double gSink = 0.0;

/// Pins the calling thread to `cpu`; a no-op where the host does not
/// allow it.
void pinTo(int cpu) {
    if (cpu < 0) {
        return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/// Runs the reference kernel once (dense 14x14 LU factorizations with
/// exp-filled entries) and returns the calling thread's CPU time for it.
double timeReferenceKernel() {
    constexpr int kN = 14;
    constexpr int kRepeats = 400;
    const double start = threadCpuSeconds();
    double acc = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
        double a[kN][kN];
        for (int i = 0; i < kN; ++i) {
            for (int j = 0; j < kN; ++j) {
                a[i][j] = std::exp(-0.1 * (i - j) * (i - j) + 1e-3 * rep) +
                          (i == j ? 3.0 : 0.0);
            }
        }
        for (int k = 0; k < kN; ++k) {
            for (int i = k + 1; i < kN; ++i) {
                const double f = a[i][k] / a[k][k];
                for (int j = k; j < kN; ++j) {
                    a[i][j] -= f * a[k][j];
                }
            }
        }
        acc += a[kN - 1][kN - 1];
    }
    gSink = acc;
    return threadCpuSeconds() - start;
}

}  // namespace

HostSpeed::HostSpeed(bool pinCaller) {
    std::vector<int> cpus;
    if (pinCaller) {
        cpus.push_back(sched_getcpu());
        pinTo(cpus.front());
    } else {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &allowed)) {
                    cpus.push_back(cpu);
                }
            }
        }
        if (cpus.empty()) {
            cpus.push_back(-1);  // one sampler, wherever it runs
        }
    }
    samplers_.resize(cpus.size());
    for (std::size_t i = 0; i < cpus.size(); ++i) {
        Sampler& sampler = samplers_[i];
        // Room for over a minute of samples: in a run of the benchmark's
        // length a sampler thread never allocates.
        sampler.samples.reserve(2048);
        sampler.thread = std::thread([this, &sampler, cpu = cpus[i]] {
            pinTo(cpu);
            sampleLoop(sampler);
        });
    }
    // Every sampler has a sample before any operation starts.
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [this] {
        for (const Sampler& sampler : samplers_) {
            if (sampler.samples.empty()) {
                return false;
            }
        }
        return true;
    });
}

HostSpeed::~HostSpeed() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (Sampler& sampler : samplers_) {
        sampler.thread.join();
    }
}

void HostSpeed::sampleLoop(Sampler& sampler) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        lock.unlock();
        const Clock::time_point at = Clock::now();
        const double seconds = timeReferenceKernel();
        lock.lock();
        sampler.samples.emplace_back(at, seconds);
        wake_.notify_all();
        wake_.wait_for(lock, kSamplePeriod, [this] { return stop_; });
    }
}

double HostSpeed::scale(Clock::time_point start) {
    std::lock_guard<std::mutex> lock(mutex_);
    double sumOfMeans = 0.0;
    for (const Sampler& sampler : samplers_) {
        double sum = 0.0;
        std::size_t n = 0;
        for (auto it = sampler.samples.rbegin(); it != sampler.samples.rend(); ++it) {
            if (it->first < start && n > 0) {
                break;
            }
            sum += it->second;
            ++n;
            if (it->first < start) {
                break;  // a short operation: the latest sample before it
            }
        }
        sumOfMeans += sum / static_cast<double>(n);
    }
    return kReferenceKernelSeconds * static_cast<double>(samplers_.size()) / sumOfMeans;
}

std::string HostSpeed::summary() {
    std::vector<double> ms;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Sampler& sampler : samplers_) {
            for (const auto& sample : sampler.samples) {
                ms.push_back(1e3 * sample.second);
            }
        }
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "reference kernel: %zu runs on %zu CPU(s), min %.3f / median %.3f / "
                  "max %.3f ms (nominal %.3f ms)",
                  ms.size(), samplers_.size(), *std::min_element(ms.begin(), ms.end()),
                  median(ms), *std::max_element(ms.begin(), ms.end()),
                  1e3 * kReferenceKernelSeconds);
    return line;
}

}  // namespace perfbench
