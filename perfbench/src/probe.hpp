// perfbench -- layer timing from outside the library: an HFunction
// decorator that times every h-evaluation, and a kernel probe that times
// assembly and linear-algebra calls on a workload's own mid-transient state.
#pragma once

#include <cstddef>

#include "shtrace/chz/h_function.hpp"
#include "shtrace/chz/problem.hpp"

namespace perfbench {

/// Times each call into the wrapped HFunction, the same decorator hook
/// tests/fault_injection.hpp uses. Single-threaded use only.
class TimedHFunction final : public shtrace::HFunction {
public:
    explicit TimedHFunction(const shtrace::HFunction& inner)
        : shtrace::HFunction(inner) {}

    shtrace::HEvaluation evaluate(double setupSkew, double holdSkew,
                                  shtrace::SimStats* stats) const override;
    shtrace::HEvaluation evaluateValueOnly(
        double setupSkew, double holdSkew,
        shtrace::SimStats* stats) const override;

    double gradientSeconds() const { return gradientSeconds_; }
    double valueOnlySeconds() const { return valueOnlySeconds_; }
    std::size_t gradientCalls() const { return gradientCalls_; }
    std::size_t valueOnlyCalls() const { return valueOnlyCalls_; }
    double totalSeconds() const { return gradientSeconds_ + valueOnlySeconds_; }

private:
    mutable double gradientSeconds_ = 0.0;
    mutable double valueOnlySeconds_ = 0.0;
    mutable std::size_t gradientCalls_ = 0;
    mutable std::size_t valueOnlyCalls_ = 0;
};

/// Per-call cost of the kernels inside one transient step, in ns, measured
/// on states captured from `problem.h().simulate(...)` at the given skews,
/// each priced the way the transient calls it.
struct KernelCosts {
    std::size_t unknowns = 0;
    bool sparse = false;
    double assembleNs = 0.0;          ///< Circuit::assemble (full pass)
    double assembleResidualNs = 0.0;  ///< Circuit::assembleResidual
    /// A full factorization: dense, a factor on a reused solver (no
    /// allocation); sparse, a factor on a fresh solver (symbolic analysis).
    double factorNs = 0.0;
    double refactorNs = 0.0;  ///< sparse numeric replay on the same solver; 0 dense
    double solveNs = 0.0;     ///< LinearSolver::solveInPlace
};

KernelCosts probeKernels(const shtrace::CharacterizationProblem& problem,
                         const shtrace::SimulationRecipe& recipe,
                         double setupSkew, double holdSkew);

/// Kernel time implied by a run's counters: counts x per-call cost.
struct KernelEstimate {
    double assemblySeconds = 0.0;
    double linalgSeconds = 0.0;
};

KernelEstimate estimateKernelTime(const KernelCosts& costs,
                                  const shtrace::SimStats& counts);

}  // namespace perfbench
