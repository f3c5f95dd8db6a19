#include "probe.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "report.hpp"
#include "shtrace/circuit/assembler.hpp"
#include "shtrace/linalg/linear_solver.hpp"
#include "shtrace/util/error.hpp"

namespace perfbench {

using namespace shtrace;

HEvaluation TimedHFunction::evaluate(double setupSkew, double holdSkew,
                                     SimStats* stats) const {
    const auto start = Clock::now();
    HEvaluation out = HFunction::evaluate(setupSkew, holdSkew, stats);
    gradientSeconds_ += secondsSince(start);
    ++gradientCalls_;
    return out;
}

HEvaluation TimedHFunction::evaluateValueOnly(double setupSkew,
                                              double holdSkew,
                                              SimStats* stats) const {
    const auto start = Clock::now();
    HEvaluation out = HFunction::evaluateValueOnly(setupSkew, holdSkew, stats);
    valueOnlySeconds_ += secondsSince(start);
    ++valueOnlyCalls_;
    return out;
}

namespace {

/// Median ns per call of `fn()` over 5 batches of roughly 4 ms each.
template <typename Fn>
double perCallNs(Fn&& fn) {
    for (int i = 0; i < 3; ++i) {
        fn();
    }
    const auto calibrate = Clock::now();
    fn();
    const double once = std::max(secondsSince(calibrate), 1e-8);
    const int reps = std::clamp(static_cast<int>(0.004 / once), 1, 100000);
    std::vector<double> batches;
    for (int b = 0; b < 5; ++b) {
        const auto start = Clock::now();
        for (int i = 0; i < reps; ++i) {
            fn();
        }
        batches.push_back(secondsSince(start) * 1e9 / reps);
    }
    return median(batches);
}

}  // namespace

KernelCosts probeKernels(const CharacterizationProblem& problem,
                         const SimulationRecipe& recipe, double setupSkew,
                         double holdSkew) {
    const Circuit& circuit = problem.fixture().circuit;
    const TransientResult run = problem.h().simulate(setupSkew, holdSkew);
    require(run.success && !run.states.empty(),
            "perfbench: kernel probe transient failed");

    KernelCosts costs;
    costs.unknowns = circuit.systemSize();
    const LinalgBackend backend =
        resolveLinalgBackend(recipe.linalg, costs.unknowns);
    costs.sparse = backend == LinalgBackend::Sparse;
    Assembler asmb(costs.unknowns,
                   costs.sparse ? circuit.sparsityPattern() : nullptr);

    // Assembly cost depends on the devices' operating regions, so states at
    // 10, 30, 50, 70 and 90% of the transient are each timed in a batch of
    // their own (the step loop reassembles nearly the same state over and
    // over) and the per-state costs averaged.
    std::vector<std::size_t> at;
    for (const double f : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        at.push_back(static_cast<std::size_t>(f * static_cast<double>(run.states.size() - 1)));
    }
    std::vector<double> full, residual;
    for (const std::size_t i : at) {
        const Vector& x = run.states[i];
        const double t = run.times[i];
        full.push_back(perCallNs([&] { circuit.assemble(x, t, asmb); }));
        residual.push_back(perCallNs([&] { circuit.assembleResidual(x, t, asmb); }));
    }
    costs.assembleNs = mean(full);
    costs.assembleResidualNs = mean(residual);

    // The step matrix J = a*C + G the transient factors at the middle
    // state, with the trapezoidal coefficient of the recipe's nominal step.
    const std::size_t mid = at[at.size() / 2];
    circuit.assemble(run.states[mid], run.times[mid], asmb);
    SystemMatrix j = asmb.cSystem();
    j *= (recipe.method == IntegrationMethod::Trapezoidal ? 2.0 : 1.0) /
         recipe.dtNominal;
    j += asmb.gSystem();

    // The transient factors on one solver it keeps for the whole run.
    const std::unique_ptr<LinearSolver> solver = makeLinearSolver(backend);
    require(solver->factor(j), "perfbench: kernel probe factor failed");
    const double again = perCallNs([&] { solver->factor(j); });
    if (costs.sparse) {
        // A full sparse factorization analyses the pattern afresh; every
        // later factor on the same pattern replays that analysis.
        costs.factorNs = perCallNs([&] {
            const std::unique_ptr<LinearSolver> fresh = makeLinearSolver(backend);
            fresh->factor(j);
        });
        costs.refactorNs = again;
    } else {
        costs.factorNs = again;
    }
    const Vector rhs = asmb.f();
    Vector b = rhs;
    costs.solveNs = perCallNs([&] {
        b = rhs;
        solver->solveInPlace(b);
    });
    return costs;
}

KernelEstimate estimateKernelTime(const KernelCosts& costs,
                                  const SimStats& counts) {
    // luFactorizations counts sparse refactor replays too.
    const double fullFactors = static_cast<double>(
        counts.luFactorizations - counts.sparseRefactorizations);
    KernelEstimate e;
    e.assemblySeconds =
        1e-9 * (static_cast<double>(counts.deviceEvaluations) * costs.assembleNs +
                static_cast<double>(counts.residualOnlyAssemblies) *
                    costs.assembleResidualNs);
    e.linalgSeconds =
        1e-9 * (fullFactors * costs.factorNs +
                static_cast<double>(counts.sparseRefactorizations) *
                    costs.refactorNs +
                static_cast<double>(counts.luSolves) * costs.solveNs);
    return e;
}

}  // namespace perfbench
