#pragma once
// One optimizer over every tier's rate region (ARCHITECTURE.md,
// "Optimizer").
//
// The paper's problem (Section 6.1) is a concave utility maximised over
// the rate region {y : R y <= sum_k alpha_k c_k, sum_k alpha_k = 1}. The
// region is log-convex and max-min is a sequence of LPs over it (Leith et
// al., PAPERS.md), so one set of routines serves every tier:
//   * max throughput — one LP,
//   * water_fill — lexicographic max-min as a sequence of LPs,
//   * frank_wolfe — alpha-fair utilities: a linear oracle per step and a
//     golden-section line search, started from the max-min point.
// They run against a RateRegionLp, which builds and solves the region's
// LP. The exact tier's region holds every extreme point (ExactRegion);
// the fast tier's is the priced column-generation master
// (ColumnGenOptimizer::region); the decomposition tier's Frank–Wolfe
// oracle is the product of its components' regions (opt/decompose.h).

#include <cstdint>
#include <span>
#include <vector>

#include "opt/network_optimizer.h"
#include "opt/simplex.h"
#include "opt/utility.h"

namespace meshopt {

/// How RateRegionLp::solve starts the simplex.
enum class LpStart : std::uint8_t {
  kCold,              ///< two-phase solve from scratch
  kResolveObjective,  ///< same rows as the previous solve, new objective
  kCarried,           ///< offer the basis carried from the previous round
                      ///< (see carry()); cold where none is carried
};

/// The rate-region LP over variables (y_0..y_{S-1}, region weights, extra
/// variables) with capacities normalised by scale(): one Le row per link
/// coupling flows to the region's columns, the convexity Eq row, and a
/// unit cap on every flow that crosses no modeled link. Callers append
/// their own rows and objective after build().
class RateRegionLp {
 public:
  [[nodiscard]] int flows() const { return flows_; }
  [[nodiscard]] double scale() const { return scale_; }

  /// Refill the problem with the region rows, `extra_vars` zero columns
  /// after the region's (max-min's level t) and a zero objective.
  virtual LpProblem& build(int extra_vars) = 0;
  /// Solve the problem as last built and extended. The fast tier prices
  /// columns into it, so the solution may be wider than at build time.
  virtual const LpSolution& solve(LpStart start) = 0;
  /// Keep the current optimal basis for the next round's kCarried solve.
  virtual void carry() {}

  /// Frank–Wolfe linear oracle: maximise grad . y over the built region
  /// (grad covers the flows), starting from the carried basis on the
  /// `first` call and from the previous optimum after it.
  const LpSolution& oracle(std::span<const double> grad, bool first);

 protected:
  RateRegionLp(LpProblem& lp, int flows, double scale)
      : lp_(lp), flows_(flows), scale_(scale) {}
  ~RateRegionLp() = default;

  /// The part of build() every region shares: reset the problem to the
  /// flows, `columns` region columns and `extra_vars`, then add the link
  /// rows (routing filled in; the region's coefficients are the caller's
  /// to write), the convexity row and the unrouted-flow caps.
  LpProblem& refill(const DenseMatrix& routing, int columns, int extra_vars);

  LpProblem& lp_;  ///< the problem build() refills

 private:
  int flows_;
  double scale_;
};

/// The exact tier's region: one column per extreme point of `in`, scaled
/// by in.scale_override or else by the largest extreme-point entry.
class ExactRegion final : public RateRegionLp {
 public:
  /// `in`, `solver` and `lp` are borrowed and must outlive the region.
  ExactRegion(const OptimizerInput& in, LpSolver& solver, LpProblem& lp);

  LpProblem& build(int extra_vars) override;
  const LpSolution& solve(LpStart start) override;

 private:
  const OptimizerInput& in_;
  LpSolver& solver_;
};

/// Solve config.objective over `region`: the one dispatch every tier runs.
/// Max throughput and the Frank–Wolfe end carry their final basis.
[[nodiscard]] OptimizerResult optimize_region(RateRegionLp& region,
                                              const OptimizerConfig& config);

/// Lexicographic max-min by water-filling LPs over `region`. Never
/// carries a basis, so a Frank–Wolfe run started from it still offers
/// the previous round's.
[[nodiscard]] OptimizerResult water_fill(RateRegionLp& region);

/// What a Frank–Wolfe run did.
struct FwRun {
  int iterations = 0;      ///< oracle steps taken
  double objective = 0.0;  ///< utility of the final iterate's flows
};

namespace fw_detail {

/// The alpha-fair utility config.objective names (alpha 1 for
/// proportional fairness), floored at 1e-6.
[[nodiscard]] AlphaFairUtility utility(const OptimizerConfig& config);

/// One Frank–Wolfe step toward the oracle vertex `v`: widen `z` to v's
/// length, stop (false) once the duality gap over the first `flows`
/// entries is within tolerance, else blend every entry of z toward v by
/// the golden-section step over those flows.
[[nodiscard]] bool step(const AlphaFairUtility& util, int flows,
                        double tolerance, const std::vector<double>& grad,
                        std::vector<double>& z, std::span<const double> v);

}  // namespace fw_detail

/// Frank–Wolfe for the alpha-fair objectives. `z` holds the start: flows
/// first, then whatever the oracle's vertices carry after them (region
/// weights); it may grow as the vertices do. `oracle(grad, first)`
/// returns the vertex maximising grad . y, or an empty span when it
/// failed, which ends the run at the current iterate.
template <class Oracle>
FwRun frank_wolfe(const OptimizerConfig& config, int flows,
                  std::vector<double>& z, Oracle&& oracle) {
  const AlphaFairUtility util = fw_detail::utility(config);
  std::vector<double> grad(static_cast<std::size_t>(flows));
  FwRun run;
  for (; run.iterations < config.fw_iterations; ++run.iterations) {
    for (int f = 0; f < flows; ++f)
      grad[static_cast<std::size_t>(f)] =
          util.gradient(z[static_cast<std::size_t>(f)]);
    const std::span<const double> v = oracle(grad, run.iterations == 0);
    if (v.empty() ||
        !fw_detail::step(util, flows, config.tolerance, grad, z, v))
      break;
  }
  for (int f = 0; f < flows; ++f)
    run.objective += util.value(z[static_cast<std::size_t>(f)]);
  return run;
}

}  // namespace meshopt
