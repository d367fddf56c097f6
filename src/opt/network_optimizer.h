#pragma once
// The paper's optimization problem (Section 6.1):
//
//   maximize   sum_s U(y_s)
//   subject to sum_s R_ls y_s <= sum_k alpha_k c_kl    for every link l
//              sum_k alpha_k = 1,  alpha >= 0,  y >= 0
//
// NetworkOptimizer is the exact tier: the region is the full K x L
// extreme-point matrix (ExactRegion), solved by the routines every tier
// shares (opt/rate_region.h) — simplex for max throughput, Frank–Wolfe
// with an LP oracle and golden-section line search for the alpha-fair
// objectives, and water-filling LPs for max-min fairness (the
// alpha -> infinity end of the family; an extension beyond the paper's
// evaluated objectives).
//
// All matrices are flat row-major DenseMatrix: the routing matrix is
// L x S, the extreme-point matrix K x L, and both flow into the LP
// constraint matrix without per-row heap allocations.

#include <cstdint>
#include <vector>

#include "opt/simplex.h"
#include "opt/utility.h"
#include "util/dense_matrix.h"

namespace meshopt {

/// Which point of the alpha-fair utility family to optimize.
enum class Objective : std::uint8_t {
  kMaxThroughput,      ///< alpha = 0: maximize sum of flow rates
  kProportionalFair,   ///< alpha = 1: maximize sum of log(y_s)
  kAlphaFair,          ///< arbitrary alpha (OptimizerConfig::alpha)
  kMaxMin,             ///< alpha -> infinity: lexicographic max-min
};

/// Tuning knobs for NetworkOptimizer / optimize_rates.
struct OptimizerConfig {
  Objective objective = Objective::kProportionalFair;
  double alpha = 1.0;       ///< exponent used when objective == kAlphaFair
  int fw_iterations = 300;  ///< Frank–Wolfe iteration cap
  double tolerance = 1e-4;  ///< relative FW duality-gap stop criterion
};

/// Inputs to one optimization round.
///
/// Unit convention: extreme-point entries are link rates in bits/s (the
/// controller feeds MAC-layer capacity estimates, Eq. 6 of the paper);
/// routing entries are dimensionless path-incidence indicators (R[l][s] = 1
/// iff flow s crosses link l). Outputs come back in the same bits/s scale.
struct OptimizerInput {
  /// L x S routing matrix: routing(l, s) = 1 if flow s crosses link l.
  DenseMatrix routing;
  /// K x L extreme points of the feasible rate region, in bits/s. Build
  /// with fill_extreme_point_matrix() over ConflictGraph's packed MIS rows
  /// (independent_set_rows()).
  DenseMatrix extreme_points;
  /// When > 0, normalize capacities by this instead of the input's own
  /// max extreme-point entry. The decomposition tier (opt/decompose.h)
  /// passes the GLOBAL scale into each per-component solve so scaled
  /// iterates, tolerances, and stop thresholds have exactly the
  /// semantics of the monolithic solve. 0 (default) keeps the
  /// self-scaling behavior.
  double scale_override = 0.0;
};

/// One optimization round's output.
struct OptimizerResult {
  bool ok = false;                    ///< false: empty/degenerate input or
                                      ///< infeasible LP
  std::vector<double> y;              ///< per-flow rates (bits/s), length S
  std::vector<double> alpha_weights;  ///< convex weights over extreme
                                      ///< points, length K, sum to 1
  double objective_value = 0.0;       ///< attained utility (objective units)
  int iterations = 0;                 ///< Frank–Wolfe iterations used
  int columns_used = 0;    ///< column generation only: working-set size the
                           ///< restricted master finished with (0 for the
                           ///< exact full-K solver)
  int pricing_rounds = 0;  ///< column generation only: pricing-oracle
                           ///< invocations across the solve (none on
                           ///< masters certified complete)
};

/// Reusable solver for the paper's utility maximization.
///
/// Owns the LP workspace (constraint matrix + simplex tableau), so a
/// controller calling solve() every probe round — or Frank–Wolfe issuing
/// hundreds of LP-oracle calls per solve — re-uses one set of buffers
/// instead of reallocating per solve. Not thread-safe: use one instance
/// per thread (SweepRunner jobs each construct their own).
class NetworkOptimizer {
 public:
  explicit NetworkOptimizer(OptimizerConfig config = {}) : cfg_(config) {}

  [[nodiscard]] const OptimizerConfig& config() const { return cfg_; }
  OptimizerConfig& config() { return cfg_; }

  /// Solve one round over the given rate region and routing.
  ///
  /// @pre  input.routing is L x S with L, S >= 1 and entries >= 0;
  ///       input.extreme_points is K x L with K >= 1 and entries >= 0
  ///       (bits/s). A shape mismatch between the two matrices throws
  ///       std::invalid_argument; an empty dimension returns ok == false.
  /// @post on ok: result.y.size() == S with y >= 0 (bits/s);
  ///       result.alpha_weights.size() == K, weights >= 0 and summing to
  ///       1; the induced link load R.y is feasible:
  ///       (R.y)_l <= sum_k alpha_k c_kl + eps for every link l.
  /// @post solve() does not retain references into `input`; the instance
  ///       may be reused with different shapes.
  [[nodiscard]] OptimizerResult solve(const OptimizerInput& input);

  /// Simplex pivots across every solve of this instance
  /// (LpSolver::pivots); a deterministic work count.
  [[nodiscard]] std::uint64_t pivots() const { return lp_.pivots(); }

 private:
  OptimizerConfig cfg_;
  LpSolver lp_;         ///< shared simplex workspace across all solves
  LpProblem problem_;   ///< the region LP, refilled in place per build
};

/// One-shot convenience wrapper: NetworkOptimizer(config).solve(input).
[[nodiscard]] OptimizerResult optimize_rates(const OptimizerInput& input,
                                             const OptimizerConfig& config);

/// Scale factor the controller applies to TCP flows so the reverse-path
/// ACKs get air time (paper Section 6.2, following [21]):
/// (1 - (A+H)/(A+H+D)) with A=TCP ACK, H=IP/TCP headers, D=payload, all
/// in bytes. Dimensionless, in (0, 1).
[[nodiscard]] double tcp_ack_airtime_factor(int payload_bytes = 1460,
                                            int header_bytes = 40,
                                            int ack_bytes = 40);

}  // namespace meshopt
