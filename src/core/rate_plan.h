#pragma once
// RatePlan + plan_rates() — stage 3 of the control plane's
// snapshot → model → plan pipeline (see ARCHITECTURE.md, "Control plane").
//
// plan_rates() is a pure function of value types: it never touches a live
// Network, takes no locks, draws no randomness, and allocates only its
// outputs. Given equal inputs it returns a bit-identical plan — the
// property the snapshot-replay tests and the multi-threaded
// ControllerFleet driver rely on.

#include <cstddef>
#include <span>
#include <vector>

#include "core/interference.h"
#include "core/snapshot.h"
#include "opt/column_gen.h"
#include "opt/network_optimizer.h"
#include "phy/radio.h"

namespace meshopt {

/// Value-type description of one managed end-to-end flow (the pipeline's
/// counterpart of ManagedFlow, minus the actuation callback).
struct FlowSpec {
  int flow_id = -1;
  std::vector<NodeId> path;  ///< node sequence src..dst
  bool is_tcp = false;       ///< apply the TCP ACK airtime factor to x_s

  friend bool operator==(const FlowSpec&, const FlowSpec&) = default;
};

/// Tuning knobs of the plan stage.
struct PlanConfig {
  OptimizerConfig optimizer{};
  /// Global scale-down of computed input rates (1.0 = none).
  double headroom = 1.0;
  /// Which planning path runs (ARCHITECTURE.md, "Plan tiers"):
  /// kExact — the full-K extreme-point path, bit-identical across thread
  /// counts, replay vs live, cached vs cold (the default and the
  /// reference);
  /// kFast — column generation over the conflict graph, objective within
  /// a 1e-6 relative gap of kExact (CI-pinned) but NOT bit-identical to
  /// it; still a deterministic function of (inputs, replay configuration).
  PlanTier tier = PlanTier::kExact;
  /// Plan through the decomposition tier (opt/decompose.h): Planner::plan
  /// hands the round to the DecomposedPlanner it owns, which solves each
  /// interference component apart and falls back to a monolithic solve on
  /// connected rounds, cross-component flows and degenerate inputs.
  bool decompose = false;
};

/// One rate-limiter program: flow `flow_id` shaped to `x_bps` input rate.
struct ShaperProgram {
  int flow_id = -1;
  double x_bps = 0.0;

  friend bool operator==(const ShaperProgram&, const ShaperProgram&) = default;
};

/// Stage-3 output: target output rates, input rates, shaper programs.
struct RatePlan {
  bool ok = false;        ///< false: empty input or infeasible optimization
  std::vector<double> y;  ///< optimized output rates per flow (bits/s)
  std::vector<double> x;  ///< input rates per flow after loss compensation,
                          ///< TCP ACK discount and headroom (bits/s)
  std::vector<ShaperProgram> shapers;  ///< one per flow, in flow order
  int extreme_points = 0;              ///< K of the rate region used: full K
                                       ///< (exact) or working-set size (fast)
  int optimizer_iterations = 0;        ///< Frank–Wolfe iterations used

  // Tier metadata. Both tiers report objective_value; the column-
  // generation counters stay 0 on the exact tier.
  PlanTier tier = PlanTier::kExact;  ///< which tier produced this plan
  double objective_value = 0.0;      ///< attained utility (objective units)
  int columns_generated = 0;  ///< fast tier: working-set columns at finish
  int pricing_rounds = 0;     ///< fast tier: pricing-oracle invocations
                              ///< (0 when every master was certified
                              ///< complete, see ColumnGenStats)

  friend bool operator==(const RatePlan&, const RatePlan&) = default;
};

/// Compute a rate plan from a snapshot and its interference model.
///
/// @pre  `model` was built from `snapshot` (model.num_links() must equal
///       snapshot.links.size()); every hop of every flow path should map
///       to a snapshot link (unknown hops are skipped, matching the
///       historical controller behavior).
/// @post on ok: y.size() == x.size() == shapers.size() == flows.size();
///       shapers[s] targets flows[s].flow_id. Deterministic: equal inputs
///       give bit-identical outputs.
[[nodiscard]] RatePlan plan_rates(const MeasurementSnapshot& snapshot,
                                  const InterferenceModel& model,
                                  const std::vector<FlowSpec>& flows,
                                  const PlanConfig& cfg);

/// Overload with fast-tier warm state: when cfg.tier == PlanTier::kFast
/// and `warm` is non-null, the solve reuses `warm`'s working column set
/// and carried basis (the cross-round warm start; the Planner passes its
/// per-topology-entry instance). A null `warm` runs the fast tier cold;
/// the exact tier ignores the argument entirely. The caller owns keeping
/// `warm` keyed to the snapshot's topology — a warm instance must only
/// ever see one conflict-graph structure (see ColumnGenOptimizer::reset).
[[nodiscard]] RatePlan plan_rates(const MeasurementSnapshot& snapshot,
                                  const InterferenceModel& model,
                                  const std::vector<FlowSpec>& flows,
                                  const PlanConfig& cfg,
                                  ColumnGenOptimizer* warm);

/// Every flow's hops resolved to snapshot link indices, once per round
/// (-1: a hop the snapshot does not model; a repeated (src, dst) resolves
/// to its first link, as MeasurementSnapshot::link_index). The one hop
/// resolver of the plan path and PlanValidator.
class FlowHops {
 public:
  FlowHops(const MeasurementSnapshot& snapshot,
           const std::vector<FlowSpec>& flows);
  /// The hops of flow `s`, in path order.
  [[nodiscard]] std::span<const int> operator[](std::size_t s) const {
    return {link_.data() + begin_[s], begin_[s + 1] - begin_[s]};
  }

 private:
  std::vector<std::size_t> begin_;  ///< flows + 1 offsets into link_
  std::vector<int> link_;
};

/// The plan tail both planners share: set plan.ok and plan.y = y, then
/// turn each output rate into the input rate its shaper is programmed
/// with: compensate the residual network-layer loss after MAC retries,
/// discount TCP flows for their ACK airtime, and apply cfg.headroom.
void finish_plan(RatePlan& plan, const MeasurementSnapshot& snapshot,
                 const std::vector<FlowSpec>& flows, const FlowHops& hops,
                 const PlanConfig& cfg, std::vector<double> y);

}  // namespace meshopt
