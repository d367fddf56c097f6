#pragma once
// DecomposedPlanner — city-scale planning via conflict-graph decomposition
// (see ARCHITECTURE.md, "Decomposition").
//
// MIS enumeration and the extreme-point/column spaces are exponential in
// the largest CONNECTED interference neighborhood, not in the network: the
// maximal independent sets of a disconnected conflict graph are the
// Cartesian products of the components' sets (K_global = prod_c K_c), and
// conv(A x B) = conv(A) x conv(B), so the feasible rate region factors
// exactly across components. A city mesh of gateway clusters bridged by a
// few weak links is therefore mostly wasted global work — the monolithic
// planner enumerates (or prices against) a product space whose factors
// never interact.
//
// This planner splits the round along that structure:
//   1. partition the snapshot's links into interference components
//      (ConflictGraph::connected_components), cached with per-component
//      Planner instances keyed by component sub-fingerprints
//      (MeasurementSnapshot::component_fingerprint) — churn in one gateway
//      cluster never invalidates another cluster's warm model or
//      column-generation state;
//   2. plan each component against its own sub-snapshot, with every
//      per-component solve normalized by the GLOBAL capacity scale
//      (OptimizerInput/ColumnGenInput::scale_override) so scaled iterates
//      and stop thresholds keep the monolithic solve's semantics;
//   3. stitch the per-component results into one RatePlan with the
//      monolithic objective formulas and plan tail (finish_plan).
//
// Objective separability (the "Decomposition" table in ARCHITECTURE.md):
//   * kMaxThroughput — separable sum; fully independent component solves.
//   * kMaxMin — lexicographic max-min over a product region with disjoint
//     flow sets equals per-component max-min; the components couple only
//     through the reported objective (the global min of the stitched y).
//   * kProportionalFair / kAlphaFair — the OBJECTIVE is separable but the
//     monolithic Frank–Wolfe trajectory is not: its line search couples
//     all flows through one step size. The decomposed solve therefore
//     runs the one frank_wolfe (opt/rate_region.h) over the global flow
//     vector, and its linear oracle is the product of the components'
//     regions — an ExactRegion per exact-tier component, the entry-owned
//     column-generation master (ColumnGenOptimizer::region) per fast-tier
//     component.
//
// Determinism contract: a decomposed plan is a deterministic function of
// (snapshot, flows, config, partition state), bit-identical across pool
// thread counts and repeated runs (phase jobs touch disjoint per-component
// slots; all cross-component arithmetic runs on the calling thread in
// component order). Versus the monolithic solve on separable instances the
// stitched plan matches in objective to <= 1e-9 relative and in active-flow
// support (LP pivot order differs per component, so y agrees to LP
// precision, not bit-for-bit) — pinned by tests/test_decompose.cpp.
//
// Fallbacks (counted in DecomposeStats): rounds whose conflict graph is
// connected (fewer than two components), whose flows span components or
// cross no modeled link, or with degenerate inputs plan through an
// ordinary monolithic Planner instead.
//
// Wiring: Planner::plan routes PlanConfig::decompose rounds to a
// DecomposedPlanner it owns, so fleet replay, PlanService and every other
// Planner user select the tier per PlanConfig. City studies and the
// replay_city benchmark construct one directly. Every one of these is
// built without a pool: its per-component phase jobs then run on
// SweepRunner::shared() when the round has two or more active components
// and the calling thread is not itself running a SweepRunner job (serve
// batches and fleet cells plan serially); otherwise they run serially on
// the calling thread.
//
// Thread-safety: single-owner, like Planner. Distinct planners may plan
// concurrently: their phase-A runs take turns on the shared pool. Pooled,
// shared or serial, a round gives the same plan bits and the same trace
// records.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/planner.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "model/conflict_graph.h"
#include "opt/column_gen.h"
#include "opt/network_optimizer.h"
#include "opt/simplex.h"
#include "sweep/sweep_runner.h"

namespace meshopt {

/// Cumulative counters across a DecomposedPlanner's lifetime.
struct DecomposeStats {
  std::uint64_t rounds = 0;             ///< plan() calls
  std::uint64_t decomposed_rounds = 0;  ///< rounds planned per component
  std::uint64_t fallback_rounds = 0;    ///< rounds planned monolithically
  std::uint64_t fallback_connected = 0;  ///< fallbacks: too few components
  std::uint64_t fallback_cross_component = 0;  ///< fallbacks: flow spans
                                               ///< components / no links
  std::uint64_t fallback_degenerate = 0;  ///< fallbacks: empty flows/links
  std::uint64_t components_planned = 0;   ///< active components, summed
                                          ///< over decomposed rounds
  std::uint64_t partition_rebuilds = 0;   ///< component slots torn down by
                                          ///< a changed partition
  std::uint64_t pivots = 0;  ///< simplex pivots of decomposed rounds
  std::uint64_t oracle_pivots = 0;  ///< the part of `pivots` taken by the
                                    ///< joint Frank–Wolfe oracles
  std::uint64_t master_solves = 0;  ///< fast tier: restricted-master solves
                                    ///< of decomposed rounds
  // Fast tier, decomposed rounds: the components' ColumnGenStats deltas.
  std::uint64_t certified_masters = 0;  ///< masters closed without pricing
  std::uint64_t pricing_rounds = 0;     ///< pricing-oracle invocations
  std::uint64_t oracle_nodes = 0;       ///< MWIS branch-and-bound nodes
  std::uint64_t columns_admitted = 0;   ///< columns priced in
};

/// Per-component planning front end; plug-compatible with Planner::plan.
class DecomposedPlanner {
 public:
  /// `pool`, when non-null, runs per-component model/solve phases as pool
  /// jobs (NOT owned; must outlive the planner); a call from inside a pool
  /// job runs them inline. With nullptr the planner borrows
  /// SweepRunner::shared() (see the file comment).
  explicit DecomposedPlanner(SweepRunner* pool = nullptr);

  /// Plan one round, decomposing when the interference graph separates
  /// and every flow stays inside one component; otherwise fall back to a
  /// monolithic solve (same signature and semantics as Planner::plan;
  /// cfg.decompose is ignored, and the fallback planner never sees it).
  /// `cacheable = false` propagates to every component planner (repaired
  /// snapshots never become resident cache entries, as in Planner).
  [[nodiscard]] RatePlan plan(const MeasurementSnapshot& snap,
                              InterferenceModelKind kind,
                              const std::vector<FlowSpec>& flows,
                              const PlanConfig& cfg,
                              std::size_t mis_cap = 200000,
                              bool cacheable = true);

  [[nodiscard]] const DecomposeStats& stats() const { return stats_; }

  /// Aggregated Planner counters: the fallback planner plus every
  /// component slot, live or torn down by a partition change, summed —
  /// cumulative like Planner::stats(), so serving metrics that diff two
  /// snapshots never see a counter go backwards.
  [[nodiscard]] PlannerStats planner_stats_snapshot() const;

  /// The most recent decomposed round's partition (empty before one).
  [[nodiscard]] const ComponentPartition& partition() const {
    return partition_;
  }
  /// Number of component slots currently held.
  [[nodiscard]] int components() const {
    return static_cast<int>(slots_.size());
  }
  /// Cache counters of one component's private planner.
  /// @throws std::out_of_range on an invalid component index.
  [[nodiscard]] const PlannerStats& component_planner_stats(int c) const;

  /// Attach a trace recorder (borrowed; nullptr detaches). Fallback rounds
  /// emit a kComponent event naming the reason (degenerate / connected /
  /// cross-component) and plan through the observed monolithic planner;
  /// decomposed rounds emit one kComponentSolve span per active component
  /// (a = component id, b = (links << 32) | flows) in component order on
  /// the calling thread. Each component's slot planner (cache/model/
  /// pricing records) writes into a recorder of its own job; the planner
  /// re-emits those records in component order ahead of the spans, so a
  /// pooled round's trace equals the serial one, seq numbers included.
  void set_observer(TraceRecorder* obs) {
    obs_ = obs;
    fallback_.set_observer(obs);
  }
  [[nodiscard]] TraceRecorder* observer() const { return obs_; }

 private:
  /// One interference component's private planning state. Slots live as
  /// long as the partition's membership is unchanged, so their Planner
  /// caches and fast-tier warm state persist across rounds — including
  /// rounds where OTHER components churned.
  struct Slot {
    std::vector<int> members;  ///< global link ids, ascending
    Planner planner;
    LpSolver lp;         ///< exact-tier simplex workspace
    LpProblem problem;   ///< exact-tier region LP, refilled per build

    Slot(std::vector<int> m, std::size_t cache)
        : members(std::move(m)), planner(cache) {}
  };

  RatePlan fallback_plan(const MeasurementSnapshot& snap,
                         InterferenceModelKind kind,
                         const std::vector<FlowSpec>& flows,
                         const PlanConfig& cfg, std::size_t mis_cap,
                         bool cacheable, std::uint64_t DecomposeStats::*why);

  SweepRunner* pool_ = nullptr;  ///< not owned; may be null
  Planner fallback_;
  ComponentPartition partition_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Planner counters of the component slots a partition change tore down.
  PlannerStats retired_;
  DecomposeStats stats_;
  TraceRecorder* obs_ = nullptr;  ///< borrowed; see set_observer()
};

}  // namespace meshopt
