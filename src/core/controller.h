#pragma once
// MeshController — the paper's online optimization loop (Sections 5-6),
// as a thin adapter over the staged control-plane pipeline:
//
//   sense    — run the broadcast probing system, read the monitors into a
//              MeasurementSnapshot (value type, JSON-serializable),
//   validate — SnapshotValidator (core/guard.h): range, NaN and coverage
//              checks with a clamp-or-drop repair tier,
//   model    — InterferenceModel::build(snapshot, kind): conflict graph,
//              MIS rows and extreme points (Eq. 4),
//   plan     — plan_rates(snapshot, model, flows, cfg): pure optimization
//              to a RatePlan (target y_s, input x_s, shaper programs),
//              checked by the PlanValidator guardrail,
//   apply    — program the flows' rate limiters from the plan.
//
// Only sense and apply touch the live Network; the middle stages are pure
// value-type functions, so a recorded snapshot replayed offline produces a
// bit-identical plan (tests/test_control_plane.cpp) and many controller
// loops can run concurrently (sweep/controller_fleet.h).
//
// The controller stays phase-explicit (start_probing / update_estimates /
// optimize_and_apply) so experiments can interleave it with traffic
// exactly like the paper's two-phase runs; every entry point ends in the
// one control round, guarded_step().

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/guard.h"
#include "core/interference.h"
#include "core/planner.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "estimation/capacity.h"
#include "opt/network_optimizer.h"
#include "probe/probe_system.h"
#include "routing/ett.h"
#include "scenario/workbench.h"
#include "util/dense_matrix.h"

namespace meshopt {

class SnapshotSource;
class TraceRecorder;
class TraceWriter;

/// Knobs of one controller instance (probing cadence + plan tuning).
struct ControllerConfig {
  double probe_period_s = 0.5;
  int probe_window = 200;  ///< S probes per estimation window
  int w_min = 10;          ///< estimator minimum sliding window
  int payload_bytes = 1470;
  OptimizerConfig optimizer{};
  InterferenceModelKind interference = InterferenceModelKind::kTwoHop;
  /// Optional global scale-down of computed input rates (1.0 = none).
  double headroom = 1.0;
  /// Plan tier (ARCHITECTURE.md, "Plan tiers"): kExact is the
  /// bit-identical reference path; kFast plans via column generation with
  /// cross-round warm starts — objective gap-bounded (<= 1e-6 relative vs
  /// exact), not bit-identical to it.
  PlanTier plan_tier = PlanTier::kExact;
  /// Planner model-cache entries (0 disables: every round re-enumerates).
  /// Rounds whose snapshot keeps the previous topology fingerprint reuse
  /// the cached MIS rows; plans are bit-identical either way.
  std::size_t planner_cache = 4;

  /// The plan-stage slice of this config (optimizer + headroom + tier).
  [[nodiscard]] PlanConfig plan() const {
    return PlanConfig{optimizer, headroom, plan_tier};
  }
};

/// A flow under management: its FlowSpec plus the actuation callback.
struct ManagedFlow {
  int flow_id = -1;
  std::vector<NodeId> path;  ///< node sequence src..dst
  Rate rate = Rate::kR1Mbps;
  bool is_tcp = false;
  /// Callback that programs the flow's rate limiter with x_s (bits/s).
  std::function<void(double x_bps)> apply_rate;
};

struct LinkEstimateRow {
  LinkRef link;
  LinkCapacityEstimate estimate;
};

/// One round's outcome, as the live controller reports it (a view of the
/// underlying RatePlan plus the estimates the plan was computed from).
struct RoundResult {
  bool ok = false;
  std::vector<LinkEstimateRow> links;
  std::vector<double> y;  ///< optimized output rates per managed flow
  std::vector<double> x;  ///< applied input rates per managed flow
  int extreme_points = 0;
  int optimizer_iterations = 0;
  HealthState health = HealthState::kHealthy;  ///< state after the round
  bool held = false;       ///< fallback: last-known-good plan held instead
  bool exhausted = false;  ///< the SnapshotSource had no more windows
};

class MeshController {
 public:
  MeshController(Network& net, ControllerConfig cfg, std::uint64_t seed);

  /// Register a flow (its path also defines the links under management).
  void manage_flow(ManagedFlow flow);

  [[nodiscard]] const std::vector<ManagedFlow>& flows() const {
    return flows_;
  }
  [[nodiscard]] const std::vector<LinkRef>& links() const { return links_; }

  /// The flows as value-type FlowSpecs (what plan_rates consumes).
  [[nodiscard]] std::vector<FlowSpec> flow_specs() const;

  /// Provide a measured L×L LIR table (aligned with links() order) to use
  /// the binary-LIR interference model instead of two-hop.
  void set_lir_table(DenseMatrix lir, double threshold = 0.95);

  /// Neighbor predicate for the two-hop model (defaults to channel
  /// decodability). Evaluated once per node pair at sense time and
  /// recorded symmetrically in the snapshot.
  void set_neighbor_predicate(std::function<bool(NodeId, NodeId)> pred);

  /// Phase 1: start the probing system on every node touched by a flow.
  void start_probing();
  void stop_probing();
  /// Seconds of probing needed to fill one estimation window.
  [[nodiscard]] double probing_window_seconds() const {
    return cfg_.probe_period_s * cfg_.probe_window;
  }

  /// Phase 2: sense a fresh MeasurementSnapshot from the probe monitors
  /// and refresh the link-estimate view + topology database. When a trace
  /// writer is attached (record_to), the sensed snapshot is appended to
  /// the trace.
  void update_estimates();

  /// One windowed sensing step: start (or keep) probing, advance the
  /// simulation by one probing window, then update_estimates(). This is
  /// the live half of a controller round — LiveSource drives it per
  /// next(), and run_round() is sense_window + optimize_and_apply().
  void sense_window(Workbench& wb);

  /// Record mode: append every snapshot sensed by update_estimates() to
  /// `writer` (borrowed; nullptr stops recording). Replaying the trace
  /// through the pure pipeline reproduces this controller's plans
  /// bit-identically (tests/test_trace.cpp).
  void record_to(TraceWriter* writer) { trace_writer_ = writer; }

  /// Sense stage on its own: read the monitors into a value-type snapshot
  /// without mutating controller state. Safe to call repeatedly.
  [[nodiscard]] MeasurementSnapshot sense_snapshot() const;

  /// The snapshot captured by the last update_estimates() call.
  [[nodiscard]] const MeasurementSnapshot& snapshot() const {
    return snapshot_;
  }

  // ---- The control round (ARCHITECTURE.md, "Control plane"): every entry
  // point below validates its input and runs the HEALTHY -> DEGRADED ->
  // FALLBACK state machine; on clean inputs the validators only read.

  /// The one control round over an already produced snapshot: validate
  /// it (by value: the repair tier mutates this copy, never the
  /// caller's), plan, guardrail the plan, and actuate — or hold the
  /// last-known-good plan and back off. Never throws on bad measurements
  /// or failing apply callbacks; every anomaly lands in health_stats().
  RoundResult guarded_step(MeasurementSnapshot snap);

  /// Phase 3: guarded_step() over the last sensed snapshot.
  RoundResult optimize_and_apply();

  /// Probe for one window of simulated time, then optimize_and_apply().
  /// The caller's simulation keeps running its traffic meanwhile.
  RoundResult run_round(Workbench& wb);

  /// guarded_step() over the next window of `source`. Composes with
  /// LiveSource (live loop, the same round as run_round), TraceSource
  /// (replay-driven), and FaultEngine (fault injection) alike.
  RoundResult guarded_round(SnapshotSource& source);

  /// Apply stage on its own: program every managed flow's rate limiter
  /// from `plan` (shapers matched to flows by flow_id). Lets a plan
  /// computed elsewhere — another thread, a replay — be actuated here. A
  /// throwing callback is counted in health_stats(), not propagated;
  /// returns false when any callback threw.
  bool apply_plan(const RatePlan& plan);

  /// The plan of the last round that passed the guardrail (as actuated,
  /// trust scale included).
  [[nodiscard]] const RatePlan& last_plan() const { return plan_; }

  /// Reconfigure the guard layer (validators + state machine knobs);
  /// GuardConfig{} until called.
  void set_guard(GuardConfig cfg);
  [[nodiscard]] const GuardConfig& guard() const { return guard_cfg_; }

  /// Resilience state after the last round.
  [[nodiscard]] HealthState health() const { return health_; }
  [[nodiscard]] const HealthStats& health_stats() const { return hstats_; }
  /// Current trust scale applied to actuated input rates (1 = full).
  [[nodiscard]] double trust() const { return trust_; }
  /// The plan a fallback round re-applies (ok == false until a round
  /// first succeeds).
  [[nodiscard]] const RatePlan& last_good_plan() const {
    return last_good_plan_;
  }

  [[nodiscard]] const std::vector<LinkEstimateRow>& link_estimates() const {
    return estimates_;
  }
  [[nodiscard]] const TopologyDb& topology() const { return topo_; }

  /// The controller's model planner (cache accounting for experiments:
  /// hits stay high while the sensed topology fingerprint is stable,
  /// misses mark the rounds where churn forced a re-enumeration).
  [[nodiscard]] const Planner& planner() const { return planner_; }

  /// Attach a trace recorder (borrowed; nullptr detaches — the default,
  /// and every hook is then a single null check). `lane` stamps this
  /// controller's records (fleet cells pass their cell index). The
  /// planner — and through it the column-generation warm state — reports
  /// into the same recorder. Round indices count this controller's rounds
  /// from the moment of attachment.
  void set_observer(TraceRecorder* obs, std::uint32_t lane = 0);
  [[nodiscard]] TraceRecorder* observer() const { return obs_; }

 private:
  friend struct ControllerRoundObs;
  ProbeAgent& ensure_agent(NodeId node);
  ProbeMonitor& ensure_monitor(NodeId node);
  [[nodiscard]] int link_index(NodeId src, NodeId dst) const;
  /// Make `snap` the current snapshot: refresh the link-estimate view and
  /// topology database (no trace write).
  void adopt_snapshot(MeasurementSnapshot snap);
  /// The plan stage of the round: plan the current snapshot inside one
  /// kPlan span (payload: K << 32 | FW iterations, objective bits).
  [[nodiscard]] RatePlan plan_snapshot(bool cacheable);
  /// A round that plans nothing new: count it as a fallback round and
  /// re-actuate the last-known-good plan.
  RoundResult hold_round();
  /// Transition bookkeeping for a failed attempt: enter (or stay in)
  /// kFallback, arm the exponential backoff, hold the LKG plan.
  RoundResult fail_round();

  Network& net_;
  ControllerConfig cfg_;
  std::uint64_t seed_;
  std::vector<ManagedFlow> flows_;
  std::vector<LinkRef> links_;

  /// Probe infrastructure, dense-indexed by NodeId (node ids are assigned
  /// contiguously by the channel): no map lookups or tree walks on the
  /// per-round estimate path. Slots for nodes without probes stay null.
  std::vector<std::unique_ptr<ProbeAgent>> agents_;
  std::vector<std::unique_ptr<ProbeMonitor>> monitors_;

  std::vector<LinkEstimateRow> estimates_;
  TopologyDb topo_;
  MeasurementSnapshot snapshot_;
  RatePlan plan_;
  Planner planner_;

  DenseMatrix lir_table_;  ///< empty() until set_lir_table
  double lir_threshold_ = 0.95;
  std::function<bool(NodeId, NodeId)> neighbor_pred_;
  TraceWriter* trace_writer_ = nullptr;  ///< borrowed; see record_to()

  // Guard layer state (see guarded_step).
  GuardConfig guard_cfg_{};
  HealthState health_ = HealthState::kHealthy;
  HealthStats hstats_;
  RatePlan last_good_plan_;  ///< as actuated (trust scale included)
  double trust_ = 1.0;
  int backoff_wait_ = 0;  ///< fallback rounds left before re-attempting
  int backoff_next_ = 1;  ///< wait imposed by the next failed attempt

  // Observability (see src/obs/obs.h): borrowed recorder + the lane and
  // round index stamped onto this controller's records.
  TraceRecorder* obs_ = nullptr;
  std::uint32_t obs_lane_ = 0;
  std::uint64_t obs_round_ = 0;
};

}  // namespace meshopt
