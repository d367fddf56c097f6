#pragma once
// ControllerFleet — fleet-scale driver for the staged control plane.
//
// A fleet experiment is N independent controller loops — each with its
// own Workbench (simulator + channel + network), its own MeshController,
// and its own derived RNG stream — executed across the persistent
// work-stealing SweepRunner. One call covers a whole scenario grid
// (topology × traffic × interference model × objective), and the results
// are bit-for-bit identical whatever the thread count, for the same
// reasons the sweep pool is deterministic: per-cell seeds depend only on
// (master_seed, index), and results land at their cell's index.
//
// Each cell's result carries the final round's MeasurementSnapshot and
// RatePlan — the full value-type record of what the controller measured
// and decided — so fleet outputs can be serialized, replayed, or compared
// offline without re-running the simulations.
//
// Replay mode (see ARCHITECTURE.md, "Trace & replay"): replay() plans a
// recorded trace under a grid of objective/interference/flow variants
// instead of simulating anything. Every cell walks the SAME shared
// rounds by reference (zero copies), so an entire topology×objective
// grid is pure plan_rates() work on the pool — no Simulator, no
// Workbench, no RNG. One expensive recording run (a live fleet or a
// MeshController in record_to() mode) then amortizes over thousands of
// cheap planning runs, the record/replay methodology of fairness
// studies over measured traces (arXiv:1002.1581). Each replay job plans
// through one Planner, whose PlanConfig picks the tier and decomposition;
// guarded cells run plan_guarded() (core/guard.h), as guarded serve
// tenants do.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "scenario/dynamics.h"
#include "scenario/faults.h"
#include "sweep/sweep_runner.h"
#include "util/trace_codec.h"

namespace meshopt {

/// One managed flow of a fleet cell.
struct FleetFlow {
  std::vector<NodeId> path;  ///< node sequence src..dst
  Rate rate = Rate::kR1Mbps;
  bool is_tcp = false;  ///< plan with the TCP ACK airtime discount
  /// When > 0, drive the flow with a CBR UDP source at this input rate
  /// (bits/s) while probing runs, and let the controller's plan retune the
  /// source. 0 = register the flow without driving traffic.
  double input_bps = 0.0;
  int payload_bytes = 1470;
};

/// One cell of a fleet experiment: topology, traffic, controller tuning.
struct FleetCell {
  /// Builds the topology into a fresh Workbench (add nodes, program the
  /// channel). Runs on a pool thread: it must only touch the Workbench it
  /// is given plus immutable captured state.
  std::function<void(Workbench&)> build_topology;
  std::vector<FleetFlow> flows;
  ControllerConfig controller{};
  /// Non-empty: use the binary-LIR interference model with this table.
  DenseMatrix lir;
  double lir_threshold = 0.95;
  int rounds = 1;       ///< controller rounds to run back to back
  double settle_s = 0.0;  ///< traffic warm-up before the first round
  /// Optional dynamics: builds the cell's scripted event timeline from the
  /// cell's derived seed (same splitmix64 derivation as everything else on
  /// the pool, so generated perturbations — and therefore whole dynamic-
  /// scenario fleets — are bit-identical across thread counts). The engine
  /// is armed on the cell's Workbench before the first round.
  std::function<DynamicsScript(std::uint64_t cell_seed)> dynamics;
  /// Optional measurement faults: builds the cell's FaultScript from the
  /// cell seed (same determinism contract as `dynamics`). When set, a
  /// FaultEngine wraps the cell's live snapshot source, and scripted
  /// kApplyFailure rounds make every shaper callback throw.
  std::function<FaultScript(std::uint64_t cell_seed)> faults;
  GuardConfig guard{};  ///< guard tuning of the cell's controller
};

/// Outcome of one cell: the last round's full control-plane record.
struct FleetResult {
  int index = -1;          ///< cell position in the grid
  std::uint64_t seed = 0;  ///< the cell's derived RNG seed
  bool ok = false;         ///< last round produced a feasible plan
  MeasurementSnapshot snapshot;  ///< last sensed snapshot
  RatePlan plan;                 ///< last plan that passed the guardrail
  /// The controller's cumulative health counters and final state (every
  /// cell runs the guarded round).
  HealthStats health{};
  HealthState health_state = HealthState::kHealthy;
  /// Cell isolation: a cell whose setup or round loop threw reports the
  /// exception text here instead of poisoning the pool; every other cell
  /// completes normally. Empty = the cell ran to completion.
  std::string error;
};

/// One replay cell: how to plan the shared recorded trace. There is no
/// topology builder and no traffic — the snapshots already carry every
/// measured input the model/plan stages need.
struct ReplayCell {
  std::vector<FlowSpec> flows;  ///< flows to plan (paths over trace links)
  /// Objective / optimizer tuning / headroom / plan tier. Setting
  /// plan.tier = PlanTier::kFast replays this cell through the
  /// column-generation planner (ARCHITECTURE.md, "Plan tiers"): per-round
  /// objectives stay within a 1e-6 relative gap of the exact tier, and
  /// warm state carries across the rounds of a segment. plan.decompose
  /// plans per interference component (opt/decompose.h).
  PlanConfig plan{};
  InterferenceModelKind interference = InterferenceModelKind::kTwoHop;
  /// Guarded replay: every round runs plan_guarded() (core/guard.h), so
  /// rejected rounds and guardrail-rejected plans yield a default
  /// (ok == false) RatePlan for that round instead of a poisoned one.
  /// Unlike the live controller round there is no last-known-good hold or
  /// backoff — replay rounds stay pure functions of their snapshot, so
  /// segment sharding remains bit-identical.
  bool guarded = false;
  GuardConfig guard{};
};

/// Outcome of one replay cell: every round's plan, in trace order.
struct ReplayResult {
  int index = -1;               ///< cell position in the grid
  bool ok = false;              ///< every round planned feasibly (and >0)
  std::vector<RatePlan> plans;  ///< one per trace round
  /// Cell isolation, as FleetResult::error: the first (lowest-round)
  /// exception text of the cell's jobs; rounds of a failed segment keep
  /// default plans. Empty = every segment completed.
  std::string error;
};

/// How replay work is cut into pool jobs.
struct ReplayOptions {
  /// > 0: shard each cell's trace into contiguous segments of at most this
  /// many rounds, each dispatched as its own pool job, results stitched in
  /// round order. 0 = one job per cell (a long trace with few cells leaves
  /// workers idle; sharding fills them). Exact-tier plans are
  /// bit-identical either way: every round is a pure function of its
  /// snapshot, and the planner cache never changes outputs — a segment
  /// boundary only costs one extra cold MIS enumeration. FAST-tier plans
  /// are bit-identical across thread counts and repeated runs for a FIXED
  /// ReplayOptions, but segment_rounds (and planner_cache) are part of
  /// the fast tier's determinism key: a segment boundary resets the
  /// column-generation warm state, which legitimately moves results
  /// within the tier's gap bound (ARCHITECTURE.md, "Plan tiers").
  int segment_rounds = 0;
  /// Planner model-cache entries per job (0 = uncached reference path).
  /// Decomposed cells keep fixed per-component caches instead.
  std::size_t planner_cache = 8;
  /// Maximal-independent-set enumeration cap handed to the planner (the
  /// default matches Planner::plan). City-scale monolithic cells cap the
  /// exponential MIS space here; the decomposed tier enumerates per
  /// component and rarely comes near it.
  std::size_t mis_cap = 200000;
  /// How replay_file() treats a corrupt mid-trace record (bit rot, a
  /// crashed recorder's tail): kThrow propagates the codec error,
  /// kSkipAndCount skips damaged records and replays what survives (see
  /// util/trace_codec.h).
  OnCorruptRecord on_corrupt_record = OnCorruptRecord::kThrow;
};

/// Runs fleets of independent controller loops on a SweepRunner pool.
///
/// Thread-safety: single-owner — one run() at a time per fleet instance;
/// the instance may be reused across sequential runs.
class ControllerFleet {
 public:
  /// `threads` <= 0 selects the hardware concurrency (at least 1).
  explicit ControllerFleet(int threads = 0) : runner_(threads) {}

  /// Workers per run, including the calling thread.
  [[nodiscard]] int threads() const { return runner_.threads(); }

  /// Run every cell and collect results in cell order.
  ///
  /// @post result.size() == cells.size(); result[i].index == i; output is
  ///       bit-for-bit independent of the thread count.
  [[nodiscard]] std::vector<FleetResult> run(
      const std::vector<FleetCell>& cells, std::uint64_t master_seed);

  /// Plan the shared recorded `trace` under every replay cell, on the
  /// pool. The trace is borrowed for the duration of the call; each cell
  /// walks the rounds by reference, copying nothing. Pure optimizer work:
  /// constructs zero Simulators (pinned by tests/test_trace.cpp) and
  /// draws no randomness, so results are bit-for-bit independent of the
  /// thread count — and bit-identical to the live controller's plans when
  /// a cell mirrors the recording run's flows and configuration.
  ///
  /// Each job plans its rounds through a Planner, so constant-topology
  /// stretches of the trace enumerate their MIS rows once and refresh
  /// capacities thereafter; `opts` additionally shards long traces into
  /// per-segment jobs (see ReplayOptions). For exact-tier cells both are
  /// pure accelerations: plans stay bit-identical to the uncached,
  /// unsharded walk. Fast-tier cells (ReplayCell::plan.tier) are
  /// deterministic given (trace, cell, opts) — thread count never matters
  /// — with opts part of the determinism key (see ReplayOptions).
  ///
  /// @post result.size() == cells.size(); result[i].index == i;
  ///       result[i].plans.size() == trace.size().
  [[nodiscard]] std::vector<ReplayResult> replay(
      const std::vector<ReplayCell>& cells,
      const std::vector<MeasurementSnapshot>& trace,
      const ReplayOptions& opts = {});

  /// Load a binary trace file and replay it. Honors
  /// opts.on_corrupt_record: with kSkipAndCount a damaged trace replays
  /// its surviving records instead of throwing (the skip count is not
  /// surfaced here; use read_trace directly when it matters).
  [[nodiscard]] std::vector<ReplayResult> replay_file(
      const std::vector<ReplayCell>& cells, const std::string& trace_path,
      const ReplayOptions& opts = {});

  /// Attach a trace recorder (borrowed; nullptr detaches). Fleet runs then
  /// trace each cell's controller loop (lane = cell index) and replay runs
  /// trace every planned round plus one kSegment span per pool job; cells
  /// that die with an error trigger a kCellError incident carrying the
  /// exception text. Tracing preserves the fleet's determinism contract:
  /// every pool job writes into its own job-local recorder (constructed
  /// from the attached recorder's config), and the job recorders are
  /// absorbed into the attached recorder in job-index order after the pool
  /// barrier — so the trace, like the results, is bit-identical across
  /// thread counts.
  void set_observer(TraceRecorder* obs) { obs_ = obs; }
  [[nodiscard]] TraceRecorder* observer() const { return obs_; }

 private:
  SweepRunner runner_;
  TraceRecorder* obs_ = nullptr;  ///< borrowed; see set_observer()
};

}  // namespace meshopt
