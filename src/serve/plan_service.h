#pragma once
// PlanService — the controller-as-a-service subsystem (see
// ARCHITECTURE.md, "Serving plane").
//
// The ROADMAP's "millions of users" story needs a long-running layer that
// plans for MANY concurrent mesh instances at once, and the staged
// pipeline already has every ingredient: value-type snapshots with two
// exact wire encodings (JSON + MOTRACE1), a pure snapshot -> model ->
// plan stage, a topology-keyed Planner cache with fast-tier warm state,
// guard validation, and a work-stealing pool. This subsystem multiplexes
// tenants onto them:
//
//   * TenantRegistry (inside PlanService): each tenant registers flows,
//     plan config (tier, decomposition), interference model, guard tuning,
//     and its own Planner cache budget; the service keeps one
//     TenantSession per tenant — a private Planner (cross-round cache +
//     column-generation warm state), a monotonically increasing round
//     sequence, and a bounded pending queue. Guarded tenants run
//     plan_guarded() (core/guard.h), as guarded fleet replay does.
//   * Admission/backpressure: per-tenant and global queue bounds with a
//     deterministic shed policy (structured SubmitStatus reasons), plus
//     oldest-round coalescing — a newer snapshot for a tenant supersedes
//     its queued stale one instead of growing the backlog.
//   * Batched scheduling: run_batch(tick) drains at most one pending
//     round per tenant (per-tenant order stays serial, so a session's
//     Planner is only ever touched by its own job) and plans the whole
//     batch across the SweepRunner pool. Results land at their batch
//     index and all metrics are applied on the calling thread in batch
//     order.
//
// Determinism contract (pinned in tests/test_serve.cpp): for a fixed
// ServeScript, every served plan, every counter, and the tick-latency
// histograms are bit-identical across pool thread counts — the same
// property ControllerFleet pins, for the same reasons (batch composition
// is a pure function of the schedule; jobs touch disjoint state; no
// run-time randomness). Wall-clock latency sketches are the one
// deliberately nondeterministic surface (metrics.h).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/guard.h"
#include "core/planner.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "obs/obs.h"
#include "serve/metrics.h"
#include "serve/wire.h"
#include "sweep/sweep_runner.h"

namespace meshopt {

/// Per-tenant registration: what to plan and how.
struct TenantConfig {
  std::vector<FlowSpec> flows;  ///< flows to plan (paths over snapshot links)
  PlanConfig plan{};  ///< objective / tuning / plan tier / decomposition
  InterferenceModelKind interference = InterferenceModelKind::kTwoHop;
  /// Validate (and repair) every submitted snapshot and guardrail every
  /// plan, replay-style: rejected inputs yield a default (ok == false)
  /// plan for that round — no held state, so rounds stay pure functions
  /// of their snapshot.
  bool guarded = false;
  GuardConfig guard{};
  /// Planner LRU entries for this tenant's session (0 = uncached).
  /// Decomposed tenants keep fixed per-component caches instead.
  std::size_t planner_cache = 4;
  /// Pending-round bound; submissions beyond it shed (or coalesce).
  int queue_limit = 4;
  /// A newer snapshot supersedes the queued stale one (counted) instead
  /// of queueing behind it: a coalescing tenant always planning its
  /// freshest measurements, with an effective queue depth of one.
  bool coalesce = true;
};

/// Structured outcome of one submit attempt — the admission layer's shed
/// policy is deterministic and these are its reasons.
enum class SubmitStatus : std::uint8_t {
  kAccepted,            ///< queued as a new pending round
  kCoalesced,           ///< accepted by superseding the queued stale round
  kShedUnknownTenant,   ///< no such tenant id
  kShedStaleRound,      ///< round_seq not greater than the last accepted
  kShedTenantQueueFull, ///< per-tenant queue at its bound (coalesce off)
  kShedGlobalQueueFull, ///< service-wide pending bound reached
};

[[nodiscard]] const char* to_string(SubmitStatus status);

/// Whether a status means the snapshot entered the service.
[[nodiscard]] constexpr bool submit_accepted(SubmitStatus status) {
  return status == SubmitStatus::kAccepted ||
         status == SubmitStatus::kCoalesced;
}

/// One submit attempt's outcome: the status plus the sequence number the
/// round was filed under (0 when shed before sequencing).
struct SubmitResult {
  SubmitStatus status = SubmitStatus::kAccepted;
  std::uint64_t round_seq = 0;

  friend bool operator==(const SubmitResult&, const SubmitResult&) = default;
};

/// Service-level tuning.
struct ServeConfig {
  /// Pool workers including the caller; <= 0 selects the hardware
  /// concurrency (the SweepRunner convention).
  int threads = 0;
  /// Total pending rounds across all tenants; submissions that would grow
  /// the backlog beyond it shed with kShedGlobalQueueFull (coalescing
  /// replacements never grow it and stay admitted).
  std::size_t global_queue_limit = 4096;
};

/// One served round: what the batch planned for one tenant.
struct ServedPlan {
  std::uint32_t tenant = 0;
  std::uint64_t round_seq = 0;
  long long submit_tick = 0;
  long long served_tick = 0;
  SnapshotVerdict verdict = SnapshotVerdict::kClean;
  RatePlan plan;      ///< default (ok == false) when rejected or failed
  std::string error;  ///< planning exception text (deterministic); "" = none

  friend bool operator==(const ServedPlan&, const ServedPlan&) = default;
};

/// Everything one run_batch(tick) call planned, in batch (ascending
/// tenant id) order.
struct ServeBatchReport {
  std::vector<ServedPlan> served;
};

/// One scripted submission: at `tick`, tenant `tenant` submits snapshot
/// `snapshot_ref` (an index into the shared snapshot pool run_script is
/// given — typically a recorded trace).
struct ServeEvent {
  long long tick = 0;
  std::uint32_t tenant = 0;
  int snapshot_ref = 0;

  friend bool operator==(const ServeEvent&, const ServeEvent&) = default;
};

/// A deterministic submission schedule, the serving analogue of
/// DynamicsScript/FaultScript: events must be sorted by tick (stable
/// order within a tick is submission order). Like those scripts, ALL
/// randomness in a generated schedule is drawn at generation time.
struct ServeScript {
  std::vector<ServeEvent> events;
};

/// Generate a staggered replay schedule: every tenant submits
/// `rounds_per_tenant` rounds, walking the snapshot pool cyclically
/// (snapshot_ref = round % pool_rounds); round r of tenant t lands at
/// tick r * ticks_per_round + offset(t), with per-tenant offsets drawn in
/// [0, ticks_per_round) at generation time from `seed`. When
/// `burst_every` > 0, every burst_every-th tenant submits each round
/// TWICE at the same tick (the duplicate exercises the coalescing /
/// shed path). @throws std::invalid_argument on non-positive dimensions.
[[nodiscard]] ServeScript staggered_replay_script(std::uint32_t tenants,
                                                  int rounds_per_tenant,
                                                  int pool_rounds,
                                                  int ticks_per_round,
                                                  std::uint64_t seed,
                                                  int burst_every = 0);

/// Outcome of one run_script call.
struct ServeReport {
  /// One entry per script event, in script order.
  std::vector<SubmitResult> submit_results;
  /// Every served round, in service order: ascending batch tick, then
  /// ascending tenant id within a batch.
  std::vector<ServedPlan> served;
  long long final_tick = 0;  ///< first tick after the last batch
};

/// Multi-tenant plan server over the work-stealing pool.
///
/// Thread-safety: single-owner, like Planner and ControllerFleet — all
/// calls from one thread at a time; the pool parallelism is internal.
class PlanService {
 public:
  explicit PlanService(ServeConfig cfg = {});

  /// Register a tenant; ids are assigned sequentially from 0.
  std::uint32_t add_tenant(TenantConfig cfg);

  [[nodiscard]] std::size_t tenants() const { return sessions_.size(); }
  [[nodiscard]] const TenantConfig& tenant_config(std::uint32_t tenant) const;

  /// Submit a snapshot for `tenant`'s next round (the sequence number is
  /// assigned by the session: last + 1). `tick` is the caller's scheduler
  /// time, echoed into latency accounting; it must not decrease across
  /// calls.
  SubmitResult submit(std::uint32_t tenant, const MeasurementSnapshot& snap,
                      long long tick);

  /// Submit with a caller-declared sequence (the wire path): a sequence
  /// not greater than the tenant's last accepted one sheds with
  /// kShedStaleRound.
  SubmitResult submit_seq(std::uint32_t tenant,
                          const MeasurementSnapshot& snap,
                          std::uint64_t round_seq, long long tick);

  /// Decode and submit one kSubmit wire frame (serve/wire.h).
  /// @throws std::invalid_argument when the frame is malformed,
  /// incomplete, or not a kSubmit frame.
  SubmitResult submit_frame(std::string_view frame, long long tick);

  /// Pending rounds across all tenants.
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// Drain at most one pending round per tenant (ascending tenant id,
  /// oldest round first) and plan them all as one batch across the pool.
  /// Counters, latency histograms, and per-tenant last-plan state update
  /// on the calling thread in batch order before this returns.
  ServeBatchReport run_batch(long long tick);

  /// Drive a whole ServeScript against a shared snapshot pool: submit
  /// each tick's events, run one batch per tick, and keep draining
  /// batches past the last event until no rounds are pending.
  /// @throws std::invalid_argument when events are not tick-sorted or a
  /// snapshot_ref is out of the pool's range.
  ServeReport run_script(const ServeScript& script,
                         const std::vector<MeasurementSnapshot>& pool);

  /// Append the kPlan/kReject response frame for one served round to
  /// `out` (the wire-format answer a transport would ship back).
  void append_response_frame(std::string& out, const ServedPlan& served) const;

  [[nodiscard]] const ServeMetrics& metrics() const { return metrics_; }
  /// metrics().to_json(include_wall) — see ServeMetrics::to_json for the
  /// determinism surface.
  [[nodiscard]] std::string metrics_json(bool include_wall = true) const;

  /// The tenant's most recently served plan (default until one is).
  [[nodiscard]] const RatePlan& last_plan(std::uint32_t tenant) const;
  /// The round sequence of that plan (0 until one is served).
  [[nodiscard]] std::uint64_t last_served_seq(std::uint32_t tenant) const;

  /// Attach a trace recorder (borrowed; nullptr detaches). Each batch job
  /// then traces into its session's private recorder (lane = tenant id,
  /// round = round sequence; created lazily from the attached recorder's
  /// config): one kServe span per served round plus the session planner's
  /// cache/model/pricing records, with kServeError / kPlanReject incidents
  /// on planning exceptions and guardrail rejects. Session recorders are
  /// absorbed on the calling thread in batch order (the same ordering the
  /// metrics contract relies on), so the trace is bit-identical across
  /// pool thread counts.
  void set_observer(TraceRecorder* obs) { obs_ = obs; }
  [[nodiscard]] TraceRecorder* observer() const { return obs_; }

 private:
  /// One pending round in a tenant's queue.
  struct Pending {
    std::uint64_t round_seq = 0;
    long long enqueue_tick = 0;
    std::chrono::steady_clock::time_point enqueue_wall{};
    MeasurementSnapshot snapshot;
  };

  /// Per-tenant serving state. The session's Planner is only ever
  /// touched by the session's own batch job (at most one per batch), so
  /// its cache and fast-tier warm state carry across batches without
  /// locks.
  struct TenantSession {
    TenantConfig cfg;
    Planner planner;
    std::uint64_t high_seq = 0;         ///< highest accepted sequence
    std::uint64_t last_served_seq = 0;
    RatePlan last_plan;
    /// Session-local trace recorder, created lazily when the service has
    /// an observer: the batch job writes here (single-writer, like the
    /// session Planner) and run_batch absorbs it in batch order.
    std::unique_ptr<TraceRecorder> recorder;
    PlannerStats seen_stats;  ///< planner counters already metered
    std::uint64_t seen_decomposed_rounds = 0;  ///< already metered
    std::uint64_t seen_components_planned = 0;  ///< already metered
    std::deque<Pending> queue;

    explicit TenantSession(TenantConfig c)
        : cfg(std::move(c)), planner(cfg.planner_cache) {}
    // Move-only, and explicitly so: the Planner member holds fast-tier
    // warm state behind a unique_ptr, and without the deleted copy ctor
    // vector reallocation would try the (ill-formed) copy path because
    // std::vector's copy constructor is declared for any element type.
    TenantSession(const TenantSession&) = delete;
    TenantSession& operator=(const TenantSession&) = delete;
    TenantSession(TenantSession&&) = default;
    TenantSession& operator=(TenantSession&&) = default;
  };

  SubmitResult admit(std::uint32_t tenant, const MeasurementSnapshot& snap,
                     std::uint64_t round_seq, bool auto_seq, long long tick);

  ServeConfig cfg_;
  SweepRunner runner_;
  std::vector<TenantSession> sessions_;
  std::size_t pending_ = 0;  ///< queued rounds across all tenants
  ServeMetrics metrics_;
  TraceRecorder* obs_ = nullptr;  ///< borrowed; see set_observer()
};

}  // namespace meshopt
