#pragma once
// Control-loop tracing: deterministic round spans, a flight recorder, and
// the record types every exporter consumes.
//
// The control path (controller, planner, column generation, decomposition,
// fleet replay, plan serving) emits fixed-size typed records into a
// TraceRecorder. Records are timestamped by (round index, intra-round
// sequence number) — simulation logical time — so a fixed replay produces
// bit-identical traces whatever the pool thread count. Wall-clock fields
// ride along as *enrichment* outside the determinism contract (the same
// split ServeCounters already uses for wall_* fields): they are zero unless
// ObsConfig::wall_clock is set and are excluded from canonical comparisons.
//
// Concurrency model: a TraceRecorder is single-owner, like Planner and
// PlanService. Parallel stages (fleet segment jobs, per-tenant serve jobs)
// write into job/session-local recorders that the orchestrator absorbs on
// the calling thread in deterministic (job-index / batch) order — no locks,
// no thread registration, and shard assignment cannot leak into the trace.
// Decomposed component jobs re-emit their job-local records instead, so
// they take the parent's intra-round sequence numbers.
//
// Everything is off-by-default: components hold a borrowed TraceRecorder*
// that is null unless attached, and every hook is a single branch when
// disabled.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace meshopt {

/// Which pipeline stage a record belongs to. One Perfetto lane per stage
/// (components get their own sub-lanes keyed by the record payload).
enum class ObsStage : std::uint8_t {
  kRound = 0,   ///< whole-round span
  kSense,       ///< probing-window simulation (live source only)
  kValidate,    ///< SnapshotValidator verdict + repair findings
  kModel,       ///< interference-model build (planner cache miss path)
  kPlan,        ///< rate-plan solve
  kApply,       ///< plan actuation
  kHealth,      ///< health-machine transitions / backoff / rejects
  kCache,       ///< planner cache hit/miss/uncacheable/evict
  kPricing,     ///< column-generation pricing activity
  kComponent,   ///< decomposed per-component solves + fallbacks
  kSegment,     ///< fleet replay segment
  kServe,       ///< per-tenant serve span in PlanService::run_batch
  kStageCount,  ///< sentinel — number of stages
};

/// Human-readable stage name ("round", "plan", ...). Stable across runs —
/// exporters and golden fixtures key on it.
[[nodiscard]] const char* to_string(ObsStage stage);

/// Record flavor: instantaneous event vs a stage span. Sampling
/// (ObsConfig::sample_every) applies to spans only; events (health
/// transitions, cache activity, incident triggers) are always recorded so
/// the flight recorder never misses a trajectory step.
enum class ObsKind : std::uint8_t {
  kEvent = 0,
  kSpan = 1,
};

[[nodiscard]] const char* to_string(ObsKind kind);

/// Qualifier for a record (and the trigger kind of an IncidentReport).
enum class ObsCode : std::uint16_t {
  kNone = 0,
  // kCache events; payload a = topology fingerprint.
  kCacheHit,          ///< fingerprint hit; capacities refreshed in place
  kCacheMiss,         ///< cold build inserted into the LRU
  kCacheUncacheable,  ///< repaired snapshot — planned cold, never cached
  kCacheEvict,        ///< LRU eviction; a = evicted fingerprint
  // kHealth events.
  kHealthTransition,  ///< a = from HealthState, b = to HealthState
  kBackoffSkip,       ///< round skipped by fallback backoff
  kSnapshotReject,    ///< validator rejected the snapshot
  kPlanReject,        ///< plan guardrail rejected the solve (incident trigger)
  kFallbackEntry,     ///< health machine entered FALLBACK (incident trigger)
  kRecovery,          ///< health machine returned to HEALTHY
  // kPricing records.
  kWarmStart,   ///< column-gen solve reused a prior basis/column set
  kColdStart,   ///< column-gen solve seeded from scratch
  kPricingSolve,  ///< span: a = pricing rounds, b = columns admitted
  // kComponent records.
  kComponentSolve,       ///< span: a = component id, b = (links<<32)|flows
  kFallbackDegenerate,   ///< decomposition fell back: no links/flows
  kFallbackConnected,    ///< decomposition fell back: graph is one component
  kFallbackCross,        ///< decomposition fell back: cross-component flow
  // kServe / kSegment records.
  kServeOk,      ///< span: tenant plan produced; a = round sequence
  kServeError,   ///< span: tenant plan errored (also an incident trigger)
  kCellError,    ///< fleet cell died with an error (incident trigger)
};

[[nodiscard]] const char* to_string(ObsCode code);

/// One trace record: fixed-size, trivially copyable, no indirection — the
/// hot-path emit is a struct store into a preallocated ring.
///
/// Determinism contract: every field except wall_ns / wall_dur_ns is a pure
/// function of the inputs and the replay configuration. (round, lane, seq)
/// totally orders the records of one producer; canonical_records() sorts by
/// it so absorption order across thread counts cannot show through.
struct ObsRecord {
  std::uint64_t round = 0;  ///< round index within the lane
  std::uint32_t lane = 0;   ///< cell / tenant id (0 for a lone controller)
  std::uint32_t seq = 0;    ///< intra-(lane, round) emission order
  ObsStage stage = ObsStage::kRound;
  ObsKind kind = ObsKind::kEvent;
  ObsCode code = ObsCode::kNone;
  std::uint64_t a = 0;  ///< stage-specific payload (fingerprint, counts, ...)
  std::uint64_t b = 0;  ///< stage-specific payload
  std::uint64_t wall_ns = 0;      ///< span start / event wall time (enrichment)
  std::uint64_t wall_dur_ns = 0;  ///< span wall duration (enrichment)
};

/// Field-by-field equality over the deterministic fields only (wall_ns and
/// wall_dur_ns are excluded — they are outside the contract).
[[nodiscard]] bool deterministic_equal(const ObsRecord& x, const ObsRecord& y);

/// Recorder tuning. The defaults are the "default sampling" the benchmark
/// acceptance bar (<=1.03x on BM_ControllerRound / BM_ServeBatch) is
/// measured at.
struct ObsConfig {
  std::size_t ring_capacity = 1 << 14;  ///< records retained; oldest overwritten
  std::uint64_t sample_every = 1;  ///< record spans every Nth round (events always)
  bool wall_clock = false;  ///< enrich records with steady-clock timestamps
  std::uint64_t flight_window = 20;  ///< rounds of context per IncidentReport
  std::size_t max_incidents = 16;    ///< reports retained per recorder
};

/// Flight-recorder snapshot: the last flight_window rounds of records for
/// the lane that tripped a trigger (FALLBACK entry, plan-guardrail reject,
/// fleet-cell error), plus the triggering round and a free-form detail
/// string (e.g. the cell's exception text).
struct IncidentReport {
  ObsCode code = ObsCode::kNone;  ///< trigger kind
  std::uint64_t round = 0;        ///< triggering round index
  std::uint32_t lane = 0;         ///< triggering lane
  std::string detail;             ///< optional context (error text)
  std::vector<ObsRecord> window;  ///< canonical-order records, last N rounds

  /// Structured JSON: schema tag, trigger, health trajectory (from the
  /// kHealth records in the window), per-stage record counts + wall
  /// timings, and the raw record window. Payload words serialize as hex
  /// strings (they may exceed the double-exact integer range).
  [[nodiscard]] std::string to_json() const;
};

/// Deterministic trace recorder + flight recorder. Single-owner; see the
/// file comment for the absorption-based concurrency model.
class TraceRecorder {
 public:
  TraceRecorder() : TraceRecorder(ObsConfig{}) {}
  explicit TraceRecorder(ObsConfig cfg);

  [[nodiscard]] const ObsConfig& config() const { return cfg_; }

  /// Set the ambient (lane, round) stamped onto subsequent records. Resets
  /// the intra-round sequence counter when the pair changes.
  void set_context(std::uint32_t lane, std::uint64_t round);
  [[nodiscard]] std::uint32_t lane() const { return lane_; }
  [[nodiscard]] std::uint64_t round() const { return round_; }

  /// True when the current round's spans are recorded under sample_every.
  [[nodiscard]] bool sampled() const {
    return cfg_.sample_every <= 1 || round_ % cfg_.sample_every == 0;
  }

  /// Append one record stamped with the ambient context. Spans in
  /// non-sampled rounds are dropped; events are always kept.
  void emit(ObsStage stage, ObsKind kind, ObsCode code, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint64_t wall_ns = 0,
            std::uint64_t wall_dur_ns = 0);

  /// Steady-clock nanoseconds when wall_clock is enabled, else 0 (so the
  /// wall fields of every record stay zero and bit-compare clean).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Snapshot the last flight_window rounds of this lane's records into an
  /// IncidentReport. Also emits a matching event record. Reports beyond
  /// max_incidents are counted in incidents_dropped() instead of stored.
  void trigger_incident(ObsCode code, std::string detail = {});
  [[nodiscard]] const std::vector<IncidentReport>& incidents() const {
    return incidents_;
  }
  [[nodiscard]] std::uint64_t incidents_dropped() const {
    return incidents_dropped_;
  }

  /// Move another recorder's records, incidents, drop counts, and stage
  /// histograms into this one, then clear it (its config and ambient
  /// context survive, so session/job recorders are reusable). Callers must
  /// absorb in a deterministic order (job index, batch order) — that order
  /// breaks canonical-sort ties.
  void absorb(TraceRecorder& other);

  /// Records in canonical (lane, round, seq) order. With include_wall
  /// false the wall fields are zeroed — the bit-comparable deterministic
  /// view the cross-thread-count tests pin.
  [[nodiscard]] std::vector<ObsRecord> canonical_records(
      bool include_wall = true) const;

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Lifetime totals: records emitted, and records lost to ring overwrite
  /// (a trace with drops is still honest — dropped counts are reported,
  /// and determinism holds whenever capacity sufficed for zero drops).
  [[nodiscard]] std::uint64_t records_emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t records_dropped() const { return dropped_; }

  /// Drop all records, incidents, histograms, and counters (config and
  /// ambient context survive).
  void clear();

  /// Wall-duration histogram for one stage's spans, or nullptr when no
  /// enriched span of that stage was recorded. Enrichment only — populated
  /// solely from nonzero wall durations (requires wall_clock).
  [[nodiscard]] const QuantileSketch* stage_wall_ns(ObsStage stage) const;

  /// Every populated (stage, histogram) pair, stage-ordered — the
  /// Prometheus stage-duration exposition walks this.
  [[nodiscard]] std::vector<std::pair<ObsStage, const QuantileSketch*>>
  stage_histograms() const;

 private:
  ObsConfig cfg_;
  std::uint32_t lane_ = 0;
  std::uint64_t round_ = 0;
  std::uint32_t seq_ = 0;

  std::vector<ObsRecord> ring_;  ///< grows to ring_capacity, then wraps
  std::size_t head_ = 0;         ///< next overwrite slot once full
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;

  std::vector<IncidentReport> incidents_;
  std::uint64_t incidents_dropped_ = 0;

  std::vector<QuantileSketch> stage_hist_;  ///< sized lazily to kStageCount
  std::uint32_t stage_hist_mask_ = 0;       ///< bit set when stage populated

  void push(const ObsRecord& rec);
  void append_chronological(std::vector<ObsRecord>& out) const;
};

/// RAII span helper: measures wall time (when enabled) around a stage and
/// emits a kSpan record on destruction. Construct with a possibly-null
/// recorder — a null or non-sampled recorder makes every method a no-op.
class ObsSpan {
 public:
  ObsSpan(TraceRecorder* rec, ObsStage stage, ObsCode code = ObsCode::kNone)
      : rec_(rec != nullptr && rec->sampled() ? rec : nullptr),
        stage_(stage),
        code_(code),
        t0_(rec_ != nullptr ? rec_->now_ns() : 0) {}
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  /// Set the record's payload words (deterministic data only).
  void payload(std::uint64_t a, std::uint64_t b = 0) {
    a_ = a;
    b_ = b;
  }
  /// Override the qualifier decided mid-stage (e.g. warm vs cold).
  void code(ObsCode c) { code_ = c; }

  ~ObsSpan() {
    if (rec_ == nullptr) return;
    const std::uint64_t t1 = rec_->now_ns();
    rec_->emit(stage_, ObsKind::kSpan, code_, a_, b_, t0_,
               t1 >= t0_ ? t1 - t0_ : 0);
  }

 private:
  TraceRecorder* rec_;
  ObsStage stage_;
  ObsCode code_;
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
  std::uint64_t t0_;
};

}  // namespace meshopt
