#pragma once
// Planner — topology-keyed model cache for cheap re-planning under churn.
//
// The paper's controller re-plans every probing round, but the expensive
// part of a round's model build — the conflict graph's maximal-independent-
// set enumeration (Bron–Kerbosch, ~1 ms at MIS/80 scale) — depends only on
// the snapshot's TOPOLOGY: link identities, the neighbor relation, and the
// LIR table + threshold. Capacity estimates, which drift every round, only
// feed the extreme-point matrix refill. The planner splits the build along
// that line (InterferenceModel::build_topology / from_topology) and caches
// the topology stage in a small LRU keyed by those inputs, so
//
//   * a constant-topology trace replay pays Bron–Kerbosch once, then every
//     further round is a matrix refill + plan (the ≥5x replay win at
//     MIS/80-class topologies, BM_ReplayCachedModel),
//   * a dynamic scenario (scenario/dynamics.h) pays a rebuild only at the
//     rounds where a join/leave/RSS event actually changed the topology,
//     and interferer/loss churn — which moves capacities, not the
//     conflict graph — stays on the cached rows.
//
// Correctness contract: a cache hit requires a full structural comparison
// of the topology inputs, the LIR by value and bit for bit, and the
// two-stage build is the one-shot build by construction, so plans computed
// through the planner are bit-identical to the uncached
// InterferenceModel::build + plan_rates path (pinned in
// tests/test_planner.cpp for live and replay paths).
//
// Thread-safety: none — one Planner per consumer, exactly like
// NetworkOptimizer (fleet replay jobs each construct their own).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/interference.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"

namespace meshopt {

class DecomposedPlanner;
struct DecomposeStats;
class TraceRecorder;

/// Cache accounting, cumulative since construction (or clear()).
struct PlannerStats {
  std::uint64_t hits = 0;       ///< model() calls served from the cache
  std::uint64_t misses = 0;     ///< cacheable calls that ran Bron–Kerbosch
  std::uint64_t evictions = 0;  ///< entries displaced by LRU pressure
  /// model(cacheable=false) calls that found no resident entry — the
  /// guarded controller's REPAIRED snapshots. Counted apart from misses:
  /// these builds are barred from storing an entry by design, so charging
  /// them as misses would make hit-rate accounting under faults dishonest
  /// (a fault storm would look like cache thrash).
  std::uint64_t uncacheable_plans = 0;

  PlannerStats& operator+=(const PlannerStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    uncacheable_plans += o.uncacheable_plans;
    return *this;
  }
};

/// Model/plan stages with a topology-keyed cache of the MIS enumeration.
class Planner {
 public:
  /// `cache_entries` bounds the LRU; 0 disables caching entirely (every
  /// model() call rebuilds — the uncached reference behavior).
  explicit Planner(std::size_t cache_entries = 8);
  ~Planner();
  Planner(Planner&&) noexcept;
  Planner& operator=(Planner&&) noexcept;

  /// Build — or reuse — the interference model for `snap`. The returned
  /// reference stays valid until the next model()/plan()/clear() call.
  /// Output is bit-identical to InterferenceModel::build(snap, kind,
  /// mis_cap) whether it hit or missed. A hit skips Bron–Kerbosch AND the
  /// full matrix refill: since a topology fixes the extreme-point
  /// matrix's nonzero positions, only the member cells are overwritten
  /// with the round's capacities (refresh_extreme_point_matrix).
  ///
  /// `cacheable = false` keeps the LRU read-only for this call: a miss
  /// builds the model without storing the topology. The guarded
  /// controller passes false for snapshots its validator REPAIRED, so a
  /// topology derived from corrupted measurements (e.g. a partial
  /// snapshot's shrunken link set) never becomes a resident entry that
  /// later rounds could be served from. Reads stay allowed — a hit
  /// requires a full structural match of the topology inputs, so a
  /// repaired snapshot that genuinely matches a trusted entry IS that
  /// topology.
  const InterferenceModel& model(const MeasurementSnapshot& snap,
                                 InterferenceModelKind kind,
                                 std::size_t mis_cap = 200000,
                                 bool cacheable = true);

  /// model() + plan_rates() in one call — the whole pure half of a
  /// controller round over one snapshot.
  ///
  /// Plan tiers: with cfg.tier == PlanTier::kFast and the model served
  /// from (or stored into) a cache entry, the entry's ColumnGenOptimizer
  /// is passed as warm state, so the working column set and LP basis
  /// carry across rounds of the same topology epoch — the cross-round
  /// warm start that makes fast-tier replay sublinear in K. Warm state is
  /// keyed to the entry (it dies with eviction/clear and is never shared
  /// across topologies); uncached and uncacheable calls run the fast tier
  /// cold. The exact tier is unaffected and stays bit-identical to the
  /// uncached build + plan_rates path.
  ///
  /// With cfg.decompose set, the round goes to a DecomposedPlanner this
  /// planner owns, created on first use without a pool (a Planner may run
  /// inside a pool job). It keeps its own per-component and fallback
  /// caches; this planner's LRU serves only monolithic rounds.
  [[nodiscard]] RatePlan plan(const MeasurementSnapshot& snap,
                              InterferenceModelKind kind,
                              const std::vector<FlowSpec>& flows,
                              const PlanConfig& cfg,
                              std::size_t mis_cap = 200000,
                              bool cacheable = true);

  /// Fast-tier warm state of the entry that served the most recent
  /// model() call, creating it on demand; nullptr when that call went
  /// through the uncached/uncacheable path. Valid only until the next
  /// model()/plan()/clear() call — the decomposition tier (opt/decompose.h)
  /// uses it to run its joint Frank–Wolfe against this component's
  /// entry-owned working columns and basis, exactly as plan() would.
  [[nodiscard]] ColumnGenOptimizer* last_entry_column_gen();

  /// Counters of this planner's own LRU (the monolithic rounds).
  [[nodiscard]] const PlannerStats& stats() const { return stats_; }

  /// Value copy of the counters of every cache this planner drives: its
  /// own LRU plus the decomposition tier's planners. The serving layer's
  /// metrics windows diff two snapshots; single ownership makes each one
  /// atomic (it can never observe a half-updated round).
  [[nodiscard]] PlannerStats stats_snapshot() const;

  /// Counters of the decomposition tier (opt/decompose.h); all zero until
  /// a cfg.decompose round has run.
  [[nodiscard]] DecomposeStats decompose_stats() const;

  /// Zero this planner's own counters WITHOUT touching the cache:
  /// resident topologies, LRU order, and fast-tier warm state all
  /// survive, so resetting a metrics window never costs a re-enumeration
  /// (unlike clear()).
  void reset_stats() { stats_ = PlannerStats{}; }
  /// Entries currently resident (<= capacity()).
  [[nodiscard]] std::size_t cached_topologies() const {
    return entries_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drop every cached topology, the decomposition tier, and the stats.
  void clear();

  /// Attach a trace recorder (borrowed; nullptr detaches). model() then
  /// emits kCache events — hit (fingerprint refreshed in place), miss,
  /// uncacheable, evict, each carrying the topology fingerprint — plus a
  /// kModel span around Bron–Kerbosch on the build path, and plan()
  /// forwards the recorder to the entry-owned column-generation warm
  /// state and to the decomposition tier. Records are stamped with the
  /// recorder's ambient (lane, round) context, which the owning
  /// controller/service maintains.
  void set_observer(TraceRecorder* obs);
  [[nodiscard]] TraceRecorder* observer() const { return obs_; }

 private:
  /// One cached topology stage plus the exact inputs it was built from
  /// (the key a hit compares) and the entry-owned model whose matrix hits
  /// refresh in place.
  struct Entry {
    std::uint64_t fingerprint = 0;  ///< of the inputs, for trace records
    InterferenceModelKind requested_kind = InterferenceModelKind::kTwoHop;
    std::size_t mis_cap = 0;
    std::vector<LinkRef> links;
    std::vector<std::pair<NodeId, NodeId>> neighbors;
    DenseMatrix lir;
    std::uint64_t lir_threshold_bits = 0;
    InterferenceTopology topology;
    std::optional<InterferenceModel> model;
    /// Fast-tier warm state (working columns + carried basis), created on
    /// the first kFast plan through this entry. Entry-owned so it can
    /// never outlive — or be replayed against — a different topology.
    std::unique_ptr<ColumnGenOptimizer> column_gen;
    std::uint64_t last_used = 0;
  };

  [[nodiscard]] static bool matches(const Entry& e,
                                    const MeasurementSnapshot& snap,
                                    InterferenceModelKind kind,
                                    std::size_t mis_cap);

  std::size_t capacity_;
  std::vector<Entry> entries_;
  /// Entry that served the most recent model() call (nullptr when it went
  /// through the uncached/uncacheable path). Only read by plan()
  /// immediately after its model() call — any later model()/clear() may
  /// invalidate it (entries_ can reallocate).
  Entry* last_entry_ = nullptr;
  std::uint64_t clock_ = 0;  ///< LRU stamp source
  PlannerStats stats_;
  TraceRecorder* obs_ = nullptr;  ///< borrowed; see set_observer()
  /// Holds the model when caching is disabled (capacity 0): cached models
  /// live in their entries instead.
  std::optional<InterferenceModel> uncached_;
  std::vector<double> caps_scratch_;
  /// The decomposition tier, created by the first cfg.decompose round.
  std::unique_ptr<DecomposedPlanner> decomposed_;
};

}  // namespace meshopt
