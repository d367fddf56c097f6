#pragma once
// Metrics plane of the plan-serving subsystem (see ARCHITECTURE.md,
// "Serving plane").
//
// Counters come in two scopes — per tenant and global — and every one is
// updated on the service's caller thread in deterministic batch order, so
// for a fixed submission schedule the whole metrics plane (including the
// tick-latency histograms) is bit-identical across pool thread counts.
// The single exception is wall-clock latency: those sketches measure real
// enqueue->served time and are deliberately OUTSIDE the determinism
// contract (to_json(include_wall=false) omits them, which is what the
// pinned determinism test compares).
//
// Latency histograms use util/stats.h's QuantileSketch: exact for small
// tenants, fixed-bin log histogram at volume, mergeable across scopes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"

namespace meshopt {

/// Per-tenant serving counters, cumulative since tenant registration.
struct TenantCounters {
  std::uint64_t submitted = 0;     ///< submit attempts addressed here
  std::uint64_t accepted = 0;      ///< entered (or superseded into) the queue
  std::uint64_t coalesced = 0;     ///< queued stale rounds superseded
  std::uint64_t shed_queue_full = 0;   ///< rejected: per-tenant queue bound
  std::uint64_t shed_global_full = 0;  ///< rejected: global queue bound
  std::uint64_t shed_stale_round = 0;  ///< rejected: non-increasing sequence
  std::uint64_t plans_served = 0;  ///< feasible plans delivered
  std::uint64_t plans_failed = 0;  ///< rejected snapshot / infeasible plan /
                                   ///< guardrail reject / planning error
  std::uint64_t snapshots_clean = 0;
  std::uint64_t snapshots_repaired = 0;  ///< guard repair tier fired
  std::uint64_t snapshots_rejected = 0;  ///< guard verdict kRejected
  std::uint64_t cache_hits = 0;        ///< tenant Planner cache hits
  std::uint64_t cache_misses = 0;      ///< tenant Planner cache misses
  std::uint64_t uncacheable_plans = 0; ///< repaired-snapshot planner calls
  /// Decomposition-tier tenants only (PlanConfig::decompose): rounds
  /// planned per interference component, and how many active components
  /// those rounds spanned (DecomposeStats, diffed per served round).
  std::uint64_t decomposed_rounds = 0;
  std::uint64_t components_planned = 0;

  friend bool operator==(const TenantCounters&,
                         const TenantCounters&) = default;
};

/// Global counters: the sum of every tenant's TenantCounters plus the
/// service-level events no tenant owns.
struct ServeCounters {
  TenantCounters totals;                 ///< sums across tenants
  std::uint64_t shed_unknown_tenant = 0; ///< submits naming no tenant
  std::uint64_t batches = 0;             ///< run_batch calls that planned
  std::uint64_t batch_requests = 0;      ///< requests across those batches
  std::uint64_t max_batch = 0;           ///< largest single batch

  friend bool operator==(const ServeCounters&, const ServeCounters&) = default;
};

/// Counter + histogram store for one PlanService.
///
/// Not thread-safe by design: the service updates it only from the
/// calling thread (between pool batches), the same single-owner model as
/// Planner.
class ServeMetrics {
 public:
  ServeMetrics();

  /// Grow the per-tenant stores to cover tenant ids [0, count).
  void ensure_tenants(std::size_t count);

  [[nodiscard]] std::size_t tenants() const { return tenant_.size(); }
  [[nodiscard]] TenantCounters& tenant(std::size_t id) { return tenant_[id]; }
  [[nodiscard]] const TenantCounters& tenant(std::size_t id) const {
    return tenant_[id];
  }
  [[nodiscard]] ServeCounters& global() { return global_; }
  [[nodiscard]] const ServeCounters& global() const { return global_; }

  /// Add `n` to one of tenant `id`'s counters and to its global total.
  void count(std::size_t id, std::uint64_t TenantCounters::*counter,
             std::uint64_t n = 1) {
    tenant_[id].*counter += n;
    global_.totals.*counter += n;
  }

  /// Record one served round's enqueue->served latency in scheduler ticks
  /// (deterministic) into the tenant's and the global tick histograms.
  void record_tick_latency(std::size_t tenant_id, double ticks);

  /// Record one served round's wall-clock enqueue->served latency in
  /// seconds (global histogram only; excluded from determinism).
  void record_wall_latency(double seconds) { wall_latency_s_.add(seconds); }

  [[nodiscard]] const QuantileSketch& tick_latency() const {
    return tick_latency_;
  }
  [[nodiscard]] const QuantileSketch& tenant_tick_latency(
      std::size_t id) const {
    return tenant_tick_latency_[id];
  }
  [[nodiscard]] const QuantileSketch& wall_latency_s() const {
    return wall_latency_s_;
  }

  /// Dump the whole metrics plane as one JSON document:
  /// {"global":{...,"tick_latency":{...}[,"wall_latency_s":{...}]},
  ///  "tenants":[{"tenant":0,...},...]}. With include_wall=false the
  /// output is a pure function of the submission schedule — byte-stable
  /// across runs and pool thread counts (the pinned determinism surface).
  [[nodiscard]] std::string to_json(bool include_wall = true) const;

  /// Prometheus-style text exposition of the same plane: every counter as
  /// `meshopt_serve_<key>{scope="global"|tenant="N"} value` plus latency
  /// histograms (cumulative buckets from QuantileSketch::buckets()). Both
  /// formats are produced by one shared counter-walk over the counter
  /// structs, so they cannot drift: a counter added to the walk appears in
  /// both, one added anywhere else appears in neither. Same include_wall
  /// split as to_json.
  [[nodiscard]] std::string metrics_text(bool include_wall = true) const;

 private:
  ServeCounters global_;
  std::vector<TenantCounters> tenant_;
  QuantileSketch tick_latency_;
  std::vector<QuantileSketch> tenant_tick_latency_;
  QuantileSketch wall_latency_s_;
};

}  // namespace meshopt
