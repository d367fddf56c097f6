#include "core/planner.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/obs.h"
#include "opt/decompose.h"

namespace meshopt {

Planner::Planner(std::size_t cache_entries) : capacity_(cache_entries) {}
Planner::~Planner() = default;
Planner::Planner(Planner&&) noexcept = default;
Planner& Planner::operator=(Planner&&) noexcept = default;

bool Planner::matches(const Entry& e, const MeasurementSnapshot& snap,
                      InterferenceModelKind kind, std::size_t mis_cap) {
  if (e.requested_kind != kind || e.mis_cap != mis_cap) return false;
  if (e.links.size() != snap.links.size()) return false;
  for (std::size_t i = 0; i < e.links.size(); ++i) {
    const SnapshotLink& l = snap.links[i];
    if (e.links[i].src != l.src || e.links[i].dst != l.dst ||
        e.links[i].rate != l.rate)
      return false;
  }
  if (e.neighbors != snap.neighbors || e.lir != snap.lir ||
      e.lir_threshold_bits !=
          std::bit_cast<std::uint64_t>(snap.lir_threshold))
    return false;
  // The value compare above keeps a NaN LIR missing; the bitwise one keeps
  // a zero of the other sign missing. Together they make a match imply an
  // equal topology_fingerprint().
  const std::size_t cells = static_cast<std::size_t>(e.lir.rows()) *
                            static_cast<std::size_t>(e.lir.cols());
  return cells == 0 || std::memcmp(e.lir.data(), snap.lir.data(),
                                   cells * sizeof(double)) == 0;
}

const InterferenceModel& Planner::model(const MeasurementSnapshot& snap,
                                        InterferenceModelKind kind,
                                        std::size_t mis_cap, bool cacheable) {
  caps_scratch_.clear();
  caps_scratch_.reserve(snap.links.size());
  for (const SnapshotLink& l : snap.links)
    caps_scratch_.push_back(l.estimate.capacity_bps);

  ++clock_;
  last_entry_ = nullptr;
  for (Entry& e : entries_) {
    if (matches(e, snap, kind, mis_cap)) {
      e.last_used = clock_;
      ++stats_.hits;
      last_entry_ = &e;
      // The topology fixes the nonzero positions, so the round's
      // capacities overwrite exactly the member cells of the entry's
      // matrix — bit-identical to a full refill, nnz writes instead of
      // K x L.
      refresh_extreme_point_matrix(caps_scratch_, e.topology.mis_rows,
                                   e.model->extreme_points_);
      if (obs_ != nullptr) {
        obs_->emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheHit,
                   e.fingerprint, e.topology.mis_rows.count());
      }
      return *e.model;
    }
  }

  const std::uint64_t fp = snap.topology_fingerprint();
  // Repaired-snapshot builds are barred from storing an entry, so they are
  // not cache misses — a miss implies the cache could have held it.
  if (!cacheable)
    ++stats_.uncacheable_plans;
  else
    ++stats_.misses;
  if (obs_ != nullptr) {
    obs_->emit(ObsStage::kCache, ObsKind::kEvent,
               cacheable ? ObsCode::kCacheMiss : ObsCode::kCacheUncacheable,
               fp, snap.links.size());
  }
  ObsSpan model_span(obs_, ObsStage::kModel);
  InterferenceTopology topo =
      InterferenceModel::build_topology(snap, kind, mis_cap);
  model_span.payload(fp, topo.mis_rows.count());
  if (capacity_ == 0 || !cacheable) {
    // Nothing is stored: move the whole topology into the model.
    uncached_.emplace(
        InterferenceModel::from_topology(std::move(topo), caps_scratch_));
    return *uncached_;
  }
  // The entry keeps the topology for future refreshes, so the model gets
  // a copy of the conflict graph (a one-time cost per topology epoch).
  InterferenceModel built =
      InterferenceModel::from_topology(topo, caps_scratch_);
  if (entries_.size() >= capacity_) {
    auto victim = std::min_element(entries_.begin(), entries_.end(),
                                   [](const Entry& a, const Entry& b) {
                                     return a.last_used < b.last_used;
                                   });
    if (obs_ != nullptr) {
      obs_->emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheEvict,
                 victim->fingerprint);
    }
    entries_.erase(victim);
    ++stats_.evictions;
  }
  Entry e;
  e.fingerprint = fp;
  e.requested_kind = kind;
  e.mis_cap = mis_cap;
  e.links = snap.link_refs();
  e.neighbors = snap.neighbors;
  e.lir = snap.lir;
  e.lir_threshold_bits = std::bit_cast<std::uint64_t>(snap.lir_threshold);
  e.topology = std::move(topo);
  e.model.emplace(std::move(built));
  e.last_used = clock_;
  entries_.push_back(std::move(e));
  last_entry_ = &entries_.back();
  return *entries_.back().model;
}

RatePlan Planner::plan(const MeasurementSnapshot& snap,
                       InterferenceModelKind kind,
                       const std::vector<FlowSpec>& flows,
                       const PlanConfig& cfg, std::size_t mis_cap,
                       bool cacheable) {
  if (cfg.decompose) {
    if (!decomposed_) {
      decomposed_ = std::make_unique<DecomposedPlanner>();
      decomposed_->set_observer(obs_);
    }
    return decomposed_->plan(snap, kind, flows, cfg, mis_cap, cacheable);
  }
  const InterferenceModel& m = model(snap, kind, mis_cap, cacheable);
  ColumnGenOptimizer* warm =
      cfg.tier == PlanTier::kFast ? last_entry_column_gen() : nullptr;
  if (warm != nullptr) warm->set_observer(obs_);
  return plan_rates(snap, m, flows, cfg, warm);
}

ColumnGenOptimizer* Planner::last_entry_column_gen() {
  if (last_entry_ == nullptr) return nullptr;
  if (!last_entry_->column_gen)
    last_entry_->column_gen = std::make_unique<ColumnGenOptimizer>();
  return last_entry_->column_gen.get();
}

PlannerStats Planner::stats_snapshot() const {
  PlannerStats total = stats_;
  if (decomposed_) total += decomposed_->planner_stats_snapshot();
  return total;
}

DecomposeStats Planner::decompose_stats() const {
  return decomposed_ ? decomposed_->stats() : DecomposeStats{};
}

void Planner::set_observer(TraceRecorder* obs) {
  obs_ = obs;
  if (decomposed_) decomposed_->set_observer(obs);
}

void Planner::clear() {
  entries_.clear();
  last_entry_ = nullptr;
  uncached_.reset();
  clock_ = 0;
  stats_ = PlannerStats{};
  decomposed_.reset();
}

}  // namespace meshopt
