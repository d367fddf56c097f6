#include "obs/obs.h"

#include <algorithm>
#include <chrono>

#include "util/json.h"

namespace meshopt {

const char* to_string(ObsStage stage) {
  switch (stage) {
    case ObsStage::kRound: return "round";
    case ObsStage::kSense: return "sense";
    case ObsStage::kValidate: return "validate";
    case ObsStage::kModel: return "model";
    case ObsStage::kPlan: return "plan";
    case ObsStage::kApply: return "apply";
    case ObsStage::kHealth: return "health";
    case ObsStage::kCache: return "cache";
    case ObsStage::kPricing: return "pricing";
    case ObsStage::kComponent: return "component";
    case ObsStage::kSegment: return "segment";
    case ObsStage::kServe: return "serve";
    case ObsStage::kStageCount: break;
  }
  return "unknown";
}

const char* to_string(ObsKind kind) {
  return kind == ObsKind::kSpan ? "span" : "event";
}

const char* to_string(ObsCode code) {
  switch (code) {
    case ObsCode::kNone: return "none";
    case ObsCode::kCacheHit: return "cache_hit";
    case ObsCode::kCacheMiss: return "cache_miss";
    case ObsCode::kCacheUncacheable: return "cache_uncacheable";
    case ObsCode::kCacheEvict: return "cache_evict";
    case ObsCode::kHealthTransition: return "health_transition";
    case ObsCode::kBackoffSkip: return "backoff_skip";
    case ObsCode::kSnapshotReject: return "snapshot_reject";
    case ObsCode::kPlanReject: return "plan_reject";
    case ObsCode::kFallbackEntry: return "fallback_entry";
    case ObsCode::kRecovery: return "recovery";
    case ObsCode::kWarmStart: return "warm_start";
    case ObsCode::kColdStart: return "cold_start";
    case ObsCode::kPricingSolve: return "pricing_solve";
    case ObsCode::kComponentSolve: return "component_solve";
    case ObsCode::kFallbackDegenerate: return "fallback_degenerate";
    case ObsCode::kFallbackConnected: return "fallback_connected";
    case ObsCode::kFallbackCross: return "fallback_cross";
    case ObsCode::kServeOk: return "serve_ok";
    case ObsCode::kServeError: return "serve_error";
    case ObsCode::kCellError: return "cell_error";
  }
  return "unknown";
}

bool deterministic_equal(const ObsRecord& x, const ObsRecord& y) {
  return x.round == y.round && x.lane == y.lane && x.seq == y.seq &&
         x.stage == y.stage && x.kind == y.kind && x.code == y.code &&
         x.a == y.a && x.b == y.b;
}

namespace {

// Canonical record order: lane, then round, then emission sequence. Ties
// (distinct producers reusing a (lane, round) pair) fall back to the
// absorption order via stable_sort.
bool canonical_less(const ObsRecord& x, const ObsRecord& y) {
  if (x.lane != y.lane) return x.lane < y.lane;
  if (x.round != y.round) return x.round < y.round;
  return x.seq < y.seq;
}

void append_record_json(std::string& out, const ObsRecord& r) {
  out += "{\"round\":";
  json_append_int(out, static_cast<long long>(r.round));
  out += ",\"lane\":";
  json_append_int(out, r.lane);
  out += ",\"seq\":";
  json_append_int(out, r.seq);
  out += ",\"stage\":";
  json_append_string(out, to_string(r.stage));
  out += ",\"kind\":";
  json_append_string(out, to_string(r.kind));
  out += ",\"code\":";
  json_append_string(out, to_string(r.code));
  out += ",\"a\":";
  json_append_hex(out, r.a);
  out += ",\"b\":";
  json_append_hex(out, r.b);
  out += ",\"wall_ns\":";
  json_append_int(out, static_cast<long long>(r.wall_ns));
  out += ",\"wall_dur_ns\":";
  json_append_int(out, static_cast<long long>(r.wall_dur_ns));
  out += '}';
}

// Health-state names matching core/guard.h's to_string(HealthState); kept
// local so obs does not depend on the guard layer.
const char* health_name(std::uint64_t state) {
  switch (state) {
    case 0: return "HEALTHY";
    case 1: return "DEGRADED";
    case 2: return "FALLBACK";
    default: return "UNKNOWN";
  }
}

}  // namespace

std::string IncidentReport::to_json() const {
  std::string out;
  out.reserve(512 + window.size() * 160);
  out += "{\"schema\":\"meshopt-incident-v1\",\"code\":";
  json_append_string(out, to_string(code));
  out += ",\"round\":";
  json_append_int(out, static_cast<long long>(round));
  out += ",\"lane\":";
  json_append_int(out, lane);
  out += ",\"detail\":";
  json_append_string(out, detail);

  // Health trajectory: the transition events inside the window.
  out += ",\"health\":[";
  bool first = true;
  for (const ObsRecord& r : window) {
    if (r.stage != ObsStage::kHealth || r.code != ObsCode::kHealthTransition)
      continue;
    if (!first) out += ',';
    first = false;
    out += "{\"round\":";
    json_append_int(out, static_cast<long long>(r.round));
    out += ",\"from\":";
    json_append_string(out, health_name(r.a));
    out += ",\"to\":";
    json_append_string(out, health_name(r.b));
    out += '}';
  }
  out += ']';

  // Per-stage rollup over the window: record counts plus wall timing
  // (wall_ns_total stays 0 in deterministic-only traces).
  struct StageAgg {
    std::uint64_t spans = 0;
    std::uint64_t events = 0;
    std::uint64_t wall_ns_total = 0;
  };
  StageAgg agg[static_cast<std::size_t>(ObsStage::kStageCount)] = {};
  for (const ObsRecord& r : window) {
    StageAgg& s = agg[static_cast<std::size_t>(r.stage)];
    if (r.kind == ObsKind::kSpan) {
      ++s.spans;
      s.wall_ns_total += r.wall_dur_ns;
    } else {
      ++s.events;
    }
  }
  out += ",\"stages\":[";
  first = true;
  for (std::size_t i = 0; i < static_cast<std::size_t>(ObsStage::kStageCount);
       ++i) {
    if (agg[i].spans == 0 && agg[i].events == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"stage\":";
    json_append_string(out, to_string(static_cast<ObsStage>(i)));
    out += ",\"spans\":";
    json_append_int(out, static_cast<long long>(agg[i].spans));
    out += ",\"events\":";
    json_append_int(out, static_cast<long long>(agg[i].events));
    out += ",\"wall_ns_total\":";
    json_append_int(out, static_cast<long long>(agg[i].wall_ns_total));
    out += '}';
  }
  out += ']';

  out += ",\"records\":[";
  first = true;
  for (const ObsRecord& r : window) {
    if (!first) out += ',';
    first = false;
    append_record_json(out, r);
  }
  out += "]}";
  return out;
}

TraceRecorder::TraceRecorder(ObsConfig cfg) : cfg_(cfg) {
  if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
  if (cfg_.sample_every == 0) cfg_.sample_every = 1;
}

void TraceRecorder::set_context(std::uint32_t lane, std::uint64_t round) {
  if (lane != lane_ || round != round_) {
    lane_ = lane;
    round_ = round;
    seq_ = 0;
  }
}

std::uint64_t TraceRecorder::now_ns() const {
  if (!cfg_.wall_clock) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void TraceRecorder::push(const ObsRecord& rec) {
  ++emitted_;
  if (ring_.size() < cfg_.ring_capacity) {
    ring_.push_back(rec);
    return;
  }
  ring_[head_] = rec;
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;
}

void TraceRecorder::emit(ObsStage stage, ObsKind kind, ObsCode code,
                         std::uint64_t a, std::uint64_t b,
                         std::uint64_t wall_ns, std::uint64_t wall_dur_ns) {
  if (kind == ObsKind::kSpan && !sampled()) return;
  ObsRecord rec;
  rec.round = round_;
  rec.lane = lane_;
  rec.seq = seq_++;
  rec.stage = stage;
  rec.kind = kind;
  rec.code = code;
  rec.a = a;
  rec.b = b;
  rec.wall_ns = wall_ns;
  rec.wall_dur_ns = wall_dur_ns;
  push(rec);
  if (kind == ObsKind::kSpan && wall_dur_ns > 0) {
    if (stage_hist_.empty()) {
      // Latency-flavored binning: 100ns .. 10s at 8 bins/octave.
      stage_hist_.assign(static_cast<std::size_t>(ObsStage::kStageCount),
                         QuantileSketch(1e2, 1e10, 8));
    }
    stage_hist_[static_cast<std::size_t>(stage)].add(
        static_cast<double>(wall_dur_ns));
    stage_hist_mask_ |= 1u << static_cast<std::uint32_t>(stage);
  }
}

void TraceRecorder::trigger_incident(ObsCode code, std::string detail) {
  emit(ObsStage::kHealth, ObsKind::kEvent, code);
  if (incidents_.size() >= cfg_.max_incidents) {
    ++incidents_dropped_;
    return;
  }
  IncidentReport report;
  report.code = code;
  report.round = round_;
  report.lane = lane_;
  report.detail = std::move(detail);
  const std::uint64_t window = cfg_.flight_window == 0 ? 1 : cfg_.flight_window;
  const std::uint64_t lo = round_ >= window - 1 ? round_ - (window - 1) : 0;
  std::vector<ObsRecord> chron;
  append_chronological(chron);
  for (const ObsRecord& r : chron) {
    if (r.lane == lane_ && r.round >= lo && r.round <= round_)
      report.window.push_back(r);
  }
  std::stable_sort(report.window.begin(), report.window.end(), canonical_less);
  incidents_.push_back(std::move(report));
}

void TraceRecorder::absorb(TraceRecorder& other) {
  if (&other == this) return;
  std::vector<ObsRecord> chron;
  other.append_chronological(chron);
  for (const ObsRecord& r : chron) push(r);
  // push() counted each record as a fresh emit; re-base onto the true
  // lifetime totals carried over from the other recorder.
  emitted_ += other.emitted_ - chron.size();
  dropped_ += other.dropped_;
  for (IncidentReport& inc : other.incidents_) {
    if (incidents_.size() >= cfg_.max_incidents) {
      ++incidents_dropped_;
      continue;
    }
    incidents_.push_back(std::move(inc));
  }
  incidents_dropped_ += other.incidents_dropped_;
  if (other.stage_hist_mask_ != 0) {
    if (stage_hist_.empty()) {
      stage_hist_.assign(static_cast<std::size_t>(ObsStage::kStageCount),
                         QuantileSketch(1e2, 1e10, 8));
    }
    for (std::size_t i = 0; i < other.stage_hist_.size(); ++i)
      stage_hist_[i].merge(other.stage_hist_[i]);
    stage_hist_mask_ |= other.stage_hist_mask_;
  }
  other.clear();
}

void TraceRecorder::append_chronological(std::vector<ObsRecord>& out) const {
  out.reserve(out.size() + ring_.size());
  if (ring_.size() < cfg_.ring_capacity || head_ == 0) {
    out.insert(out.end(), ring_.begin(), ring_.end());
    return;
  }
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
}

std::vector<ObsRecord> TraceRecorder::canonical_records(
    bool include_wall) const {
  std::vector<ObsRecord> out;
  append_chronological(out);
  std::stable_sort(out.begin(), out.end(), canonical_less);
  if (!include_wall) {
    for (ObsRecord& r : out) {
      r.wall_ns = 0;
      r.wall_dur_ns = 0;
    }
  }
  return out;
}

void TraceRecorder::clear() {
  ring_.clear();
  head_ = 0;
  emitted_ = 0;
  dropped_ = 0;
  incidents_.clear();
  incidents_dropped_ = 0;
  stage_hist_.clear();
  stage_hist_mask_ = 0;
}

const QuantileSketch* TraceRecorder::stage_wall_ns(ObsStage stage) const {
  const auto i = static_cast<std::uint32_t>(stage);
  if ((stage_hist_mask_ & (1u << i)) == 0) return nullptr;
  return &stage_hist_[i];
}

std::vector<std::pair<ObsStage, const QuantileSketch*>>
TraceRecorder::stage_histograms() const {
  std::vector<std::pair<ObsStage, const QuantileSketch*>> out;
  for (std::size_t i = 0; i < static_cast<std::size_t>(ObsStage::kStageCount);
       ++i) {
    const auto stage = static_cast<ObsStage>(i);
    if (const QuantileSketch* s = stage_wall_ns(stage)) out.emplace_back(stage, s);
  }
  return out;
}

}  // namespace meshopt
