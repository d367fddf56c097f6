#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "util/json.h"

namespace meshopt {

namespace {

// tid assignment: one Perfetto lane per stage; decomposed component solves
// fan out into their own sub-lanes above kComponentTidBase.
constexpr std::uint32_t kComponentTidBase = 100;

std::uint32_t record_tid(const ObsRecord& r) {
  if (r.stage == ObsStage::kComponent && r.code == ObsCode::kComponentSolve)
    return kComponentTidBase + static_cast<std::uint32_t>(r.a & 0xffff);
  return static_cast<std::uint32_t>(r.stage);
}

std::string tid_name(std::uint32_t tid) {
  if (tid >= kComponentTidBase) {
    return "component-" + std::to_string(tid - kComponentTidBase);
  }
  return to_string(static_cast<ObsStage>(tid));
}

// Deterministic timeline: each round owns a 1000us slot. The round span
// fills it; nested stage records sit at seq offsets inside.
double synth_ts(const ObsRecord& r) {
  const double base = static_cast<double>(r.round) * 1000.0;
  if (r.stage == ObsStage::kRound) return base;
  const double off = static_cast<double>(std::min<std::uint32_t>(r.seq, 89));
  return base + 10.0 + off * 10.0;
}

double synth_dur(const ObsRecord& r) {
  return r.stage == ObsStage::kRound ? 1000.0 : 8.0;
}

void append_ts(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

struct TraceEvent {
  double ts = 0.0;
  double dur = 0.0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  const ObsRecord* rec = nullptr;
};

void append_metric_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  json_append_double(out, v);
}

}  // namespace

std::string chrome_trace_json(const std::vector<ObsRecord>& records,
                              const ChromeTraceOptions& opts) {
  std::vector<TraceEvent> events;
  events.reserve(records.size());
  std::set<std::uint32_t> pids;
  std::set<std::pair<std::uint32_t, std::uint32_t>> lanes;
  for (const ObsRecord& r : records) {
    TraceEvent ev;
    if (opts.use_wall_clock && r.wall_ns > 0) {
      ev.ts = static_cast<double>(r.wall_ns) / 1000.0;
      ev.dur = static_cast<double>(r.wall_dur_ns) / 1000.0;
    } else {
      ev.ts = synth_ts(r);
      ev.dur = r.kind == ObsKind::kSpan ? synth_dur(r) : 0.0;
    }
    ev.pid = r.lane;
    ev.tid = record_tid(r);
    ev.rec = &r;
    pids.insert(ev.pid);
    lanes.insert({ev.pid, ev.tid});
    events.push_back(ev);
  }
  // Per-(pid, tid) monotone ts is part of the exported contract
  // (tools/check_trace_json.py pins it); a global stable sort guarantees it
  // in both timestamp modes.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.ts < y.ts;
                   });

  std::string out;
  out.reserve(256 + records.size() * 200);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const std::uint32_t pid : pids) {
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":";
    json_append_int(out, pid);
    out += ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":";
    json_append_string(out, opts.process_name + " lane " + std::to_string(pid));
    out += "}}";
  }
  for (const auto& [pid, tid] : lanes) {
    out += ",{\"ph\":\"M\",\"pid\":";
    json_append_int(out, pid);
    out += ",\"tid\":";
    json_append_int(out, tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    json_append_string(out, tid_name(tid));
    out += "}}";
  }
  for (const TraceEvent& ev : events) {
    const ObsRecord& r = *ev.rec;
    if (!first) out += ',';
    first = false;
    if (r.kind == ObsKind::kSpan) {
      out += "{\"ph\":\"X\",\"name\":";
    } else {
      out += "{\"ph\":\"i\",\"s\":\"t\",\"name\":";
    }
    json_append_string(out, r.code == ObsCode::kNone
                                ? std::string(to_string(r.stage))
                                : std::string(to_string(r.code)));
    out += ",\"cat\":";
    json_append_string(out, to_string(r.stage));
    out += ",\"pid\":";
    json_append_int(out, ev.pid);
    out += ",\"tid\":";
    json_append_int(out, ev.tid);
    out += ",\"ts\":";
    append_ts(out, ev.ts);
    if (r.kind == ObsKind::kSpan) {
      out += ",\"dur\":";
      append_ts(out, ev.dur);
    }
    out += ",\"args\":{\"round\":";
    json_append_int(out, static_cast<long long>(r.round));
    out += ",\"seq\":";
    json_append_int(out, r.seq);
    out += ",\"code\":";
    json_append_string(out, to_string(r.code));
    out += ",\"a\":";
    json_append_hex(out, r.a);
    out += ",\"b\":";
    json_append_hex(out, r.b);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string chrome_trace_json(const TraceRecorder& rec,
                              const ChromeTraceOptions& opts) {
  return chrome_trace_json(rec.canonical_records(opts.use_wall_clock), opts);
}

void prometheus_append_histogram(std::string& out, const std::string& name,
                                 const std::string& labels,
                                 const QuantileSketch& sketch) {
  const std::string prefix = labels.empty() ? "" : labels + ",";
  std::uint64_t cum = 0;
  for (const SketchBucket& b : sketch.buckets()) {
    cum += b.count;
    out += name + "_bucket{" + prefix + "le=\"";
    append_metric_double(out, b.upper_bound);
    out += "\"} ";
    out += std::to_string(cum);
    out += '\n';
  }
  out += name + "_bucket{" + prefix + "le=\"+Inf\"} ";
  out += std::to_string(sketch.count());
  out += '\n';
  out += name + "_sum";
  if (!labels.empty()) out += "{" + labels + "}";
  out += ' ';
  append_metric_double(out, sketch.sum());
  out += '\n';
  out += name + "_count";
  if (!labels.empty()) out += "{" + labels + "}";
  out += ' ';
  out += std::to_string(sketch.count());
  out += '\n';
}

std::string prometheus_stage_text(const TraceRecorder& rec) {
  std::string out;
  out +=
      "# HELP meshopt_stage_wall_ns Wall-clock stage duration in "
      "nanoseconds (wall-enriched traces only).\n"
      "# TYPE meshopt_stage_wall_ns histogram\n";
  for (const auto& [stage, sketch] : rec.stage_histograms()) {
    prometheus_append_histogram(
        out, "meshopt_stage_wall_ns",
        std::string("stage=\"") + to_string(stage) + "\"", *sketch);
  }
  out += "# TYPE meshopt_obs_records_emitted_total counter\n";
  out += "meshopt_obs_records_emitted_total " +
         std::to_string(rec.records_emitted()) + "\n";
  out += "# TYPE meshopt_obs_records_dropped_total counter\n";
  out += "meshopt_obs_records_dropped_total " +
         std::to_string(rec.records_dropped()) + "\n";
  out += "# TYPE meshopt_obs_incidents_total counter\n";
  out += "meshopt_obs_incidents_total " +
         std::to_string(rec.incidents().size() + rec.incidents_dropped()) +
         "\n";
  return out;
}

}  // namespace meshopt
