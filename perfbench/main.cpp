// meshbench — the control-plane benchmark executable (driven by run.py).
//
//   meshbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..},"warmup":{..}}
// where "warmup" carries the warm-up pass digests run.py compares with
// references.json. Exits 1 when any output check fails.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace meshbench {
namespace {

constexpr int kSetupReps = 5;        // setup_s is the median of these
constexpr long long kMinUnits = 1000;  // >= 10 samples beyond round_ms_p99

// End-to-end times are reported at the reference host speed: each raw time
// is scaled by kReferenceProbeMs over the median probe_ms() (host_speed.cpp)
// measured around it. kReferenceProbeMs is the probe's median on the
// 4-vCPU 2.1 GHz Xeon VM the benchmark was tuned on, in a quiet spell
// (its medians over 20-s runs ranged 2.15-3.34 ms there).
constexpr double kReferenceProbeMs = 2.25;
constexpr double kProbeEveryS = 0.05;  // probe cadence in the timed phase
constexpr double kSegmentMs = 500.0;   // unit time that shares one factor
constexpr int kSetupProbes = 8;        // probes before and after a set-up

double speed_factor(const std::vector<double>& probes) {
  return kReferenceProbeMs / quantile(probes, 0.5);
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A traced run prints all of
// them; a metric of a layer the workload does not load reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"sim.window_ms", "ms"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"mac.tx_attempts", "count"},
    {"mac.tx_success_ratio", "ratio"},
    {"estimation.ms", "ms"},
    {"core.step_ms", "ms"},
    {"model.K", "count"},
    {"model.cache_hit_ratio", "ratio"},
    {"model.cache_hits", "count"},
    {"model.cache_misses", "count"},
    {"opt.fw_iterations", "count"},
    {"opt.pricing_rounds", "count"},
    {"opt.columns_generated", "count"},
    {"decompose.warm_round_ms_p50", "ms"},
    {"decompose.cold_round_ms_p50", "ms"},
    {"decompose.components_per_round", "count"},
    {"decompose.fallback_rounds", "count"},
    {"serve.decode_binary_us", "us"},
    {"serve.decode_json_us", "us"},
    {"serve.admit_us", "us"},
    {"serve.encode_us", "us"},
    {"serve.batch_ms", "ms"},
    {"serve.plans_per_batch", "count"},
    {"serve.shed", "count"},
    {"serve.coalesced", "count"},
    {"serve.shed_ratio", "ratio"},
    {"serve.coalesced_ratio", "ratio"},
    {"guard.repaired_ratio", "ratio"},
    {"serve.tax", "ratio"},
    {"ledger.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "meshbench: %s\nusage: meshbench --workload <live_testbed|"
               "replay_city|serve_2000> --seed <n> --seconds "
               "<s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    if (key == "--workload")
      a.workload = val;
    else if (key == "--seed")
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds")
      a.seconds = std::atof(val.c_str());
    else if (key == "--trace")
      a.trace = val == "1";
    else
      usage("unknown argument");
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::unique_ptr<Workload> make(const Args& a) {
  if (a.workload == "live_testbed") return make_live_testbed(a.seed);
  if (a.workload == "replay_city") return make_replay_city(a.seed);
  if (a.workload == "serve_2000") return make_serve_2000(a.seed);
  usage("unknown workload");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Running totals of one phase of units.
struct Phase {
  std::vector<double> unit_ms;
  long long units = 0;
  long long failed_units = 0;
  long long plans = 0;
  long long correct_plans = 0;

  void add(double ms, const UnitOutcome& o) {
    unit_ms.push_back(ms);
    ++units;
    plans += o.plans;
    correct_plans += o.correct;
    if (!o.ok || o.correct != o.plans || o.plans == 0) ++failed_units;
  }
};

/// Run units [first, first + count) (clamped to the script), traced when
/// `ledger` is non-null.
void run_units(Workload& w, long long first, long long count, Ledger* ledger,
               Phase& phase) {
  const long long end = std::min(first + count, w.max_units());
  for (long long i = first; i < end; ++i) {
    w.prepare(i);
    const auto t0 = Clock::now();
    if (ledger != nullptr)
      w.run_traced(i, *ledger);
    else
      w.run(i);
    const double ms = 1e3 * seconds_since(t0);
    phase.add(ms, w.check(i));
  }
}

void print_json(bool correct, long long attempted, long long failed,
                const std::vector<std::pair<MetricDef, double>>& metrics,
                const WarmupResult& warm) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].first.name, metrics[i].second,
                  metrics[i].first.unit);
    out += buf;
  }
  out += "}, \"warmup\": {\"exact_digests\": {";
  bool first = true;
  for (const auto& [k, v] : warm.exact_digests) {
    out += (first ? "\"" : ", \"") + k + "\": \"" + v + "\"";
    first = false;
  }
  out += "}, \"fast_objectives\": {";
  first = true;
  for (const auto& [k, v] : warm.fast_objectives) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (first ? "\"" : ", \"") + k + "\": " + buf;
    first = false;
  }
  out += "}}}";
  std::printf("%s\n", out.c_str());
}

int run_untraced(const Args& a) {
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  WarmupResult warm;
  bool deterministic = true;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();  // never hold two workloads at once (peak_rss_mb)
    std::vector<double> probes;
    for (int k = 0; k < kSetupProbes; ++k) probes.push_back(probe_ms());
    const auto t0 = Clock::now();
    w = make(a);
    const WarmupResult r = w->setup();
    setup_raw_s.push_back(seconds_since(t0));
    for (int k = 0; k < kSetupProbes; ++k) probes.push_back(probe_ms());
    setup_s.push_back(setup_raw_s.back() * speed_factor(probes));
    if (rep == 0)
      warm = r;
    else if (!(r == warm))
      deterministic = false;
  }

  // The timed phase runs in segments of ~kSegmentMs of unit time; probes
  // between units (every kProbeEveryS, untimed) give each segment its speed
  // factor, so a slow spell of the host is scaled out where it happened.
  Phase ph;
  std::vector<double> norm_ms;  // unit times at the reference speed
  std::vector<double> seg_probes;
  std::size_t seg_first = 0;
  double seg_ms = 0.0;
  const auto close_segment = [&] {
    const double f = speed_factor(seg_probes);
    for (std::size_t k = seg_first; k < ph.unit_ms.size(); ++k)
      norm_ms.push_back(ph.unit_ms[k] * f);
    seg_first = ph.unit_ms.size();
    seg_ms = 0.0;
    seg_probes.clear();
  };
  const auto t0 = Clock::now();
  long long next = w->warmup_units();
  // peak_rss_mb is read after the first kMinUnits timed units, a fixed
  // amount of work: a workload whose memory grows per unit would otherwise
  // report how many units the host's speed let the run complete.
  double rss_mb = 0.0;
  auto last_probe = Clock::now();
  seg_probes.push_back(probe_ms());
  while (next < w->max_units() &&
         (ph.units < kMinUnits || seconds_since(t0) < a.seconds)) {
    run_units(*w, next, 1, nullptr, ph);
    ++next;
    if (ph.units == kMinUnits) rss_mb = peak_rss_mb();
    if (seconds_since(last_probe) >= kProbeEveryS) {
      seg_probes.push_back(probe_ms());
      last_probe = Clock::now();
    }
    seg_ms += ph.unit_ms.back();
    if (seg_ms >= kSegmentMs) {
      close_segment();
      seg_probes.push_back(probe_ms());
      last_probe = Clock::now();
    }
  }
  if (seg_first < ph.unit_ms.size()) close_segment();
  double busy_s = 0.0;
  double norm_busy_s = 0.0;
  for (double ms : ph.unit_ms) busy_s += ms / 1e3;
  for (double ms : norm_ms) norm_busy_s += ms / 1e3;

  const double p50 = quantile(norm_ms, 0.5);
  const double p99 = quantile(norm_ms, 0.99);
  const double ok_ratio =
      ph.plans > 0 ? static_cast<double>(ph.correct_plans) /
                         static_cast<double>(ph.plans)
                   : 0.0;
  std::printf("workload %s seed %llu: %lld timed units in %.2f s busy, "
              "%lld plans (%lld correct)\n",
              a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), ph.units,
              busy_s, ph.plans, ph.correct_plans);
  std::printf("host speed: units ran at %.3f of the reference speed; raw "
              "round_ms_p50 %.4f, round_ms_p99 %.4f\n",
              norm_busy_s / busy_s, quantile(ph.unit_ms, 0.5),
              quantile(ph.unit_ms, 0.99));
  std::printf("setup_s reps (raw):");
  for (double s : setup_raw_s) std::printf(" %.4f", s);
  std::printf("%s\n", deterministic ? "" : "  (warm-up digests DIFFER)");

  const std::vector<std::pair<MetricDef, double>> metrics = {
      {{"setup_s", "s"}, quantile(setup_s, 0.5)},
      {{"round_ms_p50", "ms"}, p50},
      {{"round_ms_p99", "ms"}, p99},
      {{"plans_per_s", "1/s"},
       norm_busy_s > 0 ? static_cast<double>(ph.correct_plans) / norm_busy_s
                       : 0.0},
      {{"peak_rss_mb", "MB"}, rss_mb},
      {{"ok_ratio", "ratio"}, ok_ratio},
  };
  const bool correct = deterministic && ph.failed_units == 0 &&
                       ph.units >= kMinUnits;
  print_json(correct, ph.units, ph.failed_units, metrics, warm);
  return correct ? 0 : 1;
}

int run_traced(const Args& a) {
  std::unique_ptr<Workload> w = make(a);
  const WarmupResult warm = w->setup();
  const long long n = w->traced_units();
  long long next = w->warmup_units();

  // The deterministic traced pass: counts come from here alone.
  Ledger ledger;
  Phase traced;
  const std::map<std::string, double> c0 = w->counters();
  run_units(*w, next, n, &ledger, traced);
  next += n;
  std::map<std::string, double> deltas = w->counters();
  for (auto& [k, v] : deltas) v -= c0.at(k);
  double traced_busy_s = 0.0;
  for (double ms : traced.unit_ms) traced_busy_s += ms / 1e3;
  std::map<std::string, double> layer =
      w->layer_metrics(ledger, deltas, traced.units);
  layer["ledger.coverage"] =
      traced_busy_s > 0 ? ledger.stage_total() / traced_busy_s : 0.0;

  // Alternate untraced and traced passes for the overhead ratio.
  Phase untraced;
  Phase all = traced;
  const auto t0 = Clock::now();
  do {
    run_units(*w, next, n, nullptr, untraced);
    next += n;
    if (seconds_since(t0) >= a.seconds || next >= w->max_units()) break;
    Ledger timing_only;  // counts come from the first traced pass alone
    Phase more;
    run_units(*w, next, n, &timing_only, more);
    next += n;
    for (double ms : more.unit_ms) all.unit_ms.push_back(ms);
    all.units += more.units;
    all.failed_units += more.failed_units;
  } while (seconds_since(t0) < a.seconds && next < w->max_units());
  const double p50_untraced = quantile(untraced.unit_ms, 0.5);
  layer["trace.overhead"] =
      p50_untraced > 0 ? quantile(all.unit_ms, 0.5) / p50_untraced : 0.0;

  std::printf("workload %s seed %llu traced pass: %lld units, %.3f s\n",
              a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), traced.units,
              traced_busy_s);
  std::printf("ledger (share of traced unit time):\n");
  for (const auto& [stage, s] : ledger.stages())
    std::printf("  %-24s %8.4f s  %6.2f%%\n", stage.c_str(), s,
                traced_busy_s > 0 ? 100.0 * s / traced_busy_s : 0.0);

  std::vector<std::pair<MetricDef, double>> metrics;
  for (const MetricDef& m : kLayerMetrics) {
    const auto it = layer.find(m.name);
    metrics.push_back({m, it == layer.end() ? 0.0 : it->second});
  }
  const long long attempted = all.units + untraced.units;
  const long long failed = all.failed_units + untraced.failed_units;
  const bool correct = failed == 0;
  print_json(correct, attempted, failed, metrics, warm);
  return correct ? 0 : 1;
}

}  // namespace

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double Ledger::stage_total() const {
  double s = 0.0;
  for (const auto& [k, v] : stage_s_) s += v;
  return s;
}

double Ledger::stage(const std::string& s) const {
  const auto it = stage_s_.find(s);
  return it == stage_s_.end() ? 0.0 : it->second;
}

double Ledger::counted(const std::string& n) const {
  const auto it = counts_.find(n);
  return it == counts_.end() ? 0.0 : it->second;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

}  // namespace meshbench

int main(int argc, char** argv) {
  using namespace meshbench;
  const Args a = parse(argc, argv);
  try {
    return a.trace ? run_traced(a) : run_untraced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meshbench: %s\n", e.what());
    return 1;
  }
}
