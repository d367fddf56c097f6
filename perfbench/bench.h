#pragma once
// Shared harness of the control-plane benchmark (see run.py for the
// command line and manifest.json for what each workload loads).
//
// A workload is a fixed, seeded script of units (a control round, a planned
// round or a serving tick). The harness drives it in two modes:
//
//   * untraced (end-to-end): set the workload up kSetupReps times (input
//     generation + one warm-up pass, the median is setup_s), then time
//     closed-loop units — the next unit starts when the previous one
//     returns — until the time budget is spent and at least kMinUnits ran.
//     Only the unit boundaries are timed; no observer, no stage timers.
//     Untimed host speed probes between units scale every time to the
//     reference host speed (main.cpp, host_speed.cpp).
//   * traced (per layer): one setup, then a fixed traced pass whose
//     deterministic work counts are reported, then alternating untraced
//     and traced passes until the budget is spent, so traced and untraced
//     unit medians come from the same run (trace.overhead).
//
// Outputs are checked outside the unit timers: every plan must be ok and
// pass PlanValidator, and each workload exports digests of its warm-up
// pass that run.py compares with references.json at the default seed.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rate_plan.h"

namespace meshbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a over the exact bits of a plan's rates and objective: two plans
/// digest equal only when they are bit-identical.
class Digest {
 public:
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) { add(&v, sizeof v); }
  void add(const meshopt::RatePlan& plan) {
    for (double v : plan.y) add(v);
    for (double v : plan.x) add(v);
    add(plan.objective_value);
  }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// What a workload's warm-up pass produced, compared across set-up
/// repetitions (determinism) and against references.json (default seed).
struct WarmupResult {
  /// Digests of exact-tier plans, by name.
  std::map<std::string, std::string> exact_digests;
  /// Sums of fast-tier objectives, by name (compared within 1e-6 relative).
  std::map<std::string, double> fast_objectives;

  friend bool operator==(const WarmupResult&, const WarmupResult&) = default;
};

/// Outcome of one unit: plans attempted, plans that passed the checks,
/// and whether the unit's other checks (admission accounting) held.
struct UnitOutcome {
  int plans = 0;
  int correct = 0;
  bool ok = true;
};

/// Per-layer accumulator of the traced run: stage times (seconds, summed)
/// and work counts (summed), plus any value a workload reports directly.
class Ledger {
 public:
  void time(const std::string& stage, double s) { stage_s_[stage] += s; }
  void count(const std::string& name, double n) { counts_[name] += n; }
  [[nodiscard]] double stage_total() const;
  [[nodiscard]] double stage(const std::string& s) const;
  [[nodiscard]] double counted(const std::string& n) const;
  [[nodiscard]] const std::map<std::string, double>& stages() const {
    return stage_s_;
  }

 private:
  std::map<std::string, double> stage_s_;
  std::map<std::string, double> counts_;
};

/// One benchmark workload. Units are indexed from 0 across the whole run;
/// a unit's inputs are a pure function of (seed, index).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate inputs, register tenants, and run the warm-up pass: units
  /// [0, warmup_units()), whose plans the returned digests cover.
  virtual WarmupResult setup() = 0;
  [[nodiscard]] virtual long long warmup_units() const = 0;
  /// Script length: runs never go past it.
  [[nodiscard]] virtual long long max_units() const = 0;
  /// Units in the deterministic traced pass.
  [[nodiscard]] virtual long long traced_units() const = 0;
  /// Materialize unit i's inputs (untimed).
  virtual void prepare(long long i) = 0;
  /// Run unit i with no tracing (the timed region).
  virtual void run(long long i) = 0;
  /// Run unit i with each layer timed from outside through public calls.
  virtual void run_traced(long long i, Ledger& ledger) = 0;
  /// Check unit i's outputs (untimed).
  virtual UnitOutcome check(long long i) = 0;
  /// Snapshot the deterministic work counters (cumulative).
  [[nodiscard]] virtual std::map<std::string, double> counters() const = 0;
  /// Per-layer metrics of a traced pass over `units` units, given the
  /// ledger and the counter deltas over that pass.
  virtual std::map<std::string, double> layer_metrics(
      const Ledger& ledger, const std::map<std::string, double>& deltas,
      long long units) = 0;
};

std::unique_ptr<Workload> make_live_testbed(std::uint64_t seed);
std::unique_ptr<Workload> make_replay_city(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_2000(std::uint64_t seed);

/// Nearest-rank quantile of `v` (copied and sorted); 0 for empty input.
double quantile(std::vector<double> v, double q);

/// Run the host speed probe (host_speed.cpp) once; its wall time in ms.
double probe_ms();

}  // namespace meshbench
