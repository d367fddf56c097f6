// replay_city — DecomposedPlanner::plan per round on the 203-link city
// (4 gateway-cluster cliques of 50 links + 3 RF-silent bridges, 7 conflict
// components), fast tier, proportional fairness.
//
// Capacities drift every round. Every kChurnEvery-th round one cluster's
// LIR values move (conflicts persist, so the partition is stable): the
// churned component re-keys its planner cache and prices cold, while the
// other six stay warm. Clusters churn in rotation through kVariants LIR
// values each; with more variants than a component planner's cache has
// entries, every churn misses, so the cold share is fixed by the script:
// one round in kChurnEvery.

#include "bench.h"
#include "core/guard.h"
#include "opt/decompose.h"
#include "scenario/topologies.h"
#include "util/rng.h"

namespace meshbench {
namespace {

using namespace meshopt;

constexpr int kClusters = 4;
constexpr int kChurnEvery = 64;
constexpr int kVariants = 5;  // > DecomposeConfig::component_cache (4)
// Capacity drift vectors, cycled. Each is 1/kDriftRounds of the rounds, so
// with few of them one slow vector would set round_ms_p99 by itself.
constexpr int kDriftRounds = 1024;
constexpr long long kWarmup = 1LL * kChurnEvery * kClusters;
constexpr long long kTraced = 1LL * kChurnEvery * kClusters * kVariants;
constexpr long long kMaxUnits = 1'000'000;

class ReplayCity final : public Workload {
 public:
  explicit ReplayCity(std::uint64_t seed) : seed_(seed) {
    params_.links_per_cluster = 50;  // 4 x 50 + 3 bridges = 203 links
    params_.seed = seed;
  }

  WarmupResult setup() override {
    cur_ = build_city_snapshot(params_);
    flows_ = city_flows(params_);
    base_caps_.clear();
    for (const SnapshotLink& l : cur_.links)
      base_caps_.push_back(l.estimate.capacity_bps);
    RngStream rng(seed_, "perfbench-city-drift");
    drift_.assign(kDriftRounds, std::vector<double>(cur_.links.size()));
    for (auto& round : drift_)
      for (double& f : round) f = rng.uniform(0.95, 1.05);
    for (int c = 0; c < kClusters; ++c)
      cluster_links_.push_back(city_cluster_links(params_, c));
    cfg_.optimizer.objective = Objective::kProportionalFair;
    cfg_.tier = PlanTier::kFast;

    double objective = 0.0;
    for (long long i = 0; i < kWarmup; ++i) {
      prepare(i);
      run(i);
      (void)check(i);
      objective += plan_.objective_value;
    }
    WarmupResult w;
    w.fast_objectives["objective_sum"] = objective;
    return w;
  }

  long long warmup_units() const override { return kWarmup; }
  long long max_units() const override { return kMaxUnits; }
  long long traced_units() const override { return kTraced; }

  static bool churn_round(long long i) { return i % kChurnEvery == 0; }

  void prepare(long long i) override {
    const auto& f = drift_[static_cast<std::size_t>(i % kDriftRounds)];
    for (std::size_t l = 0; l < cur_.links.size(); ++l)
      cur_.links[l].estimate.capacity_bps = base_caps_[l] * f[l];
    if (churn_round(i)) {
      const long long event = i / kChurnEvery;
      const int cluster = static_cast<int>(event % kClusters);
      const int variant = static_cast<int>((event / kClusters) % kVariants);
      const double lir = params_.conflict_lir - 0.01 * (variant + 1);
      const auto& members = cluster_links_[static_cast<std::size_t>(cluster)];
      for (int a : members)
        for (int b : members)
          if (a != b) cur_.lir(a, b) = lir;
    }
  }

  void run(long long) override {
    plan_ = planner_.plan(cur_, InterferenceModelKind::kLirTable, flows_,
                          cfg_);
  }

  void run_traced(long long i, Ledger& ledger) override {
    const auto t0 = Clock::now();
    run(i);
    ledger.time("decompose", seconds_since(t0));
    (churn_round(i) ? cold_ms_ : warm_ms_).push_back(1e3 *
                                                     seconds_since(t0));
  }

  UnitOutcome check(long long) override {
    pricing_ += plan_.pricing_rounds;
    columns_ += plan_.columns_generated;
    fw_ += plan_.optimizer_iterations;
    const bool ok =
        plan_.ok && PlanValidator{}.validate(plan_, cur_, flows_).ok;
    return {1, ok ? 1 : 0};
  }

  std::map<std::string, double> counters() const override {
    const DecomposeStats& d = planner_.stats();
    const PlannerStats s = planner_.planner_stats_snapshot();
    return {{"pricing", pricing_},
            {"columns", columns_},
            {"fw", fw_},
            {"components", static_cast<double>(d.components_planned)},
            {"fallback", static_cast<double>(d.fallback_rounds)},
            {"hits", static_cast<double>(s.hits)},
            {"misses", static_cast<double>(s.misses)}};
  }

  std::map<std::string, double> layer_metrics(
      const Ledger&, const std::map<std::string, double>& d,
      long long units) override {
    const double n = static_cast<double>(units);
    const double lookups = d.at("hits") + d.at("misses");
    std::map<std::string, double> m;
    m["decompose.warm_round_ms_p50"] = quantile(warm_ms_, 0.5);
    m["decompose.cold_round_ms_p50"] = quantile(cold_ms_, 0.5);
    m["decompose.components_per_round"] = d.at("components") / n;
    m["decompose.fallback_rounds"] = d.at("fallback");
    m["model.cache_hits"] = d.at("hits");
    m["model.cache_misses"] = d.at("misses");
    m["model.cache_hit_ratio"] = lookups > 0 ? d.at("hits") / lookups : 0.0;
    m["opt.pricing_rounds"] = d.at("pricing") / n;
    m["opt.columns_generated"] = d.at("columns") / n;
    m["opt.fw_iterations"] = d.at("fw") / n;
    return m;
  }

 private:
  std::uint64_t seed_;
  CityParams params_;
  MeasurementSnapshot cur_;
  std::vector<FlowSpec> flows_;
  std::vector<double> base_caps_;
  std::vector<std::vector<double>> drift_;
  std::vector<std::vector<int>> cluster_links_;
  PlanConfig cfg_;
  DecomposedPlanner planner_;
  RatePlan plan_;
  double pricing_ = 0.0;
  double columns_ = 0.0;
  double fw_ = 0.0;
  std::vector<double> warm_ms_;
  std::vector<double> cold_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_replay_city(std::uint64_t seed) {
  return std::make_unique<ReplayCity>(seed);
}

}  // namespace meshbench
