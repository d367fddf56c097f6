// live_testbed — MeshController::guarded_round over a LiveSource on the
// 18-node synthetic testbed (scenario/testbed.h).
//
// Four ETT-routed multi-hop UDP flows on a fixed testbed layout, two-hop
// interference model, exact tier, proportional fairness. A Markov
// interferer near one flow's receiver and a random-walk loss drift on
// another flow's first hop move the estimates every round. The seed drives
// the simulation's randomness (fading, backoff) and both dynamics scripts;
// the layout and the flows stay fixed, so every seed simulates the same
// amount of probing. The probing window is shortened so a round costs a
// few milliseconds.

#include <algorithm>

#include "bench.h"
#include "core/controller.h"
#include "core/guard.h"
#include "probe/live_source.h"
#include "routing/ett.h"
#include "scenario/dynamics.h"
#include "scenario/testbed.h"
#include "util/rng.h"

namespace meshbench {
namespace {

using namespace meshopt;

constexpr std::uint64_t kLayoutSeed = 9;
constexpr int kFlows = 4;
constexpr double kProbePeriodS = 0.1;
constexpr int kProbeWindow = 30;
constexpr long long kWarmup = 16;
constexpr long long kTraced = 200;
constexpr long long kMaxUnits = 20000;  // the dynamics scripts' horizon

/// ETT routes over the layout's true 11 Mb/s link qualities: kFlows
/// distinct paths of 2 to 4 hops, drawn from a fixed stream.
std::vector<std::vector<NodeId>> route_flows(Workbench& wb,
                                             const Testbed& tb) {
  TopologyDb db;
  const ErrorModel& err = wb.channel().error_model();
  for (const LinkRef& l : tb.usable_links(Rate::kR11Mbps)) {
    LinkState ls;
    ls.src = l.src;
    ls.dst = l.dst;
    ls.rate = Rate::kR11Mbps;
    ls.p_fwd = err.per(l.src, l.dst, Rate::kR11Mbps, FrameType::kData);
    ls.p_rev = err.per(l.dst, l.src, Rate::kR1Mbps, FrameType::kAck);
    db.update_link(ls);
  }
  const int nodes = wb.net().node_count();
  std::vector<std::vector<NodeId>> paths;
  RngStream rng(kLayoutSeed, "perfbench-live-flows");
  while (static_cast<int>(paths.size()) < kFlows) {
    const NodeId s = rng.uniform_int(0, nodes - 1);
    const NodeId d = rng.uniform_int(0, nodes - 1);
    if (s == d) continue;
    const std::vector<NodeId> p = db.shortest_path(s, d);
    if (p.size() < 3 || p.size() > 5) continue;
    if (std::find(paths.begin(), paths.end(), p) != paths.end()) continue;
    paths.push_back(p);
  }
  return paths;
}

class LiveTestbed final : public Workload {
 public:
  explicit LiveTestbed(std::uint64_t seed) : seed_(seed) {}

  WarmupResult setup() override {
    wb_ = std::make_unique<Workbench>(seed_);
    tb_ = std::make_unique<Testbed>(*wb_, TestbedConfig{.seed = kLayoutSeed});
    const std::vector<std::vector<NodeId>> paths = route_flows(*wb_, *tb_);

    ControllerConfig cfg;
    cfg.probe_period_s = kProbePeriodS;
    cfg.probe_window = kProbeWindow;
    cfg.optimizer.objective = Objective::kProportionalFair;
    cfg.interference = InterferenceModelKind::kTwoHop;
    cfg.plan_tier = PlanTier::kExact;
    ctl_ = std::make_unique<MeshController>(wb_->net(), cfg, seed_);
    for (const auto& path : paths) {
      ManagedFlow f;
      f.flow_id = wb_->net().open_flow(path.front(), path.back(),
                                       Protocol::kUdp, 1470);
      f.path = path;
      f.rate = Rate::kR11Mbps;
      ctl_->manage_flow(f);
    }
    ctl_->set_guard(GuardConfig{});
    flows_ = ctl_->flow_specs();

    // A passive interferer heard at the first flow's receiver, and loss
    // drift on the second flow's first hop.
    const double window_s = ctl_->probing_window_seconds();
    const double horizon_s = static_cast<double>(kMaxUnits) * window_s;
    const NodeId jam = wb_->channel().add_node(nullptr);
    wb_->channel().set_rss_dbm(jam, paths[0].back(), -62.0);
    DynamicsScript script;
    script.merge(markov_interferer(jam, 0.5 * window_s, 0.5 * window_s,
                                   horizon_s,
                                   RngStream(seed_, "perfbench-live-jam"),
                                   0.0, /*period_s=*/0.01, /*duty=*/0.3));
    script.merge(random_walk_loss_drift(
        paths[1][0], paths[1][1], Rate::kR11Mbps, 0.05, 0.02, window_s,
        horizon_s, RngStream(seed_, "perfbench-live-drift")));
    dynamics_ = std::make_unique<DynamicsEngine>(*wb_, std::move(script));
    dynamics_->arm();
    live_ = std::make_unique<LiveSource>(*wb_, *ctl_);

    Digest digest;
    for (long long i = 0; i < kWarmup; ++i) {
      run(i);
      (void)check(i);
      digest.add(ctl_->last_plan());
    }
    WarmupResult w;
    w.exact_digests["plans"] = digest.hex();
    return w;
  }

  long long warmup_units() const override { return kWarmup; }
  long long max_units() const override { return kMaxUnits; }
  long long traced_units() const override { return kTraced; }

  void prepare(long long) override {}

  void run(long long) override { round_ = ctl_->guarded_round(*live_); }

  // guarded_round(LiveSource) is sense_window + guarded_step; sense_window
  // is start_probing + run_for(window) + update_estimates.
  void run_traced(long long, Ledger& ledger) override {
    auto t0 = Clock::now();
    ctl_->start_probing();
    wb_->run_for(ctl_->probing_window_seconds());
    ledger.time("sim", seconds_since(t0));
    t0 = Clock::now();
    ctl_->update_estimates();
    ledger.time("estimation", seconds_since(t0));
    t0 = Clock::now();
    round_ = ctl_->guarded_step(ctl_->snapshot());
    ledger.time("core", seconds_since(t0));
  }

  UnitOutcome check(long long) override {
    const RatePlan& plan = ctl_->last_plan();
    K_ += plan.extreme_points;
    fw_ += plan.optimizer_iterations;
    const bool ok = round_.ok && !round_.held &&
                    PlanValidator{}.validate(plan, ctl_->snapshot(), flows_).ok;
    return {1, ok ? 1 : 0};
  }

  std::map<std::string, double> counters() const override {
    double attempts = 0.0;
    double success = 0.0;
    for (NodeId n = 0; n < wb_->net().node_count(); ++n) {
      const MacStats& s = wb_->net().node(n).mac().stats();
      attempts += static_cast<double>(s.tx_attempts);
      success += static_cast<double>(s.tx_success);
    }
    const PlannerStats& ps = ctl_->planner().stats();
    return {{"events", static_cast<double>(wb_->sim().executed_events())},
            {"tx_attempts", attempts},
            {"tx_success", success},
            {"K", K_},
            {"fw", fw_},
            {"hits", static_cast<double>(ps.hits)},
            {"misses", static_cast<double>(ps.misses)}};
  }

  std::map<std::string, double> layer_metrics(
      const Ledger& ledger, const std::map<std::string, double>& d,
      long long units) override {
    const double n = static_cast<double>(units);
    const double lookups = d.at("hits") + d.at("misses");
    std::map<std::string, double> m;
    m["sim.window_ms"] = 1e3 * ledger.stage("sim") / n;
    m["sim.events"] = d.at("events") / n;
    m["sim.ns_per_event"] =
        d.at("events") > 0 ? 1e9 * ledger.stage("sim") / d.at("events") : 0.0;
    m["mac.tx_attempts"] = d.at("tx_attempts") / n;
    m["mac.tx_success_ratio"] =
        d.at("tx_attempts") > 0 ? d.at("tx_success") / d.at("tx_attempts")
                                : 0.0;
    m["estimation.ms"] = 1e3 * ledger.stage("estimation") / n;
    m["core.step_ms"] = 1e3 * ledger.stage("core") / n;
    m["model.K"] = d.at("K") / n;
    m["model.cache_hits"] = d.at("hits");
    m["model.cache_misses"] = d.at("misses");
    m["model.cache_hit_ratio"] = lookups > 0 ? d.at("hits") / lookups : 0.0;
    m["opt.fw_iterations"] = d.at("fw") / n;
    return m;
  }

 private:
  std::uint64_t seed_;
  // Destruction runs bottom-up: the source and the dynamics engine go
  // before the controller and the workbench they borrow.
  std::unique_ptr<Workbench> wb_;
  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<MeshController> ctl_;
  std::unique_ptr<DynamicsEngine> dynamics_;
  std::unique_ptr<LiveSource> live_;
  std::vector<FlowSpec> flows_;
  RoundResult round_;
  double K_ = 0.0;
  double fw_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_live_testbed(std::uint64_t seed) {
  return std::make_unique<LiveTestbed>(seed);
}

}  // namespace meshbench
