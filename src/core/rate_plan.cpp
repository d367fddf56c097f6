#include "core/rate_plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace meshopt {

RatePlan plan_rates(const MeasurementSnapshot& snapshot,
                    const InterferenceModel& model,
                    const std::vector<FlowSpec>& flows,
                    const PlanConfig& cfg) {
  return plan_rates(snapshot, model, flows, cfg, nullptr);
}

RatePlan plan_rates(const MeasurementSnapshot& snapshot,
                    const InterferenceModel& model,
                    const std::vector<FlowSpec>& flows, const PlanConfig& cfg,
                    ColumnGenOptimizer* warm) {
  RatePlan plan;
  if (flows.empty() || snapshot.links.empty() ||
      model.num_links() != static_cast<int>(snapshot.links.size())) {
    return plan;
  }

  const FlowHops hops(snapshot, flows);
  DenseMatrix routing(static_cast<int>(snapshot.links.size()),
                      static_cast<int>(flows.size()));
  for (std::size_t s = 0; s < flows.size(); ++s)
    for (const int l : hops[s])
      if (l >= 0) routing(l, static_cast<int>(s)) = 1.0;

  OptimizerResult opt;
  if (cfg.tier == PlanTier::kFast) {
    // Fast tier: no K x L matrix is copied (or even read) — the rate
    // region enters through the conflict graph and per-link capacities,
    // and columns are priced in on demand.
    ColumnGenInput in;
    in.routing = std::move(routing);
    in.conflicts = &model.conflicts();
    in.capacities = snapshot.capacities();
    if (warm != nullptr) {
      warm->config() = cfg.optimizer;
      opt = warm->solve(in);
    } else {
      ColumnGenOptimizer cold(cfg.optimizer);
      opt = cold.solve(in);
    }
    plan.extreme_points = opt.columns_used;
  } else {
    OptimizerInput in;
    in.extreme_points = model.extreme_points();
    in.routing = std::move(routing);
    opt = optimize_rates(in, cfg.optimizer);
    plan.extreme_points = in.extreme_points.rows();
  }
  if (!opt.ok) return RatePlan{};

  plan.optimizer_iterations = opt.iterations;
  plan.tier = cfg.tier;
  plan.objective_value = opt.objective_value;
  plan.columns_generated = opt.columns_used;
  plan.pricing_rounds = opt.pricing_rounds;
  finish_plan(plan, snapshot, flows, hops, cfg, std::move(opt.y));
  return plan;
}

FlowHops::FlowHops(const MeasurementSnapshot& snapshot,
                   const std::vector<FlowSpec>& flows) {
  begin_.reserve(flows.size() + 1);
  begin_.push_back(0);
  std::size_t total = 0;
  for (const FlowSpec& f : flows)
    total += f.path.empty() ? 0 : f.path.size() - 1;
  link_.reserve(total);
  // One open-addressed (src, dst) -> link table per construction, at most
  // half full, instead of a scan of the links per hop. Its slots live per
  // thread, so a warm construction allocates nothing. A repeated key keeps
  // its first link, as MeasurementSnapshot::link_index finds it.
  thread_local std::vector<int> table;
  const int shift = 63 - std::bit_width(snapshot.links.size() | 7);
  table.assign(std::size_t{1} << (64 - shift), -1);
  const auto slot = [&snapshot, shift](NodeId src, NodeId dst) -> int& {
    const std::uint64_t key =
        (std::uint64_t{static_cast<std::uint32_t>(src)} << 32) |
        static_cast<std::uint32_t>(dst);
    std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift;
    while (table[i] >= 0) {
      const SnapshotLink& l =
          snapshot.links[static_cast<std::size_t>(table[i])];
      if (l.src == src && l.dst == dst) break;
      i = (i + 1) & (table.size() - 1);
    }
    return table[i];
  };
  for (std::size_t l = 0; l < snapshot.links.size(); ++l) {
    int& e = slot(snapshot.links[l].src, snapshot.links[l].dst);
    if (e < 0) e = static_cast<int>(l);
  }
  for (const FlowSpec& f : flows) {
    for (std::size_t h = 0; h + 1 < f.path.size(); ++h)
      link_.push_back(slot(f.path[h], f.path[h + 1]));
    begin_.push_back(link_.size());
  }
}

void finish_plan(RatePlan& plan, const MeasurementSnapshot& snapshot,
                 const std::vector<FlowSpec>& flows, const FlowHops& hops,
                 const PlanConfig& cfg, std::vector<double> y) {
  plan.ok = true;
  plan.y = std::move(y);
  plan.x.assign(flows.size(), 0.0);
  plan.shapers.clear();
  plan.shapers.reserve(flows.size());
  for (std::size_t s = 0; s < flows.size(); ++s) {
    const FlowSpec& f = flows[s];
    // Residual network-layer loss after MAC retries: p_net = p_link^R.
    double deliver = 1.0;
    for (const int li : hops[s]) {
      if (li < 0) continue;
      const SnapshotLink& link = snapshot.links[static_cast<std::size_t>(li)];
      deliver *= 1.0 - std::pow(link.estimate.p_link, link.retry_limit);
    }
    double x = plan.y[s] / std::max(deliver, 1e-3);
    if (f.is_tcp) x *= tcp_ack_airtime_factor();
    x *= cfg.headroom;
    plan.x[s] = x;
    plan.shapers.push_back(ShaperProgram{f.flow_id, x});
  }
}

}  // namespace meshopt
