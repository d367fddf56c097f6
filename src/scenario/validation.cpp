#include "scenario/validation.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "estimation/lir.h"
#include "model/feasibility.h"
#include "opt/network_optimizer.h"
#include "routing/ett.h"
#include "transport/udp.h"

namespace meshopt {

namespace {

/// Select flow paths on the testbed via ETT routing: spread sources and
/// destinations across clusters so that paths have 1..max_hops hops.
std::vector<std::vector<NodeId>> pick_flows(Workbench& wb, Testbed& tb,
                                            const ValidationConfig& cfg) {
  // Routing database from true link qualities (route initialization, as
  // the paper does with ETT before fixing routes).
  TopologyDb db;
  const auto& err = wb.channel().error_model();
  for (const LinkRef& l : tb.usable_links(cfg.rate)) {
    LinkState ls;
    ls.src = l.src;
    ls.dst = l.dst;
    ls.rate = cfg.rate;
    ls.p_fwd = err.per(l.src, l.dst, cfg.rate, FrameType::kData);
    ls.p_rev = err.per(l.dst, l.src, Rate::kR1Mbps, FrameType::kAck);
    db.update_link(ls);
  }

  RngStream rng(cfg.seed, "flow-pick");
  std::vector<std::vector<NodeId>> flows;
  std::set<std::pair<NodeId, NodeId>> used;
  int guard = 0;
  while (static_cast<int>(flows.size()) < cfg.num_flows && ++guard < 400) {
    const NodeId src = rng.uniform_int(0, wb.net().node_count() - 1);
    const NodeId dst = rng.uniform_int(0, wb.net().node_count() - 1);
    if (src == dst || used.contains({src, dst})) continue;
    const auto path = db.shortest_path(src, dst);
    if (path.size() < 2 ||
        path.size() > static_cast<std::size_t>(cfg.max_hops) + 1)
      continue;
    // Prefer multi-hop flows: accept 1-hop only occasionally.
    if (path.size() == 2 && !rng.bernoulli(0.3)) continue;
    used.insert({src, dst});
    flows.push_back(path);
  }
  return flows;
}

}  // namespace

ValidationRun run_network_validation(const ValidationConfig& cfg) {
  ValidationRun run;
  Workbench wb(cfg.seed);
  Testbed tb(wb, TestbedConfig{.seed = cfg.seed});

  const auto paths = pick_flows(wb, tb, cfg);
  if (paths.empty()) return run;

  // Links under management = union of path hops.
  std::vector<LinkRef> links;
  auto link_index = [&](NodeId a, NodeId b) {
    for (std::size_t i = 0; i < links.size(); ++i)
      if (links[i].src == a && links[i].dst == b) return static_cast<int>(i);
    return -1;
  };
  for (const auto& path : paths) {
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (link_index(path[h], path[h + 1]) < 0)
        links.push_back(LinkRef{path[h], path[h + 1], cfg.rate});
    }
  }
  run.num_links = static_cast<int>(links.size());

  // Phase 1a: primary extreme points (per-link maxUDP alone) + UDP loss.
  std::vector<double> capacities(links.size(), 0.0);
  std::vector<double> udp_loss(links.size(), 0.0);
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto m =
        wb.measure_backlogged_outputs({links[i]}, cfg.alone_duration_s);
    capacities[i] = m[0].throughput_bps;
    udp_loss[i] = m[0].loss_rate;
  }

  // Phase 1b: interference model.
  ConflictGraph conflicts(static_cast<int>(links.size()));
  if (cfg.interference == InterferenceModelKind::kLirTable) {
    for (std::size_t i = 0; i < links.size(); ++i) {
      for (std::size_t j = i + 1; j < links.size(); ++j) {
        // Links sharing a node are trivially mutually exclusive.
        const bool share = links[i].src == links[j].src ||
                           links[i].src == links[j].dst ||
                           links[i].dst == links[j].src ||
                           links[i].dst == links[j].dst;
        if (share) {
          conflicts.add_conflict(static_cast<int>(i), static_cast<int>(j));
          continue;
        }
        const auto both = wb.measure_backlogged(
            {links[i], links[j]}, cfg.alone_duration_s);
        const double lir =
            (both[0] + both[1]) /
            std::max(capacities[i] + capacities[j], 1.0);
        if (lir < cfg.lir_threshold)
          conflicts.add_conflict(static_cast<int>(i), static_cast<int>(j));
      }
    }
  } else {
    conflicts = build_two_hop_conflict_graph(
        links, [&](NodeId a, NodeId b) { return tb.neighbors(a, b); });
  }

  // Phase 2: optimize proportional-fair targets.
  OptimizerInput in;
  fill_extreme_point_matrix(capacities, conflicts.independent_set_rows(),
                            in.extreme_points);
  in.routing = DenseMatrix(static_cast<int>(links.size()),
                           static_cast<int>(paths.size()));
  for (std::size_t s = 0; s < paths.size(); ++s) {
    for (std::size_t h = 0; h + 1 < paths[s].size(); ++h) {
      const int li = link_index(paths[s][h], paths[s][h + 1]);
      if (li >= 0) in.routing(li, static_cast<int>(s)) = 1.0;
    }
  }
  OptimizerConfig oc;
  oc.objective = Objective::kProportionalFair;
  const OptimizerResult opt = optimize_rates(in, oc);
  if (!opt.ok) return run;
  run.extreme_points = in.extreme_points.rows();

  // x_s = y_s / (1 - p_s), path loss composed from UDP-level link losses.
  std::vector<double> inputs(paths.size(), 0.0);
  for (std::size_t s = 0; s < paths.size(); ++s) {
    double deliver = 1.0;
    for (std::size_t h = 0; h + 1 < paths[s].size(); ++h) {
      const int li = link_index(paths[s][h], paths[s][h + 1]);
      if (li >= 0)
        deliver *= 1.0 - udp_loss[static_cast<std::size_t>(li)];
    }
    inputs[s] = opt.y[s] / std::max(deliver, 0.05);
  }

  // Phase 3: inject the rate vector (and the scaled versions) and measure.
  auto inject = [&](double scale) {
    std::vector<std::unique_ptr<UdpSource>> sources;
    std::vector<int> flow_ids;
    for (std::size_t s = 0; s < paths.size(); ++s) {
      wb.net().set_path_routes(paths[s], cfg.rate);
      const int flow = wb.net().open_flow(paths[s].front(), paths[s].back(),
                                          Protocol::kUdp, 1470);
      flow_ids.push_back(flow);
      sources.push_back(std::make_unique<UdpSource>(
          wb.net(), flow, UdpMode::kCbr, inputs[s] * scale,
          RngStream(cfg.seed, "inj-" + std::to_string(s) + "-" +
                                  std::to_string(scale))));
    }
    for (auto& src : sources) src->start();
    wb.run_for(1.0);
    wb.net().reset_flow_counters();
    wb.run_for(cfg.measure_duration_s);
    std::vector<double> achieved;
    for (int f : flow_ids)
      achieved.push_back(wb.net().flow(f).throughput_bps(
          cfg.measure_duration_s));
    for (auto& src : sources) src->stop();
    wb.run_for(0.3);
    return achieved;
  };

  const auto base = inject(1.0);
  std::vector<std::vector<double>> scaled;
  for (double s : cfg.scales) scaled.push_back(inject(s));

  for (std::size_t s = 0; s < paths.size(); ++s) {
    ValidationFlowResult row;
    row.path = paths[s];
    row.estimated_bps = opt.y[s];
    row.input_bps = inputs[s];
    row.achieved_bps = base[s];
    for (std::size_t k = 0; k < cfg.scales.size(); ++k)
      row.scaled_achieved_bps.push_back(scaled[k][s]);
    run.flows.push_back(std::move(row));
  }
  run.ok = true;
  return run;
}

}  // namespace meshopt
