// Example: fairness-objective sweep on the 18-node synthetic testbed —
// the "community mesh" use case from the paper's introduction: the same
// online model supports a whole family of throughput/fairness tradeoffs.
//
//   $ ./example_community_mesh
//
// Builds the testbed, picks multi-hop UDP flows by ETT routing, and runs
// the optimizer under max-throughput, alpha-fair (several alpha) and
// max-min objectives, printing the per-flow allocations, aggregate, and
// Jain fairness index for each.

#include <cstdio>
#include <vector>

#include "model/feasibility.h"
#include "opt/network_optimizer.h"
#include "routing/ett.h"
#include "scenario/testbed.h"
#include "scenario/workbench.h"
#include "util/stats.h"

using namespace meshopt;

int main() {
  Workbench wb(9);
  Testbed tb(wb, TestbedConfig{.seed = 9});

  // Route three multi-hop flows via ETT over the true link qualities.
  TopologyDb db;
  const auto& err = wb.channel().error_model();
  for (const LinkRef& l : tb.usable_links(Rate::kR11Mbps)) {
    LinkState ls;
    ls.src = l.src;
    ls.dst = l.dst;
    ls.rate = Rate::kR11Mbps;
    ls.p_fwd = err.per(l.src, l.dst, Rate::kR11Mbps, FrameType::kData);
    ls.p_rev = err.per(l.dst, l.src, Rate::kR1Mbps, FrameType::kAck);
    db.update_link(ls);
  }
  std::vector<std::vector<NodeId>> paths;
  RngStream rng(9, "flows");
  while (paths.size() < 4) {
    const NodeId s = rng.uniform_int(0, 17);
    const NodeId d = rng.uniform_int(0, 17);
    if (s == d) continue;
    const auto p = db.shortest_path(s, d);
    if (p.size() >= 3 && p.size() <= 5) paths.push_back(p);
  }

  // Links and measured capacities (primary extreme points).
  std::vector<LinkRef> links;
  auto link_index = [&](NodeId a, NodeId b) {
    for (std::size_t i = 0; i < links.size(); ++i)
      if (links[i].src == a && links[i].dst == b) return static_cast<int>(i);
    return -1;
  };
  for (const auto& p : paths)
    for (std::size_t h = 0; h + 1 < p.size(); ++h)
      if (link_index(p[h], p[h + 1]) < 0)
        links.push_back(LinkRef{p[h], p[h + 1], Rate::kR11Mbps});

  std::printf("flows:\n");
  for (const auto& p : paths) {
    std::printf("  ");
    for (std::size_t i = 0; i < p.size(); ++i)
      std::printf("%d%s", p[i], i + 1 < p.size() ? " -> " : "\n");
  }
  std::printf("%zu links under management\n\n", links.size());

  std::vector<double> capacities;
  for (const LinkRef& l : links)
    capacities.push_back(wb.measure_backlogged({l}, 4.0)[0]);

  OptimizerInput in;
  fill_extreme_point_matrix(
      capacities,
      build_two_hop_conflict_graph(
          links,
          [&](NodeId a, NodeId b) { return tb.neighbors(a, b); })
          .independent_set_rows(),
      in.extreme_points);
  in.routing = DenseMatrix(static_cast<int>(links.size()),
                           static_cast<int>(paths.size()));
  for (std::size_t s = 0; s < paths.size(); ++s)
    for (std::size_t h = 0; h + 1 < paths[s].size(); ++h) {
      const int li = link_index(paths[s][h], paths[s][h + 1]);
      if (li >= 0) in.routing(li, static_cast<int>(s)) = 1.0;
    }

  std::printf("%-22s", "objective");
  for (std::size_t s = 0; s < paths.size(); ++s)
    std::printf("  flow%zu kb/s", s);
  std::printf("   total     JFI\n");

  const auto report = [&](const char* name, const OptimizerConfig& cfg) {
    const OptimizerResult r = optimize_rates(in, cfg);
    if (!r.ok) return;
    std::printf("%-22s", name);
    double total = 0.0;
    for (double y : r.y) {
      std::printf("  %10.0f", y / 1e3);
      total += y;
    }
    std::printf("  %6.0f  %6.3f\n", total / 1e3, jain_fairness_index(r.y));
  };

  report("max throughput", {.objective = Objective::kMaxThroughput});
  report("alpha-fair a=0.5",
         {.objective = Objective::kAlphaFair, .alpha = 0.5});
  report("proportional (a=1)", {.objective = Objective::kProportionalFair});
  report("alpha-fair a=2", {.objective = Objective::kAlphaFair, .alpha = 2});
  report("alpha-fair a=4", {.objective = Objective::kAlphaFair, .alpha = 4});
  report("max-min", {.objective = Objective::kMaxMin});

  std::printf(
      "\nExpectation: aggregate falls and JFI rises monotonically from "
      "max-throughput toward max-min\n");
  return 0;
}
