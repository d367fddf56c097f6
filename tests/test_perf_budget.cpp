// Work-count budget (ctest -L perf-budget).
//
// Pins deterministic work counts — simplex pivots and master solves — on
// fixed seeds. Wall times on a shared host swing between runs of the same
// binary; these counts do not, so a change that makes the optimizer do
// more work fails here deterministically. The pinned values were recorded
// with the dense pivot kernel; the sparse elimination reproduces every
// pivot, so it must match them exactly (cheaper pivots, not fewer).

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/snapshot.h"
#include "model/conflict_graph.h"
#include "model/feasibility.h"
#include "opt/column_gen.h"
#include "opt/network_optimizer.h"
#include "scenario/topologies.h"
#include "util/rng.h"

namespace meshopt {
namespace {

/// Cluster 0 of the 50-link-per-cluster city (the replay benchmark's
/// clique component) with the cluster's own flows: a master wide enough
/// for the sparse pivot path.
struct CityCluster {
  MeasurementSnapshot sub;
  DenseMatrix routing;
};

CityCluster city_cluster() {
  CityParams p;
  p.links_per_cluster = 50;
  const MeasurementSnapshot city = build_city_snapshot(p);
  CityCluster c;
  c.sub = city.restrict_to(city_cluster_links(p, 0));
  std::vector<FlowSpec> flows = city_flows(p);
  flows.resize(static_cast<std::size_t>(p.flows_per_cluster));  // cluster 0
  c.routing = DenseMatrix(static_cast<int>(c.sub.links.size()),
                          static_cast<int>(flows.size()));
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const std::vector<NodeId>& path = flows[f].path;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const int l = c.sub.link_index(path[h], path[h + 1]);
      if (l >= 0) c.routing(l, static_cast<int>(f)) = 1.0;
    }
  }
  return c;
}

TEST(PerfBudget, CityClusterFastTierDriftRounds) {
  const CityCluster c = city_cluster();
  const ConflictGraph graph =
      build_lir_conflict_graph(c.sub.lir, c.sub.lir_threshold);
  const std::vector<double> base = c.sub.capacities();
  ColumnGenInput in;
  in.routing = c.routing;
  in.conflicts = &graph;
  OptimizerConfig cfg;
  cfg.objective = Objective::kProportionalFair;
  ColumnGenOptimizer cg(cfg);
  RngStream drift(1, "perf-budget-drift");
  for (int round = 0; round < 16; ++round) {
    in.capacities = base;
    for (double& cap : in.capacities) cap *= drift.uniform(0.95, 1.05);
    ASSERT_TRUE(cg.solve(in).ok) << "round " << round;
  }
  EXPECT_EQ(cg.stats().pivots, 5414u);
  EXPECT_EQ(cg.stats().master_solves, 183u);
}

TEST(PerfBudget, ExactTierProportionalFairSolve) {
  const CityCluster c = city_cluster();
  const ConflictGraph graph =
      build_lir_conflict_graph(c.sub.lir, c.sub.lir_threshold);
  OptimizerInput in;
  in.routing = c.routing;
  in.extreme_points = build_extreme_point_matrix(c.sub.capacities(), graph);
  OptimizerConfig cfg;
  cfg.objective = Objective::kProportionalFair;
  NetworkOptimizer opt(cfg);
  ASSERT_TRUE(opt.solve(in).ok);
  EXPECT_EQ(opt.pivots(), 338u);
}

}  // namespace
}  // namespace meshopt
