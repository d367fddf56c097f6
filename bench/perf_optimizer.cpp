// The paper's Section 6.1 timings, as google-benchmark microbenchmarks:
//   * extreme-point computation (maximal-clique enumeration on the
//     complement graph): the paper's worst case was ~200 extreme points in
//     < 10 ms (BM_MaximalIndependentSets, BM_ExtremePointMatrix),
//   * the convex optimization, which Matlab solved in < 3 s: the rate-region
//     LP and the three objectives over it (BM_LpSolve, BM_MaxThroughputLp,
//     BM_ProportionalFairFrankWolfe, BM_MaxMinWaterfilling),
//   * the channel-loss estimator on a full probing window
//     (BM_ChannelLossEstimator),
// plus the per-plan floor of a warm Planner (BM_ServeBarePlanner).
// Whole rounds and their per-layer costs (event core, controller, replay,
// serving, pool) are measured by perfbench/run.py, with work counts.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/planner.h"
#include "estimation/loss_estimator.h"
#include "model/conflict_graph.h"
#include "model/feasibility.h"
#include "opt/network_optimizer.h"
#include "util/rng.h"

namespace meshopt {
namespace {

ConflictGraph random_conflicts(int links, double density, std::uint64_t seed) {
  ConflictGraph g(links);
  RngStream rng(seed, "bench-graph");
  for (int i = 0; i < links; ++i)
    for (int j = i + 1; j < links; ++j)
      if (rng.bernoulli(density)) g.add_conflict(i, j);
  return g;
}

void BM_MaximalIndependentSets(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  const ConflictGraph g = random_conflicts(links, 0.5, 42);
  std::size_t sets = 0;
  for (auto _ : state) {
    const auto mis = g.maximal_independent_sets();
    sets = mis.size();
    benchmark::DoNotOptimize(mis);
  }
  state.counters["sets"] = static_cast<double>(sets);
}
BENCHMARK(BM_MaximalIndependentSets)->Arg(12)->Arg(24)->Arg(40)->Arg(80);

// The model stage's Eq. 4 build: packed MIS rows, then the K x L
// DenseMatrix fill — no per-set vector<int> / per-point vector<double>.
void BM_ExtremePointMatrix(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  const ConflictGraph g = random_conflicts(links, 0.5, 43);
  std::vector<double> caps(static_cast<std::size_t>(links), 1e6);
  for (auto _ : state) {
    DenseMatrix pts;
    fill_extreme_point_matrix(caps, g.independent_set_rows(), pts);
    benchmark::DoNotOptimize(pts);
  }
}
BENCHMARK(BM_ExtremePointMatrix)->Arg(12)->Arg(24)->Arg(40)->Arg(80);

// ------------------------------------------------------------------- LP
// The paper's utility LP over K extreme points (Section 6.1), built with
// the LpProblem API. Shape matches NetworkOptimizer's base problem: L <=
// rows coupling flows to extreme points, one convex-weight equality,
// capacities normalized to ~1.
LpProblem rate_region_lp(int links, int flows, int points,
                         std::uint64_t seed) {
  RngStream rng(seed, "bench-lpK");
  LpProblem lp;
  lp.num_vars = flows + points;
  lp.objective.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
  for (int f = 0; f < flows; ++f)
    lp.objective[static_cast<std::size_t>(f)] = 1.0;

  // Routing: each flow crosses 1-4 random links.
  std::vector<std::vector<double>> routing(
      static_cast<std::size_t>(links),
      std::vector<double>(static_cast<std::size_t>(flows), 0.0));
  for (int f = 0; f < flows; ++f) {
    const int hops = rng.uniform_int(1, 4);
    for (int h = 0; h < hops; ++h)
      routing[static_cast<std::size_t>(rng.uniform_int(0, links - 1))]
             [static_cast<std::size_t>(f)] = 1.0;
  }
  // Extreme points: each point activates each link with probability 0.5
  // at a capacity in [0.3, 5] Mb/s; coefficients pre-normalized by 5e6.
  std::vector<std::vector<double>> pts(
      static_cast<std::size_t>(points),
      std::vector<double>(static_cast<std::size_t>(links), 0.0));
  for (auto& p : pts)
    for (auto& c : p)
      if (rng.bernoulli(0.5)) c = rng.uniform(0.3e6, 5e6) / 5e6;

  for (int l = 0; l < links; ++l) {
    std::vector<double> row(static_cast<std::size_t>(lp.num_vars), 0.0);
    for (int f = 0; f < flows; ++f)
      row[static_cast<std::size_t>(f)] =
          routing[static_cast<std::size_t>(l)][static_cast<std::size_t>(f)];
    for (int k = 0; k < points; ++k)
      row[static_cast<std::size_t>(flows + k)] =
          -pts[static_cast<std::size_t>(k)][static_cast<std::size_t>(l)];
    lp.add_constraint(row, Relation::kLe, 0.0);
  }
  std::vector<double> simplex_row(static_cast<std::size_t>(lp.num_vars), 0.0);
  for (int k = 0; k < points; ++k)
    simplex_row[static_cast<std::size_t>(flows + k)] = 1.0;
  lp.add_constraint(simplex_row, Relation::kEq, 1.0);
  for (int f = 0; f < flows; ++f) {
    // Cap every flow so degenerate routings stay bounded.
    std::vector<double> row(static_cast<std::size_t>(lp.num_vars), 0.0);
    row[static_cast<std::size_t>(f)] = 1.0;
    lp.add_constraint(row, Relation::kLe, 10.0);
  }
  return lp;
}

void BM_LpSolve(benchmark::State& state) {
  const int points = static_cast<int>(state.range(0));
  const LpProblem lp = rate_region_lp(24, 6, points, 51);
  double obj = 0.0;
  for (auto _ : state) {
    const auto sol = solve_lp(lp);
    obj = sol.objective;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["objective"] = obj;
}
BENCHMARK(BM_LpSolve)->Arg(40)->Arg(80)->Arg(160);

OptimizerInput testbed_scale_problem(int links, int flows, std::uint64_t seed) {
  OptimizerInput in;
  RngStream rng(seed, "bench-lp");
  const ConflictGraph g = random_conflicts(links, 0.5, seed);
  std::vector<double> caps;
  for (int l = 0; l < links; ++l) caps.push_back(rng.uniform(0.3e6, 5e6));
  fill_extreme_point_matrix(caps, g.independent_set_rows(), in.extreme_points);
  in.routing = DenseMatrix(links, flows);
  for (int f = 0; f < flows; ++f) {
    // Each flow crosses 1-4 random links.
    const int hops = rng.uniform_int(1, 4);
    for (int h = 0; h < hops; ++h)
      in.routing(rng.uniform_int(0, links - 1), f) = 1.0;
  }
  return in;
}

void BM_MaxThroughputLp(benchmark::State& state) {
  const auto in = testbed_scale_problem(24, 6, 44);
  for (auto _ : state) {
    const auto r = optimize_rates(in, {.objective = Objective::kMaxThroughput});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MaxThroughputLp);

void BM_ProportionalFairFrankWolfe(benchmark::State& state) {
  const auto in = testbed_scale_problem(24, 6, 45);
  for (auto _ : state) {
    const auto r =
        optimize_rates(in, {.objective = Objective::kProportionalFair});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ProportionalFairFrankWolfe);

void BM_MaxMinWaterfilling(benchmark::State& state) {
  const auto in = testbed_scale_problem(24, 6, 46);
  for (auto _ : state) {
    const auto r = optimize_rates(in, {.objective = Objective::kMaxMin});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MaxMinWaterfilling);

MeasurementSnapshot serve_bench_snapshot(int round) {
  constexpr int kLinks = 9;
  RngStream top(67, "bench-serve-top");
  RngStream cap(RngStream::mix(67, static_cast<std::uint64_t>(round)),
                "bench-serve-cap");
  MeasurementSnapshot snap;
  for (int i = 0; i < kLinks; ++i) {
    SnapshotLink l;
    l.src = i;
    l.dst = i + 1;
    l.rate = Rate::kR11Mbps;
    l.estimate.capacity_bps = cap.uniform(1.5e6, 5e6);
    l.estimate.p_link = 0.02;
    snap.links.push_back(l);
  }
  snap.lir.resize(kLinks, kLinks, 1.0);
  for (int i = 0; i < kLinks; ++i)
    for (int j = i + 1; j < kLinks; ++j)
      if (top.bernoulli(0.4)) snap.lir(i, j) = snap.lir(j, i) = 0.4;
  snap.lir_threshold = 0.95;
  return snap;
}

std::vector<FlowSpec> serve_bench_flows() {
  std::vector<FlowSpec> flows(3);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2, 3};
  flows[1].flow_id = 1;
  flows[1].path = {3, 4, 5};
  flows[2].flow_id = 2;
  flows[2].path = {6, 7, 8};
  return flows;
}

// A serve-shaped plan through a bare warm Planner: a 9-link chain with
// three flows and two alternating capacity draws, exact tier, two-hop
// model, no service, queues or metrics. This is the per-plan floor of the
// serving path; serve_2000's serve.tax measures the serving layer against
// a bare re-plan of its own rounds.
void BM_ServeBarePlanner(benchmark::State& state) {
  const std::vector<MeasurementSnapshot> trace = {serve_bench_snapshot(0),
                                                  serve_bench_snapshot(1)};
  const std::vector<FlowSpec> flows = serve_bench_flows();
  const PlanConfig cfg;
  Planner planner(4);
  std::int64_t plans = 0;
  for (auto _ : state) {
    const MeasurementSnapshot& snap =
        trace[static_cast<std::size_t>(plans) % trace.size()];
    const RatePlan plan =
        planner.plan(snap, InterferenceModelKind::kTwoHop, flows, cfg);
    benchmark::DoNotOptimize(plan);
    ++plans;
  }
  state.SetItemsProcessed(plans);
}
BENCHMARK(BM_ServeBarePlanner);

void BM_ChannelLossEstimator(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0));
  RngStream rng(47, "bench-est");
  std::vector<std::uint8_t> pattern(static_cast<std::size_t>(s));
  for (int i = 0; i < s; ++i) {
    const bool burst = (i / 60) % 4 == 0;
    pattern[static_cast<std::size_t>(i)] =
        rng.bernoulli(burst ? 0.9 : 0.07) ? 1 : 0;
  }
  for (auto _ : state) {
    const auto est = estimate_channel_loss(pattern);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_ChannelLossEstimator)->Arg(200)->Arg(640)->Arg(1280);

}  // namespace
}  // namespace meshopt

BENCHMARK_MAIN();
