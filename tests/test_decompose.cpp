// Differential and regression tests of the decomposition tier
// (opt/decompose.h): on separable instances the decomposed plan must match
// the monolithic plan in objective (<= 1e-9 relative) and active-flow
// support, for all four objectives and both plan tiers; decomposed output
// must be bit-identical across pool thread counts and repeated runs; and
// per-component cache keys must keep unchurned components' planner entries
// hot when one gateway cluster's measurements move.

#include "opt/decompose.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "scenario/topologies.h"
#include "serve/plan_service.h"
#include "sweep/controller_fleet.h"

namespace meshopt {
namespace {

CityParams small_city() {
  CityParams p;
  p.clusters = 3;
  p.links_per_cluster = 5;
  p.bridge_links = 2;
  p.flows_per_cluster = 2;
  p.seed = 7;
  return p;
}

CityParams medium_city() {
  CityParams p;  // 4 x 12 + 3 bridges = 51 links, 7 components
  p.seed = 11;
  return p;
}

PlanConfig plan_config(Objective objective, PlanTier tier) {
  PlanConfig cfg;
  cfg.optimizer.objective = objective;
  cfg.optimizer.alpha = 2.0;  // read by kAlphaFair only
  cfg.tier = tier;
  return cfg;
}

std::vector<bool> support_of(const std::vector<double>& y) {
  double max_y = 0.0;
  for (double v : y) max_y = std::max(max_y, v);
  std::vector<bool> s(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) s[i] = y[i] > 1e-6 * max_y;
  return s;
}

struct TierCase {
  Objective objective;
  PlanTier tier;
};

class DecomposeDifferential : public ::testing::TestWithParam<TierCase> {};

TEST_P(DecomposeDifferential, MatchesMonolithicOnSeparableCity) {
  const CityParams p = small_city();
  const MeasurementSnapshot snap = build_city_snapshot(p);
  const std::vector<FlowSpec> flows = city_flows(p);
  const PlanConfig cfg = plan_config(GetParam().objective, GetParam().tier);

  Planner mono(8);
  const RatePlan reference =
      mono.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
  ASSERT_TRUE(reference.ok);

  DecomposedPlanner decomposed;
  const RatePlan plan =
      decomposed.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
  ASSERT_TRUE(plan.ok);
  EXPECT_EQ(decomposed.stats().decomposed_rounds, 1u);
  EXPECT_EQ(decomposed.stats().fallback_rounds, 0u);
  // 3 cluster components are active; the 2 bridge singletons carry no
  // flows and are skipped.
  EXPECT_EQ(decomposed.stats().components_planned, 3u);
  EXPECT_EQ(decomposed.partition().count(), 5);

  EXPECT_NEAR(plan.objective_value, reference.objective_value,
              1e-9 * (std::abs(reference.objective_value) + 1.0));
  ASSERT_EQ(plan.y.size(), reference.y.size());
  EXPECT_EQ(support_of(plan.y), support_of(reference.y));
  EXPECT_EQ(plan.tier, reference.tier);
}

INSTANTIATE_TEST_SUITE_P(
    AllObjectivesBothTiers, DecomposeDifferential,
    ::testing::Values(
        TierCase{Objective::kMaxThroughput, PlanTier::kExact},
        TierCase{Objective::kMaxThroughput, PlanTier::kFast},
        TierCase{Objective::kMaxMin, PlanTier::kExact},
        TierCase{Objective::kMaxMin, PlanTier::kFast},
        TierCase{Objective::kProportionalFair, PlanTier::kExact},
        TierCase{Objective::kProportionalFair, PlanTier::kFast},
        TierCase{Objective::kAlphaFair, PlanTier::kExact},
        TierCase{Objective::kAlphaFair, PlanTier::kFast}));

TEST(Decompose, TwoHopModelAlsoSeparates) {
  // The city's neighbor relation only joins each link's own endpoints, so
  // the two-hop graph separates along the same cluster boundaries.
  const CityParams p = small_city();
  const MeasurementSnapshot snap = build_city_snapshot(p);
  const std::vector<FlowSpec> flows = city_flows(p);
  const PlanConfig cfg =
      plan_config(Objective::kProportionalFair, PlanTier::kFast);

  Planner mono(8);
  const RatePlan reference =
      mono.plan(snap, InterferenceModelKind::kTwoHop, flows, cfg);
  DecomposedPlanner decomposed;
  const RatePlan plan =
      decomposed.plan(snap, InterferenceModelKind::kTwoHop, flows, cfg);
  ASSERT_TRUE(reference.ok);
  ASSERT_TRUE(plan.ok);
  EXPECT_EQ(decomposed.stats().decomposed_rounds, 1u);
  EXPECT_NEAR(plan.objective_value, reference.objective_value,
              1e-9 * (std::abs(reference.objective_value) + 1.0));
}

TEST(Decompose, BitIdenticalAcrossPoolThreadCountsAndRuns) {
  const CityParams p = small_city();
  const std::vector<FlowSpec> flows = city_flows(p);
  const PlanConfig cfg =
      plan_config(Objective::kProportionalFair, PlanTier::kFast);

  // Three rounds with drifting capacities, planned by independent
  // planners whose pools differ only in thread count, plus two pool-less
  // planners: one called from this thread (it borrows the process-wide
  // pool) and one called from inside a pool job (it runs its components
  // serially). Every plan must be bit-identical (operator== covers y, x,
  // shapers, and all metadata).
  SweepRunner pool1(1);
  SweepRunner pool4(4);
  SweepRunner outer(4);
  DecomposedPlanner a(&pool1);
  DecomposedPlanner b(&pool4);
  DecomposedPlanner serial;  // no pool at all
  DecomposedPlanner nested;  // no pool, called from an outer pool job
  for (int r = 0; r < 3; ++r) {
    MeasurementSnapshot snap = build_city_snapshot(p);
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= 1.0 + 0.01 * r;
    const RatePlan pa = a.plan(snap, InterferenceModelKind::kLirTable, flows,
                               cfg);
    const RatePlan pb = b.plan(snap, InterferenceModelKind::kLirTable, flows,
                               cfg);
    const RatePlan ps = serial.plan(snap, InterferenceModelKind::kLirTable,
                                    flows, cfg);
    RatePlan pn;
    bool pn_in_job = false;
    outer.run_raw(2, /*master_seed=*/0, [&](const SweepJob& job) {
      if (job.index != 0) return;
      pn_in_job = SweepRunner::in_job();
      pn = nested.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
    });
    ASSERT_TRUE(pa.ok);
    EXPECT_TRUE(pn_in_job);
    EXPECT_EQ(pa, pb) << "round " << r;
    EXPECT_EQ(pa, ps) << "round " << r;
    EXPECT_EQ(pa, pn) << "round " << r;
  }
  EXPECT_EQ(a.stats().decomposed_rounds, 3u);
  EXPECT_EQ(a.stats().partition_rebuilds, 1u);
  EXPECT_EQ(a.stats().components_planned, 9u);  // 3 active comps x 3 rounds
}

TEST(Decompose, ConcurrentPoolLessPlannersMatchSingleThreaded) {
  // Two threads plan the medium city at the same time, each through its
  // own pool-less planner: their component phases take turns on the
  // process-wide pool. Both must equal a single-threaded planner round for
  // round.
  const CityParams p = medium_city();
  const std::vector<FlowSpec> flows = city_flows(p);
  const PlanConfig cfg =
      plan_config(Objective::kProportionalFair, PlanTier::kFast);
  constexpr int kRounds = 6;
  std::vector<MeasurementSnapshot> rounds;
  for (int r = 0; r < kRounds; ++r) {
    MeasurementSnapshot snap = build_city_snapshot(p);
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= 1.0 + 0.01 * r;
    rounds.push_back(std::move(snap));
  }

  SweepRunner pool1(1);
  DecomposedPlanner reference_planner(&pool1);
  std::vector<RatePlan> reference;
  for (const MeasurementSnapshot& snap : rounds)
    reference.push_back(reference_planner.plan(
        snap, InterferenceModelKind::kLirTable, flows, cfg));

  std::atomic<int> ready{0};
  const auto plan_all = [&](std::vector<RatePlan>& out) {
    DecomposedPlanner planner;
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (const MeasurementSnapshot& snap : rounds)
      out.push_back(
          planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg));
  };
  std::vector<RatePlan> first;
  std::vector<RatePlan> second;
  std::thread t1(plan_all, std::ref(first));
  std::thread t2(plan_all, std::ref(second));
  t1.join();
  t2.join();

  ASSERT_EQ(first.size(), reference.size());
  ASSERT_EQ(second.size(), reference.size());
  for (int r = 0; r < kRounds; ++r) {
    const auto i = static_cast<std::size_t>(r);
    ASSERT_TRUE(reference[i].ok) << "round " << r;
    EXPECT_EQ(first[i], reference[i]) << "round " << r;
    EXPECT_EQ(second[i], reference[i]) << "round " << r;
  }
}

TEST(Decompose, ComponentCachesStayHotUnderLocalChurn) {
  const CityParams p = medium_city();
  const std::vector<FlowSpec> flows = city_flows(p);
  const PlanConfig cfg =
      plan_config(Objective::kProportionalFair, PlanTier::kFast);
  MeasurementSnapshot snap = build_city_snapshot(p);

  DecomposedPlanner planner;
  ASSERT_TRUE(
      planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg).ok);
  for (int c = 0; c < p.clusters; ++c) {
    EXPECT_EQ(planner.component_planner_stats(c).misses, 1u) << c;
    EXPECT_EQ(planner.component_planner_stats(c).hits, 0u) << c;
  }

  // Capacity-only drift: every component's topology fingerprint is
  // unchanged, so every active slot hits.
  for (SnapshotLink& l : snap.links) l.estimate.capacity_bps *= 1.02;
  ASSERT_TRUE(
      planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg).ok);
  for (int c = 0; c < p.clusters; ++c)
    EXPECT_EQ(planner.component_planner_stats(c).hits, 1u) << c;

  // LIR churn inside cluster 0 only (values move, conflicts stay, so the
  // partition is unchanged): cluster 0's sub-fingerprint changes and its
  // slot misses; every other cluster's entry stays hot.
  const std::vector<int> churned = city_cluster_links(p, 0);
  const std::uint64_t fp1_before =
      snap.restrict_to(city_cluster_links(p, 1)).topology_fingerprint();
  for (int i : churned)
    for (int j : churned)
      if (i != j) snap.lir(i, j) = p.conflict_lir - 0.02;
  EXPECT_EQ(snap.restrict_to(city_cluster_links(p, 1)).topology_fingerprint(),
            fp1_before);
  ASSERT_TRUE(
      planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg).ok);
  EXPECT_EQ(planner.component_planner_stats(0).misses, 2u);
  EXPECT_EQ(planner.component_planner_stats(0).hits, 1u);
  for (int c = 1; c < p.clusters; ++c) {
    EXPECT_EQ(planner.component_planner_stats(c).misses, 1u) << c;
    EXPECT_EQ(planner.component_planner_stats(c).hits, 2u) << c;
  }
  EXPECT_EQ(planner.stats().partition_rebuilds, 1u);

  // Aggregated counters cover fallback + every slot.
  const PlannerStats total = planner.planner_stats_snapshot();
  EXPECT_EQ(total.misses, static_cast<std::uint64_t>(p.clusters) + 1u);
  EXPECT_EQ(total.hits, 2u * static_cast<std::uint64_t>(p.clusters) - 1u);
}

TEST(Decompose, ConnectedSnapshotFallsBackToMonolithic) {
  CityParams p = small_city();
  p.decompose_threshold_dbm = -90.0;  // below bridge RSS: one component
  const MeasurementSnapshot snap = build_city_snapshot(p);
  const std::vector<FlowSpec> flows = city_flows(p);
  const PlanConfig cfg = plan_config(Objective::kMaxMin, PlanTier::kExact);

  DecomposedPlanner decomposed;
  const RatePlan plan =
      decomposed.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
  EXPECT_EQ(decomposed.stats().fallback_rounds, 1u);
  EXPECT_EQ(decomposed.stats().fallback_connected, 1u);
  EXPECT_EQ(decomposed.stats().decomposed_rounds, 0u);

  Planner mono(8);
  const RatePlan reference =
      mono.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
  ASSERT_TRUE(reference.ok);
  EXPECT_EQ(plan, reference);  // the fallback IS the monolithic path
}

TEST(Decompose, CrossComponentFlowFallsBack) {
  const CityParams p = small_city();
  const MeasurementSnapshot snap = build_city_snapshot(p);
  std::vector<FlowSpec> flows = city_flows(p);
  // A flow whose hops touch links of clusters 0 AND 1 (the middle hop is
  // not a modeled link; the two outer hops are).
  FlowSpec straddler;
  straddler.flow_id = 999;
  const int npc = p.links_per_cluster + 1;
  straddler.path = {0, 1, npc, npc + 1};
  flows.push_back(straddler);

  DecomposedPlanner decomposed;
  const RatePlan plan = decomposed.plan(
      snap, InterferenceModelKind::kLirTable, flows,
      plan_config(Objective::kMaxThroughput, PlanTier::kExact));
  EXPECT_TRUE(plan.ok);  // planned, just monolithically
  EXPECT_EQ(decomposed.stats().fallback_cross_component, 1u);
  EXPECT_EQ(decomposed.stats().fallback_rounds, 1u);

  // A flow crossing no modeled link at all also falls back (the safety
  // cap rows are global state no component owns).
  std::vector<FlowSpec> lost = city_flows(p);
  FlowSpec none;
  none.flow_id = 1000;
  none.path = {900, 901};
  lost.push_back(none);
  (void)decomposed.plan(snap, InterferenceModelKind::kLirTable, lost,
                        plan_config(Objective::kMaxThroughput,
                                    PlanTier::kExact));
  EXPECT_EQ(decomposed.stats().fallback_cross_component, 2u);
}

TEST(Decompose, DegenerateInputsFallBack) {
  const CityParams p = small_city();
  const MeasurementSnapshot snap = build_city_snapshot(p);
  DecomposedPlanner decomposed;
  const RatePlan plan = decomposed.plan(
      snap, InterferenceModelKind::kLirTable, {},
      plan_config(Objective::kMaxThroughput, PlanTier::kExact));
  EXPECT_FALSE(plan.ok);
  EXPECT_EQ(decomposed.stats().fallback_degenerate, 1u);
}

TEST(Decompose, FleetReplayDecomposedMatchesMonolithic) {
  const CityParams p = small_city();
  const std::vector<FlowSpec> flows = city_flows(p);

  std::vector<MeasurementSnapshot> trace;
  for (int r = 0; r < 4; ++r) {
    MeasurementSnapshot snap = build_city_snapshot(p);
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= 1.0 + 0.005 * r;
    trace.push_back(std::move(snap));
  }

  ReplayCell cell;
  cell.flows = flows;
  cell.plan = plan_config(Objective::kProportionalFair, PlanTier::kFast);
  cell.interference = InterferenceModelKind::kLirTable;
  ReplayCell dec_cell = cell;
  dec_cell.plan.decompose = true;

  ControllerFleet fleet1(1);
  ControllerFleet fleet4(4);
  const auto mono = fleet1.replay({cell}, trace);
  const auto dec1 = fleet1.replay({dec_cell}, trace);
  const auto dec4 = fleet4.replay({dec_cell}, trace);
  ASSERT_TRUE(mono[0].ok);
  ASSERT_TRUE(dec1[0].ok);
  // Decomposed replay is bit-identical across fleet thread counts.
  EXPECT_EQ(dec1[0].plans, dec4[0].plans);
  ASSERT_EQ(dec1[0].plans.size(), mono[0].plans.size());
  for (std::size_t r = 0; r < mono[0].plans.size(); ++r) {
    EXPECT_NEAR(dec1[0].plans[r].objective_value,
                mono[0].plans[r].objective_value,
                1e-9 * (std::abs(mono[0].plans[r].objective_value) + 1.0))
        << "round " << r;
    EXPECT_EQ(support_of(dec1[0].plans[r].y), support_of(mono[0].plans[r].y))
        << "round " << r;
  }
}

TEST(Decompose, PlanServiceDecomposedTenant) {
  const CityParams p = small_city();
  const MeasurementSnapshot snap = build_city_snapshot(p);

  ServeConfig sc;
  sc.threads = 1;
  PlanService service(sc);
  TenantConfig mono;
  mono.flows = city_flows(p);
  mono.plan = plan_config(Objective::kMaxMin, PlanTier::kFast);
  mono.interference = InterferenceModelKind::kLirTable;
  TenantConfig dec = mono;
  dec.plan.decompose = true;
  const std::uint32_t t_mono = service.add_tenant(mono);
  const std::uint32_t t_dec = service.add_tenant(dec);

  for (int r = 0; r < 2; ++r) {
    ASSERT_TRUE(submit_accepted(service.submit(t_mono, snap, r).status));
    ASSERT_TRUE(submit_accepted(service.submit(t_dec, snap, r).status));
    const ServeBatchReport batch = service.run_batch(r);
    ASSERT_EQ(batch.served.size(), 2u);
  }

  const RatePlan& a = service.last_plan(t_mono);
  const RatePlan& b = service.last_plan(t_dec);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_NEAR(b.objective_value, a.objective_value,
              1e-9 * (std::abs(a.objective_value) + 1.0));

  const TenantCounters& tc = service.metrics().tenant(t_dec);
  EXPECT_EQ(tc.decomposed_rounds, 2u);
  EXPECT_EQ(tc.components_planned, 6u);  // 3 active comps x 2 rounds
  EXPECT_GT(tc.cache_hits, 0u);          // round 2 hit every active slot
  const TenantCounters& mc = service.metrics().tenant(t_mono);
  EXPECT_EQ(mc.decomposed_rounds, 0u);
}

TEST(Decompose, ServeCacheCountersSurvivePartitionChange) {
  // Cache counters are cumulative, so a partition change that tears the
  // component slots down must not take their hits and misses with it.
  // Conflicts between clusters 0 and 1 merge them into one component:
  // the tenant goes from three active components to two and back.
  const CityParams p = small_city();
  const MeasurementSnapshot separable = build_city_snapshot(p);
  MeasurementSnapshot merged = separable;
  for (const int a : city_cluster_links(p, 0))
    for (const int b : city_cluster_links(p, 1))
      merged.lir(a, b) = merged.lir(b, a) = p.conflict_lir;

  ServeConfig sc;
  sc.threads = 1;
  PlanService service(sc);
  TenantConfig cfg;
  cfg.flows = city_flows(p);
  cfg.plan = plan_config(Objective::kMaxMin, PlanTier::kFast);
  cfg.plan.decompose = true;
  cfg.interference = InterferenceModelKind::kLirTable;
  const std::uint32_t t = service.add_tenant(cfg);

  const MeasurementSnapshot* rounds[] = {&separable, &separable, &merged,
                                         &separable};
  const std::uint64_t components[] = {3, 3, 2, 3};
  std::uint64_t planned = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(submit_accepted(service.submit(t, *rounds[r], r).status));
    ASSERT_TRUE(service.run_batch(r).served.at(0).plan.ok) << "round " << r;
    const TenantCounters& tc = service.metrics().tenant(t);
    planned += components[r];
    EXPECT_EQ(tc.components_planned, planned) << "round " << r;
    EXPECT_GE(tc.cache_hits, hits) << "round " << r;
    EXPECT_GE(tc.cache_misses, misses) << "round " << r;
    hits = tc.cache_hits;
    misses = tc.cache_misses;
  }
  // Every active slot misses on a fresh partition and hits on a repeat.
  EXPECT_EQ(misses, 3u + 2u + 3u);
  EXPECT_EQ(hits, 3u);
}

}  // namespace
}  // namespace meshopt
