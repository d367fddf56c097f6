// Planner / topology-keyed model cache tests: fingerprint stability across
// capacity-only changes (and sensitivity to any neighbor/LIR edit), cache
// hit/miss/eviction accounting, NaN and signed-zero LIR keys,
// cached-vs-uncached model and plan bit-identity on the live and replay
// paths, trace-segment sharding bit-identity, the two-stage build
// equivalence, and the routing of PlanConfig::decompose rounds.

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/interference.h"
#include "core/planner.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "model/feasibility.h"
#include "obs/obs.h"
#include "opt/decompose.h"
#include "probe/live_source.h"
#include "scenario/topologies.h"
#include "scenario/workbench.h"
#include "sweep/controller_fleet.h"
#include "util/rng.h"

namespace meshopt {
namespace {

/// A small hand-built snapshot: 3 links of a chain plus a cross link.
MeasurementSnapshot chain_snapshot() {
  MeasurementSnapshot snap;
  const NodeId hops[][2] = {{0, 1}, {1, 2}, {3, 2}};
  for (const auto& h : hops) {
    SnapshotLink l;
    l.src = h[0];
    l.dst = h[1];
    l.rate = Rate::kR11Mbps;
    l.estimate.p_data = 0.05;
    l.estimate.p_ack = 0.01;
    l.estimate.p_link = 0.02;
    l.estimate.capacity_bps = 4.2e6;
    snap.links.push_back(l);
  }
  snap.neighbors = {{0, 1}, {1, 2}, {1, 3}, {2, 3}};
  return snap;
}

/// A larger randomized LIR snapshot (so the conflict graph is non-trivial).
MeasurementSnapshot lir_snapshot(int links, std::uint64_t seed) {
  MeasurementSnapshot snap;
  RngStream rng(seed, "planner-lir");
  for (int i = 0; i < links; ++i) {
    SnapshotLink l;
    l.src = i;
    l.dst = i + 1;
    l.rate = Rate::kR11Mbps;
    l.estimate.capacity_bps = rng.uniform(0.5e6, 5e6);
    l.estimate.p_link = rng.uniform(0.0, 0.2);
    snap.links.push_back(l);
  }
  snap.lir.resize(links, links, 1.0);
  for (int i = 0; i < links; ++i)
    for (int j = i + 1; j < links; ++j)
      if (rng.bernoulli(0.5)) snap.lir(i, j) = snap.lir(j, i) = 0.4;
  snap.lir_threshold = 0.95;
  return snap;
}

TEST(TopologyFingerprint, StableAcrossCapacityOnlyChanges) {
  MeasurementSnapshot snap = chain_snapshot();
  const std::uint64_t base = snap.topology_fingerprint();

  // Capacity/loss estimates and retry limits feed the capacity and plan
  // stages, not the conflict graph: the fingerprint must not move.
  snap.links[0].estimate.capacity_bps *= 0.5;
  snap.links[1].estimate.p_data = 0.9;
  snap.links[2].estimate.p_link = 0.7;
  snap.links[0].retry_limit = 3;
  EXPECT_EQ(snap.topology_fingerprint(), base);
}

TEST(TopologyFingerprint, ChangesOnAnyTopologyEdit) {
  const MeasurementSnapshot base = chain_snapshot();
  const std::uint64_t fp = base.topology_fingerprint();

  {  // neighbor edit
    MeasurementSnapshot s = base;
    s.neighbors.pop_back();
    EXPECT_NE(s.topology_fingerprint(), fp);
  }
  {  // link added
    MeasurementSnapshot s = base;
    SnapshotLink l = s.links.back();
    l.src = 2;
    l.dst = 1;
    s.links.push_back(l);
    EXPECT_NE(s.topology_fingerprint(), fp);
  }
  {  // link endpoint edit
    MeasurementSnapshot s = base;
    s.links[0].dst = 3;
    EXPECT_NE(s.topology_fingerprint(), fp);
  }
  {  // rate edit (part of the link identity)
    MeasurementSnapshot s = base;
    s.links[0].rate = Rate::kR1Mbps;
    EXPECT_NE(s.topology_fingerprint(), fp);
  }
  {  // LIR table appears
    MeasurementSnapshot s = base;
    s.lir.resize(3, 3, 1.0);
    EXPECT_NE(s.topology_fingerprint(), fp);
  }
  {  // LIR threshold moves (even by one ulp-scale nudge)
    MeasurementSnapshot s = base;
    s.lir_threshold = 0.95 + 1e-12;
    EXPECT_NE(s.topology_fingerprint(), fp);
  }
  {  // a single LIR cell edit
    MeasurementSnapshot a = lir_snapshot(12, 7);
    MeasurementSnapshot b = a;
    b.lir(2, 5) = b.lir(2, 5) * 0.5;
    EXPECT_NE(a.topology_fingerprint(), b.topology_fingerprint());
  }
}

TEST(Planner, TwoStageBuildMatchesOneShot) {
  for (const MeasurementSnapshot& snap :
       {chain_snapshot(), lir_snapshot(20, 11)}) {
    for (const InterferenceModelKind kind :
         {InterferenceModelKind::kTwoHop, InterferenceModelKind::kLirTable}) {
      const InterferenceModel one_shot = InterferenceModel::build(snap, kind);
      const InterferenceTopology topo =
          InterferenceModel::build_topology(snap, kind);
      const InterferenceModel staged =
          InterferenceModel::from_topology(topo, snap.capacities());
      EXPECT_EQ(staged.kind(), one_shot.kind());
      EXPECT_EQ(staged.extreme_points(), one_shot.extreme_points());
      // And the rows really carry the enumeration: refilling with fresh
      // capacities matches a fresh one-shot build over those capacities.
      MeasurementSnapshot drifted = snap;
      for (SnapshotLink& l : drifted.links) l.estimate.capacity_bps *= 0.75;
      const InterferenceModel refreshed =
          InterferenceModel::from_topology(topo, drifted.capacities());
      EXPECT_EQ(refreshed.extreme_points(),
                InterferenceModel::build(drifted, kind).extreme_points());
    }
  }
}

TEST(Planner, CacheAccountingHitsMissesEvictions) {
  Planner planner(2);
  MeasurementSnapshot snap = lir_snapshot(10, 3);

  (void)planner.model(snap, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().misses, 1u);
  EXPECT_EQ(planner.stats().hits, 0u);

  // Capacity-only drift: same fingerprint, cache hit.
  snap.links[0].estimate.capacity_bps *= 2.0;
  (void)planner.model(snap, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().hits, 1u);
  EXPECT_EQ(planner.stats().misses, 1u);

  // A different requested kind is a different cache key.
  (void)planner.model(snap, InterferenceModelKind::kTwoHop);
  EXPECT_EQ(planner.stats().misses, 2u);
  EXPECT_EQ(planner.cached_topologies(), 2u);

  // Topology edit: miss, and with capacity 2 the LRU victim (the stale
  // LIR entry, least recently used) is evicted.
  MeasurementSnapshot edited = snap;
  edited.lir(0, 5) = 0.1;
  (void)planner.model(edited, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().misses, 3u);
  EXPECT_EQ(planner.stats().evictions, 1u);
  EXPECT_EQ(planner.cached_topologies(), 2u);

  // The evicted topology re-misses; the surviving one still hits.
  (void)planner.model(edited, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().hits, 2u);

  planner.clear();
  EXPECT_EQ(planner.stats().hits, 0u);
  EXPECT_EQ(planner.cached_topologies(), 0u);

  // Capacity 0 disables storage entirely: every call is a miss.
  Planner uncached(0);
  (void)uncached.model(snap, InterferenceModelKind::kLirTable);
  (void)uncached.model(snap, InterferenceModelKind::kLirTable);
  EXPECT_EQ(uncached.stats().misses, 2u);
  EXPECT_EQ(uncached.stats().hits, 0u);
  EXPECT_EQ(uncached.cached_topologies(), 0u);
}

TEST(Planner, HitsNeedAnLirEqualInValueAndBits) {
  // A hit compares the LIR by value, so a NaN cell never matches (not even
  // itself), and bit for bit, so a zero of the other sign is another
  // topology, as it is to topology_fingerprint().
  Planner planner(4);
  TraceRecorder rec;
  planner.set_observer(&rec);
  MeasurementSnapshot nan_lir = lir_snapshot(10, 5);
  nan_lir.lir(1, 2) = std::numeric_limits<double>::quiet_NaN();
  (void)planner.model(nan_lir, InterferenceModelKind::kLirTable);
  (void)planner.model(nan_lir, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().hits, 0u);
  EXPECT_EQ(planner.stats().misses, 2u);
  EXPECT_EQ(planner.cached_topologies(), 2u);

  MeasurementSnapshot pos = lir_snapshot(10, 5);
  pos.lir(3, 4) = 0.0;
  MeasurementSnapshot neg = pos;
  neg.lir(3, 4) = -0.0;
  ASSERT_NE(pos.topology_fingerprint(), neg.topology_fingerprint());
  (void)planner.model(pos, InterferenceModelKind::kLirTable);
  (void)planner.model(neg, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().hits, 0u);
  EXPECT_EQ(planner.stats().misses, 4u);
  EXPECT_EQ(planner.cached_topologies(), 4u);
  (void)planner.model(neg, InterferenceModelKind::kLirTable);
  (void)planner.model(pos, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().hits, 2u);
  EXPECT_EQ(planner.stats().misses, 4u);
  EXPECT_EQ(planner.stats().evictions, 0u);

  // Each hit record carries the fingerprint of the snapshot it served.
  std::vector<std::uint64_t> hit_fps;
  for (const ObsRecord& r : rec.canonical_records())
    if (r.code == ObsCode::kCacheHit) hit_fps.push_back(r.a);
  EXPECT_EQ(hit_fps, (std::vector<std::uint64_t>{neg.topology_fingerprint(),
                                                 pos.topology_fingerprint()}));
}

TEST(Planner, UncacheableBuildsAreNotCacheMisses) {
  // Regression: model(cacheable=false) — the repaired-snapshot path —
  // used to charge a cache miss even though the cache was barred from
  // storing the entry. Uncacheable builds get their own counter; a miss
  // means the cache could actually have held the model.
  Planner planner(4);
  const MeasurementSnapshot snap = lir_snapshot(10, 3);

  (void)planner.model(snap, InterferenceModelKind::kLirTable, 200000,
                      /*cacheable=*/false);
  EXPECT_EQ(planner.stats().uncacheable_plans, 1u);
  EXPECT_EQ(planner.stats().misses, 0u);
  EXPECT_EQ(planner.stats().hits, 0u);
  EXPECT_EQ(planner.cached_topologies(), 0u);  // nothing was stored

  // The first cacheable call is a genuine miss (and stores the entry).
  (void)planner.model(snap, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().misses, 1u);
  EXPECT_EQ(planner.cached_topologies(), 1u);

  // With the entry resident, an uncacheable call may still read it: a
  // hit, and the uncacheable counter does not move.
  (void)planner.model(snap, InterferenceModelKind::kLirTable, 200000,
                      /*cacheable=*/false);
  EXPECT_EQ(planner.stats().hits, 1u);
  EXPECT_EQ(planner.stats().uncacheable_plans, 1u);
  EXPECT_EQ(planner.stats().misses, 1u);

  // A cache with zero capacity asked for a cacheable build still charges
  // a miss — the caller allowed caching, the capacity said no.
  Planner uncached(0);
  (void)uncached.model(snap, InterferenceModelKind::kLirTable);
  EXPECT_EQ(uncached.stats().misses, 1u);
  EXPECT_EQ(uncached.stats().uncacheable_plans, 0u);
}

TEST(Planner, CachedModelAndPlanBitIdenticalToUncached) {
  // 12 rounds over two alternating topologies with per-round capacity
  // drift: the cached path must produce bit-identical models and plans to
  // fresh uncached builds, across hits, misses, and re-hits.
  const MeasurementSnapshot topo_a = lir_snapshot(16, 21);
  MeasurementSnapshot topo_b = topo_a;
  topo_b.lir(3, 9) = topo_b.lir(9, 3) = 0.2;

  std::vector<FlowSpec> flows(2);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2, 3};
  flows[1].flow_id = 1;
  flows[1].path = {8, 9, 10};
  PlanConfig cfg;
  cfg.optimizer.objective = Objective::kProportionalFair;

  Planner planner(4);
  RngStream rng(5, "drift");
  for (int r = 0; r < 12; ++r) {
    MeasurementSnapshot snap = (r / 3) % 2 == 0 ? topo_a : topo_b;
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= rng.uniform(0.8, 1.2);

    const InterferenceModel& cached =
        planner.model(snap, InterferenceModelKind::kLirTable);
    const InterferenceModel uncached =
        InterferenceModel::build(snap, InterferenceModelKind::kLirTable);
    ASSERT_EQ(cached.extreme_points(), uncached.extreme_points())
        << "round " << r;
    EXPECT_EQ(plan_rates(snap, cached, flows, cfg),
              plan_rates(snap, uncached, flows, cfg))
        << "round " << r;
    EXPECT_EQ(planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg),
              plan_rates(snap, uncached, flows, cfg))
        << "round " << r;
  }
  // Both topologies stayed resident: only the very first model() call of
  // each missed (the planner.plan call doubles the model() count per
  // round; all the extra calls hit).
  EXPECT_EQ(planner.stats().misses, 2u);
  EXPECT_EQ(planner.stats().hits, 12u * 2u - 2u);
}

ControllerConfig live_config() {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 40;
  cfg.optimizer.objective = Objective::kProportionalFair;
  return cfg;
}

void add_gateway_flows(Workbench& wb, MeshController& ctl) {
  ManagedFlow far;
  far.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
  far.path = {0, 1, 2};
  ctl.manage_flow(far);
  ManagedFlow near;
  near.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
  near.path = {3, 2};
  ctl.manage_flow(near);
}

TEST(Planner, LivePathCachedEqualsUncachedController) {
  // Two identical live controllers, one with the planner cache disabled:
  // every round's plan must be bit-identical, and the cached side must
  // actually have hit (static topology => one miss, then hits).
  auto run_side = [](std::size_t cache) {
    Workbench wb(311);
    build_gateway_chain(wb);
    ControllerConfig cfg = live_config();
    cfg.planner_cache = cache;
    MeshController ctl(wb.net(), cfg, 311);
    add_gateway_flows(wb, ctl);
    std::vector<RatePlan> plans;
    for (int r = 0; r < 5; ++r) {
      const RoundResult round = ctl.run_round(wb);
      EXPECT_TRUE(round.ok) << "round " << r;
      plans.push_back(ctl.last_plan());
    }
    const PlannerStats stats = ctl.planner().stats();
    return std::pair{plans, stats};
  };

  const auto [cached_plans, cached_stats] = run_side(4);
  const auto [uncached_plans, uncached_stats] = run_side(0);
  ASSERT_EQ(cached_plans.size(), uncached_plans.size());
  for (std::size_t r = 0; r < cached_plans.size(); ++r)
    EXPECT_EQ(cached_plans[r], uncached_plans[r]) << "round " << r;

  EXPECT_EQ(cached_stats.misses, 1u);
  EXPECT_EQ(cached_stats.hits, 4u);
  EXPECT_EQ(uncached_stats.misses, 5u);
  EXPECT_EQ(uncached_stats.hits, 0u);
}

std::vector<MeasurementSnapshot> record_gateway_trace(int rounds,
                                                      std::uint64_t seed) {
  Workbench wb(seed);
  build_gateway_chain(wb);
  MeshController ctl(wb.net(), live_config(), seed);
  add_gateway_flows(wb, ctl);
  std::vector<MeasurementSnapshot> trace;
  LiveSource live(wb, ctl, rounds);
  MeasurementSnapshot snap;
  while (live.next(snap)) trace.push_back(snap);
  return trace;
}

TEST(Planner, ReplayPathCachedEqualsManualUncachedWalk) {
  const std::vector<MeasurementSnapshot> trace = record_gateway_trace(6, 331);
  ASSERT_EQ(trace.size(), 6u);

  ReplayCell cell;
  cell.flows.resize(2);
  cell.flows[0].flow_id = 0;
  cell.flows[0].path = {0, 1, 2};
  cell.flows[1].flow_id = 1;
  cell.flows[1].path = {3, 2};
  cell.plan = live_config().plan();

  ControllerFleet fleet(2);
  const std::vector<ReplayResult> cached = fleet.replay({cell}, trace);
  ASSERT_EQ(cached.size(), 1u);
  ASSERT_EQ(cached[0].plans.size(), trace.size());
  EXPECT_TRUE(cached[0].ok);

  // Manual uncached reference walk.
  for (std::size_t r = 0; r < trace.size(); ++r) {
    const InterferenceModel model =
        InterferenceModel::build(trace[r], cell.interference);
    EXPECT_EQ(cached[0].plans[r],
              plan_rates(trace[r], model, cell.flows, cell.plan))
        << "round " << r;
  }
}

TEST(Planner, ShardedReplayBitIdenticalAndThreadIndependent) {
  const std::vector<MeasurementSnapshot> trace = record_gateway_trace(7, 337);
  ASSERT_EQ(trace.size(), 7u);

  std::vector<ReplayCell> cells;
  for (const Objective obj : {Objective::kProportionalFair,
                              Objective::kMaxThroughput}) {
    ReplayCell cell;
    cell.flows.resize(2);
    cell.flows[0].flow_id = 0;
    cell.flows[0].path = {0, 1, 2};
    cell.flows[1].flow_id = 1;
    cell.flows[1].path = {3, 2};
    cell.plan.optimizer.objective = obj;
    cells.push_back(std::move(cell));
  }

  ControllerFleet serial(1);
  ControllerFleet parallel(4);
  const auto unsharded = serial.replay(cells, trace);

  // Segment sizes that tile the 7 rounds unevenly (3+3+1), per round, and
  // longer than the trace — all must stitch to the identical result, on
  // one thread and on four.
  for (const int seg : {1, 3, 100}) {
    ReplayOptions opts;
    opts.segment_rounds = seg;
    const auto a = serial.replay(cells, trace, opts);
    const auto b = parallel.replay(cells, trace, opts);
    ASSERT_EQ(a.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      EXPECT_EQ(a[c].index, static_cast<int>(c));
      EXPECT_EQ(a[c].ok, unsharded[c].ok) << "seg " << seg;
      EXPECT_EQ(a[c].plans, unsharded[c].plans) << "seg " << seg;
      EXPECT_EQ(b[c].plans, unsharded[c].plans) << "seg " << seg;
    }
  }

  // Uncached replay (planner_cache = 0) is the same bits again.
  ReplayOptions uncached;
  uncached.planner_cache = 0;
  uncached.segment_rounds = 2;
  const auto raw = serial.replay(cells, trace, uncached);
  for (std::size_t c = 0; c < cells.size(); ++c)
    EXPECT_EQ(raw[c].plans, unsharded[c].plans);
}

TEST(Planner, RegionReusesModelExtremePoints) {
  // The FeasibilityRegion consumers' path: region() must wrap the model's
  // already-built matrix (no re-enumeration), so its points match the
  // one-shot build_extreme_point_matrix output exactly.
  const MeasurementSnapshot snap = lir_snapshot(14, 41);
  const InterferenceModel model =
      InterferenceModel::build(snap, InterferenceModelKind::kLirTable);
  const FeasibilityRegion region = model.region();
  EXPECT_EQ(region.points(), model.extreme_points());
  EXPECT_EQ(region.points(),
            build_extreme_point_matrix(snap.capacities(), model.conflicts()));
  // A plan's link load is feasible in its own region.
  std::vector<double> load(snap.links.size(), 0.0);
  EXPECT_TRUE(region.contains(load));
}

TEST(Planner, DecomposeRoutesConnectedRoundToMonolithicFallback) {
  // The chain's two-hop conflict graph is connected, so the decomposition
  // tier falls back to its monolithic planner. That planner must plan
  // without decomposing again, and give the decompose = false bits.
  const MeasurementSnapshot snap = chain_snapshot();
  std::vector<FlowSpec> flows(2);
  flows[0] = {0, {0, 1, 2}, false};
  flows[1] = {1, {3, 2}, false};
  PlanConfig cfg;
  Planner mono(4);
  const RatePlan reference =
      mono.plan(snap, InterferenceModelKind::kTwoHop, flows, cfg);
  ASSERT_TRUE(reference.ok);

  cfg.decompose = true;
  Planner planner(4);
  const RatePlan plan =
      planner.plan(snap, InterferenceModelKind::kTwoHop, flows, cfg);
  EXPECT_EQ(plan, reference);
  const DecomposeStats ds = planner.decompose_stats();
  EXPECT_EQ(ds.rounds, 1u);
  EXPECT_EQ(ds.fallback_rounds, 1u);
  EXPECT_EQ(ds.fallback_connected, 1u);
  EXPECT_EQ(ds.decomposed_rounds, 0u);
  // The fallback planner's miss shows in the aggregate snapshot only: the
  // planner's own LRU serves monolithic rounds.
  EXPECT_EQ(planner.stats().misses, 0u);
  EXPECT_EQ(planner.stats_snapshot().misses, 1u);
}

TEST(Planner, StatsSnapshotIsPureAndResetKeepsCacheResident) {
  const MeasurementSnapshot snap = lir_snapshot(12, 47);
  Planner planner(2);

  // Snapshotting must never disturb the counters (the serving layer diffs
  // two snapshots per metrics window, so a mutating read would corrupt
  // every window after the first).
  (void)planner.model(snap, InterferenceModelKind::kLirTable);
  (void)planner.model(snap, InterferenceModelKind::kLirTable);
  const PlannerStats before = planner.stats_snapshot();
  EXPECT_EQ(before.misses, 1u);
  EXPECT_EQ(before.hits, 1u);
  for (int i = 0; i < 3; ++i) {
    const PlannerStats again = planner.stats_snapshot();
    EXPECT_EQ(again.hits, before.hits);
    EXPECT_EQ(again.misses, before.misses);
    EXPECT_EQ(again.evictions, before.evictions);
    EXPECT_EQ(again.uncacheable_plans, before.uncacheable_plans);
  }
  // The snapshot is a value copy: further planner work moves the live
  // counters, not the copy.
  (void)planner.model(snap, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().hits, 2u);
  EXPECT_EQ(before.hits, 1u);

  // reset_stats zeroes the window but — unlike clear() — keeps the cache
  // resident: the next same-topology call is a HIT, not a re-enumeration.
  planner.reset_stats();
  EXPECT_EQ(planner.stats().hits, 0u);
  EXPECT_EQ(planner.stats().misses, 0u);
  EXPECT_EQ(planner.cached_topologies(), 1u);
  (void)planner.model(snap, InterferenceModelKind::kLirTable);
  EXPECT_EQ(planner.stats().hits, 1u);
  EXPECT_EQ(planner.stats().misses, 0u);
}

}  // namespace
}  // namespace meshopt
