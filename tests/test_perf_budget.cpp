// Work-count budget (ctest -L perf-budget).
//
// Pins deterministic work counts — simplex pivots, master solves, pricing
// rounds, MWIS nodes, Frank–Wolfe iterations and the simulator events of a
// probing window — on fixed seeds. Wall times on a shared host swing
// between runs of the same binary; these counts do not, so a change that
// makes the optimizer or the event core do more work fails here
// deterministically. The pinned values were recorded with the dense
// pivot kernel; the sparse elimination reproduces every pivot, so it must
// match them exactly (cheaper pivots, not fewer). Nor do they depend on
// the library's vector width: the serve-shaped pins hold for the default
// x86-64 target, -march=native, and -march=native capped at 128 bits.
// Heap allocations are a work count too: this binary replaces the global
// operator new with a counting one, which also tracks the live heap bytes.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <malloc.h>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/planner.h"
#include "core/snapshot.h"
#include "model/conflict_graph.h"
#include "model/feasibility.h"
#include "opt/column_gen.h"
#include "opt/decompose.h"
#include "opt/network_optimizer.h"
#include "probe/live_source.h"
#include "scenario/dynamics.h"
#include "scenario/topologies.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_heap_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* acquire(std::size_t bytes) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p != nullptr)
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t bytes) {
  if (void* p = acquire(bytes)) return p;
  throw std::bad_alloc();
}

// libstdc++ builds the nothrow form on the one above, but a sanitizer
// runtime supplies its own, which operator delete below must not free.
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  return acquire(bytes);
}

void operator delete(void* p) noexcept { release(p); }

void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace meshopt {
namespace {

std::uint64_t heap_allocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

/// Bytes currently held by operator new allocations.
std::int64_t live_heap_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

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
  // The cluster is a clique: every master is certified, none is priced
  // (183 pricing rounds and 8324 MWIS nodes while each master priced once).
  EXPECT_EQ(cg.stats().certified_masters, 183u);
  EXPECT_EQ(cg.stats().pricing_rounds, 0u);
  EXPECT_EQ(cg.stats().oracle_nodes, 0u);
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

OptimizerInput city_cluster_exact_input() {
  const CityCluster c = city_cluster();
  const ConflictGraph graph =
      build_lir_conflict_graph(c.sub.lir, c.sub.lir_threshold);
  OptimizerInput in;
  in.routing = c.routing;
  in.extreme_points = build_extreme_point_matrix(c.sub.capacities(), graph);
  return in;
}

TEST(PerfBudget, ExactTierMaxMinSolve) {
  OptimizerConfig cfg;
  cfg.objective = Objective::kMaxMin;
  NetworkOptimizer opt(cfg);
  ASSERT_TRUE(opt.solve(city_cluster_exact_input()).ok);
  EXPECT_EQ(opt.pivots(), 281u);
}

TEST(PerfBudget, ExactTierAlphaFairSolve) {
  OptimizerConfig cfg;
  cfg.objective = Objective::kAlphaFair;
  cfg.alpha = 2.0;
  NetworkOptimizer opt(cfg);
  const OptimizerResult r = opt.solve(city_cluster_exact_input());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(opt.pivots(), 341u);
  EXPECT_EQ(r.iterations, 8);
}

/// Decomposed proportional-fairness rounds per tier over the whole
/// 50-link-per-cluster city: a cold round (component max-min starts, then
/// the joint Frank–Wolfe with one linear oracle per component), then a
/// warm one on drifted capacities, whose fast-tier oracles start from the
/// carried bases. Counts are cumulative after each round; the joint
/// Frank–Wolfe oracles take 238/473 of the pivots, the components'
/// water-filling the rest. Every city cluster is a clique, so each
/// fast-tier master is certified complete and none is priced (60/116
/// pricing rounds and 2792/5387 MWIS nodes while each master priced once).
TEST(PerfBudget, DecomposedCityProportionalFairRounds) {
  CityParams p;
  p.links_per_cluster = 50;
  const MeasurementSnapshot cold = build_city_snapshot(p);
  MeasurementSnapshot drifted = cold;
  RngStream drift(3, "perf-budget-city-drift");
  for (SnapshotLink& l : drifted.links)
    l.estimate.capacity_bps *= drift.uniform(0.95, 1.05);
  const MeasurementSnapshot* rounds[] = {&cold, &drifted};
  const std::vector<FlowSpec> flows = city_flows(p);
  struct Pin {
    PlanTier tier;
    std::vector<std::uint64_t> pivots;
    std::vector<std::uint64_t> oracle_pivots;
    std::vector<std::uint64_t> master_solves;
    std::vector<int> fw_iterations;
    std::vector<std::uint64_t> certified_masters;
    std::vector<std::uint64_t> pricing_rounds;
    std::vector<std::uint64_t> oracle_nodes;
  };
  const Pin pins[] = {
      {PlanTier::kExact, {1362u, 2721u}, {238u, 473u}, {0u, 0u}, {9, 8},
       {0u, 0u}, {0u, 0u}, {0u, 0u}},
      {PlanTier::kFast, {1362u, 2721u}, {238u, 473u}, {60u, 116u}, {9, 8},
       {60u, 116u}, {0u, 0u}, {0u, 0u}},
  };
  for (const Pin& pin : pins) {
    PlanConfig cfg;
    cfg.optimizer.objective = Objective::kProportionalFair;
    cfg.tier = pin.tier;
    DecomposedPlanner planner;
    Pin got{pin.tier, {}, {}, {}, {}, {}, {}, {}};
    for (const MeasurementSnapshot* snap : rounds) {
      const RatePlan plan =
          planner.plan(*snap, InterferenceModelKind::kLirTable, flows, cfg);
      ASSERT_TRUE(plan.ok);
      got.pivots.push_back(planner.stats().pivots);
      got.oracle_pivots.push_back(planner.stats().oracle_pivots);
      got.master_solves.push_back(planner.stats().master_solves);
      got.fw_iterations.push_back(plan.optimizer_iterations);
      got.certified_masters.push_back(planner.stats().certified_masters);
      got.pricing_rounds.push_back(planner.stats().pricing_rounds);
      got.oracle_nodes.push_back(planner.stats().oracle_nodes);
    }
    const bool fast = pin.tier == PlanTier::kFast;
    EXPECT_EQ(planner.stats().decomposed_rounds, 2u) << "fast " << fast;
    EXPECT_EQ(got.pivots, pin.pivots) << "fast " << fast;
    EXPECT_EQ(got.oracle_pivots, pin.oracle_pivots) << "fast " << fast;
    EXPECT_EQ(got.master_solves, pin.master_solves) << "fast " << fast;
    EXPECT_EQ(got.fw_iterations, pin.fw_iterations) << "fast " << fast;
    EXPECT_EQ(got.certified_masters, pin.certified_masters) << "fast " << fast;
    EXPECT_EQ(got.pricing_rounds, pin.pricing_rounds) << "fast " << fast;
    EXPECT_EQ(got.oracle_nodes, pin.oracle_nodes) << "fast " << fast;
  }
}

/// A serve_2000-shaped tenant snapshot: 11 chain links whose LIR table
/// marks about 40% of the pairs as conflicting.
MeasurementSnapshot serve_shaped_snapshot() {
  constexpr int kLinks = 11;
  RngStream topo(4, "perf-budget-serve");
  MeasurementSnapshot snap;
  for (int i = 0; i < kLinks; ++i) {
    SnapshotLink l;
    l.src = i;
    l.dst = i + 1;
    l.rate = Rate::kR11Mbps;
    l.estimate.capacity_bps = topo.uniform(1.5e6, 5e6);
    l.estimate.p_link = 0.02;
    snap.links.push_back(l);
  }
  snap.lir.resize(kLinks, kLinks, 1.0);
  for (int i = 0; i < kLinks; ++i)
    for (int j = i + 1; j < kLinks; ++j)
      if (topo.bernoulli(0.4)) snap.lir(i, j) = snap.lir(j, i) = 0.4;
  snap.lir_threshold = 0.95;
  return snap;
}

/// The serve-shaped tenant with three flows, proportional fairness on the
/// fast tier. The seed gives 11-15 Frank-Wolfe iterations a round, so the
/// line search and about 20 MWIS pricing calls per plan run.
TEST(PerfBudget, ServeShapedFastTierDriftRounds) {
  MeasurementSnapshot snap = serve_shaped_snapshot();
  const std::vector<FlowSpec> flows = {
      {0, {0, 1, 2, 3}, false}, {1, {3, 4, 5}, false}, {2, {6, 7, 8}, false}};

  PlanConfig cfg;
  cfg.optimizer.objective = Objective::kProportionalFair;
  cfg.tier = PlanTier::kFast;
  Planner planner;
  RngStream drift(2, "perf-budget-serve-drift");
  std::vector<int> fw_iterations;
  std::vector<std::uint64_t> allocations;
  for (int round = 0; round < 4; ++round) {
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= drift.uniform(0.9, 1.1);
    const std::uint64_t before = heap_allocations();
    const RatePlan plan =
        planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
    allocations.push_back(heap_allocations() - before);
    ASSERT_TRUE(plan.ok) << "round " << round;
    fw_iterations.push_back(plan.optimizer_iterations);
  }
  const ColumnGenStats& st = planner.last_entry_column_gen()->stats();
  EXPECT_EQ(st.pricing_rounds, 77u);
  EXPECT_EQ(st.oracle_nodes, 367u);
  EXPECT_EQ(st.pivots, 385u);
  EXPECT_EQ(st.master_solves, 77u);
  EXPECT_EQ(fw_iterations, (std::vector<int>{15, 14, 11, 12}));
  // 79, 19, 15 and 15 run alone, with every LpSolver returning its own
  // solution by reference (a warm plan's rest is mostly its result and
  // plan vectors); 98, 36, 30 and 31 when each solve returned a fresh
  // LpSolution; 191, 130, 126 and 127 when every master build started
  // from a fresh LpProblem; 323, 252, 232 and 233 when the pricing oracle
  // also allocated a vector per search node.
  EXPECT_LE(allocations[0], 90u) << "round 0";
  for (std::size_t round = 1; round < allocations.size(); ++round)
    EXPECT_LE(allocations[round], 22u) << "round " << round;
}

/// The pricing oracle keeps its search buffers per thread: once warm, a
/// call on the same or a smaller graph allocates nothing. The caller's
/// `bits` is reused too.
TEST(PerfBudget, WarmMwisCallMakesNoHeapAllocation) {
  RngStream rng(6, "perf-budget-mwis");
  for (const int n : {130, 11, 64}) {
    ConflictGraph g(n);
    for (int a = 0; a < n; ++a)
      for (int b = a + 1; b < n; ++b)
        if (rng.bernoulli(0.5)) g.add_conflict(a, b);
    std::vector<double> w(static_cast<std::size_t>(n));
    for (double& x : w) x = rng.uniform(-0.2, 1.0);
    std::vector<std::uint64_t> bits;
    (void)max_weight_independent_set(g, w, bits);  // warm-up
    const std::uint64_t before = heap_allocations();
    std::uint64_t nodes = 0;
    (void)max_weight_independent_set(g, w, bits, std::uint64_t{1} << 22,
                                     &nodes);
    EXPECT_EQ(heap_allocations() - before, 0u) << "n = " << n;
    EXPECT_GT(nodes, 1u);
  }
}

/// The JSON parser stages container entries on per-thread stacks, so a
/// warm decode of a serve-shaped submit frame makes one allocation per
/// array or object it returns (27 here; 181 when every array grew by
/// doubling and strtod took a heap copy of long tokens).
TEST(PerfBudget, WarmJsonSubmitDecodeAllocations) {
  std::string frame;
  wire_append_submit(frame, SubmitRequest{1, 2, WireFormat::kJson,
                                          serve_shaped_snapshot()});
  WireFrame warm;
  ASSERT_EQ(wire_decode_frame(frame, warm), frame.size());
  const std::uint64_t before = heap_allocations();
  {
    WireFrame out;
    ASSERT_EQ(wire_decode_frame(frame, out), frame.size());
  }
  EXPECT_LE(heap_allocations() - before, 30u);
}

/// The gateway chain's two UDP flows: 0 -> 1 -> 2 and 3 -> 2.
void manage_gateway_flows(Workbench& wb, MeshController& ctl) {
  ManagedFlow far;
  far.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
  far.path = {0, 1, 2};
  ctl.manage_flow(far);
  ManagedFlow near;
  near.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
  near.path = {3, 2};
  ctl.manage_flow(near);
}

/// A live control loop holds a bounded heap: once warm, the rounds from
/// N to 2N leave the live bytes where they were. Every monitor records
/// every probe stream it overhears, read by a link or not, and a stream
/// that no window resets grows by a byte per probe.
TEST(PerfBudget, LiveLoopHeapStaysFlat) {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.1;
  cfg.probe_window = 30;
  cfg.optimizer.objective = Objective::kProportionalFair;
  Workbench wb(5);
  build_gateway_chain(wb);
  MeshController ctl(wb.net(), cfg, 5);
  manage_gateway_flows(wb, ctl);
  LiveSource live(wb, ctl);

  constexpr int kRounds = 200;
  for (int r = 0; r < kRounds; ++r) ASSERT_TRUE(ctl.guarded_round(live).ok);
  const std::int64_t at_n = live_heap_bytes();
  for (int r = 0; r < kRounds; ++r) ASSERT_TRUE(ctl.guarded_round(live).ok);
  EXPECT_LE(live_heap_bytes() - at_n, 1024) << "from " << at_n << " bytes";
}

/// Simulator events each controller round executes on the gateway chain
/// (seed 71, a 60-probe window at 0.25 s, proportional fairness): the
/// event core's work count for one probing window. With `dynamics`, a
/// passive interferer at the receiver duty-cycles on a Markov script and
/// the chain's first hop drifts in loss, both scripted past the last round.
std::vector<std::uint64_t> gateway_events_per_round(bool dynamics,
                                                    int rounds) {
  constexpr std::uint64_t kSeed = 71;
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 60;
  cfg.optimizer.objective = Objective::kProportionalFair;
  Workbench wb(kSeed);
  build_gateway_chain(wb);
  NodeId jam = -1;
  if (dynamics) {
    jam = wb.channel().add_node(nullptr);
    wb.channel().set_rss_dbm(jam, 2, -62.0);
  }
  MeshController ctl(wb.net(), cfg, kSeed);
  manage_gateway_flows(wb, ctl);

  const double window_s = ctl.probing_window_seconds();
  DynamicsScript script;
  if (dynamics) {
    script.merge(markov_interferer(jam, 2.0 * window_s, 2.0 * window_s,
                                   4.0 * rounds * window_s,
                                   RngStream(kSeed, "jam")));
    script.merge(random_walk_loss_drift(0, 1, Rate::kR1Mbps, 0.02, 0.01,
                                        window_s, 4.0 * rounds * window_s,
                                        RngStream(kSeed, "drift")));
  }
  DynamicsEngine engine(wb, std::move(script));
  engine.arm();

  std::vector<std::uint64_t> events;
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t before = wb.sim().executed_events();
    EXPECT_TRUE(ctl.run_round(wb).ok) << "round " << r;
    events.push_back(wb.sim().executed_events() - before);
  }
  return events;
}

TEST(PerfBudget, GatewayRoundEvents) {
  EXPECT_EQ(gateway_events_per_round(false, 4),
            (std::vector<std::uint64_t>{1914u, 1910u, 1920u, 1920u}));
}

/// The interferer's frames first show in round 3; before that the drift
/// steps add an event or two a round.
TEST(PerfBudget, GatewayRoundEventsUnderDynamics) {
  EXPECT_EQ(gateway_events_per_round(true, 4),
            (std::vector<std::uint64_t>{1916u, 1911u, 10071u, 8478u}));
}

}  // namespace
}  // namespace meshopt
