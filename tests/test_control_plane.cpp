// Staged control-plane pipeline tests: snapshot → model → plan as pure
// value types, JSON replay bit-identity against the live controller, and
// fleet-scale determinism across thread counts.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/interference.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "scenario/workbench.h"
#include "sweep/controller_fleet.h"
#include "util/json.h"
#include "util/rng.h"

namespace meshopt {
namespace {

/// Chain topology 0-1-2 plus a 1-hop cross flow 3->2 (the starvation
/// gateway scenario, as in test_controller.cpp).
void build_gateway(Workbench& wb) {
  wb.add_nodes(4);
  Channel& ch = wb.channel();
  for (NodeId a = 0; a < 4; ++a)
    for (NodeId b = 0; b < 4; ++b)
      if (a != b) ch.set_rss_dbm(a, b, -120.0);
  ch.set_rss_symmetric_dbm(0, 1, -58.0);
  ch.set_rss_symmetric_dbm(1, 2, -58.0);
  ch.set_rss_symmetric_dbm(3, 2, -56.0);
  ch.set_rss_symmetric_dbm(1, 3, -70.0);
}

ControllerConfig quick_config() {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 60;
  cfg.optimizer.objective = Objective::kProportionalFair;
  return cfg;
}

/// Sets up the two-flow gateway controller and runs the sense phase.
struct LiveRound {
  Workbench wb;
  MeshController ctl;

  explicit LiveRound(std::uint64_t seed, ControllerConfig cfg)
      : wb(seed), ctl((build_gateway(wb), wb.net()), cfg, seed) {
    ManagedFlow two_hop;
    two_hop.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
    two_hop.path = {0, 1, 2};
    ctl.manage_flow(two_hop);
    ManagedFlow one_hop;
    one_hop.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
    one_hop.path = {3, 2};
    ctl.manage_flow(one_hop);
  }

  void probe() {
    ctl.start_probing();
    wb.run_for(ctl.probing_window_seconds() + 0.5);
    ctl.update_estimates();
  }
};

TEST(Json, ValueRoundTripsExactDoublesAndEscapes) {
  std::string doc = "{\"a\":";
  json_append_double(doc, 0.1);
  doc += ",\"b\":";
  json_append_double(doc, 6.626070150e-34);
  doc += ",\"s\":";
  json_append_string(doc, "line\n\"quoted\"\tend");
  doc += ",\"arr\":[1,2.5,-3e2],\"t\":true,\"n\":null}";

  const JsonValue v = JsonValue::parse(doc);
  EXPECT_EQ(v.at("a").as_number(), 0.1);
  EXPECT_EQ(v.at("b").as_number(), 6.626070150e-34);
  EXPECT_EQ(v.at("s").as_string(), "line\n\"quoted\"\tend");
  ASSERT_EQ(v.at("arr").items().size(), 3u);
  EXPECT_EQ(v.at("arr").items()[2].as_number(), -300.0);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_TRUE(v.at("n").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)JsonValue::parse("{\"a\":}"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("[1,2] extra"), std::invalid_argument);
  // Hostile nesting fails with the documented exception, not a stack
  // overflow.
  EXPECT_THROW((void)JsonValue::parse(std::string(100000, '[')),
               std::invalid_argument);
}

TEST(ControlPlane, SnapshotJsonRoundTripIsExact) {
  LiveRound live(101, quick_config());
  live.probe();

  const MeasurementSnapshot& snap = live.ctl.snapshot();
  ASSERT_EQ(snap.links.size(), 3u);
  EXPECT_FALSE(snap.neighbors.empty());

  const std::string json = snap.to_json();
  const MeasurementSnapshot back = MeasurementSnapshot::from_json(json);
  // Exact equality, including every double bit: %.17g round-trips IEEE
  // doubles and the schema loses nothing.
  EXPECT_EQ(back, snap);
  // And the serialization itself is byte-stable.
  EXPECT_EQ(back.to_json(), json);
}

TEST(ControlPlane, HandWrittenSnapshotNormalizesNeighborsAndThreshold) {
  // Hand-written documents may list neighbor pairs in any order; parsing
  // normalizes them to the sorted first<second invariant is_neighbor
  // relies on. The threshold round-trips even without a LIR table.
  const MeasurementSnapshot snap = MeasurementSnapshot::from_json(
      "{\"version\":1,\"links\":[],\"neighbors\":[[2,1],[1,2],[3,0]],"
      "\"lir_threshold\":0.5}");
  EXPECT_TRUE(snap.is_neighbor(1, 2));
  EXPECT_TRUE(snap.is_neighbor(2, 1));
  EXPECT_TRUE(snap.is_neighbor(0, 3));
  EXPECT_FALSE(snap.is_neighbor(0, 1));
  ASSERT_EQ(snap.neighbors.size(), 2u);  // duplicate collapsed
  EXPECT_EQ(snap.lir_threshold, 0.5);
  EXPECT_EQ(MeasurementSnapshot::from_json(snap.to_json()), snap);

  // Out-of-int-range numbers are a schema error, not UB.
  EXPECT_THROW((void)MeasurementSnapshot::from_json(
                   "{\"version\":1,\"links\":[],\"neighbors\":[[1e300,2]],"
                   "\"lir_threshold\":0.95}"),
               std::invalid_argument);
}

TEST(ControlPlane, LirSnapshotRoundTripsAndSelectsLirModel) {
  LiveRound live(103, quick_config());
  const int l = static_cast<int>(live.ctl.links().size());
  DenseMatrix lir(l, l, 1.0);
  lir(0, 1) = lir(1, 0) = 0.2;  // links 0 and 1 interfere
  live.ctl.set_lir_table(lir, 0.9);
  live.probe();

  const MeasurementSnapshot back =
      MeasurementSnapshot::from_json(live.ctl.snapshot().to_json());
  EXPECT_EQ(back, live.ctl.snapshot());
  ASSERT_FALSE(back.lir.empty());
  EXPECT_EQ(back.lir_threshold, 0.9);

  const InterferenceModel model =
      InterferenceModel::build(back, InterferenceModelKind::kLirTable);
  EXPECT_EQ(model.kind(), InterferenceModelKind::kLirTable);
  EXPECT_TRUE(model.conflicts().conflicts(0, 1));
  EXPECT_FALSE(model.conflicts().conflicts(0, 2));
}

TEST(ControlPlane, ReplayedSnapshotPlansBitIdenticalToLiveController) {
  // The acceptance criterion: record a snapshot from a live round,
  // serialize to JSON, reload, and the pure pipeline's RatePlan must be
  // bit-identical to what the live MeshController computed and applied.
  LiveRound live(107, quick_config());
  live.probe();
  const std::string json = live.ctl.snapshot().to_json();
  const RoundResult round = live.ctl.optimize_and_apply();
  ASSERT_TRUE(round.ok);

  const MeasurementSnapshot replayed = MeasurementSnapshot::from_json(json);
  const InterferenceModel model =
      InterferenceModel::build(replayed, InterferenceModelKind::kTwoHop);
  const RatePlan plan =
      plan_rates(replayed, model, live.ctl.flow_specs(), quick_config().plan());

  ASSERT_TRUE(plan.ok);
  ASSERT_EQ(plan.y.size(), round.y.size());
  for (std::size_t s = 0; s < plan.y.size(); ++s) {
    EXPECT_EQ(plan.y[s], round.y[s]) << "y[" << s << "]";
    EXPECT_EQ(plan.x[s], round.x[s]) << "x[" << s << "]";
  }
  EXPECT_EQ(plan.extreme_points, round.extreme_points);
  EXPECT_EQ(plan.optimizer_iterations, round.optimizer_iterations);
  // The live controller's own record of the plan matches too.
  EXPECT_EQ(plan, live.ctl.last_plan());
}

TEST(ControlPlane, PlanRatesIsPure) {
  LiveRound live(109, quick_config());
  live.probe();
  const MeasurementSnapshot snap = live.ctl.snapshot();
  const InterferenceModel model =
      InterferenceModel::build(snap, InterferenceModelKind::kTwoHop);
  const std::vector<FlowSpec> flows = live.ctl.flow_specs();
  const PlanConfig cfg = quick_config().plan();

  const RatePlan a = plan_rates(snap, model, flows, cfg);
  const RatePlan b = plan_rates(snap, model, flows, cfg);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a, b);
}

TEST(ControlPlane, FlowHopsResolveEveryHopLikeLinkIndex) {
  // Random links over a few node ids (negative and large ones included),
  // so (src, dst) keys repeat and table slots collide; every hop of every
  // path must resolve to link_index's answer: its first link, or -1.
  RngStream rng(5, "flow-hops");
  const NodeId ids[] = {-7, 0, 1, 2, 3, 9, 1 << 20, 0x7fffffff};
  const auto node = [&] { return ids[rng.uniform_int(0, 7)]; };
  for (const int links : {0, 1, 11, 203}) {
    MeasurementSnapshot snap;
    for (int l = 0; l < links; ++l) {
      SnapshotLink link;
      link.src = node();
      link.dst = node();
      snap.links.push_back(link);
    }
    std::vector<FlowSpec> flows(6);
    for (std::size_t s = 0; s < flows.size(); ++s)
      for (int h = 0; h < static_cast<int>(s); ++h)
        flows[s].path.push_back(node());
    const FlowHops hops(snap, flows);
    for (std::size_t s = 0; s < flows.size(); ++s) {
      const std::vector<NodeId>& path = flows[s].path;
      ASSERT_EQ(hops[s].size(), path.empty() ? 0 : path.size() - 1);
      for (std::size_t h = 0; h + 1 < path.size(); ++h)
        EXPECT_EQ(hops[s][h], snap.link_index(path[h], path[h + 1]))
            << links << " links, flow " << s << " hop " << h;
    }
  }
}

TEST(ControlPlane, ApplyPlanProgramsShapersByFlowId) {
  double applied0 = -1.0, applied1 = -1.0;
  Workbench wb(113);
  build_gateway(wb);
  MeshController ctl(wb.net(), quick_config(), 113);
  ManagedFlow f0;
  f0.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
  f0.path = {0, 1, 2};
  f0.apply_rate = [&](double x) { applied0 = x; };
  ctl.manage_flow(f0);
  ManagedFlow f1;
  f1.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
  f1.path = {3, 2};
  f1.apply_rate = [&](double x) { applied1 = x; };
  ctl.manage_flow(f1);

  RatePlan plan;
  plan.ok = true;
  plan.shapers = {ShaperProgram{f1.flow_id, 2e6},
                  ShaperProgram{f0.flow_id, 1e6}};  // order shuffled
  ctl.apply_plan(plan);
  EXPECT_DOUBLE_EQ(applied0, 1e6);
  EXPECT_DOUBLE_EQ(applied1, 2e6);
}

TEST(ControlPlane, FleetIsBitIdenticalAcrossThreadCounts) {
  // ≥ 8 scenario variants over topology × traffic × interference-model ×
  // objective, run on 1 thread and on 4: every snapshot and plan must be
  // bit-for-bit identical.
  ControllerConfig base;
  base.probe_period_s = 0.25;
  base.probe_window = 40;

  std::vector<FleetCell> cells;
  const double cross_rss[] = {-56.0, -60.0};
  const Objective objectives[] = {Objective::kProportionalFair,
                                  Objective::kMaxThroughput,
                                  Objective::kMaxMin};
  for (const double rss : cross_rss) {
    for (const Objective obj : objectives) {
      FleetCell cell;
      cell.build_topology = [rss](Workbench& wb) {
        wb.add_nodes(4);
        Channel& ch = wb.channel();
        for (NodeId a = 0; a < 4; ++a)
          for (NodeId b = 0; b < 4; ++b)
            if (a != b) ch.set_rss_dbm(a, b, -120.0);
        ch.set_rss_symmetric_dbm(0, 1, -58.0);
        ch.set_rss_symmetric_dbm(1, 2, -58.0);
        ch.set_rss_symmetric_dbm(3, 2, rss);
        ch.set_rss_symmetric_dbm(1, 3, -70.0);
      };
      cell.flows = {FleetFlow{{0, 1, 2}}, FleetFlow{{3, 2}}};
      cell.controller = base;
      cell.controller.optimizer.objective = obj;
      cells.push_back(std::move(cell));
    }
  }
  // Variant 7: binary-LIR model claiming full independence.
  {
    FleetCell cell = cells[0];
    cell.lir = DenseMatrix(3, 3, 1.0);
    cells.push_back(std::move(cell));
  }
  // Variant 8: driven CBR traffic plus two back-to-back rounds.
  {
    FleetCell cell = cells[1];
    cell.flows[0].input_bps = 0.3e6;
    cell.flows[1].input_bps = 0.3e6;
    cell.rounds = 2;
    cell.settle_s = 1.0;
    cells.push_back(std::move(cell));
  }
  ASSERT_GE(cells.size(), 8u);

  ControllerFleet serial(1);
  ControllerFleet parallel(4);
  const auto a = serial.run(cells, /*master_seed=*/777);
  const auto b = parallel.run(cells, /*master_seed=*/777);

  ASSERT_EQ(a.size(), cells.size());
  ASSERT_EQ(b.size(), cells.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, static_cast<int>(i));
    EXPECT_EQ(a[i].seed, b[i].seed) << "cell " << i;
    EXPECT_EQ(a[i].ok, b[i].ok) << "cell " << i;
    EXPECT_TRUE(a[i].ok) << "cell " << i;
    EXPECT_EQ(a[i].snapshot, b[i].snapshot) << "cell " << i;
    EXPECT_EQ(a[i].plan, b[i].plan) << "cell " << i;
  }
  // Sanity: distinct variants genuinely produce distinct plans.
  EXPECT_NE(a[0].plan.y, a[1].plan.y);
}

TEST(ControlPlane, SchemaFixtureStillParsesAndPlans) {
  // Golden schema fixture: a snapshot recorded by this pipeline and
  // committed to the repo (CI uploads it as an artifact). If the schema
  // drifts incompatibly, this test is the tripwire.
  std::ifstream in(std::string(MESHOPT_SOURCE_DIR) +
                   "/tests/data/snapshot_fixture.json");
  ASSERT_TRUE(in.good()) << "fixture missing";
  std::stringstream buf;
  buf << in.rdbuf();

  const MeasurementSnapshot snap =
      MeasurementSnapshot::from_json(buf.str());
  ASSERT_EQ(snap.links.size(), 3u);
  EXPECT_EQ(snap.links[0].src, 0);
  EXPECT_EQ(snap.links[0].dst, 1);
  EXPECT_GT(snap.links[0].estimate.capacity_bps, 0.0);
  EXPECT_TRUE(snap.is_neighbor(0, 1));
  ASSERT_FALSE(snap.lir.empty());
  EXPECT_EQ(snap.lir.rows(), 3);

  // Round-trip stability of the committed document's parsed form.
  EXPECT_EQ(MeasurementSnapshot::from_json(snap.to_json()), snap);

  // A full offline replay down the pipeline works from the fixture alone.
  const InterferenceModel model =
      InterferenceModel::build(snap, InterferenceModelKind::kTwoHop);
  std::vector<FlowSpec> flows(2);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2};
  flows[1].flow_id = 1;
  flows[1].path = {3, 2};
  const RatePlan plan = plan_rates(snap, model, flows, PlanConfig{});
  ASSERT_TRUE(plan.ok);
  EXPECT_GT(plan.y[0], 0.0);
  EXPECT_GT(plan.y[1], 0.0);
}

}  // namespace
}  // namespace meshopt
