// Plan-tier differential harness (ARCHITECTURE.md, "Plan tiers").
//
// Pins the tiered determinism contract:
//   * kExact — the bit-identical reference path (and the pre-tier default:
//     a PlanConfig that never mentions tiers plans exactly),
//   * kFast — column generation; per-round objective within a 1e-6
//     relative gap of kExact across a topology × objective × interference
//     × churn grid, same active-flow support on strictly concave
//     objectives, and bit-identical to itself across repeated runs and
//     fleet thread counts for a fixed ReplayOptions.
//
// The golden fixture (tests/data/plan_tiers_golden.json) freezes fast-tier
// objective values at 17 significant digits; compared at 1e-9 relative
// tolerance to absorb cross-arch drift. Regenerate with
//   MESHOPT_REGEN_GOLDEN=1 ./test_plan_tiers
//
// The bit pins at the end hold exact 64-bit digests of whole plans (both
// tiers, monolithic and decomposed, every objective; and decomposed fast
// plans on a non-clique component, where the oracle admits columns) and
// of one traced decomposed round: any change to the optimizer's
// arithmetic moves them.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/interference.h"
#include "core/planner.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "obs/obs.h"
#include "opt/column_gen.h"
#include "opt/decompose.h"
#include "probe/live_source.h"
#include "scenario/topologies.h"
#include "scenario/workbench.h"
#include "sweep/controller_fleet.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/trace_codec.h"

namespace meshopt {
namespace {

// ---------------------------------------------------------------- fixtures

/// A small hand-built two-hop snapshot: 3 links of a chain + cross link.
MeasurementSnapshot chain_snapshot() {
  MeasurementSnapshot snap;
  const NodeId hops[][2] = {{0, 1}, {1, 2}, {3, 2}};
  for (const auto& h : hops) {
    SnapshotLink l;
    l.src = h[0];
    l.dst = h[1];
    l.rate = Rate::kR11Mbps;
    l.estimate.p_link = 0.02;
    l.estimate.capacity_bps = 4.2e6;
    snap.links.push_back(l);
  }
  snap.neighbors = {{0, 1}, {1, 2}, {1, 3}, {2, 3}};
  return snap;
}

/// A randomized chain-of-links LIR snapshot (non-trivial conflict graph).
MeasurementSnapshot lir_snapshot(int links, std::uint64_t seed) {
  MeasurementSnapshot snap;
  RngStream rng(seed, "plan-tiers-lir");
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

std::vector<FlowSpec> chain_flows() {
  std::vector<FlowSpec> flows(2);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2};
  flows[1].flow_id = 1;
  flows[1].path = {3, 2};
  return flows;
}

/// Flows over a `links`-link chain: three spans of different lengths.
std::vector<FlowSpec> span_flows(int links) {
  std::vector<FlowSpec> flows(3);
  flows[0].flow_id = 0;
  for (NodeId n = 0; n <= std::min(5, links); ++n) flows[0].path.push_back(n);
  flows[1].flow_id = 1;
  for (NodeId n = 3; n <= std::min(10, links); ++n) flows[1].path.push_back(n);
  flows[2].flow_id = 2;
  for (NodeId n = std::max(0, links - 4); n <= links; ++n)
    flows[2].path.push_back(n);
  return flows;
}

struct TierCase {
  std::string name;
  MeasurementSnapshot snap;
  InterferenceModelKind kind = InterferenceModelKind::kTwoHop;
  std::vector<FlowSpec> flows;
};

std::vector<TierCase> grid_cases() {
  std::vector<TierCase> cases;
  cases.push_back({"chain", chain_snapshot(), InterferenceModelKind::kTwoHop,
                   chain_flows()});
  cases.push_back({"lir16", lir_snapshot(16, 101),
                   InterferenceModelKind::kLirTable, span_flows(16)});
  cases.push_back({"lir24", lir_snapshot(24, 103),
                   InterferenceModelKind::kLirTable, span_flows(24)});
  return cases;
}

struct ObjectiveCase {
  std::string name;
  OptimizerConfig cfg;
};

std::vector<ObjectiveCase> objective_cases() {
  std::vector<ObjectiveCase> cases(4);
  cases[0].name = "maxthru";
  cases[0].cfg.objective = Objective::kMaxThroughput;
  cases[1].name = "pf";
  cases[1].cfg.objective = Objective::kProportionalFair;
  cases[2].name = "maxmin";
  cases[2].cfg.objective = Objective::kMaxMin;
  cases[3].name = "alpha2";
  cases[3].cfg.objective = Objective::kAlphaFair;
  cases[3].cfg.alpha = 2.0;
  return cases;
}

/// The set of flows carrying non-negligible rate.
std::vector<int> active_support(const std::vector<double>& y) {
  double mx = 1.0;
  for (double v : y) mx = std::max(mx, v);
  std::vector<int> s;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (y[i] > 1e-6 * mx) s.push_back(static_cast<int>(i));
  return s;
}

bool strictly_concave(Objective obj) {
  return obj == Objective::kProportionalFair || obj == Objective::kAlphaFair ||
         obj == Objective::kMaxMin;
}

// ------------------------------------------------------- differential grid

TEST(PlanTiers, DifferentialGridGapWithinPinnedBound) {
  // topology × objective × churn-phase grid: the fast tier must track the
  // exact tier's objective within the pinned 1e-6 relative gap on every
  // round, with the working set staying below the full extreme-point count
  // whenever the region is non-trivial.
  for (TierCase& tc : grid_cases()) {
    for (const ObjectiveCase& oc : objective_cases()) {
      Planner exact_planner(4);
      Planner fast_planner(4);
      PlanConfig exact_cfg;
      exact_cfg.optimizer = oc.cfg;
      PlanConfig fast_cfg = exact_cfg;
      fast_cfg.tier = PlanTier::kFast;

      MeasurementSnapshot snap = tc.snap;
      RngStream drift(7, "tier-grid-" + tc.name + "-" + oc.name);
      for (int round = 0; round < 4; ++round) {
        if (round > 0)
          for (SnapshotLink& l : snap.links)
            l.estimate.capacity_bps *= drift.uniform(0.85, 1.15);

        const RatePlan exact =
            exact_planner.plan(snap, tc.kind, tc.flows, exact_cfg);
        const RatePlan fast =
            fast_planner.plan(snap, tc.kind, tc.flows, fast_cfg);
        const std::string at =
            tc.name + "/" + oc.name + "/round " + std::to_string(round);
        ASSERT_TRUE(exact.ok) << at;
        ASSERT_TRUE(fast.ok) << at;

        // Tier metadata.
        EXPECT_EQ(exact.tier, PlanTier::kExact) << at;
        EXPECT_EQ(fast.tier, PlanTier::kFast) << at;
        EXPECT_EQ(exact.columns_generated, 0) << at;
        EXPECT_GT(fast.columns_generated, 0) << at;
        EXPECT_EQ(fast.columns_generated, fast.extreme_points) << at;

        // The pinned gap.
        const double tol =
            1e-6 * std::max(1.0, std::abs(exact.objective_value));
        EXPECT_NEAR(fast.objective_value, exact.objective_value, tol) << at;

        // Sublinear working set: never more columns than the full K.
        EXPECT_LE(fast.extreme_points, exact.extreme_points) << at;

        // Identical active-flow support on strictly concave objectives
        // (max-throughput has alternate optima; support may differ).
        if (strictly_concave(oc.cfg.objective))
          EXPECT_EQ(active_support(fast.y), active_support(exact.y)) << at;

        // Per-flow rates track within the same relative scale.
        ASSERT_EQ(fast.y.size(), exact.y.size()) << at;
        if (strictly_concave(oc.cfg.objective)) {
          double scale = 1.0;
          for (double v : exact.y) scale = std::max(scale, std::abs(v));
          for (std::size_t s = 0; s < exact.y.size(); ++s)
            EXPECT_NEAR(fast.y[s], exact.y[s], 1e-4 * scale)
                << at << " flow " << s;
        }
      }
      // Warm starts actually engaged across the drift rounds (rounds 2+
      // reuse the planner-entry optimizer's columns and basis).
      EXPECT_GE(fast_planner.stats().hits, 3u) << tc.name << "/" << oc.name;
    }
  }
}

TEST(PlanTiers, ExactTierIsTheDefaultAndBitIdenticalToDirectPlanRates) {
  // A PlanConfig that never mentions tiers must plan exactly (the pre-tier
  // path), and Planner::plan on the exact tier must stay bit-identical to
  // a direct uncached plan_rates walk.
  MeasurementSnapshot snap = lir_snapshot(16, 101);
  const std::vector<FlowSpec> flows = span_flows(16);
  PlanConfig cfg;
  cfg.optimizer.objective = Objective::kProportionalFair;
  ASSERT_EQ(cfg.tier, PlanTier::kExact);

  Planner planner(4);
  RngStream drift(11, "tier-exact");
  for (int round = 0; round < 3; ++round) {
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= drift.uniform(0.9, 1.1);
    const InterferenceModel reference =
        InterferenceModel::build(snap, InterferenceModelKind::kLirTable);
    const RatePlan direct = plan_rates(snap, reference, flows, cfg);
    const RatePlan via_planner =
        planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
    EXPECT_EQ(via_planner, direct) << "round " << round;
    EXPECT_EQ(direct.tier, PlanTier::kExact);
    EXPECT_EQ(direct.pricing_rounds, 0);
  }
}

TEST(PlanTiers, FastTierBitIdenticalAcrossRepeatedRuns) {
  // Determinism within the tier: two fresh planners fed the same snapshot
  // sequence produce bit-identical plans (operator== covers y, x, shapers
  // and all tier metadata).
  auto run_once = []() {
    Planner planner(4);
    PlanConfig cfg;
    cfg.optimizer.objective = Objective::kProportionalFair;
    cfg.tier = PlanTier::kFast;
    MeasurementSnapshot snap = lir_snapshot(20, 107);
    const std::vector<FlowSpec> flows = span_flows(20);
    RngStream drift(13, "tier-repeat");
    std::vector<RatePlan> plans;
    for (int round = 0; round < 5; ++round) {
      for (SnapshotLink& l : snap.links)
        l.estimate.capacity_bps *= drift.uniform(0.9, 1.1);
      plans.push_back(
          planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg));
    }
    return plans;
  };
  const std::vector<RatePlan> a = run_once();
  const std::vector<RatePlan> b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_TRUE(a[r].ok) << "round " << r;
    EXPECT_EQ(a[r], b[r]) << "round " << r;
  }
}

// ------------------------------------------------ warm-start accounting

struct WarmStartRun {
  ColumnGenStats stats;
  std::vector<ObsCode> pricing_codes;  ///< one kPricing span per round
};

/// Five drifting rounds of the repeated-runs fixture above through one
/// planner with a recorder attached.
WarmStartRun warm_start_run(Objective objective) {
  Planner planner(4);
  TraceRecorder recorder;
  planner.set_observer(&recorder);
  PlanConfig cfg;
  cfg.optimizer.objective = objective;
  cfg.tier = PlanTier::kFast;
  MeasurementSnapshot snap = lir_snapshot(20, 107);
  const std::vector<FlowSpec> flows = span_flows(20);
  RngStream drift(13, "tier-repeat");
  for (int round = 0; round < 5; ++round) {
    recorder.set_context(0, static_cast<std::uint64_t>(round));
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= drift.uniform(0.9, 1.1);
    EXPECT_TRUE(
        planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg).ok);
  }
  WarmStartRun run;
  run.stats = planner.last_entry_column_gen()->stats();
  for (const ObsRecord& r : recorder.canonical_records(false))
    if (r.stage == ObsStage::kPricing) run.pricing_codes.push_back(r.code);
  return run;
}

TEST(PlanTiers, WarmStartsCountOnlyAcceptedBases) {
  // Rounds 2..5 each offer the carried basis to their first master.
  // Under max-throughput the solver starts from it in rounds 2-4 and
  // rejects it in round 5, whose master then solves cold.
  const WarmStartRun accepted = warm_start_run(Objective::kMaxThroughput);
  EXPECT_EQ(accepted.stats.warm_starts, 4u);
  EXPECT_EQ(accepted.stats.warm_start_fallbacks, 1u);
  EXPECT_EQ(accepted.pricing_codes,
            (std::vector<ObsCode>{ObsCode::kColdStart, ObsCode::kWarmStart,
                                  ObsCode::kWarmStart, ObsCode::kWarmStart,
                                  ObsCode::kColdStart}));

  // Proportional fairness offers the Frank–Wolfe master's basis, and the
  // solver rejects it every time: no round may report a warm start.
  const WarmStartRun rejected =
      warm_start_run(Objective::kProportionalFair);
  EXPECT_EQ(rejected.stats.warm_starts, 4u);
  EXPECT_EQ(rejected.stats.warm_start_fallbacks, 4u);
  EXPECT_EQ(rejected.pricing_codes,
            std::vector<ObsCode>(5, ObsCode::kColdStart));
}

// --------------------------------------------------------- fleet replay

ControllerConfig live_config() {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 40;
  cfg.optimizer.objective = Objective::kProportionalFair;
  return cfg;
}

std::vector<MeasurementSnapshot> record_gateway_trace(int rounds,
                                                      std::uint64_t seed) {
  Workbench wb(seed);
  build_gateway_chain(wb);
  MeshController ctl(wb.net(), live_config(), seed);
  ManagedFlow far;
  far.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
  far.path = {0, 1, 2};
  ctl.manage_flow(far);
  ManagedFlow near;
  near.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
  near.path = {3, 2};
  ctl.manage_flow(near);
  std::vector<MeasurementSnapshot> trace;
  LiveSource live(wb, ctl, rounds);
  MeasurementSnapshot snap;
  while (live.next(snap)) trace.push_back(snap);
  return trace;
}

std::vector<ReplayCell> gateway_cells(PlanTier tier) {
  std::vector<ReplayCell> cells;
  for (const Objective obj :
       {Objective::kProportionalFair, Objective::kMaxThroughput}) {
    ReplayCell cell;
    cell.flows.resize(2);
    cell.flows[0].flow_id = 0;
    cell.flows[0].path = {0, 1, 2};
    cell.flows[1].flow_id = 1;
    cell.flows[1].path = {3, 2};
    cell.plan.optimizer.objective = obj;
    cell.plan.tier = tier;
    cells.push_back(std::move(cell));
  }
  return cells;
}

TEST(PlanTiers, FleetReplayFastTierThreadCountInvariant) {
  // Fast-tier fleet determinism: for a FIXED ReplayOptions the replayed
  // plans are bit-identical on 1 thread and on 4, and across repeated
  // runs — segment_rounds is part of the determinism key, so each opts
  // value is only compared against itself.
  const std::vector<MeasurementSnapshot> trace = record_gateway_trace(6, 401);
  ASSERT_EQ(trace.size(), 6u);
  const std::vector<ReplayCell> cells = gateway_cells(PlanTier::kFast);

  ControllerFleet serial(1);
  ControllerFleet parallel(4);
  for (const int seg : {0, 3}) {
    ReplayOptions opts;
    opts.segment_rounds = seg;
    const auto a = serial.replay(cells, trace, opts);
    const auto b = parallel.replay(cells, trace, opts);
    const auto c = parallel.replay(cells, trace, opts);
    ASSERT_EQ(a.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_TRUE(a[i].ok) << "seg " << seg << " cell " << i;
      EXPECT_EQ(a[i].plans, b[i].plans) << "seg " << seg << " cell " << i;
      EXPECT_EQ(b[i].plans, c[i].plans) << "seg " << seg << " cell " << i;
      for (const RatePlan& p : a[i].plans)
        EXPECT_EQ(p.tier, PlanTier::kFast);
    }
  }
}

TEST(PlanTiers, FleetReplayFastTracksExactWithinGap) {
  // The replay-level differential: every round of every fast cell stays
  // within the pinned gap of the exact cell it shadows.
  const std::vector<MeasurementSnapshot> trace = record_gateway_trace(6, 409);
  ASSERT_EQ(trace.size(), 6u);

  ControllerFleet fleet(2);
  const auto exact = fleet.replay(gateway_cells(PlanTier::kExact), trace);
  const auto fast = fleet.replay(gateway_cells(PlanTier::kFast), trace);
  ASSERT_EQ(exact.size(), fast.size());
  for (std::size_t c = 0; c < exact.size(); ++c) {
    ASSERT_EQ(exact[c].plans.size(), fast[c].plans.size());
    for (std::size_t r = 0; r < exact[c].plans.size(); ++r) {
      const RatePlan& e = exact[c].plans[r];
      const RatePlan& f = fast[c].plans[r];
      ASSERT_EQ(e.ok, f.ok) << "cell " << c << " round " << r;
      if (!e.ok) continue;
      const double tol = 1e-6 * std::max(1.0, std::abs(e.objective_value));
      EXPECT_NEAR(f.objective_value, e.objective_value, tol)
          << "cell " << c << " round " << r;
      EXPECT_LE(f.extreme_points, e.extreme_points);
    }
  }
}

// --------------------------------------------------------- golden fixture

std::string golden_path() {
  return std::string(MESHOPT_SOURCE_DIR) + "/tests/data/plan_tiers_golden.json";
}

struct GoldenEntry {
  std::string name;
  double objective = 0.0;
};

/// The frozen scenario: two LIR topologies × two objectives × 3 warm drift
/// rounds, fast tier throughout. Purely synthetic (no simulation), so the
/// values depend only on the optimizer arithmetic the fixture pins.
std::vector<GoldenEntry> compute_golden_entries() {
  std::vector<GoldenEntry> out;
  for (const int links : {16, 24}) {
    for (const ObjectiveCase& oc : objective_cases()) {
      if (oc.name != "pf" && oc.name != "maxthru") continue;
      Planner planner(4);
      PlanConfig cfg;
      cfg.optimizer = oc.cfg;
      cfg.tier = PlanTier::kFast;
      MeasurementSnapshot snap =
          lir_snapshot(links, 61 + static_cast<std::uint64_t>(links));
      const std::vector<FlowSpec> flows = span_flows(links);
      RngStream drift(17, "tier-golden");
      for (int round = 0; round < 3; ++round) {
        for (SnapshotLink& l : snap.links)
          l.estimate.capacity_bps *= drift.uniform(0.9, 1.1);
        const RatePlan plan =
            planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
        GoldenEntry e;
        e.name = "lir" + std::to_string(links) + "-" + oc.name + "-r" +
                 std::to_string(round);
        e.objective = plan.ok ? plan.objective_value : 0.0;
        out.push_back(std::move(e));
      }
    }
  }
  // Plus the committed recorded gateway trace (tests/data/
  // trace_fixture.bin) replayed through the fast tier — real measured
  // snapshots, so tier drift is caught even if the synthetic generator
  // and the exact tier both move.
  const std::vector<MeasurementSnapshot> trace = read_trace(
      std::string(MESHOPT_SOURCE_DIR) + "/tests/data/trace_fixture.bin");
  ControllerFleet fleet(1);
  std::vector<ReplayCell> cells = gateway_cells(PlanTier::kFast);
  const std::vector<ReplayResult> results = fleet.replay(cells, trace);
  const char* cell_names[] = {"pf", "maxthru"};
  for (std::size_t c = 0; c < results.size(); ++c) {
    for (std::size_t r = 0; r < results[c].plans.size(); ++r) {
      GoldenEntry e;
      e.name = std::string("trace-") + cell_names[c] + "-r" +
               std::to_string(r);
      e.objective =
          results[c].plans[r].ok ? results[c].plans[r].objective_value : 0.0;
      out.push_back(std::move(e));
    }
  }
  return out;
}

void write_golden(const std::vector<GoldenEntry>& entries) {
  std::string doc = "{\n  \"cases\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    doc += "    {\"name\": ";
    json_append_string(doc, entries[i].name);
    doc += ", \"objective\": ";
    json_append_double(doc, entries[i].objective);
    doc += i + 1 < entries.size() ? "},\n" : "}\n";
  }
  doc += "  ]\n}\n";
  std::ofstream out(golden_path());
  ASSERT_TRUE(out.is_open()) << golden_path();
  out << doc;
}

TEST(PlanTiers, GoldenFastTierObjectives) {
  const std::vector<GoldenEntry> computed = compute_golden_entries();
  ASSERT_EQ(computed.size(), 20u);  // 12 synthetic + 8 recorded-trace
  for (const GoldenEntry& e : computed)
    EXPECT_NE(e.objective, 0.0) << e.name << ": plan failed";

  if (std::getenv("MESHOPT_REGEN_GOLDEN") != nullptr) {
    write_golden(computed);
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.is_open())
      << golden_path()
      << " missing; regenerate with MESHOPT_REGEN_GOLDEN=1 ./test_plan_tiers";
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buf.str());
  const std::vector<JsonValue>& cases = doc.at("cases").items();
  ASSERT_EQ(cases.size(), computed.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].at("name").as_string(), computed[i].name);
    const double want = cases[i].at("objective").as_number();
    // 1e-9 relative: absorbs cross-arch vectorization drift, catches any
    // real change to the fast tier's arithmetic.
    EXPECT_NEAR(computed[i].objective, want, 1e-9 * std::abs(want))
        << computed[i].name;
  }
}

// ------------------------------------------------------------- bit pins

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t plan_digest(const RatePlan& p) {
  Digest d;
  d.add(static_cast<std::uint64_t>(p.y.size()));
  for (const double v : p.y) d.add(v);
  for (const double v : p.x) d.add(v);
  d.add(p.objective_value);
  d.add(static_cast<std::uint64_t>(p.optimizer_iterations));
  return d.h;
}

/// Three 5-link gateway clusters and two bridge links: 5 interference
/// components, 3 of them carrying flows.
CityParams small_city() {
  CityParams p;
  p.clusters = 3;
  p.links_per_cluster = 5;
  p.bridge_links = 2;
  p.flows_per_cluster = 2;
  p.seed = 7;
  return p;
}

TEST(PlanTiers, SmallCityPlanBitsPinned) {
  // objective x tier x {Planner, DecomposedPlanner, Planner with
  // cfg.decompose}: a cold round, then a warm one on drifted capacities,
  // both in one digest. The third front end routes through the second
  // and must reproduce its decomp/* digests. No golden
  // covers these paths bit for bit (the decomposition tests compare with
  // the monolithic plan only to 1e-9). On these clique clusters the fast
  // tier's seed columns are the whole region, so both decomposed tiers
  // solve the same LPs.
  struct Pin {
    const char* name;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"mono/exact/maxthru", 0x8074fc6267f6a38cull},
      {"mono/exact/pf", 0xb97dca16b421a3bdull},
      {"mono/exact/maxmin", 0x24e917458bd8cebdull},
      {"mono/exact/alpha2", 0x97faf3d26048399cull},
      {"mono/fast/maxthru", 0x74b0b9b2c9a26448ull},
      {"mono/fast/pf", 0x6fb1b2edfbd1870dull},
      {"mono/fast/maxmin", 0x218d14c1798731beull},
      {"mono/fast/alpha2", 0x7fa306e08cd7448cull},
      {"decomp/exact/maxthru", 0x9496035f66d47616ull},
      {"decomp/exact/pf", 0xb1621a59be6e0c71ull},
      {"decomp/exact/maxmin", 0x5a1b7f0c530434baull},
      {"decomp/exact/alpha2", 0x3047cd5e995cd9ccull},
      {"decomp/fast/maxthru", 0x9496035f66d47616ull},
      {"decomp/fast/pf", 0xb1621a59be6e0c71ull},
      {"decomp/fast/maxmin", 0x5a1b7f0c530434baull},
      {"decomp/fast/alpha2", 0x3047cd5e995cd9ccull},
  };
  const CityParams p = small_city();
  const MeasurementSnapshot cold = build_city_snapshot(p);
  MeasurementSnapshot drifted = cold;
  for (std::size_t l = 0; l < drifted.links.size(); ++l)
    drifted.links[l].estimate.capacity_bps *= 1.0 + 0.01 * (l % 3);
  const MeasurementSnapshot* rounds[] = {&cold, &drifted};
  const std::vector<FlowSpec> flows = city_flows(p);
  enum Front { kPlanner, kDecomposedPlanner, kPlannerDecompose };
  for (const Front front : {kPlanner, kDecomposedPlanner, kPlannerDecompose}) {
    std::size_t i = front == kPlanner ? 0 : 8;
    for (const PlanTier tier : {PlanTier::kExact, PlanTier::kFast}) {
      for (const ObjectiveCase& oc : objective_cases()) {
        PlanConfig cfg;
        cfg.optimizer = oc.cfg;
        cfg.tier = tier;
        cfg.decompose = front == kPlannerDecompose;
        const Pin& pin = pins[i++];
        DecomposedPlanner decomposed_planner;
        Planner planner(4);
        Digest d;
        for (const MeasurementSnapshot* snap : rounds) {
          const RatePlan plan =
              front == kDecomposedPlanner
                  ? decomposed_planner.plan(
                        *snap, InterferenceModelKind::kLirTable, flows, cfg)
                  : planner.plan(*snap, InterferenceModelKind::kLirTable,
                                 flows, cfg);
          ASSERT_TRUE(plan.ok) << pin.name;
          d.add(plan_digest(plan));
        }
        if (front == kDecomposedPlanner)
          EXPECT_EQ(decomposed_planner.stats().decomposed_rounds, 2u);
        if (front == kPlannerDecompose)
          EXPECT_EQ(planner.decompose_stats().decomposed_rounds, 2u);
        EXPECT_EQ(d.h, pin.digest) << pin.name << ": 0x" << std::hex << d.h;
      }
    }
  }
}

/// small_city() with cluster 0's conflict graph thinned from a 5-clique to
/// the 5-cycle 0-1-2-3-4-0: the chords (i, i + 2) stop conflicting. The
/// component stays connected, its greedy seed columns miss the maximal set
/// {2, 4}, and the pricing oracle has to admit it.
MeasurementSnapshot thinned_small_city() {
  MeasurementSnapshot snap = build_city_snapshot(small_city());
  const std::vector<int> c0 = city_cluster_links(small_city(), 0);
  for (int i = 0; i < 5; ++i) {
    const int a = c0[static_cast<std::size_t>(i)];
    const int b = c0[static_cast<std::size_t>((i + 2) % 5)];
    snap.lir(a, b) = snap.lir(b, a) = 1.0;
  }
  return snap;
}

TEST(PlanTiers, DecomposedFastTierAdmitsColumnsOnNonCliqueComponent) {
  // Each objective: a cold round, then a warm one on drifted capacities,
  // through one DecomposedPlanner per tier. The fast tier must price a
  // column in, stay within the 1e-6 gap of the exact tier, and reproduce
  // its pinned plan bits.
  struct Pin {
    const char* name;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"maxthru", 0xb34756f034e2b4e7ull},
      {"pf", 0xe82e8d9925a4fc24ull},
      {"maxmin", 0xdf528373c7de5e26ull},
      {"alpha2", 0x8481ef3c17eb0996ull},
  };
  const MeasurementSnapshot cold = thinned_small_city();
  MeasurementSnapshot drifted = cold;
  for (std::size_t l = 0; l < drifted.links.size(); ++l)
    drifted.links[l].estimate.capacity_bps *= 1.0 + 0.01 * (l % 3);
  const MeasurementSnapshot* rounds[] = {&cold, &drifted};
  const std::vector<FlowSpec> flows = city_flows(small_city());
  std::size_t i = 0;
  for (const ObjectiveCase& oc : objective_cases()) {
    const Pin& pin = pins[i++];
    PlanConfig exact_cfg;
    exact_cfg.optimizer = oc.cfg;
    PlanConfig fast_cfg = exact_cfg;
    fast_cfg.tier = PlanTier::kFast;
    DecomposedPlanner exact_planner;
    DecomposedPlanner fast_planner;
    Digest d;
    for (const MeasurementSnapshot* snap : rounds) {
      const RatePlan exact = exact_planner.plan(
          *snap, InterferenceModelKind::kLirTable, flows, exact_cfg);
      const RatePlan fast = fast_planner.plan(
          *snap, InterferenceModelKind::kLirTable, flows, fast_cfg);
      ASSERT_TRUE(exact.ok && fast.ok) << pin.name;
      EXPECT_NEAR(fast.objective_value, exact.objective_value,
                  1e-6 * std::max(1.0, std::abs(exact.objective_value)))
          << pin.name;
      d.add(plan_digest(fast));
    }
    EXPECT_EQ(fast_planner.stats().decomposed_rounds, 2u) << pin.name;
    EXPECT_GT(fast_planner.stats().columns_admitted, 0u) << pin.name;
    // Cluster 0's masters price; the two clique clusters' are certified.
    EXPECT_GT(fast_planner.stats().pricing_rounds, 0u) << pin.name;
    EXPECT_GT(fast_planner.stats().certified_masters, 0u) << pin.name;
    EXPECT_EQ(d.h, pin.digest) << pin.name << ": 0x" << std::hex << d.h;
  }
}

/// The deterministic fields of every record one observed decomposed
/// fast-tier PF round on the small city emits through `planner`: cache and
/// model records of each component planner and one kComponentSolve span
/// per active component.
void expect_decomposed_trace_bits(DecomposedPlanner& planner) {
  const CityParams p = small_city();
  TraceRecorder recorder;
  planner.set_observer(&recorder);
  recorder.set_context(0, 0);
  PlanConfig cfg;
  cfg.optimizer.objective = Objective::kProportionalFair;
  cfg.tier = PlanTier::kFast;
  ASSERT_TRUE(planner
                  .plan(build_city_snapshot(p),
                        InterferenceModelKind::kLirTable, city_flows(p), cfg)
                  .ok);
  const std::vector<ObsRecord> records = recorder.canonical_records(false);
  Digest d;
  for (const ObsRecord& r : records) {
    d.add(r.round);
    d.add(static_cast<std::uint64_t>(r.lane));
    d.add(static_cast<std::uint64_t>(r.seq));
    d.add(static_cast<std::uint64_t>(r.stage));
    d.add(static_cast<std::uint64_t>(r.kind));
    d.add(static_cast<std::uint64_t>(r.code));
    d.add(r.a);
    d.add(r.b);
  }
  EXPECT_EQ(records.size(), 9u);
  EXPECT_EQ(d.h, 0x6a6be97f9e966874ull) << "0x" << std::hex << d.h;
}

TEST(PlanTiers, DecomposedFastTierTraceBitsPinned) {
  DecomposedPlanner planner;
  expect_decomposed_trace_bits(planner);
}

TEST(PlanTiers, DecomposedPooledTraceEqualsSerialTrace) {
  // Component jobs on four threads write job-local recorders that the
  // planner re-emits in component order: the same records, seq numbers
  // included, as a round whose components ran one after another.
  SweepRunner pool4(4);
  DecomposedPlanner planner(&pool4);
  expect_decomposed_trace_bits(planner);
}

}  // namespace
}  // namespace meshopt
