// Observability-plane tests (ARCHITECTURE.md, "Observability").
//
// Pins the TraceRecorder contract — ring wrap accounting, span-only
// sampling, (lane, round) context sequencing, deterministic absorption —
// the flight recorder (window extraction, incident caps, structured JSON),
// and the determinism headline: a fixed replay or fault run produces
// bit-identical trace records whatever the pool thread count, controller,
// fleet, and serving plane alike. The Chrome trace exporter is pinned
// byte-exactly against a hand-crafted golden fixture (synthetic records:
// real controller traces carry bit-cast FP payloads that legitimately
// drift across architectures) and structurally on real fleet traces.

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/guard.h"
#include "obs/export.h"
#include "probe/live_source.h"
#include "scenario/faults.h"
#include "scenario/topologies.h"
#include "scenario/workbench.h"
#include "serve/plan_service.h"
#include "sweep/controller_fleet.h"
#include "util/json.h"
#include "util/rng.h"

namespace meshopt {
namespace {

// ---------------------------------------------------------------- recorder

TEST(TraceRecorder, RingWrapsAndCountsDrops) {
  ObsConfig cfg;
  cfg.ring_capacity = 8;
  TraceRecorder rec(cfg);
  for (std::uint64_t r = 0; r < 12; ++r) {
    rec.set_context(0, r);
    rec.emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheHit, r);
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.records_emitted(), 12u);
  EXPECT_EQ(rec.records_dropped(), 4u);
  // The oldest four rounds were overwritten; the survivors are 4..11.
  const std::vector<ObsRecord> recs = rec.canonical_records();
  ASSERT_EQ(recs.size(), 8u);
  EXPECT_EQ(recs.front().round, 4u);
  EXPECT_EQ(recs.back().round, 11u);
}

TEST(TraceRecorder, SamplingDropsSpansButKeepsEvents) {
  ObsConfig cfg;
  cfg.sample_every = 2;
  TraceRecorder rec(cfg);
  for (std::uint64_t r = 0; r < 4; ++r) {
    rec.set_context(0, r);
    rec.emit(ObsStage::kRound, ObsKind::kSpan, ObsCode::kNone);
    rec.emit(ObsStage::kHealth, ObsKind::kEvent, ObsCode::kRecovery);
  }
  std::size_t spans = 0, events = 0;
  for (const ObsRecord& r : rec.canonical_records()) {
    (r.kind == ObsKind::kSpan ? spans : events) += 1;
    if (r.kind == ObsKind::kSpan) EXPECT_EQ(r.round % 2, 0u);
  }
  EXPECT_EQ(spans, 2u);   // rounds 0 and 2 only
  EXPECT_EQ(events, 4u);  // events always recorded
}

TEST(TraceRecorder, SequenceResetsOnlyWhenContextChanges) {
  TraceRecorder rec;
  rec.set_context(0, 0);
  rec.emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheHit);
  rec.emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheHit);
  rec.set_context(0, 0);  // same pair: seq continues
  rec.emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheHit);
  rec.set_context(0, 1);  // new round: seq restarts
  rec.emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheHit);
  rec.set_context(1, 1);  // new lane: seq restarts
  rec.emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheHit);
  const std::vector<ObsRecord> recs = rec.canonical_records();
  ASSERT_EQ(recs.size(), 5u);
  EXPECT_EQ(recs[0].seq, 0u);
  EXPECT_EQ(recs[1].seq, 1u);
  EXPECT_EQ(recs[2].seq, 2u);
  EXPECT_EQ(recs[3].seq, 0u);  // (0, 1)
  EXPECT_EQ(recs[4].seq, 0u);  // (1, 1)
}

TEST(TraceRecorder, DeterministicEqualIgnoresWallEnrichment) {
  ObsRecord x;
  x.round = 3;
  x.stage = ObsStage::kPlan;
  x.kind = ObsKind::kSpan;
  x.a = 42;
  ObsRecord y = x;
  y.wall_ns = 123456;
  y.wall_dur_ns = 789;
  EXPECT_TRUE(deterministic_equal(x, y));
  y.a = 43;
  EXPECT_FALSE(deterministic_equal(x, y));
}

TEST(TraceRecorder, ClearKeepsConfigAndContext) {
  TraceRecorder rec;
  rec.set_context(7, 9);
  rec.emit(ObsStage::kPlan, ObsKind::kSpan, ObsCode::kNone);
  rec.trigger_incident(ObsCode::kPlanReject, "x");
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.records_emitted(), 0u);
  EXPECT_TRUE(rec.incidents().empty());
  EXPECT_EQ(rec.lane(), 7u);
  EXPECT_EQ(rec.round(), 9u);
}

TEST(TraceRecorder, AbsorbMergesCountersAndClearsTheSource) {
  ObsConfig small;
  small.ring_capacity = 4;
  TraceRecorder local(small);
  local.set_context(5, 0);
  for (int i = 0; i < 5; ++i)
    local.emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheMiss,
               static_cast<std::uint64_t>(i));
  ASSERT_EQ(local.records_emitted(), 5u);
  ASSERT_EQ(local.records_dropped(), 1u);

  TraceRecorder main;
  main.absorb(local);
  // Lifetime totals carry over: 5 emitted (not 4 re-counted), 1 dropped.
  EXPECT_EQ(main.size(), 4u);
  EXPECT_EQ(main.records_emitted(), 5u);
  EXPECT_EQ(main.records_dropped(), 1u);
  // The source is cleared but keeps its config and ambient context.
  EXPECT_EQ(local.size(), 0u);
  EXPECT_EQ(local.records_emitted(), 0u);
  EXPECT_EQ(local.lane(), 5u);
}

TEST(TraceRecorder, AbsorbOrderBreaksCanonicalTies) {
  // Two producers reusing the same (lane, round, seq): the canonical sort
  // is stable, so absorption order decides — which is why orchestrators
  // must absorb in deterministic (job-index / batch) order.
  auto make = [](std::uint64_t payload) {
    TraceRecorder r;
    r.set_context(0, 0);
    r.emit(ObsStage::kSegment, ObsKind::kSpan, ObsCode::kNone, payload);
    return r;
  };
  TraceRecorder ab, ba;
  {
    TraceRecorder a = make(1), b = make(2);
    ab.absorb(a);
    ab.absorb(b);
  }
  {
    TraceRecorder a = make(1), b = make(2);
    ba.absorb(b);
    ba.absorb(a);
  }
  EXPECT_EQ(ab.canonical_records().front().a, 1u);
  EXPECT_EQ(ba.canonical_records().front().a, 2u);
}

// ---------------------------------------------------------- flight recorder

TEST(FlightRecorder, WindowCoversTheLastNRounds) {
  ObsConfig cfg;
  cfg.flight_window = 3;
  TraceRecorder rec(cfg);
  for (std::uint64_t r = 0; r < 10; ++r) {
    rec.set_context(0, r);
    rec.emit(ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheHit, r);
  }
  rec.trigger_incident(ObsCode::kPlanReject, "guardrail said no");
  ASSERT_EQ(rec.incidents().size(), 1u);
  const IncidentReport& inc = rec.incidents()[0];
  EXPECT_EQ(inc.code, ObsCode::kPlanReject);
  EXPECT_EQ(inc.round, 9u);
  EXPECT_EQ(inc.detail, "guardrail said no");
  // Rounds 7..9: three cache events plus the trigger's own health event.
  ASSERT_EQ(inc.window.size(), 4u);
  EXPECT_EQ(inc.window.front().round, 7u);
  EXPECT_EQ(inc.window.back().stage, ObsStage::kHealth);
  EXPECT_EQ(inc.window.back().code, ObsCode::kPlanReject);

  // The structured report parses and mirrors the window.
  const JsonValue doc = JsonValue::parse(inc.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "meshopt-incident-v1");
  EXPECT_EQ(doc.at("code").as_string(), "plan_reject");
  EXPECT_EQ(doc.at("round").as_int(), 9);
  EXPECT_EQ(doc.at("records").items().size(), inc.window.size());
  EXPECT_TRUE(doc.at("health").items().empty());  // no transition records
  EXPECT_EQ(doc.at("stages").items().size(), 2u);  // cache + health
}

TEST(FlightRecorder, ReportsBeyondTheCapAreCountedNotStored) {
  ObsConfig cfg;
  cfg.max_incidents = 1;
  TraceRecorder rec(cfg);
  for (int i = 0; i < 3; ++i) rec.trigger_incident(ObsCode::kCellError);
  EXPECT_EQ(rec.incidents().size(), 1u);
  EXPECT_EQ(rec.incidents_dropped(), 2u);
}

// ------------------------------------------- controller + flight recorder

ControllerConfig guard_test_config() {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 40;
  cfg.optimizer.objective = Objective::kProportionalFair;
  return cfg;
}

/// Gateway-chain controller with the two standard flows, ready to sense
/// (mirrors tests/test_guard.cpp's rig).
struct GuardedRig {
  Workbench wb;
  MeshController ctl;

  explicit GuardedRig(std::uint64_t seed)
      : wb(seed), ctl(wb.net(), guard_test_config(), seed) {
    build_gateway_chain(wb);
    ManagedFlow far;
    far.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
    far.path = {0, 1, 2};
    ctl.manage_flow(far);
    ManagedFlow near;
    near.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
    near.path = {3, 2};
    ctl.manage_flow(near);
  }

  MeasurementSnapshot sense() {
    ctl.sense_window(wb);
    return ctl.snapshot();
  }
};

TEST(FlightRecorder, FiresOnFallbackEntryWithTheTransitionRound) {
  GuardedRig rig(53);
  rig.ctl.set_guard(GuardConfig{});
  TraceRecorder obs;
  rig.ctl.set_observer(&obs);
  const MeasurementSnapshot good = rig.sense();

  ASSERT_TRUE(rig.ctl.guarded_step(good).ok);        // trace round 0
  RoundResult round = rig.ctl.guarded_step(MeasurementSnapshot{});  // round 1
  ASSERT_EQ(round.health, HealthState::kFallback);

  ASSERT_EQ(obs.incidents().size(), 1u);
  const IncidentReport& inc = obs.incidents()[0];
  EXPECT_EQ(inc.code, ObsCode::kFallbackEntry);
  EXPECT_EQ(inc.lane, 0u);

  // The incident round is exactly the round of the HEALTHY->FALLBACK
  // transition event in the trace.
  const std::vector<ObsRecord> recs = obs.canonical_records(false);
  const ObsRecord* transition = nullptr;
  bool saw_reject = false;
  for (const ObsRecord& r : recs) {
    if (r.stage == ObsStage::kHealth && r.code == ObsCode::kHealthTransition &&
        r.b == static_cast<std::uint64_t>(HealthState::kFallback))
      transition = &r;
    saw_reject |= r.code == ObsCode::kSnapshotReject;
  }
  ASSERT_NE(transition, nullptr);
  EXPECT_TRUE(saw_reject);
  EXPECT_EQ(inc.round, transition->round);
  EXPECT_EQ(inc.round, 1u);

  // The structured report carries the trajectory into FALLBACK.
  const JsonValue doc = JsonValue::parse(inc.to_json());
  const std::vector<JsonValue>& health = doc.at("health").items();
  ASSERT_FALSE(health.empty());
  EXPECT_EQ(health.back().at("to").as_string(), "FALLBACK");

  // Backoff skip, then recovery — both land as always-on events.
  (void)rig.ctl.guarded_step(good);
  (void)rig.ctl.guarded_step(good);
  bool saw_backoff = false, saw_recovery = false;
  for (const ObsRecord& r : obs.canonical_records(false)) {
    saw_backoff |= r.code == ObsCode::kBackoffSkip;
    saw_recovery |= r.code == ObsCode::kRecovery;
  }
  EXPECT_TRUE(saw_backoff);
  EXPECT_TRUE(saw_recovery);
}

/// run_round and guarded_round over a LiveSource are one control round:
/// the same seed yields the same trace records — the validate span
/// included — and the same health counters.
TEST(ControllerTrace, RunRoundTracesLikeTheGuardedLiveRound) {
  GuardedRig a(59);
  GuardedRig b(59);
  TraceRecorder obs_a;
  TraceRecorder obs_b;
  a.ctl.set_observer(&obs_a);
  b.ctl.set_observer(&obs_b);
  LiveSource live(b.wb, b.ctl);
  for (int r = 0; r < 4; ++r) {
    (void)a.ctl.run_round(a.wb);
    (void)b.ctl.guarded_round(live);
  }

  const std::vector<ObsRecord> ra = obs_a.canonical_records(false);
  const std::vector<ObsRecord> rb = obs_b.canonical_records(false);
  ASSERT_EQ(ra.size(), rb.size());
  std::size_t validate_spans = 0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_TRUE(deterministic_equal(ra[i], rb[i])) << "record " << i;
    validate_spans += ra[i].stage == ObsStage::kValidate ? 1 : 0;
  }
  EXPECT_EQ(validate_spans, 4u);
  EXPECT_EQ(a.ctl.health_stats(), b.ctl.health_stats());
  EXPECT_EQ(a.ctl.health_stats().rounds, 4u);
  EXPECT_EQ(a.ctl.last_plan(), b.ctl.last_plan());
}

// ------------------------------------------------ chrome trace exporter

std::string obs_golden_path() {
  return std::string(MESHOPT_SOURCE_DIR) + "/tests/data/obs_trace_golden.json";
}

/// Hand-crafted records exercising every exporter surface: round/nested
/// spans, instant events, the component sub-lane, two lanes. Synthetic on
/// purpose — controller traces carry bit-cast FP payloads that drift
/// across architectures, and the golden is compared byte-exactly.
std::vector<ObsRecord> synthetic_records() {
  auto rec = [](std::uint64_t round, std::uint32_t lane, std::uint32_t seq,
                ObsStage stage, ObsKind kind, ObsCode code, std::uint64_t a,
                std::uint64_t b) {
    ObsRecord r;
    r.round = round;
    r.lane = lane;
    r.seq = seq;
    r.stage = stage;
    r.kind = kind;
    r.code = code;
    r.a = a;
    r.b = b;
    return r;
  };
  return {
      rec(0, 0, 0, ObsStage::kRound, ObsKind::kSpan, ObsCode::kNone, 0, 0),
      rec(0, 0, 1, ObsStage::kCache, ObsKind::kEvent, ObsCode::kCacheMiss,
          0x1234abcd, 0),
      rec(0, 0, 2, ObsStage::kPlan, ObsKind::kSpan, ObsCode::kNone, 2,
          0xdeadbeef),
      rec(1, 0, 0, ObsStage::kRound, ObsKind::kSpan, ObsCode::kNone, 0, 0),
      rec(1, 0, 1, ObsStage::kHealth, ObsKind::kEvent,
          ObsCode::kHealthTransition, 0, 2),
      rec(1, 0, 2, ObsStage::kHealth, ObsKind::kEvent, ObsCode::kFallbackEntry,
          0, 0),
      rec(0, 1, 0, ObsStage::kComponent, ObsKind::kSpan,
          ObsCode::kComponentSolve, 3, (5ull << 32) | 2),
      rec(0, 1, 1, ObsStage::kComponent, ObsKind::kEvent,
          ObsCode::kFallbackCross, 0, 0),
  };
}

/// Structural contract every exported trace must satisfy (the same checks
/// tools/check_trace_json.py runs in CI): parses, every event carries the
/// required keys, and ts is monotone within each (pid, tid) lane.
void validate_chrome_trace(const std::string& json, std::size_t min_events) {
  const JsonValue doc = JsonValue::parse(json);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const std::vector<JsonValue>& events = doc.at("traceEvents").items();
  EXPECT_GE(events.size(), min_events);
  std::map<std::pair<int, int>, double> last_ts;
  std::size_t timed = 0;
  for (const JsonValue& ev : events) {
    const std::string& ph = ev.at("ph").as_string();
    ASSERT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
    const int pid = ev.at("pid").as_int();
    const int tid = ev.at("tid").as_int();
    if (ph == "M") {
      EXPECT_NE(ev.at("args").find("name"), nullptr);
      continue;
    }
    ++timed;
    const double ts = ev.at("ts").as_number();
    if (ph == "X") EXPECT_GE(ev.at("dur").as_number(), 0.0);
    auto [it, fresh] = last_ts.try_emplace({pid, tid}, ts);
    if (!fresh) {
      EXPECT_LE(it->second, ts) << "lane (" << pid << ", " << tid << ")";
      it->second = ts;
    }
    EXPECT_NE(ev.at("args").find("round"), nullptr);
  }
  EXPECT_GE(timed, min_events > 0 ? 1u : 0u);
}

TEST(ChromeTrace, GoldenFixtureIsByteExact) {
  const std::string json = chrome_trace_json(synthetic_records());
  validate_chrome_trace(json, synthetic_records().size());

  if (std::getenv("MESHOPT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(obs_golden_path());
    ASSERT_TRUE(out.is_open()) << obs_golden_path();
    out << json << "\n";
    GTEST_SKIP() << "regenerated " << obs_golden_path();
  }

  std::ifstream in(obs_golden_path());
  ASSERT_TRUE(in.is_open())
      << obs_golden_path()
      << " missing; regenerate with MESHOPT_REGEN_GOLDEN=1 ./test_obs";
  std::stringstream buf;
  buf << in.rdbuf();
  // The exporter output is deterministic down to the byte: synthetic
  // records use only integer payloads and synthesized timestamps.
  EXPECT_EQ(buf.str(), json + "\n");
}

// --------------------------------------------------- fleet trace identity

CityParams small_city() {
  CityParams p;
  p.clusters = 3;
  p.links_per_cluster = 5;
  p.bridge_links = 2;
  p.flows_per_cluster = 2;
  p.seed = 7;
  return p;
}

TEST(FleetTrace, ReplayTraceIsBitIdenticalAcrossThreadCounts) {
  const CityParams p = small_city();
  std::vector<MeasurementSnapshot> trace;
  for (int r = 0; r < 4; ++r) {
    MeasurementSnapshot snap = build_city_snapshot(p);
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= 1.0 + 0.005 * r;
    trace.push_back(std::move(snap));
  }
  ReplayCell cell;
  cell.flows = city_flows(p);
  cell.plan.optimizer.objective = Objective::kProportionalFair;
  cell.plan.tier = PlanTier::kFast;
  cell.plan.decompose = true;
  cell.interference = InterferenceModelKind::kLirTable;
  ReplayOptions opts;
  opts.segment_rounds = 2;

  auto run = [&](int threads, TraceRecorder& obs) {
    ControllerFleet fleet(threads);
    fleet.set_observer(&obs);
    return fleet.replay({cell}, trace, opts);
  };
  TraceRecorder obs1, obs4;
  const auto r1 = run(1, obs1);
  const auto r4 = run(4, obs4);
  ASSERT_TRUE(r1[0].ok);
  EXPECT_EQ(r1[0].plans, r4[0].plans);

  const std::vector<ObsRecord> a = obs1.canonical_records(false);
  const std::vector<ObsRecord> b = obs4.canonical_records(false);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(deterministic_equal(a[i], b[i])) << "record " << i;
  // The exported trace is therefore byte-identical too.
  const std::string json = chrome_trace_json(obs1);
  EXPECT_EQ(json, chrome_trace_json(obs4));
  validate_chrome_trace(json, a.size());

  // The trace shows the replay's structure: one segment span per pool job
  // and per-component solve spans from the decomposition tier.
  std::size_t segments = 0, comp_solves = 0;
  for (const ObsRecord& r : a) {
    segments += r.stage == ObsStage::kSegment && r.kind == ObsKind::kSpan;
    comp_solves += r.code == ObsCode::kComponentSolve;
  }
  EXPECT_EQ(segments, 2u);  // 4 rounds sharded into 2-round segments
  EXPECT_GT(comp_solves, 0u);
}

TEST(FleetTrace, LiveFaultRunTracesIncidentsDeterministically) {
  auto make_cells = [] {
    std::vector<FleetCell> cells(2);
    for (FleetCell& cell : cells) {
      cell.build_topology = [](Workbench& wb) { build_gateway_chain(wb); };
      cell.flows = {FleetFlow{{0, 1, 2}}, FleetFlow{{3, 2}}};
      cell.controller = guard_test_config();
      cell.controller.probe_window = 20;
      cell.rounds = 12;
      cell.faults = [](std::uint64_t seed) {
        return window_dropout_faults(12, 0.5, RngStream(seed, "drop"));
      };
    }
    cells[1].flows = {FleetFlow{{0}}};  // invalid: throws in cell setup
    return cells;
  };
  auto run = [&](int threads, TraceRecorder& obs) {
    ControllerFleet fleet(threads);
    fleet.set_observer(&obs);
    return fleet.run(make_cells(), 911);
  };
  TraceRecorder obs1, obs4;
  const auto r1 = run(1, obs1);
  const auto r4 = run(4, obs4);
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_TRUE(r1[0].error.empty()) << r1[0].error;
  ASSERT_GT(r1[0].health.fallback_entries, 0u);
  EXPECT_FALSE(r1[1].error.empty());

  // The healthy cell's dropouts fire the flight recorder; the dead cell
  // lands as a kCellError incident carrying the exception text.
  std::size_t fallbacks = 0, cell_errors = 0;
  for (const IncidentReport& inc : obs1.incidents()) {
    if (inc.code == ObsCode::kFallbackEntry) {
      ++fallbacks;
      EXPECT_EQ(inc.lane, 0u);
    } else if (inc.code == ObsCode::kCellError) {
      ++cell_errors;
      EXPECT_EQ(inc.lane, 1u);
      EXPECT_EQ(inc.detail, r1[1].error);
    }
  }
  EXPECT_EQ(fallbacks, r1[0].health.fallback_entries);
  EXPECT_EQ(cell_errors, 1u);

  // Trace and incidents are bit-identical across thread counts.
  const std::vector<ObsRecord> a = obs1.canonical_records(false);
  const std::vector<ObsRecord> b = obs4.canonical_records(false);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(deterministic_equal(a[i], b[i])) << "record " << i;
  ASSERT_EQ(obs1.incidents().size(), obs4.incidents().size());
  for (std::size_t i = 0; i < obs1.incidents().size(); ++i) {
    const IncidentReport& x = obs1.incidents()[i];
    const IncidentReport& y = obs4.incidents()[i];
    EXPECT_EQ(x.code, y.code);
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.lane, y.lane);
    EXPECT_EQ(x.detail, y.detail);
    EXPECT_EQ(x.window.size(), y.window.size());
  }
}

// --------------------------------------------------- serve trace identity

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

/// The serving claim's scale: 2000 tenants, three rounds each, mixing
/// exact/fast and guarded/unguarded sessions.
TEST(ServeTrace, BitIdenticalAcrossPoolThreads) {
  constexpr std::uint32_t kTenants = 2000;
  std::vector<FlowSpec> flows(2);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2};
  flows[1].flow_id = 1;
  flows[1].path = {3, 2};
  const std::vector<MeasurementSnapshot> pool = {chain_snapshot()};
  const ServeScript script = staggered_replay_script(
      kTenants, /*rounds_per_tenant=*/3, /*pool_rounds=*/1,
      /*ticks_per_round=*/2, /*seed=*/42);

  auto run = [&](int threads, TraceRecorder& obs) {
    ServeConfig cfg;
    cfg.threads = threads;
    PlanService svc(cfg);
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      TenantConfig tc;
      tc.flows = flows;
      tc.plan.tier = t % 2 == 0 ? PlanTier::kExact : PlanTier::kFast;
      tc.guarded = t % 3 == 0;
      svc.add_tenant(std::move(tc));
    }
    svc.set_observer(&obs);
    return svc.run_script(script, pool);
  };
  // A ring large enough that no record is overwritten.
  ObsConfig big;
  big.ring_capacity = 1 << 17;
  TraceRecorder obs1(big), obs4(big);
  const ServeReport r1 = run(1, obs1);
  const ServeReport r4 = run(4, obs4);
  EXPECT_EQ(r1.served.size(), 3u * kTenants);
  EXPECT_EQ(r1.served, r4.served);

  const std::vector<ObsRecord> a = obs1.canonical_records(false);
  const std::vector<ObsRecord> b = obs4.canonical_records(false);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.size(), obs1.records_emitted());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(deterministic_equal(a[i], b[i])) << "record " << i;

  // One serve span per served plan, stamped (tenant lane, round seq).
  std::size_t serve_spans = 0;
  for (const ObsRecord& r : a)
    serve_spans += r.stage == ObsStage::kServe && r.kind == ObsKind::kSpan;
  EXPECT_EQ(serve_spans, r1.served.size());
}

// ------------------------------------------------- prometheus stage text

TEST(PrometheusStageText, WellFormedAndCountsMatch) {
  TraceRecorder rec;
  rec.set_context(0, 0);
  // Explicit wall durations populate the stage histograms independently of
  // the wall_clock config knob (the fields are caller-supplied).
  rec.emit(ObsStage::kPlan, ObsKind::kSpan, ObsCode::kNone, 0, 0,
           /*wall_ns=*/100, /*wall_dur_ns=*/5000);
  rec.emit(ObsStage::kApply, ObsKind::kSpan, ObsCode::kNone, 0, 0,
           /*wall_ns=*/120, /*wall_dur_ns=*/2500);
  rec.emit(ObsStage::kHealth, ObsKind::kEvent, ObsCode::kRecovery);

  const std::string text = prometheus_stage_text(rec);
  EXPECT_NE(text.find("# TYPE meshopt_stage_wall_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("meshopt_stage_wall_ns_count{stage=\"plan\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("meshopt_stage_wall_ns_bucket{stage=\"apply\",le=\"+Inf\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("meshopt_obs_records_emitted_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("meshopt_obs_incidents_total 0"), std::string::npos);

  // Exposition-format shape: every non-comment line is "<name> <value>"
  // with a parseable value ("+Inf" only ever appears inside le labels).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    ASSERT_GT(sp, 0u) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(sp + 1))) << line;
  }
}

}  // namespace
}  // namespace meshopt
