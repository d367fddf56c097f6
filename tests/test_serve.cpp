// Plan-serving subsystem tests (ARCHITECTURE.md, "Serving plane").
//
// Pins the serving determinism contract — for a fixed ServeScript, every
// submit result, every served plan, and the whole deterministic metrics
// plane are bit-identical across pool thread counts — plus the admission
// policy (auto/stale sequencing, coalescing, per-tenant and global queue
// bounds, unknown tenants), guarded tenants (repair and reject verdicts
// surfacing in plans and counters), the wire framing (round trips in both
// snapshot formats, malformed-frame rejection, incremental decode), and
// the metrics JSON document.

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/guard.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "serve/plan_service.h"
#include "serve/wire.h"
#include "sweep/controller_fleet.h"
#include "util/json.h"
#include "util/rng.h"

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

std::vector<FlowSpec> chain_flows() {
  std::vector<FlowSpec> flows(2);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2};
  flows[1].flow_id = 1;
  flows[1].path = {3, 2};
  return flows;
}

/// A capacity-perturbed copy (same topology, different round measurement).
MeasurementSnapshot perturbed_snapshot(double scale) {
  MeasurementSnapshot snap = chain_snapshot();
  for (SnapshotLink& l : snap.links) l.estimate.capacity_bps *= scale;
  return snap;
}

TenantConfig chain_tenant(PlanTier tier, bool guarded = false) {
  TenantConfig cfg;
  cfg.flows = chain_flows();
  cfg.plan.tier = tier;
  cfg.guarded = guarded;
  return cfg;
}

/// A snapshot the guard's repair tier fixes by DROPPING a poisoned link
/// (NaN capacity) that no flow path uses — the surviving links still plan.
MeasurementSnapshot repairable_snapshot() {
  MeasurementSnapshot snap = chain_snapshot();
  SnapshotLink extra;
  extra.src = 1;
  extra.dst = 3;
  extra.rate = Rate::kR11Mbps;
  extra.estimate.p_link = 0.02;
  extra.estimate.capacity_bps = std::numeric_limits<double>::quiet_NaN();
  snap.links.push_back(extra);
  return snap;
}

/// A snapshot the guard must reject (no links at all).
MeasurementSnapshot rejected_snapshot() { return MeasurementSnapshot{}; }

// ------------------------------------------------------------ determinism

/// The headline pin: identical tenants + identical script => bit-identical
/// submit results, served plans, and deterministic metrics JSON across
/// pool thread counts (1 vs 4), mixed tiers and guard modes included.
TEST(ServeDeterminism, BitIdenticalAcrossPoolThreads) {
  const std::vector<MeasurementSnapshot> pool = {
      chain_snapshot(), perturbed_snapshot(0.8), repairable_snapshot()};
  const std::uint32_t kTenants = 8;
  const ServeScript script = staggered_replay_script(
      kTenants, /*rounds_per_tenant=*/4, /*pool_rounds=*/3,
      /*ticks_per_round=*/2, /*seed=*/42, /*burst_every=*/3);

  auto build = [&](int threads) {
    ServeConfig cfg;
    cfg.threads = threads;
    auto svc = std::make_unique<PlanService>(cfg);
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      TenantConfig tc = chain_tenant(
          t % 2 == 0 ? PlanTier::kExact : PlanTier::kFast,
          /*guarded=*/t % 3 == 0);
      tc.coalesce = t % 4 != 1;  // some tenants queue, some coalesce
      svc->add_tenant(std::move(tc));
    }
    return svc;
  };

  auto svc1 = build(1);
  auto svc4 = build(4);
  const ServeReport r1 = svc1->run_script(script, pool);
  const ServeReport r4 = svc4->run_script(script, pool);

  ASSERT_EQ(r1.submit_results.size(), script.events.size());
  EXPECT_EQ(r1.submit_results, r4.submit_results);
  ASSERT_FALSE(r1.served.empty());
  EXPECT_EQ(r1.served, r4.served);  // RatePlan bit-equality included
  EXPECT_EQ(r1.final_tick, r4.final_tick);
  // The deterministic metrics plane is byte-stable; wall-clock sketches
  // are the one surface deliberately outside the contract.
  EXPECT_EQ(svc1->metrics_json(/*include_wall=*/false),
            svc4->metrics_json(/*include_wall=*/false));
}

/// Served order within a batch is ascending tenant id, and per tenant the
/// rounds come out in sequence order.
TEST(ServeDeterminism, ServedOrderIsBatchThenTenant) {
  const std::vector<MeasurementSnapshot> pool = {chain_snapshot()};
  PlanService svc;
  for (int t = 0; t < 3; ++t) svc.add_tenant(chain_tenant(PlanTier::kExact));
  ServeScript script;
  for (int r = 0; r < 2; ++r)
    for (std::uint32_t t = 0; t < 3; ++t)
      script.events.push_back({/*tick=*/r, t, /*snapshot_ref=*/0});
  const ServeReport rep = svc.run_script(script, pool);
  ASSERT_EQ(rep.served.size(), 6u);
  for (std::size_t i = 0; i < rep.served.size(); ++i) {
    EXPECT_EQ(rep.served[i].tenant, i % 3);
    EXPECT_EQ(rep.served[i].round_seq, i / 3 + 1);
  }
}

// -------------------------------------------------------------- admission

TEST(ServeAdmission, AutoSequenceIncrementsAndStaleSheds) {
  PlanService svc;
  const std::uint32_t t = svc.add_tenant(chain_tenant(PlanTier::kExact));
  const MeasurementSnapshot snap = chain_snapshot();

  EXPECT_EQ(svc.submit(t, snap, 0), (SubmitResult{SubmitStatus::kAccepted, 1}));
  svc.run_batch(0);
  EXPECT_EQ(svc.last_served_seq(t), 1u);

  // Wire path: an explicitly stale (or equal) sequence sheds.
  EXPECT_EQ(svc.submit_seq(t, snap, 1, 1).status,
            SubmitStatus::kShedStaleRound);
  EXPECT_EQ(svc.submit_seq(t, snap, 7, 1).status, SubmitStatus::kAccepted);
  // Auto-sequencing continues above the declared one.
  EXPECT_EQ(svc.submit(t, snap, 1).round_seq, 8u);
  EXPECT_EQ(svc.metrics().tenant(t).shed_stale_round, 1u);
}

TEST(ServeAdmission, CoalesceSupersedesQueuedRound) {
  PlanService svc;
  const std::uint32_t t = svc.add_tenant(chain_tenant(PlanTier::kExact));

  EXPECT_EQ(svc.submit(t, perturbed_snapshot(0.5), 0).status,
            SubmitStatus::kAccepted);
  const SubmitResult second = svc.submit(t, chain_snapshot(), 1);
  EXPECT_EQ(second, (SubmitResult{SubmitStatus::kCoalesced, 2}));
  EXPECT_EQ(svc.pending(), 1u);  // superseded in place, backlog unchanged

  const ServeBatchReport batch = svc.run_batch(2);
  ASSERT_EQ(batch.served.size(), 1u);
  // The served round is the SECOND submission: its sequence, its
  // snapshot's capacities, and the coalesced submission's enqueue tick.
  EXPECT_EQ(batch.served[0].round_seq, 2u);
  EXPECT_EQ(batch.served[0].submit_tick, 1);
  EXPECT_TRUE(batch.served[0].plan.ok);
  EXPECT_EQ(svc.metrics().tenant(t).coalesced, 1u);
  EXPECT_EQ(svc.metrics().tenant(t).plans_served, 1u);
  EXPECT_EQ(svc.pending(), 0u);
}

TEST(ServeAdmission, TenantQueueBoundShedsWhenCoalesceOff) {
  PlanService svc;
  TenantConfig cfg = chain_tenant(PlanTier::kExact);
  cfg.coalesce = false;
  cfg.queue_limit = 2;
  const std::uint32_t t = svc.add_tenant(std::move(cfg));
  const MeasurementSnapshot snap = chain_snapshot();

  EXPECT_EQ(svc.submit(t, snap, 0).status, SubmitStatus::kAccepted);
  EXPECT_EQ(svc.submit(t, snap, 0).status, SubmitStatus::kAccepted);
  EXPECT_EQ(svc.submit(t, snap, 0).status,
            SubmitStatus::kShedTenantQueueFull);
  EXPECT_EQ(svc.pending(), 2u);
  EXPECT_EQ(svc.metrics().tenant(t).shed_queue_full, 1u);

  // FIFO tenants drain one round per batch, oldest first.
  EXPECT_EQ(svc.run_batch(1).served.at(0).round_seq, 1u);
  EXPECT_EQ(svc.run_batch(2).served.at(0).round_seq, 2u);
}

TEST(ServeAdmission, GlobalBoundShedsButCoalescingStaysAdmitted) {
  ServeConfig cfg;
  cfg.global_queue_limit = 1;
  PlanService svc(cfg);
  const std::uint32_t a = svc.add_tenant(chain_tenant(PlanTier::kExact));
  TenantConfig fifo = chain_tenant(PlanTier::kExact);
  fifo.coalesce = false;
  const std::uint32_t b = svc.add_tenant(std::move(fifo));
  const MeasurementSnapshot snap = chain_snapshot();

  EXPECT_EQ(svc.submit(a, snap, 0).status, SubmitStatus::kAccepted);
  EXPECT_EQ(svc.submit(b, snap, 0).status,
            SubmitStatus::kShedGlobalQueueFull);
  // A coalescing replacement never grows the backlog, so it is admitted
  // even at the global bound.
  EXPECT_EQ(svc.submit(a, snap, 0).status, SubmitStatus::kCoalesced);
  EXPECT_EQ(svc.pending(), 1u);
  EXPECT_EQ(svc.metrics().tenant(b).shed_global_full, 1u);
}

TEST(ServeAdmission, UnknownTenantSheds) {
  PlanService svc;
  svc.add_tenant(chain_tenant(PlanTier::kExact));
  EXPECT_EQ(svc.submit(99, chain_snapshot(), 0).status,
            SubmitStatus::kShedUnknownTenant);
  EXPECT_EQ(svc.metrics().global().shed_unknown_tenant, 1u);
  EXPECT_THROW((void)svc.tenant_config(99), std::invalid_argument);
  EXPECT_THROW((void)svc.last_plan(99), std::invalid_argument);
}

// ------------------------------------------------------------------ guard

TEST(ServeGuard, VerdictsFlowIntoPlansAndCounters) {
  PlanService svc;
  TenantConfig cfg = chain_tenant(PlanTier::kExact, /*guarded=*/true);
  cfg.coalesce = false;  // queue all three rounds instead of superseding
  cfg.queue_limit = 3;
  const std::uint32_t t = svc.add_tenant(std::move(cfg));

  // Repaired FIRST, while the tenant's planner cache is still empty: the
  // repaired round must plan through the uncacheable path and must NOT
  // seed the cache with its repaired topology.
  svc.submit(t, repairable_snapshot(), 0);
  svc.submit(t, chain_snapshot(), 1);
  svc.submit(t, rejected_snapshot(), 2);
  std::vector<ServedPlan> served;
  for (long long tick = 1; svc.pending() > 0; ++tick)
    for (ServedPlan& p : svc.run_batch(tick).served)
      served.push_back(std::move(p));

  ASSERT_EQ(served.size(), 3u);
  EXPECT_EQ(served[0].verdict, SnapshotVerdict::kRepaired);
  EXPECT_TRUE(served[0].plan.ok);
  EXPECT_EQ(served[1].verdict, SnapshotVerdict::kClean);
  EXPECT_TRUE(served[1].plan.ok);
  EXPECT_EQ(served[2].verdict, SnapshotVerdict::kRejected);
  EXPECT_FALSE(served[2].plan.ok);

  const TenantCounters& c = svc.metrics().tenant(t);
  EXPECT_EQ(c.snapshots_clean, 1u);
  EXPECT_EQ(c.snapshots_repaired, 1u);
  EXPECT_EQ(c.snapshots_rejected, 1u);
  EXPECT_EQ(c.plans_served, 2u);
  EXPECT_EQ(c.plans_failed, 1u);
  // Round 1 planned uncacheably (no stored entry), so the clean round 2
  // was still a cold MISS — the cache never held the repaired topology.
  EXPECT_EQ(c.uncacheable_plans, 1u);
  EXPECT_EQ(c.cache_misses, 1u);
  EXPECT_EQ(c.cache_hits, 0u);
}

/// Guarded fleet replay and guarded serve tenants run one stateless
/// guarded round (plan_guarded): clean, repaired and rejected snapshots
/// give the same plans on both, and serve reports each one's verdict.
TEST(ServeGuard, MatchesGuardedReplay) {
  const std::vector<MeasurementSnapshot> trace = {
      chain_snapshot(), repairable_snapshot(), rejected_snapshot()};
  const SnapshotVerdict verdicts[] = {SnapshotVerdict::kClean,
                                      SnapshotVerdict::kRepaired,
                                      SnapshotVerdict::kRejected};
  for (const PlanTier tier : {PlanTier::kExact, PlanTier::kFast}) {
    const TenantConfig cfg = chain_tenant(tier, /*guarded=*/true);
    ReplayCell cell;
    cell.flows = cfg.flows;
    cell.plan = cfg.plan;
    cell.interference = cfg.interference;
    cell.guarded = true;
    cell.guard = cfg.guard;
    ControllerFleet fleet(1);
    ReplayOptions opts;
    opts.planner_cache = cfg.planner_cache;
    const std::vector<ReplayResult> replayed =
        fleet.replay({cell}, trace, opts);

    PlanService svc;
    const std::uint32_t t = svc.add_tenant(cfg);
    for (std::size_t r = 0; r < trace.size(); ++r) {
      const auto tick = static_cast<long long>(r);
      svc.submit(t, trace[r], tick);
      const ServeBatchReport batch = svc.run_batch(tick);
      ASSERT_EQ(batch.served.size(), 1u);
      EXPECT_EQ(batch.served[0].verdict, verdicts[r]) << "round " << r;
      EXPECT_EQ(batch.served[0].plan, replayed[0].plans[r]) << "round " << r;
      EXPECT_EQ(batch.served[0].plan.ok, r < 2) << "round " << r;
    }
  }
}

/// A guarded LIR-table tenant whose flowless last link is poisoned: the
/// repair tier drops the link and re-indexes the LIR table with it, so
/// the round plans on the surviving links. Serve-shaped topologies: 9-12
/// chain links, about 40% of the LIR pairs conflicting.
TEST(ServeGuard, DroppedLinkInLirTenantStillPlans) {
  const std::vector<FlowSpec> flows = {
      {0, {0, 1, 2, 3}, false}, {1, {3, 4, 5}, false}, {2, {6, 7, 8}, false}};
  const PlanValidator plan_check;
  for (const PlanTier tier : {PlanTier::kExact, PlanTier::kFast}) {
    TenantConfig cfg;
    cfg.flows = flows;
    cfg.plan.tier = tier;
    cfg.interference = InterferenceModelKind::kLirTable;
    cfg.guarded = true;
    PlanService svc;
    const std::uint32_t t = svc.add_tenant(cfg);
    long long tick = 0;
    for (std::uint64_t v = 0; v < 16; ++v) {
      RngStream rng(RngStream::mix(29, v), "serve-guard-dropped-link");
      const int links = 9 + static_cast<int>(v % 4);
      MeasurementSnapshot clean;
      for (int i = 0; i < links; ++i) {
        SnapshotLink l;
        l.src = i;
        l.dst = i + 1;
        l.rate = Rate::kR11Mbps;
        l.estimate.capacity_bps = rng.uniform(1.5e6, 5e6);
        l.estimate.p_link = 0.02;
        clean.links.push_back(l);
      }
      clean.lir.resize(links, links, 1.0);
      for (int i = 0; i < links; ++i)
        for (int j = i + 1; j < links; ++j)
          if (rng.bernoulli(0.4)) clean.lir(i, j) = clean.lir(j, i) = 0.4;
      clean.lir_threshold = 0.95;

      for (const bool nan_loss : {true, false}) {
        MeasurementSnapshot poisoned = clean;
        LinkCapacityEstimate& e = poisoned.links.back().estimate;
        if (nan_loss)
          e.p_data = std::numeric_limits<double>::quiet_NaN();
        else
          e.capacity_bps = 0.0;
        svc.submit(t, poisoned, tick);
        const ServeBatchReport batch = svc.run_batch(tick++);
        ASSERT_EQ(batch.served.size(), 1u);
        const ServedPlan& served = batch.served[0];
        const std::string where = "topology " + std::to_string(v) +
                                  (nan_loss ? " NaN loss" : " zero capacity");
        EXPECT_EQ(served.verdict, SnapshotVerdict::kRepaired) << where;
        EXPECT_TRUE(served.plan.ok) << where << ": " << served.error;
        EXPECT_TRUE(plan_check.validate(served.plan, clean, flows).ok)
            << where;
      }
    }
    EXPECT_EQ(svc.metrics().tenant(t).snapshots_repaired, 32u);
    EXPECT_EQ(svc.metrics().tenant(t).plans_failed, 0u);
  }
}

/// Constant-topology rounds after the first hit the tenant's planner
/// cache, and the cache metering shows it.
TEST(ServeGuard, PlannerCacheMeteredPerTenant) {
  PlanService svc;
  const std::uint32_t t = svc.add_tenant(chain_tenant(PlanTier::kExact));
  for (int r = 0; r < 3; ++r) {
    svc.submit(t, perturbed_snapshot(1.0 - 0.1 * r), r);
    svc.run_batch(r);
  }
  const TenantCounters& c = svc.metrics().tenant(t);
  EXPECT_EQ(c.cache_misses, 1u);
  EXPECT_EQ(c.cache_hits, 2u);
  EXPECT_EQ(svc.metrics().global().totals.cache_hits, 2u);
}

// ------------------------------------------------------------------- wire

TEST(ServeWire, SubmitRoundTripsBothFormats) {
  const MeasurementSnapshot snap = chain_snapshot();
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kJson}) {
    SubmitRequest req;
    req.tenant = 7;
    req.round_seq = 11;
    req.format = format;
    req.snapshot = snap;
    std::string buf;
    wire_append_submit(buf, req);

    WireFrame frame;
    const std::size_t used = wire_decode_frame(buf, frame);
    EXPECT_EQ(used, buf.size());
    EXPECT_EQ(frame.kind, WireKind::kSubmit);
    EXPECT_EQ(frame.format, format);
    EXPECT_EQ(frame.tenant, 7u);
    EXPECT_EQ(frame.round_seq, 11u);
    EXPECT_EQ(frame.snapshot, snap);  // bit-exact, both codecs
  }
}

TEST(ServeWire, PlanAndRejectRoundTrip) {
  RatePlan plan;
  plan.ok = true;
  plan.tier = PlanTier::kFast;
  plan.objective_value = 0.1 + 0.2;  // not representable: exercises %.17g
  plan.extreme_points = 5;
  plan.optimizer_iterations = 17;
  plan.columns_generated = 9;
  plan.pricing_rounds = 3;
  plan.y = {1.25e6, std::nextafter(2.5e6, 3e6)};
  plan.x = {1.5e6, 2.75e6};
  plan.shapers.push_back({0, 1.5e6});
  plan.shapers.push_back({1, 2.75e6});

  std::string buf;
  wire_append_plan(buf, 3, 21, plan);
  wire_append_reject(buf, 4, 22, "snapshot rejected");

  WireFrame frame;
  std::size_t used = wire_decode_frame(buf, frame);
  ASSERT_GT(used, 0u);
  EXPECT_EQ(frame.kind, WireKind::kPlan);
  EXPECT_EQ(frame.tenant, 3u);
  EXPECT_EQ(frame.plan, plan);  // doubles bit-exact through JSON

  // Streamed decode: the second frame starts right where the first ended.
  WireFrame frame2;
  const std::size_t used2 =
      wire_decode_frame(std::string_view(buf).substr(used), frame2);
  EXPECT_EQ(used + used2, buf.size());
  EXPECT_EQ(frame2.kind, WireKind::kReject);
  EXPECT_EQ(frame2.round_seq, 22u);
  EXPECT_EQ(frame2.reject_reason, "snapshot rejected");
}

TEST(ServeWire, SubmitFrameDrivesTheService) {
  PlanService svc;
  const std::uint32_t t = svc.add_tenant(chain_tenant(PlanTier::kExact));

  SubmitRequest req;
  req.tenant = t;
  req.round_seq = 5;
  req.format = WireFormat::kBinary;
  req.snapshot = chain_snapshot();
  std::string buf;
  wire_append_submit(buf, req);
  EXPECT_EQ(svc.submit_frame(buf, 0),
            (SubmitResult{SubmitStatus::kAccepted, 5}));

  const ServeBatchReport batch = svc.run_batch(1);
  ASSERT_EQ(batch.served.size(), 1u);
  std::string out;
  svc.append_response_frame(out, batch.served[0]);
  WireFrame reply;
  ASSERT_EQ(wire_decode_frame(out, reply), out.size());
  EXPECT_EQ(reply.kind, WireKind::kPlan);
  EXPECT_EQ(reply.round_seq, 5u);
  EXPECT_EQ(reply.plan, batch.served[0].plan);

  // A non-submit frame must not be accepted by the submit path.
  EXPECT_THROW((void)svc.submit_frame(out, 2), std::invalid_argument);
}

TEST(ServeWire, MalformedFramesRejectedIncompleteFramesWait) {
  SubmitRequest req;
  req.tenant = 1;
  req.round_seq = 2;
  req.format = WireFormat::kJson;
  req.snapshot = chain_snapshot();
  std::string good;
  wire_append_submit(good, req);

  WireFrame out;
  // Incomplete input (header or payload) is "wait for more", not an error.
  EXPECT_EQ(wire_decode_frame(std::string_view(good).substr(0, 10), out), 0u);
  EXPECT_EQ(
      wire_decode_frame(std::string_view(good).substr(0, good.size() - 1),
                        out),
      0u);

  auto corrupt = [&](std::size_t at, char c) {
    std::string bad = good;
    bad[at] = c;
    return bad;
  };
  EXPECT_THROW((void)wire_decode_frame(corrupt(0, 'X'), out),
               std::invalid_argument);  // magic
  EXPECT_THROW((void)wire_decode_frame(corrupt(4, '\x07'), out),
               std::invalid_argument);  // kind
  EXPECT_THROW((void)wire_decode_frame(corrupt(5, '\x02'), out),
               std::invalid_argument);  // format
  EXPECT_THROW((void)wire_decode_frame(corrupt(6, '\x01'), out),
               std::invalid_argument);  // reserved bits
  // A hostile declared length fails fast instead of demanding a 4 GiB
  // buffer, and a truncated JSON payload fails in the snapshot parser.
  std::string hostile = good;
  hostile[20] = hostile[21] = hostile[22] = hostile[23] = '\xff';
  EXPECT_THROW((void)wire_decode_frame(hostile, out), std::invalid_argument);
  std::string truncated_payload = good;
  truncated_payload[20] = '\x05';  // shrink declared payload: bad JSON
  EXPECT_THROW((void)wire_decode_frame(truncated_payload, out),
               std::invalid_argument);
}

// ----------------------------------------------------------------- script

TEST(ServeScript, GeneratorAndRunnerValidate) {
  EXPECT_THROW((void)staggered_replay_script(0, 1, 1, 1, 1),
               std::invalid_argument);
  EXPECT_THROW((void)staggered_replay_script(1, 0, 1, 1, 1),
               std::invalid_argument);

  const ServeScript script = staggered_replay_script(4, 3, 2, 5, 7);
  ASSERT_EQ(script.events.size(), 12u);
  for (std::size_t i = 1; i < script.events.size(); ++i)
    EXPECT_LE(script.events[i - 1].tick, script.events[i].tick);
  // Same seed, same schedule; different seed, different offsets.
  EXPECT_EQ(staggered_replay_script(4, 3, 2, 5, 7).events, script.events);

  PlanService svc;
  svc.add_tenant(chain_tenant(PlanTier::kExact));
  const std::vector<MeasurementSnapshot> pool = {chain_snapshot()};
  ServeScript unsorted;
  unsorted.events = {{2, 0, 0}, {1, 0, 0}};
  EXPECT_THROW((void)svc.run_script(unsorted, pool), std::invalid_argument);
  ServeScript out_of_pool;
  out_of_pool.events = {{0, 0, 3}};
  EXPECT_THROW((void)svc.run_script(out_of_pool, pool),
               std::invalid_argument);
}

// ---------------------------------------------------------------- metrics

TEST(ServeMetrics, JsonDocumentParsesAndAccounts) {
  const std::vector<MeasurementSnapshot> pool = {chain_snapshot(),
                                                 perturbed_snapshot(0.9)};
  PlanService svc;
  for (int t = 0; t < 2; ++t) svc.add_tenant(chain_tenant(PlanTier::kExact));
  const ServeScript script = staggered_replay_script(2, 3, 2, 2, 3);
  const ServeReport rep = svc.run_script(script, pool);

  const JsonValue doc = JsonValue::parse(svc.metrics_json());
  const JsonValue& global = doc.at("global");
  EXPECT_EQ(global.at("submitted").as_int(),
            static_cast<int>(script.events.size()));
  EXPECT_EQ(global.at("plans_served").as_int(),
            static_cast<int>(rep.served.size()));
  EXPECT_EQ(global.at("tick_latency").at("count").as_int(),
            static_cast<int>(rep.served.size()));
  EXPECT_GE(global.at("tick_latency").at("p99").as_number(),
            global.at("tick_latency").at("p50").as_number());
  EXPECT_EQ(global.at("wall_latency_s").at("count").as_int(),
            static_cast<int>(rep.served.size()));
  ASSERT_EQ(doc.at("tenants").items().size(), 2u);
  EXPECT_EQ(doc.at("tenants").items()[1].at("tenant").as_int(), 1);

  // The deterministic surface omits the wall sketch — and only it.
  const JsonValue det = JsonValue::parse(svc.metrics_json(false));
  EXPECT_EQ(det.at("global").find("wall_latency_s"), nullptr);
  EXPECT_NE(det.at("global").find("tick_latency"), nullptr);
}

/// Parse a Prometheus text exposition into "name{labels}" -> value.
std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) {
      ADD_FAILURE() << "malformed sample line: " << line;
      continue;
    }
    samples[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
  }
  return samples;
}

/// Both export formats are built from ONE counter walk (metrics.cpp), so
/// parsing both documents must yield identical values for every counter —
/// the pin that keeps the JSON and Prometheus planes from drifting.
TEST(ServeMetrics, PrometheusTextAgreesWithJson) {
  const std::vector<MeasurementSnapshot> pool = {
      chain_snapshot(), perturbed_snapshot(0.9), repairable_snapshot()};
  PlanService svc;
  svc.add_tenant(chain_tenant(PlanTier::kExact, /*guarded=*/true));
  svc.add_tenant(chain_tenant(PlanTier::kFast));
  const ServeScript script =
      staggered_replay_script(2, 4, 3, 2, /*seed=*/7, /*burst_every=*/1);
  (void)svc.run_script(script, pool);

  const JsonValue doc = JsonValue::parse(svc.metrics_json());
  const std::map<std::string, double> samples =
      parse_prometheus(svc.metrics().metrics_text());

  int checked = 0;
  for (const auto& [key, value] : doc.at("global").members()) {
    if (value.type() != JsonValue::Type::kNumber) continue;  // sketches
    const std::string name = "meshopt_serve_" + key + "{scope=\"global\"}";
    ASSERT_EQ(samples.count(name), 1u) << name;
    EXPECT_EQ(samples.at(name), value.as_number()) << name;
    ++checked;
  }
  EXPECT_EQ(checked, 20);  // 16 tenant-scoped + 4 global-only counters
  for (const JsonValue& tenant : doc.at("tenants").items()) {
    const std::string labels =
        "{tenant=\"" + std::to_string(tenant.at("tenant").as_int()) + "\"}";
    for (const auto& [key, value] : tenant.members()) {
      if (key == "tenant" || value.type() != JsonValue::Type::kNumber)
        continue;
      const std::string name = "meshopt_serve_" + key + labels;
      ASSERT_EQ(samples.count(name), 1u) << name;
      EXPECT_EQ(samples.at(name), value.as_number()) << name;
    }
  }

  // Histogram exposition: the +Inf bucket and _count both equal the JSON
  // sketch's count (cumulative buckets, shared QuantileSketch::buckets()).
  const double count =
      doc.at("global").at("tick_latency").at("count").as_number();
  EXPECT_GT(count, 0.0);
  EXPECT_EQ(samples.at("meshopt_serve_tick_latency_bucket{scope=\"global\","
                       "le=\"+Inf\"}"),
            count);
  EXPECT_EQ(samples.at("meshopt_serve_tick_latency_count{scope=\"global\"}"),
            count);

  // include_wall=false drops the wall-latency histogram — and only it —
  // mirroring metrics_json(false)'s deterministic surface.
  const std::string det = svc.metrics().metrics_text(false);
  EXPECT_EQ(det.find("wall_latency_s"), std::string::npos);
  EXPECT_NE(det.find("tick_latency"), std::string::npos);
}

}  // namespace
}  // namespace meshopt
