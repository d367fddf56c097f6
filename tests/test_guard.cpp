// Guard-layer tests: snapshot validator edge cases (NaN/Inf/negative
// loss, capacity outliers, asymmetric neighbors, zero-link snapshots,
// coverage rejection, strict mode), plan guardrails, and the controller's
// resilience state machine — clean-path plan identity, trust decay,
// fallback entry, exponential backoff, and fallback -> recovery
// sequences.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/guard.h"
#include "core/planner.h"
#include "core/snapshot.h"
#include "phy/radio.h"
#include "probe/live_source.h"
#include "scenario/topologies.h"
#include "scenario/workbench.h"

namespace meshopt {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

SnapshotLink make_link(NodeId src, NodeId dst, double capacity_bps,
                       Rate rate = Rate::kR11Mbps) {
  SnapshotLink l;
  l.src = src;
  l.dst = dst;
  l.rate = rate;
  l.estimate.p_data = 0.1;
  l.estimate.p_ack = 0.05;
  l.estimate.p_link = 0.1;
  l.estimate.capacity_bps = capacity_bps;
  return l;
}

MeasurementSnapshot chain_snapshot() {
  MeasurementSnapshot snap;
  snap.links = {make_link(0, 1, 4e6), make_link(1, 2, 3e6)};
  snap.neighbors = {{0, 1}, {1, 2}};
  return snap;
}

// ----------------------------------------------------- SnapshotValidator

TEST(SnapshotValidator, CleanSnapshotIsUntouched) {
  MeasurementSnapshot snap = chain_snapshot();
  const MeasurementSnapshot before = snap;
  const ValidationReport report = SnapshotValidator().validate(snap);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kClean);
  EXPECT_TRUE(report.usable());
  EXPECT_TRUE(report.issues.empty());
  EXPECT_EQ(report.links_checked, 2);
  EXPECT_EQ(report.links_clamped, 0);
  EXPECT_EQ(report.links_dropped, 0);
  EXPECT_EQ(snap, before);
}

TEST(SnapshotValidator, NonFiniteLossDropsTheLink) {
  for (const double poison : {kNan, kInf, -kInf}) {
    MeasurementSnapshot snap = chain_snapshot();
    snap.links[0].estimate.p_data = poison;
    const ValidationReport report = SnapshotValidator().validate(snap);
    EXPECT_EQ(report.verdict, SnapshotVerdict::kRepaired);
    EXPECT_EQ(report.links_dropped, 1);
    ASSERT_EQ(snap.links.size(), 1u);
    EXPECT_EQ(snap.links[0].src, 1);  // the poisoned link is gone
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].kind, IssueKind::kNonFiniteLoss);
    EXPECT_EQ(report.issues[0].link, 0);
    EXPECT_TRUE(report.issues[0].repaired);
  }
}

TEST(SnapshotValidator, FiniteOutOfRangeLossIsClampedInPlace) {
  MeasurementSnapshot snap = chain_snapshot();
  snap.links[0].estimate.p_data = -0.25;  // below range
  snap.links[1].estimate.p_ack = 1.5;     // above range
  const ValidationReport report = SnapshotValidator().validate(snap);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kRepaired);
  EXPECT_EQ(report.links_clamped, 2);
  EXPECT_EQ(report.links_dropped, 0);
  ASSERT_EQ(snap.links.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.links[0].estimate.p_data, 0.0);
  EXPECT_DOUBLE_EQ(snap.links[1].estimate.p_ack, 1.0);
}

TEST(SnapshotValidator, CapacityFaultsDropOrClamp) {
  // NaN capacity: dropped (nothing to clamp to).
  MeasurementSnapshot snap = chain_snapshot();
  snap.links[0].estimate.capacity_bps = kNan;
  ValidationReport report = SnapshotValidator().validate(snap);
  EXPECT_EQ(report.links_dropped, 1);
  EXPECT_EQ(report.issues[0].kind, IssueKind::kNonFiniteCapacity);

  // Negative capacity: dropped.
  snap = chain_snapshot();
  snap.links[0].estimate.capacity_bps = -1e6;
  report = SnapshotValidator().validate(snap);
  EXPECT_EQ(report.links_dropped, 1);
  EXPECT_EQ(report.issues[0].kind, IssueKind::kCapacityOutOfRange);

  // Outlier far above the PHY rate: clamped down to the rate bound.
  snap = chain_snapshot();
  snap.links[0].estimate.capacity_bps = 1e12;
  report = SnapshotValidator().validate(snap);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kRepaired);
  EXPECT_EQ(report.links_clamped, 1);
  EXPECT_DOUBLE_EQ(snap.links[0].estimate.capacity_bps,
                   rate_bps(Rate::kR11Mbps));
}

TEST(SnapshotValidator, AsymmetricNeighborsNormalize) {
  // A recording carrying (b, a) alongside (a, b), plus a self-pair: the
  // repair tier restores the sorted first<second invariant.
  MeasurementSnapshot snap = chain_snapshot();
  snap.neighbors = {{1, 0}, {0, 1}, {2, 2}, {1, 2}};
  const ValidationReport report = SnapshotValidator().validate(snap);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kRepaired);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, IssueKind::kMalformedNeighbors);
  const std::vector<std::pair<NodeId, NodeId>> want = {{0, 1}, {1, 2}};
  EXPECT_EQ(snap.neighbors, want);
}

TEST(SnapshotValidator, ZeroLinkSnapshotIsRejected) {
  MeasurementSnapshot snap;  // a dropped probe window delivers this
  const ValidationReport report = SnapshotValidator().validate(snap);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kRejected);
  EXPECT_FALSE(report.usable());
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, IssueKind::kEmptySnapshot);
}

TEST(SnapshotValidator, AllLinksDroppedIsRejected) {
  MeasurementSnapshot snap = chain_snapshot();
  snap.links[0].estimate.p_data = kNan;
  snap.links[1].estimate.capacity_bps = kInf;
  const ValidationReport report = SnapshotValidator().validate(snap);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kRejected);
  EXPECT_EQ(report.links_dropped, 2);
}

TEST(SnapshotValidator, CoverageBelowThresholdRejects) {
  const std::vector<LinkRef> expected = {
      {0, 1, Rate::kR11Mbps}, {1, 2, Rate::kR11Mbps},
      {2, 3, Rate::kR11Mbps}, {3, 4, Rate::kR11Mbps}};

  // 1 of 4 expected links present: 25% coverage < the 50% floor.
  MeasurementSnapshot snap;
  snap.links = {make_link(0, 1, 4e6)};
  ValidationReport report = SnapshotValidator().validate(snap, &expected);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kRejected);
  EXPECT_EQ(report.links_missing, 3);

  // Exactly at the floor: usable, but flagged (and never cached — the
  // verdict is kRepaired, not kClean).
  snap = chain_snapshot();
  report = SnapshotValidator().validate(snap, &expected);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kRepaired);
  EXPECT_EQ(report.links_missing, 2);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, IssueKind::kMissingLinks);
}

TEST(SnapshotValidator, StrictModeRejectsInsteadOfRepairing) {
  SnapshotGuardConfig strict;
  strict.repair = false;
  MeasurementSnapshot snap = chain_snapshot();
  snap.links[0].estimate.p_data = -0.25;
  const MeasurementSnapshot sized = snap;
  const ValidationReport report = SnapshotValidator(strict).validate(snap);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kRejected);
  // Strict mode still reports, and the link set is never rewritten.
  EXPECT_EQ(snap.links.size(), sized.links.size());
  EXPECT_FALSE(report.issues[0].repaired);
}

TEST(SnapshotValidator, LinkDropRepairPrunesTheLirTable) {
  MeasurementSnapshot snap = chain_snapshot();
  snap.links.push_back(make_link(2, 3, 2e6));
  snap.neighbors.push_back({2, 3});
  snap.lir = DenseMatrix{{0.0, 0.1, 0.2}, {1.0, 1.1, 1.2}, {2.0, 2.1, 2.2}};
  snap.links[1].estimate.capacity_bps = kNan;
  const ValidationReport report = SnapshotValidator().validate(snap);
  EXPECT_EQ(report.verdict, SnapshotVerdict::kRepaired);
  EXPECT_EQ(report.links_dropped, 1);
  ASSERT_EQ(snap.links.size(), 2u);
  // Row and column 1 go with the dropped link; the rest keep their order.
  EXPECT_EQ(snap.lir, (DenseMatrix{{0.0, 0.2}, {2.0, 2.2}}));
}

// --------------------------------------------------------- PlanValidator

RatePlan feasible_plan() {
  RatePlan plan;
  plan.ok = true;
  plan.y = {2e6};
  plan.x = {2.2e6};
  plan.shapers = {{7, 2.2e6}};
  return plan;
}

std::vector<FlowSpec> one_flow() {
  FlowSpec f;
  f.flow_id = 7;
  f.path = {0, 1, 2};
  return {f};
}

TEST(PlanValidator, AcceptsAFeasiblePlan) {
  const PlanCheck check =
      PlanValidator().validate(feasible_plan(), chain_snapshot(), one_flow());
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.reason, nullptr);
}

TEST(PlanValidator, RejectsInfeasibleMissizedAndPoisonedPlans) {
  const MeasurementSnapshot snap = chain_snapshot();
  const std::vector<FlowSpec> flows = one_flow();
  const PlanValidator guard;

  RatePlan plan;  // ok == false
  EXPECT_FALSE(guard.validate(plan, snap, flows).ok);

  plan = feasible_plan();
  plan.y.push_back(1.0);  // not sized to the flow set
  EXPECT_FALSE(guard.validate(plan, snap, flows).ok);

  plan = feasible_plan();
  plan.y[0] = kNan;
  PlanCheck check = guard.validate(plan, snap, flows);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.flow, 0);

  plan = feasible_plan();
  plan.x[0] = -1.0;
  EXPECT_FALSE(guard.validate(plan, snap, flows).ok);

  plan = feasible_plan();
  plan.shapers[0].x_bps = kInf;
  EXPECT_FALSE(guard.validate(plan, snap, flows).ok);

  plan = feasible_plan();
  plan.y[0] = 2e9;  // above the absolute sanity bound
  EXPECT_FALSE(guard.validate(plan, snap, flows).ok);
}

TEST(PlanValidator, RejectsOutputAboveBottleneckCapacity) {
  RatePlan plan = feasible_plan();
  plan.y[0] = 3.5e6;  // above the 3 Mb/s bottleneck of link 1->2
  const PlanCheck check =
      PlanValidator().validate(plan, chain_snapshot(), one_flow());
  EXPECT_FALSE(check.ok);
  EXPECT_STREQ(check.reason, "output above bottleneck capacity");

  // Hops absent from the snapshot carry no bound (they were skipped by
  // plan_rates too): a flow over unknown links passes.
  FlowSpec elsewhere;
  elsewhere.flow_id = 7;
  elsewhere.path = {5, 6};
  plan.y[0] = 3.5e6;
  EXPECT_TRUE(
      PlanValidator().validate(plan, chain_snapshot(), {elsewhere}).ok);
}

// ------------------------------------------- controller state machine

ControllerConfig guard_test_config() {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 40;
  cfg.optimizer.objective = Objective::kProportionalFair;
  return cfg;
}

/// Gateway-chain controller with the two standard flows, ready to sense.
struct GuardedRig {
  Workbench wb;
  MeshController ctl;

  explicit GuardedRig(std::uint64_t seed,
                      ControllerConfig cfg = guard_test_config())
      : wb(seed), ctl(wb.net(), cfg, seed) {
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

  /// One sensed window's snapshot (advances the simulation).
  MeasurementSnapshot sense() {
    ctl.sense_window(wb);
    return ctl.snapshot();
  }
};

TEST(GuardedController, CleanPathMatchesUnguardedPlanBitForBit) {
  GuardedRig a(41);
  GuardedRig b(41);
  LiveSource source(b.wb, b.ctl);
  for (int r = 0; r < 3; ++r) {
    const RoundResult plain = a.ctl.run_round(a.wb);
    const RoundResult guarded = b.ctl.guarded_round(source);
    EXPECT_EQ(plain.ok, guarded.ok);
    EXPECT_EQ(guarded.health, HealthState::kHealthy);
    EXPECT_EQ(a.ctl.last_plan(), b.ctl.last_plan()) << "round " << r;
  }
  const HealthStats& stats = b.ctl.health_stats();
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.healthy_rounds, 3u);
  EXPECT_EQ(stats.snapshots_clean, 3u);
  EXPECT_EQ(stats.fallback_entries, 0u);
  EXPECT_DOUBLE_EQ(b.ctl.trust(), 1.0);
}

TEST(GuardedController, RepairedSnapshotDegradesAndDecaysTrust) {
  GuardedRig rig(43);
  rig.ctl.set_guard(GuardConfig{});
  const MeasurementSnapshot good = rig.sense();

  // Healthy baseline.
  RoundResult round = rig.ctl.guarded_step(good);
  ASSERT_TRUE(round.ok);
  const std::vector<double> healthy_x = round.x;

  // Corrupt one link's loss: repaired -> DEGRADED, inputs scaled by the
  // decayed trust relative to what the same plan would actuate at full
  // trust.
  MeasurementSnapshot corrupt = good;
  corrupt.links[0].estimate.p_data = -0.4;
  round = rig.ctl.guarded_step(corrupt);
  ASSERT_TRUE(round.ok);
  EXPECT_EQ(round.health, HealthState::kDegraded);
  EXPECT_DOUBLE_EQ(rig.ctl.trust(), 0.9);
  const HealthStats& stats = rig.ctl.health_stats();
  EXPECT_EQ(stats.snapshots_repaired, 1u);
  EXPECT_EQ(stats.links_clamped, 1u);

  // Consecutive repaired rounds decay further, floored at min_trust.
  for (int r = 0; r < 8; ++r) (void)rig.ctl.guarded_step(corrupt);
  EXPECT_DOUBLE_EQ(rig.ctl.trust(), 0.5);

  // A clean round restores full trust and HEALTHY.
  round = rig.ctl.guarded_step(good);
  EXPECT_EQ(round.health, HealthState::kHealthy);
  EXPECT_DOUBLE_EQ(rig.ctl.trust(), 1.0);
  EXPECT_EQ(round.x, healthy_x);
}

TEST(GuardedController, LinkDropRepairPlansOverTheRemainingLinks) {
  ControllerConfig cfg = guard_test_config();
  cfg.interference = InterferenceModelKind::kLirTable;
  GuardedRig rig(53, cfg);
  GuardedRig twin(53, cfg);
  rig.ctl.set_guard(GuardConfig{});
  twin.ctl.set_guard(GuardConfig{});
  MeasurementSnapshot snap = rig.sense();
  (void)twin.sense();
  const int n = static_cast<int>(snap.links.size());
  ASSERT_EQ(n, 3);
  // The far flow's two hops conflict with each other; the near flow's
  // link is independent of both.
  snap.lir = DenseMatrix(n, n, 1.0);
  const int a = snap.link_index(0, 1);
  const int b = snap.link_index(1, 2);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  snap.lir(a, b) = 0.5;
  snap.lir(b, a) = 0.5;

  // The twin plans the same window with the link already gone: links
  // and LIR table pruned by hand.
  const int dropped = snap.link_index(3, 2);
  ASSERT_GE(dropped, 0);
  MeasurementSnapshot pruned = snap;
  pruned.links.erase(pruned.links.begin() + dropped);
  pruned.lir = DenseMatrix(n - 1, n - 1, 1.0);
  pruned.lir(pruned.link_index(0, 1), pruned.link_index(1, 2)) = 0.5;
  pruned.lir(pruned.link_index(1, 2), pruned.link_index(0, 1)) = 0.5;

  snap.links[std::size_t(dropped)].estimate.capacity_bps = kNan;
  const RoundResult round = rig.ctl.guarded_step(snap);
  ASSERT_TRUE(round.ok);
  EXPECT_EQ(round.health, HealthState::kDegraded);
  EXPECT_EQ(rig.ctl.health_stats().snapshots_repaired, 1u);
  EXPECT_EQ(rig.ctl.health_stats().links_dropped, 1u);
  EXPECT_EQ(rig.ctl.snapshot().links.size(), 2u);
  EXPECT_EQ(rig.ctl.snapshot().lir, pruned.lir);

  const RoundResult expected = twin.ctl.guarded_step(pruned);
  ASSERT_TRUE(expected.ok);
  EXPECT_EQ(rig.ctl.last_plan(), twin.ctl.last_plan());
}

TEST(GuardedController, RepairedSnapshotsNeverEnterThePlannerCache) {
  GuardedRig rig(47);
  rig.ctl.set_guard(GuardConfig{});
  const MeasurementSnapshot good = rig.sense();
  (void)rig.ctl.guarded_step(good);
  const std::size_t cached = rig.ctl.planner().cached_topologies();

  // A partial snapshot (one link missing) is repaired/flagged: its
  // shrunken topology must not displace or join the trusted entries.
  MeasurementSnapshot partial = good;
  partial.links.pop_back();
  for (int r = 0; r < 3; ++r) (void)rig.ctl.guarded_step(partial);
  EXPECT_EQ(rig.ctl.planner().cached_topologies(), cached);
}

TEST(GuardedController, FallbackHoldsLastGoodPlanAndRecovers) {
  GuardedRig rig(53);
  rig.ctl.set_guard(GuardConfig{});
  const MeasurementSnapshot good = rig.sense();

  RoundResult round = rig.ctl.guarded_step(good);
  ASSERT_TRUE(round.ok);
  const RatePlan good_plan = rig.ctl.last_good_plan();
  ASSERT_TRUE(good_plan.ok);

  // A dropped window (empty snapshot) rejects: FALLBACK, plan held.
  round = rig.ctl.guarded_step(MeasurementSnapshot{});
  EXPECT_FALSE(round.ok);
  EXPECT_EQ(round.health, HealthState::kFallback);
  EXPECT_TRUE(round.held);
  EXPECT_EQ(rig.ctl.last_good_plan(), good_plan);
  EXPECT_EQ(rig.ctl.health_stats().fallback_entries, 1u);
  EXPECT_EQ(rig.ctl.health_stats().snapshots_rejected, 1u);

  // Backoff: the next round is deliberately skipped (no re-plan attempt,
  // the window is still consumed).
  round = rig.ctl.guarded_step(good);
  EXPECT_EQ(round.health, HealthState::kFallback);
  EXPECT_EQ(rig.ctl.health_stats().backoff_skips, 1u);

  // The re-attempt sees a clean snapshot: recovery to HEALTHY.
  round = rig.ctl.guarded_step(good);
  EXPECT_TRUE(round.ok);
  EXPECT_EQ(round.health, HealthState::kHealthy);
  EXPECT_EQ(rig.ctl.health_stats().recoveries, 1u);
}

TEST(GuardedController, ConsecutiveFailuresBackOffExponentially) {
  GuardedRig rig(59);
  GuardConfig guard;
  guard.backoff_start = 1;
  guard.backoff_max = 4;
  rig.ctl.set_guard(guard);
  const MeasurementSnapshot good = rig.sense();
  (void)rig.ctl.guarded_step(good);

  // Feed only empty snapshots. Attempts happen at the rounds where the
  // backoff window has elapsed: fail, skip, fail, skip x2, fail, then the
  // wait saturates at backoff_max.
  std::vector<std::uint64_t> rejected_after;
  for (int r = 0; r < 12; ++r) {
    (void)rig.ctl.guarded_step(MeasurementSnapshot{});
    rejected_after.push_back(rig.ctl.health_stats().snapshots_rejected);
  }
  // Rejections (= actual re-plan attempts) land at rounds 0, 2, 5, 10:
  // gaps of 1, 2, 4, then clamped at 4.
  const std::vector<std::uint64_t> want = {1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4};
  EXPECT_EQ(rejected_after, want);
  EXPECT_EQ(rig.ctl.health_stats().fallback_entries, 1u);

  // Recovery still works from deep backoff once input heals and the
  // current window elapses.
  for (int r = 0; r < 5; ++r) {
    const RoundResult round = rig.ctl.guarded_step(good);
    if (round.ok) break;
  }
  EXPECT_EQ(rig.ctl.health(), HealthState::kHealthy);
  EXPECT_EQ(rig.ctl.health_stats().recoveries, 1u);
}

TEST(GuardedController, ExhaustedSourceReportsInsteadOfPlanning) {
  GuardedRig rig(61);
  LiveSource source(rig.wb, rig.ctl, /*max_windows=*/1);
  RoundResult round = rig.ctl.guarded_round(source);
  EXPECT_TRUE(round.ok);
  round = rig.ctl.guarded_round(source);
  EXPECT_TRUE(round.exhausted);
  EXPECT_FALSE(round.ok);
  EXPECT_EQ(rig.ctl.health_stats().rounds, 1u);  // no round consumed
}

}  // namespace
}  // namespace meshopt
