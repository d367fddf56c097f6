#include "core/guard.h"

#include <algorithm>
#include <cmath>

#include "core/planner.h"
#include "phy/radio.h"

namespace meshopt {

const char* to_string(IssueKind kind) {
  switch (kind) {
    case IssueKind::kEmptySnapshot: return "empty-snapshot";
    case IssueKind::kNonFiniteLoss: return "non-finite-loss";
    case IssueKind::kLossOutOfRange: return "loss-out-of-range";
    case IssueKind::kNonFiniteCapacity: return "non-finite-capacity";
    case IssueKind::kCapacityOutOfRange: return "capacity-out-of-range";
    case IssueKind::kMalformedNeighbors: return "malformed-neighbors";
    case IssueKind::kMissingLinks: return "missing-links";
  }
  return "unknown";
}

const char* to_string(SnapshotVerdict verdict) {
  switch (verdict) {
    case SnapshotVerdict::kClean: return "clean";
    case SnapshotVerdict::kRepaired: return "repaired";
    case SnapshotVerdict::kRejected: return "rejected";
  }
  return "unknown";
}

const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "HEALTHY";
    case HealthState::kDegraded: return "DEGRADED";
    case HealthState::kFallback: return "FALLBACK";
  }
  return "unknown";
}

namespace {

/// Clamp one loss field into [0, max_loss]. Returns true when it moved.
bool clamp_loss(double& p, double max_loss) {
  const double clamped = std::clamp(p, 0.0, max_loss);
  if (clamped == p) return false;
  p = clamped;
  return true;
}

bool finite(double v) { return std::isfinite(v); }

}  // namespace

ValidationReport SnapshotValidator::validate(
    MeasurementSnapshot& snap, const std::vector<LinkRef>* expected) const {
  ValidationReport report;
  report.links_checked = static_cast<int>(snap.links.size());

  if (snap.links.empty()) {
    report.issues.push_back({IssueKind::kEmptySnapshot, -1, false});
    report.verdict = SnapshotVerdict::kRejected;
    return report;
  }

  // Per-link range/NaN checks. Links whose fields cannot be repaired
  // (non-finite anywhere, unusable capacity) are dropped; finite
  // out-of-range losses and capacity outliers are clamped in place.
  std::vector<SnapshotLink> kept;
  std::vector<int> kept_index;  // snap.links index of each kept link
  kept.reserve(snap.links.size());
  kept_index.reserve(snap.links.size());
  for (std::size_t i = 0; i < snap.links.size(); ++i) {
    SnapshotLink& l = snap.links[i];
    LinkCapacityEstimate& e = l.estimate;
    const int idx = static_cast<int>(i);
    bool drop = false;
    bool clamped = false;

    if (!finite(e.p_data) || !finite(e.p_ack) || !finite(e.p_link)) {
      report.issues.push_back({IssueKind::kNonFiniteLoss, idx, cfg_.repair});
      drop = true;
    } else {
      bool moved = clamp_loss(e.p_data, cfg_.max_loss);
      moved = clamp_loss(e.p_ack, cfg_.max_loss) || moved;
      moved = clamp_loss(e.p_link, cfg_.max_loss) || moved;
      if (moved) {
        report.issues.push_back(
            {IssueKind::kLossOutOfRange, idx, cfg_.repair});
        clamped = true;
      }
    }

    if (!finite(e.capacity_bps)) {
      report.issues.push_back(
          {IssueKind::kNonFiniteCapacity, idx, cfg_.repair});
      drop = true;
    } else if (e.capacity_bps <= cfg_.min_capacity_bps) {
      // A non-positive (or vanishing) maxUDP estimate cannot feed the
      // rate region; there is no value to clamp it to.
      report.issues.push_back(
          {IssueKind::kCapacityOutOfRange, idx, cfg_.repair});
      drop = true;
    } else {
      const double bound = cfg_.capacity_margin * rate_bps(l.rate);
      if (e.capacity_bps > bound) {
        report.issues.push_back(
            {IssueKind::kCapacityOutOfRange, idx, cfg_.repair});
        e.capacity_bps = bound;
        clamped = true;
      }
    }

    if (drop) {
      ++report.links_dropped;
    } else {
      if (clamped) ++report.links_clamped;
      kept.push_back(l);
      kept_index.push_back(idx);
    }
  }

  // Neighbor relation invariant: unordered pairs with first < second,
  // sorted ascending, no duplicates. An asymmetric recording — (a, b)
  // alongside (b, a) — normalizes to a duplicate and is deduplicated.
  {
    std::vector<std::pair<NodeId, NodeId>> normalized = snap.neighbors;
    bool malformed = false;
    for (auto& [a, b] : normalized) {
      if (a > b) {
        std::swap(a, b);
        malformed = true;
      } else if (a == b) {
        malformed = true;  // self-pair; removed below
      }
    }
    std::erase_if(normalized, [](const std::pair<NodeId, NodeId>& p) {
      return p.first == p.second;
    });
    if (!std::is_sorted(normalized.begin(), normalized.end()))
      malformed = true;
    std::sort(normalized.begin(), normalized.end());
    const auto dup = std::unique(normalized.begin(), normalized.end());
    if (dup != normalized.end()) malformed = true;
    normalized.erase(dup, normalized.end());
    if (malformed) {
      report.issues.push_back(
          {IssueKind::kMalformedNeighbors, -1, cfg_.repair});
      if (cfg_.repair) snap.neighbors = std::move(normalized);
    }
  }

  if (report.links_dropped > 0 && cfg_.repair) {
    // The LIR table is aligned with `links`: drop the same rows and
    // columns so it stays L×L over the surviving links.
    const int n = static_cast<int>(snap.links.size());
    if (!snap.lir.empty() && snap.lir.rows() == n && snap.lir.cols() == n) {
      const int k = static_cast<int>(kept_index.size());
      DenseMatrix lir(k, k);
      for (int a = 0; a < k; ++a) {
        for (int b = 0; b < k; ++b) {
          lir(a, b) = snap.lir(kept_index[std::size_t(a)],
                               kept_index[std::size_t(b)]);
        }
      }
      snap.lir = std::move(lir);
    }
    snap.links = std::move(kept);
  }

  // Coverage against the expected link set (partial-snapshot detection).
  // Measured against the links that SURVIVED repair: a snapshot whose
  // links all arrived but mostly got dropped is as unusable as one that
  // never carried them.
  if (expected != nullptr && !expected->empty()) {
    for (const LinkRef& want : *expected) {
      if (snap.link_index(want.src, want.dst) < 0) ++report.links_missing;
    }
    if (report.links_missing > 0)
      report.issues.push_back(
          {IssueKind::kMissingLinks, -1, /*repaired=*/false});
    const double covered =
        static_cast<double>(expected->size() - report.links_missing) /
        static_cast<double>(expected->size());
    if (covered < cfg_.min_link_coverage) {
      report.verdict = SnapshotVerdict::kRejected;
      return report;
    }
  }
  if (snap.links.empty()) {  // every link dropped by repair
    report.verdict = SnapshotVerdict::kRejected;
    return report;
  }

  if (report.issues.empty()) {
    report.verdict = SnapshotVerdict::kClean;
  } else {
    report.verdict =
        cfg_.repair ? SnapshotVerdict::kRepaired : SnapshotVerdict::kRejected;
  }
  return report;
}

PlanCheck PlanValidator::validate(const RatePlan& plan,
                                  const MeasurementSnapshot& snapshot,
                                  const std::vector<FlowSpec>& flows) const {
  if (!plan.ok) return {false, -1, "plan infeasible"};
  const std::size_t n = flows.size();
  if (plan.y.size() != n || plan.x.size() != n || plan.shapers.size() != n)
    return {false, -1, "plan not sized to the flow set"};

  const FlowHops hops(snapshot, flows);
  for (std::size_t s = 0; s < n; ++s) {
    const int flow = static_cast<int>(s);
    const double y = plan.y[s];
    const double x = plan.x[s];
    if (!std::isfinite(y) || !std::isfinite(x))
      return {false, flow, "non-finite rate"};
    if (y < 0.0 || x < 0.0) return {false, flow, "negative rate"};
    if (y > cfg_.max_rate_bps || x > cfg_.max_rate_bps)
      return {false, flow, "rate above sanity bound"};
    if (!std::isfinite(plan.shapers[s].x_bps) ||
        plan.shapers[s].x_bps < 0.0 ||
        plan.shapers[s].x_bps > cfg_.max_rate_bps)
      return {false, flow, "shaper rate out of range"};

    // Bottleneck feasibility: a flow's output can never exceed the
    // smallest capacity along its path (interference only lowers it
    // further). Hops absent from the snapshot carry no bound — exactly
    // the hops plan_rates skipped when it computed the plan.
    double bottleneck_bps = -1.0;
    for (const int li : hops[s]) {
      if (li < 0) continue;
      const double cap =
          snapshot.links[static_cast<std::size_t>(li)].estimate.capacity_bps;
      bottleneck_bps = bottleneck_bps < 0.0 ? cap
                                            : std::min(bottleneck_bps, cap);
    }
    if (bottleneck_bps >= 0.0 && y > cfg_.feasibility_slack * bottleneck_bps)
      return {false, flow, "output above bottleneck capacity"};
  }
  return {};
}

void plan_guarded(Planner& planner, MeasurementSnapshot snap,
                  InterferenceModelKind kind,
                  const std::vector<FlowSpec>& flows, const PlanConfig& cfg,
                  const GuardConfig& guard, GuardedPlan& out,
                  std::size_t mis_cap) {
  const ValidationReport report =
      SnapshotValidator(guard.snapshot).validate(snap);
  out.verdict = report.verdict;
  if (!report.usable()) return;
  const bool clean = report.verdict == SnapshotVerdict::kClean;
  out.plan = planner.plan(snap, kind, flows, cfg, mis_cap, clean);
  if (!PlanValidator(guard.plan).validate(out.plan, snap, flows).ok) {
    out.plan = RatePlan{};
    out.plan_rejected = true;
  }
}

}  // namespace meshopt
