#pragma once
// Guard layer — input validation for the control plane (see
// ARCHITECTURE.md, "Faults & degradation").
//
// The paper's premise is ONLINE optimization from measured loss/capacity
// estimates, and measurements go bad in practice: a NaN from a division by
// an empty probe window, a capacity outlier from a mis-timed estimator, a
// snapshot missing half its links because a probe burst was lost. Without
// guards those values flow straight through snapshot -> model -> plan and
// out to the shapers. This header supplies the two checkpoints:
//
//   * SnapshotValidator — structural and range checks over a
//     MeasurementSnapshot, with a repair tier (clamp out-of-range losses,
//     drop individually-poisoned links) and a verdict that tells the
//     controller whether the round's input is clean, repaired, or
//     unusable,
//   * PlanValidator — last-line checks over a RatePlan before it is
//     actuated (finite, non-negative, bottleneck-feasible rates).
//
// Both validators are pure value-type machinery: no Network, no locks, no
// randomness. Equal inputs give identical reports, so guarded rounds stay
// bit-deterministic and fault-injected runs are replayable (the same
// contract as the rest of the pipeline).
//
// The resilience state machine that consumes these reports lives in
// MeshController's one control round (core/controller.h, guarded_step):
// HEALTHY -> DEGRADED (repaired snapshot, decayed trust) -> FALLBACK
// (hold last-known-good plan, exponential-backoff re-probe). Every
// controller round runs it, under GuardConfig{} unless set_guard() says
// otherwise. HealthState/HealthStats are defined here so fleet drivers
// and tests can consume them without the controller. plan_guarded() is
// the stateless guarded round that guarded fleet replay and guarded
// serve tenants share: no held plan, no backoff.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/interference.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "scenario/workbench.h"

namespace meshopt {

class Planner;

// ------------------------------------------------------------- snapshot

/// What a validator found wrong with one snapshot (one issue per finding;
/// a single link may contribute several).
enum class IssueKind : std::uint8_t {
  kEmptySnapshot,      ///< no links at all (dropped probe window)
  kNonFiniteLoss,      ///< NaN/Inf in p_data/p_ack/p_link
  kLossOutOfRange,     ///< loss < 0 or > max_loss
  kNonFiniteCapacity,  ///< NaN/Inf capacity estimate
  kCapacityOutOfRange, ///< capacity <= min or above the PHY-rate bound
  kMalformedNeighbors, ///< unordered/duplicate/asymmetric neighbor pairs
  kMissingLinks,       ///< expected links absent (partial snapshot)
};

[[nodiscard]] const char* to_string(IssueKind kind);

/// One validator finding: which check fired, on which link (snapshot link
/// index at check time; -1 for snapshot-level issues), and whether the
/// repair tier resolved it.
struct ValidationIssue {
  IssueKind kind = IssueKind::kEmptySnapshot;
  int link = -1;
  bool repaired = false;

  friend bool operator==(const ValidationIssue&,
                         const ValidationIssue&) = default;
};

/// The validator's overall verdict on a snapshot.
enum class SnapshotVerdict : std::uint8_t {
  kClean,     ///< untouched; safe to plan and cache
  kRepaired,  ///< usable after clamps/drops; plan but do not cache
  kRejected,  ///< unusable; the controller must fall back
};

[[nodiscard]] const char* to_string(SnapshotVerdict verdict);

/// Structured result of one SnapshotValidator::validate call.
struct ValidationReport {
  SnapshotVerdict verdict = SnapshotVerdict::kClean;
  std::vector<ValidationIssue> issues;
  int links_checked = 0;
  int links_clamped = 0;  ///< links kept after clamping a loss field
  int links_dropped = 0;  ///< links removed by the repair tier
  int links_missing = 0;  ///< expected links absent from the snapshot

  [[nodiscard]] bool usable() const {
    return verdict != SnapshotVerdict::kRejected;
  }
};

/// Tuning of the snapshot checks and their repair tier.
struct SnapshotGuardConfig {
  /// Losses are valid in [0, max_loss]; finite values outside are clamped
  /// (repair), non-finite values drop the link.
  double max_loss = 1.0;
  /// Capacity estimates at or below this are treated as unusable and drop
  /// the link (a zero/negative maxUDP cannot feed the rate region).
  double min_capacity_bps = 1.0;
  /// A link's capacity can never exceed its PHY rate; estimates above
  /// margin * rate_bps(link.rate) are outliers and are clamped down to
  /// that bound.
  double capacity_margin = 1.0;
  /// Minimum fraction of the expected links that must survive checking
  /// (and repair) for the snapshot to stay usable. Below it — including
  /// the all-links-dropped case — the verdict is kRejected.
  double min_link_coverage = 0.5;
  /// false: any issue rejects the snapshot outright (strict mode, no
  /// repair tier).
  bool repair = true;
};

/// Range/NaN/symmetry/coverage checks with a clamp-or-drop repair tier.
///
/// validate() may mutate the snapshot (that is the repair tier); callers
/// that need the raw measurement preserved should validate a copy. The
/// validator itself is stateless between calls and cheap to construct.
class SnapshotValidator {
 public:
  explicit SnapshotValidator(SnapshotGuardConfig cfg = {}) : cfg_(cfg) {}

  /// Check (and, per config, repair) `snap`. `expected`, when non-null,
  /// is the link set the snapshot should cover (a controller passes its
  /// managed links); coverage issues are only detectable against it.
  ValidationReport validate(MeasurementSnapshot& snap,
                            const std::vector<LinkRef>* expected = nullptr)
      const;

  [[nodiscard]] const SnapshotGuardConfig& config() const { return cfg_; }

 private:
  SnapshotGuardConfig cfg_;
};

// ----------------------------------------------------------------- plan

/// Tuning of the plan-stage guardrails.
struct PlanGuardConfig {
  /// No planned rate may exceed this (absolute sanity bound, bits/s).
  double max_rate_bps = 1e9;
  /// Multiplicative slack on the bottleneck feasibility check: a flow's
  /// planned output must satisfy y_s <= slack * min capacity over its
  /// snapshot links.
  double feasibility_slack = 1.0 + 1e-9;
};

/// Outcome of one PlanValidator::validate call.
struct PlanCheck {
  bool ok = true;
  int flow = -1;                 ///< offending flow index; -1 = plan-level
  const char* reason = nullptr;  ///< static description; nullptr when ok
};

/// Rejects non-finite or feasibility-violating rate plans before they are
/// actuated. Pure and stateless, like SnapshotValidator.
class PlanValidator {
 public:
  explicit PlanValidator(PlanGuardConfig cfg = {}) : cfg_(cfg) {}

  /// Check `plan` (computed for `flows` from `snapshot`): the plan must be
  /// feasible (ok), sized to the flows, finite, non-negative, below the
  /// sanity bound, and each flow's output below its bottleneck capacity.
  [[nodiscard]] PlanCheck validate(const RatePlan& plan,
                                   const MeasurementSnapshot& snapshot,
                                   const std::vector<FlowSpec>& flows) const;

  [[nodiscard]] const PlanGuardConfig& config() const { return cfg_; }

 private:
  PlanGuardConfig cfg_;
};

// --------------------------------------------------------------- health

/// The controller's resilience state (see MeshController::guarded_step).
enum class HealthState : std::uint8_t {
  kHealthy,   ///< clean snapshot, valid plan applied
  kDegraded,  ///< repaired snapshot planned under decayed trust
  kFallback,  ///< holding the last-known-good plan, backing off
};

[[nodiscard]] const char* to_string(HealthState state);

/// Cumulative counters of the controller's control round.
struct HealthStats {
  std::uint64_t rounds = 0;           ///< rounds run
  std::uint64_t healthy_rounds = 0;   ///< rounds ending kHealthy
  std::uint64_t degraded_rounds = 0;  ///< rounds ending kDegraded
  std::uint64_t fallback_rounds = 0;  ///< rounds ending kFallback
  std::uint64_t snapshots_clean = 0;
  std::uint64_t snapshots_repaired = 0;
  std::uint64_t snapshots_rejected = 0;
  std::uint64_t links_clamped = 0;  ///< repair-tier clamps, total
  std::uint64_t links_dropped = 0;  ///< repair-tier drops, total
  std::uint64_t plans_rejected = 0; ///< infeasible or guardrail-rejected
  std::uint64_t apply_failures = 0; ///< apply_rate callbacks that threw
  std::uint64_t fallback_entries = 0;  ///< transitions into kFallback
  std::uint64_t recoveries = 0;        ///< transitions out of kFallback
  std::uint64_t backoff_skips = 0;  ///< rounds held without a re-plan try

  friend bool operator==(const HealthStats&, const HealthStats&) = default;
};

/// Knobs of the controller's control round (validators + state machine).
struct GuardConfig {
  SnapshotGuardConfig snapshot{};
  PlanGuardConfig plan{};
  /// Per consecutive degraded round, the applied input rates are scaled
  /// by one more factor of trust_decay (floored at min_trust): repaired
  /// estimates are planned on, but actuated conservatively.
  double trust_decay = 0.9;
  double min_trust = 0.5;
  /// Exponential-backoff re-probe schedule in kFallback: after a failed
  /// round the controller holds the last-known-good plan for
  /// backoff_start rounds before re-attempting, doubling per further
  /// failure up to backoff_max. Deterministic — no jitter — so
  /// fault-injected runs replay bit-identically.
  int backoff_start = 1;
  int backoff_max = 8;
};

// ------------------------------------------------------ stateless round

/// Outcome of one plan_guarded() round.
struct GuardedPlan {
  SnapshotVerdict verdict = SnapshotVerdict::kClean;
  RatePlan plan;  ///< default (ok == false) when rejected
  bool plan_rejected = false;  ///< the plan guardrail refused the plan
};

/// One guarded round with no state beyond the planner's cache: validate
/// and repair `snap`, plan it (cache read-only unless clean), guardrail
/// the plan. A rejected snapshot or plan leaves `out.plan` default, so
/// the round is a pure function of its snapshot. `out.verdict` is set
/// before planning, so it survives a planner exception.
void plan_guarded(Planner& planner, MeasurementSnapshot snap,
                  InterferenceModelKind kind,
                  const std::vector<FlowSpec>& flows, const PlanConfig& cfg,
                  const GuardConfig& guard, GuardedPlan& out,
                  std::size_t mis_cap = 200000);

}  // namespace meshopt
