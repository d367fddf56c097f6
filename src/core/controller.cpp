#include "core/controller.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/snapshot_source.h"
#include "obs/obs.h"
#include "util/trace_codec.h"

namespace meshopt {

/// Emits the whole-round span on scope exit with the controller's final
/// health as payload, whatever return path the round took. Declared before
/// the stage spans so it destructs last — the round span is always the
/// highest-seq record of its round.
struct ControllerRoundObs {
  MeshController* c;
  std::uint64_t t0;
  explicit ControllerRoundObs(MeshController* ctl)
      : c(ctl), t0(ctl->obs_ != nullptr ? ctl->obs_->now_ns() : 0) {}
  ControllerRoundObs(const ControllerRoundObs&) = delete;
  ControllerRoundObs& operator=(const ControllerRoundObs&) = delete;
  ~ControllerRoundObs() {
    if (c->obs_ == nullptr) return;
    const std::uint64_t t1 = c->obs_->now_ns();
    c->obs_->emit(ObsStage::kRound, ObsKind::kSpan, ObsCode::kNone,
                  static_cast<std::uint64_t>(c->health_),
                  c->plan_.ok ? 1 : 0, t0, t1 >= t0 ? t1 - t0 : 0);
  }
};

MeshController::MeshController(Network& net, ControllerConfig cfg,
                               std::uint64_t seed)
    : net_(net), cfg_(cfg), seed_(seed), planner_(cfg.planner_cache) {
  neighbor_pred_ = [this](NodeId a, NodeId b) {
    return net_.channel().decodable(a, b, Rate::kR1Mbps) ||
           net_.channel().decodable(b, a, Rate::kR1Mbps);
  };
}

int MeshController::link_index(NodeId src, NodeId dst) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].src == src && links_[i].dst == dst)
      return static_cast<int>(i);
  }
  return -1;
}

void MeshController::manage_flow(ManagedFlow flow) {
  net_.set_path_routes(flow.path, flow.rate);
  for (std::size_t h = 0; h + 1 < flow.path.size(); ++h) {
    if (link_index(flow.path[h], flow.path[h + 1]) < 0) {
      links_.push_back(LinkRef{flow.path[h], flow.path[h + 1], flow.rate});
    }
  }
  flows_.push_back(std::move(flow));
}

std::vector<FlowSpec> MeshController::flow_specs() const {
  std::vector<FlowSpec> specs;
  specs.reserve(flows_.size());
  for (const ManagedFlow& f : flows_)
    specs.push_back(FlowSpec{f.flow_id, f.path, f.is_tcp});
  return specs;
}

void MeshController::set_lir_table(DenseMatrix lir, double threshold) {
  lir_table_ = std::move(lir);
  lir_threshold_ = threshold;
  cfg_.interference = InterferenceModelKind::kLirTable;
}

void MeshController::set_neighbor_predicate(
    std::function<bool(NodeId, NodeId)> pred) {
  neighbor_pred_ = std::move(pred);
}

ProbeAgent& MeshController::ensure_agent(NodeId node) {
  const auto slot = static_cast<std::size_t>(node);
  if (slot >= agents_.size()) agents_.resize(slot + 1);
  if (!agents_[slot]) {
    agents_[slot] = std::make_unique<ProbeAgent>(
        net_, node, RngStream(seed_, "probe-" + std::to_string(node)));
  }
  return *agents_[slot];
}

ProbeMonitor& MeshController::ensure_monitor(NodeId node) {
  const auto slot = static_cast<std::size_t>(node);
  if (slot >= monitors_.size()) monitors_.resize(slot + 1);
  if (!monitors_[slot]) {
    monitors_[slot] = std::make_unique<ProbeMonitor>(net_, node);
  }
  return *monitors_[slot];
}

void MeshController::start_probing() {
  // Which rates does each node transmit at?
  std::map<NodeId, std::set<Rate>> tx_rates;
  for (const LinkRef& l : links_) tx_rates[l.src].insert(l.rate);
  std::set<NodeId> nodes;
  for (const LinkRef& l : links_) {
    nodes.insert(l.src);
    nodes.insert(l.dst);
  }
  for (NodeId n : nodes) {
    ProbeAgent& agent = ensure_agent(n);
    ensure_monitor(n);
    std::vector<Rate> rates(tx_rates[n].begin(), tx_rates[n].end());
    if (rates.empty()) rates.push_back(Rate::kR1Mbps);
    agent.configure(cfg_.probe_period_s, rates, cfg_.payload_bytes);
    // Batch one estimation window of tick scheduling up front (timing is
    // bit-identical to per-tick scheduling; see ProbeAgent::start).
    agent.start(cfg_.probe_window);
  }
  // Monitors record every probe stream they overhear. Clear them all, so
  // the streams no link reads stay bounded by one window, then open a
  // fresh measurement window on every stream of interest.
  for (auto& monitor : monitors_)
    if (monitor) monitor->reset_all();
  for (const LinkRef& l : links_) {
    const std::uint64_t data_base =
        ensure_agent(l.src).sent(l.rate, ProbeKind::kDataProbe);
    ensure_monitor(l.dst)
        .stream_mut({l.src, l.rate, ProbeKind::kDataProbe})
        ->begin_window(data_base);
    const std::uint64_t ack_base =
        ensure_agent(l.dst).sent(Rate::kR1Mbps, ProbeKind::kAckProbe);
    ensure_monitor(l.src)
        .stream_mut({l.dst, Rate::kR1Mbps, ProbeKind::kAckProbe})
        ->begin_window(ack_base);
  }
}

void MeshController::stop_probing() {
  for (auto& agent : agents_)
    if (agent) agent->stop();
}

MeasurementSnapshot MeshController::sense_snapshot() const {
  MeasurementSnapshot snap;
  snap.links.reserve(links_.size());
  const auto expected = static_cast<std::uint64_t>(cfg_.probe_window);
  for (const LinkRef& l : links_) {
    const auto dst_slot = static_cast<std::size_t>(l.dst);
    const auto src_slot = static_cast<std::size_t>(l.src);
    const LossRecorder* data_rec =
        dst_slot < monitors_.size() && monitors_[dst_slot]
            ? monitors_[dst_slot]->stream(
                  {l.src, l.rate, ProbeKind::kDataProbe})
            : nullptr;
    const LossRecorder* ack_rec =
        src_slot < monitors_.size() && monitors_[src_slot]
            ? monitors_[src_slot]->stream(
                  {l.dst, Rate::kR1Mbps, ProbeKind::kAckProbe})
            : nullptr;

    // Recorders speak window coordinates (bases set at start_probing), so
    // the expected count is simply the window size.
    const MacTimings& timings = net_.node(l.src).mac().timings();
    SnapshotLink sl;
    sl.src = l.src;
    sl.dst = l.dst;
    sl.rate = l.rate;
    sl.retry_limit = timings.retry_limit;
    sl.estimate =
        estimate_link_capacity(timings, cfg_.payload_bytes, l.rate, data_rec,
                               expected, ack_rec, expected, cfg_.w_min);
    snap.links.push_back(sl);
  }

  // Record the neighbor relation among the touched nodes, symmetrized:
  // one predicate evaluation per unordered pair.
  std::set<NodeId> nodes;
  for (const LinkRef& l : links_) {
    nodes.insert(l.src);
    nodes.insert(l.dst);
  }
  for (auto a = nodes.begin(); a != nodes.end(); ++a) {
    for (auto b = std::next(a); b != nodes.end(); ++b) {
      if (neighbor_pred_ && neighbor_pred_(*a, *b))
        snap.neighbors.emplace_back(*a, *b);
    }
  }

  snap.lir = lir_table_;
  snap.lir_threshold = lir_threshold_;
  return snap;
}

void MeshController::adopt_snapshot(MeasurementSnapshot snap) {
  snapshot_ = std::move(snap);
  estimates_.clear();
  estimates_.reserve(snapshot_.links.size());
  for (const SnapshotLink& sl : snapshot_.links) {
    estimates_.push_back(
        {LinkRef{sl.src, sl.dst, sl.rate}, sl.estimate});

    LinkState ls;
    ls.src = sl.src;
    ls.dst = sl.dst;
    ls.rate = sl.rate;
    ls.p_fwd = sl.estimate.p_data;
    ls.p_rev = sl.estimate.p_ack;
    topo_.update_link(ls);
  }
}

void MeshController::update_estimates() {
  adopt_snapshot(sense_snapshot());
  if (trace_writer_ != nullptr) trace_writer_->write(snapshot_);
}

void MeshController::sense_window(Workbench& wb) {
  if (obs_ != nullptr) obs_->set_context(obs_lane_, obs_round_);
  ObsSpan sense_span(obs_, ObsStage::kSense);
  start_probing();
  wb.run_for(probing_window_seconds());
  update_estimates();
  sense_span.payload(snapshot_.links.size(), snapshot_.neighbors.size());
}

RatePlan MeshController::plan_snapshot(bool cacheable) {
  ObsSpan plan_span(obs_, ObsStage::kPlan);
  RatePlan plan =
      planner_.plan(snapshot_, cfg_.interference, flow_specs(), cfg_.plan(),
                    /*mis_cap=*/200000, cacheable);
  plan_span.payload(
      (static_cast<std::uint64_t>(
           static_cast<std::uint32_t>(plan.extreme_points))
       << 32) |
          static_cast<std::uint32_t>(plan.optimizer_iterations),
      std::bit_cast<std::uint64_t>(plan.objective_value));
  return plan;
}

void MeshController::set_observer(TraceRecorder* obs, std::uint32_t lane) {
  obs_ = obs;
  obs_lane_ = lane;
  planner_.set_observer(obs);
  if (obs_ != nullptr) obs_->set_context(obs_lane_, obs_round_);
}

// ---------------------------------------------------------- the round

void MeshController::set_guard(GuardConfig cfg) {
  guard_cfg_ = cfg;
  backoff_next_ = std::max(1, guard_cfg_.backoff_start);
}

bool MeshController::apply_plan(const RatePlan& plan) {
  if (!plan.ok) return true;  // nothing to actuate
  bool ok = true;
  for (const ShaperProgram& prog : plan.shapers) {
    for (const ManagedFlow& f : flows_) {
      if (f.flow_id != prog.flow_id) continue;
      if (f.apply_rate) {
        try {
          f.apply_rate(prog.x_bps);
        } catch (...) {
          // A failing shaper must not take the loop down; the round is
          // accounted as an apply failure and the state machine falls
          // back.
          ++hstats_.apply_failures;
          ok = false;
        }
      }
      break;
    }
  }
  return ok;
}

RoundResult MeshController::hold_round() {
  ++hstats_.fallback_rounds;
  // Re-actuate the last-known-good plan so a partially applied bad plan
  // (or a shaper the failing path already touched) is restored.
  (void)apply_plan(last_good_plan_);
  RoundResult round;
  round.health = health_;
  round.held = last_good_plan_.ok;
  return round;
}

RoundResult MeshController::fail_round() {
  if (health_ != HealthState::kFallback) {
    ++hstats_.fallback_entries;
    backoff_next_ = std::max(1, guard_cfg_.backoff_start);
    if (obs_ != nullptr) {
      obs_->emit(ObsStage::kHealth, ObsKind::kEvent,
                 ObsCode::kHealthTransition,
                 static_cast<std::uint64_t>(health_),
                 static_cast<std::uint64_t>(HealthState::kFallback));
      // Flight recorder: FALLBACK entry snapshots the trailing window
      // (the transition event above is part of it).
      obs_->trigger_incident(ObsCode::kFallbackEntry);
    }
  }
  health_ = HealthState::kFallback;
  // Deterministic exponential backoff: hold for backoff_next_ rounds
  // before the next re-plan attempt, doubling per consecutive failure.
  backoff_wait_ = backoff_next_;
  backoff_next_ = std::min(backoff_next_ * 2, guard_cfg_.backoff_max);
  return hold_round();
}

RoundResult MeshController::guarded_step(MeasurementSnapshot snap) {
  ++hstats_.rounds;
  if (obs_ != nullptr) obs_->set_context(obs_lane_, obs_round_);
  ++obs_round_;
  ControllerRoundObs round_obs(this);

  // Backoff window: in FALLBACK the controller deliberately skips
  // re-planning for the scheduled number of rounds — the round's window
  // is still consumed (sources advance uniformly; determinism), but no
  // validation or optimization runs.
  if (health_ == HealthState::kFallback && backoff_wait_ > 0) {
    --backoff_wait_;
    ++hstats_.backoff_skips;
    if (obs_ != nullptr) {
      obs_->emit(ObsStage::kHealth, ObsKind::kEvent, ObsCode::kBackoffSkip,
                 static_cast<std::uint64_t>(backoff_wait_));
    }
    return hold_round();
  }

  const SnapshotValidator validator(guard_cfg_.snapshot);
  ValidationReport report;
  {
    ObsSpan validate_span(obs_, ObsStage::kValidate);
    report = validator.validate(snap, &links_);
    validate_span.payload(
        static_cast<std::uint64_t>(report.verdict),
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(report.links_clamped))
         << 32) |
            static_cast<std::uint32_t>(report.links_dropped));
  }
  hstats_.links_clamped += static_cast<std::uint64_t>(report.links_clamped);
  hstats_.links_dropped += static_cast<std::uint64_t>(report.links_dropped);
  if (!report.usable()) {
    ++hstats_.snapshots_rejected;
    if (obs_ != nullptr) {
      obs_->emit(ObsStage::kHealth, ObsKind::kEvent, ObsCode::kSnapshotReject);
    }
    return fail_round();
  }
  const bool clean = report.verdict == SnapshotVerdict::kClean;
  if (clean)
    ++hstats_.snapshots_clean;
  else
    ++hstats_.snapshots_repaired;

  adopt_snapshot(std::move(snap));

  // Model + plan. A repaired snapshot's topology must not be cached: the
  // planner builds it off to the side so the LRU never holds an entry
  // derived from corrupted measurements.
  RatePlan plan = plan_snapshot(clean);

  const PlanValidator plan_validator(guard_cfg_.plan);
  const PlanCheck check = plan_validator.validate(plan, snapshot_,
                                                  flow_specs());
  if (!plan.ok || !check.ok) {
    ++hstats_.plans_rejected;
    if (obs_ != nullptr) {
      // Plan-guardrail reject is a flight-recorder trigger in its own
      // right (fail_round adds a second report only on FALLBACK entry).
      obs_->trigger_incident(
          ObsCode::kPlanReject,
          check.reason != nullptr ? check.reason : "planner returned no plan");
    }
    return fail_round();
  }

  // Trust decay: plans from repaired measurements are actuated
  // conservatively — each consecutive degraded round scales the input
  // rates down by one more factor, floored at min_trust. A clean round
  // restores full trust.
  if (clean) {
    trust_ = 1.0;
  } else {
    trust_ = std::max(guard_cfg_.min_trust, trust_ * guard_cfg_.trust_decay);
    for (double& x : plan.x) x *= trust_;
    for (ShaperProgram& prog : plan.shapers) prog.x_bps *= trust_;
  }
  plan_ = plan;

  {
    ObsSpan apply_span(obs_, ObsStage::kApply);
    const bool applied = apply_plan(plan_);
    apply_span.payload(applied ? 1 : 0);
    if (!applied) return fail_round();
  }

  if (health_ == HealthState::kFallback) {
    ++hstats_.recoveries;
    if (obs_ != nullptr) {
      obs_->emit(ObsStage::kHealth, ObsKind::kEvent, ObsCode::kRecovery);
    }
  }
  const HealthState next_health =
      clean ? HealthState::kHealthy : HealthState::kDegraded;
  if (obs_ != nullptr && next_health != health_) {
    obs_->emit(ObsStage::kHealth, ObsKind::kEvent, ObsCode::kHealthTransition,
               static_cast<std::uint64_t>(health_),
               static_cast<std::uint64_t>(next_health));
  }
  health_ = next_health;
  if (clean)
    ++hstats_.healthy_rounds;
  else
    ++hstats_.degraded_rounds;
  backoff_wait_ = 0;
  backoff_next_ = std::max(1, guard_cfg_.backoff_start);
  last_good_plan_ = plan_;

  RoundResult round;
  round.ok = true;
  round.links = estimates_;
  round.y = plan_.y;
  round.x = plan_.x;
  round.extreme_points = plan_.extreme_points;
  round.optimizer_iterations = plan_.optimizer_iterations;
  round.health = health_;
  return round;
}

RoundResult MeshController::optimize_and_apply() {
  return guarded_step(snapshot_);
}

RoundResult MeshController::run_round(Workbench& wb) {
  sense_window(wb);
  return optimize_and_apply();
}

RoundResult MeshController::guarded_round(SnapshotSource& source) {
  MeasurementSnapshot snap;
  if (!source.next(snap)) {
    RoundResult round;
    round.health = health_;
    round.exhausted = true;
    return round;
  }
  return guarded_step(std::move(snap));
}

}  // namespace meshopt
