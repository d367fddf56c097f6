#include "opt/decompose.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "opt/rate_region.h"

namespace meshopt {

namespace {

/// Fall back to the monolithic planner below this many components (a
/// connected graph gains nothing from the decomposition machinery).
constexpr int kMinComponents = 2;
/// Planner LRU entries per component slot.
constexpr std::size_t kComponentCache = 4;
/// Planner LRU entries of the monolithic fallback planner.
constexpr std::size_t kFallbackCache = 8;

/// Per-round working state of one ACTIVE component (a component with at
/// least one assigned flow). Owns everything its phase-A job writes, so
/// pool jobs touch disjoint memory and the round is bit-identical across
/// thread counts.
struct CompWork {
  int comp = 0;                       ///< component id
  std::vector<std::size_t> flow_ids;  ///< global flow indices, ascending
  MeasurementSnapshot sub;            ///< restricted snapshot (phase A)

  // Fast tier.
  ColumnGenInput cg_in;
  ColumnGenOptimizer* warm = nullptr;  ///< entry-owned or `cold`
  std::unique_ptr<ColumnGenOptimizer> cold;
  ColumnGenStats cg_before;  ///< warm's counters at the start of the round

  // Exact tier.
  OptimizerInput exact_in;
  std::optional<ExactRegion> exact;

  /// Concave objectives: the region answering this component's share of
  /// the joint Frank–Wolfe oracle, and whether its last answer was optimal.
  RateRegionLp* region = nullptr;
  bool oracle_ok = false;

  OptimizerResult result;  ///< final (kMT/kMM) or FW starting point
  std::uint64_t pivots_before = 0;  ///< exact tier: the component
                                    ///< solver's pivots at round start

  /// The job's own recorder when the planner is observed: the slot
  /// planner and column-generation optimizer write here, and the caller
  /// re-emits its records in component order after the phase barrier.
  std::optional<TraceRecorder> obs;
  // Wall-clock enrichment of the component's phase-A job (0 unless the
  // attached recorder enables wall_clock). Written by the job, read by the
  // caller after the phase barrier — disjoint, pool-safe.
  std::uint64_t obs_t0 = 0;
  std::uint64_t obs_dur = 0;
  std::exception_ptr error;  ///< what the phase-A job threw, if anything
};

bool concave_objective(Objective o) {
  return o == Objective::kProportionalFair || o == Objective::kAlphaFair;
}

}  // namespace

DecomposedPlanner::DecomposedPlanner(SweepRunner* pool)
    : pool_(pool), fallback_(kFallbackCache) {}

RatePlan DecomposedPlanner::fallback_plan(const MeasurementSnapshot& snap,
                                          InterferenceModelKind kind,
                                          const std::vector<FlowSpec>& flows,
                                          const PlanConfig& cfg,
                                          std::size_t mis_cap, bool cacheable,
                                          std::uint64_t DecomposeStats::*why) {
  ++stats_.fallback_rounds;
  ++(stats_.*why);
  if (obs_ != nullptr) {
    ObsCode code = ObsCode::kFallbackDegenerate;
    if (why == &DecomposeStats::fallback_connected)
      code = ObsCode::kFallbackConnected;
    else if (why == &DecomposeStats::fallback_cross_component)
      code = ObsCode::kFallbackCross;
    obs_->emit(ObsStage::kComponent, ObsKind::kEvent, code);
  }
  // The fallback plans monolithically: a decompose flag passed through
  // would route it straight back into a decomposition tier of its own.
  PlanConfig monolithic = cfg;
  monolithic.decompose = false;
  return fallback_.plan(snap, kind, flows, monolithic, mis_cap, cacheable);
}

RatePlan DecomposedPlanner::plan(const MeasurementSnapshot& snap,
                                 InterferenceModelKind kind,
                                 const std::vector<FlowSpec>& flows,
                                 const PlanConfig& cfg, std::size_t mis_cap,
                                 bool cacheable) {
  ++stats_.rounds;
  if (flows.empty() || snap.links.empty())
    return fallback_plan(snap, kind, flows, cfg, mis_cap, cacheable,
                         &DecomposeStats::fallback_degenerate);

  // Partition along the same conflict graph the per-component models will
  // build (including the LIR -> two-hop fallback for LIR-less snapshots),
  // so component membership and model structure can never disagree.
  const bool lir_model =
      kind == InterferenceModelKind::kLirTable && !snap.lir.empty();
  const ConflictGraph graph =
      lir_model ? build_lir_conflict_graph(snap.lir, snap.lir_threshold)
                : build_two_hop_conflict_graph(
                      snap.link_refs(), [&snap](NodeId a, NodeId b) {
                        return snap.is_neighbor(a, b);
                      });
  ComponentPartition part = graph.connected_components();
  if (part.count() < kMinComponents)
    return fallback_plan(snap, kind, flows, cfg, mis_cap, cacheable,
                         &DecomposeStats::fallback_connected);

  // Resolve every flow's hops to global link ids once. Assignment,
  // per-component routing and the plan tail all read these.
  const std::size_t num_flows = flows.size();
  const FlowHops hops(snap, flows);

  // Assign each flow to the one component its modeled links live in. The
  // decomposition is exact only when flows never straddle components.
  std::vector<int> flow_comp(num_flows, -1);
  for (std::size_t s = 0; s < num_flows; ++s) {
    int comp = -1;
    bool single = true;
    for (const int l : hops[s]) {
      if (l < 0) continue;
      const int c = part.component_of[static_cast<std::size_t>(l)];
      if (comp < 0)
        comp = c;
      else if (comp != c) {
        single = false;
        break;
      }
    }
    if (!single || comp < 0)
      return fallback_plan(snap, kind, flows, cfg, mis_cap, cacheable,
                           &DecomposeStats::fallback_cross_component);
    flow_comp[s] = comp;
  }

  // Keep component slots (their Planner caches and fast-tier warm state)
  // when the partition's membership is unchanged; rebuild otherwise.
  bool reuse = slots_.size() == part.members.size();
  if (reuse) {
    for (std::size_t c = 0; c < slots_.size(); ++c) {
      if (slots_[c]->members != part.members[c]) {
        reuse = false;
        break;
      }
    }
  }
  if (!reuse) {
    for (const std::unique_ptr<Slot>& slot : slots_)
      retired_ += slot->planner.stats();
    slots_.clear();
    slots_.reserve(part.members.size());
    for (const std::vector<int>& members : part.members)
      slots_.push_back(std::make_unique<Slot>(members, kComponentCache));
    ++stats_.partition_rebuilds;
  }
  partition_ = std::move(part);

  // Active components: only those with assigned flows are planned (a
  // flow-less component contributes nothing to any objective — its link
  // rows are slack at y = 0).
  std::vector<CompWork> works;
  for (int c = 0; c < partition_.count(); ++c) {
    std::vector<std::size_t> ids;
    for (std::size_t s = 0; s < num_flows; ++s)
      if (flow_comp[s] == c) ids.push_back(s);
    if (ids.empty()) continue;
    CompWork w;
    w.comp = c;
    w.flow_ids = std::move(ids);
    works.push_back(std::move(w));
  }
  ++stats_.decomposed_rounds;
  stats_.components_planned += works.size();
  if (works.empty()) return RatePlan{};  // unreachable: flows is non-empty

  // The GLOBAL capacity scale: the monolithic extreme-point matrix's max
  // entry is the max link capacity (every link is in some maximal
  // independent set), so every per-component solve normalized by sigma
  // runs in exactly the monolithic solve's scaled units.
  double sigma = 0.0;
  for (const SnapshotLink& l : snap.links)
    sigma = std::max(sigma, l.estimate.capacity_bps);
  if (sigma <= 0.0) sigma = 1.0;

  const bool fast = cfg.tier == PlanTier::kFast;
  const bool concave = concave_objective(cfg.optimizer.objective);

  // --- Phase A: per-component model + solve (poolable; disjoint state).
  // kMaxThroughput / kMaxMin solve to completion here; the concave
  // objectives compute their max-min starting point and prepare the
  // linear-oracle state for the joint Frank-Wolfe below.
  auto run_component = [&](CompWork& w) {
    Slot& slot = *slots_[static_cast<std::size_t>(w.comp)];
    if (obs_ != nullptr) w.obs_t0 = obs_->now_ns();
    slot.planner.set_observer(w.obs ? &*w.obs : nullptr);
    w.sub = snap.restrict_to(slot.members);
    const InterferenceModel& m =
        slot.planner.model(w.sub, kind, mis_cap, cacheable);

    const int sub_links = static_cast<int>(w.sub.links.size());
    const int sub_flows = static_cast<int>(w.flow_ids.size());
    // Every modeled hop of an assigned flow lies in this component, and
    // restrict_to keeps the ascending order of slot.members, so a global
    // id's position in members is its local index.
    DenseMatrix routing(sub_links, sub_flows);
    for (int i = 0; i < sub_flows; ++i) {
      for (const int g : hops[w.flow_ids[static_cast<std::size_t>(i)]]) {
        if (g < 0) continue;
        const auto it =
            std::lower_bound(slot.members.begin(), slot.members.end(), g);
        routing(static_cast<int>(it - slot.members.begin()), i) = 1.0;
      }
    }

    if (fast) {
      w.cg_in.routing = std::move(routing);
      w.cg_in.conflicts = &m.conflicts();
      w.cg_in.capacities = w.sub.capacities();
      w.cg_in.scale_override = sigma;
      w.warm = slot.planner.last_entry_column_gen();
      if (w.warm == nullptr) {
        w.cold = std::make_unique<ColumnGenOptimizer>();
        w.warm = w.cold.get();
      }
      w.warm->set_observer(slot.planner.observer());
      w.warm->config() = cfg.optimizer;
      w.cg_before = w.warm->stats();
      if (concave)
        w.region = w.warm->region(w.cg_in);
      else
        w.result = w.warm->solve(w.cg_in);
    } else {
      w.pivots_before = slot.lp.pivots();
      w.exact_in.routing = std::move(routing);
      w.exact_in.extreme_points = m.extreme_points();
      w.exact_in.scale_override = sigma;
      w.exact.emplace(w.exact_in, slot.lp, slot.problem);
      if (concave)
        w.region = &*w.exact;
      else
        w.result = optimize_region(*w.exact, cfg.optimizer);
    }
    // The monolithic concave solve starts from max-min; mirror that per
    // component, then build the region the joint oracle solves over.
    if (w.region != nullptr) {
      w.result = water_fill(*w.region);
      if (w.result.ok) w.region->build(0);
    }
    if (obs_ != nullptr) {
      const std::uint64_t t1 = obs_->now_ns();
      w.obs_dur = t1 >= w.obs_t0 ? t1 - w.obs_t0 : 0;
    }
  };

  // A pool-less planner borrows the process-wide pool (waiting its turn if
  // another thread is running it), unless the round has one active
  // component or this thread is already a pool job (serve batches, fleet
  // cells); then phase A runs here, component by component. Each job writes only its own
  // CompWork and slot, and every job runs even when one throws, so every
  // path leaves the same bits and the same planner state.
  if (obs_ != nullptr) {
    // The job recorder's ring is unbounded: the parent's ring policy
    // applies when its records are re-emitted below.
    ObsConfig local = obs_->config();
    local.ring_capacity = std::numeric_limits<std::size_t>::max();
    for (CompWork& w : works) {
      w.obs.emplace(local);
      w.obs->set_context(obs_->lane(), obs_->round());
    }
  }
  const auto job = [&](const SweepJob& j) {
    CompWork& w = works[static_cast<std::size_t>(j.index)];
    try {
      run_component(w);
    } catch (...) {
      w.error = std::current_exception();
    }
    // The job recorder dies with the round.
    slots_[static_cast<std::size_t>(w.comp)]->planner.set_observer(nullptr);
    if (w.warm != nullptr) w.warm->set_observer(nullptr);
  };
  const int jobs = static_cast<int>(works.size());
  if (pool_ != nullptr) {
    pool_->run_raw(jobs, /*master_seed=*/0, job);
  } else if (jobs >= 2 && !SweepRunner::in_job()) {
    SweepRunner::shared().run_raw(jobs, /*master_seed=*/0, job);
  } else {
    for (int i = 0; i < jobs; ++i) job(SweepJob{i, 0});
  }

  // Re-emit each component's records in component order, then the
  // kComponentSolve spans: the emission order (and so every seq number) of
  // a serial round whose slot planners wrote into obs_ directly. The
  // first throwing component (in component order) ends the round: its
  // records and those of the components before it are kept.
  for (const CompWork& w : works) {
    if (w.obs) {
      for (const ObsRecord& r : w.obs->canonical_records())
        obs_->emit(r.stage, r.kind, r.code, r.a, r.b, r.wall_ns,
                   r.wall_dur_ns);
    }
    if (w.error) std::rethrow_exception(w.error);
  }
  if (obs_ != nullptr) {
    for (const CompWork& w : works) {
      obs_->emit(ObsStage::kComponent, ObsKind::kSpan,
                 ObsCode::kComponentSolve, static_cast<std::uint64_t>(w.comp),
                 (static_cast<std::uint64_t>(w.sub.links.size()) << 32) |
                     static_cast<std::uint64_t>(w.flow_ids.size()),
                 w.obs_t0, w.obs_dur);
    }
  }

  for (const CompWork& w : works)
    if (!w.result.ok) return RatePlan{};

  // --- Phase B: stitch (and, for concave objectives, the joint
  // Frank-Wolfe). Runs on the calling thread in component order.
  std::vector<double> y(num_flows, 0.0);
  double objective_value = 0.0;
  int fw_iterations = 0;

  if (!concave) {
    for (const CompWork& w : works)
      for (std::size_t i = 0; i < w.flow_ids.size(); ++i)
        y[w.flow_ids[i]] = w.result.y[i];
    if (cfg.optimizer.objective == Objective::kMaxThroughput) {
      for (double v : y) objective_value += v;
    } else {
      objective_value = *std::min_element(y.begin(), y.end());
    }
  } else {
    // One global Frank–Wolfe iterate over all flows (the routine every
    // tier runs); each step's linear oracle is the product of the
    // components' regions. The monolithic solver stops at the current
    // iterate when its oracle fails; so does any component's failure.
    std::vector<double> z(num_flows, 0.0);
    std::vector<double> v(num_flows, 0.0);
    std::vector<double> grad_c;
    for (const CompWork& w : works) {
      grad_c.resize(std::max(grad_c.size(), w.flow_ids.size()));
      for (std::size_t i = 0; i < w.flow_ids.size(); ++i)
        z[w.flow_ids[i]] = std::max(w.result.y[i] / sigma, 1e-6);
    }
    // The components' solvers count every pivot; the oracles' share is
    // what they add across the joint Frank–Wolfe.
    const auto solver_pivots = [&] {
      std::uint64_t total = 0;
      for (const CompWork& w : works)
        total += fast ? w.warm->stats().pivots
                      : slots_[static_cast<std::size_t>(w.comp)]->lp.pivots();
      return total;
    };
    const std::uint64_t pivots_before_fw = solver_pivots();
    const FwRun run = frank_wolfe(
        cfg.optimizer, static_cast<int>(num_flows), z,
        [&](const std::vector<double>& grad, bool first) {
          for (CompWork& w : works) {
            const std::size_t nc = w.flow_ids.size();
            for (std::size_t i = 0; i < nc; ++i)
              grad_c[i] = grad[w.flow_ids[i]];
            const LpSolution& sol =
                w.region->oracle({grad_c.data(), nc}, first);
            w.oracle_ok = sol.status == LpStatus::kOptimal;
            if (!w.oracle_ok) return std::span<const double>();
            for (std::size_t i = 0; i < nc; ++i) v[w.flow_ids[i]] = sol.x[i];
          }
          return std::span<const double>(v);
        });
    stats_.oracle_pivots += solver_pivots() - pivots_before_fw;
    for (CompWork& w : works)
      if (w.oracle_ok) w.region->carry();
    fw_iterations = run.iterations;
    objective_value = run.objective;
    for (std::size_t f = 0; f < num_flows; ++f) y[f] = z[f] * sigma;
  }

  // --- Phase C: one RatePlan with the monolithic metadata conventions
  // and plan tail over the FULL snapshot.
  RatePlan plan;
  plan.tier = cfg.tier;
  plan.optimizer_iterations = fw_iterations;
  plan.objective_value = objective_value;
  for (const CompWork& w : works) {
    if (fast) {
      const ColumnGenStats& now = w.warm->stats();
      const ColumnGenStats& was = w.cg_before;
      plan.extreme_points += w.warm->columns().count();
      plan.pricing_rounds +=
          static_cast<int>(now.pricing_rounds - was.pricing_rounds);
      stats_.pivots += now.pivots - was.pivots;
      stats_.master_solves += now.master_solves - was.master_solves;
      stats_.certified_masters +=
          now.certified_masters - was.certified_masters;
      stats_.pricing_rounds += now.pricing_rounds - was.pricing_rounds;
      stats_.oracle_nodes += now.oracle_nodes - was.oracle_nodes;
      stats_.columns_admitted += now.columns_admitted - was.columns_admitted;
    } else {
      plan.extreme_points += w.exact_in.extreme_points.rows();
      stats_.pivots += slots_[static_cast<std::size_t>(w.comp)]->lp.pivots() -
                       w.pivots_before;
    }
  }
  if (fast) plan.columns_generated = plan.extreme_points;
  finish_plan(plan, snap, flows, hops, cfg, std::move(y));
  return plan;
}

PlannerStats DecomposedPlanner::planner_stats_snapshot() const {
  PlannerStats total = fallback_.stats_snapshot();
  total += retired_;
  for (const std::unique_ptr<Slot>& slot : slots_)
    total += slot->planner.stats();
  return total;
}

const PlannerStats& DecomposedPlanner::component_planner_stats(int c) const {
  if (c < 0 || c >= static_cast<int>(slots_.size()))
    throw std::out_of_range("DecomposedPlanner: component index");
  return slots_[static_cast<std::size_t>(c)]->planner.stats();
}

}  // namespace meshopt
