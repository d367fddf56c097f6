#include "sweep/controller_fleet.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/guard.h"
#include "core/planner.h"
#include "obs/obs.h"
#include "probe/live_source.h"
#include "transport/udp.h"

namespace meshopt {

namespace {

FleetResult run_cell(const FleetCell& cell, const SweepJob& job,
                     TraceRecorder* obs) {
  if (!cell.build_topology)
    throw std::invalid_argument("FleetCell: build_topology is required");

  Workbench wb(job.seed);
  cell.build_topology(wb);

  // Dynamics, when configured, are generated from the cell's derived seed
  // and armed before any traffic or probing starts, so every event lands
  // at the same simulated time whatever thread runs the cell.
  std::optional<DynamicsEngine> dynamics;
  if (cell.dynamics) {
    dynamics.emplace(wb, cell.dynamics(job.seed));
    dynamics->arm();
  }

  MeshController ctl(wb.net(), cell.controller, job.seed);
  if (obs != nullptr)
    ctl.set_observer(obs, static_cast<std::uint32_t>(job.index));
  ctl.set_guard(cell.guard);

  // The engine outlives the apply callbacks that consult it; it is only
  // engaged (engine.has_value()) for fault cells, after the flows exist.
  std::optional<FaultEngine> engine;

  std::vector<std::unique_ptr<UdpSource>> sources;
  sources.reserve(cell.flows.size());
  for (std::size_t i = 0; i < cell.flows.size(); ++i) {
    const FleetFlow& f = cell.flows[i];
    if (f.path.size() < 2)
      throw std::invalid_argument(
          "FleetFlow: path needs at least src and dst");
    ManagedFlow mf;
    mf.flow_id = wb.net().open_flow(f.path.front(), f.path.back(),
                                    Protocol::kUdp, f.payload_bytes);
    mf.path = f.path;
    mf.rate = f.rate;
    mf.is_tcp = f.is_tcp;
    if (f.input_bps > 0.0) {
      auto src = std::make_unique<UdpSource>(
          wb.net(), mf.flow_id, UdpMode::kCbr, f.input_bps,
          RngStream(job.seed, "fleet-src-" + std::to_string(i)));
      UdpSource* raw = src.get();
      // Scripted kApplyFailure rounds make every shaper program throw —
      // the actuation-path fault the guarded controller must absorb
      // (apply_plan counts it and the loop falls back).
      mf.apply_rate = [raw, &engine](double x_bps) {
        if (engine.has_value() && engine->apply_fault_now())
          throw std::runtime_error("fault: scripted shaper apply failure");
        raw->set_rate_bps(x_bps);
      };
      sources.push_back(std::move(src));
    }
    ctl.manage_flow(mf);
  }
  if (!cell.lir.empty()) ctl.set_lir_table(cell.lir, cell.lir_threshold);

  for (auto& src : sources) src->start();
  if (cell.settle_s > 0.0) wb.run_for(cell.settle_s);

  FleetResult result;
  result.index = job.index;
  result.seed = job.seed;
  const int rounds = cell.rounds > 0 ? cell.rounds : 1;
  // The cell pulls windows through the SnapshotSource chain: LiveSource
  // (probing-window simulation), optionally wrapped by the cell's
  // FaultEngine. Faults are generated from the cell seed, so a fault
  // study is bit-identical across thread counts like everything else on
  // the pool.
  LiveSource live(wb, ctl);
  SnapshotSource* source = &live;
  if (cell.faults) {
    engine.emplace(&live, cell.faults(job.seed));
    source = &*engine;
  }
  for (int r = 0; r < rounds; ++r) {
    const RoundResult round = ctl.guarded_round(*source);
    result.ok = round.ok;
  }
  result.health = ctl.health_stats();
  result.health_state = ctl.health();
  ctl.stop_probing();
  for (auto& src : sources) src->stop();

  result.snapshot = ctl.snapshot();
  result.plan = ctl.last_plan();
  return result;
}

}  // namespace

std::vector<FleetResult> ControllerFleet::run(
    const std::vector<FleetCell>& cells, std::uint64_t master_seed) {
  // Job-local recorders: each pool job traces into its own recorder, and
  // the slots are absorbed in cell order after the barrier — the trace
  // stays bit-identical across thread counts (see set_observer()).
  std::vector<std::unique_ptr<TraceRecorder>> locals;
  if (obs_ != nullptr) locals.resize(cells.size());

  std::vector<FleetResult> results = runner_.run(
      static_cast<int>(cells.size()), master_seed,
      [&cells, &locals, this](const SweepJob& job) {
        TraceRecorder* local = nullptr;
        if (obs_ != nullptr) {
          auto& slot = locals[static_cast<std::size_t>(job.index)];
          slot = std::make_unique<TraceRecorder>(obs_->config());
          local = slot.get();
          local->set_context(static_cast<std::uint32_t>(job.index), 0);
        }
        // Cell isolation: a throwing cell reports its error and every
        // other cell completes normally. The caught texts are
        // deterministic (every exception on this path is a pure function
        // of the cell's inputs and seed), so fleet outputs stay
        // bit-identical across thread counts even with failing cells.
        try {
          return run_cell(cells[static_cast<std::size_t>(job.index)], job,
                          local);
        } catch (const std::exception& e) {
          if (local != nullptr)
            local->trigger_incident(ObsCode::kCellError, e.what());
          FleetResult failed;
          failed.index = job.index;
          failed.seed = job.seed;
          failed.error = e.what();
          return failed;
        }
      });

  if (obs_ != nullptr) {
    for (auto& local : locals)
      if (local) obs_->absorb(*local);
  }
  return results;
}

std::vector<ReplayResult> ControllerFleet::replay(
    const std::vector<ReplayCell>& cells,
    const std::vector<MeasurementSnapshot>& trace, const ReplayOptions& opts) {
  const int rounds = static_cast<int>(trace.size());
  const int seg =
      opts.segment_rounds > 0 ? opts.segment_rounds : std::max(rounds, 1);

  // One pool job per (cell, contiguous trace segment). Each job plans its
  // rounds into the cell's pre-sized plans vector at the round's index, so
  // segments stitch in round order by construction and no two jobs touch
  // the same element.
  struct Segment {
    int cell = 0;
    int lo = 0;
    int hi = 0;
  };
  std::vector<Segment> jobs;
  for (int c = 0; c < static_cast<int>(cells.size()); ++c) {
    for (int lo = 0; lo < rounds; lo += seg)
      jobs.push_back({c, lo, std::min(lo + seg, rounds)});
  }

  std::vector<ReplayResult> results(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    results[c].index = static_cast<int>(c);
    results[c].plans.resize(static_cast<std::size_t>(rounds));
  }
  // Empty trace: results are already complete (no plans, ok = false below)
  // — nothing to dispatch.
  if (jobs.empty()) return results;

  // Segment isolation: a throwing segment records its error here (indexed
  // by job, so no two workers write the same slot) and leaves its rounds
  // at default plans; other segments — including the same cell's — finish.
  std::vector<std::string> segment_errors(jobs.size());

  // Job-local recorders, absorbed in job order after the barrier (jobs
  // were emitted in (cell, lo) order, so absorption is round-ordered per
  // lane whatever thread count ran them).
  std::vector<std::unique_ptr<TraceRecorder>> locals;
  if (obs_ != nullptr) locals.resize(jobs.size());

  // Replay draws no randomness; the pool's per-job seed is unused. The
  // shared rounds are walked by reference — no snapshot (or LIR matrix)
  // is copied per cell, segment, or round (guarded cells copy one
  // snapshot per round for the validator's repair tier).
  runner_.run_raw(
      static_cast<int>(jobs.size()), /*master_seed=*/0,
      [&jobs, &cells, &trace, &results, &segment_errors, &locals, &opts,
       this](const SweepJob& job) {
        const Segment& sj = jobs[static_cast<std::size_t>(job.index)];
        const ReplayCell& cell = cells[static_cast<std::size_t>(sj.cell)];
        std::vector<RatePlan>& plans =
            results[static_cast<std::size_t>(sj.cell)].plans;
        const auto lane = static_cast<std::uint32_t>(sj.cell);
        TraceRecorder* local = nullptr;
        if (obs_ != nullptr) {
          auto& slot = locals[static_cast<std::size_t>(job.index)];
          slot = std::make_unique<TraceRecorder>(obs_->config());
          local = slot.get();
          local->set_context(lane, static_cast<std::uint64_t>(sj.lo));
        }
        const std::uint64_t seg_t0 =
            local != nullptr ? local->now_ns() : 0;
        try {
          // The job plans every round through one Planner; decomposed
          // cells get its pool-less DecomposedPlanner, which plans its
          // components serially here because this job IS a pool job
          // (SweepRunner::in_job()). When observed, the recorder's
          // ambient context tracks (lane = cell, round) so the planner's
          // records land on the round they belong to.
          Planner planner(opts.planner_cache);
          planner.set_observer(local);
          for (int r = sj.lo; r < sj.hi; ++r) {
            if (local != nullptr)
              local->set_context(lane, static_cast<std::uint64_t>(r));
            const MeasurementSnapshot& round =
                trace[static_cast<std::size_t>(r)];
            RatePlan& plan = plans[static_cast<std::size_t>(r)];
            if (cell.guarded) {
              GuardedPlan step;
              plan_guarded(planner, round, cell.interference, cell.flows,
                           cell.plan, cell.guard, step, opts.mis_cap);
              plan = std::move(step.plan);
            } else {
              plan = planner.plan(round, cell.interference, cell.flows,
                                  cell.plan, opts.mis_cap);
            }
          }
          if (local != nullptr) {
            // One kSegment span per pool job, stamped at the segment's
            // first round; payload = the [lo, hi) round range.
            const std::uint64_t t1 = local->now_ns();
            local->set_context(lane, static_cast<std::uint64_t>(sj.lo));
            local->emit(ObsStage::kSegment, ObsKind::kSpan, ObsCode::kNone,
                        static_cast<std::uint64_t>(sj.lo),
                        static_cast<std::uint64_t>(sj.hi), seg_t0,
                        t1 >= seg_t0 ? t1 - seg_t0 : 0);
          }
        } catch (const std::exception& e) {
          // Reset the whole segment: rounds planned before the throw must
          // not leak partial output (the documented contract is "a failed
          // segment's rounds keep default plans").
          for (int r = sj.lo; r < sj.hi; ++r)
            plans[static_cast<std::size_t>(r)] = RatePlan{};
          segment_errors[static_cast<std::size_t>(job.index)] = e.what();
          if (local != nullptr)
            local->trigger_incident(ObsCode::kCellError, e.what());
        }
      });

  if (obs_ != nullptr) {
    for (auto& local : locals)
      if (local) obs_->absorb(*local);
  }

  // Surface each cell's first (lowest-round) segment error; jobs were
  // emitted in (cell, lo) order, so the first non-empty slot per cell is
  // the lowest-round one whatever thread count ran them.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (segment_errors[j].empty()) continue;
    ReplayResult& result = results[static_cast<std::size_t>(jobs[j].cell)];
    if (result.error.empty()) result.error = std::move(segment_errors[j]);
  }

  for (ReplayResult& result : results) {
    result.ok = rounds > 0 && result.error.empty();
    for (const RatePlan& plan : result.plans)
      result.ok = result.ok && plan.ok;
  }
  return results;
}

std::vector<ReplayResult> ControllerFleet::replay_file(
    const std::vector<ReplayCell>& cells, const std::string& trace_path,
    const ReplayOptions& opts) {
  return replay(cells, read_trace(trace_path, opts.on_corrupt_record), opts);
}

}  // namespace meshopt
