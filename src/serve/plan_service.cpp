#include "serve/plan_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "opt/decompose.h"
#include "util/rng.h"

namespace meshopt {

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kCoalesced:
      return "coalesced";
    case SubmitStatus::kShedUnknownTenant:
      return "shed:unknown-tenant";
    case SubmitStatus::kShedStaleRound:
      return "shed:stale-round";
    case SubmitStatus::kShedTenantQueueFull:
      return "shed:tenant-queue-full";
    case SubmitStatus::kShedGlobalQueueFull:
      return "shed:global-queue-full";
  }
  return "unknown";
}

ServeScript staggered_replay_script(std::uint32_t tenants,
                                    int rounds_per_tenant, int pool_rounds,
                                    int ticks_per_round, std::uint64_t seed,
                                    int burst_every) {
  if (tenants == 0 || rounds_per_tenant <= 0 || pool_rounds <= 0 ||
      ticks_per_round <= 0)
    throw std::invalid_argument(
        "serve: script dimensions must be positive");
  // All randomness at generation time, like the dynamics/fault script
  // generators: the schedule is a value, the service draws nothing.
  RngStream rng(seed, "serve-script");
  std::vector<int> offset(tenants);
  for (int& o : offset) o = rng.uniform_int(0, ticks_per_round - 1);

  ServeScript script;
  script.events.reserve(static_cast<std::size_t>(rounds_per_tenant) *
                        tenants);
  for (int r = 0; r < rounds_per_tenant; ++r) {
    for (std::uint32_t t = 0; t < tenants; ++t) {
      ServeEvent ev;
      ev.tick = static_cast<long long>(r) * ticks_per_round +
                offset[static_cast<std::size_t>(t)];
      ev.tenant = t;
      ev.snapshot_ref = r % pool_rounds;
      script.events.push_back(ev);
      // The duplicate submission lands at the same tick: with coalescing
      // it supersedes the first (counted), without it the queue absorbs
      // or sheds it — either way the admission layer gets exercised.
      if (burst_every > 0 && t % static_cast<std::uint32_t>(burst_every) == 0)
        script.events.push_back(ev);
    }
  }
  std::stable_sort(
      script.events.begin(), script.events.end(),
      [](const ServeEvent& a, const ServeEvent& b) { return a.tick < b.tick; });
  return script;
}

PlanService::PlanService(ServeConfig cfg)
    : cfg_(cfg), runner_(cfg.threads) {}

std::uint32_t PlanService::add_tenant(TenantConfig cfg) {
  sessions_.emplace_back(std::move(cfg));
  metrics_.ensure_tenants(sessions_.size());
  return static_cast<std::uint32_t>(sessions_.size() - 1);
}

const TenantConfig& PlanService::tenant_config(std::uint32_t tenant) const {
  if (tenant >= sessions_.size())
    throw std::invalid_argument("serve: unknown tenant");
  return sessions_[tenant].cfg;
}

SubmitResult PlanService::admit(std::uint32_t tenant,
                                const MeasurementSnapshot& snap,
                                std::uint64_t round_seq, bool auto_seq,
                                long long tick) {
  if (tenant >= sessions_.size()) {
    ++metrics_.global().shed_unknown_tenant;
    return {SubmitStatus::kShedUnknownTenant, 0};
  }
  TenantSession& s = sessions_[tenant];
  metrics_.count(tenant, &TenantCounters::submitted);
  if (auto_seq) {
    round_seq = s.high_seq + 1;
  } else if (round_seq <= s.high_seq) {
    // The wire path's stale shed: a client replaying an old round (or a
    // reordered stream) must not roll a tenant's sequence backwards.
    metrics_.count(tenant, &TenantCounters::shed_stale_round);
    return {SubmitStatus::kShedStaleRound, round_seq};
  }

  // Oldest-round coalescing: the queued stale round is superseded in
  // place — same backlog slot, fresher measurements, newer sequence. A
  // replacement never grows the backlog, so it bypasses both queue
  // bounds by construction.
  if (s.cfg.coalesce && !s.queue.empty()) {
    Pending& back = s.queue.back();
    back.round_seq = round_seq;
    back.enqueue_tick = tick;
    back.enqueue_wall = std::chrono::steady_clock::now();
    back.snapshot = snap;
    s.high_seq = round_seq;
    metrics_.count(tenant, &TenantCounters::coalesced);
    metrics_.count(tenant, &TenantCounters::accepted);
    return {SubmitStatus::kCoalesced, round_seq};
  }

  if (s.queue.size() >=
      static_cast<std::size_t>(std::max(1, s.cfg.queue_limit))) {
    metrics_.count(tenant, &TenantCounters::shed_queue_full);
    return {SubmitStatus::kShedTenantQueueFull, round_seq};
  }
  if (pending_ >= cfg_.global_queue_limit) {
    metrics_.count(tenant, &TenantCounters::shed_global_full);
    return {SubmitStatus::kShedGlobalQueueFull, round_seq};
  }

  Pending p;
  p.round_seq = round_seq;
  p.enqueue_tick = tick;
  p.enqueue_wall = std::chrono::steady_clock::now();
  p.snapshot = snap;
  s.queue.push_back(std::move(p));
  s.high_seq = round_seq;
  ++pending_;
  metrics_.count(tenant, &TenantCounters::accepted);
  return {SubmitStatus::kAccepted, round_seq};
}

SubmitResult PlanService::submit(std::uint32_t tenant,
                                 const MeasurementSnapshot& snap,
                                 long long tick) {
  return admit(tenant, snap, 0, /*auto_seq=*/true, tick);
}

SubmitResult PlanService::submit_seq(std::uint32_t tenant,
                                     const MeasurementSnapshot& snap,
                                     std::uint64_t round_seq, long long tick) {
  return admit(tenant, snap, round_seq, /*auto_seq=*/false, tick);
}

SubmitResult PlanService::submit_frame(std::string_view frame,
                                       long long tick) {
  WireFrame decoded;
  if (wire_decode_frame(frame, decoded) == 0)
    throw std::invalid_argument("wire: incomplete frame");
  if (decoded.kind != WireKind::kSubmit)
    throw std::invalid_argument("wire: expected a submit frame");
  return submit_seq(decoded.tenant, decoded.snapshot, decoded.round_seq,
                    tick);
}

ServeBatchReport PlanService::run_batch(long long tick) {
  // Deterministic batch composition: ascending tenant id, each tenant's
  // OLDEST pending round. At most one round per tenant per batch keeps a
  // session's Planner single-writer (per-tenant rounds stay serial);
  // cross-tenant parallelism is where the pool earns its keep.
  struct Item {
    std::uint32_t tenant = 0;
    Pending req;
  };
  std::vector<Item> items;
  for (std::uint32_t t = 0; t < sessions_.size(); ++t) {
    std::deque<Pending>& q = sessions_[t].queue;
    if (q.empty()) continue;
    items.push_back({t, std::move(q.front())});
    q.pop_front();
  }
  if (items.empty()) return {};
  pending_ -= items.size();

  // One pool job per batched round; results land at the item's index, so
  // the batch output is in tenant order whatever thread ran what (the
  // SweepRunner determinism contract). Jobs touch disjoint state: item i,
  // outs[i], and tenant i's session only.
  // Unguarded rounds keep the default (kClean) verdict.
  struct JobOut : GuardedPlan {
    std::string error;
  };
  std::vector<JobOut> outs(items.size());
  runner_.run_raw(
      static_cast<int>(items.size()), /*master_seed=*/0,
      [this, &items, &outs](const SweepJob& job) {
        const auto i = static_cast<std::size_t>(job.index);
        Item& item = items[i];
        TenantSession& s = sessions_[item.tenant];
        JobOut& out = outs[i];
        // Session-local tracing: the job writes into the session's own
        // recorder (single-writer, like the session Planner); run_batch
        // absorbs it in batch order after the pool barrier.
        TraceRecorder* local = nullptr;
        if (obs_ != nullptr) {
          if (!s.recorder)
            s.recorder = std::make_unique<TraceRecorder>(obs_->config());
          local = s.recorder.get();
          local->set_context(item.tenant, item.req.round_seq);
        }
        s.planner.set_observer(local);
        {
          ObsSpan serve_span(local, ObsStage::kServe, ObsCode::kServeOk);
          try {
            // The pending snapshot is ours: a guarded round's repair tier
            // may mutate it.
            if (s.cfg.guarded)
              plan_guarded(s.planner, std::move(item.req.snapshot),
                           s.cfg.interference, s.cfg.flows, s.cfg.plan,
                           s.cfg.guard, out);
            else
              out.plan = s.planner.plan(item.req.snapshot,
                                        s.cfg.interference, s.cfg.flows,
                                        s.cfg.plan);
          } catch (const std::exception& e) {
            // Round isolation, as fleet cells: a poisoned snapshot fails
            // its own round deterministically (the text is a pure function
            // of the inputs) and every other round completes.
            out.plan = RatePlan{};
            out.error = e.what();
          }
          if (!out.error.empty()) serve_span.code(ObsCode::kServeError);
          serve_span.payload(item.req.round_seq, out.plan.ok ? 1 : 0);
        }
        if (local != nullptr) {
          if (!out.error.empty())
            local->trigger_incident(ObsCode::kServeError, out.error);
          else if (out.plan_rejected)
            local->trigger_incident(ObsCode::kPlanReject,
                                    "serve: plan guardrail reject");
        }
      });

  // All accounting on the calling thread, in batch order — the reason
  // every counter and tick histogram is bit-identical across pool sizes.
  const auto now = std::chrono::steady_clock::now();
  ServeCounters& g = metrics_.global();
  ++g.batches;
  g.batch_requests += items.size();
  g.max_batch = std::max<std::uint64_t>(g.max_batch, items.size());

  ServeBatchReport report;
  report.served.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    Item& item = items[i];
    JobOut& out = outs[i];
    TenantSession& s = sessions_[item.tenant];
    const auto meter = [&](std::uint64_t TenantCounters::*counter,
                           std::uint64_t n = 1) {
      metrics_.count(item.tenant, counter, n);
    };

    switch (out.verdict) {
      case SnapshotVerdict::kClean:
        meter(&TenantCounters::snapshots_clean);
        break;
      case SnapshotVerdict::kRepaired:
        meter(&TenantCounters::snapshots_repaired);
        break;
      case SnapshotVerdict::kRejected:
        meter(&TenantCounters::snapshots_rejected);
        break;
    }
    meter(out.plan.ok ? &TenantCounters::plans_served
                      : &TenantCounters::plans_failed);
    // Meter the session planner by diffing stats snapshots (the
    // per-interval-window pattern Planner::stats_snapshot exists for).
    // The snapshot covers the decomposition tier's planners too.
    const PlannerStats ps = s.planner.stats_snapshot();
    const DecomposeStats ds = s.planner.decompose_stats();
    meter(&TenantCounters::cache_hits, ps.hits - s.seen_stats.hits);
    meter(&TenantCounters::cache_misses, ps.misses - s.seen_stats.misses);
    meter(&TenantCounters::uncacheable_plans,
          ps.uncacheable_plans - s.seen_stats.uncacheable_plans);
    meter(&TenantCounters::decomposed_rounds,
          ds.decomposed_rounds - s.seen_decomposed_rounds);
    meter(&TenantCounters::components_planned,
          ds.components_planned - s.seen_components_planned);
    s.seen_stats = ps;
    s.seen_decomposed_rounds = ds.decomposed_rounds;
    s.seen_components_planned = ds.components_planned;

    metrics_.record_tick_latency(
        item.tenant, static_cast<double>(tick - item.req.enqueue_tick));
    metrics_.record_wall_latency(
        std::chrono::duration<double>(now - item.req.enqueue_wall).count());

    s.last_plan = out.plan;
    s.last_served_seq = item.req.round_seq;

    // Batch-order absorption: session traces merge into the service
    // recorder here, on the calling thread — the trace side of the
    // "all accounting in batch order" determinism contract.
    if (obs_ != nullptr && s.recorder) obs_->absorb(*s.recorder);

    ServedPlan served;
    served.tenant = item.tenant;
    served.round_seq = item.req.round_seq;
    served.submit_tick = item.req.enqueue_tick;
    served.served_tick = tick;
    served.verdict = out.verdict;
    served.plan = std::move(out.plan);
    served.error = std::move(out.error);
    report.served.push_back(std::move(served));
  }
  return report;
}

ServeReport PlanService::run_script(
    const ServeScript& script, const std::vector<MeasurementSnapshot>& pool) {
  for (std::size_t i = 1; i < script.events.size(); ++i)
    if (script.events[i].tick < script.events[i - 1].tick)
      throw std::invalid_argument("serve: script events must be tick-sorted");

  ServeReport report;
  report.submit_results.reserve(script.events.size());
  std::size_t next = 0;
  long long tick = script.events.empty() ? 0 : script.events.front().tick;
  while (next < script.events.size() || pending_ > 0) {
    // Idle gap with nothing queued: hop straight to the next event's tick
    // (the intermediate batches would be empty — skipping them changes
    // nothing observable and keeps sparse schedules cheap).
    if (pending_ == 0 && next < script.events.size() &&
        script.events[next].tick > tick)
      tick = script.events[next].tick;
    for (; next < script.events.size() && script.events[next].tick <= tick;
         ++next) {
      const ServeEvent& ev = script.events[next];
      if (ev.snapshot_ref < 0 ||
          static_cast<std::size_t>(ev.snapshot_ref) >= pool.size())
        throw std::invalid_argument("serve: snapshot_ref outside the pool");
      report.submit_results.push_back(
          submit(ev.tenant, pool[static_cast<std::size_t>(ev.snapshot_ref)],
                 tick));
    }
    ServeBatchReport batch = run_batch(tick);
    for (ServedPlan& served : batch.served)
      report.served.push_back(std::move(served));
    ++tick;
  }
  report.final_tick = tick;
  return report;
}

void PlanService::append_response_frame(std::string& out,
                                        const ServedPlan& served) const {
  if (served.plan.ok) {
    wire_append_plan(out, served.tenant, served.round_seq, served.plan);
    return;
  }
  std::string_view reason = "plan infeasible or rejected";
  if (!served.error.empty())
    reason = served.error;
  else if (served.verdict == SnapshotVerdict::kRejected)
    reason = "snapshot rejected";
  wire_append_reject(out, served.tenant, served.round_seq, reason);
}

std::string PlanService::metrics_json(bool include_wall) const {
  return metrics_.to_json(include_wall);
}

const RatePlan& PlanService::last_plan(std::uint32_t tenant) const {
  if (tenant >= sessions_.size())
    throw std::invalid_argument("serve: unknown tenant");
  return sessions_[tenant].last_plan;
}

std::uint64_t PlanService::last_served_seq(std::uint32_t tenant) const {
  if (tenant >= sessions_.size())
    throw std::invalid_argument("serve: unknown tenant");
  return sessions_[tenant].last_served_seq;
}

}  // namespace meshopt
