// serve_2000 — one PlanService with 2000 tenants of 9-12-link LIR
// snapshots, fed mixed binary and JSON wire frames.
//
// Tenants cycle through five profiles: exact PF, fast PF, guarded exact PF
// (every fourth round submits a snapshot whose one flowless link reports
// an out-of-range loss, which the repair tier clamps), exact max-min, and fast
// PF without coalescing (queue bound 1). The submission schedule is
// staggered_replay_script with burst duplicates: each tenant submits one
// round every eight ticks, so about an eighth of the tenants submit per
// tick, and every seventh tenant submits each round twice. The duplicate
// coalesces on coalescing tenants and sheds on the others — counts the
// checks predict from the script. One tick is submit_frame for the tick's
// frames, run_batch, then append_response_frame for each served plan.
//
// The seed draws the 256 tenant topologies, their capacity variants and
// the schedule's per-tenant offsets. The schedule repeats every
// kCycleTicks ticks with fresh round sequences, so any run length is a
// whole number of identical cycles plus a prefix.

#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "core/guard.h"
#include "serve/plan_service.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace meshbench {
namespace {

using namespace meshopt;

constexpr std::uint32_t kTenants = 2000;
// The pool's explicit size (the caller plus one worker), never
// hardware_concurrency; manifest.json records it.
constexpr int kServeThreads = 2;
constexpr int kProfiles = 5;
constexpr int kTopologies = 256;
constexpr int kCapVariants = 8;  // capacity draws per topology
constexpr int kPoolRounds = 4;   // rounds per schedule cycle
constexpr int kTicksPerRound = 8;
constexpr int kBurstEvery = 7;
constexpr long long kCycleTicks = kPoolRounds * kTicksPerRound;
constexpr long long kWarmup = kCycleTicks;
constexpr long long kTraced = 4 * kCycleTicks;
constexpr long long kMaxUnits = 1'000'000;
constexpr std::size_t kTenantAt = 8;  // header offsets (serve/wire.h)
constexpr std::size_t kSeqAt = 12;

enum Profile { kExactPf, kFastPf, kGuarded, kExactMaxMin, kFastFifo };

Profile profile_of(std::uint32_t t) { return Profile(t % kProfiles); }
bool coalesces(std::uint32_t t) { return profile_of(t) != kFastFifo; }
bool fast_tier(std::uint32_t t) {
  return profile_of(t) == kFastPf || profile_of(t) == kFastFifo;
}
int topology_of(std::uint32_t t) { return static_cast<int>(t % kTopologies); }
/// Capacity variant of tenant t's round r: tenants sharing a topology
/// drift through the variants out of phase, so every tick mixes them all.
int variant_of(std::uint32_t t, int r) {
  return static_cast<int>((t / kTopologies + static_cast<std::uint32_t>(r)) %
                          kCapVariants);
}

std::vector<FlowSpec> tenant_flows() {
  std::vector<FlowSpec> flows(3);
  flows[0] = {0, {0, 1, 2, 3}, false};
  flows[1] = {1, {3, 4, 5}, false};
  flows[2] = {2, {6, 7, 8}, false};
  return flows;
}

TenantConfig tenant_config(std::uint32_t t) {
  TenantConfig cfg;
  cfg.flows = tenant_flows();
  cfg.interference = InterferenceModelKind::kLirTable;
  cfg.plan.optimizer.objective = Objective::kProportionalFair;
  switch (profile_of(t)) {
    case kExactPf:
      break;
    case kFastPf:
      cfg.plan.tier = PlanTier::kFast;
      break;
    case kGuarded:
      cfg.guarded = true;
      break;
    case kExactMaxMin:
      cfg.plan.optimizer.objective = Objective::kMaxMin;
      break;
    case kFastFifo:
      cfg.plan.tier = PlanTier::kFast;
      cfg.coalesce = false;
      cfg.queue_limit = 1;
      break;
  }
  return cfg;
}

void put_le(std::string& frame, std::size_t at, std::uint64_t v, int bytes) {
  for (int b = 0; b < bytes; ++b)
    frame[at + static_cast<std::size_t>(b)] =
        static_cast<char>((v >> (8 * b)) & 0xff);
}

/// One scripted submission inside a cycle.
struct CycleEvent {
  std::uint32_t tenant = 0;
  int round = 0;  ///< round within the cycle = pool round
  bool dup = false;
};

/// One submission of the current tick, materialized.
struct TickEvent {
  std::uint32_t tenant = 0;
  int topology = 0;
  int variant = 0;  ///< capacity variant
  bool json = false;
  std::uint64_t seq = 0;
  SubmitStatus expected = SubmitStatus::kAccepted;
};

class Serve2000 final : public Workload {
 public:
  explicit Serve2000(std::uint64_t seed) : seed_(seed) {}

  WarmupResult setup() override {
    flows_ = tenant_flows();
    // Topologies and their capacity variants: clean and poisoned.
    for (int v = 0; v < kTopologies; ++v) {
      const int links = 9 + v % 4;
      RngStream topo(RngStream::mix(seed_, static_cast<std::uint64_t>(v)),
                     "perfbench-serve-topology");
      DenseMatrix lir;
      lir.resize(links, links, 1.0);
      for (int i = 0; i < links; ++i)
        for (int j = i + 1; j < links; ++j)
          if (topo.bernoulli(0.4)) lir(i, j) = lir(j, i) = 0.4;
      for (int c = 0; c < kCapVariants; ++c) {
        RngStream cap(RngStream::mix(seed_, static_cast<std::uint64_t>(
                                                 v * kCapVariants + c)),
                      "perfbench-serve-caps");
        MeasurementSnapshot snap;
        for (int i = 0; i < links; ++i) {
          SnapshotLink l;
          l.src = i;
          l.dst = i + 1;
          l.rate = Rate::kR11Mbps;
          l.estimate.capacity_bps = cap.uniform(1.5e6, 5e6);
          l.estimate.p_link = 0.02;
          snap.links.push_back(l);
        }
        snap.lir = lir;
        snap.lir_threshold = 0.95;
        // The last link carries no flow; its out-of-range loss is clamped
        // by the repair tier. (A poison the repair tier answers by dropping
        // the link makes the guarded plan fail: the dropped link leaves
        // the LIR table one row larger than the link list.)
        MeasurementSnapshot poisoned = snap;
        poisoned.links.back().estimate.p_data = 1.7;
        for (int fmt = 0; fmt < 2; ++fmt) {
          const auto format = fmt ? WireFormat::kJson : WireFormat::kBinary;
          wire_append_submit(templ(v, c, false, fmt),
                             SubmitRequest{0, 0, format, snap});
          wire_append_submit(templ(v, c, true, fmt),
                             SubmitRequest{0, 0, format, poisoned});
        }
        clean_.push_back(std::move(snap));
      }
    }

    // One cycle of the schedule, bucketed by tick.
    const ServeScript script = staggered_replay_script(
        kTenants, kPoolRounds, kPoolRounds, kTicksPerRound, seed_,
        kBurstEvery);
    by_tick_.assign(kCycleTicks, {});
    for (std::size_t i = 0; i < script.events.size(); ++i) {
      const ServeEvent& ev = script.events[i];
      const bool dup = i > 0 && script.events[i - 1] == ev;
      by_tick_[static_cast<std::size_t>(ev.tick)].push_back(
          {ev.tenant, ev.snapshot_ref, dup});
    }

    ServeConfig scfg;
    scfg.threads = kServeThreads;
    scfg.global_queue_limit = 4096;
    svc_ = std::make_unique<PlanService>(scfg);
    for (std::uint32_t t = 0; t < kTenants; ++t)
      svc_->add_tenant(tenant_config(t));

    Digest exact;
    double fast = 0.0;
    for (long long i = 0; i < kWarmup; ++i) {
      prepare(i);
      run(i);
      (void)check(i);
      for (const ServedPlan& s : batch_.served) {
        if (fast_tier(s.tenant)) {
          fast += s.plan.objective_value;
        } else {
          exact.add(&s.tenant, sizeof s.tenant);
          exact.add(s.plan);
        }
      }
    }
    WarmupResult w;
    w.exact_digests["exact_tenant_plans"] = exact.hex();
    w.fast_objectives["fast_tenant_objective_sum"] = fast;
    return w;
  }

  long long warmup_units() const override { return kWarmup; }
  long long max_units() const override { return kMaxUnits; }
  long long traced_units() const override { return kTraced; }

  void prepare(long long i) override {
    const long long cycle = i / kCycleTicks;
    const auto& evs = by_tick_[static_cast<std::size_t>(i % kCycleTicks)];
    events_.resize(evs.size());
    frames_.resize(evs.size());
    for (std::size_t k = 0; k < evs.size(); ++k) {
      const CycleEvent& ce = evs[k];
      TickEvent& ev = events_[k];
      ev.tenant = ce.tenant;
      ev.topology = topology_of(ce.tenant);
      ev.variant = variant_of(ce.tenant, ce.round);
      const long long global_round = cycle * kPoolRounds + ce.round;
      ev.seq = static_cast<std::uint64_t>(2 * global_round + 1) +
               (ce.dup ? 1 : 0);
      const bool poisoned =
          profile_of(ce.tenant) == kGuarded && ce.round == kPoolRounds - 1;
      ev.json = ce.tenant % 6 == 0;
      ev.expected = !ce.dup ? SubmitStatus::kAccepted
                    : coalesces(ce.tenant) ? SubmitStatus::kCoalesced
                                           : SubmitStatus::kShedTenantQueueFull;
      frames_[k] = templ(ev.topology, ev.variant, poisoned, ev.json ? 1 : 0);
      put_le(frames_[k], kTenantAt, ce.tenant, 4);
      put_le(frames_[k], kSeqAt, ev.seq, 8);
    }
    results_.resize(evs.size());
  }

  void run(long long i) override {
    for (std::size_t k = 0; k < frames_.size(); ++k)
      results_[k] = svc_->submit_frame(frames_[k], i);
    batch_ = svc_->run_batch(i);
    out_.clear();
    for (const ServedPlan& s : batch_.served)
      svc_->append_response_frame(out_, s);
  }

  // submit_frame is wire_decode_frame + submit_seq.
  void run_traced(long long i, Ledger& ledger) override {
    for (std::size_t k = 0; k < frames_.size(); ++k) {
      auto t0 = Clock::now();
      WireFrame f;
      if (wire_decode_frame(frames_[k], f) == 0 || f.kind != WireKind::kSubmit)
        throw std::runtime_error("serve_2000: undecodable submit frame");
      const bool json = events_[k].json;
      ledger.time(json ? "decode_json" : "decode_binary", seconds_since(t0));
      ledger.count(json ? "frames_json" : "frames_binary", 1);
      t0 = Clock::now();
      results_[k] = svc_->submit_seq(f.tenant, f.snapshot, f.round_seq, i);
      ledger.time("admit", seconds_since(t0));
    }
    auto t0 = Clock::now();
    batch_ = svc_->run_batch(i);
    ledger.time("batch", seconds_since(t0));
    t0 = Clock::now();
    out_.clear();
    for (const ServedPlan& s : batch_.served)
      svc_->append_response_frame(out_, s);
    ledger.time("encode", seconds_since(t0));
    ledger.count("responses", static_cast<double>(batch_.served.size()));
    if (record_items_)
      for (const ServedPlan& s : batch_.served)
        traced_items_.push_back(
            {s.tenant, static_cast<int>(((s.round_seq - 1) / 2) % kPoolRounds)});
  }

  UnitOutcome check(long long) override {
    UnitOutcome o;
    // Admission: every submission got the status the script forces, and
    // each tenant's first submission of the tick was served this tick.
    // A duplicate directly follows its first submission; a coalesced one
    // supersedes its sequence.
    expected_served_.clear();
    for (std::size_t k = 0; k < events_.size(); ++k) {
      const TickEvent& ev = events_[k];
      if (results_[k].status != ev.expected) o.ok = false;
      if (ev.expected == SubmitStatus::kAccepted)
        expected_served_.push_back(ev);
      else if (ev.expected == SubmitStatus::kCoalesced)
        expected_served_.back().seq = ev.seq;
    }
    if (batch_.served.size() != expected_served_.size()) o.ok = false;
    // A round the script accepted but the batch did not serve counts as an
    // attempted plan that failed.
    o.plans = static_cast<int>(
        std::max(batch_.served.size(), expected_served_.size()));
    for (std::size_t k = 0; k < batch_.served.size(); ++k) {
      const ServedPlan& s = batch_.served[k];
      K_ += s.plan.extreme_points;
      fw_ += s.plan.optimizer_iterations;
      pricing_ += s.plan.pricing_rounds;
      columns_ += s.plan.columns_generated;
      if (k >= expected_served_.size()) continue;
      const TickEvent& ev = expected_served_[k];
      const MeasurementSnapshot& snap = clean(ev.topology, ev.variant);
      if (s.tenant == ev.tenant && s.round_seq == ev.seq && s.plan.ok &&
          PlanValidator{}.validate(s.plan, snap, flows_).ok)
        ++o.correct;
    }
    return o;
  }

  std::map<std::string, double> counters() const override {
    const ServeCounters& g = svc_->metrics().global();
    const TenantCounters& t = g.totals;
    return {{"submitted", static_cast<double>(t.submitted)},
            {"coalesced", static_cast<double>(t.coalesced)},
            {"shed", static_cast<double>(t.shed_queue_full +
                                         t.shed_global_full +
                                         t.shed_stale_round)},
            {"repaired", static_cast<double>(t.snapshots_repaired)},
            {"served", static_cast<double>(t.plans_served + t.plans_failed)},
            {"hits", static_cast<double>(t.cache_hits)},
            {"misses", static_cast<double>(t.cache_misses)},
            {"batches", static_cast<double>(g.batches)},
            {"batch_requests", static_cast<double>(g.batch_requests)},
            {"K", K_},
            {"fw", fw_},
            {"pricing", pricing_},
            {"columns", columns_}};
  }

  std::map<std::string, double> layer_metrics(
      const Ledger& ledger, const std::map<std::string, double>& d,
      long long units) override {
    record_items_ = false;
    const auto per = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const double served = d.at("served");
    std::map<std::string, double> m;
    m["serve.decode_binary_us"] = 1e6 * per(ledger.stage("decode_binary"),
                                            ledger.counted("frames_binary"));
    m["serve.decode_json_us"] = 1e6 * per(ledger.stage("decode_json"),
                                          ledger.counted("frames_json"));
    m["serve.admit_us"] = 1e6 * per(ledger.stage("admit"),
                                    ledger.counted("frames_binary") +
                                        ledger.counted("frames_json"));
    m["serve.encode_us"] =
        1e6 * per(ledger.stage("encode"), ledger.counted("responses"));
    m["serve.batch_ms"] =
        1e3 * per(ledger.stage("batch"), static_cast<double>(units));
    m["serve.plans_per_batch"] = per(d.at("batch_requests"), d.at("batches"));
    m["serve.shed"] = d.at("shed");
    m["serve.coalesced"] = d.at("coalesced");
    m["serve.shed_ratio"] = per(d.at("shed"), d.at("submitted"));
    m["serve.coalesced_ratio"] = per(d.at("coalesced"), d.at("submitted"));
    m["guard.repaired_ratio"] = per(d.at("repaired"), served);
    m["model.cache_hits"] = d.at("hits");
    m["model.cache_misses"] = d.at("misses");
    m["model.cache_hit_ratio"] = per(d.at("hits"), d.at("hits") + d.at("misses"));
    m["model.K"] = per(d.at("K"), served);
    m["opt.fw_iterations"] = per(d.at("fw"), served);
    m["opt.pricing_rounds"] = per(d.at("pricing"), served);
    m["opt.columns_generated"] = per(d.at("columns"), served);
    m["serve.tax"] = per(per(ledger.stage("batch"), served), bare_plan_s());
    return m;
  }

 private:
  std::string& templ(int v, int c, bool poisoned, int fmt) {
    return templates_[static_cast<std::size_t>(
        ((v * kCapVariants + c) * 2 + (poisoned ? 1 : 0)) * 2 + fmt)];
  }
  const MeasurementSnapshot& clean(int v, int c) const {
    return clean_[static_cast<std::size_t>(v * kCapVariants + c)];
  }

  /// Seconds per plan of a bare single-thread Planner::plan over the
  /// traced pass's served rounds (one warm planner per tenant, the
  /// tenant's planning config, the clean snapshot of that round).
  double bare_plan_s() {
    if (traced_items_.empty()) return 0.0;
    std::vector<Planner> planners(kTenants);
    std::vector<TenantConfig> cfgs;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      cfgs.push_back(tenant_config(t));
      (void)planners[t].plan(clean(topology_of(t), 0),
                             InterferenceModelKind::kLirTable, flows_,
                             cfgs[t].plan);
    }
    const auto t0 = Clock::now();
    for (const auto& [t, r] : traced_items_) {
      const RatePlan plan =
          planners[t].plan(clean(topology_of(t), variant_of(t, r)),
                           InterferenceModelKind::kLirTable, flows_,
                           cfgs[t].plan);
      if (!plan.ok) throw std::runtime_error("serve_2000: bare plan failed");
    }
    return seconds_since(t0) / static_cast<double>(traced_items_.size());
  }

  std::uint64_t seed_;
  std::vector<FlowSpec> flows_;
  std::vector<std::string> templates_ =
      std::vector<std::string>(kTopologies * kCapVariants * 2 * 2);
  std::vector<MeasurementSnapshot> clean_;
  std::vector<std::vector<CycleEvent>> by_tick_;
  std::unique_ptr<PlanService> svc_;
  std::vector<TickEvent> events_;
  std::vector<std::string> frames_;
  std::vector<SubmitResult> results_;
  std::vector<TickEvent> expected_served_;
  ServeBatchReport batch_;
  std::string out_;
  /// Served rounds of the first traced pass, which serve.tax re-plans.
  bool record_items_ = true;
  std::vector<std::pair<std::uint32_t, int>> traced_items_;  ///< tenant, round
  double K_ = 0.0;
  double fw_ = 0.0;
  double pricing_ = 0.0;
  double columns_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_2000(std::uint64_t seed) {
  return std::make_unique<Serve2000>(seed);
}

}  // namespace meshbench
