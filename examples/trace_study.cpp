// Example: record once, replay many — the trace-driven study workflow.
//
//   $ ./example_trace_study [rounds] [trace-path]
//
// Phase 1 (expensive, once): run a live gateway-topology controller with
// record mode on, so every sensed measurement window is appended to a
// binary trace file.
//
// Phase 2 (cheap, repeatable): reload the trace and sweep a grid of
// utility objectives x interference models over the SAME recorded rounds
// with ControllerFleet::replay — pure optimizer work, no simulator. This
// is how fairness comparisons over one measured workload are done: every
// objective sees literally identical channel conditions, so differences
// in the resulting allocations are attributable to the objective alone.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/snapshot_source.h"
#include "probe/live_source.h"
#include "scenario/topologies.h"
#include "scenario/workbench.h"
#include "sim/simulator.h"
#include "sweep/controller_fleet.h"
#include "util/trace_codec.h"

using namespace meshopt;

int main(int argc, char** argv) {
  // Clamp to >= 1: a negative count would make LiveSource unbounded and
  // the recording loop endless.
  const int rounds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 4;
  const std::string path =
      argc > 2 ? argv[2] : std::string("trace_study.trace");

  // ---- Phase 1: record a live run ------------------------------------
  Workbench wb(4242);
  build_gateway_chain(wb);  // the canonical starvation-gateway scenario

  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 40;
  MeshController ctl(wb.net(), cfg, 4242);
  ManagedFlow far;
  far.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
  far.path = {0, 1, 2};
  ctl.manage_flow(far);
  ManagedFlow near;
  near.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
  near.path = {3, 2};
  ctl.manage_flow(near);

  TraceWriter writer(path);
  ctl.record_to(&writer);
  LiveSource live(wb, ctl, rounds);
  MeasurementSnapshot snap;
  while (live.next(snap)) {
  }
  ctl.record_to(nullptr);
  writer.close();
  std::printf("recorded %d rounds (%.1f simulated seconds) to %s\n",
              writer.rounds(), rounds * ctl.probing_window_seconds(),
              path.c_str());

  // ---- Phase 2: replay the trace under many objectives ---------------
  const std::vector<MeasurementSnapshot> trace = read_trace(path);
  const std::uint64_t sims_before = Simulator::constructed();

  // Each objective replays on both plan tiers (ARCHITECTURE.md, "Plan
  // tiers"): kExact is the bit-identical reference, kFast the
  // column-generation path whose objective tracks exact to <= 1e-6
  // relative — at gateway scale (tiny K) the tiers cost about the same;
  // at MIS/80-class K the fast tier is the difference between a replay
  // grid taking minutes and taking seconds.
  struct Variant {
    const char* name;
    Objective objective;
    PlanTier tier;
  };
  std::vector<Variant> variants;
  for (const auto& [name, obj] :
       {std::pair{"max-throughput", Objective::kMaxThroughput},
        std::pair{"proportional", Objective::kProportionalFair},
        std::pair{"max-min", Objective::kMaxMin}}) {
    variants.push_back({name, obj, PlanTier::kExact});
    variants.push_back({name, obj, PlanTier::kFast});
  }
  std::vector<ReplayCell> cells;
  for (const Variant& v : variants) {
    ReplayCell cell;
    cell.flows = ctl.flow_specs();
    cell.plan.optimizer.objective = v.objective;
    cell.plan.tier = v.tier;
    cells.push_back(std::move(cell));
  }

  ControllerFleet fleet;
  const std::vector<ReplayResult> results = fleet.replay(cells, trace);

  std::printf("\nreplayed %zu rounds x %zu objectives (%llu simulators "
              "constructed)\n\n",
              trace.size(), cells.size(),
              static_cast<unsigned long long>(Simulator::constructed() -
                                              sims_before));
  std::printf("%16s %6s %14s %14s %10s\n", "objective", "tier",
              "mean y0 (Mb/s)", "mean y1 (Mb/s)", "rounds ok");
  for (std::size_t i = 0; i < results.size(); ++i) {
    double y0 = 0.0, y1 = 0.0;
    int ok = 0;
    for (const RatePlan& plan : results[i].plans) {
      if (!plan.ok) continue;
      ++ok;
      y0 += plan.y[0];
      y1 += plan.y[1];
    }
    const double denom = ok > 0 ? static_cast<double>(ok) : 1.0;
    std::printf("%16s %6s %14.3f %14.3f %7d/%zu\n", variants[i].name,
                variants[i].tier == PlanTier::kFast ? "fast" : "exact",
                y0 / denom / 1e6, y1 / denom / 1e6, ok,
                results[i].plans.size());
  }
  return 0;
}
