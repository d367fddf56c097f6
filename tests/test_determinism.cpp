// Guards for the event-core rewrite and the sweep runner's RNG isolation:
// identical seeds must give bit-identical simulations — same event counts,
// same MAC counters, same queue state, same measured throughputs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "scenario/testbed.h"
#include "scenario/workbench.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace meshopt {
namespace {

struct RunFingerprint {
  std::uint64_t executed = 0;
  std::size_t pending = 0;
  TimeNs now = 0;
  std::vector<MacStats> mac;
  std::vector<double> throughput;

  bool operator==(const RunFingerprint& o) const {
    if (executed != o.executed || pending != o.pending || now != o.now ||
        mac.size() != o.mac.size() || throughput != o.throughput)
      return false;
    for (std::size_t i = 0; i < mac.size(); ++i) {
      const MacStats& a = mac[i];
      const MacStats& b = o.mac[i];
      if (a.tx_attempts != b.tx_attempts || a.tx_success != b.tx_success ||
          a.tx_dropped != b.tx_dropped || a.rx_delivered != b.rx_delivered ||
          a.rx_duplicates != b.rx_duplicates ||
          a.queue_rejections != b.queue_rejections)
        return false;
    }
    return true;
  }
};

RunFingerprint run_scenario(std::uint64_t seed) {
  Workbench wb(seed);
  wb.add_nodes(4);
  Channel& ch = wb.channel();
  for (NodeId a = 0; a < 4; ++a)
    for (NodeId b = 0; b < 4; ++b)
      if (a != b) ch.set_rss_dbm(a, b, -120.0);
  ch.set_rss_symmetric_dbm(0, 1, -58.0);
  ch.set_rss_symmetric_dbm(1, 2, -58.0);
  ch.set_rss_symmetric_dbm(3, 2, -56.0);
  ch.set_rss_symmetric_dbm(1, 3, -70.0);

  const std::vector<LinkRef> links = {
      {0, 1, Rate::kR11Mbps},
      {3, 2, Rate::kR11Mbps},
  };
  RunFingerprint fp;
  fp.throughput = wb.measure_backlogged(links, 2.0);

  fp.executed = wb.sim().executed_events();
  fp.pending = wb.sim().pending_events();
  fp.now = wb.sim().now();
  for (NodeId n = 0; n < 4; ++n) fp.mac.push_back(wb.net().node(n).mac().stats());
  return fp;
}

#ifdef __GLIBCXX__
// RngStream computes its variates itself (no branch on the draw's top
// bit); every recorded fixture was drawn through libstdc++'s
// distributions, so the two must agree bit for bit on the same engine.
TEST(Determinism, RngStreamMatchesStdDistributions) {
  auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  RngStream ours(20240917);
  std::mt19937_64 engine(20240917);
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  for (int i = 0; i < 200000; ++i) {
    ASSERT_EQ(bits(ours.uniform()), bits(unit(engine))) << i;
    ASSERT_EQ(bits(ours.normal(-71.5, 4.0)),
              bits(std::normal_distribution<double>(-71.5, 4.0)(engine)))
        << i;
    ASSERT_EQ(bits(ours.exponential(3.7)),
              bits(std::exponential_distribution<double>(1.0 / 3.7)(engine)))
        << i;
    ASSERT_EQ(bits(ours.uniform(2.0, 9.0)), bits(2.0 + 7.0 * unit(engine)))
        << i;
  }
}
#endif

TEST(Determinism, IdenticalSeedsBitIdenticalRuns) {
  const RunFingerprint a = run_scenario(42);
  const RunFingerprint b = run_scenario(42);
  EXPECT_GT(a.executed, 1000u) << "scenario too trivial to guard anything";
  EXPECT_TRUE(a == b);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const RunFingerprint a = run_scenario(42);
  const RunFingerprint b = run_scenario(43);
  // Fading and backoff draws differ, so the event trajectories must too.
  EXPECT_FALSE(a == b);
}

TEST(Determinism, TestbedScenarioReproduces) {
  // A heavier scenario through the full stack: geometry, SNR error model,
  // several concurrent links.
  auto run = [](std::uint64_t seed) {
    Workbench wb(seed);
    Testbed tb(wb, TestbedConfig{.seed = seed});
    const auto links = tb.usable_links(Rate::kR11Mbps);
    std::vector<LinkRef> sel;
    for (std::size_t i = 0; i < links.size() && sel.size() < 4; i += 7)
      sel.push_back(links[i]);
    RunFingerprint fp;
    fp.throughput = wb.measure_backlogged(sel, 1.0);
    fp.executed = wb.sim().executed_events();
    fp.pending = wb.sim().pending_events();
    fp.now = wb.sim().now();
    return fp;
  };
  EXPECT_TRUE(run(7) == run(7));
}

TEST(Determinism, ScheduleBeforeParkedHeadStaysOrdered) {
  // Regression: run_until breaking at the horizon leaves the calendar
  // cursor at the far head's day; an event then scheduled into an earlier
  // day (and a different bucket) must still fire first, and time must
  // never move backwards.
  Simulator sim;
  std::vector<int> order;
  const TimeNs far = micros(1638);   // day ~100 at the initial 2^14 width
  const TimeNs near = micros(344);   // day ~21, different bucket mod 16
  sim.schedule_at(far, [&] { order.push_back(2); });
  sim.run_until(micros(10));  // parks the cursor at the far head
  sim.schedule_at(near, [&] { order.push_back(1); });
  TimeNs last = 0;
  sim.schedule_at(near, [&] { last = sim.now(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), far);
  EXPECT_EQ(last, near);
}

TEST(Determinism, CancelHeavyChurnReproduces) {
  // Exercise slot reuse and generation stamping directly: interleaved
  // schedule/cancel with same-time ties must replay exactly.
  auto run = [] {
    Simulator sim;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 20; ++i) {
        const int tag = round * 100 + i;
        ids.push_back(sim.schedule(millis(i % 5),
                                   [&order, tag] { order.push_back(tag); }));
      }
      for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
      sim.run_until(sim.now() + millis(3));
      ids.clear();
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace meshopt
