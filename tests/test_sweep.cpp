// SweepRunner: deterministic parallel scenario execution. The acceptance
// bar for the subsystem is that 8 threads over 8 identical scenarios match
// the single-threaded results bit-for-bit.

#include "sweep/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "scenario/testbed.h"
#include "scenario/workbench.h"

namespace meshopt {
namespace {

struct ScenarioResult {
  std::uint64_t executed = 0;
  std::vector<double> throughput;

  bool operator==(const ScenarioResult& o) const {
    return executed == o.executed && throughput == o.throughput;
  }
};

ScenarioResult run_cell(const SweepJob& job) {
  Workbench wb(job.seed);
  Testbed tb(wb, TestbedConfig{.seed = 5});
  const auto links = tb.usable_links(Rate::kR11Mbps);
  std::vector<LinkRef> sel;
  for (std::size_t i = 0; i < links.size() && sel.size() < 3; i += 11)
    sel.push_back(links[i]);
  ScenarioResult r;
  r.throughput = wb.measure_backlogged(sel, 0.5);
  r.executed = wb.sim().executed_events();
  return r;
}

TEST(SweepRunner, EightThreadsMatchSerialBitForBit) {
  SweepRunner serial(1);
  SweepRunner parallel(8);
  const auto a = serial.run(8, /*master_seed=*/99, run_cell);
  const auto b = parallel.run(8, /*master_seed=*/99, run_cell);
  ASSERT_EQ(a.size(), 8u);
  ASSERT_EQ(b.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "cell " << i << " diverged across threads";
  }
}

TEST(SweepRunner, PerRunStreamsAreIsolated) {
  // Same master seed, different indices: distinct streams. Same index:
  // identical stream.
  EXPECT_NE(SweepRunner::job_seed(1, 0), SweepRunner::job_seed(1, 1));
  EXPECT_NE(SweepRunner::job_seed(1, 0), SweepRunner::job_seed(2, 0));
  EXPECT_EQ(SweepRunner::job_seed(1, 3), SweepRunner::job_seed(1, 3));

  // And the per-job seeds actually produce diverging simulations.
  SweepRunner r(4);
  const auto res = r.run(4, 1234, run_cell);
  for (std::size_t i = 1; i < res.size(); ++i)
    EXPECT_FALSE(res[0] == res[i]) << "jobs 0 and " << i << " share a stream";
}

TEST(SweepRunner, ResultsInJobOrder) {
  SweepRunner r(8);
  const auto out = r.run(100, 0, [](const SweepJob& job) {
    return job.index * 10;
  });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[std::size_t(i)], i * 10);
}

TEST(SweepRunner, AllJobsRunOnceExactly) {
  SweepRunner r(8);
  std::vector<std::atomic<int>> hits(64);
  r.run_raw(64, 7, [&](const SweepJob& job) {
    hits[std::size_t(job.index)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, ExceptionsPropagate) {
  SweepRunner r(4);
  EXPECT_THROW(r.run(16, 0,
                     [](const SweepJob& job) -> int {
                       if (job.index == 11) throw std::runtime_error("cell 11");
                       return job.index;
                     }),
               std::runtime_error);
}

TEST(SweepRunner, ThreadCountDefaultsSane) {
  EXPECT_GE(SweepRunner(0).threads(), 1);
  EXPECT_EQ(SweepRunner(5).threads(), 5);
  // The process-wide pool: one instance, sized like SweepRunner(0).
  EXPECT_EQ(&SweepRunner::shared(), &SweepRunner::shared());
  EXPECT_EQ(SweepRunner::shared().threads(), SweepRunner(0).threads());
}

// A job whose cost varies by orders of magnitude across indices: workers
// with cheap blocks drain early and must steal from the expensive block,
// so this exercises the pop/steal race paths, not just block execution.
std::uint64_t uneven_cell(const SweepJob& job) {
  RngStream rng(job.seed, "uneven");
  const int spins = (job.index % 16 == 0) ? 20000 : 10;
  std::uint64_t acc = 0;
  for (int i = 0; i < spins; ++i) acc += rng.next_u64() >> 32;
  return acc;
}

TEST(SweepRunner, StealingWorkersMatchSerialBitForBit) {
  SweepRunner serial(1);
  SweepRunner stealing(8);
  const auto a = serial.run(96, /*master_seed=*/4242, uneven_cell);
  const auto b = stealing.run(96, /*master_seed=*/4242, uneven_cell);
  EXPECT_EQ(a, b);
}

TEST(SweepRunner, PersistentPoolReusedAcrossManySweeps) {
  // The pool parks between runs; repeated runs on one runner must keep
  // producing exactly the per-seed results (and tiny sweeps — fewer jobs
  // than workers — must leave the idle workers unharmed).
  SweepRunner r(8);
  const auto expected3 = SweepRunner(1).run(3, 7, uneven_cell);
  const auto expected50 = SweepRunner(1).run(50, 8, uneven_cell);
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(r.run(3, 7, uneven_cell), expected3) << round;
    EXPECT_EQ(r.run(50, 8, uneven_cell), expected50) << round;
  }
}

TEST(SweepRunner, ManyTinyJobsAllRunExactlyOnce) {
  SweepRunner r(8);
  std::vector<std::atomic<int>> hits(2000);
  r.run_raw(2000, 13, [&](const SweepJob& job) {
    hits[std::size_t(job.index)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, ExceptionDoesNotPoisonThePool) {
  SweepRunner r(4);
  EXPECT_THROW(r.run(32, 0,
                     [](const SweepJob& job) -> int {
                       if (job.index == 11) throw std::runtime_error("cell");
                       return job.index;
                     }),
               std::runtime_error);
  // The same pool must still run clean sweeps afterwards.
  const auto out = r.run(32, 0, [](const SweepJob& job) { return job.index; });
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[std::size_t(i)], i);
}

TEST(SweepRunner, NestedRunRawRunsInlineAndMatchesFlat) {
  // Every job of a 4-thread run starts a nested run_raw of its own on the
  // same pool. The nested jobs run inline on the job's thread, so the pool
  // never waits on itself, and the results equal one flat run.
  constexpr int kOuter = 8;
  constexpr int kInner = 12;
  const auto flat = SweepRunner(1).run(kOuter * kInner, 77, uneven_cell);

  SweepRunner r(4);
  EXPECT_FALSE(SweepRunner::in_job());
  std::vector<std::uint64_t> nested(flat.size());
  std::vector<int> inner_on_outer_thread(kOuter, 0);
  std::vector<int> outer_in_job(kOuter, 0);
  r.run_raw(kOuter, 0, [&](const SweepJob& outer) {
    const auto o = static_cast<std::size_t>(outer.index);
    outer_in_job[o] = SweepRunner::in_job() ? 1 : 0;
    const std::thread::id self = std::this_thread::get_id();
    int same_thread = 0;
    r.run_raw(kInner, 0, [&](const SweepJob& inner) {
      // The flat run's job index and seed for this (outer, inner) pair.
      SweepJob job;
      job.index = outer.index * kInner + inner.index;
      job.seed = SweepRunner::job_seed(77, job.index);
      nested[static_cast<std::size_t>(job.index)] = uneven_cell(job);
      if (std::this_thread::get_id() == self && SweepRunner::in_job())
        ++same_thread;
    });
    inner_on_outer_thread[o] = same_thread;
  });
  EXPECT_FALSE(SweepRunner::in_job());
  EXPECT_EQ(nested, flat);
  for (int o = 0; o < kOuter; ++o) {
    EXPECT_EQ(outer_in_job[static_cast<std::size_t>(o)], 1) << o;
    EXPECT_EQ(inner_on_outer_thread[static_cast<std::size_t>(o)], kInner) << o;
  }
}

TEST(SweepRunner, InlinePathMarksJobs) {
  // The single-thread and single-job paths run on the caller but still
  // count as jobs.
  SweepRunner one(1);
  SweepRunner four(4);
  bool a = false;
  bool b = false;
  one.run_raw(1, 0, [&](const SweepJob&) { a = SweepRunner::in_job(); });
  four.run_raw(1, 0, [&](const SweepJob&) { b = SweepRunner::in_job(); });
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_FALSE(SweepRunner::in_job());
}

TEST(SweepRunner, ConcurrentCallersTakeTurns) {
  // Two threads run sweeps on one pool at once; each gets exactly its
  // serial results.
  SweepRunner r(4);
  const auto expected = SweepRunner(1).run(40, 5, uneven_cell);
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  std::thread ta([&] {
    for (int i = 0; i < 10; ++i) a = r.run(40, 5, uneven_cell);
  });
  std::thread tb([&] {
    for (int i = 0; i < 10; ++i) b = r.run(40, 5, uneven_cell);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);
}

}  // namespace
}  // namespace meshopt
