#pragma once
// Parallel scenario sweeps on a persistent work-stealing thread pool.
//
// A sweep is N independent jobs (typically: build a Workbench/Testbed,
// run a scenario, reduce to a result struct). Two properties make sweeps
// safe to parallelize here:
//   * every job gets its own RNG seed derived from (master_seed, index)
//     with the same splitmix64 mixing RngStream uses, so a job's stream
//     never depends on which thread ran it or in what order,
//   * results land in a pre-sized vector at the job's index, so the output
//     is in job order regardless of completion order.
// Together they make an 8-thread sweep bit-for-bit identical to running
// the same jobs sequentially — including with work stealing, which only
// changes WHERE a job runs, never its seed or result slot.
//
// Pool design: worker threads are created once per SweepRunner and parked
// on a condition variable between runs, so many-small-cell grids stop
// paying thread spawn/join per sweep. Each run partitions the job indices
// into per-worker Chase–Lev deques (work_steal_queue.h); a worker drains
// its own deque LIFO and steals FIFO from the others when it runs dry.
// The calling thread participates as worker 0.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sweep/work_steal_queue.h"
#include "util/rng.h"

namespace meshopt {

/// One cell of a sweep.
struct SweepJob {
  int index = 0;           ///< position in the sweep, [0, count)
  std::uint64_t seed = 0;  ///< per-run seed, mix(master_seed, index)
};

/// Deterministic parallel job runner with a persistent worker pool.
///
/// Thread-safety: run()/run_raw() may be called from several threads at
/// once; concurrent runs on one pool take turns. Re-entrancy is defined:
/// a run started from inside ANY SweepRunner's job (in_job() is true on
/// that thread) executes its jobs inline on the calling thread, in index
/// order, with the same seeds and result slots — so it yields the same
/// results as a pooled run.
class SweepRunner {
 public:
  /// `threads` <= 0 selects the hardware concurrency (at least 1). The
  /// pool spawns threads - 1 background workers immediately; they park on
  /// a condition variable while no sweep is running.
  explicit SweepRunner(int threads = 0);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Total workers per run, including the calling thread.
  [[nodiscard]] int threads() const { return threads_; }

  /// Run `count` jobs of `fn` and collect the results in job order.
  ///
  /// `fn` must be callable as R(const SweepJob&) with R movable and
  /// default-constructible; it runs concurrently on pool threads, so it
  /// must not touch shared mutable state. The first exception thrown by a
  /// job is rethrown here after all workers finish (remaining jobs still
  /// run, matching serial semantics as closely as possible).
  ///
  /// @post result.size() == max(count, 0); result[i] is fn's value for
  ///       job i regardless of which worker executed it.
  template <typename Fn>
  auto run(int count, std::uint64_t master_seed, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const SweepJob&>> {
    using R = std::invoke_result_t<Fn&, const SweepJob&>;
    std::vector<R> out(static_cast<std::size_t>(count > 0 ? count : 0));
    run_raw(count, master_seed, [&out, &fn](const SweepJob& job) {
      out[static_cast<std::size_t>(job.index)] = fn(job);
    });
    return out;
  }

  /// Untyped variant: `fn` stores its own results (indexed by job.index).
  void run_raw(int count, std::uint64_t master_seed,
               const std::function<void(const SweepJob&)>& fn);

  /// One process-wide pool sized by the hardware concurrency, like
  /// SweepRunner(0). Created on first use, so a process that never asks
  /// for it never starts its threads.
  [[nodiscard]] static SweepRunner& shared();

  /// True while the calling thread is executing a job of any SweepRunner
  /// (including the inline single-thread and single-job paths).
  [[nodiscard]] static bool in_job();

  /// The seed job `index` of a sweep over `master_seed` receives.
  [[nodiscard]] static std::uint64_t job_seed(std::uint64_t master_seed,
                                              int index) {
    return RngStream::mix(master_seed, static_cast<std::uint64_t>(index));
  }

 private:
  void worker_loop(int self);
  /// Drain phase one worker runs for the current epoch: own deque first,
  /// then steal; exits after a scan proves no stealable work remains
  /// anywhere (idle workers park instead of spinning on stragglers).
  void drain(int self);
  void execute(int index);

  int threads_;
  std::vector<WorkStealQueue> queues_;  ///< one per worker, index-aligned
  std::vector<std::thread> pool_;       ///< threads_ - 1 background workers

  std::mutex run_mu_;  ///< held for a whole pooled run: one run at a time
  std::mutex mu_;                   ///< guards epoch/fn handoff + finish count
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  int finished_workers_ = 0;
  bool stop_ = false;

  const std::function<void(const SweepJob&)>* fn_ = nullptr;
  std::uint64_t master_seed_ = 0;

  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

}  // namespace meshopt
