#include "sweep/sweep_runner.h"

#include <algorithm>

namespace meshopt {

namespace {

/// Set while this thread executes a SweepRunner job; see in_job().
thread_local bool t_in_job = false;

/// Marks the calling thread as inside a job for one scope (nesting-safe).
class JobScope {
 public:
  JobScope() : outer_(t_in_job) { t_in_job = true; }
  ~JobScope() { t_in_job = outer_; }
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  bool outer_;
};

/// Runs every job on the calling thread in index order; rethrows the
/// first job's exception after the rest ran, as a pooled run does.
void run_inline(int count, std::uint64_t master_seed,
                const std::function<void(const SweepJob&)>& fn) {
  std::exception_ptr error;
  for (int i = 0; i < count; ++i) {
    SweepJob job;
    job.index = i;
    job.seed = SweepRunner::job_seed(master_seed, i);
    try {
      const JobScope scope;
      fn(job);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

SweepRunner& SweepRunner::shared() {
  static SweepRunner pool(0);
  return pool;
}

bool SweepRunner::in_job() { return t_in_job; }

SweepRunner::SweepRunner(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    threads_ = static_cast<int>(std::thread::hardware_concurrency());
    if (threads_ <= 0) threads_ = 1;
  }
  queues_ = std::vector<WorkStealQueue>(static_cast<std::size_t>(threads_));
  pool_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 1; t < threads_; ++t)
    pool_.emplace_back([this, t] { worker_loop(t); });
}

SweepRunner::~SweepRunner() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& th : pool_) th.join();
}

void SweepRunner::execute(int index) {
  SweepJob job;
  job.index = index;
  job.seed = job_seed(master_seed_, index);
  try {
    const JobScope scope;
    (*fn_)(job);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(error_mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void SweepRunner::drain(int self) {
  int idx;
  for (;;) {
    if (queues_[static_cast<std::size_t>(self)].pop(idx)) {
      execute(idx);
      continue;
    }
    // Steal scan. Queues only drain after the pre-run fill, so a scan in
    // which every queue reports kEmpty is conclusive: no stealable work
    // can ever appear again (jobs still *executing* on other workers are
    // covered by run_raw's end-of-epoch wait). A kLost race means some
    // other worker advanced — rescan rather than spin on a straggler.
    bool got = false;
    bool contended = false;
    for (int off = 1; off < threads_ && !got; ++off) {
      const int victim = (self + off) % threads_;
      switch (queues_[static_cast<std::size_t>(victim)].steal(idx)) {
        case WorkStealQueue::Steal::kGot:
          got = true;
          break;
        case WorkStealQueue::Steal::kLost:
          contended = true;
          break;
        case WorkStealQueue::Steal::kEmpty:
          break;
      }
    }
    if (got) {
      execute(idx);
      continue;
    }
    if (!contended) return;
    std::this_thread::yield();  // transient CAS contention only
  }
}

void SweepRunner::worker_loop(int self) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock,
                     [this, seen_epoch] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
    }
    drain(self);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++finished_workers_;
    }
    cv_done_.notify_one();
  }
}

void SweepRunner::run_raw(int count, std::uint64_t master_seed,
                          const std::function<void(const SweepJob&)>& fn) {
  if (count <= 0) return;
  // Degenerate and nested runs execute inline on the calling thread
  // (identical semantics; a job never waits on a pool it may belong to).
  if (threads_ == 1 || count == 1 || in_job()) {
    run_inline(count, master_seed, fn);
    return;
  }
  // Concurrent callers take turns: one pooled run at a time.
  const std::lock_guard<std::mutex> run_lock(run_mu_);

  // Partition job indices into per-worker blocks, each filled in reverse
  // so the owner's LIFO pop walks its block in ascending order (thieves
  // steal from the block's high end).
  std::vector<int> block;
  for (int w = 0; w < threads_; ++w) {
    const int lo = static_cast<int>(
        static_cast<std::int64_t>(w) * count / threads_);
    const int hi = static_cast<int>(
        static_cast<std::int64_t>(w + 1) * count / threads_);
    block.clear();
    for (int i = hi - 1; i >= lo; --i) block.push_back(i);
    queues_[static_cast<std::size_t>(w)].fill(block.data(),
                                              static_cast<int>(block.size()));
  }

  {
    const std::lock_guard<std::mutex> lock(error_mu_);
    first_error_ = nullptr;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    master_seed_ = master_seed;
    finished_workers_ = 0;
    ++epoch_;  // releases the queue fills to the woken workers
  }
  cv_start_.notify_all();

  drain(/*self=*/0);  // the caller is worker 0

  // Wait for every background worker to leave the epoch: a worker exits
  // drain() only after its last job returned, so this both completes the
  // results (the mutex handoff publishes their writes) and guarantees the
  // fn/queue state is not reused while a straggler is still scanning.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock,
                  [this] { return finished_workers_ == threads_ - 1; });
    fn_ = nullptr;
  }

  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(error_mu_);
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace meshopt
