#include "par/thread_pool.hpp"

#include <algorithm>
#include <cassert>

namespace simas::par {

namespace {

/// Spin-wait hint: lets the sibling hyperthread run and saves power.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spin with cpu_pause() until done() or `budget` has passed. Reads the
/// clock once per 64 pauses.
template <class Done>
void spin_until(std::chrono::microseconds budget, Done&& done) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  do {
    for (int i = 0; i < 64; ++i) {
      if (done()) return;
      cpu_pause();
    }
  } while (std::chrono::steady_clock::now() < deadline);
}

}  // namespace

ThreadPool::ThreadPool(int nthreads)
    : nthreads_(std::max(1, nthreads)),
      hardware_threads_(static_cast<int>(std::thread::hardware_concurrency())) {
  workers_.reserve(static_cast<std::size_t>(nthreads_ - 1));
  for (int t = 0; t < nthreads_ - 1; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Spinning workers watch the epoch, not stop_.
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::capture_error(Job& job) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  if (job.error == nullptr) job.error = std::current_exception();
  job.has_error.store(true, std::memory_order_release);
}

void ThreadPool::run_one(Job& job, i64 block) {
  try {
    job.fn(block);
  } catch (...) {
    // Count the block done regardless so the job always completes; the
    // first exception is rethrown on the caller after the join.
    capture_error(job);
  }
#ifndef NDEBUG
  job.executed.fetch_add(1, std::memory_order_relaxed);
#endif
  // seq_cst on the done-counter and the caller_waiting flag closes the
  // store-buffer race between "worker: count done, then check if the
  // caller sleeps" and "caller: announce sleep, then check the count":
  // at least one side must see the other, so the last block's completion
  // is never missed. (The RMW chain also publishes every block's writes
  // to the caller's final load.)
  if (job.done.fetch_add(1, std::memory_order_seq_cst) + 1 == job.nblocks) {
    if (job.caller_waiting.load(std::memory_order_seq_cst)) {
      // Empty critical section: the caller sets caller_waiting under the
      // mutex before sleeping, so this cannot interleave between its
      // final predicate check and the sleep. The flag keeps this mutex
      // touch off the no-straggler fast path. cv_done_ is shared by all
      // sleeping callers, so notify_all + per-job predicate.
      { std::lock_guard<std::mutex> lock(mutex_); }
      cv_done_.notify_all();
    }
  }
}

bool ThreadPool::spin_allowed() const {
  if (hardware_threads_ <= 0) return false;  // unknown hardware: park
  return std::max(attached(), 1) + (nthreads_ - 1) <= hardware_threads_;
}

ThreadPool::Job* ThreadPool::front_claimable() {
  while (!active_.empty()) {
    Job* front = active_.front();
    if (front->next.load(std::memory_order_relaxed) < front->nblocks)
      return front;
    active_.erase(active_.begin());
  }
  return nullptr;
}

void ThreadPool::unlink(Job* job) {
  const auto it = std::find(active_.begin(), active_.end(), job);
  if (it != active_.end()) active_.erase(it);
}

void ThreadPool::run_blocks(i64 nblocks, FunctionRef<void(i64)> fn) {
  if (nblocks <= 0) return;
  if (nthreads_ == 1 || nblocks == 1) {
    // Inline path: no shared state touched, exceptions propagate directly.
    // Re-entrant trivially (each caller loops over its own blocks).
    for (i64 b = 0; b < nblocks; ++b) fn(b);
    return;
  }

  Job job;
  job.fn = fn;
  job.nblocks = nblocks;

  // Publish: link the stack job into the active list and bump the epoch.
  // Workers only learn about a job under the mutex, so a worker that
  // misses this publish simply never touches the job; the caller needs no
  // worker to finish. Spinning workers see the epoch move; a parked one
  // needs a wake, and it wakes the next (see worker_loop).
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_.push_back(&job);
    epoch_.fetch_add(1, std::memory_order_relaxed);
    wake = parked_ > 0;
  }
  if (wake) cv_work_.notify_one();

  // The calling thread participates as a worker for its own job. Claiming
  // a block is one atomic fetch-add, uncontended in the common case.
  for (;;) {
    const i64 b = job.next.fetch_add(1, std::memory_order_relaxed);
    if (b >= nblocks) break;
    run_one(job, b);
  }

  // Wait for stragglers: spin briefly (they are mid-block, typically
  // microseconds away), then sleep on the CV for the long tail. Under the
  // spin gate the spin pauses; otherwise it yields the core.
  const auto all_done = [&] {
    return job.done.load(std::memory_order_seq_cst) == nblocks;
  };
  if (!all_done()) {
    if (spin_allowed()) {
      spin_until(kSpinBudget, all_done);
    } else {
      for (int spin = 0; spin < 256 && !all_done(); ++spin)
        std::this_thread::yield();
    }
    if (!all_done()) {
      std::unique_lock<std::mutex> lock(mutex_);
      job.caller_waiting.store(true, std::memory_order_seq_cst);
      cv_done_.wait(lock, all_done);
      job.caller_waiting.store(false, std::memory_order_seq_cst);
    }
  }
#ifndef NDEBUG
  assert(job.executed.load(std::memory_order_relaxed) == nblocks &&
         "every block must execute exactly once per job");
#endif

  // Teardown: unlink so no *new* worker can register, then drain the
  // claimers that did. A claimer is registered under the mutex while the
  // job is linked and deregisters after leaving the claim loop, so after
  // unlink + claimers == 0 no thread can touch the job again and the
  // stack frame (and the borrowed callable) may be destroyed.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    unlink(&job);
  }
  while (job.claimers.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();

  if (job.has_error.load(std::memory_order_acquire)) {
    std::exception_ptr e;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      e = job.error;
    }
    std::rethrow_exception(e);
  }
}

void ThreadPool::worker_loop() {
  // `idle`: as of the last scan (under the mutex, at epoch `seen`), no
  // job will hold unclaimed blocks once this worker's claim loop ends, so
  // none can until a publish moves the epoch. Publishes bump the epoch
  // under the mutex, so none can slip between a scan and the park.
  u64 seen = 0;
  bool idle = false;
  const auto published = [&] {
    return epoch_.load(std::memory_order_relaxed) != seen;
  };
  for (;;) {
    // Wait for the next publish off the mutex while the spin gate allows.
    if (idle && spin_allowed()) spin_until(kSpinBudget, published);
    Job* job = nullptr;
    bool wake_next = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (idle && !published()) {
        ++parked_;
        cv_work_.wait(lock, [&] { return stop_ || published(); });
        --parked_;
      }
      if (stop_) return;
      job = front_claimable();
      seen = epoch_.load(std::memory_order_relaxed);
      if (job == nullptr) {
        idle = true;
        continue;
      }
      // Register as a claimer *under the mutex*, while the job is still
      // linked: the job's caller unlinks under the mutex and then waits
      // for claimers to drain, so a registered claim holds the stack
      // frame alive until we deregister below.
      job->claimers.fetch_add(1, std::memory_order_acq_rel);
      // Once this job is drained, only the jobs queued behind it can
      // hold unclaimed blocks until the next publish.
      idle = active_.size() == 1;
      // Pass the wake on to a parked worker while blocks remain unclaimed
      // (this job's, or another queued job's — the woken worker
      // rescans). Spinning workers need no wake.
      wake_next = parked_ > 0;
    }
    if (wake_next && job->next.load(std::memory_order_relaxed) < job->nblocks)
      cv_work_.notify_one();
    for (;;) {
      const i64 b = job->next.fetch_add(1, std::memory_order_relaxed);
      if (b >= job->nblocks) break;  // exhausted: never invoke
      run_one(*job, b);
    }
    job->claimers.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace simas::par
