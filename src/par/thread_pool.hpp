#pragma once
// Lock-free blocking fork-join thread pool used to execute kernel bodies
// on the host. Work is partitioned into blocks by the *caller* (the
// Engine), independent of the thread count, so reductions built on top
// stay deterministic; the pool only decides which thread runs which block.
//
// Re-entrant: run_blocks() may be called from any number of threads
// concurrently (N engines sharing one pool — the service layer's shared
// host-thread substrate). Each call owns a stack-allocated Job; the pool
// keeps a short list of jobs with unclaimed blocks. The caller always
// drains its own job, so forward progress never depends on a worker being
// free: with every worker busy elsewhere a job simply runs inline on its
// caller.
//
// Hot-path protocol (no allocation):
//  * block claiming  — one atomic fetch-add on the job's cursor per block;
//  * completion      — one atomic fetch-add on the job's done-counter;
//    the caller spins briefly on the counter, then sleeps on a CV.
// The mutex guards only job *boundaries*: linking and unlinking a job,
// registering a claimer, parking. Job handoff is a FunctionRef (two raw
// pointers) instead of a std::function, so launching a job never
// heap-allocates.
//
// Publish, spin, park: the caller links its job and bumps `epoch_`, both
// under the mutex, and calls notify_one only if a worker is parked. A
// worker that finds no unclaimed work spins on `epoch_` (with a CPU pause)
// for up to kSpinBudget after the last publish it saw, and only then
// parks on the CV, counted in `parked_`. So back-to-back launches find
// their workers hot and pay no futex wake. A worker that drained the only
// active job spins without retaking the mutex the caller needs to unlink.
// A worker that claims a job while others are parked wakes one of them
// if unclaimed blocks remain, so a burst after an idle gap still reaches
// the whole pool.
//
// Spin gate: workers spin only while the pool's callers and its workers
// fit on the hardware, max(attached, 1) + (width - 1) <= hardware
// concurrency, where `attached` counts live Leases (one per Engine using
// the pool). A pool shared by more engines than that (the JobServer's)
// parks at once, so spinning never steals a core from a caller.
//
// Placement gate: saturated() is true once the live Leases alone cover
// the hardware, attached >= max(2, hardware concurrency). Every hardware
// thread then already has a caller of its own, so an engine runs its
// launches inline (Engine::dispatch_blocks) instead of handing blocks to
// workers that can only preempt another caller. A lone caller never
// counts as saturated, however narrow the machine: with nobody else to
// fill it, the pool is its only parallelism.
//
// Both gates are derived from the live Lease count and the hardware, and
// both are off when hardware concurrency is unknown (reported as 0): no
// spinning, no saturation, so placement stays on the pool.
//
// Lifetime: a Job lives on its caller's stack. The caller unlinks it from
// the active list under the mutex (so no *new* worker can reach it) and
// then waits for the job's claimer count to drain before returning — a
// worker holds a claim from registration (under the mutex) until it leaves
// the job's claim loop. In debug builds the pool asserts every block of a
// job executed exactly once.
//
// Exceptions thrown by a block are captured (first one wins), the block
// is still counted as done so the job cannot deadlock, and the exception
// is rethrown on the calling thread after the job completes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "par/function_ref.hpp"
#include "util/types.hpp"

namespace simas::par {

class ThreadPool {
 public:
  /// nthreads == 1 means run inline on the caller (no worker threads).
  explicit ThreadPool(int nthreads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run fn(block_index) for block_index in [0, nblocks); blocks are
  /// distributed over the workers; blocks are executed exactly once.
  /// Blocking: returns when all blocks are done. The callable is borrowed
  /// for the duration of the call only. Safe to call from multiple
  /// threads concurrently; each call is an independent job.
  void run_blocks(i64 nblocks, FunctionRef<void(i64)> fn);

  /// Registration of one caller (an Engine) for the spin gate: held for
  /// the caller's lifetime, taken once at construction, never per launch.
  class Lease {
   public:
    explicit Lease(ThreadPool& pool) : pool_(pool) {
      pool_.attached_.fetch_add(1, std::memory_order_relaxed);
    }
    ~Lease() { pool_.attached_.fetch_sub(1, std::memory_order_relaxed); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

   private:
    ThreadPool& pool_;
  };

  /// Live Leases on this pool.
  int attached() const { return attached_.load(std::memory_order_relaxed); }

  /// The placement gate: true while the live Leases cover every hardware
  /// thread, attached() >= max(2, hardware concurrency); never true for a
  /// lone caller, nor when hardware concurrency is unknown. One relaxed
  /// load, off the mutex's cache line.
  bool saturated() const {
    return hardware_threads_ > 0 &&
           attached() >= std::max(2, hardware_threads_);
  }

 private:
  /// How long an idle worker (or a caller awaiting stragglers) spins
  /// before it sleeps on a CV.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  /// One in-flight run_blocks() call, stack-allocated by the caller.
  struct Job {
    FunctionRef<void(i64)> fn;
    i64 nblocks = 0;
    // Claim cursor and done counter on separate cache lines: different
    // threads hammer them in different phases.
    alignas(64) std::atomic<i64> next{0};
    alignas(64) std::atomic<i64> done{0};
    /// Workers inside (or entering) this job's claim loop. The caller
    /// drains this to zero (after unlinking) before the Job leaves scope.
    std::atomic<int> claimers{0};
    /// True only while the caller sleeps in cv_done_; workers skip the
    /// mutex/notify entirely otherwise.
    std::atomic<bool> caller_waiting{false};
    // Error capture (cold path; error guarded by the pool mutex).
    std::atomic<bool> has_error{false};
    std::exception_ptr error;
#ifndef NDEBUG
    std::atomic<i64> executed{0};  ///< exactly-once debug accounting
#endif
  };

  void worker_loop();
  /// The spin gate: true while callers plus workers fit on the hardware;
  /// false when hardware concurrency is unknown.
  bool spin_allowed() const;
  /// First job in active_ with unclaimed blocks, pruning exhausted ones
  /// (under lock); nullptr if none.
  Job* front_claimable();
  /// Execute one claimed block: invoke, capture a thrown exception, count
  /// the block done, and wake the job's caller if it was the last one.
  void run_one(Job& job, i64 block);
  void capture_error(Job& job) noexcept;
  /// Remove `job` from active_ if still linked (caller side; under lock).
  void unlink(Job* job);

  // --- Gate inputs, read on every launch (saturated) and every idle
  // spin (spin_allowed): a line of their own, so those reads never miss
  // on the line that publishes and unlinks write. attached_ changes only
  // when an engine is built or destroyed.
  alignas(64) int nthreads_;
  int hardware_threads_;  ///< hardware_concurrency(); 0 = unknown
  std::atomic<int> attached_{0};
  std::vector<std::thread> workers_;

  // --- Job-boundary signalling only. active_ holds jobs that may still
  // have unclaimed blocks; exhausted jobs are pruned by whoever notices.
  alignas(64) std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Job*> active_;  ///< guarded by mutex_
  /// Bumped (under mutex_) by every publish and by the destructor; idle
  /// workers spin on it without the mutex.
  alignas(64) std::atomic<u64> epoch_{0};
  int parked_ = 0;            ///< workers asleep in cv_work_; under mutex_
  bool stop_ = false;         // written under mutex_, read in waits
};

}  // namespace simas::par
