#pragma once
// Blocking fork-join thread pool used to execute kernel bodies on the
// host. Work is partitioned into blocks by the *caller* (the Engine),
// independent of the thread count, so reductions built on top stay
// deterministic; the pool only decides which thread runs which block.
//
// Re-entrant: run_blocks() may be called from any number of threads
// concurrently (N engines sharing one pool — the service layer's shared
// host-thread substrate). The caller always drains its own job, so
// forward progress never depends on a worker being free: with every
// worker busy elsewhere a job simply runs on its caller.
//
// Lanes: a job of `components` x m claims splits each component's m
// claims into one contiguous lane per pool thread. The caller is lane 0
// and worker w is lane w + 1; a thread drains its own lane with one
// fetch-add per claim on the lane's cursor, then steals from the other
// lanes the same way. Lane L covers the same claims of every component
// in every launch of the same shape, so the same planes run on the same
// thread launch after launch and stay in its core's cache. A thread adds
// what it ran to the lane's done count once per lane visit; the thread
// that completes a lane counts it off the job's lanes_left, and the job is
// done when lanes_left reaches zero.
//
// Mutex-free handoff: jobs are published into a fixed array of slots, one
// per hardware thread. A caller takes a free slot with one CAS, writes the
// job into it, marks it live and bumps `epoch_`. A worker that sees the
// epoch move scans the slots; to enter a live slot it raises the slot's
// hazard count and re-checks that the slot is still live (both seq_cst).
// At teardown the caller marks the slot not live (seq_cst), waits for the
// hazard count to drain, and frees the slot: either the worker's re-check
// sees the slot retired, or the caller sees its hazard, so no thread can
// touch a job after its caller returns. A launch that finds no free slot
// runs on its caller. The job's callable is a FunctionRef (two raw
// pointers), so launching never heap-allocates, and a caller that must
// sleep on stragglers waits on lanes_left itself (std::atomic::wait).
// The mutex and the CV serve only to park idle workers.
//
// Per-worker spin gate: an idle worker w spins on `epoch_` (with a CPU
// pause) for up to kSpinBudget after the last publish it saw, and then
// parks on the CV, only while w < spin_workers(): as many workers spin as
// there are hardware threads not covered by Leases, max(attached, 1) (one
// Lease per Engine using the pool; a bare pool counts as one caller). A
// publish wakes a parked worker only when no worker is spinning; a worker
// woken from its park wakes one more, so a burst after an idle gap still
// reaches the whole pool.
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
// Exceptions thrown by a block are captured (first one wins), the block
// is still counted as done so the job cannot deadlock, and the exception
// is rethrown on the calling thread after the job completes. In debug
// builds the pool asserts every block of a job executed exactly once.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
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
  /// executed exactly once. The blocks are `components` equal runs of
  /// nblocks / components claims (components divides nblocks), and each
  /// run is split into the same lanes. Blocking: returns when all blocks
  /// are done. The callable is borrowed for the duration of the call
  /// only. Safe to call from multiple threads concurrently; each call is
  /// an independent job.
  void run_blocks(i64 nblocks, FunctionRef<void(i64)> fn, int components = 1);

  /// Registration of one caller (an Engine) for the gates: held for the
  /// caller's lifetime, taken once at construction, never per launch.
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
  /// load, off the lines that publishes and claims write.
  bool saturated() const {
    return hardware_threads_ > 0 &&
           attached() >= std::max(2, hardware_threads_);
  }

 private:
  /// How long an idle worker (or a caller awaiting stragglers) spins
  /// before it sleeps.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  /// One lane of a slot's job: lane-local claim indices [0, components x
  /// lane length), on a cache line of its own.
  struct alignas(64) Lane {
    std::atomic<i64> next{0};
    std::atomic<i64> done{0};
  };

  enum SlotState : int { kFree, kOwned, kLive };

  /// One in-flight run_blocks() call. Slots are allocated with the pool
  /// and reused; only the slot's owner writes the job fields, and only
  /// while the slot is not live.
  struct alignas(64) Slot {
    // Entry line: every visit reads state and raises hazard.
    std::atomic<int> state{kFree};
    std::atomic<int> hazard{0};  ///< workers inside (or entering) the job
    // The job, fixed while live.
    alignas(64) FunctionRef<void(i64)> fn;
    i64 per_component = 0;  ///< claims per component (m)
    int components = 0;
    std::unique_ptr<Lane[]> lanes;  ///< one per pool thread
    // Error capture (cold path): the exchange winner writes `error`.
    std::atomic<bool> has_error{false};
    std::exception_ptr error;
    // Completion line.
    alignas(64) std::atomic<int> lanes_left{0};
    /// True once the caller may sleep on lanes_left; the thread that
    /// completes the job notifies only then.
    std::atomic<bool> caller_waiting{false};
#ifndef NDEBUG
    std::atomic<i64> executed{0};  ///< exactly-once debug accounting
#endif
  };

  void worker_loop(int w);
  /// How many workers may spin: hardware threads not covered by Leases,
  /// capped at the worker count; 0 when hardware concurrency is unknown.
  int spin_workers() const;
  /// Free slot taken for the caller, or nullptr if every slot is busy.
  Slot* acquire_slot();
  /// Enter slot `s` under its hazard count and run `lane`'s claims.
  void visit(Slot& s, int lane);
  /// Drain lane `first`, then steal from the other lanes in turn.
  void run_lanes(Slot& s, int first);
  /// Run the unclaimed claims of lane L; count them done once.
  void drain(Slot& s, int L);
  /// Execute one claim: invoke, and capture a thrown exception.
  static void run_one(Slot& s, i64 block);

  // --- Gate inputs, read on every launch (saturated) and every idle
  // spin (spin_workers): a line of their own. attached_ changes only
  // when an engine is built or destroyed.
  alignas(64) int nthreads_;
  int hardware_threads_;  ///< hardware_concurrency(); 0 = unknown
  std::atomic<int> attached_{0};
  int nslots_;
  std::unique_ptr<Slot[]> slots_;
  std::vector<std::thread> workers_;

  // --- Wake line: bumped by every publish and by the destructor; idle
  // workers spin on epoch_. spinning_ and parked_ count the idle workers
  // (parked_ changes under mutex_).
  alignas(64) std::atomic<u64> epoch_{0};
  std::atomic<int> spinning_{0};
  std::atomic<int> parked_{0};
  std::atomic<bool> stop_{false};

  // --- Parking only.
  alignas(64) std::mutex mutex_;
  std::condition_variable cv_work_;
};

}  // namespace simas::par
