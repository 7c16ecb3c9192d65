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
      hardware_threads_(static_cast<int>(std::thread::hardware_concurrency())),
      nslots_(hardware_threads_ > 0 ? hardware_threads_ : nthreads_) {
  if (nthreads_ == 1) return;  // every launch runs inline
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(nslots_));
  for (int s = 0; s < nslots_; ++s)
    slots_[s].lanes =
        std::make_unique<Lane[]>(static_cast<std::size_t>(nthreads_));
  workers_.reserve(static_cast<std::size_t>(nthreads_ - 1));
  for (int w = 0; w < nthreads_ - 1; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    // Under the mutex, so no parking worker can miss the epoch move.
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::spin_workers() const {
  if (hardware_threads_ <= 0) return 0;  // unknown hardware: park
  return std::clamp(hardware_threads_ - std::max(attached(), 1), 0,
                    nthreads_ - 1);
}

void ThreadPool::run_one(Slot& s, i64 block) {
  try {
    s.fn(block);
  } catch (...) {
    // The block still counts as done so the job always completes; the
    // first exception is rethrown on the caller after the join.
    if (!s.has_error.exchange(true, std::memory_order_relaxed))
      s.error = std::current_exception();
  }
#ifndef NDEBUG
  s.executed.fetch_add(1, std::memory_order_relaxed);
#endif
}

void ThreadPool::drain(Slot& s, int L) {
  // Lane L owns claims [lo, lo + len) of each component: the first
  // m % nthreads lanes take one claim more than the rest.
  const i64 m = s.per_component;
  const i64 q = m / nthreads_, extra = m % nthreads_;
  const i64 len = q + (L < extra ? 1 : 0);
  const i64 end = len * s.components;
  Lane& lane = s.lanes[static_cast<std::size_t>(L)];
  if (len == 0 || lane.next.load(std::memory_order_relaxed) >= end) return;
  const i64 lo = L * q + std::min<i64>(L, extra);
  i64 ran = 0;
  for (i64 i; (i = lane.next.fetch_add(1, std::memory_order_relaxed)) < end;
       ++ran) {
    const i64 c = i / len;
    run_one(s, c * m + lo + (i - c * len));
  }
  // acq_rel chains every block's writes (and a captured error) through
  // the lane count and lanes_left to the caller's final load.
  if (ran == 0 ||
      lane.done.fetch_add(ran, std::memory_order_acq_rel) + ran != end)
    return;
  // seq_cst on lanes_left and caller_waiting: either the caller sees the
  // job done before it sleeps, or this thread sees it waiting.
  if (s.lanes_left.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      s.caller_waiting.load(std::memory_order_seq_cst))
    s.lanes_left.notify_one();
}

void ThreadPool::run_lanes(Slot& s, int first) {
  for (int k = 0; k < nthreads_; ++k) drain(s, (first + k) % nthreads_);
}

void ThreadPool::visit(Slot& s, int lane) {
  if (s.state.load(std::memory_order_relaxed) != kLive) return;
  s.hazard.fetch_add(1, std::memory_order_seq_cst);
  // Re-check under the hazard: the owner retires the slot (seq_cst) before
  // it reads the hazard count, so one of the two sees the other. A slot
  // retired and republished in between is a live job too, and the hazard
  // protects it the same way.
  if (s.state.load(std::memory_order_seq_cst) == kLive) run_lanes(s, lane);
  s.hazard.fetch_sub(1, std::memory_order_release);
}

ThreadPool::Slot* ThreadPool::acquire_slot() {
  for (int i = 0; i < nslots_; ++i) {
    Slot& s = slots_[static_cast<std::size_t>(i)];
    int expected = kFree;
    if (s.state.load(std::memory_order_relaxed) == kFree &&
        s.state.compare_exchange_strong(expected, kOwned,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed))
      return &s;
  }
  return nullptr;
}

void ThreadPool::run_blocks(i64 nblocks, FunctionRef<void(i64)> fn,
                            int components) {
  if (nblocks <= 0) return;
  assert(components >= 1 && nblocks % components == 0);
  Slot* s = nthreads_ == 1 || nblocks == 1 ? nullptr : acquire_slot();
  if (s == nullptr) {
    // Inline path (a 1-wide pool, one block, or every slot busy): no
    // shared state touched, exceptions propagate directly.
    for (i64 b = 0; b < nblocks; ++b) fn(b);
    return;
  }

  // Write the job while the slot is owned: no worker reads it until the
  // release store below marks it live.
  s->fn = fn;
  s->components = components;
  s->per_component = nblocks / components;
  for (int L = 0; L < nthreads_; ++L) {
    Lane& lane = s->lanes[static_cast<std::size_t>(L)];
    lane.next.store(0, std::memory_order_relaxed);
    lane.done.store(0, std::memory_order_relaxed);
  }
  // Lanes that own a claim: all of them, or the first m when m < width.
  s->lanes_left.store(
      static_cast<int>(std::min<i64>(nthreads_, s->per_component)),
      std::memory_order_relaxed);
  s->caller_waiting.store(false, std::memory_order_relaxed);
  s->has_error.store(false, std::memory_order_relaxed);
#ifndef NDEBUG
  s->executed.store(0, std::memory_order_relaxed);
#endif
  s->state.store(kLive, std::memory_order_release);

  // Publish: spinning workers see the epoch move. A parked worker needs a
  // wake only when none spins. seq_cst against the worker's spinning_ /
  // parked_ updates and its epoch re-check: either it sees this epoch
  // before it parks, or this sees it parked (and the empty critical
  // section orders the notify after its wait began).
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (spinning_.load(std::memory_order_seq_cst) == 0 &&
      parked_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_work_.notify_one();
  }

  // The caller is lane 0: it drains its own lane, then steals.
  run_lanes(*s, 0);

  // Join: spin briefly on stragglers (they are mid-block, typically
  // microseconds away) while every worker may spin, else yield; then sleep
  // on lanes_left until the last lane completes.
  const auto all_done = [&] {
    return s->lanes_left.load(std::memory_order_acquire) == 0;
  };
  if (!all_done()) {
    if (spin_workers() == nthreads_ - 1) {
      spin_until(kSpinBudget, all_done);
    } else {
      for (int spin = 0; spin < 256 && !all_done(); ++spin)
        std::this_thread::yield();
    }
    if (!all_done()) {
      s->caller_waiting.store(true, std::memory_order_seq_cst);
      for (int left; (left = s->lanes_left.load(std::memory_order_seq_cst));)
        s->lanes_left.wait(left, std::memory_order_seq_cst);
    }
  }
#ifndef NDEBUG
  assert(s->executed.load(std::memory_order_relaxed) == nblocks &&
         "every block must execute exactly once per job");
#endif

  // Teardown: retire the slot so no new visitor enters, then drain the
  // visitors that did. After that no thread can touch the job again, and
  // the borrowed callable may die.
  s->state.store(kOwned, std::memory_order_seq_cst);
  for (int spin = 0; s->hazard.load(std::memory_order_seq_cst) != 0; ++spin) {
    if (spin < 64)
      cpu_pause();
    else
      std::this_thread::yield();
  }
  std::exception_ptr error;
  if (s->has_error.load(std::memory_order_relaxed)) error = std::move(s->error);
  s->error = nullptr;
  s->state.store(kFree, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(int w) {
  const int lane = w + 1;
  u64 seen = 0;  // epoch as of this worker's last scan of the slots
  const auto published = [&] {
    return epoch_.load(std::memory_order_seq_cst) != seen;
  };
  for (;;) {
    if (!published()) {
      if (w < spin_workers()) {
        spinning_.fetch_add(1, std::memory_order_seq_cst);
        spin_until(kSpinBudget, [&] {
          return epoch_.load(std::memory_order_relaxed) != seen;
        });
        spinning_.fetch_sub(1, std::memory_order_seq_cst);
      }
      if (!published()) {
        std::unique_lock<std::mutex> lock(mutex_);
        parked_.fetch_add(1, std::memory_order_seq_cst);
        cv_work_.wait(lock, published);
        parked_.fetch_sub(1, std::memory_order_relaxed);
        lock.unlock();
        // Pass the wake on: a publish wakes one parked worker only when
        // none spins, so a burst after an idle gap reaches the whole pool
        // one wake at a time.
        if (parked_.load(std::memory_order_relaxed) > 0)
          cv_work_.notify_one();
      }
    }
    // A publish stores its slot's state before it bumps the epoch, so
    // this acquire load sees every job published up to `seen`.
    seen = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    for (int i = 0; i < nslots_; ++i)
      visit(slots_[static_cast<std::size_t>(i)], lane);
  }
}

}  // namespace simas::par
