#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/stream_capture.hpp"
#include "par/engine.hpp"
#include "par/sim_context.hpp"
#include "par/site_table.hpp"
#include "par/thread_pool.hpp"
#include "watchdog.hpp"

// Counting global allocator for this test binary: the steady-state kernel
// launch path (pool dispatch, IR recording, reductions) must not
// heap-allocate per launch. Replacing the unsized scalar forms is enough —
// the default array and sized forms forward to them; over-aligned
// allocations bypass the counter (none occur on the paths under test).
//
// GCC inlines the replaced operator new down to malloc and then flags the
// std::free in the matching operator delete as a mismatch; the pair is in
// fact consistent, so silence the false positive for this TU.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<long> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace simas::par {
namespace {

TEST(ThreadPool, RunsEveryBlockExactlyOnce) {
  // Lanes split each component's claims: component counts 1 and 3, claim
  // counts that do not divide by the lane count, and fewer claims than
  // lanes (empty lanes) must all still run every block exactly once.
  testutil::Watchdog watchdog(120);
  for (const int nthreads : {1, 2, 3, 4, 5}) {
    ThreadPool pool(nthreads);
    for (const int components : {1, 3}) {
      for (const i64 per : {1, 2, 3, 5, 7, 13, 64, 257}) {
        const i64 nblocks = components * per;
        for (int round = 0; round < 20; ++round) {
          std::vector<std::atomic<int>> hits(
              static_cast<std::size_t>(nblocks));
          pool.run_blocks(
              nblocks,
              [&](i64 b) {
                hits[static_cast<std::size_t>(b)].fetch_add(
                    1, std::memory_order_relaxed);
              },
              components);
          for (i64 b = 0; b < nblocks; ++b)
            ASSERT_EQ(hits[static_cast<std::size_t>(b)].load(), 1)
                << "threads " << nthreads << " components " << components
                << " claims " << per << " block " << b;
        }
      }
    }
  }
}

TEST(ThreadPool, BackToBackJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<i64> sum{0};
    pool.run_blocks(64, [&](i64 b) { sum += b; });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(ThreadPool, ZeroAndOneBlocks) {
  ThreadPool pool(3);
  int calls = 0;
  pool.run_blocks(0, [&](i64) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.run_blocks(1, [&](i64) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ManyMoreBlocksThanThreads) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.run_blocks(10000, [&](i64 b) {
    hits[static_cast<std::size_t>(b)].fetch_add(1,
                                                std::memory_order_relaxed);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, FewerBlocksThanThreads) {
  // Most workers find the cursor already exhausted and must park cleanly
  // without touching the job.
  ThreadPool pool(8);
  for (int round = 0; round < 200; ++round) {
    std::atomic<i64> sum{0};
    pool.run_blocks(3, [&](i64 b) { sum += b + 1; });
    ASSERT_EQ(sum.load(), 6);
  }
}

TEST(ThreadPool, RapidBackToBackJobsStress) {
  // Hammers the job-boundary handoff: the publish epoch seen by spinning
  // workers, the slot's hazard-count teardown, and the caller-sleep
  // protocol under immediate reuse of the same slot.
  ThreadPool pool(4);
  std::atomic<i64> total{0};
  i64 expected = 0;
  for (int round = 0; round < 1000; ++round) {
    const i64 nblocks = 2 + (round % 63);
    expected += nblocks;
    pool.run_blocks(nblocks,
                    [&](i64) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPool, IdleLongerThanSpinThenLaunch) {
  // Each round sleeps well past the workers' spin budget, so they have
  // parked: the launch must wake them (or run on its caller) and still
  // run every block exactly once.
  testutil::Watchdog watchdog(60);
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    std::vector<std::atomic<int>> hits(97);
    pool.run_blocks(97, [&](i64 b) {
      hits[static_cast<std::size_t>(b)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, DestroyWhileWorkersSpin) {
  // Destroy the pool right after a launch, while its workers are still
  // spinning for the next publish: the destructor's stop must reach them
  // without a park in between, or join() hangs and the watchdog fires.
  testutil::Watchdog watchdog(60);
  for (int round = 0; round < 200; ++round) {
    auto pool = std::make_unique<ThreadPool>(4);
    std::atomic<i64> sum{0};
    pool->run_blocks(16, [&](i64 b) { sum += b; });
    ASSERT_EQ(sum.load(), 16 * 15 / 2);
    pool.reset();
  }
}

TEST(ThreadPool, ConcurrentCallersOnOnePool) {
  // Four callers hammer one bare 4-wide pool: jobs interleave in the
  // pool's slots, and every block of every launch runs exactly once.
  testutil::Watchdog watchdog(120);
  constexpr int kCallers = 4, kLaunches = 500;
  constexpr i64 kBlocks = 24;
  ThreadPool pool(4);
  std::vector<std::vector<int>> hits(
      kCallers, std::vector<int>(static_cast<std::size_t>(kBlocks), 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<int>& mine = hits[static_cast<std::size_t>(c)];
      for (int l = 0; l < kLaunches; ++l) {
        std::vector<std::atomic<int>> once(static_cast<std::size_t>(kBlocks));
        pool.run_blocks(kBlocks, [&](i64 b) {
          once[static_cast<std::size_t>(b)].fetch_add(
              1, std::memory_order_relaxed);
        });
        for (i64 b = 0; b < kBlocks; ++b)
          mine[static_cast<std::size_t>(b)] +=
              once[static_cast<std::size_t>(b)].load() == 1 ? 1 : 0;
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& mine : hits)
    for (const int n : mine) EXPECT_EQ(n, kLaunches);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolRemainsUsable) {
  // A throwing block must not deadlock the join (the block still counts
  // as done), and the pool must be fully reusable afterwards.
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    EXPECT_THROW(pool.run_blocks(32,
                                 [&](i64 b) {
                                   if (b == 7)
                                     throw std::runtime_error("boom");
                                 }),
                 std::runtime_error);
    std::atomic<i64> sum{0};
    pool.run_blocks(32, [&](i64 b) { sum += b; });
    ASSERT_EQ(sum.load(), 32 * 31 / 2);
  }
}

TEST(ThreadPool, StolenBlockThrowsOnCaller) {
  // 2 lanes of 2 blocks: the caller's lane is {0, 1}, the worker's {2, 3}.
  // Block 0 holds the caller until block 1 has started, so block 1 runs on
  // the worker, stolen from the caller's lane after its own. It throws:
  // the error reaches the caller, and the pool stays usable.
  testutil::Watchdog watchdog(60);
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  int stolen_throws = 0;
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> started{false};
    std::thread::id thrower;
    try {
      pool.run_blocks(4, [&](i64 b) {
        if (b == 0) {
          while (!started.load(std::memory_order_acquire))
            std::this_thread::yield();
        } else if (b == 1) {
          thrower = std::this_thread::get_id();
          started.store(true, std::memory_order_release);
          throw std::runtime_error("stolen block");
        }
      });
      ADD_FAILURE() << "round " << round << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "stolen block");
    }
    stolen_throws += thrower != caller ? 1 : 0;
    std::atomic<i64> sum{0};
    pool.run_blocks(32, [&](i64 b) { sum += b; });
    ASSERT_EQ(sum.load(), 32 * 31 / 2);
  }
  // Block 0 runs on the caller unless a worker drained its own lane and
  // stole it before the caller's first claim.
  EXPECT_GT(stolen_throws, 0);
}

TEST(ThreadPool, OverflowLaunchesRunOnTheirCallers) {
  // More callers in flight at once than the pool has slots (one per
  // hardware thread): block 0 of every launch waits until every caller
  // has a launch running, so at least two launches find no free slot.
  // Those run every block on their caller, and every block of every
  // launch still runs exactly once.
  testutil::Watchdog watchdog(120);
  constexpr int kWidth = 3;
  constexpr i64 kBlocks = 8;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int callers = (hw > 0 ? hw : kWidth) + 2;
  ThreadPool pool(kWidth);
  for (int round = 0; round < 5; ++round) {
    std::latch all_in_flight(callers);
    std::vector<std::vector<std::atomic<int>>> hits(
        static_cast<std::size_t>(callers));
    std::vector<std::vector<std::thread::id>> ran_on(
        static_cast<std::size_t>(callers));
    std::vector<std::thread::id> caller_id(static_cast<std::size_t>(callers));
    for (int c = 0; c < callers; ++c) {
      hits[static_cast<std::size_t>(c)] =
          std::vector<std::atomic<int>>(static_cast<std::size_t>(kBlocks));
      ran_on[static_cast<std::size_t>(c)].resize(
          static_cast<std::size_t>(kBlocks));
    }
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(callers));
    for (int c = 0; c < callers; ++c) {
      threads.emplace_back([&, c] {
        const auto cs = static_cast<std::size_t>(c);
        caller_id[cs] = std::this_thread::get_id();
        pool.run_blocks(kBlocks, [&](i64 b) {
          const auto bs = static_cast<std::size_t>(b);
          if (b == 0) all_in_flight.arrive_and_wait();
          ran_on[cs][bs] = std::this_thread::get_id();
          hits[cs][bs].fetch_add(1, std::memory_order_relaxed);
        });
      });
    }
    for (auto& t : threads) t.join();
    int on_caller = 0;
    for (int c = 0; c < callers; ++c) {
      const auto cs = static_cast<std::size_t>(c);
      bool all_mine = true;
      for (i64 b = 0; b < kBlocks; ++b) {
        const auto bs = static_cast<std::size_t>(b);
        ASSERT_EQ(hits[cs][bs].load(), 1) << "caller " << c << " block " << b;
        all_mine = all_mine && ran_on[cs][bs] == caller_id[cs];
      }
      on_caller += all_mine ? 1 : 0;
    }
    EXPECT_GE(on_caller, 2) << "round " << round;
  }
}

TEST(ThreadPool, DestroyWhileWorkersParked) {
  // Idle past the spin budget, so the workers have parked: the
  // destructor's stop must wake them, or join() hangs and the watchdog
  // fires.
  testutil::Watchdog watchdog(60);
  for (int round = 0; round < 20; ++round) {
    auto pool = std::make_unique<ThreadPool>(4);
    std::atomic<i64> sum{0};
    pool->run_blocks(16, [&](i64 b) { sum += b; });
    ASSERT_EQ(sum.load(), 16 * 15 / 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.reset();
  }
}

TEST(ThreadPool, ExceptionOnInlinePathPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.run_blocks(4,
                               [](i64 b) {
                                 if (b == 2) throw std::runtime_error("x");
                               }),
               std::runtime_error);
}

TEST(SiteTable, DeduplicatesByName) {
  const auto& a = SIMAS_SITE("test_site_dedupe", SiteKind::ParallelLoop, 1);
  const auto& b = SIMAS_SITE("test_site_dedupe", SiteKind::ParallelLoop, 1);
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.id, 0);
}

TEST(SiteTable, ReferencesStableAcrossGrowth) {
  const auto& first = SIMAS_SITE("test_site_stable", SiteKind::ParallelLoop, 0);
  const std::string name_before = first.name;
  for (int i = 0; i < 200; ++i) {
    SiteTable::process().intern(make_site(
        "test_site_growth_" + std::to_string(i), SiteKind::ParallelLoop));
  }
  EXPECT_EQ(first.name, name_before);  // chunked storage: no invalidation
}

EngineConfig gpu_config(LoopModel loops, gpusim::MemoryMode mem) {
  EngineConfig cfg;
  cfg.loops = loops;
  cfg.memory = mem;
  cfg.gpu = true;
  cfg.host_threads = 2;
  return cfg;
}

TEST(Engine, ForEachCoversRange) {
  Engine eng(gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual));
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& site =
      SIMAS_SITE("test_engine_cover", SiteKind::ParallelLoop, 0);
  std::set<std::tuple<idx, idx, idx>> seen;
  std::mutex m;
  eng.for_each(site, Range3{1, 4, 0, 3, 2, 5}, {out(id)},
               [&](idx i, idx j, idx k) {
                 std::lock_guard<std::mutex> lock(m);
                 seen.insert({i, j, k});
               });
  EXPECT_EQ(seen.size(), 3u * 3u * 3u);
  EXPECT_TRUE(seen.count({1, 0, 2}));
  EXPECT_TRUE(seen.count({3, 2, 4}));
}

/// The pinned partition summed serially, one 8-plane block at a time:
/// the ungrouped reference every reduction, however its claims group the
/// blocks, must reproduce bit for bit.
template <class Term>
real pinned_reference_sum(Range3 r, Term term) {
  real total = 0.0;
  const i64 planes = static_cast<i64>(r.nj()) * r.nk();
  for (i64 p0 = 0; p0 < planes; p0 += 8) {
    real acc = 0.0;
    for (i64 p = p0; p < std::min<i64>(planes, p0 + 8); ++p) {
      const idx j = r.j0 + static_cast<idx>(p % r.nj());
      const idx k = r.k0 + static_cast<idx>(p / r.nj());
      for (idx i = r.i0; i < r.i1; ++i) acc += term(i, j, k);
    }
    total += acc;
  }
  return total;
}

TEST(Engine, ReduceSumMatchesSerialAndThreadCountInvariant) {
  static const KernelSite& site =
      SIMAS_SITE("test_engine_reduce", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  const auto term = [](idx i, idx j, idx k) {
    return 0.1 * static_cast<real>(i) + 0.01 * static_cast<real>(j) +
           0.001 * static_cast<real>(k) + 1.0 / static_cast<real>(1 + i + j);
  };
  // A pool claim takes g = ceil(1024 / (8 ni)) pinned blocks: g = 10 over
  // 24 blocks (inline), 6 over 64 (pooled, last claim short), 19 over 10
  // (one claim), and 1 (ni = 200, pooled).
  const Range3 shapes[] = {Range3{0, 13, 0, 17, 0, 11},
                           Range3{0, 24, 0, 16, 0, 32},
                           Range3{0, 7, 0, 7, 0, 11},
                           Range3{0, 200, 0, 9, 0, 5}};
  for (const Range3& r : shapes) {
    const real serial = pinned_reference_sum(r, term);
    for (int nthreads : {1, 2, 4}) {
      EngineConfig cfg =
          gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
      cfg.host_threads = nthreads;
      Engine eng(cfg);
      const auto id = eng.memory().register_array("a", 1 << 20);
      // Deterministic blocked reduction: bitwise equal to the serial loop
      // in the same block order, at every thread count.
      EXPECT_EQ(eng.reduce_sum(site, r, {in(id)}, term), serial)
          << "ni=" << r.ni() << " threads=" << nthreads;
    }
  }
}

TEST(Engine, ReduceMaxFindsMaximum) {
  Engine eng(gpu_config(LoopModel::Dc2x, gpusim::MemoryMode::Manual));
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& site =
      SIMAS_SITE("test_engine_reduce_max", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  const real m = eng.reduce_max(site, Range3{0, 10, 0, 10, 0, 10}, {in(id)},
                                [&](idx i, idx j, idx k) {
                                  return static_cast<real>(i * 100 + j * 10 +
                                                           k) -
                                         500.0;
                                });
  EXPECT_DOUBLE_EQ(m, 999.0 - 500.0);
}

TEST(Engine, ReduceMaxPropagatesNanFromTheLastBlock) {
  // 8192 cells (pool-dispatched on 4 threads) in 32 blocks. The NaN is the
  // very last cell: finite values precede it in its own block, and finite
  // partials precede its block in the combine, so a plain `>` drops it at
  // both levels.
  static const KernelSite& site =
      SIMAS_SITE("test_engine_reduce_max_nan", SiteKind::ScalarReduction, 0,
                 false, false, /*async_capable=*/false);
  for (const int nthreads : {1, 4}) {
    EngineConfig cfg = gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
    cfg.host_threads = nthreads;
    Engine eng(cfg);
    const auto id = eng.memory().register_array("a", 1 << 20);
    const real m = eng.reduce_max(
        site, Range3{0, 32, 0, 16, 0, 16}, {in(id)}, [](idx i, idx j, idx k) {
          return i == 31 && j == 15 && k == 15
                     ? std::numeric_limits<real>::quiet_NaN()
                     : static_cast<real>(i + j + k);
        });
    EXPECT_TRUE(std::isnan(m)) << nthreads << " thread(s): got " << m;
  }
}

TEST(Engine, ArrayReduceAccumulatesPerOuterIndex) {
  Engine eng(gpu_config(LoopModel::Dc2x, gpusim::MemoryMode::Manual));
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& site =
      SIMAS_SITE("test_engine_array_reduce", SiteKind::ArrayReduction, 0, false,
                 false, /*async_capable=*/false);
  std::vector<real> out(4, 1.0);  // accumulates on top of existing values
  eng.array_reduce(site, Range3{0, 4, 0, 5, 0, 6}, {in(id)},
                   std::span<real>(out),
                   [&](idx i, idx, idx) { return static_cast<real>(i); });
  for (idx i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)],
                     1.0 + static_cast<real>(i) * 30.0);
}

TEST(Engine, AccFusesConsecutiveSameGroupKernels) {
  Engine eng(gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual));
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 =
      SIMAS_SITE("test_fuse_1", SiteKind::ParallelLoop, 77);
  static const KernelSite& s2 =
      SIMAS_SITE("test_fuse_2", SiteKind::ParallelLoop, 77);
  const Range3 r{0, 4, 0, 4, 0, 4};
  eng.for_each(s1, r, {out(id)}, [](idx, idx, idx) {});
  eng.for_each(s2, r, {out(id)}, [](idx, idx, idx) {});
  EXPECT_EQ(eng.counters().kernel_launches, 1);
  EXPECT_EQ(eng.counters().fused_launches, 1);
  EXPECT_EQ(eng.counters().loops_executed, 2);
}

TEST(Engine, DcNeverFuses) {
  Engine eng(gpu_config(LoopModel::Dc2018, gpusim::MemoryMode::Manual));
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 =
      SIMAS_SITE("test_nofuse_1", SiteKind::ParallelLoop, 78);
  static const KernelSite& s2 =
      SIMAS_SITE("test_nofuse_2", SiteKind::ParallelLoop, 78);
  const Range3 r{0, 4, 0, 4, 0, 4};
  eng.for_each(s1, r, {out(id)}, [](idx, idx, idx) {});
  eng.for_each(s2, r, {out(id)}, [](idx, idx, idx) {});
  EXPECT_EQ(eng.counters().kernel_launches, 2);
  EXPECT_EQ(eng.counters().fused_launches, 0);
}

TEST(Engine, FusionBreaksAcrossBarriers) {
  Engine eng(gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual));
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 =
      SIMAS_SITE("test_fusebreak_1", SiteKind::ParallelLoop, 79);
  static const KernelSite& s2 =
      SIMAS_SITE("test_fusebreak_2", SiteKind::ParallelLoop, 79);
  const Range3 r{0, 4, 0, 4, 0, 4};
  eng.for_each(s1, r, {out(id)}, [](idx, idx, idx) {});
  eng.break_fusion();
  eng.for_each(s2, r, {out(id)}, [](idx, idx, idx) {});
  EXPECT_EQ(eng.counters().kernel_launches, 2);
}

TEST(Engine, DcLoopsSlowerThanAccOnGpu) {
  // Fission + no async + offload-parameter penalty: same loop sequence
  // must cost more modeled time under DC (paper Sec. IV-B / V-C).
  double modeled[2];
  int t = 0;
  for (const LoopModel lm : {LoopModel::Acc, LoopModel::Dc2018}) {
    Engine eng(gpu_config(lm, gpusim::MemoryMode::Manual));
    const auto id = eng.memory().register_array("a", 1 << 24);
    static const KernelSite& s1 =
        SIMAS_SITE("test_speed_1", SiteKind::ParallelLoop, 80);
    static const KernelSite& s2 =
        SIMAS_SITE("test_speed_2", SiteKind::ParallelLoop, 80);
    const Range3 r{0, 16, 0, 16, 0, 16};
    for (int rep = 0; rep < 10; ++rep) {
      eng.for_each(s1, r, {out(id)}, [](idx, idx, idx) {});
      eng.for_each(s2, r, {out(id)}, [](idx, idx, idx) {});
    }
    modeled[t++] = eng.ledger().now();
  }
  EXPECT_GT(modeled[1], modeled[0]);
}

TEST(Engine, CategoryScopeRoutesKernelTimeToMpi) {
  Engine eng(gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual));
  const auto id = eng.memory().register_array("a", 1 << 24);
  static const KernelSite& site =
      SIMAS_SITE("test_category", SiteKind::ParallelLoop, 0);
  {
    Engine::CategoryScope scope(eng, gpusim::TimeCategory::Mpi);
    eng.for_each(site, Range3{0, 16, 0, 16, 0, 16}, {out(id)},
                 [](idx, idx, idx) {});
  }
  EXPECT_GT(eng.ledger().mpi_time(), 0.0);
  eng.for_each(site, Range3{0, 16, 0, 16, 0, 16}, {out(id)},
               [](idx, idx, idx) {});
  EXPECT_GT(eng.ledger().total(gpusim::TimeCategory::Compute), 0.0);
}

TEST(Engine, UnifiedMemorySlowerThanManual) {
  double modeled[2];
  int t = 0;
  for (const auto mem :
       {gpusim::MemoryMode::Manual, gpusim::MemoryMode::Unified}) {
    Engine eng(gpu_config(LoopModel::Dc2018, mem));
    const auto id = eng.memory().register_array("a", 1 << 24);
    eng.memory().enter_data(id);
    static const KernelSite& site =
        SIMAS_SITE("test_um_speed", SiteKind::ParallelLoop, 0);
    // Skip first-touch migration before timing.
    eng.for_each(site, Range3{0, 16, 0, 16, 0, 16}, {out(id)},
                 [](idx, idx, idx) {});
    const double mark = eng.ledger().now();
    for (int rep = 0; rep < 10; ++rep)
      eng.for_each(site, Range3{0, 16, 0, 16, 0, 16}, {out(id)},
                   [](idx, idx, idx) {});
    modeled[t++] = eng.ledger().now() - mark;
  }
  EXPECT_GT(modeled[1], modeled[0]);
}

TEST(Engine, PoolLeaseCountsLiveEngines) {
  // A context's shared pool counts every live engine built under it.
  ThreadPool shared(2);
  SimContext ctx;
  ctx.set_shared_pool(&shared);
  EngineConfig cfg;
  cfg.ctx = &ctx;
  EXPECT_EQ(shared.attached(), 0);
  {
    Engine a(cfg);
    EXPECT_EQ(shared.attached(), 1);
    {
      Engine b(cfg), c(cfg);
      EXPECT_EQ(shared.attached(), 3);
    }
    EXPECT_EQ(shared.attached(), 1);
  }
  EXPECT_EQ(shared.attached(), 0);

  // An owned pool has exactly its engine attached.
  EngineConfig own;
  own.host_threads = 2;
  Engine solo(own);
  EXPECT_EQ(solo.pool().attached(), 1);
}

// ---------------------------------------------------------------------
// Component sweeps (for_each_n, and chain_sum_n of no stages) and grouped
// reduction claims. Every comparison is bitwise: host placement may never
// change a result.

/// Flat cell index of (i, j, k) in an (ni, nj, nk) box.
std::size_t flat(idx i, idx j, idx k, idx ni, idx nj) {
  return static_cast<std::size_t>((k * nj + j) * ni + i);
}

/// A rounding-sensitive cell value per component.
real cell_value(int c, idx i, idx j, idx k) {
  return 0.1 * static_cast<real>(i) + 1.0e-3 * static_cast<real>(j) +
         1.0e-7 * static_cast<real>(k) + 0.37 * static_cast<real>(c) +
         1.0 / static_cast<real>(1 + i + j + k);
}

/// An inline shape (512 cells) and two pooled ones; the last has a plane
/// count that is not a multiple of the 8-plane reduction block.
/// Array names per component (built without string concatenation, which
/// trips GCC 12's -Wrestrict false positive at -O3).
const char* const kComponentNames[] = {"c0", "c1", "c2"};

const Range3 kSweepShapes[] = {
    Range3{0, 8, 0, 8, 0, 8}, Range3{0, 24, 0, 16, 0, 32},
    Range3{1, 34, 0, 9, 2, 17}};

TEST(EngineBatch, ForEachNMatchesSeparateLaunchesAndRunsEachCellOnce) {
  static const KernelSite& site =
      SIMAS_SITE("test_batch_for_each", SiteKind::ParallelLoop, 0);
  for (const Range3& r : kSweepShapes) {
    const std::size_t cells = static_cast<std::size_t>(r.count());
    for (const int n : {1, 2, 3}) {
      for (const int nthreads : {1, 2, 4}) {
        EngineConfig cfg =
            gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
        cfg.host_threads = nthreads;
        Engine batched(cfg), separate(cfg);
        std::vector<gpusim::ArrayId> ids_b, ids_s;
        for (int c = 0; c < n; ++c) {
          ids_b.push_back(batched.memory().register_array(
              kComponentNames[c], static_cast<i64>(cells * 8)));
          ids_s.push_back(separate.memory().register_array(
              kComponentNames[c], static_cast<i64>(cells * 8)));
        }
        std::vector<std::vector<real>> out_b(n, std::vector<real>(cells)),
            out_s(n, std::vector<real>(cells));
        std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n) *
                                             cells);
        const auto at = [&](idx i, idx j, idx k) {
          return flat(i - r.i0, j - r.j0, k - r.k0, r.ni(), r.nj());
        };
        batched.for_each_n(
            site, r, n,
            [&](int c) { return std::array{out(ids_b[c])}; },
            [&](int c) {
              return [&, c](idx i, idx j, idx k) {
                out_b[c][at(i, j, k)] = cell_value(c, i, j, k);
                visits[c * cells + at(i, j, k)].fetch_add(1);
              };
            });
        for (int c = 0; c < n; ++c)
          separate.for_each(site, r, {out(ids_s[c])},
                            [&](idx i, idx j, idx k) {
                              out_s[c][at(i, j, k)] = cell_value(c, i, j, k);
                            });
        for (const std::atomic<int>& v : visits) ASSERT_EQ(v.load(), 1);
        EXPECT_EQ(out_b, out_s) << "n=" << n << " threads=" << nthreads;
        // Same op stream: n ops each, identical modeled time.
        EXPECT_EQ(batched.counters().loops_executed, n);
        EXPECT_EQ(batched.counters().kernel_launches,
                  separate.counters().kernel_launches);
        EXPECT_EQ(batched.ledger().now(), separate.ledger().now());
      }
    }
  }
}

TEST(EngineBatch, ReduceSumNMatchesSeparateReductionsBitForBit) {
  static const KernelSite& site =
      SIMAS_SITE("test_batch_reduce", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  for (const Range3& r : kSweepShapes) {
    for (const int n : {1, 2, 3}) {
      for (const int nthreads : {1, 2, 4}) {
        EngineConfig cfg =
            gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
        cfg.host_threads = nthreads;
        Engine batched(cfg), separate(cfg);
        std::vector<gpusim::ArrayId> ids_b, ids_s;
        for (int c = 0; c < n; ++c) {
          ids_b.push_back(batched.memory().register_array(
              kComponentNames[c], r.count() * 8));
          ids_s.push_back(separate.memory().register_array(
              kComponentNames[c], r.count() * 8));
        }
        const real got = batched.chain_sum_n(
            r, n, Sweep{site, [&](int c) { return std::array{in(ids_b[c])}; },
                        [](int c) {
                          return [c](idx i, idx j, idx k) {
                            return cell_value(c, i, j, k);
                          };
                        }});
        real want = 0.0;
        for (int c = 0; c < n; ++c)
          want += separate.reduce_sum(
              site, r, {in(ids_s[c])},
              [c](idx i, idx j, idx k) { return cell_value(c, i, j, k); });
        EXPECT_EQ(got, want) << "n=" << n << " threads=" << nthreads;
        EXPECT_EQ(batched.counters().reduction_loops, n);
        EXPECT_EQ(batched.ledger().now(), separate.ledger().now());
      }
    }
  }
}

TEST(EngineBatch, ReduceMaxPropagatesNanFromAnyBlockUnderGrouping) {
  // ni = 24: 6 pinned blocks per claim, 64 blocks, pooled. The NaN sits
  // in the first, a middle, or the very last block.
  static const KernelSite& site =
      SIMAS_SITE("test_batch_max_nan", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  const Range3 r{0, 24, 0, 16, 0, 32};
  for (const i64 nan_plane : {i64{0}, i64{205}, i64{511}}) {
    for (const int nthreads : {1, 4}) {
      EngineConfig cfg = gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
      cfg.host_threads = nthreads;
      Engine eng(cfg);
      const auto id = eng.memory().register_array("a", r.count() * 8);
      const real m = eng.reduce_max(
          site, r, {in(id)}, [&](idx i, idx j, idx k) {
            return i == 23 && k * 16 + j == nan_plane
                       ? std::numeric_limits<real>::quiet_NaN()
                       : static_cast<real>(i + j + k);
          });
      EXPECT_TRUE(std::isnan(m))
          << "plane " << nan_plane << ", " << nthreads << " thread(s)";
    }
  }
}

TEST(EngineBatch, ConflictingComponentsThrowBeforeRecording) {
  Engine eng(gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual));
  const auto a = eng.memory().register_array("a", 1 << 16);
  const auto b = eng.memory().register_array("b", 1 << 16);
  static const KernelSite& loop =
      SIMAS_SITE("test_batch_conflict", SiteKind::ParallelLoop, 0);
  static const KernelSite& red =
      SIMAS_SITE("test_batch_conflict_reduce", SiteKind::ScalarReduction, 0,
                 false, false, /*async_capable=*/false);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto cell = [](int) { return [](idx, idx, idx) {}; };
  // Component 1 reads the array component 0 writes.
  EXPECT_THROW(eng.for_each_n(
                   loop, r, 2,
                   [&](int c) {
                     return c == 0 ? std::array{out(a), in(b)}
                                   : std::array{in(a), out(b)};
                   },
                   cell),
               std::logic_error);
  // Both components write one array.
  EXPECT_THROW(eng.for_each_n(
                   loop, r, 2, [&](int) { return std::array{out(a)}; }, cell),
               std::logic_error);
  EXPECT_THROW((void)eng.chain_sum_n(
                   r, 2,
                   Sweep{red,
                         [&](int c) {
                           return std::array{c == 0 ? out(a) : in(a)};
                         },
                         [](int) { return [](idx, idx, idx) { return 1.0; }; }}),
               std::logic_error);
  // Nothing reached the op stream; disjoint components still run.
  EXPECT_EQ(eng.counters().loops_executed, 0);
  eng.for_each_n(
      loop, r, 2,
      [&](int c) { return std::array{out(c == 0 ? a : b)}; }, cell);
  EXPECT_EQ(eng.counters().loops_executed, 2);
}

TEST(EngineBatch, PoolJoinsCountOncePerPooledSweep) {
  EngineConfig cfg = gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
  cfg.host_threads = 4;
  Engine eng(cfg);
  std::vector<gpusim::ArrayId> ids;
  for (int c = 0; c < 3; ++c)
    ids.push_back(eng.memory().register_array(kComponentNames[c], 1 << 20));
  static const KernelSite& loop =
      SIMAS_SITE("test_batch_joins", SiteKind::ParallelLoop, 0);
  static const KernelSite& red =
      SIMAS_SITE("test_batch_joins_reduce", SiteKind::ScalarReduction, 0,
                 false, false, /*async_capable=*/false);
  const auto acc = [&](int c) { return std::array{in(ids[c])}; };
  const auto sweep = [&](Range3 r) {
    eng.for_each_n(loop, r, 3, acc,
                   [](int) { return [](idx, idx, idx) {}; });
    (void)eng.chain_sum_n(r, 3, Sweep{red, acc, [](int) {
                                        return [](idx, idx, idx) { return 1.0; };
                                      }});
  };
  const auto count = [&](const char* name) {
    return eng.metrics_snapshot().counter(name);
  };
  // The checked flavor under a validator runs each component op by op.
  i64 joins_per_sweep = 1;
#ifdef SIMAS_ELEMENT_SHADOW
  if (eng.validator() != nullptr) joins_per_sweep = 3;
#endif
  sweep(Range3{0, 32, 0, 16, 0, 16});  // 8192 cells per component: pooled
  EXPECT_EQ(count("pool.jobs"), 6);    // kernels, as before
  EXPECT_EQ(count("pool.joins"), 2 * joins_per_sweep);
  EXPECT_EQ(count("pool.inline_kernels"), 0);
  sweep(Range3{0, 8, 0, 8, 0, 8});     // 512 cells per component: inline
  EXPECT_EQ(count("pool.inline_kernels"), 6);
  EXPECT_EQ(count("pool.joins"), 2 * joins_per_sweep);
}

// ---------------------------------------------------------------------
// Cell-local chains (chain_sum_n): k stages and a sum as one host job,
// against the same sweeps launched one by one. Every comparison is
// bitwise, and the op streams must match op for op.

/// One engine's arrays for a chain of up to three stages over r: src is
/// read through a stencil (the chain never writes it); stage s > 0
/// writes y[s] from src and y[s - 1] at its own cell.
struct ChainData {
  Range3 r;
  int n;
  std::vector<std::vector<real>> src;  // (ni+2)(nj+2)(nk+2) per component
  std::vector<std::vector<std::vector<real>>> y;   // [stage][component]
  std::vector<gpusim::ArrayId> id_src;
  std::vector<std::vector<gpusim::ArrayId>> id_y;  // [stage][component]

  ChainData(Engine& eng, Range3 range, int ncomp) : r(range), n(ncomp) {
    static const char* const kStageNames[3][3] = {
        {"u0", "u1", "u2"}, {"v0", "v1", "v2"}, {"w0", "w1", "w2"}};
    const std::size_t cells = static_cast<std::size_t>(r.count());
    const std::size_t padded =
        static_cast<std::size_t>((r.ni() + 2) * (r.nj() + 2) * (r.nk() + 2));
    y.assign(3, std::vector<std::vector<real>>(
                    n, std::vector<real>(cells, 0.0)));
    id_y.assign(3, {});
    for (int c = 0; c < n; ++c) {
      src.emplace_back(padded);
      for (idx k = r.k0 - 1; k <= r.k1; ++k)
        for (idx j = r.j0 - 1; j <= r.j1; ++j)
          for (idx i = r.i0 - 1; i <= r.i1; ++i)
            src[c][pad(i, j, k)] = cell_value(c, i, j, k);
      id_src.push_back(eng.memory().register_array(
          kComponentNames[c], static_cast<i64>(padded * 8)));
      for (int s = 0; s < 3; ++s)
        id_y[s].push_back(eng.memory().register_array(
            kStageNames[s][c], static_cast<i64>(cells * 8)));
    }
  }
  std::size_t at(idx i, idx j, idx k) const {
    return flat(i - r.i0, j - r.j0, k - r.k0, r.ni(), r.nj());
  }
  std::size_t pad(idx i, idx j, idx k) const {
    return flat(i - r.i0 + 1, j - r.j0 + 1, k - r.k0 + 1, r.ni() + 2,
                r.nj() + 2);
  }

  /// Stage 0: a stencil over src. Stages 1 and 2: pointwise in the
  /// previous output. Rounding-sensitive throughout.
  auto stage(int s) {
    static const KernelSite* const kSites[3] = {
        &SIMAS_SITE("test_chain_stencil", SiteKind::ParallelLoop, 0),
        &SIMAS_SITE("test_chain_scale", SiteKind::ParallelLoop, 0),
        &SIMAS_SITE("test_chain_mix", SiteKind::ParallelLoop, 0)};
    return Sweep{
        *kSites[s],
        [this, s](int c) {
          const gpusim::ArrayId prev =
              s == 0 ? id_src[c] : id_y[s - 1][c];
          return std::array{in(id_src[c]), in(prev), out(id_y[s][c])};
        },
        [this, s](int c) {
          return [this, s, c](idx i, idx j, idx k) {
            const std::vector<real>& x = src[c];
            real& v = y[s][c][at(i, j, k)];
            if (s == 0)
              v = x[pad(i, j, k)] +
                  0.25 * (x[pad(i + 1, j, k)] - x[pad(i - 1, j, k)]) +
                  0.125 * (x[pad(i, j + 1, k)] + x[pad(i, j, k - 1)]);
            else if (s == 1)
              v = y[0][c][at(i, j, k)] / (1.5 + x[pad(i, j, k)]);
            else
              v = y[1][c][at(i, j, k)] + 0.3 * x[pad(i, j, k)];
          };
        }};
  }
  /// The sum after k stages: the last two outputs' product.
  auto sum(int k) {
    static const KernelSite& site =
        SIMAS_SITE("test_chain_dot", SiteKind::ScalarReduction, 0, false,
                   false, /*async_capable=*/false);
    return Sweep{
        site,
        [this, k](int c) {
          return std::array{in(id_y[k - 2][c]), in(id_y[k - 1][c])};
        },
        [this, k](int c) {
          return [this, k, c](idx i, idx j, idx kk) -> real {
            return y[k - 2][c][at(i, j, kk)] * y[k - 1][c][at(i, j, kk)] /
                   3.0;
          };
        }};
  }
};

/// Kind, site, cells and access list (array names) of every captured op.
std::vector<std::string> captured_ops(Engine& eng) {
  const analysis::StreamCapture& cap = *eng.stream_capture();
  std::vector<std::string> ops;
  for (const StreamEvent& ev : cap.events()) {
    const StreamOp* op = std::get_if<StreamOp>(&ev);
    if (op == nullptr) continue;
    std::string s = std::string(op_kind_name(op_kind(*op))) + ' ' +
                    op_site(*op)->name + ' ' + std::to_string(op_cells(*op));
    for (const Access& a : kernel_payload(*op)->accesses)
      s += ' ' + cap.array_name(a.id) + (a.write ? ":w" : ":r");
    ops.push_back(std::move(s));
  }
  return ops;
}

TEST(Engine, CellLocalChainMatchesSeparateLaunches) {
  // Plane counts 135, 403 and 35: none a multiple of the 8-plane
  // reduction block. The first two pool, the last runs inline.
  const Range3 shapes[] = {Range3{1, 34, 0, 9, 2, 17},
                           Range3{0, 24, 0, 13, 0, 31},
                           Range3{0, 8, 0, 7, 0, 5}};
  for (const Range3& r : shapes) {
    for (const int k : {2, 3}) {
      for (const int n : {1, 3}) {
        for (const int nthreads : {1, 4}) {
          SCOPED_TRACE("planes " + std::to_string(r.nj() * r.nk()) + ", " +
                       std::to_string(k) + " stages, n=" + std::to_string(n) +
                       ", " + std::to_string(nthreads) + " thread(s)");
          EngineConfig cfg =
              gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
          cfg.host_threads = nthreads;
          cfg.capture_stream = true;
          Engine fused(cfg), separate(cfg);
          ChainData a(fused, r, n), b(separate, r, n);
          const real got =
              k == 2 ? fused.chain_sum_n(r, n, a.stage(0), a.stage(1),
                                         a.sum(2))
                     : fused.chain_sum_n(r, n, a.stage(0), a.stage(1),
                                         a.stage(2), a.sum(3));
          for (int s = 0; s < k; ++s) {
            const auto st = b.stage(s);
            separate.for_each_n(st.site, r, n, st.access_of, st.body_of);
          }
          const auto sm = b.sum(k);
          const real want = separate.chain_sum_n(r, n, sm);

          EXPECT_EQ(std::bit_cast<u64>(got), std::bit_cast<u64>(want));
          for (int s = 0; s < k; ++s)
            for (int c = 0; c < n; ++c)
              ASSERT_EQ(0, std::memcmp(a.y[s][c].data(),
                                       b.y[s][c].data(),
                                       a.y[s][c].size() * sizeof(real)))
                  << "stage " << s << " component " << c;
          EXPECT_EQ(captured_ops(fused), captured_ops(separate));
          EXPECT_EQ(fused.ledger().now(), separate.ledger().now());
          // Every recorded kernel is counted where it ran; only the joins
          // fall, to one per pooled chain.
          const auto count = [](Engine& e, const char* name) {
            return e.metrics_snapshot().counter(name);
          };
          EXPECT_EQ(count(fused, "pool.jobs"), count(separate, "pool.jobs"));
          EXPECT_EQ(count(fused, "pool.inline_kernels"),
                    count(separate, "pool.inline_kernels"));
          bool op_by_op = false;
#ifdef SIMAS_ELEMENT_SHADOW
          op_by_op = fused.validator() != nullptr;
#endif
          const bool pooled = r.count() > 4096;
          EXPECT_EQ(count(fused, "pool.joins"),
                    !pooled ? 0 : op_by_op ? (k + 1) * n : 1);
        }
      }
    }
  }
}

TEST(Engine, CellLocalChainRejectsCrossComponentWrites) {
  // Stage 1 of component 1 reads what stage 0 of component 0 writes: the
  // components of a chain are as independent as those of one sweep.
  Engine eng(gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual));
  const Range3 r{0, 8, 0, 8, 0, 8};
  ChainData d(eng, r, 2);
  const auto s0 = d.stage(0);
  const auto s1 = d.stage(1);
  const auto crossed = Sweep{
      s1.site,
      [&](int c) {
        return std::array{in(d.id_y[0][1 - c]), out(d.id_y[1][c])};
      },
      s1.body_of};
  EXPECT_THROW((void)eng.chain_sum_n(r, 2, s0, crossed, d.sum(2)),
               std::logic_error);
  EXPECT_EQ(eng.counters().loops_executed, 0);
}

// ---------------------------------------------------------------------
// The placement gate (ThreadPool::saturated): once a pool's live engines
// cover every hardware thread, launches run on their own callers. It
// moves placement only, so every result stays bit-identical.

/// Cells written and the sum of one 3-component sweep, compared bitwise.
using SweepResult = std::pair<std::vector<std::vector<real>>, real>;

/// A pooled-size (8192 cells per component) for_each_n + chain_sum_n
/// sweep on `eng`, over three freshly registered component arrays.
SweepResult component_sweep(Engine& eng) {
  static const KernelSite& loop =
      SIMAS_SITE("test_gate_sweep", SiteKind::ParallelLoop, 0);
  static const KernelSite& red =
      SIMAS_SITE("test_gate_sweep_reduce", SiteKind::ScalarReduction, 0,
                 false, false, /*async_capable=*/false);
  const Range3 r{0, 32, 0, 16, 0, 16};
  const std::size_t cells = static_cast<std::size_t>(r.count());
  std::vector<gpusim::ArrayId> ids;
  for (int c = 0; c < 3; ++c)
    ids.push_back(eng.memory().register_array(kComponentNames[c],
                                              r.count() * 8));
  SweepResult got{std::vector<std::vector<real>>(3, std::vector<real>(cells)),
                  0.0};
  eng.for_each_n(
      loop, r, 3, [&](int c) { return std::array{out(ids[c])}; },
      [&](int c) {
        return [&, c](idx i, idx j, idx k) {
          got.first[c][flat(i, j, k, r.ni(), r.nj())] = cell_value(c, i, j, k);
        };
      });
  got.second = eng.chain_sum_n(
      r, 3, Sweep{red, [&](int c) { return std::array{in(ids[c])}; },
                  [](int c) {
                    return [c](idx i, idx j, idx k) {
                      return cell_value(c, i, j, k);
                    };
                  }});
  for (const auto id : ids) eng.memory().unregister_array(id);
  return got;
}

/// Live Leases at which a pool counts as saturated on this host.
int saturation_point() {
  return std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
}

TEST(ThreadPool, LoneCallerIsNeverSaturated) {
  for (const int width : {1, 2, 4}) {
    ThreadPool pool(width);
    EXPECT_FALSE(pool.saturated()) << "width " << width;
    ThreadPool::Lease lone(pool);
    EXPECT_FALSE(pool.saturated()) << "width " << width;
  }
  // An engine owning its pool is that pool's only caller.
  EngineConfig own;
  own.host_threads = 4;
  Engine solo(own);
  EXPECT_FALSE(solo.pool().saturated());
}

TEST(EngineBatch, SaturatedSharedPoolRunsSweepsInline) {
  if (std::thread::hardware_concurrency() == 0)
    GTEST_SKIP() << "hardware concurrency unknown: the gate stays off";
  ThreadPool shared(4);
  SimContext ctx;
  ctx.set_shared_pool(&shared);
  EngineConfig cfg = gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
  cfg.ctx = &ctx;
  Engine eng(cfg);
  const auto count = [&](const char* name) {
    return eng.metrics_snapshot().counter(name);
  };
  // The checked flavor under a validator runs each component op by op.
  i64 joins_per_sweep = 1;
#ifdef SIMAS_ELEMENT_SHADOW
  if (eng.validator() != nullptr) joins_per_sweep = 3;
#endif
  ASSERT_FALSE(shared.saturated());
  const SweepResult pooled = component_sweep(eng);
  EXPECT_EQ(count("pool.jobs"), 6);
  EXPECT_EQ(count("pool.joins"), 2 * joins_per_sweep);
  EXPECT_EQ(count("pool.inline_kernels"), 0);
  {
    // Stand-ins for the pool's other engines.
    std::vector<std::unique_ptr<ThreadPool::Lease>> others;
    while (shared.attached() < saturation_point())
      others.push_back(std::make_unique<ThreadPool::Lease>(shared));
    ASSERT_TRUE(shared.saturated());
    EXPECT_EQ(component_sweep(eng), pooled);
    EXPECT_EQ(count("pool.inline_kernels"), 6);
    EXPECT_EQ(count("pool.jobs"), 6);
    EXPECT_EQ(count("pool.joins"), 2 * joins_per_sweep);
  }
  // The other engines are gone: the sweep goes back to the pool.
  ASSERT_FALSE(shared.saturated());
  EXPECT_EQ(component_sweep(eng), pooled);
  EXPECT_EQ(count("pool.jobs"), 12);
  EXPECT_EQ(count("pool.joins"), 4 * joins_per_sweep);
  EXPECT_EQ(count("pool.inline_kernels"), 6);
}

TEST(SharedPool, PlacementGateFlipsUnderEngineChurn) {
  // saturation_point() + 2 threads build, sweep and destroy engines on
  // one shared pool, so the gate flips both ways mid-run. The first
  // round runs with every engine alive (saturated: inline); the last
  // thread's final round runs alone (pooled). Every result must equal a
  // serial engine's, bit for bit.
  testutil::Watchdog watchdog(120);
  SweepResult ref;
  {
    EngineConfig serial =
        gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
    serial.host_threads = 1;
    Engine eng(serial);
    ref = component_sweep(eng);
  }
  const int nthreads = saturation_point() + 2;
  constexpr int kRounds = 4;
  ThreadPool shared(4);
  SimContext ctx;
  ctx.set_shared_pool(&shared);
  std::latch all_built(nthreads), others_done(nthreads - 1);
  std::atomic<i64> inline_kernels{0}, pooled_kernels{0};
  std::atomic<int> mismatches{0};
  // One engine's life: build it, sweep, tally where its kernels ran.
  const auto engine_round = [&](bool first) {
    EngineConfig cfg = gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
    cfg.ctx = &ctx;
    Engine eng(cfg);
    if (first) all_built.arrive_and_wait();
    if (component_sweep(eng) != ref) mismatches.fetch_add(1);
    const auto snap = eng.metrics_snapshot();
    inline_kernels.fetch_add(snap.counter("pool.inline_kernels"));
    pooled_kernels.fetch_add(snap.counter("pool.jobs"));
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) engine_round(round == 0);
      if (t + 1 < nthreads) {
        others_done.count_down();
        return;
      }
      others_done.wait();  // every other engine is gone: this one is alone
      engine_round(false);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(shared.attached(), 0);
  EXPECT_GT(pooled_kernels.load(), 0);
  if (std::thread::hardware_concurrency() > 0) {
    EXPECT_GT(inline_kernels.load(), 0);
  }
}

TEST(Engine, SteadyStateLaunchPathIsAllocationFree) {
  EngineConfig cfg = gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
  cfg.host_threads = 4;
  Engine eng(cfg);
  const auto id = eng.memory().register_array("a", 1 << 22);
  const std::array ids{eng.memory().register_array("v0", 1 << 16),
                       eng.memory().register_array("v1", 1 << 16),
                       eng.memory().register_array("v2", 1 << 16)};
  static const KernelSite& loop_site =
      SIMAS_SITE("alloc_free_loop", SiteKind::ParallelLoop, 0);
  static const KernelSite& red_site =
      SIMAS_SITE("alloc_free_reduce", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  static const KernelSite& ar_site =
      SIMAS_SITE("alloc_free_array_reduce", SiteKind::ArrayReduction, 0,
                 false, false, /*async_capable=*/false);
  // 8192 cells: above the inline cutoff, so the pool dispatch path runs.
  const Range3 r{0, 32, 0, 16, 0, 16};
  std::vector<real> acc(8, 0.0);
  real sink = 0.0;
  const auto step = [&] {
    eng.for_each(loop_site, r, {out(id)}, [](idx, idx, idx) {});
    sink += eng.reduce_sum(red_site, r, {in(id)}, [](idx i, idx j, idx k) {
      return 1e-3 * static_cast<real>(i + j + k);
    });
    eng.array_reduce(ar_site, Range3{0, 8, 0, 16, 0, 16}, {in(id)},
                     std::span<real>(acc),
                     [](idx i, idx, idx) { return static_cast<real>(i); });
    eng.for_each_n(
        loop_site, r, 3, [&](int c) { return std::array{out(ids[c])}; },
        [](int) { return [](idx, idx, idx) {}; });
    sink += eng.chain_sum_n(
        r, 3,
        Sweep{red_site, [&](int c) { return std::array{in(ids[c])}; },
              [](int c) {
                return [c](idx i, idx, idx) {
                  return 1e-3 * static_cast<real>(i + c);
                };
              }});
    sink += eng.chain_sum_n(
        r, 3,
        Sweep{loop_site, [&](int c) { return std::array{out(ids[c])}; },
              [](int) { return [](idx, idx, idx) {}; }},
        Sweep{red_site, [&](int c) { return std::array{in(ids[c])}; },
              [](int c) {
                return [c](idx i, idx, idx) {
                  return 1e-3 * static_cast<real>(i + c);
                };
              }});
  };
  // Warm-up lets one-time scratch (reduction partials) reach capacity.
  for (int warm = 0; warm < 3; ++warm) step();
  const long before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int it = 0; it < 10; ++it) step();
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), before)
      << "kernel launch / reduction steady state must not heap-allocate";
  (void)sink;
}

}  // namespace
}  // namespace simas::par
