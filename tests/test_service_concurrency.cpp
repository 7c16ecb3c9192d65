// Concurrency tests for the re-entrant engine core and the service layer.
//
//  1. CrossEngineShadow — regression for the thread-local iteration-tag
//     leak: before iteration tags were scoped to (validator, window), a
//     kernel body of engine B touching an array instrumented by engine A
//     (both sharing host threads) stamped A's element tags with B's
//     iteration ids and manufactured DuplicateWrite/FusedConflict
//     findings no single-engine run could produce. This test interleaves
//     two validating engines on two threads and requires both reports
//     clean; it fails on the pre-scoping code.
//  2. SharedPool — N engines multiplexed over one ThreadPool produce
//     results identical to owned-pool engines, both alternating and
//     truly concurrent (TSan exercises the multi-job pool here).
//  3. ServiceDeterminism — the same ExperimentConfig run serially (with
//     equally-warm caches) and as 4 simultaneous service jobs yields
//     bit-identical diagnostics AND modeled timings per job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "field/field.hpp"
#include "par/engine.hpp"
#include "par/graph_cache.hpp"
#include "par/sim_context.hpp"
#include "par/site_table.hpp"
#include "par/thread_pool.hpp"
#include "run/run_experiment.hpp"
#include "service/job_server.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

using analysis::ValidationReport;
using par::SiteKind;

par::EngineConfig validating_config() {
  par::EngineConfig cfg;
  cfg.validate = true;
  cfg.host_threads = 1;
  return cfg;
}

void scrub(par::Engine& eng, std::initializer_list<field::Field*> fields) {
  eng.device_sync();
  for (field::Field* f : fields) f->exit_data();
  (void)eng.take_validation_report();
}

// ---------------------------------------------------------------------
// 1. Cross-engine iteration-tag isolation.

/// Lets engine B's thread reach into engine A's field mid-kernel (the
/// field lives on A's stack; A publishes the pointer while parked).
std::atomic<field::Field*> g_foreign_field{nullptr};

TEST(CrossEngineShadow, InterleavedEnginesDoNotCrossPolluteElementTags) {
  // Engine A (thread TA) runs a kernel writing every element of its field
  // f. Its body parks at the first element until engine B (thread TB) has
  // run a kernel that — besides its own declared field g — writes f's
  // elements under a *shifted* index map, so B's thread-local iteration
  // ids disagree with the ids A will use. A then writes all of f.
  //
  // Old code: B's body stamps f's element tags (A's slot is armed
  // WriteTrack mid-body) with B's iteration ids; A's subsequent writes
  // see foreign ids on elements of its own op and report DuplicateWrite.
  // New code: tags carry (owner validator, armed window); A's slot
  // ignores B's and both reports are clean.
  constexpr idx kN = 4;
  std::atomic<int> stage{0};
  ValidationReport rep_a, rep_b;

  std::thread ta([&] {
    par::Engine eng(validating_config());
    field::Field f(eng, "svc_x_f", kN, kN, kN);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("svc_x_writer_a", SiteKind::ParallelLoop, 0);
    std::atomic<bool> parked{false};
    eng.for_each(site, par::Range3{0, kN, 0, kN, 0, kN}, {par::out(f.id())},
                 [&](idx i, idx j, idx k) {
                   if (!parked.exchange(true)) {
                     // First element: publish f's address for B, then wait
                     // for B's interleaved kernel (bounded; on timeout the
                     // test degrades to the single-engine case and still
                     // must pass).
                     g_foreign_field.store(&f, std::memory_order_release);
                     stage.store(1, std::memory_order_release);
                     const auto deadline = std::chrono::steady_clock::now() +
                                           std::chrono::seconds(10);
                     while (stage.load(std::memory_order_acquire) < 2 &&
                            std::chrono::steady_clock::now() < deadline)
                       std::this_thread::yield();
                   }
                   f(i, j, k) = static_cast<real>(i + 10 * j + 100 * k);
                 });
    eng.device_sync();
    rep_a = eng.take_validation_report();
    scrub(eng, {&f});
    g_foreign_field.store(nullptr, std::memory_order_release);
  });

  std::thread tb([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (stage.load(std::memory_order_acquire) < 1 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    if (stage.load(std::memory_order_acquire) >= 1) {
      par::Engine eng(validating_config());
      field::Field g(eng, "svc_x_g", kN, kN, kN);
      g.enter_data();
      static const par::KernelSite& site =
          SIMAS_SITE("svc_x_writer_b", SiteKind::ParallelLoop, 0);
      field::Field* f = g_foreign_field.load(std::memory_order_acquire);
      EXPECT_NE(f, nullptr);
      eng.for_each(site, par::Range3{0, kN, 0, kN, 0, kN},
                   {par::out(g.id())}, [&](idx i, idx j, idx k) {
                     g(i, j, k) = 1.0;
                     // Foreign write into A's armed array, index-shifted so
                     // B's iteration id never matches the id A will use
                     // for the same element.
                     if (f != nullptr) (*f)((i + 1) % kN, j, k) = -1.0;
                   });
      eng.device_sync();
      rep_b = eng.take_validation_report();
      scrub(eng, {&g});
    }
    stage.store(2, std::memory_order_release);
  });

  ta.join();
  tb.join();
  EXPECT_EQ(rep_a.errors(), 0) << rep_a.to_string();
  EXPECT_EQ(rep_b.errors(), 0) << rep_b.to_string();
}

// ---------------------------------------------------------------------
// 2. Engines sharing one host ThreadPool.

real checkerboard_sum(par::Engine& eng, field::Field& f, const char* tag,
                      idx n) {
  static const par::KernelSite& fill =
      SIMAS_SITE("svc_pool_fill", SiteKind::ParallelLoop, 0);
  // Result is consumed on the host right away: not async-capable.
  static const par::KernelSite& sum = SIMAS_SITE(
      "svc_pool_sum", SiteKind::ScalarReduction, 0, false, false, false);
  (void)tag;
  f.enter_data();
  // > kInlineCells so the launch actually goes through the pool.
  eng.for_each(fill, par::Range3{0, n, 0, n, 0, n}, {par::out(f.id())},
               [&](idx i, idx j, idx k) {
                 f(i, j, k) = static_cast<real>((i * 31 + j * 7 + k) % 5) -
                              2.0;
               });
  const real s = eng.reduce_sum(sum, par::Range3{0, n, 0, n, 0, n},
                                {par::in(f.id())}, [&](idx i, idx j, idx k) {
                                  return f(i, j, k) * f(i, j, k);
                                });
  eng.device_sync();
  f.exit_data();
  return s;
}

TEST(SharedPool, AlternatingLaunchesMatchOwnedPoolResults) {
  constexpr idx kN = 24;  // 13824 cells: every launch uses the pool
  // Reference: an engine owning its threads.
  real ref;
  {
    par::EngineConfig cfg;
    cfg.host_threads = 3;
    par::Engine eng(cfg);
    field::Field f(eng, "svc_pool_ref", kN, kN, kN);
    ref = checkerboard_sum(eng, f, "ref", kN);
  }
  // Two engines alternating launches over one pool borrowed through their
  // context.
  par::ThreadPool pool(3);
  par::SimContext ctx;
  ctx.set_shared_pool(&pool);
  par::EngineConfig cfg;
  cfg.ctx = &ctx;
  par::Engine ea(cfg), eb(cfg);
  field::Field fa(ea, "svc_pool_a", kN, kN, kN);
  field::Field fb(eb, "svc_pool_b", kN, kN, kN);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(checkerboard_sum(ea, fa, "a", kN), ref);
    EXPECT_EQ(checkerboard_sum(eb, fb, "b", kN), ref);
  }
}

TEST(SharedPool, ConcurrentEnginesOnOnePoolStayDeterministic) {
  constexpr idx kN = 24;
  constexpr int kEngines = 4, kRounds = 4;
  real ref;
  {
    par::EngineConfig cfg;
    cfg.host_threads = 2;
    par::Engine eng(cfg);
    field::Field f(eng, "svc_conc_ref", kN, kN, kN);
    ref = checkerboard_sum(eng, f, "ref", kN);
  }
  par::ThreadPool pool(4);
  par::SimContext ctx;
  ctx.set_shared_pool(&pool);
  std::vector<std::vector<real>> sums(kEngines);
  std::vector<std::thread> threads;
  threads.reserve(kEngines);
  for (int e = 0; e < kEngines; ++e) {
    threads.emplace_back([&, e] {
      par::EngineConfig cfg;
      cfg.ctx = &ctx;
      par::Engine eng(cfg);
      field::Field f(eng, "svc_conc_" + std::to_string(e), kN, kN, kN);
      for (int r = 0; r < kRounds; ++r)
        sums[static_cast<std::size_t>(e)].push_back(
            checkerboard_sum(eng, f, "conc", kN));
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& per_engine : sums) {
    ASSERT_EQ(per_engine.size(), static_cast<std::size_t>(kRounds));
    for (const real s : per_engine) EXPECT_EQ(s, ref);
  }
}

// ---------------------------------------------------------------------
// 3. Service-layer determinism: serving must not change the physics.

run::ExperimentConfig det_cfg() {
  run::ExperimentConfig cfg;
  cfg.version = variants::CodeVersion::A;
  cfg.nranks = 2;
  cfg.grid = bench_support::bench_grid();
  cfg.warmup_steps = 1;
  cfg.measure_steps = 1;
  cfg.graph_replay = true;
  cfg.boundary.enabled = true;
  cfg.boundary.seed = 77;
  cfg.boundary.tol = 1.0e-6;
  return cfg;
}

void expect_same_run(const run::ExperimentResult& a,
                     const run::ExperimentResult& b, i64 job) {
  EXPECT_EQ(std::memcmp(&a.final_diag, &b.final_diag, sizeof(a.final_diag)),
            0)
      << "job " << job << ": diagnostics differ";
  EXPECT_EQ(a.wall_minutes, b.wall_minutes) << "job " << job;
  EXPECT_EQ(a.mpi_minutes, b.mpi_minutes) << "job " << job;
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].seconds_per_step, b.ranks[r].seconds_per_step)
        << "job " << job << " rank " << r;
    EXPECT_EQ(a.ranks[r].mpi_seconds_per_step,
              b.ranks[r].mpi_seconds_per_step)
        << "job " << job << " rank " << r;
  }
}

TEST(ServiceDeterminism, FourSimultaneousJobsMatchWarmSerialRun) {
  const auto cfg = det_cfg();

  // Serial reference with equally-warm caches: served jobs run after the
  // server's prewarm, so their graph scopes replay from pass one and
  // their PFSS field is injected. The apples-to-apples serial run is one
  // with a pre-populated local GraphCache and an injected field — then
  // serving concurrency is the only variable left.
  par::GraphCache gcache;
  run::BoundaryFields fields;
  auto warmup = cfg;
  warmup.graph_cache = &gcache;
  warmup.boundary_out = &fields;
  (void)run::run_experiment(warmup);
  auto warm = cfg;
  warm.graph_cache = &gcache;
  warm.boundary_fields = &fields;
  const auto ref = run::run_experiment(warm);

  service::JobServerConfig scfg;
  scfg.workers = 4;
  scfg.queue_capacity = 8;
  scfg.host_threads_total = 4;
  scfg.autostart = false;  // stage all four, then release simultaneously
  service::JobServer server(scfg);

  service::JobDescription pre;
  pre.id = -1;
  pre.config = cfg;
  const auto pr = server.prewarm(std::move(pre));
  ASSERT_TRUE(pr.ok) << pr.error;

  for (i64 id = 0; id < 4; ++id) {
    service::JobDescription d;
    d.id = id;
    d.config = cfg;
    ASSERT_TRUE(server.submit(std::move(d)));
  }
  server.start();
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << "job " << r.id << ": " << r.error;
    EXPECT_TRUE(r.field_cache_hit) << "job " << r.id;
    expect_same_run(ref, r.result, r.id);
  }
}

TEST(ServiceDeterminism, ColdServedJobMatchesPlainSerialRun) {
  // Without warm caches the comparison is direct: a job served by a
  // single-worker server with both caches off reproduces the plain
  // serial run bit for bit.
  auto cfg = det_cfg();
  cfg.boundary.seed = 78;
  const auto ref = run::run_experiment(cfg);

  service::JobServerConfig scfg;
  scfg.workers = 1;
  scfg.queue_capacity = 2;
  scfg.host_threads_total = 2;
  scfg.enable_field_cache = false;
  scfg.enable_graph_cache = false;
  scfg.autostart = false;
  service::JobServer server(scfg);
  service::JobDescription d;
  d.id = 0;
  d.config = cfg;
  ASSERT_TRUE(server.submit(std::move(d)));
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[0].field_cache_used);
  expect_same_run(ref, results[0].result, 0);
}

}  // namespace
}  // namespace simas
