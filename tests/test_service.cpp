// Service-layer units: EnvConfig snapshots, SiteTable interning,
// AdmissionQueue backpressure, FieldCache keying/first-wins, GraphCache
// publication, and JobServer lifecycle (submit / reject / prewarm /
// drain) on small real experiments.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/host_threads.hpp"
#include "par/env_config.hpp"
#include "par/graph_cache.hpp"
#include "par/sim_context.hpp"
#include "par/site_table.hpp"
#include "run/run_experiment.hpp"
#include "service/admission_queue.hpp"
#include "service/field_cache.hpp"
#include "service/job_server.hpp"
#include "variants/code_version.hpp"
#include "watchdog.hpp"

namespace simas {
namespace {

using par::SiteKind;

// ---------------------------------------------------------------------
// EnvConfig.

TEST(EnvConfig, CaptureReadsFlagsAndThreadCount) {
  ::setenv("SIMAS_VALIDATE", "1", 1);
  ::setenv("SIMAS_PROFILE", "0", 1);
  ::setenv("SIMAS_HOST_THREADS", "5", 1);
  ::unsetenv("SIMAS_VALIDATE_FATAL");
  const par::EnvConfig env = par::EnvConfig::capture();
  EXPECT_TRUE(env.validate);
  EXPECT_FALSE(env.validate_fatal);
  EXPECT_FALSE(env.profile);  // "0" means off
  EXPECT_EQ(env.host_threads, 5);
  ::unsetenv("SIMAS_VALIDATE");
  ::unsetenv("SIMAS_PROFILE");
  ::unsetenv("SIMAS_HOST_THREADS");
}

TEST(EnvConfig, CaptureIgnoresGarbageThreadCounts) {
  ::setenv("SIMAS_HOST_THREADS", "banana", 1);
  EXPECT_EQ(par::EnvConfig::capture().host_threads, 0);
  ::setenv("SIMAS_HOST_THREADS", "-3", 1);
  EXPECT_EQ(par::EnvConfig::capture().host_threads, 0);
  ::unsetenv("SIMAS_HOST_THREADS");
  EXPECT_EQ(par::EnvConfig::capture().host_threads, 0);
}

TEST(EnvConfig, ProcessSnapshotIsStable) {
  // process() snapshots once; later environment changes are not observed.
  const par::EnvConfig& first = par::EnvConfig::process();
  ::setenv("SIMAS_HOST_THREADS", "7", 1);
  const par::EnvConfig& second = par::EnvConfig::process();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.host_threads, first.host_threads);
  ::unsetenv("SIMAS_HOST_THREADS");
}

TEST(HostThreads, ExplicitEnvSnapshotOverridesAuto) {
  par::EnvConfig env;
  env.host_threads = 3;
  EXPECT_EQ(bench_support::resolve_host_threads(0, &env), 3);
  // Explicit request still wins over the snapshot.
  EXPECT_EQ(bench_support::resolve_host_threads(2, &env), 2);
  // Unset snapshot falls back to hardware concurrency (>= 1).
  env.host_threads = 0;
  EXPECT_GE(bench_support::resolve_host_threads(0, &env), 1);
}

// ---------------------------------------------------------------------
// SiteTable.

TEST(SiteTableUnit, LocalTableInternsIndependently) {
  par::SiteTable table;
  const par::KernelSite& a =
      table.intern(par::make_site("svc_local_a", SiteKind::ParallelLoop));
  const par::KernelSite& dup =
      table.intern(par::make_site("svc_local_a", SiteKind::ParallelLoop));
  EXPECT_EQ(&a, &dup);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(&table.at(static_cast<std::size_t>(a.id)), &a);
  // A local table does not leak into the process table.
  const auto process_sites = par::SiteTable::process().all();
  for (const auto& s : process_sites) EXPECT_NE(s.name, "svc_local_a");
}

TEST(SiteTableUnit, ConcurrentInterningIsSafeAndStable) {
  par::SiteTable table;
  constexpr int kThreads = 4, kSites = 64;
  std::vector<std::thread> threads;
  std::vector<std::vector<const par::KernelSite*>> seen(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSites; ++i) {
        seen[static_cast<std::size_t>(t)].push_back(&table.intern(
            par::make_site("svc_conc_" + std::to_string(i),
                           SiteKind::ParallelLoop)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.size(), static_cast<std::size_t>(kSites));
  // Every thread resolved each name to the same interned pointer.
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
}

// ---------------------------------------------------------------------
// AdmissionQueue.

service::AdmissionQueue::Entry entry(i64 id) {
  service::AdmissionQueue::Entry e;
  e.desc.id = id;
  return e;
}

TEST(AdmissionQueue, BoundedPushRejectsWhenFull) {
  service::AdmissionQueue q(2);
  EXPECT_TRUE(q.try_push(entry(0)));
  EXPECT_TRUE(q.try_push(entry(1)));
  EXPECT_FALSE(q.try_push(entry(2)));  // full: backpressure
  EXPECT_EQ(q.depth(), 2u);
  const auto s = q.stats();
  EXPECT_EQ(s.accepted, 2);
  EXPECT_EQ(s.rejected, 1);
}

TEST(AdmissionQueue, CloseDrainsBacklogThenReturnsEmpty) {
  service::AdmissionQueue q(4);
  EXPECT_TRUE(q.try_push(entry(7)));
  q.close();
  EXPECT_FALSE(q.try_push(entry(8)));  // closed: refused, not a reject
  const auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->desc.id, 7);
  EXPECT_FALSE(q.pop().has_value());  // closed + drained
  EXPECT_EQ(q.stats().rejected, 0);
}

TEST(AdmissionQueue, PopBlocksUntilPushArrives) {
  service::AdmissionQueue q(4);
  std::thread consumer([&] {
    const auto e = q.pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->desc.id, 42);
  });
  EXPECT_TRUE(q.try_push(entry(42)));
  consumer.join();
}

// ---------------------------------------------------------------------
// FieldCache.

run::ExperimentConfig boundary_cfg(u64 seed) {
  run::ExperimentConfig cfg;
  cfg.grid = bench_support::bench_grid();
  cfg.nranks = 2;
  cfg.boundary.enabled = true;
  cfg.boundary.seed = seed;
  return cfg;
}

TEST(FieldCache, KeyReflectsBoundaryGridAndDecomposition) {
  const auto base = boundary_cfg(11);
  auto other_seed = base;
  other_seed.boundary.seed = 12;
  auto other_grid = base;
  other_grid.grid.nr += 1;
  auto other_ranks = base;
  other_ranks.nranks = 4;
  auto same = boundary_cfg(11);
  const u64 k = service::FieldCache::key_for(base);
  EXPECT_EQ(k, service::FieldCache::key_for(same));
  EXPECT_NE(k, service::FieldCache::key_for(other_seed));
  EXPECT_NE(k, service::FieldCache::key_for(other_grid));
  EXPECT_NE(k, service::FieldCache::key_for(other_ranks));
}

TEST(FieldCache, FirstInsertWinsAndHitsAreCounted) {
  service::FieldCache cache;
  EXPECT_EQ(cache.find(99), nullptr);  // miss
  run::BoundaryFields a;
  a.nranks = 1;
  const auto first = cache.publish(99, std::move(a));
  run::BoundaryFields b;
  b.nranks = 2;
  const auto second = cache.publish(99, std::move(b));
  EXPECT_EQ(first.get(), second.get());  // first publisher won
  EXPECT_EQ(second->nranks, 1);
  EXPECT_EQ(cache.find(99).get(), first.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.publishes, 1);
  EXPECT_EQ(s.duplicates, 1);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------
// GraphCache.

TEST(GraphCache, PublishFindAndFirstWins) {
  par::GraphCache cache;
  const std::string key = par::GraphCache::key("scope", "pcg");
  EXPECT_EQ(cache.find(key), nullptr);
  par::CapturedGraph g("pcg");
  g.begin_capture();
  g.append(par::StreamOp{par::SyncOp{}});
  g.finalize();
  const auto first = cache.publish(key, g);
  EXPECT_EQ(cache.publish(key, g), first);  // duplicate dropped
  const auto found = cache.find(key);
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->captured());
  EXPECT_EQ(found->size(), 1u);
  EXPECT_EQ(cache.find(par::GraphCache::key("other_scope", "pcg")), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.publishes, 1);
  EXPECT_EQ(s.duplicates, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 2);
}

// ---------------------------------------------------------------------
// SimContext.

TEST(SimContext, ProcessContextIsStableAndUsesProcessSnapshot) {
  const par::SimContext& a = par::SimContext::process();
  const par::SimContext& b = par::SimContext::process();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.env().host_threads, par::EnvConfig::process().host_threads);
  EXPECT_EQ(a.shared_pool(), nullptr);
}

TEST(SimContext, CustomContextCarriesItsOwnEnv) {
  par::EnvConfig env;
  env.validate = true;
  env.host_threads = 2;
  par::SimContext ctx(env);
  EXPECT_TRUE(ctx.env().validate);
  EXPECT_EQ(ctx.env().host_threads, 2);
  par::ThreadPool pool(2);
  ctx.set_shared_pool(&pool);
  EXPECT_EQ(ctx.shared_pool(), &pool);
}

// ---------------------------------------------------------------------
// JobServer.

run::ExperimentConfig tiny_job_cfg(u64 seed) {
  run::ExperimentConfig cfg;
  cfg.version = variants::CodeVersion::A;
  cfg.nranks = 1;
  cfg.grid = bench_support::bench_grid();
  cfg.warmup_steps = 0;
  cfg.measure_steps = 1;
  cfg.boundary.enabled = true;
  cfg.boundary.seed = seed;
  cfg.boundary.tol = 1.0e-4;  // keep the PFSS solve short in unit tests
  return cfg;
}

TEST(JobServer, PausedIntakeAppliesBackpressureThenServesBacklog) {
  service::JobServerConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = 2;
  scfg.host_threads_total = 2;
  scfg.autostart = false;  // jobs stage in the queue until start()
  service::JobServer server(scfg);
  for (i64 id = 0; id < 3; ++id) {
    service::JobDescription d;
    d.id = id;
    d.config = tiny_job_cfg(50);
    const bool accepted = server.submit(std::move(d));
    EXPECT_EQ(accepted, id < 2) << "id " << id;
  }
  EXPECT_EQ(server.queue_depth(), 2u);
  server.start();
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 0);
  EXPECT_EQ(results[1].id, 1);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GE(r.latency_seconds, r.run_seconds);
  }
  const auto snap = server.metrics();
  EXPECT_EQ(snap.counter("jobs.submitted"), 2);
  EXPECT_EQ(snap.counter("jobs.rejected"), 1);
  EXPECT_EQ(snap.counter("jobs.completed"), 2);
  EXPECT_EQ(snap.counter("jobs.failed"), 0);
  EXPECT_EQ(snap.counter("queue.rejected"), 1);
  EXPECT_EQ(snap.gauge("queue.depth"), 0.0);
}

TEST(JobServer, PrewarmMakesSameShapeJobsFieldCacheHits) {
  service::JobServerConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = 8;
  scfg.host_threads_total = 2;
  scfg.autostart = false;
  service::JobServer server(scfg);

  service::JobDescription warmup;
  warmup.id = 0;
  warmup.config = tiny_job_cfg(51);
  const auto pre = server.prewarm(std::move(warmup));
  ASSERT_TRUE(pre.ok) << pre.error;
  EXPECT_TRUE(pre.field_cache_used);
  EXPECT_FALSE(pre.field_cache_hit);  // first solve populates the cache

  for (i64 id = 0; id < 2; ++id) {
    service::JobDescription d;
    d.id = id;
    d.config = tiny_job_cfg(51);
    ASSERT_TRUE(server.submit(std::move(d)));
  }
  server.start();
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.field_cache_hit);
    // Injection must not change the physics.
    EXPECT_EQ(std::memcmp(&r.result.final_diag, &pre.result.final_diag,
                          sizeof(r.result.final_diag)),
              0);
  }
  const auto snap = server.metrics();
  EXPECT_EQ(snap.counter("jobs.prewarmed"), 1);
  EXPECT_EQ(snap.counter("field_cache.hits"), 2);
  EXPECT_EQ(snap.counter("field_cache.misses"), 1);
}

TEST(JobServer, DrainWithoutStartStillServesAndIsIdempotent) {
  service::JobServerConfig scfg;
  scfg.workers = 1;
  scfg.queue_capacity = 4;
  scfg.host_threads_total = 1;
  scfg.autostart = false;
  service::JobServer server(scfg);
  service::JobDescription d;
  d.id = 3;
  d.config = tiny_job_cfg(52);
  ASSERT_TRUE(server.submit(std::move(d)));
  const auto results = server.drain();  // starts workers itself
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(server.drain().size(), 1u);  // idempotent
  // Intake is closed after drain.
  service::JobDescription late;
  late.id = 9;
  late.config = tiny_job_cfg(52);
  EXPECT_FALSE(server.submit(std::move(late)));
}

TEST(RunExperiment, BoundaryInjectionIsBitIdenticalToSolving) {
  // Extract from a solving run, inject into a second run. The *physics*
  // must match bit for bit — the injected bytes are the solved bytes, so
  // the step kernels execute on byte-equal arrays. Modeled timings agree
  // only to fp accumulation noise against the solving run (its clock
  // enters the measured window with ~10^3 more PCG ops summed onto it, so
  // the same per-step increments round differently in the last bits);
  // between equal-history runs — inject vs inject, which is what the
  // service layer actually compares — they are exactly equal.
  auto cfg = tiny_job_cfg(53);
  cfg.nranks = 2;
  run::BoundaryFields fields;
  auto solving = cfg;
  solving.boundary_out = &fields;
  const auto a = run::run_experiment(solving);
  EXPECT_GT(fields.info.iterations, 0);
  ASSERT_EQ(fields.ranks.size(), 2u);
  EXPECT_FALSE(fields.ranks[0].br.empty());

  auto injecting = cfg;
  injecting.boundary_fields = &fields;
  const auto b = run::run_experiment(injecting);
  EXPECT_EQ(std::memcmp(&a.final_diag, &b.final_diag, sizeof(a.final_diag)),
            0);
  EXPECT_EQ(a.pfss.iterations, b.pfss.iterations);
  EXPECT_NEAR(a.wall_minutes, b.wall_minutes, 1e-9 * a.wall_minutes);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t i = 0; i < a.ranks.size(); ++i)
    EXPECT_NEAR(a.ranks[i].seconds_per_step, b.ranks[i].seconds_per_step,
                1e-12 * a.ranks[i].seconds_per_step);

  const auto c = run::run_experiment(injecting);
  EXPECT_EQ(std::memcmp(&b.final_diag, &c.final_diag, sizeof(b.final_diag)),
            0);
  EXPECT_EQ(b.wall_minutes, c.wall_minutes);
  for (std::size_t i = 0; i < b.ranks.size(); ++i)
    EXPECT_EQ(b.ranks[i].seconds_per_step, c.ranks[i].seconds_per_step);
}

TEST(RunExperiment, InjectionRejectsWrongDecomposition) {
  auto cfg = tiny_job_cfg(54);
  cfg.nranks = 2;
  run::BoundaryFields fields;
  auto solving = cfg;
  solving.boundary_out = &fields;
  (void)run::run_experiment(solving);
  auto wrong = cfg;
  wrong.nranks = 1;
  wrong.boundary_fields = &fields;  // extracted under nranks == 2
  EXPECT_THROW((void)run::run_experiment(wrong), std::runtime_error);
}

// A cached boundary field one element short on rank 1: rank 1 throws in
// injection while rank 0 runs on into its first halo exchange. The run
// must end with rank 1's error, not leave rank 0 blocked forever.
run::BoundaryFields short_rank1_fields(const run::ExperimentConfig& cfg) {
  run::BoundaryFields fields;
  auto solving = cfg;
  solving.boundary_out = &fields;
  (void)run::run_experiment(solving);
  fields.ranks.at(1).br.pop_back();
  return fields;
}

TEST(RunExperiment, ShortCachedFieldOnOneRankThrowsInsteadOfHanging) {
  testutil::Watchdog watchdog(60);
  auto cfg = tiny_job_cfg(55);
  cfg.nranks = 2;
  const run::BoundaryFields fields = short_rank1_fields(cfg);
  cfg.boundary_fields = &fields;
  try {
    (void)run::run_experiment(cfg);
    ADD_FAILURE() << "run_experiment returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(JobServer, CorruptFieldCacheEntryFailsTheJob) {
  testutil::Watchdog watchdog(60);
  auto cfg = tiny_job_cfg(56);
  cfg.nranks = 2;
  service::JobServerConfig scfg;
  scfg.workers = 1;
  scfg.host_threads_total = 2;
  service::JobServer server(scfg);
  server.field_cache().publish(service::FieldCache::key_for(cfg),
                               short_rank1_fields(cfg));
  service::JobDescription d;
  d.id = 1;
  d.config = cfg;
  ASSERT_TRUE(server.submit(std::move(d)));
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].field_cache_hit);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("size mismatch"), std::string::npos)
      << results[0].error;
  EXPECT_EQ(server.metrics().counter("jobs.failed"), 1);
}

TEST(JobServer, UnconvergedBoundaryFailsTheJobAndIsNotCached) {
  // Three PCG iterations leave the PFSS field unconverged (not
  // divergence-free). Every rank throws before the extract, so the job
  // fails, nothing is published, and the next same-shape job solves
  // again instead of hitting a bad entry.
  testutil::Watchdog watchdog(60);
  auto cfg = tiny_job_cfg(57);
  cfg.nranks = 2;
  cfg.boundary.maxit = 3;
  service::JobServerConfig scfg;
  scfg.workers = 1;  // the second job looks up after the first has failed
  scfg.host_threads_total = 2;
  service::JobServer server(scfg);
  for (i64 id = 0; id < 2; ++id) {
    service::JobDescription d;
    d.id = id;
    d.config = cfg;
    ASSERT_TRUE(server.submit(std::move(d)));
  }
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_FALSE(r.ok) << "job " << r.id;
    EXPECT_TRUE(r.field_cache_used);
    EXPECT_FALSE(r.field_cache_hit) << "job " << r.id;
    EXPECT_NE(r.error.find("PFSS boundary solve not converged"),
              std::string::npos)
        << r.error;
  }
  const auto snap = server.metrics();
  EXPECT_EQ(snap.counter("jobs.failed"), 2);
  EXPECT_EQ(snap.counter("field_cache.inserts"), 0);
  EXPECT_EQ(snap.counter("field_cache.hits"), 0);
  EXPECT_EQ(snap.counter("field_cache.misses"), 2);
}

}  // namespace
}  // namespace simas
