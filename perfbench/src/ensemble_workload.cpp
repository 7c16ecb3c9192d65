// The ensemble workload: closed batches served by service::JobServer.
//
// Set-up constructs a server and prewarms eight seeded job shapes, so their
// PFSS fields and captured graphs sit in the FieldCache/GraphCache. The
// whole batch is then queued from one thread before start(); in every
// group of eight jobs one (at a seeded position) carries a fresh seeded
// boundary that misses both caches, solves, captures and inserts, and the
// other seven are seeded picks among the prewarmed shapes. Batch wall is
// start() -> drain(). A run repeats set-up and batch three times on fresh
// servers and reports the median set-up and batch rate. Afterwards every
// distinct boundary is run once more through plain
// bench_support::run_experiment (the serial reference), and every served
// job must match its reference bit for bit.
//
// The traced run adds the service-layer numbers (submit cost, queue wait,
// hit vs fresh service time, cache hit ratios, per-job overhead) and runs
// a two-rank replica of the job shape through the solver run for the
// mhd.*/par.*/mpisim.* layers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/host_threads.hpp"
#include "harness.hpp"
#include "service/job_server.hpp"

namespace perfbench {

namespace {

namespace bs = simas::bench_support;
namespace service = simas::service;

constexpr int kShapes = 8;
constexpr int kGroup = 8;  ///< one fresh job per group of eight

bs::ExperimentConfig job_config(u64 boundary_seed) {
  bs::ExperimentConfig cfg;
  cfg.version = simas::variants::CodeVersion::A;
  cfg.nranks = 2;
  cfg.grid = bs::bench_grid();
  cfg.warmup_steps = 1;
  cfg.measure_steps = 2;
  cfg.graph_replay = true;
  cfg.boundary.enabled = true;
  cfg.boundary.seed = boundary_seed;
  return cfg;
}

/// The boundary seed of each job of a batch of `njobs`: in each group of
/// eight, one fresh boundary at a seeded position, the rest seeded picks
/// among the prewarmed shapes. Every batch of a run serves the same jobs;
/// each has its own server, so a fresh boundary misses that server's caches
/// every time.
std::vector<u64> make_batch(u64 seed, const std::vector<u64>& shapes,
                            int njobs) {
  std::vector<u64> jobs;
  for (int j = 0; j < njobs; ++j) {
    const auto group = static_cast<u64>(j / kGroup);
    const bool fresh = static_cast<u64>(j % kGroup) ==
                       derive_seed(seed, 5, group) % kGroup;
    jobs.push_back(fresh ? derive_seed(seed, 4, group)
                         : shapes[derive_seed(seed, 6, static_cast<u64>(j)) %
                                  kShapes]);
  }
  return jobs;
}

double counter_delta(const simas::telemetry::MetricsSnapshot& after,
                     const simas::telemetry::MetricsSnapshot& before,
                     const char* name) {
  return static_cast<double>(after.counter(name) - before.counter(name));
}

/// Everything the batches measure, pooled across batches.
struct Served {
  std::vector<double> setup_s, rate, submit_s, service_s, queue_s, hit_s,
      fresh_s;
  double field_hits = 0, field_misses = 0, graph_hits = 0, graph_misses = 0;
  /// Boundary seed and physics of every completed job, for the references.
  std::vector<std::pair<u64, simas::mhd::GlobalDiagnostics>> physics;
};

/// One set-up (server construction + prewarms) and one closed batch on it.
/// Returns the drained server.
std::unique_ptr<service::JobServer> serve_batch(
    int b, const std::vector<u64>& shapes, const std::vector<u64>& batch,
    Report& r, Served& out) {
  const int njobs = static_cast<int>(batch.size());
  service::JobServerConfig sc;
  sc.workers = std::min(4, nproc());
  sc.queue_capacity = static_cast<std::size_t>(njobs);
  sc.host_threads_total = nproc();
  sc.autostart = false;

  const Clock::time_point t_setup = Clock::now();
  auto server = std::make_unique<service::JobServer>(sc);
  for (int s = 0; s < kShapes; ++s) {
    service::JobDescription desc;
    desc.id = s;
    desc.name = "prewarm/" + std::to_string(s);
    desc.config = job_config(shapes[static_cast<std::size_t>(s)]);
    const service::JobResult res = server->prewarm(std::move(desc));
    r.attempt();
    if (!res.ok)
      r.fail("prewarm of shape " + std::to_string(s) + ": " + res.error);
  }
  out.setup_s.push_back(seconds_between(t_setup, Clock::now()));

  // The closed batch: queued from one thread, then start() -> drain().
  const simas::telemetry::MetricsSnapshot before = server->metrics();
  for (int j = 0; j < njobs; ++j) {
    service::JobDescription desc;
    desc.id = j;
    desc.name = "job/" + std::to_string(j);
    desc.config = job_config(batch[static_cast<std::size_t>(j)]);
    const Clock::time_point t0 = Clock::now();
    const bool accepted = server->submit(std::move(desc));
    out.submit_s.push_back(seconds_between(t0, Clock::now()));
    if (!accepted) {
      r.attempt();
      r.fail("job " + std::to_string(j) + " rejected at submit");
    }
  }
  const Clock::time_point t_batch = Clock::now();
  server->start();
  const std::vector<service::JobResult> results = server->drain();
  const double batch_s = seconds_between(t_batch, Clock::now());
  const simas::telemetry::MetricsSnapshot after = server->metrics();

  for (const service::JobResult& res : results) {
    r.attempt();
    if (!res.ok) {
      r.fail("job " + std::to_string(res.id) + " failed: " + res.error);
      continue;
    }
    out.service_s.push_back(res.run_seconds);
    out.queue_s.push_back(res.queue_seconds);
    (res.field_cache_hit ? out.hit_s : out.fresh_s)
        .push_back(res.run_seconds);
    out.physics.emplace_back(batch[static_cast<std::size_t>(res.id)],
                             res.result.final_diag);
  }
  if (static_cast<int>(results.size()) < njobs)
    r.incorrect(std::to_string(njobs - static_cast<int>(results.size())) +
                " jobs of batch " + std::to_string(b) + " never completed");
  out.rate.push_back(ratio(static_cast<double>(results.size()), batch_s));
  out.field_hits += counter_delta(after, before, "field_cache.hits");
  out.field_misses += counter_delta(after, before, "field_cache.misses");
  out.graph_hits += counter_delta(after, before, "graph_cache.hits");
  out.graph_misses += counter_delta(after, before, "graph_cache.misses");
  std::printf("batch %d: set-up %.3f s, %d jobs in %.3f s\n", b,
              out.setup_s.back(), njobs, batch_s);
  return server;
}

}  // namespace

int run_ensemble_workload(const RunOptions& opt, Report& r) {
  // Jobs per second of warm serving on the 4-core host the baseline was
  // taken on; it only sizes the batches, so a run lasts about --seconds
  // there and every run of a given --seconds serves the same job count.
  constexpr double kJobsPerSecond = 12.0;
  const int batches = opt.quick ? 1 : 3;
  const double budget = opt.trace ? 0.7 * opt.seconds : opt.seconds;
  const int groups = opt.quick ? 2
                               : std::max(2, static_cast<int>(std::ceil(
                                                 budget * kJobsPerSecond /
                                                 (batches * kGroup))));
  const int njobs = groups * kGroup;
  std::vector<u64> shapes;
  for (int s = 0; s < kShapes; ++s)
    shapes.push_back(derive_seed(opt.seed, 3, static_cast<u64>(s)));
  std::printf("ensemble: %d batches of %d jobs (1 in %d fresh), %d workers, "
              "pool width %d; jobs: version A, 2 ranks, graph replay, PFSS "
              "boundary\n",
              batches, njobs, kGroup, std::min(4, nproc()), nproc());

  const std::vector<u64> batch = make_batch(opt.seed, shapes, njobs);
  Served served;
  std::unique_ptr<service::JobServer> server;
  for (int b = 0; b < batches; ++b) {
    server.reset();
    server = serve_batch(b, shapes, batch, r, served);
  }
  const double rss = peak_rss_mb();

  // Serial references, one plain run_experiment per distinct boundary.
  std::map<u64, simas::mhd::GlobalDiagnostics> refs;
  for (const auto& [seed, diag] : served.physics) {
    auto it = refs.find(seed);
    if (it == refs.end())
      it = refs.emplace(seed, bs::run_experiment(job_config(seed)).final_diag)
               .first;
    if (std::memcmp(&diag, &it->second, sizeof(diag)) != 0) {
      r.fail("a job with boundary seed " + std::to_string(seed) +
             " is not bit-identical to its serial reference");
      r.incorrect("physics of a served job differs from the serial run");
    }
  }
  std::printf("serial references: %zu distinct boundaries, %zu jobs checked\n",
              refs.size(), served.physics.size());

  r.info("exact.jobs", static_cast<double>(batches * njobs));
  r.info("exact.field_cache_hits", served.field_hits);
  r.info("exact.field_cache_misses", served.field_misses);
  r.info("exact.graph_cache_hits", served.graph_hits);
  r.info("exact.graph_cache_misses", served.graph_misses);

  if (opt.trace) {
    // Per-job overhead: run_experiment with zero steps on a warm shape,
    // through the last server's context, pool and caches (construct,
    // inject, teardown).
    std::vector<double> overhead_s;
    for (int i = 0; i < 5; ++i) {
      bs::ExperimentConfig cfg = job_config(shapes[0]);
      cfg.warmup_steps = 0;
      cfg.measure_steps = 0;
      cfg.ctx = &server->context();
      cfg.shared_pool = server->context().shared_pool();
      cfg.graph_cache = &server->graph_cache();
      const auto fields =
          server->field_cache().find(service::FieldCache::key_for(cfg));
      cfg.boundary_fields = fields.get();
      const Clock::time_point t0 = Clock::now();
      (void)bs::run_experiment(cfg);
      overhead_s.push_back(seconds_between(t0, Clock::now()));
    }
    server.reset();

    r.metric("service.queue_wait_p50_s", median(served.queue_s), "s");
    r.metric("service.submit_us", median(served.submit_s) * 1e6, "us");
    r.metric("service.job_overhead_s", median(overhead_s), "s");
    r.metric("service.hit_job_s", median(served.hit_s), "s");
    r.metric("service.fresh_job_s", median(served.fresh_s), "s");
    r.metric("service.field_cache_hit_ratio",
             ratio(served.field_hits, served.field_hits + served.field_misses),
             "ratio");
    r.metric("service.graph_cache_hit_ratio",
             ratio(served.graph_hits, served.graph_hits + served.graph_misses),
             "ratio");

    // Two-rank replica of the job shape for the solver layers.
    SolverPlan plan;
    plan.spec.version = simas::variants::CodeVersion::A;
    plan.spec.grid = bs::bench_grid();
    plan.spec.nranks = 2;
    plan.spec.threads_per_rank = bs::threads_per_rank(nproc(), 2);
    plan.spec.graph_replay = true;
    plan.spec.boundary.enabled = true;
    plan.spec.boundary.seed = shapes[0];
    plan.seconds = std::max(1.0, 0.3 * opt.seconds);
    plan.traced = true;
    plan.episode_steps = 40;
    plan.count_steps = 4;
    plan.block_steps = 2;
    plan.workdir = opt.workdir;
    const SolverRun run = run_solver(plan);
    r.attempt(run.attempted);
    for (const std::string& why : run.failures) r.fail(why);
    emit_layer_metrics(run, plan, nproc(), nullptr, r);
    return 0;
  }

  const Tail tail = tail_percentile(served.service_s);
  r.metric("setup_s", median(served.setup_s), "s");
  r.metric("throughput_per_s", median(served.rate), "1/s");
  r.metric("latency_p50_ms", median(served.service_s) * 1e3, "ms");
  r.info("latency_tail_ms", tail.value * 1e3);
  r.metric("peak_rss_mb", rss, "MB");
  std::printf("service time p50 %.3f s, tail p%g of %zu jobs %.3f s; hits "
              "%zu, fresh %zu; median batch rate %.0f runs/hour\n",
              median(served.service_s), tail.percentile, tail.n, tail.value,
              served.hit_s.size(), served.fresh_s.size(),
              3600.0 * median(served.rate));
  r.info("latency_tail_percentile", tail.percentile);
  r.info("latency_tail_n", static_cast<double>(tail.n));
  return 0;
}

}  // namespace perfbench
