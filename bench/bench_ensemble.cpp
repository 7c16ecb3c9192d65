// Ensemble serving: batched many-run execution through the service layer
// (src/service/). An ensemble study (parameter sweeps, boundary-map
// ensembles for space-weather forecasting) runs the *same* model shape
// hundreds of times with different boundary data; the JobServer amortizes
// everything shareable across those runs:
//
//   * one host ThreadPool multiplexed by all in-flight jobs,
//   * PFSS boundary solutions reused via the FieldCache (bit-identical
//     injection instead of a PCG solve per job),
//   * captured kernel graphs reused via the GraphCache (first pass of a
//     warm job replays; no capture pass).
//
// The bench queues a full batch (default 10^3 jobs over a handful of
// boundary shapes), serves a smaller cold batch (caches off) and the full
// batch warm (caches prewarmed), and reports each regime's cache hits.
// It *fails* (nonzero exit) if any served job's physics is not
// bit-identical to the same config run serially — serving must never
// change results — or if the caches miss their exact counts: every warm
// job a field-cache hit with warm graph-cache hits > 0, and no cache hit
// at all in the cold regime.
//
//   bench_ensemble [--jobs=1000] [--shapes=8] [--workers=4] [--nranks=2]
//                  [--steps=2] [--warmup=1] [--queue-capacity=jobs]
//                  [--out=BENCH_ensemble.json] [--trace] [--introspect]
//                  [--span-jobs=64]
//
// Host wall time of this serving path (throughput, latency, hit vs fresh
// job cost) is measured by perfbench (`perfbench/run.py --workload
// ensemble`); every field this bench writes is deterministic and gated by
// tools/perf_check.
//
// Observability (ISSUE 10): --trace mints a TraceContext per job and adds
// a hard gate — every job's span tree must be complete (all phases
// present, child phases summing to the modeled wall time within 1e-6
// relative) or the bench exits nonzero. Per-job latency-attribution
// records land in the JSON (first --span-jobs per regime, gated by the
// *attribution* tolerance rule) and the first few warm jobs' span trees
// are exported as one-track-per-job Perfetto JSON next to --out.
// --introspect starts the live TCP introspection surface
// (/healthz /metrics /jobs) on an ephemeral localhost port for the warm
// batch. A physics divergence triggers a flight-recorder dump when
// SIMAS_FLIGHT_DUMP is set.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/write_file.hpp"
#include "run/run_experiment.hpp"
#include "service/introspection.hpp"
#include "service/job_server.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/span_tree.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;
using run::ExperimentConfig;
using run::ExperimentResult;

namespace {

/// One serial run's physics + modeled-timing fingerprint.
struct PhysicsRef {
  mhd::GlobalDiagnostics diag;
  std::vector<double> seconds_per_step;  ///< per rank, modeled
  double wall_minutes = 0.0;
};

/// Reference physics for one shape, from plain serial run_experiment calls
/// (no service layer). Two fingerprints: `cold` (no caches — what a cold
/// served job must reproduce) and `warm` (boundary fields injected +
/// graph cache prewarmed serially — what a warm served job must
/// reproduce; the graph cache honestly changes modeled launch-gap time by
/// replaying scopes from their first entry, so warm jobs are compared
/// against a serial run with the same cache state, isolating exactly the
/// serving layer's concurrency as the thing that must not matter).
struct ShapeReference {
  ExperimentConfig cfg;
  PhysicsRef cold;
  PhysicsRef warm;
};

PhysicsRef fingerprint(const ExperimentResult& r) {
  PhysicsRef ref;
  ref.diag = r.final_diag;
  ref.wall_minutes = r.wall_minutes;
  for (const auto& rank : r.ranks)
    ref.seconds_per_step.push_back(rank.seconds_per_step);
  return ref;
}

ExperimentConfig shape_config(int shape, int nranks, int steps, int warmup) {
  ExperimentConfig cfg;
  cfg.version = variants::CodeVersion::A;
  cfg.nranks = nranks;
  cfg.grid = bench_support::bench_grid();
  cfg.warmup_steps = warmup;
  cfg.measure_steps = steps;
  cfg.graph_replay = true;
  cfg.boundary.enabled = true;
  cfg.boundary.seed = 1000 + static_cast<u64>(shape);
  return cfg;
}

bool bit_identical(const mhd::GlobalDiagnostics& a,
                   const mhd::GlobalDiagnostics& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Served result vs the matching serial fingerprint: diagnostics and
/// modeled timings must match bit for bit.
bool matches_reference(const ExperimentResult& r, const PhysicsRef& ref,
                       std::string& why) {
  if (!bit_identical(r.final_diag, ref.diag)) {
    why = "diagnostics differ";
    return false;
  }
  if (r.wall_minutes != ref.wall_minutes) {
    why = "modeled wall_minutes differ";
    return false;
  }
  if (r.ranks.size() != ref.seconds_per_step.size()) {
    why = "rank count differs";
    return false;
  }
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    if (r.ranks[i].seconds_per_step != ref.seconds_per_step[i]) {
      why = "modeled seconds_per_step differ on rank " + std::to_string(i);
      return false;
    }
  }
  return true;
}

struct PhaseStats {
  int jobs = 0;
  i64 field_cache_hits = 0;
  i64 graph_cache_hits = 0;
  i64 rejected = 0;
  bool physics_identical = true;
  /// Span records for every completed job, in id order (the per-job
  /// latency attribution; also feeds the --trace completeness gate).
  std::vector<telemetry::JobSpanRecord> spans;
  bool spans_complete = true;
  std::string span_err;  ///< first completeness violation, for the log
};

/// Queue `njobs` round-robin over the shapes, start the (paused) server,
/// drain, and verify every result against its shape reference (`warm`
/// selects which serial fingerprint to compare against).
PhaseStats serve_batch(service::JobServer& server, int njobs,
                       const std::vector<ShapeReference>& shapes,
                       const char* phase, bool warm_refs) {
  PhaseStats stats;
  stats.jobs = njobs;
  for (int j = 0; j < njobs; ++j) {
    service::JobDescription desc;
    desc.id = j;
    const std::size_t s = static_cast<std::size_t>(j) % shapes.size();
    desc.name = std::string(phase) + "/shape" + std::to_string(s);
    desc.config = shapes[s].cfg;
    if (!server.submit(std::move(desc))) {
      std::cerr << phase << ": job " << j
                << " rejected (queue capacity too small for the batch)\n";
      stats.physics_identical = false;
      return stats;
    }
  }
  server.start();
  const std::vector<service::JobResult> results = server.drain();

  for (const service::JobResult& r : results) {
    if (!r.ok) {
      std::cerr << phase << ": job " << r.id << " failed: " << r.error
                << "\n";
      stats.physics_identical = false;
      continue;
    }
    if (r.field_cache_hit) stats.field_cache_hits++;
    const auto s = static_cast<std::size_t>(r.id) % shapes.size();
    std::string why;
    const PhysicsRef& ref =
        warm_refs ? shapes[s].warm : shapes[s].cold;
    if (!matches_reference(r.result, ref, why)) {
      std::cerr << phase << ": job " << r.id << " NOT bit-identical to the "
                << "serial reference: " << why << "\n";
      stats.physics_identical = false;
      // Physics divergence is a flight-recorder dump trigger: the ring
      // holds the stream/halo/data events leading up to this job.
      const std::string& dump = server.context().env().flight_dump;
      if (!dump.empty()) {
        telemetry::FlightRecorder& fr = telemetry::FlightRecorder::process();
        fr.note(telemetry::FlightNote::PhysicsDivergence,
                r.spans.ctx.trace_id, r.id);
        fr.dump_to_file(dump, "physics_divergence");
      }
    }
    std::string span_why;
    if (!r.spans.complete(1e-6, &span_why)) {
      stats.spans_complete = false;
      if (stats.span_err.empty())
        stats.span_err =
            "job " + std::to_string(r.id) + ": " + span_why;
    }
    stats.spans.push_back(r.spans);
  }
  if (static_cast<int>(results.size()) != njobs) {
    std::cerr << phase << ": " << results.size() << " results for " << njobs
              << " jobs\n";
    stats.physics_identical = false;
  }
  stats.graph_cache_hits = server.graph_cache().stats().hits;
  stats.rejected = server.queue_stats().rejected;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (!opts.only({"jobs", "shapes", "workers", "nranks", "steps", "warmup",
                  "queue-capacity", "out", "trace", "introspect",
                  "span-jobs"},
                 std::cerr))
    return 1;
  const int jobs = static_cast<int>(opts.get_int("jobs", 1000));
  const int nshapes =
      std::max(1, static_cast<int>(opts.get_int("shapes", 8)));
  const int workers = static_cast<int>(opts.get_int("workers", 4));
  const int nranks = static_cast<int>(opts.get_int("nranks", 2));
  const int steps = static_cast<int>(opts.get_int("steps", 2));
  const int warmup = static_cast<int>(opts.get_int("warmup", 1));
  const auto capacity = static_cast<std::size_t>(
      opts.get_int("queue-capacity", jobs));
  // The cold regime serves a smaller batch: every cold job pays the full
  // PFSS solve, and a few jobs per shape and worker cover its checks.
  const int cold_jobs = std::min(jobs, std::max(2 * nshapes, 4 * workers));
  const std::string out = opts.get("out", "BENCH_ensemble.json");
  const bool trace = opts.get_bool("trace", false);
  const bool introspect = opts.get_bool("introspect", false);
  // How many per-job attribution records each regime embeds in the JSON
  // (in job-id order; the completeness gate still checks every job).
  const auto span_jobs =
      static_cast<std::size_t>(opts.get_int("span-jobs", 64));

  std::cout << "ensemble serving: " << jobs << " jobs over " << nshapes
            << " boundary shapes, " << workers << " workers, " << nranks
            << " ranks/job\n\n";

  // Serial references, one per shape, no service layer. The cold
  // fingerprint is a plain run; the warm fingerprint prewarms a local
  // graph cache and extracts the PFSS fields serially, then reruns with
  // both caches hot — mirroring exactly what a warm served job sees.
  std::vector<ShapeReference> shapes;
  shapes.reserve(static_cast<std::size_t>(nshapes));
  for (int s = 0; s < nshapes; ++s) {
    ShapeReference ref;
    ref.cfg = shape_config(s, nranks, steps, warmup);
    ref.cold = fingerprint(run::run_experiment(ref.cfg));

    par::GraphCache gcache;
    run::BoundaryFields fields;
    ExperimentConfig pre = ref.cfg;
    pre.graph_cache = &gcache;
    pre.boundary_out = &fields;
    (void)run::run_experiment(pre);
    ExperimentConfig hot = ref.cfg;
    hot.graph_cache = &gcache;
    hot.boundary_fields = &fields;
    ref.warm = fingerprint(run::run_experiment(hot));
    shapes.push_back(std::move(ref));
  }

  // Cold regime: service layer, both caches off — every job solves its
  // own PFSS and captures its own graphs.
  service::JobServerConfig cold_cfg;
  cold_cfg.workers = workers;
  cold_cfg.queue_capacity = capacity;
  cold_cfg.enable_field_cache = false;
  cold_cfg.enable_graph_cache = false;
  cold_cfg.autostart = false;
  cold_cfg.trace = trace;
  PhaseStats cold;
  {
    service::JobServer server(cold_cfg);
    cold = serve_batch(server, cold_jobs, shapes, "cold",
                       /*warm_refs=*/false);
  }

  // Warm regime: caches on, prewarmed once per shape, then the full batch
  // queued before the workers start (the 10^3-queued-jobs regime).
  service::JobServerConfig warm_cfg = cold_cfg;
  warm_cfg.enable_field_cache = true;
  warm_cfg.enable_graph_cache = true;
  PhaseStats warm;
  i64 prewarm_count = 0;
  {
    service::JobServer server(warm_cfg);
    std::unique_ptr<service::IntrospectionServer> scope;
    if (introspect) {
      scope = std::make_unique<service::IntrospectionServer>(server);
      std::cout << "introspection surface (warm batch): http://127.0.0.1:"
                << scope->port() << "/{healthz,metrics,jobs}\n";
    }
    for (int s = 0; s < nshapes; ++s) {
      service::JobDescription desc;
      desc.id = s;
      desc.name = "prewarm/shape" + std::to_string(s);
      desc.config = shapes[static_cast<std::size_t>(s)].cfg;
      const service::JobResult r = server.prewarm(std::move(desc));
      if (!r.ok) {
        std::cerr << "prewarm failed: " << r.error << "\n";
        return 1;
      }
      ++prewarm_count;
    }
    warm = serve_batch(server, jobs, shapes, "warm", /*warm_refs=*/true);
  }

  Table table("ensemble serving (" + std::to_string(workers) + " workers)");
  table.set_header({"regime", "jobs", "field hits", "graph hits"});
  for (const auto& [name, p] :
       {std::pair{"cold", &cold}, std::pair{"warm", &warm}})
    table.row()
        .cell(name)
        .cell(static_cast<double>(p->jobs), 0)
        .cell(static_cast<double>(p->field_cache_hits), 0)
        .cell(static_cast<double>(p->graph_cache_hits), 0);
  table.print(std::cout);

  // Cache-hit gate: a prewarmed cache serves every warm job's boundary
  // fields and some of its graphs; a disabled cache serves nothing.
  const bool caches_ok = warm.field_cache_hits == warm.jobs &&
                         warm.graph_cache_hits > 0 &&
                         cold.field_cache_hits == 0 &&
                         cold.graph_cache_hits == 0;
  std::cout << "\ncache hits: "
            << (caches_ok ? "every warm job hit, no cold hits" : "MISMATCH")
            << "\n";

  const bool identical = cold.physics_identical && warm.physics_identical;
  std::cout << "physics vs serial reference: "
            << (identical ? "bit-identical" : "MISMATCH") << "\n";

  // Span-tree completeness gate (--trace): every job of every regime must
  // have yielded a complete span tree whose child phases sum to the
  // modeled wall time within 1e-6 relative.
  const bool spans_ok = cold.spans_complete && warm.spans_complete;
  if (trace) {
    const auto total_spans = cold.spans.size() + warm.spans.size();
    std::cout << "span trees: " << total_spans << " jobs, "
              << (spans_ok ? "all complete (phase sums within 1e-6)"
                           : "INCOMPLETE")
              << "\n";
    for (const PhaseStats* p : {&cold, &warm})
      if (!p->span_err.empty())
        std::cerr << "span gate: " << p->span_err << "\n";
  }

  // JSON result: counts, modeled minutes and identity flags, all gated by
  // perf_check.
  json::Value shapes_arr{json::Value::Array{}};
  for (const auto& ref : shapes) {
    json::Value v{json::Value::Object{}};
    auto& o = v.as_object();
    o.emplace_back("seed",
                   static_cast<long long>(ref.cfg.boundary.seed));
    o.emplace_back("modeled_wall_minutes", ref.cold.wall_minutes);
    o.emplace_back("modeled_wall_minutes_warm", ref.warm.wall_minutes);
    shapes_arr.as_array().push_back(std::move(v));
  }
  auto phase_json = [span_jobs](const PhaseStats& p) {
    json::Value v{json::Value::Object{}};
    auto& o = v.as_object();
    o.emplace_back("jobs", p.jobs);
    o.emplace_back("field_cache_hits", static_cast<long long>(
                                           p.field_cache_hits));
    o.emplace_back("graph_cache_hits", static_cast<long long>(
                                           p.graph_cache_hits));
    o.emplace_back("rejected", static_cast<long long>(p.rejected));
    o.emplace_back("physics_identical", p.physics_identical);
    o.emplace_back("spans_complete", p.spans_complete);
    // Per-job latency attribution (first --span-jobs records): all
    // modeled-seconds leaves sit under "attribution", matched by the
    // *attribution* rule in tools/perf_tolerances.json.
    json::Value jobs_arr{json::Value::Array{}};
    const std::size_t n = std::min(span_jobs, p.spans.size());
    for (std::size_t i = 0; i < n; ++i)
      jobs_arr.push_back(telemetry::span_record_json(p.spans[i]));
    o.emplace_back("job_spans", std::move(jobs_arr));
    return v;
  };
  json::Value doc{json::Value::Object{}};
  auto& root = doc.as_object();
  root.emplace_back("bench", "ensemble");
  root.emplace_back("shapes", static_cast<long long>(nshapes));
  root.emplace_back("workers", static_cast<long long>(workers));
  root.emplace_back("nranks", static_cast<long long>(nranks));
  root.emplace_back("prewarmed", static_cast<long long>(prewarm_count));
  root.emplace_back("shape_references", std::move(shapes_arr));
  root.emplace_back("cold", phase_json(cold));
  root.emplace_back("warm", phase_json(warm));
  if (!bench_support::write_file(out, doc)) return 1;
  std::cout << "results written to " << out << "\n";

  // Perfetto export: one track per job for the first few warm jobs (the
  // regime the paper's ensemble argument is about). Opens directly in
  // ui.perfetto.dev.
  if (trace) {
    std::string ptrace = out;
    const std::string suffix = ".json";
    if (ptrace.size() > suffix.size() &&
        ptrace.compare(ptrace.size() - suffix.size(), suffix.size(),
                       suffix) == 0)
      ptrace.resize(ptrace.size() - suffix.size());
    ptrace += ".perfetto.json";
    const std::size_t n = std::min<std::size_t>(8, warm.spans.size());
    if (!bench_support::write_file(ptrace, [&](std::ostream& os) {
          telemetry::write_job_spans_json(
              os, std::span<const telemetry::JobSpanRecord>(
                      warm.spans.data(), n));
        }))
      return 1;
    std::cout << "job span tracks written to " << ptrace << " (" << n
              << " warm jobs)\n";
  }

  if (!identical) return 1;
  if (trace && !spans_ok) {
    std::cerr << "FAIL: span-tree completeness gate (missing phase or "
              << "phase sum outside 1e-6 of modeled wall time)\n";
    return 1;
  }
  if (!caches_ok) {
    std::cerr << "FAIL: cache-hit gate (warm field hits "
              << warm.field_cache_hits << " of " << warm.jobs
              << " jobs, warm graph hits " << warm.graph_cache_hits
              << ", cold field/graph hits " << cold.field_cache_hits << "/"
              << cold.graph_cache_hits << ")\n";
    return 1;
  }
  return 0;
}
