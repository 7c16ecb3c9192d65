#pragma once
// JobServer: the ensemble serving layer. N worker threads pull submitted
// ExperimentConfigs from a bounded AdmissionQueue and run them through
// run::run_experiment, all multiplexed over ONE shared host
// ThreadPool — total execution threads stay fixed no matter how many jobs
// run concurrently. Two cross-job caches amortize per-job startup:
//
//   * FieldCache  — PFSS boundary solutions keyed by boundary-data hash;
//     a hit injects the solved field's raw bytes (bit-identical, no PCG).
//   * GraphCache  — captured kernel graphs keyed by experiment shape +
//     rank; a hit replays from the job's very first pass (no capture
//     pass, per-graph launch overhead from step one).
//
// Physics is unaffected by serving: every job's diagnostics are
// bit-identical to running its config serially (tested in
// tests/test_service_concurrency.cpp — block partitioning, reduction
// trees and cache injection are all deterministic by construction).
//
// Lifecycle: construct (autostart=true begins processing immediately;
// autostart=false lets a client queue a full batch first — the
// 10^3-queued-jobs bench regime — then call start()), submit jobs
// (try_push semantics: false = backpressure), then drain() to close
// intake, join the workers and collect every result.

#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "par/graph_cache.hpp"
#include "par/sim_context.hpp"
#include "par/thread_pool.hpp"
#include "service/admission_queue.hpp"
#include "service/field_cache.hpp"
#include "service/job.hpp"
#include "telemetry/metrics.hpp"
#include "util/timer.hpp"

namespace simas::service {

struct JobServerConfig {
  int workers = 2;                  ///< concurrent jobs in flight
  std::size_t queue_capacity = 64;  ///< admission bound (backpressure)
  /// Env-snapshot source; null = the process context. The server builds
  /// its own SimContext around this env with the shared pool attached.
  const par::SimContext* ctx = nullptr;
  /// Width of the shared execution pool; 0 = auto (SIMAS_HOST_THREADS /
  /// hardware concurrency via resolve_host_threads).
  int host_threads_total = 0;
  bool enable_field_cache = true;
  bool enable_graph_cache = true;
  /// False = workers do not start until start(): lets a client stage the
  /// whole batch in the queue first (deterministic backpressure tests,
  /// the queued-batch bench regime).
  bool autostart = true;
  /// Distributed tracing: mint a TraceContext per submitted/prewarmed job
  /// and thread it through the queue into every rank engine. Span records
  /// are built for every completed job regardless; `trace` only controls
  /// whether they carry a live trace id (and thus tag flight-recorder
  /// events).
  bool trace = false;
  /// How many completed-job span records the server retains for the
  /// introspection surface's /jobs endpoint (last-N ring).
  std::size_t completed_ring = 32;
};

class JobServer {
 public:
  explicit JobServer(JobServerConfig cfg);
  /// Closes intake and joins the workers (results are discarded if
  /// drain() was never called).
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Non-blocking submit. False = rejected (queue full — backpressure —
  /// or intake closed).
  bool submit(JobDescription desc);

  /// Begin processing (no-op when already started / autostart).
  void start();

  /// Close intake, process the backlog, join the workers, and return
  /// every completed result sorted by job id. Idempotent. The first call
  /// fires the batch's one explicit SIMAS_FLIGHT_DUMP (served jobs fire
  /// only incident dumps), unless a job failed or carried a
  /// static-verifier error.
  std::vector<JobResult> drain();

  /// Run one job synchronously on the calling thread, populating the
  /// field/graph caches for its shape. Deterministic warm-up: after
  /// prewarm returns, every same-shape job is a guaranteed cache hit.
  /// Does not count toward drain()'s results.
  JobResult prewarm(JobDescription desc);

  std::size_t queue_depth() const { return queue_.depth(); }
  const par::SimContext& context() const { return ctx_; }
  par::GraphCache& graph_cache() { return graph_cache_; }
  FieldCache& field_cache() { return field_cache_; }
  AdmissionQueue::Stats queue_stats() const { return queue_.stats(); }

  /// Server-level metrics: jobs.{submitted,rejected,completed,failed,
  /// prewarmed} counters, queue.depth gauge, jobs.latency_seconds
  /// histogram, cache hit/miss counters. The registry is rank-local by
  /// design (telemetry/metrics.hpp), so all updates happen under the
  /// server's own mutex.
  telemetry::MetricsSnapshot metrics();

  /// One job currently being executed by a worker (introspection view).
  struct InFlightJob {
    i64 id = 0;
    std::string name;
    u64 trace_id = 0;
    double picked_at = 0.0;  ///< seconds on the server epoch clock
  };

  /// Jobs currently inside run_job, in pickup order.
  std::vector<InFlightJob> in_flight() const;
  /// The last-N completed jobs' span records, oldest first
  /// (JobServerConfig::completed_ring bounds N).
  std::vector<telemetry::JobSpanRecord> recent_completed() const;
  /// Seconds since the server's epoch (the clock every InFlightJob /
  /// queue timestamp is on).
  double now_seconds() const { return epoch_.seconds(); }
  std::size_t queue_capacity() const { return queue_.capacity(); }

 private:
  void worker_loop();
  JobResult run_job(JobDescription desc, double submitted_at,
                    double picked_at);
  void note_completion(const JobResult& r);

  JobServerConfig cfg_;
  Timer epoch_;  ///< all queue/latency timestamps are seconds since this
  std::unique_ptr<par::ThreadPool> pool_;
  par::SimContext ctx_;  ///< server context: caller's env + shared pool
  AdmissionQueue queue_;
  FieldCache field_cache_;
  par::GraphCache graph_cache_;

  std::mutex state_mutex_;  ///< workers_, results_, started_/drained_
  std::vector<std::thread> workers_;
  std::vector<JobResult> results_;
  bool started_ = false;
  bool drained_ = false;

  mutable std::mutex metrics_mutex_;
  telemetry::Registry registry_;
  telemetry::Counter submitted_, rejected_, completed_, failed_, prewarmed_;
  telemetry::Gauge queue_depth_gauge_;
  telemetry::Histogram latency_hist_;
  /// Introspection state (guarded by metrics_mutex_ like the registry).
  std::vector<InFlightJob> in_flight_;
  std::deque<telemetry::JobSpanRecord> completed_ring_;
};

}  // namespace simas::service
