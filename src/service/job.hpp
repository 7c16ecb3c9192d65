#pragma once
// Job-server vocabulary types: what a client submits (a JobDescription
// wrapping an ExperimentConfig) and what it gets back (a JobResult with
// the full ExperimentResult plus serving-side timing and cache
// provenance). Plain data — all queueing/locking lives in
// service/admission_queue.hpp and service/job_server.hpp.

#include <string>

#include "run/run_experiment.hpp"
#include "telemetry/span_tree.hpp"
#include "telemetry/trace_context.hpp"
#include "util/types.hpp"

namespace simas::service {

/// One requested simulation run. `config` is copied at submit time; the
/// server fills in its own SimContext (which carries the shared pool) and
/// cache hooks, so clients describe *what* to run, never *how* it is
/// scheduled.
struct JobDescription {
  i64 id = 0;          ///< client-chosen; echoed in the JobResult
  std::string name;    ///< label for logs/metrics (optional)
  run::ExperimentConfig config;
  /// Trace identity. Normally left default: the server mints a root
  /// context at submission when tracing is on (JobServerConfig::trace)
  /// and threads it through the queue into the per-rank engines. A
  /// client-set context is honored as-is (external propagation).
  telemetry::TraceContext trace;
};

struct JobResult {
  i64 id = 0;
  std::string name;
  bool ok = false;
  std::string error;  ///< exception text when !ok
  run::ExperimentResult result;

  // Serving-side wall-clock timing (host seconds, not modeled time).
  double queue_seconds = 0.0;    ///< submit -> worker pickup
  double run_seconds = 0.0;      ///< worker pickup -> completion
  double latency_seconds = 0.0;  ///< submit -> completion

  // Cache provenance.
  bool field_cache_used = false;  ///< boundary enabled + cache consulted
  bool field_cache_hit = false;   ///< PFSS solve skipped via injection

  /// The job's span tree: root trace context, queue/run host spans,
  /// per-rank modeled phase spans and cache attribution
  /// (telemetry/span_tree.hpp). Filled for every completed job; the rank
  /// spans are moved out of result.rank_spans (the record is the
  /// canonical owner once the job is done).
  telemetry::JobSpanRecord spans;
};

}  // namespace simas::service
