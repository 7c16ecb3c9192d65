#pragma once
// Per-job span trees: the latency-attribution record a traced job leaves
// behind.
//
// A job's span tree is built *after* the fact from state the engines
// already maintain — the per-rank ClockLedger phase totals and the
// JobServer's queue/run timestamps — so tracing adds nothing to the hot
// path. The tree has three levels:
//
//   job (root span, TraceContext minted at submission)
//   ├─ queue wait            (host wall clock, submission → pickup)
//   └─ run                   (host wall clock, pickup → completion)
//      └─ rank r (span r + 2 = child(r + 1), modeled clock)
//         ├─ compute          TimeCategory::Compute
//         ├─ launch_gap       TimeCategory::LaunchGap
//         ├─ prefetch/paging  TimeCategory::DataMotion
//         └─ exposed MPI      TimeCategory::Mpi
//            (hidden MPI rides the copy stream: recorded, not summed)
//
// The invariant every consumer checks (bench_ensemble's self-check gate,
// tests/test_observability.cpp): the ClockLedger attributes every advance
// to exactly one category, so per rank
//     compute + launch_gap + data_motion + mpi_exposed == modeled total
// up to float accumulation order — within 1e-6 relative by a huge margin.
// A missing phase or a sum outside tolerance means an accounting path
// bypassed the ledger, which is exactly what the gate exists to catch.

#include <string>
#include <vector>

#include "telemetry/trace_context.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace simas::telemetry {

/// One rank's modeled-time phase breakdown (ClockLedger totals over the
/// job's whole run on that rank).
struct PhaseTotals {
  double compute_seconds = 0.0;
  double launch_gap_seconds = 0.0;
  double data_motion_seconds = 0.0;  ///< UM paging/prefetch + data directives
  double mpi_exposed_seconds = 0.0;  ///< MPI time on the compute clock
  /// Overlapped MPI on the copy stream: informational — hidden behind
  /// compute, so NOT part of the wall-time sum.
  double hidden_mpi_seconds = 0.0;
  double modeled_seconds = 0.0;  ///< the rank's ledger now()

  /// Sum of the exclusive wall-time phases (everything but hidden MPI).
  double sum() const {
    return compute_seconds + launch_gap_seconds + data_motion_seconds +
           mpi_exposed_seconds;
  }
};

/// One rank's span in a job's tree.
struct RankSpan {
  int rank = 0;
  TraceContext ctx;  ///< job root's child(rank + 1)
  PhaseTotals phases;
};

/// The complete per-job record: root span + queue/run host timings +
/// per-rank modeled phase spans + cache attribution.
struct JobSpanRecord {
  TraceContext ctx;
  u64 job_id = 0;
  std::string name;
  double queue_host_seconds = 0.0;  ///< submission → worker pickup (wall)
  double run_host_seconds = 0.0;    ///< worker pickup → completion (wall)
  bool field_cache_hit = false;     ///< PFSS solve skipped (injected field)
  std::vector<RankSpan> ranks;

  /// Modeled wall seconds: the slowest rank's total (collective-
  /// synchronized ranks agree closely; the max is the wall).
  double modeled_wall_seconds() const;
  /// The slowest rank's phase breakdown (the attribution that explains
  /// modeled_wall_seconds).
  const PhaseTotals* wall_phases() const;

  /// Span-tree completeness + sum check: at least one rank, every rank
  /// carries a nonzero compute phase, and every rank's summed phases equal
  /// its modeled total within `rel` relative tolerance. On failure `why`
  /// (if non-null) receives a one-line reason.
  bool complete(double rel, std::string* why = nullptr) const;
};

/// JSON form of one record, as embedded in BENCH_ensemble.json. All
/// modeled-seconds leaves live under an "attribution" object so one
/// tools/perf_tolerances.json rule (`*attribution*`) covers them; host
/// wall-clock fields keep the `host_seconds` suffix the skip rules match.
json::Value span_record_json(const JobSpanRecord& rec);

}  // namespace simas::telemetry
