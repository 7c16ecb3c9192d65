#pragma once
// Shared pieces of the SIMAS host-wall benchmark: the result report, the
// statistics every workload uses, seed derivation, machine facts, the
// per-rank solver rig, and the micro-probes. The workloads themselves live
// in solver_workloads.cpp (solve, small_um) and ensemble_workload.cpp.
//
// Every number here is host wall-clock (std::chrono::steady_clock) or an
// exact count read from SIMAS's public counters; modeled time appears only
// as the par.modeled_s_per_step count.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/run_experiment.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "par/engine.hpp"
#include "util/types.hpp"
#include "variants/code_version.hpp"

namespace perfbench {

using simas::i64;
using simas::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Run options and the report every workload fills.

struct RunOptions {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short self-test mode: one setup, fixed small batches, so the exact
  /// counts can be compared across two invocations cheaply.
  bool quick = false;
  std::string workdir = ".";
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Exact counts (compared bit-for-bit by the self-test) and facts.
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);

  void attempt(i64 n = 1) { attempted_ += n; }
  /// Count one failed operation; `why` is printed, never dropped.
  void fail(const std::string& why);
  /// A failure that is not an operation (a physics mismatch).
  void incorrect(const std::string& why);

  i64 attempted() const { return attempted_; }
  i64 failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

  /// Human-readable table, then the JSON result as the last stdout line.
  void print(const RunOptions& opt) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // JSON-encoded
  i64 attempted_ = 0;
  i64 failed_ = 0;
  bool correct_ = true;
  int printed_failures_ = 0;
};

// ---------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v);
/// num / den, or 0 when den is not positive (a layer not on the path).
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}
/// Linear-interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q);

/// The highest percentile of a fixed ladder (50, 90, 95, 99, 99.9) that
/// still has at least ten samples beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t n = 0;
};
Tail tail_percentile(const std::vector<double>& v);

// ---------------------------------------------------------------------
// Seeds: every input the workloads generate derives from the workload
// seed through this mix (splitmix64 over seed, stream and index).

u64 derive_seed(u64 seed, u64 stream, u64 index = 0);

// ---------------------------------------------------------------------
// Machine and build facts.

int nproc();
/// Total last-level cache in bytes (sum over distinct LLC instances), or
/// 0 when sysfs does not say.
i64 llc_total_bytes();
double peak_rss_mb();
const char* build_type();
bool ndebug_build();
/// Prints build facts and the NDEBUG warning; adds them to `r` as info.
void print_build_guard(Report& r);

// ---------------------------------------------------------------------
// The solver rig: one rank's Engine + Comm + MasSolver, built the way
// bench_support::run_experiment builds them (same EngineConfig recipe and
// cost-model scales), so counts and modeled time match what a job sees.

struct SolverSpec {
  simas::variants::CodeVersion version = simas::variants::CodeVersion::A;
  simas::grid::GridConfig grid;
  int nranks = 1;
  int threads_per_rank = 1;
  bool graph_replay = false;
  simas::bench_support::BoundaryConfig boundary;  ///< enabled = PFSS init
};

simas::par::EngineConfig rig_engine_config(const SolverSpec& spec, int rank);

struct Rig {
  std::unique_ptr<simas::par::Engine> engine;
  std::unique_ptr<simas::mpisim::Comm> comm;
  std::unique_ptr<simas::mhd::MasSolver> solver;
  simas::mhd::PfssResult pfss;
  double pfss_seconds = 0.0;
};

/// Build, initialize and (when the spec enables it) PFSS-initialize one
/// rank. Runs on the rank's thread inside World::run.
std::unique_ptr<Rig> build_rig(simas::mpisim::World& world, int rank,
                               const SolverSpec& spec);

/// Byte image of the state's persistent fields (what a checkpoint holds).
std::string state_bytes(const simas::mhd::State& st);

// ---------------------------------------------------------------------
// Solver runs: the untraced timed loop (end-to-end numbers) and the traced
// run (per-layer numbers), shared by solve, small_um and the ensemble's
// job-shape replica.

/// The solver stages of MasSolver::step, in call order. The traced run
/// times each one around its mhd/ops.hpp calls.
inline constexpr int kStages = 9;
inline constexpr const char* kStageNames[kStages] = {
    "ghosts",    "interp",     "cfl",       "advect",    "ct",
    "viscosity", "conduction", "radiation", "shell_diag"};

struct SolverPlan {
  SolverSpec spec;
  int setups = 1;            ///< timed set-ups (one warmup step each)
  int episode_steps = 100;   ///< restore the post-set-up state after this
  int checkpoint_every = 0;  ///< steps between checkpoint writes; 0 = none
  double seconds = 10.0;     ///< wall budget of the timed phase
  bool traced = false;
  int count_steps = 0;       ///< traced: steps of the exact-count pass
  int block_steps = 4;       ///< traced: steps per untraced/traced block
  bool parallel_eff = false; ///< traced: 1-thread vs full-width steps
  std::string workdir;
};

struct SolverRun {
  std::vector<double> setup_s;
  std::vector<double> step_s;  ///< untraced per-step host wall
  double timed_loop_s = 0.0;   ///< untraced steps + checkpoint writes
  i64 timed_steps = 0;
  /// Steps per second of each checkpoint interval, its write included.
  std::vector<double> chunk_rate;
  std::vector<double> ckpt_write_s, ckpt_read_s;
  double ckpt_bytes = 0.0;
  double peak_rss_mb = 0.0;
  double pfss_s = 0.0;
  double pfss_iters = 0.0;

  // Traced run, rank 0's view.
  std::vector<double> traced_step_s;
  std::vector<double> stage_s[kStages];
  std::vector<double> stage_cells[kStages];
  std::vector<double> span_residual;  ///< (wall - sum of stages) / wall
  std::vector<double> visc_iters, cond_iters, ops, launches, bytes,
      modeled_s, um_faults, um_migrations, um_bytes, halo_bytes;
  double loops_sum = 0.0, fused_sum = 0.0, pool_jobs_sum = 0.0,
         pool_inline_sum = 0.0;
  bool replica_ok = true;
  double parallel_eff = 0.0;

  i64 attempted = 0;
  std::vector<std::string> failures;
};

/// Runs `plan` on a World of spec.nranks ranks.
SolverRun run_solver(const SolverPlan& plan);

/// Every per-layer metric outside service.*: the traced run's mhd.*, par.*,
/// mpisim.* and trace.* numbers, plus the micro-probes, which run here at
/// `pool_width` threads under the plan's EngineConfig. gpusim.* and
/// par.small_um_ns_per_op come from `um`, the traced small_um
/// configuration, or read 0 when it is null.
void emit_layer_metrics(const SolverRun& run, const SolverPlan& plan,
                        int pool_width, const SolverRun* um, Report& r);

// ---------------------------------------------------------------------
// Micro-probes (each returns a median over repeated timed batches).

/// Engine::for_each over a 1-cell empty body under `cfg`, ns per call.
double probe_empty_op_ns(simas::par::EngineConfig cfg);
/// ThreadPool::run_blocks with 64 trivial blocks at `width`, ns per call.
double probe_pool_dispatch_ns(int width);
/// FlightRecorder::record, ns per call.
double probe_flight_record_ns();

struct TriadResult {
  double cells_per_s = 0.0;
  i64 array_bytes = 0;
  i64 llc_bytes = 0;
};
/// BabelStream-style triad through Engine::for_each1 at `width` threads.
TriadResult probe_triad(int width);

// ---------------------------------------------------------------------
// Workloads.

int run_solver_workload(const RunOptions& opt, Report& r);
int run_ensemble_workload(const RunOptions& opt, Report& r);

}  // namespace perfbench
