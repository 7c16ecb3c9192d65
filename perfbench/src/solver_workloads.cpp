// The solver workloads (solve, small_um) and the solver run both they and
// the ensemble's job-shape replica use.
//
// Untraced run: set-up (construction, initialize, PFSS, one warmup step)
// several times, then MasSolver::step() in a loop for the wall budget,
// with a checkpoint write every `checkpoint_every` steps inside the timed
// loop. Each episode of `episode_steps` steps starts from the post-set-up
// state (restored from its checkpoint, untimed), so every run replays the
// same step sequence and no run drifts into a regime the others never see.
//
// Traced run: the same loop, but half the blocks of steps call a replica
// of MasSolver::step() built from the public mhd/ops.hpp stage functions,
// with a steady_clock span around each stage. Before timing, a replica
// check runs one real step and one replica step from the same state and
// demands equal engine.loops and byte-equal results; an exact-count pass
// reads the engine's counters around each step.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <exception>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mhd/checkpoint.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/ranges.hpp"

namespace perfbench {

namespace {

namespace mhd = simas::mhd;
namespace par = simas::par;
using simas::real;

/// Span-sum tolerance: the timed stage calls of a traced step must cover
/// that step's host wall to within this fraction.
constexpr double kSpanTolerance = 0.02;
/// Constrained transport keeps div B at its post-PFSS level to round-off;
/// a step fails when max |div B| grows past this factor of that level.
constexpr double kDivbGrowth = 1.01;
constexpr double kDivbFloor = 1.0e-12;

// ---------------------------------------------------------------------
// The replica step. Mirrors MasSolver::step() (mhd/solver.cpp) call for
// call; `probe.begin(s)` / `probe.end(s)` bracket stage s.

struct NullProbe {
  void begin(int) {}
  void end(int) {}
};

struct TimingProbe {
  Clock::time_point b[kStages], e[kStages];
  void begin(int s) { b[s] = Clock::now(); }
  void end(int s) { e[s] = Clock::now(); }
};

double kernel_cells(par::Engine& eng) {
  const simas::telemetry::MetricsSnapshot snap = eng.metrics_snapshot();
  const simas::telemetry::MetricSample* m = snap.find("engine.kernel_cells");
  return m != nullptr ? m->value : 0.0;
}

struct CountProbe {
  par::Engine* eng = nullptr;
  double b[kStages] = {}, e[kStages] = {};
  void begin(int s) { b[s] = kernel_cells(*eng); }
  void end(int s) { e[s] = kernel_cells(*eng); }
};

template <class Probe>
mhd::StepStats replica_step(mhd::MasSolver& solver, std::vector<real>& shell,
                            Probe& probe) {
  mhd::MhdContext& c = solver.context();
  par::Engine& eng = solver.engine();
  mhd::StepStats stats;
  SIMAS_RANGE(eng, "step");

  probe.begin(0);
  const int pending_center = mhd::begin_exchange_center_ghosts(c);
  mhd::apply_b_ghosts(c);
  probe.end(0);
  {
    SIMAS_RANGE(eng, "interp");
    probe.begin(1);
    mhd::compute_center_b(c);
    mhd::compute_edge_current(c);
    mhd::average_j_to_center(c);
    probe.end(1);
  }
  {
    SIMAS_RANGE(eng, "cfl");
    probe.begin(2);
    stats.dt = mhd::cfl_timestep(c);
    probe.end(2);
  }
  {
    SIMAS_RANGE(eng, "advance");
    probe.begin(3);
    mhd::advect_and_forces(c, stats.dt, pending_center);
    mhd::apply_center_bcs(c);
    probe.end(3);
    probe.begin(4);
    mhd::ct_update(c, stats.dt);
    probe.end(4);
  }
  {
    SIMAS_RANGE(eng, "viscosity");
    probe.begin(5);
    stats.viscosity_iters = mhd::viscous_update(c, stats.dt);
    probe.end(5);
  }
  {
    SIMAS_RANGE(eng, "conduction");
    probe.begin(6);
    stats.conduction_iters = mhd::conduction_update(c, stats.dt);
    probe.end(6);
  }
  {
    SIMAS_RANGE(eng, "radiation");
    probe.begin(7);
    mhd::radiation_heating(c, stats.dt);
    probe.end(7);
  }
  // SolverConfig::shell_diagnostics defaults to on, as in every rig.
  probe.begin(8);
  mhd::shell_mean_temperature(c, shell);
  probe.end(8);
  return stats;
}

// ---------------------------------------------------------------------
// Exact counters around one step.

struct Counters {
  double loops = 0, launches = 0, fused = 0, bytes = 0, pool_jobs = 0,
         pool_inline = 0, um_faults = 0, um_migrations = 0, um_bytes = 0,
         halo_bytes = 0, modeled_s = 0;
  u64 flight_head = 0;
};

Counters read_counters(par::Engine& eng) {
  const simas::telemetry::MetricsSnapshot s = eng.metrics_snapshot();
  const auto c = [&](const char* name) {
    return static_cast<double>(s.counter(name));
  };
  Counters k;
  k.loops = c("engine.loops");
  k.launches = c("engine.launches");
  k.fused = c("engine.fused_launches");
  k.bytes = c("engine.bytes_touched");
  k.pool_jobs = c("pool.jobs");
  k.pool_inline = c("pool.inline_kernels");
  k.um_faults = c("um.faults");
  k.um_migrations = c("um.migrations");
  k.um_bytes = c("mem.bytes_migrated");
  k.halo_bytes = c("halo.bytes_sent_r") + c("halo.bytes_sent_phi");
  k.modeled_s = s.gauge("time.modeled_seconds");
  k.flight_head = simas::telemetry::FlightRecorder::process().recorded();
  return k;
}

/// Flight-recorder events `rank` recorded with sequence numbers in
/// [from, to): the ops that went through the per-op pipeline. Exact for
/// one rank; with more ranks the retained ring is filtered by rank.
double flight_events(u64 from, u64 to, int rank, int nranks) {
  if (nranks == 1) return static_cast<double>(to - from);
  auto& fr = simas::telemetry::FlightRecorder::process();
  if (to - from >= fr.kCapacity) return -1.0;
  double n = 0.0;
  for (const simas::telemetry::FlightEvent& e : fr.snapshot())
    if (e.seq >= from && e.seq < to && e.rank == rank) n += 1.0;
  return n;
}

bool finite(const mhd::GlobalDiagnostics& d) {
  return std::isfinite(d.total_mass) && std::isfinite(d.kinetic_energy) &&
         std::isfinite(d.magnetic_energy) && std::isfinite(d.thermal_energy) &&
         std::isfinite(d.max_div_b) && std::isfinite(d.max_speed);
}

// ---------------------------------------------------------------------
// One rank of a solver run.

class RankRun {
 public:
  RankRun(simas::mpisim::World& world, int rank, const SolverPlan& plan,
          SolverRun& out)
      : world_(world),
        rank_(rank),
        lead_(rank == 0),
        plan_(plan),
        out_(out),
        restore_path_(plan.workdir + "/restore_r" + std::to_string(rank) +
                      ".bin"),
        ckpt_path_(plan.workdir + "/ckpt_r" + std::to_string(rank) + ".bin"),
        verify_engine_(verify_config()) {}

  void run() {
    setup();
    if (plan_.traced) {
      replica_check();
      count_pass();
      timing_phase();
      if (plan_.parallel_eff) parallel_efficiency();
    } else {
      timed_loop();
      if (lead_) out_.peak_rss_mb = peak_rss_mb();
    }
    std::filesystem::remove(restore_path_);
    std::filesystem::remove(ckpt_path_);
  }

 private:
  static par::EngineConfig verify_config() {
    par::EngineConfig cfg;
    cfg.memory = simas::gpusim::MemoryMode::HostOnly;
    cfg.gpu = false;
    cfg.host_threads = 1;
    return cfg;
  }

  mhd::MasSolver& solver() { return *rig_->solver; }

  void fail(const std::string& why) {
    if (lead_) out_.failures.push_back(why);
  }

  void setup() {
    for (int k = 0; k < std::max(1, plan_.setups); ++k) {
      rig_.reset();
      const Clock::time_point t0 = Clock::now();
      rig_ = build_rig(world_, rank_, plan_.spec);
      solver().step();  // warmup, part of set-up
      if (lead_) {
        out_.setup_s.push_back(seconds_between(t0, Clock::now()));
        ++out_.attempted;
      }
      if (plan_.spec.boundary.enabled && !rig_->pfss.converged)
        fail("set-up " + std::to_string(k) + ": PFSS did not converge in " +
             std::to_string(rig_->pfss.iterations) + " iterations");
    }
    if (lead_) {
      out_.pfss_s = rig_->pfss_seconds;
      out_.pfss_iters = rig_->pfss.iterations;
    }
    const double divb0 = solver().diagnostics().max_div_b;
    divb_limit_ = std::max(kDivbFloor, kDivbGrowth * divb0);
    mhd::save_checkpoint(restore_path_, solver().state(), 0, 0.0);
  }

  /// Per-step correctness: PCG converged, diagnostics finite, div B held.
  /// Returns the diagnostics for the episode digest.
  mhd::GlobalDiagnostics check_step(const mhd::StepStats& st) {
    const mhd::GlobalDiagnostics d = solver().diagnostics();
    ++steps_;
    ++since_restore_;
    sim_time_ += st.dt;
    if (lead_) ++out_.attempted;
    const std::string at = "step " + std::to_string(steps_) + ": ";
    if (st.viscosity_iters < 0 || st.conduction_iters < 0)
      fail(at + "PCG did not converge (viscosity " +
           std::to_string(st.viscosity_iters) + ", conduction " +
           std::to_string(st.conduction_iters) + ")");
    else if (!finite(d))
      fail(at + "non-finite global diagnostics");
    else if (!(d.max_div_b <= divb_limit_))
      fail(at + "max |div B| " + std::to_string(d.max_div_b) +
           " above the round-off bound " + std::to_string(divb_limit_));
    return d;
  }

  /// Checkpoint cadence and episode restarts after a checked step.
  /// Returns the timed checkpoint-write seconds (0 when none was due).
  double after_step(const mhd::GlobalDiagnostics& d) {
    double write_s = 0.0;
    if (plan_.checkpoint_every > 0 &&
        since_restore_ % plan_.checkpoint_every == 0)
      write_s = checkpoint();
    if (since_restore_ == plan_.episode_steps) {
      // Every episode replays the same steps, so its final diagnostics
      // must repeat bit for bit.
      if (!have_digest_) {
        digest_ = d;
        have_digest_ = true;
      } else if (std::memcmp(&digest_, &d, sizeof(d)) != 0) {
        fail("episode ending at step " + std::to_string(steps_) +
             " differs from the first episode (nondeterminism)");
      }
      mhd::load_checkpoint(restore_path_, solver().state());
      since_restore_ = 0;
    }
    return write_s;
  }

  /// Write a checkpoint (timed), then load it into a fresh State and
  /// demand byte equality (untimed).
  double checkpoint() {
    const Clock::time_point t0 = Clock::now();
    mhd::save_checkpoint(ckpt_path_, solver().state(), steps_, sim_time_);
    const double write_s = seconds_between(t0, Clock::now());
    std::string problem = "did not load back byte-equal";
    double read_s = 0.0;
    try {
      mhd::State fresh(verify_engine_, solver().local_grid());
      const Clock::time_point t1 = Clock::now();
      mhd::load_checkpoint(ckpt_path_, fresh);
      read_s = seconds_between(t1, Clock::now());
      if (state_bytes(fresh) == state_bytes(solver().state())) problem.clear();
    } catch (const std::exception& e) {
      problem = std::string("failed to load: ") + e.what();
    }
    if (lead_) {
      ++out_.attempted;
      out_.ckpt_write_s.push_back(write_s);
      out_.ckpt_read_s.push_back(read_s);
      out_.ckpt_bytes =
          static_cast<double>(std::filesystem::file_size(ckpt_path_));
    }
    if (!problem.empty())
      fail("checkpoint at step " + std::to_string(steps_) + " " + problem);
    return write_s;
  }

  /// The untraced loop. Each checkpoint interval, its write included, is
  /// one chunk of time to solution; the chunk rates feed the median rate.
  void timed_loop() {
    const Clock::time_point start = Clock::now();
    double chunk_s = 0.0;
    int chunk_steps = 0;
    while (seconds_between(start, Clock::now()) < plan_.seconds) {
      const Clock::time_point t0 = Clock::now();
      const mhd::StepStats st = solver().step();
      const double dt = seconds_between(t0, Clock::now());
      out_.step_s.push_back(dt);
      ++out_.timed_steps;
      ++chunk_steps;
      const std::size_t writes = out_.ckpt_write_s.size();
      chunk_s += dt + after_step(check_step(st));
      if (out_.ckpt_write_s.size() != writes) {
        out_.chunk_rate.push_back(chunk_steps / chunk_s);
        out_.timed_loop_s += chunk_s;
        chunk_s = 0.0;
        chunk_steps = 0;
      }
    }
    out_.timed_loop_s += chunk_s;
  }

  void replica_check() {
    par::Engine& eng = solver().engine();
    std::stringstream before;
    mhd::write_checkpoint(before, solver().state(), 0, 0.0);
    const double l0 = static_cast<double>(eng.counters().loops_executed);
    const mhd::StepStats real_st = solver().step();
    const double l1 = static_cast<double>(eng.counters().loops_executed);
    const std::string after_real = state_bytes(solver().state());
    before.seekg(0);
    mhd::read_checkpoint(before, solver().state());
    NullProbe none;
    const double l2 = static_cast<double>(eng.counters().loops_executed);
    const mhd::StepStats rep_st = replica_step(solver(), shell_, none);
    const double l3 = static_cast<double>(eng.counters().loops_executed);
    const bool ok = l1 - l0 == l3 - l2 &&
                    state_bytes(solver().state()) == after_real &&
                    real_st.dt == rep_st.dt &&
                    real_st.viscosity_iters == rep_st.viscosity_iters &&
                    real_st.conduction_iters == rep_st.conduction_iters;
    const bool all_ok = rig_->comm->allreduce_max(ok ? 0.0 : 1.0) == 0.0;
    if (lead_) {
      out_.replica_ok = all_ok;
      std::printf("replica check: engine.loops per step %.0f (step) vs %.0f "
                  "(replica), state %s\n",
                  l1 - l0, l3 - l2, ok ? "byte-equal" : "DIFFERS");
    }
    after_step(check_step(rep_st));
  }

  void count_pass() {
    par::Engine& eng = solver().engine();
    for (int s = 0; s < plan_.count_steps; ++s) {
      CountProbe probe;
      probe.eng = &eng;
      const Counters c0 = read_counters(eng);
      const mhd::StepStats st = replica_step(solver(), shell_, probe);
      const Counters c1 = read_counters(eng);
      if (lead_) {
        for (int k = 0; k < kStages; ++k)
          out_.stage_cells[k].push_back(probe.e[k] - probe.b[k]);
        out_.visc_iters.push_back(st.viscosity_iters);
        out_.cond_iters.push_back(st.conduction_iters);
        out_.ops.push_back(flight_events(c0.flight_head, c1.flight_head,
                                         rank_, plan_.spec.nranks));
        out_.launches.push_back(c1.launches - c0.launches);
        out_.bytes.push_back(c1.bytes - c0.bytes);
        out_.modeled_s.push_back(c1.modeled_s - c0.modeled_s);
        out_.um_faults.push_back(c1.um_faults - c0.um_faults);
        out_.um_migrations.push_back(c1.um_migrations - c0.um_migrations);
        out_.um_bytes.push_back(c1.um_bytes - c0.um_bytes);
        out_.halo_bytes.push_back(c1.halo_bytes - c0.halo_bytes);
        out_.loops_sum += c1.loops - c0.loops;
        out_.fused_sum += c1.fused - c0.fused;
        out_.pool_jobs_sum += c1.pool_jobs - c0.pool_jobs;
        out_.pool_inline_sum += c1.pool_inline - c0.pool_inline;
      }
      after_step(check_step(st));
    }
  }

  /// Alternating blocks of untraced MasSolver::step() and traced replica
  /// steps, until the wall budget is spent (at least one block of each).
  void timing_phase() {
    const Clock::time_point start = Clock::now();
    for (int block = 0;; ++block) {
      const bool over = seconds_between(start, Clock::now()) >= plan_.seconds;
      const bool stop =
          block >= 2 &&
          (plan_.spec.nranks == 1
               ? over
               : rig_->comm->allreduce_max(over ? 1.0 : 0.0) > 0.0);
      if (stop) break;
      const bool traced = block % 2 == 1;
      for (int s = 0; s < plan_.block_steps; ++s) {
        mhd::StepStats st;
        const Clock::time_point t0 = Clock::now();
        if (traced) {
          TimingProbe probe;
          st = replica_step(solver(), shell_, probe);
          const double wall = seconds_between(t0, Clock::now());
          if (lead_) {
            double spans = 0.0;
            for (int k = 0; k < kStages; ++k) {
              const double d = seconds_between(probe.b[k], probe.e[k]);
              out_.stage_s[k].push_back(d);
              spans += d;
            }
            out_.traced_step_s.push_back(wall);
            out_.span_residual.push_back((wall - spans) / wall);
          }
        } else {
          st = solver().step();
          if (lead_) out_.step_s.push_back(seconds_between(t0, Clock::now()));
        }
        after_step(check_step(st));
      }
    }
  }

  /// The same steps at the full width and at one thread: both start from
  /// the post-set-up checkpoint. Efficiency = speed-up / width.
  void parallel_efficiency() {
    constexpr int kSteps = 6;
    const auto time_steps = [](mhd::MasSolver& s) {
      std::vector<double> walls;
      for (int i = 0; i < kSteps; ++i) {
        const Clock::time_point t0 = Clock::now();
        s.step();
        walls.push_back(seconds_between(t0, Clock::now()));
      }
      return median(walls);
    };
    mhd::load_checkpoint(restore_path_, solver().state());
    const double wide = time_steps(solver());
    SolverSpec one = plan_.spec;
    one.threads_per_rank = 1;
    one.boundary.enabled = false;  // the restore supplies the PFSS field
    const std::unique_ptr<Rig> narrow = build_rig(world_, rank_, one);
    mhd::load_checkpoint(restore_path_, narrow->solver->state());
    const double single = time_steps(*narrow->solver);
    if (lead_)
      out_.parallel_eff =
          single / (wide * static_cast<double>(plan_.spec.threads_per_rank));
  }

  simas::mpisim::World& world_;
  const int rank_;
  const bool lead_;
  const SolverPlan& plan_;
  SolverRun& out_;
  const std::string restore_path_, ckpt_path_;
  par::Engine verify_engine_;
  std::unique_ptr<Rig> rig_;
  std::vector<real> shell_;
  double divb_limit_ = 0.0;
  i64 steps_ = 0;
  int since_restore_ = 0;
  double sim_time_ = 0.0;
  mhd::GlobalDiagnostics digest_;
  bool have_digest_ = false;
};

}  // namespace

SolverRun run_solver(const SolverPlan& plan) {
  SolverRun out;
  std::filesystem::create_directories(plan.workdir);
  simas::mpisim::World world(plan.spec.nranks);
  world.run([&](int rank) { RankRun(world, rank, plan, out).run(); });
  return out;
}

void emit_layer_metrics(const SolverRun& run, const SolverPlan& plan,
                        int pool_width, const SolverRun* um, Report& r) {
  const TriadResult triad = probe_triad(pool_width);
  std::printf("triad: %.3f Gcells/s at %d threads, arrays %.0f MiB each, "
              "LLC %.0f MiB total (%.2fx)\n",
              triad.cells_per_s * 1e-9, pool_width,
              static_cast<double>(triad.array_bytes) / (1 << 20),
              static_cast<double>(triad.llc_bytes) / (1 << 20),
              triad.llc_bytes > 0 ? static_cast<double>(triad.array_bytes) /
                                        static_cast<double>(triad.llc_bytes)
                                  : 0.0);
  r.info("triad_array_bytes", static_cast<double>(triad.array_bytes));
  r.info("llc_bytes", static_cast<double>(triad.llc_bytes));

  for (int k = 0; k < kStages; ++k)
    r.metric(std::string("mhd.") + kStageNames[k] + "_ms",
             median(run.stage_s[k]) * 1e3, "ms");
  r.metric("mhd.viscosity_iters", median(run.visc_iters), "count");
  r.metric("mhd.conduction_iters", median(run.cond_iters), "count");
  for (const int k : {3, 5, 6}) {  // advect, viscosity, conduction
    const double cells_per_s =
        ratio(median(run.stage_cells[k]), median(run.stage_s[k]));
    r.metric(std::string("mhd.") + kStageNames[k] + "_triad_frac",
             ratio(cells_per_s, triad.cells_per_s), "ratio");
  }
  r.metric("mhd.pfss_s", run.pfss_s, "s");
  r.metric("mhd.pfss_iters", run.pfss_iters, "count");
  r.metric("mhd.checkpoint_write_ms", median(run.ckpt_write_s) * 1e3, "ms");
  r.metric("mhd.checkpoint_read_ms", median(run.ckpt_read_s) * 1e3, "ms");
  r.metric("mhd.checkpoint_mb", run.ckpt_bytes / (1 << 20), "MB");

  const double ops = median(run.ops);
  r.metric("par.ops_per_step", ops, "count");
  r.metric("par.launches_per_step", median(run.launches), "count");
  r.metric("par.fused_frac", ratio(run.fused_sum, run.loops_sum), "ratio");
  r.metric("par.bytes_per_step", median(run.bytes), "B");
  r.metric("par.empty_op_ns",
           probe_empty_op_ns(rig_engine_config(plan.spec, 0)), "ns");
  r.metric("par.host_ns_per_op", ratio(median(run.step_s) * 1e9, ops), "ns");
  r.metric("par.pool_dispatch_ns", probe_pool_dispatch_ns(pool_width), "ns");
  r.metric("par.inline_frac",
           ratio(run.pool_inline_sum, run.pool_inline_sum + run.pool_jobs_sum),
           "ratio");
  r.metric("par.parallel_eff", run.parallel_eff, "ratio");
  r.metric("par.triad_cells_per_s", triad.cells_per_s, "1/s");
  r.metric("par.modeled_s_per_step", median(run.modeled_s), "s");
  const SolverRun none;
  const SolverRun& u = um != nullptr ? *um : none;
  r.metric("gpusim.um_faults_per_step", median(u.um_faults), "count");
  r.metric("gpusim.um_migrations_per_step", median(u.um_migrations),
           "count");
  r.metric("gpusim.um_bytes_migrated_per_step", median(u.um_bytes), "B");
  r.metric("par.small_um_ns_per_op",
           ratio(median(u.step_s) * 1e9, median(u.ops)), "ns");
  r.metric("mpisim.halo_bytes_per_step", median(run.halo_bytes), "B");
  r.metric("telemetry.flight_record_ns", probe_flight_record_ns(), "ns");

  const double untraced = median(run.step_s);
  r.metric("trace.overhead_frac",
           ratio(median(run.traced_step_s) - untraced, untraced), "ratio");
  r.metric("trace.replica_ok", run.replica_ok ? 1.0 : 0.0, "count");
  const double residual = median(run.span_residual);
  r.metric("trace.span_residual_frac", residual, "ratio");
  if (!(std::fabs(residual) <= kSpanTolerance))
    std::printf("WARNING: traced stage spans miss %.2f%% of the step wall "
                "(tolerance %.0f%%); mhd.* stage times are incomplete\n",
                100.0 * residual, 100.0 * kSpanTolerance);
  if (!run.replica_ok)
    std::printf("WARNING: the traced replica does not match "
                "MasSolver::step(); mhd.* stage times are stale\n");

  // Exact counts the self-test compares bit for bit across invocations.
  r.info("exact.ops_per_step", ops);
  r.info("exact.modeled_s_per_step", median(run.modeled_s));
  r.info("exact.viscosity_iters", median(run.visc_iters));
  r.info("exact.conduction_iters", median(run.cond_iters));
  r.info("exact.halo_bytes_per_step", median(run.halo_bytes));
  r.info("exact.pfss_iters", run.pfss_iters);
  r.info("exact.um_faults_per_step", median(u.um_faults));
}

namespace {

SolverPlan solver_plan(const RunOptions& opt, const std::string& workload) {
  SolverPlan plan;
  plan.seconds = opt.seconds;
  plan.traced = opt.trace;
  plan.workdir = opt.workdir;
  plan.spec.boundary.enabled = true;
  if (workload == "solve") {
    // Kernel-bound: the bench grid on every host thread, manual memory.
    plan.spec.version = simas::variants::CodeVersion::A;
    plan.spec.grid = simas::bench_support::bench_grid();
    plan.spec.threads_per_rank = nproc();
    plan.spec.boundary.seed = derive_seed(opt.seed, 1);
    plan.setups = opt.quick ? 1 : 5;
    plan.episode_steps = 120;
    plan.checkpoint_every = 20;
    plan.count_steps = 6;
    plan.block_steps = 4;
    plan.parallel_eff = true;
  } else {
    // Pipeline-bound: an 8^3 per-rank subdomain, unified memory, 1 thread.
    plan.spec.version = simas::variants::CodeVersion::D2XU;
    plan.spec.grid = simas::bench_support::bench_grid();
    plan.spec.grid.nr = 8;
    plan.spec.grid.nt = 8;
    plan.spec.grid.np = 8;
    plan.spec.threads_per_rank = 1;
    plan.spec.boundary.seed = derive_seed(opt.seed, 2);
    plan.setups = opt.quick ? 1 : 15;
    plan.episode_steps = 1000;
    plan.checkpoint_every = 200;
    plan.count_steps = 40;
    plan.block_steps = 20;
  }
  return plan;
}

}  // namespace

int run_solver_workload(const RunOptions& opt, Report& r) {
  const SolverPlan plan = solver_plan(opt, opt.workload);
  std::printf("%s: version %s, grid %lldx%lldx%lld, %d rank, %d threads, "
              "boundary seed %llu\n",
              opt.workload.c_str(),
              simas::variants::version_tag(plan.spec.version),
              static_cast<long long>(plan.spec.grid.nr),
              static_cast<long long>(plan.spec.grid.nt),
              static_cast<long long>(plan.spec.grid.np), plan.spec.nranks,
              plan.spec.threads_per_rank,
              static_cast<unsigned long long>(plan.spec.boundary.seed));
  const SolverRun run = run_solver(plan);
  r.attempt(run.attempted);
  for (const std::string& why : run.failures) r.fail(why);

  if (opt.trace) {
    // The UM page engine and the pipeline-bound regime live in the small_um
    // configuration. solve's traced run includes a short traced run of it,
    // so the layers stay measured by a workload whose end-to-end numbers
    // are steady on a noisy host (see perfbench/rationale.json).
    SolverRun small_run;
    const SolverRun* um = &run;
    if (opt.workload == "solve") {
      SolverPlan small = solver_plan(opt, "small_um");
      small.setups = 1;
      small.seconds = std::min(3.0, opt.seconds);
      small_run = run_solver(small);
      r.attempt(small_run.attempted);
      for (const std::string& why : small_run.failures) r.fail(why);
      um = &small_run;
    }
    emit_layer_metrics(run, plan, plan.spec.threads_per_rank, um, r);
    for (const char* name :
         {"service.queue_wait_p50_s", "service.submit_us",
          "service.job_overhead_s", "service.hit_job_s",
          "service.fresh_job_s", "service.field_cache_hit_ratio",
          "service.graph_cache_hit_ratio"})
      r.metric(name, 0.0,
               std::strstr(name, "ratio") != nullptr ? "ratio"
               : std::strstr(name, "_us") != nullptr ? "us"
                                                     : "s");
    return 0;
  }

  const Tail tail = tail_percentile(run.step_s);
  r.metric("setup_s", median(run.setup_s), "s");
  r.metric("throughput_per_s", median(run.chunk_rate), "1/s");
  r.metric("latency_p50_ms", median(run.step_s) * 1e3, "ms");
  r.info("latency_tail_ms", tail.value * 1e3);
  r.metric("peak_rss_mb", run.peak_rss_mb, "MB");
  std::printf("latency tail: p%g of %zu steps; %lld steps, %zu checkpoints "
              "in %.3f s of timed loop (%.2f steps/s overall, %zu chunks)\n",
              tail.percentile, tail.n,
              static_cast<long long>(run.timed_steps),
              run.ckpt_write_s.size(), run.timed_loop_s,
              ratio(static_cast<double>(run.timed_steps), run.timed_loop_s),
              run.chunk_rate.size());
  r.info("latency_tail_percentile", tail.percentile);
  r.info("latency_tail_n", static_cast<double>(tail.n));
  r.info("checkpoints", static_cast<double>(run.ckpt_write_s.size()));
  return 0;
}

}  // namespace perfbench
