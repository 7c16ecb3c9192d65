#include "run/run_experiment.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "bench_support/host_threads.hpp"
#include "mpisim/comm.hpp"
#include "par/graph_cache.hpp"
#include "par/sim_context.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/rng.hpp"

namespace simas::run {

namespace {

inline u64 fnv1a(u64 h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <class T>
inline u64 fnv1a_value(u64 h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a(h, &v, sizeof(v));
}

}  // namespace

u64 BoundaryConfig::hash() const {
  u64 h = 14695981039346656037ull;
  h = fnv1a_value(h, enabled);
  h = fnv1a_value(h, seed);
  h = fnv1a_value(h, modes);
  h = fnv1a_value(h, amplitude);
  h = fnv1a_value(h, b0);
  h = fnv1a_value(h, tol);
  h = fnv1a_value(h, maxit);
  return h;
}

mhd::SurfaceBrFn boundary_surface_br(const BoundaryConfig& b) {
  struct Mode {
    double amp, lt, lp, phase;
  };
  // Draw the harmonic coefficients once, here, so the returned closure is
  // a pure function of (θ, φ): calling it from any rank, any thread, in
  // any order gives identical values for identical configs.
  auto modes = std::make_shared<std::vector<Mode>>();
  Rng rng(b.seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  modes->reserve(static_cast<std::size_t>(std::max(0, b.modes)));
  for (int m = 0; m < b.modes; ++m) {
    Mode md;
    md.amp = b.amplitude * b.b0 * (0.5 + rng.uniform());
    md.lt = 1.0 + static_cast<double>(m % 3);
    md.lp = 1.0 + static_cast<double>(m % 4);
    md.phase = 2.0 * 3.14159265358979323846 * rng.uniform();
    modes->push_back(md);
  }
  const double b0 = b.b0;
  return [modes, b0](real theta, real phi) -> real {
    double v = 2.0 * b0 * std::cos(static_cast<double>(theta));
    for (const Mode& m : *modes)
      v += m.amp * std::sin(m.lt * static_cast<double>(theta)) *
           std::cos(m.lp * static_cast<double>(phi) + m.phase);
    return static_cast<real>(v);
  };
}

std::string ExperimentConfig::shape_key() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "v%d_g%lldx%lldx%lld_s%.4f_n%d_h%d_u%d_b%016llx_d%s_p%s",
                static_cast<int>(version), static_cast<long long>(grid.nr),
                static_cast<long long>(grid.nt), static_cast<long long>(grid.np),
                grid.r_stretch, nranks, overlap_halo ? 1 : 0, um_hints ? 1 : 0,
                static_cast<unsigned long long>(
                    boundary.enabled ? boundary.hash() : 0ull),
                device.name.c_str(), par::personality_tag(personality));
  return buf;
}

namespace {

/// The six persistent arrays PFSS initialization defines, paired with
/// their cached copies; scratch (RHS, potential, PCG workspaces) is
/// excluded because every step writes it before reading. `RankFields` is
/// const-qualified for injection, which only reads the cache.
template <class RankFields>
auto boundary_slots(mhd::State& st, RankFields& rf) {
  using Data = std::remove_reference_t<decltype((rf.br))>;
  struct Slot {
    field::Field* field;
    Data* data;
  };
  return std::array<Slot, 6>{{{&st.br, &rf.br},
                              {&st.bt, &rf.bt},
                              {&st.bp, &rf.bp},
                              {&st.bcr, &rf.bcr},
                              {&st.bct, &rf.bct},
                              {&st.bcp, &rf.bcp}}};
}

void extract_boundary_fields(mhd::MasSolver& solver,
                             BoundaryFields::RankFields& rf) {
  for (const auto s : boundary_slots(solver.state(), rf)) {
    s.field->update_host();
    s.field->note_host_read();
    const field::Array3& a = s.field->a();
    s.data->assign(a.data(), a.data() + a.size());
  }
}

void inject_boundary_fields(mhd::MasSolver& solver,
                            const BoundaryFields& bf, int rank) {
  const BoundaryFields::RankFields& rf =
      bf.ranks.at(static_cast<std::size_t>(rank));
  for (const auto [field, data] : boundary_slots(solver.state(), rf)) {
    field::Array3& a = field->a();
    if (static_cast<idx>(data->size()) != a.size())
      throw std::runtime_error(
          "inject_boundary_fields: cached field '" + field->name() +
          "' size mismatch (cache keyed on wrong grid/decomposition?)");
    std::memcpy(a.data(), data->data(), data->size() * sizeof(real));
    field->note_host_write();
    field->update_device();
  }
}

/// What every rank's phases read: the config plus the run-wide values
/// derived from it once, before the ranks start.
struct RunPlan {
  const ExperimentConfig& cfg;
  const par::SimContext& ctx;
  double vol_scale = 0.0;
  double surf_scale = 0.0;
  int rank_threads = 1;
  std::string shape;
};

par::EngineConfig rank_engine_config(const RunPlan& plan, int rank) {
  const ExperimentConfig& cfg = plan.cfg;
  par::EngineConfig ecfg = variants::engine_config(
      cfg.version, cfg.device, cfg.personality, plan.rank_threads);
  ecfg.graph_replay = cfg.graph_replay;
  ecfg.capture_stream = cfg.capture_stream;
  ecfg.overlap_halo = cfg.overlap_halo;
  ecfg.um_hints = cfg.um_hints;
  ecfg.ctx = &plan.ctx;
  ecfg.graph_cache = cfg.graph_cache;
  ecfg.trace_id = cfg.trace.trace_id;
  ecfg.flight_rank = rank;
  if (cfg.graph_cache != nullptr)
    ecfg.graph_cache_scope = plan.shape + "/r" + std::to_string(rank);
  return ecfg;
}

/// One rank's run: its engine, communicator and solver, driven through
/// the phases in order. The constructor is the construct phase.
class RankRun {
 public:
  RankRun(const RunPlan& plan, mpisim::World& world, int rank)
      : cfg_(plan.cfg),
        rank_(rank),
        engine_(rank_engine_config(plan, rank)),
        comm_(world, rank, engine_) {
    // Scale the cost model first: the solver's constructor already
    // charges the state's device data.
    engine_.cost().set_scales(plan.vol_scale, plan.surf_scale);
    engine_.cost().set_working_set_shrink(static_cast<double>(cfg_.nranks));
    solver_.emplace(engine_, comm_, mhd::SolverConfig{cfg_.grid, cfg_.phys});
  }

  void initialize() { solver_->initialize(); }

  /// PFSS boundary: solve, or inject the cached solution; then extract it
  /// for the caller's cache.
  void boundary() {
    if (!cfg_.boundary.enabled) return;
    if (cfg_.boundary_fields != nullptr) {
      // Cache hit: the solved field's raw bytes replace the PCG solve.
      inject_boundary_fields(*solver_, *cfg_.boundary_fields, rank_);
      pfss_ = cfg_.boundary_fields->info;
    } else {
      pfss_ = mhd::pfss_initialize(solver_->context(),
                                   boundary_surface_br(cfg_.boundary),
                                   static_cast<real>(cfg_.boundary.tol),
                                   cfg_.boundary.maxit);
    }
    // Extract *now*, before any step evolves the field: the cache holds
    // the PFSS solution itself. Each rank writes only its own vector slot
    // (the container was sized before world.run), so no lock.
    if (cfg_.boundary_out != nullptr)
      extract_boundary_fields(
          *solver_, cfg_.boundary_out->ranks[static_cast<std::size_t>(rank_)]);
  }

  void warmup() {
    for (int s = 0; s < cfg_.warmup_steps; ++s) solver_->step();
  }

  /// The measured steps, timed per step from ledger marks on either side.
  void measure() {
    const gpusim::ClockLedger& ledger = engine_.ledger();
    t0_ = ledger.now();
    const double mpi0 = ledger.mpi_time();
    const double hidden0 = ledger.hidden_mpi_time();
    const double gap0 = ledger.total(gpusim::TimeCategory::LaunchGap);
    if (cfg_.capture_trace) engine_.tracer().enable(true);
    for (int s = 0; s < cfg_.measure_steps; ++s)
      timing_.last_step = solver_->step();
    if (cfg_.capture_trace) engine_.tracer().enable(false);

    const auto per_step = [&](double now, double mark) {
      return (now - mark) / cfg_.measure_steps;
    };
    timing_.seconds_per_step = per_step(ledger.now(), t0_);
    timing_.mpi_seconds_per_step = per_step(ledger.mpi_time(), mpi0);
    timing_.launch_gap_seconds_per_step =
        per_step(ledger.total(gpusim::TimeCategory::LaunchGap), gap0);
    timing_.hidden_mpi_seconds_per_step =
        per_step(ledger.hidden_mpi_time(), hidden0);
  }

  /// Snapshot the rank's metrics, span, diagnostics and profile, and
  /// store them in its slots of `result`.
  void collect(ExperimentResult& result, std::mutex& result_mutex) {
    const gpusim::ClockLedger& ledger = engine_.ledger();
    const auto slot = static_cast<std::size_t>(rank_);
    timing_.metrics = engine_.metrics_snapshot();

    // Rank span: the full-run ledger category totals. Every advance lands
    // in exactly one category, so the phases sum to the modeled total by
    // construction (the span-tree invariant).
    telemetry::RankSpan span;
    span.rank = rank_;
    span.ctx = cfg_.trace.child(static_cast<u64>(rank_) + 1);
    span.phases.compute_seconds = ledger.total(gpusim::TimeCategory::Compute);
    span.phases.launch_gap_seconds =
        ledger.total(gpusim::TimeCategory::LaunchGap);
    span.phases.data_motion_seconds =
        ledger.total(gpusim::TimeCategory::DataMotion);
    span.phases.mpi_exposed_seconds = ledger.total(gpusim::TimeCategory::Mpi);
    span.phases.hidden_mpi_seconds = ledger.hidden_mpi_time();
    span.phases.modeled_seconds = ledger.now();

    const auto diag = solver_->diagnostics();
    const telemetry::SiteProfileSnapshot profile =
        engine_.site_profiler().snapshot();

    std::lock_guard<std::mutex> lock(result_mutex);
    result.ranks[slot] = timing_;
    result.rank_spans[slot] = std::move(span);
    if (cfg_.capture_stream)
      result.static_reports[slot] = engine_.static_verify();
    result.profile.merge_from(profile);
    if (cfg_.capture_trace) result.rank_traces[slot] = engine_.tracer();
    if (rank_ == 0) {
      result.final_diag = diag;
      result.pfss = pfss_;
      if (cfg_.boundary_out != nullptr) cfg_.boundary_out->info = pfss_;
      if (cfg_.capture_trace) {
        result.trace_t0 = t0_;
        result.trace_t1 = t0_ + timing_.seconds_per_step * cfg_.measure_steps;
      }
    }
  }

 private:
  const ExperimentConfig& cfg_;
  const int rank_;
  // Destroyed solver first, engine last: ~MasSolver syncs the engine.
  par::Engine engine_;
  mpisim::Comm comm_;
  std::optional<mhd::MasSolver> solver_;  ///< built once the cost is scaled
  mhd::PfssResult pfss_;
  double t0_ = 0.0;  ///< modeled time at the start of the measured steps
  RankTiming timing_;
};

/// After every rank: fold the slowest rank into the headline minutes,
/// merge the per-rank metrics, and fire this layer's flight-dump and
/// SIMAS_PROFILE triggers.
void finish(const RunPlan& plan, ExperimentResult& result) {
  const ExperimentConfig& cfg = plan.cfg;
  double worst_step = 0.0, worst_mpi = 0.0, worst_hidden = 0.0;
  for (const auto& r : result.ranks) {
    if (r.seconds_per_step > worst_step) {
      worst_step = r.seconds_per_step;
      worst_mpi = r.mpi_seconds_per_step;
      worst_hidden = r.hidden_mpi_seconds_per_step;
    }
  }
  result.wall_minutes = cfg.scale.minutes_for(worst_step);
  result.mpi_minutes = cfg.scale.minutes_for(worst_mpi);
  result.hidden_mpi_minutes = cfg.scale.minutes_for(worst_hidden);

  // Cross-rank merged metrics (per-metric merge policy: counters sum,
  // gauges Max/Sum as declared, histograms add bucket-wise).
  for (const auto& r : result.ranks) result.metrics.merge_from(r.metrics);

  // Flight-recorder dump triggers owned by this layer: a static-verifier
  // error, or the explicit SIMAS_FLIGHT_DUMP end-of-run request.
  const std::string& dump_path = plan.ctx.env().flight_dump;
  if (!dump_path.empty()) {
    i64 static_errors = 0;
    for (const auto& rep : result.static_reports)
      static_errors += rep.errors();
    telemetry::FlightRecorder& fr = telemetry::FlightRecorder::process();
    if (static_errors > 0) {
      fr.note(telemetry::FlightNote::StaticVerifierError, cfg.trace.trace_id,
              static_errors);
      fr.dump_to_file(dump_path, "static_verifier_error");
    } else {
      fr.note(telemetry::FlightNote::ExplicitDump, cfg.trace.trace_id);
      fr.dump_to_file(dump_path, "explicit_request");
    }
  }

  // SIMAS_PROFILE prints the merged profile; read from the one-time env
  // snapshot, never from getenv() mid-run.
  if (plan.ctx.env().profile) {
    result.profile.print(std::cout);
    std::cout << '\n';
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  const par::SimContext& ctx =
      cfg.ctx != nullptr ? *cfg.ctx : par::SimContext::process();
  const i64 run_cells =
      static_cast<i64>(cfg.grid.nr) * cfg.grid.nt * cfg.grid.np;
  // Host threads: SIMAS_HOST_THREADS (from the context's env snapshot)
  // wins, else hardware concurrency; >= 1 thread per rank even when nranks
  // exceeds the hardware. Irrelevant when the context carries a shared
  // pool — the pool's width governs.
  const RunPlan plan{
      cfg,
      ctx,
      cfg.scale.vol_scale(run_cells),
      cfg.scale.surf_scale(run_cells),
      bench_support::threads_per_rank(
          bench_support::resolve_host_threads(0, &ctx.env()), cfg.nranks),
      cfg.shape_key()};

  if (cfg.boundary.enabled && cfg.boundary_fields != nullptr) {
    const BoundaryFields& bf = *cfg.boundary_fields;
    if (bf.nranks != cfg.nranks ||
        static_cast<int>(bf.ranks.size()) != cfg.nranks)
      throw std::runtime_error(
          "run_experiment: injected BoundaryFields were extracted under a "
          "different rank decomposition");
  }

  ExperimentResult result;
  result.ranks.resize(static_cast<std::size_t>(cfg.nranks));
  result.rank_spans.resize(static_cast<std::size_t>(cfg.nranks));
  if (cfg.capture_stream)
    result.static_reports.resize(static_cast<std::size_t>(cfg.nranks));
  if (cfg.capture_trace)
    result.rank_traces.resize(static_cast<std::size_t>(cfg.nranks));
  if (cfg.boundary_out != nullptr) {
    cfg.boundary_out->grid = cfg.grid;
    cfg.boundary_out->nranks = cfg.nranks;
    cfg.boundary_out->ranks.assign(static_cast<std::size_t>(cfg.nranks),
                                   BoundaryFields::RankFields{});
  }
  std::mutex result_mutex;

  mpisim::World world(cfg.nranks);
  world.run([&](int rank) {
    RankRun rr(plan, world, rank);  // construct
    rr.initialize();
    rr.boundary();
    rr.warmup();
    rr.measure();
    rr.collect(result, result_mutex);
  });
  finish(plan, result);
  return result;
}

}  // namespace simas::run
