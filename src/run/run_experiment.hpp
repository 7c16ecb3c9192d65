#pragma once
// The experiment runner: executes the MAS-analog solver under a given
// code version / rank count / device, and reports paper-projected
// wall-clock and MPI time. Every table/figure bench and every JobServer
// job runs through run_experiment. Each rank runs the same named phases
// in order (construct, initialize, boundary, warmup, measured steps,
// collect); one finish step then folds the ranks (run_experiment.cpp).

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "bench_support/paper_scale.hpp"
#include "gpusim/device_spec.hpp"
#include "mhd/config.hpp"
#include "mhd/ops.hpp"
#include "mhd/pfss.hpp"
#include "mhd/solver.hpp"
#include "par/engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/span_tree.hpp"
#include "telemetry/trace_context.hpp"
#include "trace/trace.hpp"
#include "variants/code_version.hpp"

namespace simas::par {
class SimContext;
class GraphCache;
}  // namespace simas::par

namespace simas::run {

/// Boundary-data configuration: the observed photospheric Br map a
/// production run starts from, modeled as a dipole plus seeded low-order
/// harmonics. Two configs with equal fields describe the *same* boundary
/// data; the PFSS initialization they imply is a pure function of this
/// struct (plus grid and rank count), which is what makes the service
/// layer's shared field cache sound.
struct BoundaryConfig {
  bool enabled = false;   ///< run the PFSS initializer after initialize()
  u64 seed = 7;           ///< seeds the harmonic amplitudes/phases
  int modes = 4;          ///< harmonics added on top of the dipole
  double amplitude = 0.2; ///< per-mode amplitude, relative to b0
  double b0 = 1.0;        ///< dipole strength (Br = 2 b0 cosθ)
  double tol = 1.0e-8;    ///< PFSS PCG tolerance
  int maxit = 500;        ///< PFSS PCG iteration cap
  /// Content hash of the boundary data this config describes (FNV-1a over
  /// the packed fields). Combined with grid + nranks it keys the service
  /// layer's shared boundary-field cache.
  u64 hash() const;
};

/// The PFSS-initialized magnetic field, extracted as raw per-rank array
/// contents (ghosts included) so an identically-configured run can inject
/// them and skip the PCG solve entirely. Injection is bit-identical to
/// re-solving: kernels execute on the same host arrays the extraction
/// copied, so byte-equal inputs give byte-equal physics.
struct BoundaryFields {
  struct RankFields {
    std::vector<real> br, bt, bp;     ///< face field (CT staggering)
    std::vector<real> bcr, bct, bcp;  ///< center-interpolated field
  };
  grid::GridConfig grid;  ///< grid the fields were solved on
  int nranks = 0;         ///< decomposition they were solved under
  mhd::PfssResult info;   ///< solve convergence record (rank-agnostic)
  std::vector<RankFields> ranks;
};

/// Deterministic surface-Br function described by `b`: dipole plus seeded
/// harmonics. Pure function of the config — equal configs return
/// pointwise-equal functions.
mhd::SurfaceBrFn boundary_surface_br(const BoundaryConfig& b);

struct ExperimentConfig {
  variants::CodeVersion version = variants::CodeVersion::A;
  int nranks = 1;
  gpusim::DeviceSpec device = gpusim::a100_40gb();
  /// Modeled toolchain lowering (par/compiler_personality.hpp): one axis
  /// of the portability matrix. Nvfortran = the source paper's behavior,
  /// and the default for every pre-matrix bench. Personalities change
  /// modeled time and the recorded op stream only — physics is
  /// bit-identical across the whole matrix.
  par::CompilerPersonality personality = par::CompilerPersonality::Nvfortran;
  grid::GridConfig grid;        ///< run-scale grid (kept small)
  mhd::PhysicsConfig phys;
  int warmup_steps = 1;         ///< excluded from timing
  int measure_steps = 3;
  bench_support::PaperScale scale;
  bool capture_trace = false;   ///< record rank 0's timeline
  /// CUDA-Graph-style capture/replay of the PCG inner iterations
  /// (EngineConfig::graph_replay). Warmup steps capture; measured steps
  /// replay.
  bool graph_replay = false;
  /// Overlapped (nonblocking) halo exchange: radial sends ride each
  /// rank's copy stream behind independent kernels instead of blocking
  /// the compute clock (EngineConfig::overlap_halo). Physics is
  /// byte-identical; only the modeled MPI exposure changes.
  bool overlap_halo = false;
  /// Span-driven unified-memory prefetch/advise hints
  /// (EngineConfig::um_hints): the scheduler bulk-prefetches kernel
  /// footprints and the halo layer pins its staging buffers host-side.
  /// Only meaningful for the unified-memory code versions; physics is
  /// byte-identical, only the modeled paging/MPI exposure changes.
  bool um_hints = false;
  /// Record each rank's full event trace and run the static verifier over
  /// it after the measured steps (EngineConfig::capture_stream). The
  /// per-rank reports land in ExperimentResult::static_reports. No
  /// kernels are shadowed; modeled time is unaffected.
  bool capture_stream = false;

  // --- Re-entrancy / service-layer hooks -------------------------------
  /// Context supplying the env snapshot for every engine this run
  /// creates, and the only way a run borrows execution threads: when the
  /// context carries a shared pool (the JobServer's), every rank engine
  /// runs on it; otherwise each owns a pool of its share of the host
  /// threads. Null = the process context.
  const par::SimContext* ctx = nullptr;
  /// Cross-engine captured-graph cache. When set, each rank engine seeds
  /// its graph scopes from (and publishes finished captures to) the cache
  /// under `shape_key() + "/r<rank>"`, so jobs of identical shape replay
  /// from their very first pass.
  par::GraphCache* graph_cache = nullptr;
  /// Distributed-trace root for this run (telemetry/trace_context.hpp).
  /// The JobServer mints one per submitted job; rank r's engine runs as
  /// child span r+1 and stamps the trace id into every flight-recorder
  /// event. Default (inactive) = untraced; rank spans are built either
  /// way, the id is just 0.
  telemetry::TraceContext trace;

  /// PFSS boundary initialization (see BoundaryConfig). When enabled and
  /// `boundary_fields` is null, the PCG solve runs after initialize();
  /// when `boundary_fields` is set, the solved field is injected instead
  /// (bit-identical, no solve). `boundary_out`, when set, receives the
  /// extracted per-rank fields for caching.
  BoundaryConfig boundary;
  const BoundaryFields* boundary_fields = nullptr;
  BoundaryFields* boundary_out = nullptr;

  /// Stable key describing the *shape* of the kernel stream this config
  /// produces (version, device, personality, grid, rank count, halo/graph
  /// flags, boundary hash). Jobs with equal shape keys share captured
  /// graphs safely. Device and personality are key components because
  /// they change the op stream (implicit UM, hint lowering, memory mode),
  /// so graph scopes never cross matrix cells.
  std::string shape_key() const;
};

struct RankTiming {
  double seconds_per_step = 0.0;  ///< modeled, paper-scale
  double mpi_seconds_per_step = 0.0;
  /// Launch-overhead + UM-gap time per step (TimeCategory::LaunchGap),
  /// the quantity graph replay amortizes.
  double launch_gap_seconds_per_step = 0.0;
  /// MPI transfer time that ran on the copy stream, overlapped with
  /// compute (ClockLedger::hidden_mpi_time): nonzero only under
  /// overlap_halo, and ~zero for the unified-memory versions, whose
  /// staged exchanges serialize with compute.
  double hidden_mpi_seconds_per_step = 0.0;
  /// Full per-rank metrics snapshot (engine.* / mem.* / halo.* / time.* /
  /// graph.* / pool.* families; see DESIGN.md §13), taken after the
  /// measured steps.
  telemetry::MetricsSnapshot metrics;
  /// The rank's last measured step (dt, PCG iterations or STS stages);
  /// default when measure_steps is 0.
  mhd::StepStats last_step;
};

struct ExperimentResult {
  /// Paper-projected wall-clock minutes for the full test problem
  /// (slowest rank; ranks are collective-synchronized so they agree
  /// closely).
  double wall_minutes = 0.0;
  double mpi_minutes = 0.0;
  /// Overlapped MPI transfer minutes on the slowest rank (hidden behind
  /// compute, not part of wall_minutes).
  double hidden_mpi_minutes = 0.0;
  double non_mpi_minutes() const { return wall_minutes - mpi_minutes; }

  std::vector<RankTiming> ranks;
  mhd::GlobalDiagnostics final_diag;  ///< physics validation handle
  /// PFSS convergence record when ExperimentConfig::boundary.enabled
  /// (copied from the injected cache entry when the solve was skipped).
  mhd::PfssResult pfss;
  /// Every rank's timeline, if captured (capture_trace records all
  /// ranks). One entry per rank, indexed by rank — feed to
  /// telemetry::write_perfetto_json with one pid per rank.
  std::vector<trace::Recorder> rank_traces;
  double trace_t0 = 0.0, trace_t1 = 0.0;  ///< measured window (modeled s)
  /// All-rank merged views (per-metric merge policy / matched by site).
  telemetry::MetricsSnapshot metrics;
  telemetry::SiteProfileSnapshot profile;
  /// Per-rank static-verifier reports (ExperimentConfig::capture_stream;
  /// empty otherwise). Indexed by rank.
  std::vector<analysis::ValidationReport> static_reports;
  /// Per-rank span-tree phases over the WHOLE run (warmup + measured):
  /// each rank's full ClockLedger category totals, always filled, one
  /// entry per rank. The JobServer lifts these into the job's
  /// JobSpanRecord; the span-sum invariant (telemetry/span_tree.hpp)
  /// holds by ledger construction.
  std::vector<telemetry::RankSpan> rank_spans;
};

ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace simas::run
