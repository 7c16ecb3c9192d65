#include "mhd/solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "telemetry/ranges.hpp"

namespace simas::mhd {

using par::SiteKind;

namespace {

/// An implicit stage returns -1 when its PCG stops unconverged (iteration
/// cap, or a non-finite inner product); the step must not go on. The
/// convergence test reads allreduced dots, so every rank throws at the
/// same step.
void require_converged(int iters, const char* stage, int maxit, int step) {
  if (iters >= 0) return;
  throw std::runtime_error("MasSolver::step: " + std::string(stage) +
                           " solve not converged within " +
                           std::to_string(maxit) + " iterations at step " +
                           std::to_string(step));
}

}  // namespace

MasSolver::MasSolver(par::Engine& engine, mpisim::Comm& comm,
                     const SolverConfig& cfg)
    : engine_(engine), comm_(comm), cfg_(cfg) {
  grid_ = std::make_unique<grid::SphericalGrid>(cfg.grid);
  slab_ = mpisim::radial_slab(cfg.grid.nr, comm.size(), comm.rank());
  lg_ = std::make_unique<grid::LocalGrid>(*grid_, slab_);
  state_ = std::make_unique<State>(engine_, *lg_);
  halo_ = std::make_unique<mpisim::HaloExchanger>(
      engine_, comm_, slab_, lg_->nloc(), lg_->nt(), lg_->np());
  ctx_ = std::make_unique<MhdContext>(
      MhdContext{engine_, comm_, *halo_, *lg_, cfg_.phys, *state_});
  // Manual data management: the whole state lives on the device for the
  // duration of the run (the OpenACC data region of the MAS GPU branch).
  state_->enter_device_data();
}

MasSolver::~MasSolver() {
  // Drain the async queue before the copyout: exiting with device writes
  // still in flight is the Sec. IV async-copyout hazard.
  engine_.device_sync();
  state_->exit_device_data();
}

void MasSolver::initialize() {
  State& st = *state_;
  const grid::LocalGrid& lg = *lg_;
  const PhysicsConfig& ph = cfg_.phys;
  const idx nloc = st.nloc, nt = st.nt, np = st.np;
  const real a = ph.atm_scale;
  const real b0 = ph.dipole_b0;

  static const par::KernelSite& site_atm =
      SIMAS_SITE("init_atmosphere", SiteKind::ParallelLoop, 71);
  static const par::KernelSite& site_ap =
      SIMAS_SITE("init_vector_potential", SiteKind::ParallelLoop, 71);
  static const par::KernelSite& site_br =
      SIMAS_SITE("init_br_from_a", SiteKind::ParallelLoop, 72);
  static const par::KernelSite& site_bt =
      SIMAS_SITE("init_bt_from_a", SiteKind::ParallelLoop, 72);
  static const par::KernelSite& site_bp0 =
      SIMAS_SITE("init_bp_zero", SiteKind::ParallelLoop, 72);

  // Stratified atmosphere at rest: ρ = exp(-a (1 - 1/r)), T = 1.
  engine_.for_each(site_atm, par::Range3{0, nloc, 0, nt, 0, np},
                   {par::out(st.rho.id()), par::out(st.temp.id()),
                    par::out(st.vr.id()), par::out(st.vt.id()),
                    par::out(st.vp.id())},
                   [&, a](idx i, idx j, idx k) {
                     const real r = lg.rc(i);
                     st.rho(i, j, k) = std::exp(-a * (1.0 - 1.0 / r));
                     st.temp(i, j, k) = 1.0;
                     st.vr(i, j, k) = 0.0;
                     st.vt(i, j, k) = 0.0;
                     st.vp(i, j, k) = 0.0;
                   });

  // Dipole from the vector potential A_φ = b0 sinθ / r² sampled on φ-edges
  // (r-face, θ-face): the face fields are its discrete curl, so div B = 0
  // holds to round-off in the CT metric. ep is used as scratch for A_φ.
  engine_.for_each(site_ap, par::Range3{0, nloc + 1, 0, nt + 1, 0, np},
                   {par::out(st.ep.id())},
                   [&, b0](idx i, idx j, idx k) {
                     st.ep(i, j, k) = b0 * lg.stf(j) / sq(lg.rf(i));
                   });

  const real dph = lg.dph();
  engine_.for_each(
      site_br, par::Range3{0, nloc + 1, 0, nt, 0, np},
      {par::in(st.ep.id()), par::out(st.br.id())},
      [&, dph](idx i, idx j, idx k) {
        const real rf = lg.rf(i);
        const real area = lg.metric().area_r(i, j);
        const real lp0 = rf * lg.stf(j) * dph;
        const real lp1 = rf * lg.stf(j + 1) * dph;
        st.br(i, j, k) =
            (st.ep(i, j + 1, k) * lp1 - st.ep(i, j, k) * lp0) / area;
      });

  engine_.for_each(
      site_bt, par::Range3{0, nloc, 0, nt + 1, 0, np},
      {par::in(st.ep.id()), par::out(st.bt.id())},
      [&, dph](idx i, idx j, idx k) {
        const real stf = std::max<real>(lg.stf(j), 1.0e-12);
        const real alin = (sq(lg.rf(i + 1)) - sq(lg.rf(i))) / 2.0;
        const real area = alin * stf * dph;
        const real lp0 = lg.rf(i) * stf * dph;
        const real lp1 = lg.rf(i + 1) * stf * dph;
        st.bt(i, j, k) =
            -(st.ep(i + 1, j, k) * lp1 - st.ep(i, j, k) * lp0) / area;
      });

  engine_.for_each(site_bp0, par::Range3{0, nloc, 0, nt, 0, np},
                   {par::out(st.bp.id())},
                   [&](idx i, idx j, idx k) { st.bp(i, j, k) = 0.0; });

  exchange_center_ghosts(*ctx_);
  apply_b_ghosts(*ctx_);
  // No compute_center_b here: every consumer (step, diagnostics, PFSS)
  // recomputes the centered field itself, and a trailing call would fuse
  // with the one at the start of diagnostics() — two kernels writing every
  // bc* element inside one merged launch (the validator's fused-conflict).

  // Unified memory with hints: advise read-duplication for the fields the
  // host samples far more often than the device rewrites them between
  // samples (cudaMemAdviseSetReadMostly analog) — diagnostics, checkpoint
  // I/O and MPI staging then read a valid host replica for free. The page
  // engine invalidates the replica on the next device write, so the advise
  // is self-correcting and never changes physics. No-op unless the engine
  // runs unified memory on a GPU.
  if (engine_.config().um_hints) {
    engine_.mem_advise(st.rho.id(), par::MemHint::AdviseReadMostly);
    engine_.mem_advise(st.temp.id(), par::MemHint::AdviseReadMostly);
    for (field::Field* f : st.face_b_fields())
      engine_.mem_advise(f->id(), par::MemHint::AdviseReadMostly);
  }
}

StepStats MasSolver::step() {
  MhdContext& c = *ctx_;
  StepStats stats;
  SIMAS_RANGE(engine_, "step");

  // Ghost refresh for everything the explicit stages read. Under
  // overlap_halo the center-field radial exchange stays in flight across
  // every stage up to the advection predictors: the B ghosts, the centered
  // B/J interpolations, and the CFL reduction read only B fields, J
  // fields, or interior center cells, never the pending radial ghosts
  // (the validator enforces this). advect_and_forces finishes it.
  const int pending_center = begin_exchange_center_ghosts(c);
  apply_b_ghosts(c);

  {
    // Center-interpolated B and J for the Lorentz force and the CFL limit.
    SIMAS_RANGE(engine_, "interp");
    compute_center_b(c);
    compute_edge_current(c);
    average_j_to_center(c);
  }

  {
    SIMAS_RANGE(engine_, "cfl");
    stats.dt = cfl_timestep(c);
  }
  if (!std::isfinite(stats.dt))
    throw std::runtime_error(
        "MasSolver::step: non-finite CFL time step at step " +
        std::to_string(steps_) +
        " (a cell has rho or T not positive, or a NaN field)");

  {
    // Explicit advection + forces, then the CT induction update.
    SIMAS_RANGE(engine_, "advance");
    advect_and_forces(c, stats.dt, pending_center);
    apply_center_bcs(c);
    ct_update(c, stats.dt);
  }

  // Implicit parabolic stages (the PCG streams of the paper's Fig. 4).
  {
    SIMAS_RANGE(engine_, "viscosity");
    stats.viscosity_iters = viscous_update(c, stats.dt);
  }
  require_converged(stats.viscosity_iters, "viscosity", c.phys.visc_maxit,
                    steps_);
  {
    SIMAS_RANGE(engine_, "conduction");
    stats.conduction_iters = conduction_update(c, stats.dt);
  }
  require_converged(stats.conduction_iters, "conduction", c.phys.cond_maxit,
                    steps_);
  {
    SIMAS_RANGE(engine_, "radiation");
    radiation_heating(c, stats.dt);
  }

  if (cfg_.shell_diagnostics) shell_mean_temperature(c, shell_t_);

  ++steps_;
  return stats;
}

void MasSolver::run(int nsteps) {
  for (int s = 0; s < nsteps; ++s) step();
}

GlobalDiagnostics MasSolver::diagnostics() {
  compute_center_b(*ctx_);
  return global_diagnostics(*ctx_);
}

}  // namespace simas::mhd
