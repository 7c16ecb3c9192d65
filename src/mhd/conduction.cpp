#include <algorithm>
#include <array>
#include <cmath>

#include "mhd/ops.hpp"
#include "solvers/pcg.hpp"
#include "solvers/sts.hpp"

namespace simas::mhd {

using par::SiteKind;

// Diffusion operator L(x) = ∇·(κ ∇x), shared by the PCG and STS paths.
// Under overlap the exchange of x rides the copy stream behind the φ wrap;
// when the split pays, the interior stencil also runs while the halos are
// in flight and one boundary-shell launch covers the rest.
void conduction_diffusion(MhdContext& c, field::Field& x, field::Field& y) {
  State& st = c.st;
  const grid::LocalGrid& lg = c.lg;
  const grid::SphericalGrid& g = lg.global();
  const grid::Metric& mt = lg.metric();
  const idx nt = st.nt;
  // Physical-wall planes; -1 never matches an owned plane.
  const idx i_wall_lo = lg.at_inner_boundary() ? 0 : -1;
  const idx i_wall_hi = lg.at_outer_boundary() ? st.nloc - 1 : -1;

  static const par::KernelSite& site_mv =
      SIMAS_SITE("cond_matvec", SiteKind::ParallelLoop, 0);

  // Cell body, shared by the interior and boundary-shell launches. It is
  // straight-line code: every face term is computed, and a select drops
  // the zero-flux wall faces. A wall term reads a ghost plane that may
  // hold anything (NaN, Inf), so it is discarded by the select and never
  // by a multiply with zero. flux starts at +0.0 and a round-to-nearest
  // sum never turns it into -0.0, so adding a selected 0.0 leaves the
  // bits the skipped branch left.
  auto cell = [&, nt, i_wall_lo, i_wall_hi](idx i, idx j, idx k) {
    const real xc = x(i, j, k);
    const real kc = st.wrk2(i, j, k);
    const real kr0 = 0.5 * (kc + st.wrk2(i - 1, j, k));
    const real fr0 =
        mt.area_r(i, j) * kr0 * (xc - x(i - 1, j, k)) / lg.drf(i);
    const real kr1 = 0.5 * (kc + st.wrk2(i + 1, j, k));
    const real fr1 = mt.area_r(i + 1, j) * kr1 * (x(i + 1, j, k) - xc) /
                     lg.drf(i + 1);
    const real kt0 = 0.5 * (kc + st.wrk2(i, j - 1, k));
    const real ft0 = mt.area_t(i, j) * kt0 * (xc - x(i, j - 1, k)) /
                     (lg.rc(i) * g.dth_face(j));
    const real kt1 = 0.5 * (kc + st.wrk2(i, j + 1, k));
    const real ft1 = mt.area_t(i, j + 1) * kt1 * (x(i, j + 1, k) - xc) /
                     (lg.rc(i) * g.dth_face(j + 1));
    const real kp0 = 0.5 * (kc + st.wrk2(i, j, k - 1));
    const real kp1 = 0.5 * (kc + st.wrk2(i, j, k + 1));
    real flux = 0.0;
    flux -= i == i_wall_lo ? 0.0 : fr0;
    flux += i == i_wall_hi ? 0.0 : fr1;
    flux -= j == 0 ? 0.0 : ft0;
    flux += j == nt - 1 ? 0.0 : ft1;
    flux += mt.coef_p(i, j) *
            (kp1 * (x(i, j, k + 1) - xc) - kp0 * (xc - x(i, j, k - 1)));
    y(i, j, k) = flux / mt.vol(i, j);
  };

  RadialSplit split(c, post_radial_exchange(c, {&x}), 1);
  split.interior(site_mv,
                 {par::in(x.id(), split.span()),
                  par::in(st.wrk2.id(), split.span()), par::out(y.id())},
                 cell);
  if (split.has_shell()) {
    static const par::KernelSite& site_mv_shell =
        SIMAS_SITE("cond_matvec_shell", SiteKind::ParallelLoop, 0, false,
                   false, true, /*surface_scaled=*/true);
    split.shell(site_mv_shell,
                {par::in(x.id()), par::in(st.wrk2.id()), par::out(y.id())},
                cell);
  }
}

// Implicit Spitzer thermal conduction. The energy equation contribution is
//   ρ/(γ-1) ∂T/∂t = ∇·(κ(T) ∇T),   κ(T) = κ0 T^{5/2},
// discretized in flux form with κ frozen at the step start (Picard
// linearization, standard practice in MAS-class codes). The system
//   (ρ/(γ-1) - dt ∇·κ∇) T = ρ/(γ-1) T*
// is SPD in the volume-weighted inner product; we solve it with
// Jacobi-preconditioned CG, or advance explicitly with RKL2 super
// time-stepping when configured (paper ref [25] compares the approaches).
int conduction_update(MhdContext& c, real dt) {
  State& st = c.st;
  const grid::LocalGrid& lg = c.lg;
  const grid::Metric& mt = lg.metric();
  const PhysicsConfig& ph = c.phys;
  if (ph.kappa0 <= 0.0) return 0;
  const real gm1 = ph.gamma - 1.0;
  const real kappa0 = ph.kappa0;
  const idx nloc = st.nloc, nt = st.nt, np = st.np;
  const par::Range3 interior{0, nloc, 0, nt, 0, np};

  static const par::KernelSite& site_kap =
      SIMAS_SITE("cond_face_kappa_setup", SiteKind::ParallelLoop, 0);
  static const par::KernelSite& site_pc =
      SIMAS_SITE("cond_jacobi_precond", SiteKind::ParallelLoop, 0);
  static const par::KernelSite& site_rhs =
      SIMAS_SITE("cond_build_rhs", SiteKind::ParallelLoop, 52);

  // Frozen κ(T*) at cell centers, stored in wrk2 (ghosts via exchange).
  c.eng.for_each(site_kap, interior,
                 {par::in(st.temp.id()), par::out(st.wrk2.id())},
                 [&, kappa0](idx i, idx j, idx k) {
                   const real t = std::max<real>(st.temp(i, j, k), 1.0e-12);
                   st.wrk2(i, j, k) = kappa0 * t * t * std::sqrt(t);
                 });
  // Under overlap the κ halo hides behind the φ wrap of the same window.
  finish_radial_exchange(c, post_radial_exchange(c, {&st.wrk2}));

  if (ph.sts_conduction) {
    // Explicit super-time-stepping: dT/dt = (γ-1)/ρ L(T).
    auto rhs = [&](field::Field& x, field::Field& y) {
      conduction_diffusion(c, x, y);
      static const par::KernelSite& site_scale =
          SIMAS_SITE("cond_sts_scale", SiteKind::ParallelLoop, 0);
      c.eng.for_each(site_scale, interior,
                     {par::in(st.rho.id()), par::in(y.id()), par::out(y.id())},
                     [&, gm1](idx i, idx j, idx k) {
                       y(i, j, k) *= gm1 /
                                     std::max<real>(st.rho(i, j, k), 1.0e-12);
                     });
    };
    solvers::rkl2_advance(c.eng, rhs, st.temp, st.pcg_r, st.pcg_p, st.pcg_ap,
                          st.pcg_z, st.wrk3, dt, ph.sts_stages,
                          par::Range3{0, nloc, 0, nt, 0, np});
    return ph.sts_stages;
  }

  // PCG path: A(x) = ρ/(γ-1) x - dt L(x); RHS = ρ/(γ-1) T*.
  auto apply = [&](const solvers::Pcg::Fields& xs,
                   const solvers::Pcg::Fields& ys) {
    field::Field& x = *xs[0];
    field::Field& y = *ys[0];
    conduction_diffusion(c, x, y);
    static const par::KernelSite& site_shift =
        SIMAS_SITE("cond_matvec_shift", SiteKind::ParallelLoop, 0);
    c.eng.for_each(site_shift, interior,
                   {par::in(st.rho.id()), par::in(x.id()), par::in(y.id()),
                    par::out(y.id())},
                   [&, dt, gm1](idx i, idx j, idx k) {
                     y(i, j, k) = st.rho(i, j, k) / gm1 * x(i, j, k) -
                                  dt * y(i, j, k);
                   });
  };

  const solvers::Jacobi precond{
      site_pc,
      [&](const field::Field& r, const field::Field& z) {
        return std::array{par::in(r.id()), par::in(st.rho.id()),
                          par::in(st.wrk2.id()), par::out(z.id())};
      },
      [&mt, &st, dt, gm1](const field::Field& r, field::Field& z) {
        return [&mt, &st, &r, &z, dt, gm1](idx i, idx j, idx k) {
          // Cheap diagonal estimate: mass term plus the κ-scaled stencil
          // magnitude.
          const real diag =
              st.rho(i, j, k) / gm1 +
              dt * 6.0 * st.wrk2(i, j, k) / sq(mt.min_width(i, j));
          z(i, j, k) = r(i, j, k) / diag;
        };
      }};

  // RHS into wrk1 (the temperature itself is the initial guess).
  c.eng.for_each(site_rhs, interior,
                 {par::in(st.temp.id()), par::in(st.rho.id()),
                  par::out(st.wrk1.id())},
                 [&, gm1](idx i, idx j, idx k) {
                   st.wrk1(i, j, k) =
                       st.rho(i, j, k) / gm1 * st.temp(i, j, k);
                 });

  solvers::Pcg pcg(c.eng, c.comm, lg, "conduction");
  solvers::PcgSystem sys;
  sys.x = {&st.temp};
  sys.b = {&st.wrk1};
  sys.r = st.pcg_r_vec(1);
  sys.p = st.pcg_p_vec(1);
  sys.ap = st.pcg_ap_vec(1);
  sys.z = st.pcg_z_vec(1);
  solvers::PcgOptions opts{ph.cond_tol, ph.cond_maxit};
  const auto res = pcg.solve(apply, precond, sys, opts);
  return res.converged ? res.iterations : -1;
}

}  // namespace simas::mhd
