#include <algorithm>
#include <cmath>

#include "mhd/operators.hpp"
#include "solvers/sts.hpp"

namespace simas::mhd {

using par::SiteKind;

// The diffusion stencil L(x) = ∇·(κ ∇x) alone: the STS right-hand side.
void conduction_diffusion(MhdContext& c, field::Field& x, field::Field& y) {
  OperatorHalo{c}({&x}).apply(conduction_stencil(c), {&x}, {&y});
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
  const PhysicsConfig& ph = c.phys;
  if (ph.kappa0 <= 0.0) return 0;
  const real gm1 = ph.gamma - 1.0;
  const real kappa0 = ph.kappa0;
  const par::Range3 interior{0, st.nloc, 0, st.nt, 0, st.np};

  static const par::KernelSite& site_kap =
      SIMAS_SITE("cond_face_kappa_setup", SiteKind::ParallelLoop, 0);
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
                          st.pcg_z, st.wrk3, dt, ph.sts_stages, interior);
    return ph.sts_stages;
  }

  // PCG path: A(x) = ρ/(γ-1) x - dt L(x) (conduction_operator); RHS =
  // ρ/(γ-1) T* into wrk1 (the temperature itself is the initial guess).
  c.eng.for_each(site_rhs, interior,
                 {par::in(st.temp.id()), par::in(st.rho.id()),
                  par::out(st.wrk1.id())},
                 [&, gm1](idx i, idx j, idx k) {
                   st.wrk1(i, j, k) =
                       st.rho(i, j, k) / gm1 * st.temp(i, j, k);
                 });

  solvers::Pcg pcg(c.eng, c.comm, c.lg, "conduction");
  solvers::PcgSystem sys{{&st.temp},        {&st.wrk1},
                         st.pcg_r_vec(1),  st.pcg_p_vec(1),
                         st.pcg_ap_vec(1), st.pcg_z_vec(1)};
  const auto res = pcg.solve(conduction_operator(c, dt), sys,
                             {ph.cond_tol, ph.cond_maxit});
  return res.converged ? res.iterations : -1;
}

}  // namespace simas::mhd
