#include <array>

#include "mhd/ops.hpp"
#include "solvers/pcg.hpp"

namespace simas::mhd {

using par::SiteKind;

// Implicit viscous update: solve the single 3-component vector system
//   (I - dt ν ∇²) v = v*
// with Jacobi-preconditioned CG: one fused halo exchange and one global
// reduction per iteration for all components, exactly the viscosity-solver
// communication pattern the paper's Fig. 4 profiles.
int viscous_update(MhdContext& c, real dt) {
  State& st = c.st;
  const grid::LocalGrid& lg = c.lg;
  // Laplacian coefficients (walls zeroed), shared by the matvec and the
  // Jacobi preconditioner.
  const grid::Metric& mt = lg.metric();
  const real nu = c.phys.nu;
  if (nu <= 0.0) return 0;
  const idx nloc = st.nloc, nt = st.nt, np = st.np;
  const par::Range3 interior{0, nloc, 0, nt, 0, np};

  static const par::KernelSite& site_mv =
      SIMAS_SITE("visc_matvec", SiteKind::ParallelLoop, 0,
                 /*calls_routine=*/true);
  static const par::KernelSite& site_pc =
      SIMAS_SITE("visc_jacobi_precond", SiteKind::ParallelLoop, 0,
                 /*calls_routine=*/true);
  static const par::KernelSite& site_rhs =
      SIMAS_SITE("visc_build_rhs", SiteKind::ParallelLoop, 52);

  solvers::Pcg pcg(c.eng, c.comm, lg, "viscosity");

  // Matvec cell body, shared by the interior and boundary-shell launches.
  auto mv_cell = [&, dt, nu](field::Field& xf, field::Field& yf, idx i, idx j,
                             idx k) {
    const grid::LapCoeffs& cf = mt.lap(i, j);
    const real xc = xf(i, j, k);
    const real lap = cf.cr1 * (xf(i + 1, j, k) - xc) -
                     cf.cr0 * (xc - xf(i - 1, j, k)) +
                     cf.ct1 * (xf(i, j + 1, k) - xc) -
                     cf.ct0 * (xc - xf(i, j - 1, k)) +
                     cf.cp * (xf(i, j, k + 1) - 2.0 * xc + xf(i, j, k - 1));
    yf(i, j, k) = xc - dt * nu * lap;
  };

  auto apply = [&](const solvers::Pcg::Fields& x,
                   const solvers::Pcg::Fields& y) {
    // Overlap: the radial exchange rides the copy stream behind the φ wrap
    // (and, when the split pays, behind the interior matvecs too). The
    // split decision is static per run, so every PCG iteration emits the
    // same op sequence — a requirement of the solver's GraphScope capture.
    RadialSplit split(c, post_radial_exchange(c, x),
                      static_cast<int>(x.size()));
    split.interior_n(
        site_mv, static_cast<int>(x.size()),
        [&](int comp) {
          return std::array{par::in(x[comp]->id(), split.span()),
                            par::out(y[comp]->id())};
        },
        [&](int comp) {
          return [&mv_cell, &xf = *x[comp], &yf = *y[comp]](idx i, idx j,
                                                           idx k) {
            mv_cell(xf, yf, i, j, k);
          };
        });
    if (split.has_shell()) {
      static const par::KernelSite& site_mv_shell =
          SIMAS_SITE("visc_matvec_shell", SiteKind::ParallelLoop, 0,
                     /*calls_routine=*/true, false, true,
                     /*surface_scaled=*/true);
      field::Field& x0 = *x[0];
      field::Field& x1 = *x[1];
      field::Field& x2 = *x[2];
      field::Field& y0 = *y[0];
      field::Field& y1 = *y[1];
      field::Field& y2 = *y[2];
      split.shell(site_mv_shell,
                  {par::in(x0.id()), par::in(x1.id()), par::in(x2.id()),
                   par::out(y0.id()), par::out(y1.id()), par::out(y2.id())},
                  [&](idx i, idx j, idx k) {
                    mv_cell(x0, y0, i, j, k);
                    mv_cell(x1, y1, i, j, k);
                    mv_cell(x2, y2, i, j, k);
                  });
    }
  };

  const solvers::Jacobi precond{
      site_pc,
      [](const field::Field& r, const field::Field& z) {
        return std::array{par::in(r.id()), par::out(z.id())};
      },
      [&mt, dt, nu](const field::Field& r, field::Field& z) {
        return [&mt, &r, &z, dt, nu](idx i, idx j, idx k) {
          const grid::LapCoeffs& cf = mt.lap(i, j);
          const real diag =
              1.0 + dt * nu * (cf.cr0 + cf.cr1 + cf.ct0 + cf.ct1 +
                               2.0 * cf.cp);
          z(i, j, k) = r(i, j, k) / diag;
        };
      }};

  // RHS = v* (current velocities); they also serve as the initial guess.
  std::vector<field::Field*> rhs{&st.wrk1, &st.wrk2, &st.wrk3};
  std::vector<field::Field*> unknowns = st.velocity_fields();
  c.eng.for_each_n(
      site_rhs, interior, static_cast<int>(unknowns.size()),
      [&](int comp) {
        return std::array{par::in(unknowns[comp]->id()),
                          par::out(rhs[comp]->id())};
      },
      [&](int comp) {
        return [&u = *unknowns[comp], &b = *rhs[comp]](idx i, idx j, idx k) {
          b(i, j, k) = u(i, j, k);
        };
      });

  solvers::PcgSystem sys;
  sys.x = unknowns;
  sys.b = rhs;
  sys.r = st.pcg_r_vec(3);
  sys.p = st.pcg_p_vec(3);
  sys.ap = st.pcg_ap_vec(3);
  sys.z = st.pcg_z_vec(3);

  solvers::PcgOptions opts{c.phys.visc_tol, c.phys.visc_maxit};
  const auto res = pcg.solve(apply, precond, sys, opts);
  return res.converged ? res.iterations : -1;
}

}  // namespace simas::mhd
