#pragma once
// The operators of the three implicit solves as cell bodies
// (solvers::Operator, DESIGN.md §7), each matvec beside its Jacobi form.

#include <array>
#include <tuple>

#include "mhd/ops.hpp"
#include "solvers/pcg.hpp"

namespace simas::mhd {

/// The viscous operator y = (I - dt ν ∇²) x per velocity component, from
/// grid::Metric's Laplacian coefficients (walls zeroed); Jacobi r / diag.
inline auto viscosity_operator(MhdContext& c, real dt) {
  static const par::KernelSite& site =
      SIMAS_SITE("visc_matvec", par::SiteKind::ParallelLoop, 0,
                 /*calls_routine=*/true);
  static const par::KernelSite& site_pc =
      SIMAS_SITE("visc_jacobi_precond", par::SiteKind::ParallelLoop, 0,
                 /*calls_routine=*/true);
  const grid::Metric& mt = c.lg.metric();
  const real nu = c.phys.nu;
  return solvers::Operator{
      OperatorHalo{c},
      par::Sweep{
          site,
          [](const field::Field& x, const field::Field& y, par::Span span) {
            return std::array{par::in(x.id(), span), par::out(y.id())};
          },
          [&mt, dt, nu](const field::Field& x, field::Field& y) {
            return [&mt, &x, &y, dt, nu](idx i, idx j, idx k) {
              const grid::LapCoeffs& cf = mt.lap(i, j);
              const real xc = x(i, j, k);
              const real lap =
                  cf.cr1 * (x(i + 1, j, k) - xc) -
                  cf.cr0 * (xc - x(i - 1, j, k)) +
                  cf.ct1 * (x(i, j + 1, k) - xc) -
                  cf.ct0 * (xc - x(i, j - 1, k)) +
                  cf.cp * (x(i, j, k + 1) - 2.0 * xc + x(i, j, k - 1));
              y(i, j, k) = xc - dt * nu * lap;
            };
          }},
      solvers::Jacobi{site_pc, [&mt, dt, nu](real r, idx i, idx j, idx) {
                        const grid::LapCoeffs& cf = mt.lap(i, j);
                        return r / (1.0 + dt * nu * (cf.cr0 + cf.cr1 + cf.ct0 +
                                                     cf.ct1 + 2.0 * cf.cp));
                      }}};
}

/// The conduction diffusion stencil y = ∇·(κ ∇x) in flux form, κ frozen
/// at cell centres in st.wrk2 (ghosts exchanged), face κ by arithmetic
/// mean. Straight-line: every face term is computed and a select drops
/// the zero-flux r and θ wall faces, whose ghosts may hold anything (NaN,
/// Inf), never a multiply with zero. flux starts at +0.0 and a
/// round-to-nearest sum never makes it -0.0, so adding a selected 0.0
/// leaves the bits the skipped branch left.
inline auto conduction_stencil(MhdContext& c) {
  static const par::KernelSite& site =
      SIMAS_SITE("cond_matvec", par::SiteKind::ParallelLoop, 0);
  const grid::LocalGrid& lg = c.lg;
  const field::Field& kap = c.st.wrk2;
  const idx nt = c.st.nt;
  // Physical-wall planes; -1 never matches an owned plane.
  const idx i_wall_lo = lg.at_inner_boundary() ? 0 : -1;
  const idx i_wall_hi = lg.at_outer_boundary() ? c.st.nloc - 1 : -1;
  return par::Sweep{
      site,
      [&kap](const field::Field& x, const field::Field& y, par::Span span) {
        return std::array{par::in(x.id(), span), par::in(kap.id(), span),
                          par::out(y.id())};
      },
      [&lg, &kap, nt, i_wall_lo, i_wall_hi](const field::Field& x,
                                            field::Field& y) {
        return [&lg, &kap, &x, &y, nt, i_wall_lo, i_wall_hi](idx i, idx j,
                                                             idx k) {
          const grid::Metric& mt = lg.metric();
          const grid::SphericalGrid& g = lg.global();
          const real xc = x(i, j, k);
          const real kc = kap(i, j, k);
          const real kr0 = 0.5 * (kc + kap(i - 1, j, k));
          const real fr0 =
              mt.area_r(i, j) * kr0 * (xc - x(i - 1, j, k)) / lg.drf(i);
          const real kr1 = 0.5 * (kc + kap(i + 1, j, k));
          const real fr1 = mt.area_r(i + 1, j) * kr1 *
                           (x(i + 1, j, k) - xc) / lg.drf(i + 1);
          const real kt0 = 0.5 * (kc + kap(i, j - 1, k));
          const real ft0 = mt.area_t(i, j) * kt0 * (xc - x(i, j - 1, k)) /
                           (lg.rc(i) * g.dth_face(j));
          const real kt1 = 0.5 * (kc + kap(i, j + 1, k));
          const real ft1 = mt.area_t(i, j + 1) * kt1 *
                           (x(i, j + 1, k) - xc) /
                           (lg.rc(i) * g.dth_face(j + 1));
          const real kp0 = 0.5 * (kc + kap(i, j, k - 1));
          const real kp1 = 0.5 * (kc + kap(i, j, k + 1));
          real flux = 0.0;
          flux -= i == i_wall_lo ? 0.0 : fr0;
          flux += i == i_wall_hi ? 0.0 : fr1;
          flux -= j == 0 ? 0.0 : ft0;
          flux += j == nt - 1 ? 0.0 : ft1;
          flux += mt.coef_p(i, j) *
                  (kp1 * (x(i, j, k + 1) - xc) - kp0 * (xc - x(i, j, k - 1)));
          y(i, j, k) = flux / mt.vol(i, j);
        };
      }};
}

/// The conduction operator A x = ρ/(γ-1) x - dt ∇·(κ ∇x): the stencil,
/// then the cell-local shift. Its Jacobi form estimates the diagonal as
/// the mass term plus the κ-scaled stencil at the smallest cell width.
inline auto conduction_operator(MhdContext& c, real dt) {
  static const par::KernelSite& site_pc =
      SIMAS_SITE("cond_jacobi_precond", par::SiteKind::ParallelLoop, 0);
  static const par::KernelSite& site_shift =
      SIMAS_SITE("cond_matvec_shift", par::SiteKind::ParallelLoop, 0);
  const grid::Metric& mt = c.lg.metric();
  const field::Field& rho = c.st.rho;
  const field::Field& kap = c.st.wrk2;
  const real gm1 = c.phys.gamma - 1.0;
  return solvers::Operator{
      OperatorHalo{c}, conduction_stencil(c),
      solvers::Jacobi{
          site_pc,
          [&mt, &rho, &kap, dt, gm1](real r, idx i, idx j, idx k) {
            return r / (rho(i, j, k) / gm1 +
                        dt * 6.0 * kap(i, j, k) / sq(mt.min_width(i, j)));
          },
          rho.id(), kap.id()},
      std::tuple{par::Sweep{
          site_shift,
          [&rho](const field::Field& x, const field::Field& y) {
            return std::array{par::in(rho.id()), par::in(x.id()),
                              par::in(y.id()), par::out(y.id())};
          },
          [&rho, dt, gm1](const field::Field& x, field::Field& y) {
            return [&rho, &x, &y, dt, gm1](idx i, idx j, idx k) {
              y(i, j, k) = rho(i, j, k) / gm1 * x(i, j, k) - dt * y(i, j, k);
            };
          }}}};
}

/// The PFSS operator y = -∇²x behind a synchronous halo: zero-flux inner
/// r wall (its Neumann flux lives in the RHS), Dirichlet Φ = 0 at the
/// outer r wall as a half-cell gradient to the face, zero-flux θ walls,
/// periodic φ; straight-line, as conduction_stencil. Its Jacobi form is a
/// min-width estimate of 1 / diag(A), not its value (DESIGN.md §7).
inline auto pfss_operator(MhdContext& c) {
  static const par::KernelSite& site =
      SIMAS_SITE("pfss_laplacian", par::SiteKind::ParallelLoop, 0);
  static const par::KernelSite& site_pc =
      SIMAS_SITE("pfss_jacobi_precond", par::SiteKind::ParallelLoop, 0);
  const grid::LocalGrid& lg = c.lg;
  const grid::Metric& mt = lg.metric();
  const idx nt = c.st.nt;
  const idx i_wall_lo = lg.at_inner_boundary() ? 0 : -1;
  const idx i_wall_hi = lg.at_outer_boundary() ? c.st.nloc - 1 : -1;
  return solvers::Operator{
      OperatorHalo{c, /*overlap=*/false},
      par::Sweep{
          site,
          [](const field::Field& x, const field::Field& y, par::Span span) {
            return std::array{par::in(x.id(), span), par::out(y.id())};
          },
          [&lg, &mt, nt, i_wall_lo, i_wall_hi](const field::Field& x,
                                               field::Field& y) {
            return [&lg, &mt, &x, &y, nt, i_wall_lo, i_wall_hi](
                       idx i, idx j, idx k) {
              const grid::SphericalGrid& g = lg.global();
              const real xc = x(i, j, k);
              const real fr0 =
                  mt.area_r(i, j) * (xc - x(i - 1, j, k)) / lg.drf(i);
              const real fr1_wall =
                  mt.area_r(i + 1, j) * (0.0 - xc) / (0.5 * lg.drc(i));
              const real fr1 = mt.area_r(i + 1, j) * (x(i + 1, j, k) - xc) /
                               lg.drf(i + 1);
              const real ft0 = mt.area_t(i, j) * (xc - x(i, j - 1, k)) /
                               (lg.rc(i) * g.dth_face(j));
              const real ft1 = mt.area_t(i, j + 1) * (x(i, j + 1, k) - xc) /
                               (lg.rc(i) * g.dth_face(j + 1));
              real flux = 0.0;
              flux -= i == i_wall_lo ? 0.0 : fr0;
              flux += i == i_wall_hi ? fr1_wall : fr1;
              flux -= j == 0 ? 0.0 : ft0;
              flux += j == nt - 1 ? 0.0 : ft1;
              flux += mt.coef_p(i, j) *
                      (x(i, j, k + 1) - 2.0 * xc + x(i, j, k - 1));
              // PCG solves A x = b with A = -∇·∇ (positive definite).
              y(i, j, k) = -flux / mt.vol(i, j);
            };
          }},
      solvers::Jacobi{site_pc, [&mt](real r, idx i, idx j, idx) {
                        return r * sq(mt.min_width(i, j)) / 6.0;
                      }}};
}

}  // namespace simas::mhd
