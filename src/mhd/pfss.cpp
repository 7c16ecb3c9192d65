#include "mhd/pfss.hpp"

#include <algorithm>
#include <cmath>

#include "mhd/operators.hpp"

namespace simas::mhd {

using par::SiteKind;

SurfaceBrFn dipole_surface_br(real b0) {
  return [b0](real theta, real /*phi*/) { return 2.0 * b0 * std::cos(theta); };
}

void pfss_laplacian(MhdContext& c, field::Field& x, field::Field& y) {
  const auto op = pfss_operator(c);
  op.halo({&x}).apply(op.stencil, {&x}, {&y});
}

PfssResult pfss_initialize(MhdContext& c, const SurfaceBrFn& surface_br,
                           real tol, int maxit) {
  State& st = c.st;
  const grid::LocalGrid& lg = c.lg;
  const idx nloc = st.nloc, nt = st.nt, np = st.np;
  const grid::Metric& mt = lg.metric();

  static const par::KernelSite& site_rhs =
      SIMAS_SITE("pfss_build_rhs", SiteKind::ParallelLoop, 0);
  static const par::KernelSite& site_grad_r =
      SIMAS_SITE("pfss_gradient_r", SiteKind::ParallelLoop, 73);
  static const par::KernelSite& site_grad_t =
      SIMAS_SITE("pfss_gradient_t", SiteKind::ParallelLoop, 73);
  static const par::KernelSite& site_grad_p =
      SIMAS_SITE("pfss_gradient_p", SiteKind::ParallelLoop, 73);

  // RHS: b = -∇·(prescribed boundary flux). Only inner-boundary cells get
  // a contribution: A Φ = b with the Neumann flux moved to the RHS.
  // Flux through the inner face = Br_surface * area (B = -∇Φ, so
  // ∂Φ/∂r = -Br).
  field::Field& phi = st.wrk4;
  field::Field& rhs = st.wrk1;
  c.eng.for_each(
      site_rhs, par::Range3{0, nloc, 0, nt, 0, np},
      {par::out(rhs.id()), par::out(phi.id())},
      [&](idx i, idx j, idx k) {
        phi(i, j, k) = 0.0;
        real b = 0.0;
        if (lg.at_inner_boundary() && i == 0) {
          const real br = surface_br(lg.tc(j), lg.global().ph_center(k));
          // div B = 0 over the boundary cell: the interior fluxes (the
          // operator, which omits the inner face) must balance the
          // prescribed inner-face flux: -flux_op = A0 br  =>  b = +A0 br/V.
          b = br * mt.area_r(0, j) / mt.vol(0, j);
        }
        rhs(i, j, k) = b;
      });

  solvers::Pcg pcg(c.eng, c.comm, lg, "pfss");
  solvers::PcgSystem sys{{&phi},           {&rhs},
                         st.pcg_r_vec(1),  st.pcg_p_vec(1),
                         st.pcg_ap_vec(1), st.pcg_z_vec(1)};
  const auto solve = pcg.solve(pfss_operator(c), sys, {tol, maxit});

  // Refresh ghosts of Φ, then take B = -∇Φ on the faces.
  c.halo.exchange_r({&phi});
  c.halo.wrap_phi({&phi});

  c.eng.for_each(site_grad_r, par::Range3{0, nloc + 1, 0, nt, 0, np},
                 {par::in(phi.id()), par::out(st.br.id())},
                 [&](idx i, idx j, idx k) {
                   if (lg.at_inner_boundary() && i == 0) {
                     st.br(i, j, k) =
                         surface_br(lg.tc(j), lg.global().ph_center(k));
                   } else if (lg.at_outer_boundary() && i == nloc) {
                     st.br(i, j, k) =
                         -(0.0 - phi(i - 1, j, k)) / (0.5 * lg.drc(i - 1));
                   } else {
                     st.br(i, j, k) =
                         -(phi(i, j, k) - phi(i - 1, j, k)) / lg.drf(i);
                   }
                 });
  c.eng.for_each(site_grad_t, par::Range3{0, nloc, 0, nt + 1, 0, np},
                 {par::in(phi.id()), par::out(st.bt.id())},
                 [&](idx i, idx j, idx k) {
                   if (j == 0 || j == st.nt) {
                     st.bt(i, j, k) = 0.0;  // zero-flux θ walls
                   } else {
                     st.bt(i, j, k) = -(phi(i, j, k) - phi(i, j - 1, k)) /
                                      (lg.rc(i) * lg.dtf(j));
                   }
                 });
  c.eng.for_each(site_grad_p, par::Range3{0, nloc, 0, nt, 0, np},
                 {par::in(phi.id()), par::out(st.bp.id())},
                 [&](idx i, idx j, idx k) {
                   st.bp(i, j, k) = -(phi(i, j, k) - phi(i, j, k - 1)) /
                                    (lg.rc(i) * lg.stc(j) * lg.dph());
                 });

  apply_b_ghosts(c);
  compute_center_b(c);

  PfssResult res;
  res.iterations = solve.iterations;
  res.converged = solve.converged;
  real local_max = 0.0;
  for (idx i = 0; i < nloc; ++i)
    for (idx j = 0; j < nt; ++j)
      for (idx k = 0; k < np; ++k)
        local_max =
            nan_max(local_max, std::abs(div_b_cell(lg, st, i, j, k)));
  res.max_div_b = c.comm.allreduce_max(local_max);
  return res;
}

}  // namespace simas::mhd
