#include <algorithm>
#include <cmath>
#include <limits>

#include "mhd/eos.hpp"
#include "mhd/ops.hpp"

namespace simas::mhd {

using par::SiteKind;

// Explicit stability limit from the fast magnetosonic speed plus the
// resistive diffusion limit, globally reduced (scalar reduction + MPI
// allreduce, the loop class of paper Sec. IV-B Listing 3 context). It is
// also the step's health guard: a cell whose ρ or T is not positive (or
// NaN) yields NaN, which the NaN-propagating max carries to every rank,
// so every rank returns a non-finite dt at the same step.
real cfl_timestep(MhdContext& c) {
  State& st = c.st;
  const grid::Metric& mt = c.lg.metric();
  const PhysicsConfig& ph = c.phys;
  const real gamma = ph.gamma;
  const real eta = ph.eta;

  static const par::KernelSite& site =
      SIMAS_SITE("cfl_max_wave_speed", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);

  // Pointwise reads over the owned radial range only (no stencil): safe
  // even while a radial halo exchange is in flight.
  const real local_max = c.eng.reduce_max(
      site, par::Range3{0, st.nloc, 0, st.nt, 0, st.np},
      {par::in(st.rho.id(), par::Span::Interior),
       par::in(st.temp.id(), par::Span::Interior),
       par::in(st.vr.id(), par::Span::Interior),
       par::in(st.vt.id(), par::Span::Interior),
       par::in(st.vp.id(), par::Span::Interior),
       par::in(st.bcr.id(), par::Span::Interior),
       par::in(st.bct.id(), par::Span::Interior),
       par::in(st.bcp.id(), par::Span::Interior)},
      [&](idx i, idx j, idx k) -> real {
        const real rho = st.rho(i, j, k);
        const real temp = st.temp(i, j, k);
        const real b2 = sq(st.bcr(i, j, k)) + sq(st.bct(i, j, k)) +
                        sq(st.bcp(i, j, k));
        const real vf = fast_speed(gamma, temp, b2, rho);
        const real hmin = mt.min_width(i, j);
        const real adv = (std::abs(st.vr(i, j, k)) +
                          std::abs(st.vt(i, j, k)) +
                          std::abs(st.vp(i, j, k)) + vf) /
                         hmin;
        const real diff = 4.0 * eta / sq(hmin);
        return rho > 0.0 && temp > 0.0
                   ? std::max(adv, diff)
                   : std::numeric_limits<real>::quiet_NaN();
      });

  // std::max(x, floor) returns x when x is NaN, so the floor keeps a
  // still field finite and lets an unhealthy one through.
  const real global_max =
      std::max(c.comm.allreduce_max(local_max), 1.0e-12);
  return ph.cfl / global_max;
}

}  // namespace simas::mhd
