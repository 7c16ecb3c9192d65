#include <algorithm>
#include <cmath>

#include "mhd/ops.hpp"

namespace simas::mhd {

using par::SiteKind;

real div_b_cell(const grid::LocalGrid& lg, const State& st, idx i, idx j,
                idx k) {
  const grid::Metric& mt = lg.metric();
  // bp face k+1 is the wrapped ghost at k = np-1.
  return (mt.area_r(i + 1, j) * st.br(i + 1, j, k) -
          mt.area_r(i, j) * st.br(i, j, k) +
          mt.area_t(i, j + 1) * st.bt(i, j + 1, k) -
          mt.area_t(i, j) * st.bt(i, j, k) +
          mt.area_p(i, j) * (st.bp(i, j, k + 1) - st.bp(i, j, k))) /
         mt.vol(i, j);
}

// Mean temperature per local radial shell: the array-reduction loop class
// (paper Listings 3-5; OpenACC atomics vs. DC2X loop flip).
void shell_mean_temperature(MhdContext& c, std::vector<real>& out) {
  State& st = c.st;
  static const par::KernelSite& site =
      SIMAS_SITE("shell_mean_temp", SiteKind::ArrayReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);
  out.assign(static_cast<std::size_t>(st.nloc), 0.0);
  c.eng.array_reduce(site, par::Range3{0, st.nloc, 0, st.nt, 0, st.np},
                     {par::in(st.temp.id())}, std::span<real>(out),
                     [&](idx i, idx j, idx k) { return st.temp(i, j, k); });
  const real norm = 1.0 / static_cast<real>(st.nt * st.np);
  for (auto& v : out) v *= norm;
}

GlobalDiagnostics global_diagnostics(MhdContext& c) {
  State& st = c.st;
  const grid::LocalGrid& lg = c.lg;
  const real gm1 = c.phys.gamma - 1.0;
  const par::Range3 interior{0, st.nloc, 0, st.nt, 0, st.np};
  const grid::Metric& mt = lg.metric();

  static const par::KernelSite& site_mass =
      SIMAS_SITE("diag_total_mass", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);
  static const par::KernelSite& site_ke =
      SIMAS_SITE("diag_kinetic_energy", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);
  static const par::KernelSite& site_me =
      SIMAS_SITE("diag_magnetic_energy", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);
  static const par::KernelSite& site_te =
      SIMAS_SITE("diag_thermal_energy", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);
  static const par::KernelSite& site_divb =
      SIMAS_SITE("diag_max_divb", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);
  static const par::KernelSite& site_vmax =
      SIMAS_SITE("diag_max_speed", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);

  GlobalDiagnostics d;
  d.total_mass = c.comm.allreduce_sum(c.eng.reduce_sum(
      site_mass, interior, {par::in(st.rho.id())},
      [&](idx i, idx j, idx k) { return st.rho(i, j, k) * mt.vol(i, j); }));
  d.kinetic_energy = c.comm.allreduce_sum(c.eng.reduce_sum(
      site_ke, interior,
      {par::in(st.rho.id()), par::in(st.vr.id()), par::in(st.vt.id()),
       par::in(st.vp.id())},
      [&](idx i, idx j, idx k) {
        return 0.5 * st.rho(i, j, k) *
               (sq(st.vr(i, j, k)) + sq(st.vt(i, j, k)) +
                sq(st.vp(i, j, k))) *
               mt.vol(i, j);
      }));
  d.magnetic_energy = c.comm.allreduce_sum(c.eng.reduce_sum(
      site_me, interior,
      {par::in(st.bcr.id()), par::in(st.bct.id()), par::in(st.bcp.id())},
      [&](idx i, idx j, idx k) {
        return 0.5 *
               (sq(st.bcr(i, j, k)) + sq(st.bct(i, j, k)) +
                sq(st.bcp(i, j, k))) *
               mt.vol(i, j);
      }));
  d.thermal_energy = c.comm.allreduce_sum(c.eng.reduce_sum(
      site_te, interior,
      {par::in(st.rho.id()), par::in(st.temp.id())},
      [&, gm1](idx i, idx j, idx k) {
        return st.rho(i, j, k) * st.temp(i, j, k) / gm1 * mt.vol(i, j);
      }));
  d.max_div_b = c.comm.allreduce_max(c.eng.reduce_max(
      site_divb, interior,
      {par::in(st.br.id()), par::in(st.bt.id()), par::in(st.bp.id())},
      [&](idx i, idx j, idx k) {
        return std::abs(div_b_cell(lg, st, i, j, k));
      }));
  d.max_speed = c.comm.allreduce_max(c.eng.reduce_max(
      site_vmax, interior,
      {par::in(st.vr.id()), par::in(st.vt.id()), par::in(st.vp.id())},
      [&](idx i, idx j, idx k) {
        return std::sqrt(sq(st.vr(i, j, k)) + sq(st.vt(i, j, k)) +
                         sq(st.vp(i, j, k)));
      }));
  return d;
}

}  // namespace simas::mhd
