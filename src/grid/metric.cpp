#include "grid/metric.hpp"

#include <algorithm>
#include <cmath>

#include "grid/local_grid.hpp"

namespace simas::grid {

Metric::Metric(const LocalGrid& lg) : nloc_(lg.nloc()) {
  const idx nloc = lg.nloc(), nt = lg.nt();
  const real dph = lg.dph();
  const auto plane = static_cast<std::size_t>(nloc * nt);
  vol_.resize(plane);
  area_r_.resize(static_cast<std::size_t>((nloc + 1) * nt));
  area_t_.resize(static_cast<std::size_t>(nloc * (nt + 1)));
  area_p_.resize(plane);
  coef_p_.resize(plane);
  cot_.resize(static_cast<std::size_t>(nt));
  lap_.resize(plane);
  min_width_.resize(plane);

  std::vector<real> ctf(static_cast<std::size_t>(nt + 1));
  for (idx j = 0; j <= nt; ++j)
    ctf[static_cast<std::size_t>(j)] = std::cos(lg.tf(j));
  const auto dcos = [&](idx j) {  // cos θ_j - cos θ_{j+1}
    return ctf[static_cast<std::size_t>(j)] -
           ctf[static_cast<std::size_t>(j + 1)];
  };

  for (idx j = 0; j < nt; ++j) {
    cot_[static_cast<std::size_t>(j)] = std::cos(lg.tc(j)) / lg.stc(j);
    for (idx i = 0; i <= nloc; ++i)
      area_r_[at(i, j, nloc + 1)] = sq(lg.rf(i)) * dcos(j) * dph;
  }
  for (idx j = 0; j <= nt; ++j)
    for (idx i = 0; i < nloc; ++i) {
      const real alin = (sq(lg.rf(i + 1)) - sq(lg.rf(i))) / 2.0;
      area_t_[at(i, j, nloc)] = alin * lg.stf(j) * dph;
    }

  const bool inner_wall = lg.at_inner_boundary();
  const bool outer_wall = lg.at_outer_boundary();
  for (idx j = 0; j < nt; ++j)
    for (idx i = 0; i < nloc; ++i) {
      const std::size_t c = at(i, j, nloc);
      const real vol =
          (std::pow(lg.rf(i + 1), 3) - std::pow(lg.rf(i), 3)) / 3.0 *
          dcos(j) * dph;
      const real alin = (sq(lg.rf(i + 1)) - sq(lg.rf(i))) / 2.0;
      vol_[c] = vol;
      area_p_[c] = alin * lg.dtc(j);
      coef_p_[c] = area_p_[c] / (lg.rc(i) * lg.stc(j) * dph);
      min_width_[c] = std::min(
          lg.drc(i), std::min(lg.rc(i) * lg.dtc(j), lg.rc(i) * lg.stc(j) * dph));

      LapCoeffs& cf = lap_[c];
      if (!(inner_wall && i == 0))
        cf.cr0 = area_r(i, j) / (lg.drf(i) * vol);
      if (!(outer_wall && i == nloc - 1))
        cf.cr1 = area_r(i + 1, j) / (lg.drf(i + 1) * vol);
      if (j > 0) cf.ct0 = area_t(i, j) / (lg.rc(i) * lg.dtf(j) * vol);
      if (j < nt - 1)
        cf.ct1 = area_t(i, j + 1) / (lg.rc(i) * lg.dtf(j + 1) * vol);
      cf.cp = area_p_[c] / (lg.rc(i) * lg.stc(j) * dph * vol);
    }
}

}  // namespace simas::grid
