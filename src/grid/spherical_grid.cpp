#include "grid/spherical_grid.hpp"

#include <cmath>
#include <stdexcept>

#include "grid/stretching.hpp"

namespace simas::grid {

SphericalGrid::SphericalGrid(const GridConfig& cfg) : cfg_(cfg) {
  if (cfg.nr < 2 || cfg.nt < 2 || cfg.np < 2)
    throw std::invalid_argument("SphericalGrid: need at least 2 cells/dim");
  if (!(cfg.r0 > 0.0 && cfg.r1 > cfg.r0))
    throw std::invalid_argument("SphericalGrid: bad radial extent");
  if (!(cfg.theta0 > 0.0 && cfg.theta1 < kPi && cfg.theta1 > cfg.theta0))
    throw std::invalid_argument("SphericalGrid: θ wedge must be in (0, π)");

  rf_ = geometric_faces(cfg.nr, cfg.r0, cfg.r1, cfg.r_stretch);
  rc_ = centers_of(rf_);
  drc_ = widths_of(rf_);
  tf_ = geometric_faces(cfg.nt, cfg.theta0, cfg.theta1, cfg.t_stretch);
  tc_ = centers_of(tf_);
  dtc_ = widths_of(tf_);
  dph_ = 2.0 * kPi / static_cast<real>(cfg.np);

  // Center-to-center spacings at faces (one-sided at domain boundaries).
  drf_.resize(static_cast<std::size_t>(cfg.nr + 1));
  drf_[0] = rc_[0] - rf_[0];
  for (idx i = 1; i < cfg.nr; ++i)
    drf_[static_cast<std::size_t>(i)] =
        rc_[static_cast<std::size_t>(i)] - rc_[static_cast<std::size_t>(i - 1)];
  drf_[static_cast<std::size_t>(cfg.nr)] =
      rf_[static_cast<std::size_t>(cfg.nr)] -
      rc_[static_cast<std::size_t>(cfg.nr - 1)];

  dtf_.resize(static_cast<std::size_t>(cfg.nt + 1));
  dtf_[0] = tc_[0] - tf_[0];
  for (idx j = 1; j < cfg.nt; ++j)
    dtf_[static_cast<std::size_t>(j)] =
        tc_[static_cast<std::size_t>(j)] - tc_[static_cast<std::size_t>(j - 1)];
  dtf_[static_cast<std::size_t>(cfg.nt)] =
      tf_[static_cast<std::size_t>(cfg.nt)] -
      tc_[static_cast<std::size_t>(cfg.nt - 1)];

  stc_.resize(tc_.size());
  for (std::size_t j = 0; j < tc_.size(); ++j) stc_[j] = std::sin(tc_[j]);
  stf_.resize(tf_.size());
  for (std::size_t j = 0; j < tf_.size(); ++j) stf_[j] = std::sin(tf_[j]);
}

}  // namespace simas::grid
