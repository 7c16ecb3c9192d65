#pragma once
// Logically rectangular, non-uniform, staggered spherical grid (r, θ, φ) —
// the MAS discretization substrate (paper Sec. III).
//
// Staggering (Yee-like, for constrained transport):
//   * scalars (ρ, T) and velocity components at cell centers (i, j, k);
//   * Br on r-faces (i = 0..nr), Bθ on θ-faces, Bφ on φ-faces;
//   * EMFs on the corresponding cell edges.
//
// θ covers a wedge [θ0, θ1] strictly inside (0, π) to avoid the polar
// coordinate singularity (MAS handles poles with special averaging; the
// wedge preserves the same loop and communication structure). φ is
// periodic on [0, 2π).
//
// Index convention matches MAS Fortran loops: i = r (fastest), j = θ,
// k = φ.

#include <vector>

#include "util/types.hpp"

namespace simas::grid {

struct GridConfig {
  idx nr = 32, nt = 24, np = 48;
  real r0 = 1.0;         ///< inner boundary (solar surface), code units
  real r1 = 2.5;         ///< outer boundary
  real theta0 = 0.3;     ///< wedge start (rad)
  real theta1 = kPi - 0.3;
  real r_stretch = 4.0;  ///< last/first radial cell width ratio
  real t_stretch = 1.0;  ///< θ stretching ratio
};

class SphericalGrid {
 public:
  explicit SphericalGrid(const GridConfig& cfg);

  const GridConfig& config() const { return cfg_; }
  idx nr() const { return cfg_.nr; }
  idx nt() const { return cfg_.nt; }
  idx np() const { return cfg_.np; }
  i64 cell_count() const {
    return static_cast<i64>(cfg_.nr) * cfg_.nt * cfg_.np;
  }

  // 1-D coordinate arrays (global index space, no ghosts).
  real r_face(idx i) const { return rf_[static_cast<std::size_t>(i)]; }
  real r_center(idx i) const { return rc_[static_cast<std::size_t>(i)]; }
  real dr(idx i) const { return drc_[static_cast<std::size_t>(i)]; }
  /// Distance between adjacent cell centers (for face gradients);
  /// i in [0, nr] with one-sided values at the boundaries.
  real dr_face(idx i) const { return drf_[static_cast<std::size_t>(i)]; }

  real th_face(idx j) const { return tf_[static_cast<std::size_t>(j)]; }
  real th_center(idx j) const { return tc_[static_cast<std::size_t>(j)]; }
  real dth(idx j) const { return dtc_[static_cast<std::size_t>(j)]; }
  real dth_face(idx j) const { return dtf_[static_cast<std::size_t>(j)]; }

  real dph() const { return dph_; }
  real ph_center(idx k) const {
    return (static_cast<real>(k) + 0.5) * dph_;
  }

  // Metric helpers at centers.
  real sin_th(idx j) const { return stc_[static_cast<std::size_t>(j)]; }
  real sin_th_face(idx j) const { return stf_[static_cast<std::size_t>(j)]; }

  // Cell volumes and face areas live in grid::Metric (per LocalGrid).

 private:
  GridConfig cfg_;
  std::vector<real> rf_, rc_, drc_, drf_;
  std::vector<real> tf_, tc_, dtc_, dtf_;
  std::vector<real> stc_, stf_;
  real dph_ = 0.0;
};

}  // namespace simas::grid
