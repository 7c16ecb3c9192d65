#pragma once
// Finite-volume cell geometry of one rank's slab, tabulated once per
// LocalGrid. Cell volumes and face areas depend only on (i, j) — φ is
// uniform — so every entry is a small 2-D (i, j) plane or a 1-D array,
// never a 3-D field. Kernels read the tables instead of re-evaluating
// std::pow(r, 3) and std::cos(θ) per cell per call.
//
// Bit-identity contract: each entry is computed with exactly the
// expression (operands and operator order) the kernels used inline, and
// stored values are left prefixes of the kernels' products, e.g.
// area_r = sq(rf) * (cos θ_j - cos θ_{j+1}) * dph. A kernel that computes
// `area_r(i, j) * kf * ...` therefore rounds exactly as the inline
// `sq(rf) * (ctj0 - ctj1) * dph * kf * ...` did. This relies on the
// library being compiled without FMA contraction (-ffp-contract=off,
// src/CMakeLists.txt).
//
// Metric is grid data like the LocalGrid coordinates, not a Field: it has
// no array id, no Access entries and no modeled cost.

#include <vector>

#include "util/types.hpp"

namespace simas::grid {

class LocalGrid;

/// Flux-form scalar Laplacian coefficients at one cell, A_face / (d * V)
/// per face (φ: the coefficient of the second difference). Physical
/// radial and θ walls are zero-flux, so their face coefficient is 0; rank
/// boundaries and the periodic φ direction read exchanged ghosts.
struct LapCoeffs {
  real cr0 = 0.0, cr1 = 0.0;  ///< r faces i and i+1
  real ct0 = 0.0, ct1 = 0.0;  ///< θ faces j and j+1
  real cp = 0.0;              ///< φ
};

class Metric {
 public:
  Metric() = default;
  /// Tabulate the geometry of `lg`'s slab (uses only its 1-D coordinates
  /// and boundary flags).
  explicit Metric(const LocalGrid& lg);

  /// Cell volume ∫ r² sinθ dr dθ dφ, i in [0, nloc), j in [0, nt).
  real vol(idx i, idx j) const { return vol_[at(i, j, nloc_)]; }
  /// Area of r-face i (radius rf(i)), i in [0, nloc], j in [0, nt).
  real area_r(idx i, idx j) const { return area_r_[at(i, j, nloc_ + 1)]; }
  /// Area of θ-face j, i in [0, nloc), j in [0, nt].
  real area_t(idx i, idx j) const { return area_t_[at(i, j, nloc_)]; }
  /// Area of a φ-face, i in [0, nloc), j in [0, nt).
  real area_p(idx i, idx j) const { return area_p_[at(i, j, nloc_)]; }
  /// φ flux coefficient area_p / (r sinθ dφ): multiplies a φ difference
  /// to give the face flux. i in [0, nloc), j in [0, nt).
  real coef_p(idx i, idx j) const { return coef_p_[at(i, j, nloc_)]; }
  /// cot θ at cell centres, j in [0, nt).
  real cot(idx j) const { return cot_[static_cast<std::size_t>(j)]; }
  /// Viscosity Laplacian coefficients (walls zeroed), i in [0, nloc),
  /// j in [0, nt).
  const LapCoeffs& lap(idx i, idx j) const { return lap_[at(i, j, nloc_)]; }
  /// Smallest cell width min(dr, min(r dθ, r sinθ dφ)): the CFL length
  /// and the Jacobi preconditioners' stencil scale. i in [0, nloc),
  /// j in [0, nt).
  real min_width(idx i, idx j) const { return min_width_[at(i, j, nloc_)]; }

 private:
  static std::size_t at(idx i, idx j, idx ni) {
    return static_cast<std::size_t>(i + ni * j);  // i fastest, as in Array3
  }

  idx nloc_ = 0;
  std::vector<real> vol_, area_r_, area_t_, area_p_, coef_p_, cot_,
      min_width_;
  std::vector<LapCoeffs> lap_;
};

}  // namespace simas::grid
