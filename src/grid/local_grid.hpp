#pragma once
// Per-rank view of the global spherical grid for a radial slab, with
// ghost-extended 1-D coordinate arrays so stencil kernels can index
// i in [-1, nloc] without branching. At physical radial boundaries the
// ghost metric is mirrored; at rank interfaces it is the neighbour's true
// metric (the grid is globally defined, so no communication is needed).
// The slab's cell volumes, face areas and Laplacian coefficients are
// tabulated once, in metric() (grid/metric.hpp).

#include <algorithm>
#include <vector>

#include "grid/metric.hpp"
#include "grid/spherical_grid.hpp"
#include "mpisim/decomposition.hpp"
#include "util/types.hpp"

namespace simas::grid {

class LocalGrid {
 public:
  LocalGrid(const SphericalGrid& g, const mpisim::Slab& slab)
      : g_(g), slab_(slab), nloc_(slab.n()) {
    const idx nr = g.nr();
    rc_.resize(static_cast<std::size_t>(nloc_ + 2));
    drc_.resize(static_cast<std::size_t>(nloc_ + 2));
    for (idx i = -1; i <= nloc_; ++i) {
      idx gi = slab.ilo + i;
      if (gi < 0) gi = 0;          // mirror width at the inner boundary
      if (gi >= nr) gi = nr - 1;   // mirror width at the outer boundary
      rc_[static_cast<std::size_t>(i + 1)] =
          (slab.ilo + i < 0)
              ? 2.0 * g.r_face(0) - g.r_center(0)
              : (slab.ilo + i >= nr ? 2.0 * g.r_face(nr) - g.r_center(nr - 1)
                                    : g.r_center(slab.ilo + i));
      drc_[static_cast<std::size_t>(i + 1)] = g.dr(gi);
    }
    rf_.resize(static_cast<std::size_t>(nloc_ + 2));
    drf_.resize(static_cast<std::size_t>(nloc_ + 2));
    for (idx i = 0; i <= nloc_ + 1; ++i) {
      const idx gi = std::min<idx>(slab.ilo + i, nr);
      rf_[static_cast<std::size_t>(i)] = g.r_face(gi);
      drf_[static_cast<std::size_t>(i)] = g.dr_face(gi);
    }
    metric_ = Metric(*this);
  }

  const SphericalGrid& global() const { return g_; }
  const mpisim::Slab& slab() const { return slab_; }
  idx nloc() const { return nloc_; }
  idx nt() const { return g_.nt(); }
  idx np() const { return g_.np(); }

  bool at_inner_boundary() const { return slab_.rank_below < 0; }
  bool at_outer_boundary() const { return slab_.rank_above < 0; }

  /// Cell-center radius, i in [-1, nloc].
  real rc(idx i) const { return rc_[static_cast<std::size_t>(i + 1)]; }
  /// Radial cell width, i in [-1, nloc].
  real drc(idx i) const { return drc_[static_cast<std::size_t>(i + 1)]; }
  /// Face radius, i in [0, nloc + 1] (local face i is global face ilo + i).
  real rf(idx i) const { return rf_[static_cast<std::size_t>(i)]; }
  /// Center-to-center distance across face i.
  real drf(idx i) const { return drf_[static_cast<std::size_t>(i)]; }

  // θ / φ metric forwarded from the global grid (not decomposed).
  real tc(idx j) const { return g_.th_center(clamp_t(j)); }
  real tf(idx j) const { return g_.th_face(clamp_tf(j)); }
  real dtc(idx j) const { return g_.dth(clamp_t(j)); }
  real dtf(idx j) const { return g_.dth_face(clamp_tf(j)); }
  real stc(idx j) const { return g_.sin_th(clamp_t(j)); }
  real stf(idx j) const { return g_.sin_th_face(clamp_tf(j)); }
  real dph() const { return g_.dph(); }

  /// Cell volumes, face areas and Laplacian coefficients of this slab.
  const Metric& metric() const { return metric_; }

 private:
  idx clamp_t(idx j) const {
    if (j < 0) return 0;
    if (j >= g_.nt()) return g_.nt() - 1;
    return j;
  }
  idx clamp_tf(idx j) const {
    if (j < 0) return 0;
    if (j > g_.nt()) return g_.nt();
    return j;
  }

  const SphericalGrid& g_;
  mpisim::Slab slab_;
  idx nloc_;
  std::vector<real> rc_, drc_, rf_, drf_;
  Metric metric_;
};

}  // namespace simas::grid
