#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>

#include "field/array3.hpp"
#include "grid/local_grid.hpp"
#include "grid/spherical_grid.hpp"
#include "grid/stretching.hpp"

namespace simas {
namespace {

using grid::GridConfig;
using grid::SphericalGrid;

TEST(Stretching, UniformMesh) {
  const auto f = grid::geometric_faces(4, 0.0, 1.0, 1.0);
  ASSERT_EQ(f.size(), 5u);
  for (int i = 0; i <= 4; ++i) EXPECT_NEAR(f[i], i * 0.25, 1e-14);
}

TEST(Stretching, GeometricRatioHonored) {
  const idx n = 16;
  const double ratio = 5.0;
  const auto f = grid::geometric_faces(n, 1.0, 2.5, ratio);
  const auto w = grid::widths_of(f);
  EXPECT_NEAR(w.back() / w.front(), ratio, 1e-9);
  EXPECT_NEAR(f.front(), 1.0, 1e-14);
  EXPECT_NEAR(f.back(), 2.5, 1e-14);
  // Faces strictly increasing.
  for (std::size_t i = 1; i < f.size(); ++i) EXPECT_GT(f[i], f[i - 1]);
  // Widths sum to the extent.
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 1.5, 1e-12);
}

TEST(Stretching, CentersAreMidpoints) {
  const auto f = grid::geometric_faces(8, 0.0, 2.0, 3.0);
  const auto c = grid::centers_of(f);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], 0.5 * (f[i] + f[i + 1]), 1e-14);
}

TEST(Stretching, RejectsBadInput) {
  EXPECT_THROW(grid::geometric_faces(0, 0.0, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(grid::geometric_faces(4, 1.0, 0.5, 1.0),
               std::invalid_argument);
  EXPECT_THROW(grid::geometric_faces(4, 0.0, 1.0, -2.0),
               std::invalid_argument);
}

/// One rank owning the whole radial extent.
grid::LocalGrid whole_slab(const SphericalGrid& g) {
  return grid::LocalGrid(g, mpisim::radial_slab(g.nr(), 1, 0));
}

class SphericalGridTest : public ::testing::TestWithParam<double> {};

TEST_P(SphericalGridTest, VolumesSumToWedgeVolume) {
  GridConfig cfg;
  cfg.nr = 12;
  cfg.nt = 9;
  cfg.np = 14;
  cfg.r_stretch = GetParam();
  const SphericalGrid g(cfg);
  const grid::LocalGrid lg = whole_slab(g);
  const grid::Metric& mt = lg.metric();
  double total = 0.0;
  for (idx i = 0; i < cfg.nr; ++i)
    for (idx j = 0; j < cfg.nt; ++j)
      total += mt.vol(i, j) * static_cast<double>(cfg.np);
  const double expected = 2.0 * kPi *
                          (std::pow(cfg.r1, 3) - std::pow(cfg.r0, 3)) / 3.0 *
                          (std::cos(cfg.theta0) - std::cos(cfg.theta1));
  EXPECT_NEAR(total / expected, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Stretch, SphericalGridTest,
                         ::testing::Values(1.0, 2.0, 4.0, 10.0));

TEST(SphericalGrid, AreasAndMetricPositive) {
  GridConfig cfg;
  const SphericalGrid g(cfg);
  const grid::LocalGrid lg = whole_slab(g);
  const grid::Metric& mt = lg.metric();
  for (idx i = 0; i <= cfg.nr; i += 7) {
    for (idx j = 0; j < cfg.nt; j += 3) {
      EXPECT_GT(mt.area_r(i, j), 0.0);
    }
  }
  for (idx i = 0; i < cfg.nr; ++i)
    for (idx j = 0; j < cfg.nt; ++j) {
      EXPECT_GT(mt.vol(i, j), 0.0);
      EXPECT_GT(mt.area_t(i, j), 0.0);
      EXPECT_GT(mt.area_p(i, j), 0.0);
    }
  for (idx j = 0; j <= cfg.nt; ++j) EXPECT_GT(g.sin_th_face(j), 0.0);
  for (idx j = 0; j < cfg.nt; ++j) EXPECT_GT(g.sin_th(j), 0.0);
}

TEST(SphericalGrid, GaussDivergenceIdentity) {
  // Closed-cell area identity: for a radial-direction constant vector
  // field (1,0,0)*r^-2 (flux = const through r-faces), net flux must be
  // zero cell by cell: A_r(i+1)/r_f(i+1)^2 == A_r(i)/r_f(i)^2.
  GridConfig cfg;
  const SphericalGrid g(cfg);
  const grid::LocalGrid lg = whole_slab(g);
  const grid::Metric& mt = lg.metric();
  for (idx i = 0; i < cfg.nr; ++i)
    for (idx j = 0; j < cfg.nt; ++j) {
      const double f0 = mt.area_r(i, j) / sq(g.r_face(i));
      const double f1 = mt.area_r(i + 1, j) / sq(g.r_face(i + 1));
      EXPECT_NEAR(f0, f1, 1e-12 * f0);
    }
}

// grid::Metric must reproduce, bit for bit, the cell geometry the kernels
// used to evaluate inline: the expressions below are those inline forms.
// Bitwise equality assumes no FMA contraction, which SIMAS builds with
// (-ffp-contract=off on the simas target, propagated to its consumers).
u64 bits(real v) { return std::bit_cast<u64>(v); }

grid::LapCoeffs inline_lap_coeffs(const grid::LocalGrid& lg, idx i, idx j) {
  const idx nloc = lg.nloc(), nt = lg.nt();
  const real dph = lg.dph();
  const real ctj0 = std::cos(lg.tf(j)), ctj1 = std::cos(lg.tf(j + 1));
  const real vol = (std::pow(lg.rf(i + 1), 3) - std::pow(lg.rf(i), 3)) / 3.0 *
                   (ctj0 - ctj1) * dph;
  const real alin = (sq(lg.rf(i + 1)) - sq(lg.rf(i))) / 2.0;
  grid::LapCoeffs cf;
  if (!(lg.at_inner_boundary() && i == 0))
    cf.cr0 = sq(lg.rf(i)) * (ctj0 - ctj1) * dph / (lg.drf(i) * vol);
  if (!(lg.at_outer_boundary() && i == nloc - 1))
    cf.cr1 = sq(lg.rf(i + 1)) * (ctj0 - ctj1) * dph / (lg.drf(i + 1) * vol);
  if (j > 0)
    cf.ct0 = alin * lg.stf(j) * dph / (lg.rc(i) * lg.dtf(j) * vol);
  if (j < nt - 1)
    cf.ct1 = alin * lg.stf(j + 1) * dph / (lg.rc(i) * lg.dtf(j + 1) * vol);
  cf.cp = alin * lg.dtc(j) / (lg.rc(i) * lg.stc(j) * dph * vol);
  return cf;
}

class MetricBitwise : public ::testing::TestWithParam<int> {};

TEST_P(MetricBitwise, EntriesEqualInlineExpressions) {
  GridConfig cfg;
  cfg.nr = 13;
  cfg.nt = 7;
  cfg.np = 8;
  cfg.r_stretch = 6.0;
  cfg.t_stretch = 1.5;
  const SphericalGrid g(cfg);
  const int nranks = GetParam();
  for (int rank = 0; rank < nranks; ++rank) {
    const grid::LocalGrid lg(g, mpisim::radial_slab(cfg.nr, nranks, rank));
    const grid::Metric& mt = lg.metric();
    const idx nloc = lg.nloc(), nt = lg.nt();
    const real dph = lg.dph();
    SCOPED_TRACE("rank " + std::to_string(rank) + " of " +
                 std::to_string(nranks));
    for (idx j = 0; j < nt; ++j) {
      ASSERT_EQ(bits(mt.cot(j)), bits(std::cos(lg.tc(j)) / lg.stc(j)));
      const real ctj0 = std::cos(lg.tf(j)), ctj1 = std::cos(lg.tf(j + 1));
      for (idx i = 0; i <= nloc; ++i)
        ASSERT_EQ(bits(mt.area_r(i, j)),
                  bits(sq(lg.rf(i)) * (ctj0 - ctj1) * dph))
            << "area_r " << i << "," << j;
    }
    for (idx j = 0; j <= nt; ++j)
      for (idx i = 0; i < nloc; ++i) {
        const real alin = (sq(lg.rf(i + 1)) - sq(lg.rf(i))) / 2.0;
        ASSERT_EQ(bits(mt.area_t(i, j)), bits(alin * lg.stf(j) * dph))
            << "area_t " << i << "," << j;
      }
    for (idx j = 0; j < nt; ++j)
      for (idx i = 0; i < nloc; ++i) {
        const real vol =
            (std::pow(lg.rf(i + 1), 3) - std::pow(lg.rf(i), 3)) / 3.0 *
            (std::cos(lg.tf(j)) - std::cos(lg.tf(j + 1))) * dph;
        const real alin = (sq(lg.rf(i + 1)) - sq(lg.rf(i))) / 2.0;
        ASSERT_EQ(bits(mt.vol(i, j)), bits(vol)) << "vol " << i << "," << j;
        ASSERT_EQ(bits(mt.area_p(i, j)), bits(alin * lg.dtc(j)));
        ASSERT_EQ(bits(mt.coef_p(i, j)),
                  bits(alin * lg.dtc(j) / (lg.rc(i) * lg.stc(j) * dph)));
        ASSERT_EQ(bits(mt.min_width(i, j)),
                  bits(std::min(lg.drc(i),
                                std::min(lg.rc(i) * lg.dtc(j),
                                         lg.rc(i) * lg.stc(j) * lg.dph()))))
            << "min_width " << i << "," << j;
        const grid::LapCoeffs want = inline_lap_coeffs(lg, i, j);
        const grid::LapCoeffs& got = mt.lap(i, j);
        ASSERT_EQ(bits(got.cr0), bits(want.cr0)) << "cr0 " << i << "," << j;
        ASSERT_EQ(bits(got.cr1), bits(want.cr1)) << "cr1 " << i << "," << j;
        ASSERT_EQ(bits(got.ct0), bits(want.ct0)) << "ct0 " << i << "," << j;
        ASSERT_EQ(bits(got.ct1), bits(want.ct1)) << "ct1 " << i << "," << j;
        ASSERT_EQ(bits(got.cp), bits(want.cp)) << "cp " << i << "," << j;
      }
    // The zero-flux walls are zeroed on the ranks that own them and only
    // there: rank faces keep their coupling to the neighbour's ghosts.
    EXPECT_EQ(mt.lap(0, 2).cr0 == 0.0, lg.at_inner_boundary());
    EXPECT_EQ(mt.lap(nloc - 1, 2).cr1 == 0.0, lg.at_outer_boundary());
    EXPECT_EQ(mt.lap(1, 0).ct0, 0.0);
    EXPECT_EQ(mt.lap(1, nt - 1).ct1, 0.0);
  }
}

// 1 rank: both walls on one slab; 2 ranks: an inner- and an outer-wall
// rank; 3 ranks: adds an interior rank with no physical wall.
INSTANTIATE_TEST_SUITE_P(Ranks, MetricBitwise, ::testing::Values(1, 2, 3));

TEST(SphericalGrid, RejectsPoles) {
  GridConfig cfg;
  cfg.theta0 = 0.0;  // pole included -> singular metric
  EXPECT_THROW(SphericalGrid{cfg}, std::invalid_argument);
}

TEST(LocalGrid, MatchesGlobalCoordinatesInsideSlab) {
  GridConfig cfg;
  cfg.nr = 20;
  const SphericalGrid g(cfg);
  const auto slab = mpisim::radial_slab(cfg.nr, 4, 2);
  const grid::LocalGrid lg(g, slab);
  for (idx i = 0; i < lg.nloc(); ++i) {
    EXPECT_DOUBLE_EQ(lg.rc(i), g.r_center(slab.ilo + i));
    EXPECT_DOUBLE_EQ(lg.rf(i), g.r_face(slab.ilo + i));
  }
  // Interior-rank ghosts are the neighbour's true metric.
  EXPECT_DOUBLE_EQ(lg.rc(-1), g.r_center(slab.ilo - 1));
  EXPECT_DOUBLE_EQ(lg.rc(lg.nloc()), g.r_center(slab.ihi));
}

TEST(LocalGrid, PhysicalBoundaryGhostsMirrored) {
  GridConfig cfg;
  cfg.nr = 10;
  const SphericalGrid g(cfg);
  const auto slab = mpisim::radial_slab(cfg.nr, 1, 0);
  const grid::LocalGrid lg(g, slab);
  // Ghost center below the inner face mirrors across r0.
  EXPECT_NEAR(lg.rc(-1), 2.0 * cfg.r0 - g.r_center(0), 1e-14);
  EXPECT_NEAR(lg.rc(10), 2.0 * cfg.r1 - g.r_center(9), 1e-14);
  EXPECT_TRUE(lg.at_inner_boundary());
  EXPECT_TRUE(lg.at_outer_boundary());
}

TEST(Array3, IndexingWithGhosts) {
  field::Array3 a(3, 4, 5, 2, -1.0);
  EXPECT_EQ(a.n1(), 3);
  EXPECT_EQ(a.nghost(), 2);
  EXPECT_EQ(a.size(), (3 + 4) * (4 + 4) * (5 + 4));
  a(-2, -2, -2) = 7.0;
  a(4, 5, 6) = 8.0;  // far ghost corner
  a(1, 2, 3) = 9.0;
  EXPECT_DOUBLE_EQ(a(-2, -2, -2), 7.0);
  EXPECT_DOUBLE_EQ(a(4, 5, 6), 8.0);
  EXPECT_DOUBLE_EQ(a(1, 2, 3), 9.0);
  EXPECT_DOUBLE_EQ(a(0, 0, 0), -1.0);
}

TEST(Array3, InteriorNorms) {
  field::Array3 a(2, 2, 2, 1, 0.0);
  a(0, 0, 0) = 3.0;
  a(1, 1, 1) = -4.0;
  a(-1, 0, 0) = 100.0;  // ghost: excluded from interior norms
  EXPECT_DOUBLE_EQ(a.norm2_interior(), 5.0);
  EXPECT_DOUBLE_EQ(a.max_abs_interior(), 4.0);
}

TEST(Array3, MaxAbsKeepsANaNCell) {
  // std::max(acc, NaN) returns acc: a max fold built on it reads an
  // all-NaN field as zero.
  field::Array3 a(3, 2, 2, 1, 0.0);
  a(1, 0, 0) = std::nan("");
  a(2, 1, 1) = 5.0;
  EXPECT_TRUE(std::isnan(a.max_abs_interior()));
}

TEST(Array3, FillSetsEverything) {
  field::Array3 a(2, 2, 2, 1);
  a.fill(2.5);
  EXPECT_DOUBLE_EQ(a(-1, -1, -1), 2.5);
  EXPECT_DOUBLE_EQ(a(2, 2, 2), 2.5);
}

}  // namespace
}  // namespace simas
