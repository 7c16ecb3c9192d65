// Potential-field (PFSS) initializer tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "bench_support/paper_scale.hpp"
#include "mhd/pfss.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "variants/code_version.hpp"

namespace simas::mhd {
namespace {

SolverConfig pfss_cfg() {
  SolverConfig cfg;
  cfg.grid.nr = 16;
  cfg.grid.nt = 12;
  cfg.grid.np = 16;
  return cfg;
}

template <class Fn>
void with_solver(const SolverConfig& cfg, int nranks, Fn&& fn) {
  mpisim::World world(nranks);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 2));
    mpisim::Comm comm(world, rank, engine);
    MasSolver solver(engine, comm, cfg);
    solver.initialize();
    fn(solver);
  });
}

TEST(Pfss, ConvergesAndMatchesSurfaceBr) {
  with_solver(pfss_cfg(), 1, [&](MasSolver& solver) {
    auto& c = solver.context();
    const auto res = pfss_initialize(c, dipole_surface_br(1.0), 1e-10, 800);
    EXPECT_TRUE(res.converged);
    EXPECT_GT(res.iterations, 0);
    // Inner-boundary Br equals the prescription exactly (it is imposed).
    auto& st = solver.state();
    const auto& lg = solver.local_grid();
    for (idx j = 0; j < st.nt; ++j)
      EXPECT_NEAR(st.br(0, j, 3), 2.0 * std::cos(lg.tc(j)), 1e-12);
  });
}

TEST(Pfss, FieldIsDivergenceFreeToSolverTolerance) {
  with_solver(pfss_cfg(), 1, [&](MasSolver& solver) {
    auto& c = solver.context();
    const auto res = pfss_initialize(c, dipole_surface_br(1.0), 1e-11, 800);
    ASSERT_TRUE(res.converged);
    // div B = -∇²Φ = residual of the solve: small but not round-off.
    EXPECT_LT(res.max_div_b, 1e-6);
  });
}

TEST(Pfss, ZeroSurfaceFieldGivesZeroField) {
  with_solver(pfss_cfg(), 1, [&](MasSolver& solver) {
    auto& c = solver.context();
    const auto res = pfss_initialize(
        c, [](real, real) { return 0.0; }, 1e-10, 100);
    EXPECT_TRUE(res.converged);
    auto& st = solver.state();
    EXPECT_LT(st.br.a().max_abs_interior(), 1e-12);
    EXPECT_LT(st.bt.a().max_abs_interior(), 1e-12);
    EXPECT_LT(st.bp.a().max_abs_interior(), 1e-12);
  });
}

TEST(Pfss, NanSurfaceFieldGivesNanDivergence) {
  // The div B fold must keep a NaN: std::max(acc, NaN) returns acc, so a
  // NaN boundary field used to report max_div_b = 0.
  with_solver(pfss_cfg(), 1, [&](MasSolver& solver) {
    auto& c = solver.context();
    const auto res = pfss_initialize(
        c, [](real, real) { return std::nan(""); }, 1e-10, 100);
    EXPECT_FALSE(res.converged);
    EXPECT_TRUE(std::isnan(res.max_div_b));
  });
}

TEST(Pfss, AxisymmetricSourceGivesAxisymmetricField) {
  with_solver(pfss_cfg(), 1, [&](MasSolver& solver) {
    auto& c = solver.context();
    ASSERT_TRUE(
        pfss_initialize(c, dipole_surface_br(1.0), 1e-10, 800).converged);
    auto& st = solver.state();
    // No φ dependence in the source -> Bφ = 0 and Br independent of k.
    EXPECT_LT(st.bp.a().max_abs_interior(), 1e-8);
    for (idx k = 1; k < st.np; ++k)
      EXPECT_NEAR(st.br(5, 3, k), st.br(5, 3, 0), 1e-8);
  });
}

TEST(Pfss, FieldStrengthDecaysOutward) {
  with_solver(pfss_cfg(), 1, [&](MasSolver& solver) {
    auto& c = solver.context();
    ASSERT_TRUE(
        pfss_initialize(c, dipole_surface_br(1.0), 1e-10, 800).converged);
    auto& st = solver.state();
    // Potential dipole-like field: |Br| at the equator-ish latitude
    // decreases with radius.
    const idx j = 1;  // near the wedge edge (strong Br for a dipole)
    EXPECT_GT(std::abs(st.br(0, j, 0)), std::abs(st.br(8, j, 0)));
    EXPECT_GT(std::abs(st.br(8, j, 0)), std::abs(st.br(15, j, 0)));
  });
}

TEST(Pfss, DecomposedSolveMatchesSingleRank) {
  std::vector<real> ref;
  with_solver(pfss_cfg(), 1, [&](MasSolver& solver) {
    auto& c = solver.context();
    ASSERT_TRUE(
        pfss_initialize(c, dipole_surface_br(1.0), 1e-11, 800).converged);
    auto& st = solver.state();
    for (idx i = 0; i <= st.nloc; ++i) ref.push_back(st.br(i, 2, 5));
  });
  std::vector<real> got(ref.size(), 1e300);
  std::mutex m;
  mpisim::World world(4);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 1));
    mpisim::Comm comm(world, rank, engine);
    MasSolver solver(engine, comm, pfss_cfg());
    solver.initialize();
    auto& c = solver.context();
    ASSERT_TRUE(
        pfss_initialize(c, dipole_surface_br(1.0), 1e-11, 800).converged);
    auto& st = solver.state();
    const auto& slab = solver.local_grid().slab();
    std::lock_guard<std::mutex> lock(m);
    for (idx i = 0; i <= st.nloc; ++i)
      got[static_cast<std::size_t>(slab.ilo + i)] = st.br(i, 2, 5);
  });
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(got[i], ref[i], 1e-7 * (std::abs(ref[i]) + 1e-6)) << i;
}

TEST(Pfss, SolverEvolvesPfssFieldStably) {
  with_solver(pfss_cfg(), 1, [&](MasSolver& solver) {
    auto& c = solver.context();
    ASSERT_TRUE(
        pfss_initialize(c, dipole_surface_br(1.0), 1e-10, 800).converged);
    const real divb0 =
        pfss_initialize(c, dipole_surface_br(1.0), 1e-10, 800).max_div_b;
    solver.run(3);
    const auto d = solver.diagnostics();
    // CT preserves whatever (small) div B the initializer left.
    EXPECT_LT(d.max_div_b, divb0 * 10 + 1e-8);
    EXPECT_TRUE(std::isfinite(d.kinetic_energy));
  });
}

// ---------------------------------------------------------------------
// PhysicsOrder: the discretization against closed forms.

TEST(PhysicsOrder, PfssMonopoleIsExactOnEveryRFace) {
  // A uniform surface Br = B0 is a monopole. The flux-form operator keeps
  // area x Br constant across r-faces, so the discrete solution is the
  // exact Br = B0 (r0 / r_f)^2 on every r-face, with Btheta = 0, up to the
  // solve's tolerance; and PCG, facing a purely radial problem, converges
  // in nr iterations, or nr + 1.
  //
  // Measured over both grids, r_stretch 1 and 4, 1 and 2 ranks: the
  // largest relative error (Br, and |Btheta| / B0) is 7.2e-13 at tol 1e-9
  // and 1.3e-14 at tol 1e-12. Each band is over 10x its measurement.
  constexpr real kB0 = 1.7;
  struct Band {
    real tol, max_rel_err;
  };
  grid::GridConfig small;
  small.nr = 16;
  small.nt = 12;
  small.np = 16;
  for (const grid::GridConfig& base : {small, bench_support::bench_grid()}) {
    for (const real stretch : {1.0, 4.0}) {
      for (const int nranks : {1, 2}) {
        for (const Band band : {Band{1e-9, 1e-11}, Band{1e-12, 2e-13}}) {
          SCOPED_TRACE(testing::Message()
                       << "nr " << base.nr << ", r_stretch " << stretch
                       << ", " << nranks << " rank(s), tol " << band.tol);
          SolverConfig cfg;
          cfg.grid = base;
          cfg.grid.r_stretch = stretch;
          std::mutex m;
          real br_err = 0.0, bt_err = 0.0;
          std::vector<PfssResult> results;
          with_solver(cfg, nranks, [&](MasSolver& solver) {
            const PfssResult res = pfss_initialize(
                solver.context(), [](real, real) { return kB0; }, band.tol,
                800);
            const auto& lg = solver.local_grid();
            const auto& st = solver.state();
            real br = 0.0, bt = 0.0;
            for (idx k = 0; k < st.np; ++k) {
              for (idx j = 0; j < st.nt; ++j)
                for (idx i = 0; i <= st.nloc; ++i) {
                  const real q = cfg.grid.r0 / lg.rf(i);
                  const real exact = kB0 * q * q;
                  br = std::max(br, std::abs(st.br(i, j, k) - exact) / exact);
                }
              for (idx j = 0; j <= st.nt; ++j)
                for (idx i = 0; i < st.nloc; ++i)
                  bt = std::max(bt, std::abs(st.bt(i, j, k)) / kB0);
            }
            std::lock_guard<std::mutex> lock(m);
            br_err = std::max(br_err, br);
            bt_err = std::max(bt_err, bt);
            results.push_back(res);
          });
          ASSERT_EQ(results.size(), static_cast<std::size_t>(nranks));
          for (const PfssResult& res : results) {
            EXPECT_TRUE(res.converged);
            EXPECT_GE(res.iterations, base.nr);
            EXPECT_LE(res.iterations, base.nr + 1);
          }
          EXPECT_LT(br_err, band.max_rel_err);
          EXPECT_LT(bt_err, band.max_rel_err);
        }
      }
    }
  }
}

}  // namespace
}  // namespace simas::mhd
