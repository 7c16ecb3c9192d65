// PCG and RKL2 super-time-stepping on manufactured diffusion problems,
// driven through the full Engine/Comm/HaloExchanger stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <tuple>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/paper_scale.hpp"
#include "grid/local_grid.hpp"
#include "mhd/config.hpp"
#include "mhd/operators.hpp"
#include "mhd/ops.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "solvers/pcg.hpp"
#include "solvers/sts.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

using mhd::MasSolver;
using mhd::SolverConfig;

SolverConfig small_cfg() {
  SolverConfig cfg;
  cfg.grid.nr = 12;
  cfg.grid.nt = 8;
  cfg.grid.np = 12;
  return cfg;
}

/// Runs `fn(solver, engine, comm)` on one rank with a fresh solver.
template <class Fn>
void with_solver(const SolverConfig& cfg, Fn&& fn) {
  mpisim::World world(1);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 2));
    mpisim::Comm comm(world, rank, engine);
    MasSolver solver(engine, comm, cfg);
    solver.initialize();
    fn(solver, engine, comm);
  });
}

TEST(Pcg, SolvesViscousSystemToTolerance) {
  auto cfg = small_cfg();
  with_solver(cfg, [&](MasSolver& solver, par::Engine& eng,
                       mpisim::Comm& comm) {
    auto& c = solver.context();
    // Perturb the velocity so the solve is non-trivial.
    auto& st = solver.state();
    for (idx i = 0; i < st.nloc; ++i)
      for (idx j = 0; j < st.nt; ++j)
        for (idx k = 0; k < st.np; ++k)
          st.vr(i, j, k) = std::sin(0.5 * i) * std::cos(0.3 * j + 0.2 * k);
    const int iters = mhd::viscous_update(c, 0.01);
    EXPECT_GT(iters, 0);  // converged (negative on failure)
    EXPECT_LT(iters, c.phys.visc_maxit);
    (void)eng;
    (void)comm;
  });
}

TEST(Pcg, IdentityWhenDtIsZero) {
  auto cfg = small_cfg();
  with_solver(cfg, [&](MasSolver& solver, par::Engine&, mpisim::Comm&) {
    auto& c = solver.context();
    auto& st = solver.state();
    st.vr(2, 3, 4) = 0.77;
    const real before = st.vr(2, 3, 4);
    const int iters = mhd::viscous_update(c, 0.0);
    EXPECT_GE(iters, 0);
    EXPECT_NEAR(st.vr(2, 3, 4), before, 1e-12);
  });
}

TEST(Pcg, ViscositySmoothsVelocityExtrema) {
  auto cfg = small_cfg();
  cfg.phys.nu = 0.05;
  with_solver(cfg, [&](MasSolver& solver, par::Engine&, mpisim::Comm&) {
    auto& c = solver.context();
    auto& st = solver.state();
    st.vr.a().fill(0.0);
    st.vr(5, 4, 6) = 1.0;  // delta spike
    const real max_before = st.vr.a().max_abs_interior();
    ASSERT_GT(mhd::viscous_update(c, 0.05), 0);
    const real max_after = st.vr.a().max_abs_interior();
    EXPECT_LT(max_after, max_before);  // diffusion damps the spike
    EXPECT_GT(st.vr(4, 4, 6), 0.0);    // and spreads it to neighbours
  });
}

TEST(Pcg, ConductionPreservesUniformTemperature) {
  auto cfg = small_cfg();
  with_solver(cfg, [&](MasSolver& solver, par::Engine&, mpisim::Comm&) {
    auto& c = solver.context();
    auto& st = solver.state();
    // T = const is in the kernel of the diffusion operator: the solve must
    // return it unchanged (to solver tolerance).
    const int iters = mhd::conduction_update(c, 0.02);
    EXPECT_GE(iters, 0);
    for (idx i = 0; i < st.nloc; ++i)
      EXPECT_NEAR(st.temp(i, 3, 4), 1.0, 1e-8);
  });
}

TEST(Pcg, ConductionRelaxesHotSpot) {
  auto cfg = small_cfg();
  cfg.phys.kappa0 = 0.05;
  with_solver(cfg, [&](MasSolver& solver, par::Engine&, mpisim::Comm&) {
    auto& c = solver.context();
    auto& st = solver.state();
    st.temp(5, 4, 6) = 3.0;
    ASSERT_GT(mhd::conduction_update(c, 0.05), 0);
    EXPECT_LT(st.temp(5, 4, 6), 3.0);
    EXPECT_GT(st.temp(4, 4, 6), 1.0 - 1e-12);
  });
}

/// Engine loops one update issues on a fresh solver after prepare(state),
/// and the update's result.
template <class Prepare, class Update>
std::pair<i64, int> loops_of(const SolverConfig& cfg, Prepare&& prepare,
                             Update&& update) {
  std::pair<i64, int> got{0, 0};
  with_solver(cfg, [&](MasSolver& solver, par::Engine& eng, mpisim::Comm&) {
    prepare(solver.state());
    const i64 before = eng.counters().loops_executed;
    got.second = update(solver.context());
    got.first = eng.counters().loops_executed - before;
  });
  return got;
}

TEST(Pcg, NonFiniteSystemStopsWithinOneIteration) {
  // A NaN that reaches <r, z> or <p, Ap> used to pass the convergence test
  // (std::max keeps the NaN) and spin the solve to maxit. Seeded into the
  // viscous or the conduction system, it must end the solve as not
  // converged (-1) within the loops of a healthy solve capped at one
  // iteration.
  const real nan = std::numeric_limits<real>::quiet_NaN();
  {
    const auto perturb = [](mhd::State& st) {
      for (idx i = 0; i < st.nloc; ++i)
        for (idx j = 0; j < st.nt; ++j)
          for (idx k = 0; k < st.np; ++k)
            st.vr(i, j, k) = std::sin(0.5 * i) * std::cos(0.3 * j + 0.2 * k);
    };
    const auto update = [](mhd::MhdContext& c) {
      return mhd::viscous_update(c, 0.01);
    };
    SolverConfig one = small_cfg();
    one.phys.visc_maxit = 1;
    const auto capped = loops_of(one, perturb, update);
    const auto seeded = loops_of(
        small_cfg(),
        [&](mhd::State& st) {
          perturb(st);
          st.vr(3, 4, 5) = nan;
        },
        update);
    EXPECT_EQ(seeded.second, -1);
    EXPECT_LE(seeded.first, capped.first) << "viscous";
  }
  {
    SolverConfig cfg = small_cfg();
    cfg.phys.kappa0 = 0.05;
    const auto hot = [](mhd::State& st) { st.temp(5, 4, 6) = 3.0; };
    const auto update = [](mhd::MhdContext& c) {
      return mhd::conduction_update(c, 0.05);
    };
    SolverConfig one = cfg;
    one.phys.cond_maxit = 1;
    const auto capped = loops_of(one, hot, update);
    const auto seeded = loops_of(
        cfg,
        [&](mhd::State& st) {
          hot(st);
          st.temp(3, 4, 5) = nan;
        },
        update);
    EXPECT_EQ(seeded.second, -1);
    EXPECT_LE(seeded.first, capped.first) << "conduction";
  }
}

TEST(Pcg, RejectsMismatchedComponentShapes) {
  // One Range3 covers every component of a sweep, so each system vector's
  // components must share component 0's extents; a mismatch in any of
  // x/b/r/p/ap/z is rejected before any op is issued.
  with_solver(small_cfg(), [&](MasSolver& solver, par::Engine& eng,
                               mpisim::Comm& comm) {
    std::vector<std::unique_ptr<field::Field>> own;
    const auto make = [&](idx n1) {
      own.push_back(std::make_unique<field::Field>(
          eng, "pcg_shape_" + std::to_string(own.size()), n1, 4, 6));
      return own.back().get();
    };
    solvers::Pcg pcg(eng, comm, solver.local_grid(), "shape_check");
    // Any operator will do: the system is rejected before it runs.
    const auto op = mhd::pfss_operator(solver.context());
    for (int odd = 0; odd < 6; ++odd) {
      solvers::PcgSystem sys;
      std::vector<field::Field*>* vecs[] = {&sys.x, &sys.b,  &sys.r,
                                            &sys.p, &sys.ap, &sys.z};
      for (int v = 0; v < 6; ++v)
        *vecs[v] = {make(5), make(v == odd ? 3 : 5)};
      const i64 loops = eng.counters().loops_executed;
      EXPECT_THROW(pcg.solve(op, sys, solvers::PcgOptions{}),
                   std::invalid_argument)
          << "mismatch in vector " << odd;
      EXPECT_EQ(eng.counters().loops_executed, loops);
    }
  });
}

/// The diagonal of each implicit-solve operator against its Jacobi form,
/// at sampled cells of every rank: the interior, both radial wall planes,
/// both θ walls and the rank edges. The operator's unit response
/// (A e)_c, e the unit vector at cell c with zero ghosts, is its diagonal
/// entry; the Jacobi form gives 1 / estimate as precond(1.0, c).
struct DiagonalRatios {
  real visc_ulps = 0.0;   ///< max |precond(1) (A e)_c - 1| / epsilon
  real cond_lo = 1.0e300, cond_hi = 0.0;        ///< estimate / diag(A)
  real cond_st_lo = 1.0e300, cond_st_hi = 0.0;  ///< stencil parts alone
  real pfss_lo = 1.0e300, pfss_hi = 0.0;
};

DiagonalRatios diagonal_ratios(const grid::GridConfig& grid, int nranks) {
  SolverConfig cfg;
  cfg.grid = grid;
  DiagonalRatios out;
  std::mutex m;
  mpisim::World world(nranks);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 1));
    mpisim::Comm comm(world, rank, engine);
    MasSolver solver(engine, comm, cfg);
    solver.initialize();
    mhd::MhdContext& c = solver.context();
    mhd::State& st = solver.state();
    const real dt = mhd::cfl_timestep(c);
    // κ(T) at every cell and ghost, as conduction_update freezes it.
    const idx g = st.wrk2.a().nghost();
    for (idx i = -g; i < st.nloc + g; ++i)
      for (idx j = -g; j < st.nt + g; ++j)
        for (idx k = -g; k < st.np + g; ++k) {
          const real t = std::max<real>(st.temp(i, j, k), 1.0e-12);
          st.wrk2(i, j, k) = c.phys.kappa0 * t * t * std::sqrt(t);
        }
    const real gm1 = c.phys.gamma - 1.0;
    const auto visc = mhd::viscosity_operator(c, dt);
    const auto cond = mhd::conduction_operator(c, dt);
    const auto pfss = mhd::pfss_operator(c);
    field::Field& x = st.pcg_p;
    field::Field& y = st.pcg_ap;
    x.a().fill(0.0);
    DiagonalRatios mine;
    for (const idx i : {idx{0}, st.nloc / 2, st.nloc - 1})
      for (const idx j : {idx{0}, st.nt / 2, st.nt - 1})
        for (const idx k : {idx{0}, st.np / 2}) {
          x(i, j, k) = 1.0;
          const auto response = [&](const auto& body) {
            y(i, j, k) = 0.0;
            body(x, y)(i, j, k);
            return y(i, j, k);
          };
          const real a_visc = response(visc.stencil.body_of);
          mine.visc_ulps = std::max(
              mine.visc_ulps,
              std::abs(visc.jacobi.precond(1.0, i, j, k) * a_visc - 1.0) /
                  std::numeric_limits<real>::epsilon());
          const real lap = response(cond.stencil.body_of);
          const real mass = st.rho(i, j, k) / gm1;
          const real a_cond = mass - dt * lap;
          const real est = 1.0 / cond.jacobi.precond(1.0, i, j, k);
          const real r_full = est / a_cond;
          const real r_st = (est - mass) / (a_cond - mass);
          mine.cond_lo = std::min(mine.cond_lo, r_full);
          mine.cond_hi = std::max(mine.cond_hi, r_full);
          mine.cond_st_lo = std::min(mine.cond_st_lo, r_st);
          mine.cond_st_hi = std::max(mine.cond_st_hi, r_st);
          const real r_pfss = 1.0 / (pfss.jacobi.precond(1.0, i, j, k) *
                                     response(pfss.stencil.body_of));
          mine.pfss_lo = std::min(mine.pfss_lo, r_pfss);
          mine.pfss_hi = std::max(mine.pfss_hi, r_pfss);
          x(i, j, k) = 0.0;
        }
    // The shift is the cell-local stage after conduction's stencil: the
    // operator's own post stage must give mass - dt * lap at a cell.
    {
      const idx i = st.nloc / 2, j = st.nt / 2, k = 0;
      x(i, j, k) = 1.0;
      y(i, j, k) = 0.0;
      cond.stencil.body_of(x, y)(i, j, k);
      const real lap = y(i, j, k);
      std::get<0>(cond.post).body_of(x, y)(i, j, k);
      EXPECT_EQ(y(i, j, k), st.rho(i, j, k) / gm1 * 1.0 - dt * lap);
      x(i, j, k) = 0.0;
    }
    std::lock_guard<std::mutex> lock(m);
    out.visc_ulps = std::max(out.visc_ulps, mine.visc_ulps);
    out.cond_lo = std::min(out.cond_lo, mine.cond_lo);
    out.cond_hi = std::max(out.cond_hi, mine.cond_hi);
    out.cond_st_lo = std::min(out.cond_st_lo, mine.cond_st_lo);
    out.cond_st_hi = std::max(out.cond_st_hi, mine.cond_st_hi);
    out.pfss_lo = std::min(out.pfss_lo, mine.pfss_lo);
    out.pfss_hi = std::max(out.pfss_hi, mine.pfss_hi);
  });
  return out;
}

TEST(Operator, DiagonalMatchesUnitResponse) {
  // Viscosity's Jacobi form is 1 / diag(A), computed from the same
  // LapCoeffs in its own operand order: a few ulps at most. Conduction's
  // and PFSS's are min-width estimates, not the diagonal; measured
  // estimate / diag(A) over these cases (dt from the CFL step): conduction
  // 1.026-1.155, its stencil part alone 2.14-5.55, PFSS 1.49-5.55. The
  // bands below take 10% off each low end and add 10% to each high end.
  grid::GridConfig slab;
  slab.nr = 12;
  slab.nt = 10;
  slab.np = 8;
  slab.r_stretch = 4.0;
  slab.t_stretch = 1.6;
  const std::pair<grid::GridConfig, int> cases[] = {
      {slab, 2},
      {bench_support::bench_grid(), 1},
      {bench_support::bench_grid(), 2}};
  for (const auto& [grid, nranks] : cases) {
    const DiagonalRatios d = diagonal_ratios(grid, nranks);
    SCOPED_TRACE(std::to_string(grid.nr) + "x" + std::to_string(grid.nt) +
                 "x" + std::to_string(grid.np) + " on " +
                 std::to_string(nranks) + " ranks");
    EXPECT_LE(d.visc_ulps, 4.0);
    EXPECT_GE(d.cond_lo, 0.92);
    EXPECT_LE(d.cond_hi, 1.27);
    EXPECT_GE(d.cond_st_lo, 1.92);
    EXPECT_LE(d.cond_st_hi, 6.11);
    EXPECT_GE(d.pfss_lo, 1.34);
    EXPECT_LE(d.pfss_hi, 6.11);
  }
}

TEST(Sts, StageCountFormula) {
  EXPECT_EQ(solvers::rkl2_stages_for(1.0, 1.0), 2);
  EXPECT_GE(solvers::rkl2_stages_for(10.0, 1.0), 5);
  const int s1 = solvers::rkl2_stages_for(4.0, 1.0);
  const int s2 = solvers::rkl2_stages_for(16.0, 1.0);
  EXPECT_GT(s2, s1);  // more super-stepping needs more stages
  EXPECT_THROW(solvers::rkl2_stages_for(1.0, 0.0), std::invalid_argument);
}

TEST(Sts, ConductionViaStsMatchesPcgQualitatively) {
  // Same hot-spot relaxation computed with the implicit PCG path and the
  // RKL2 super-time-stepping path must agree to discretization accuracy.
  auto run = [&](bool sts) {
    auto cfg = small_cfg();
    cfg.phys.kappa0 = 0.02;
    cfg.phys.sts_conduction = sts;
    cfg.phys.sts_stages = 12;
    real value = 0.0;
    with_solver(cfg, [&](MasSolver& solver, par::Engine&, mpisim::Comm&) {
      auto& c = solver.context();
      auto& st = solver.state();
      st.temp(5, 4, 6) = 2.0;
      mhd::conduction_update(c, 0.005);
      value = st.temp(5, 4, 6);
    });
    return value;
  };
  const real pcg_val = run(false);
  const real sts_val = run(true);
  EXPECT_LT(pcg_val, 2.0);
  EXPECT_LT(sts_val, 2.0);
  // O(dt) agreement between the two time discretizations.
  EXPECT_NEAR(pcg_val, sts_val, 0.05);
}

TEST(Sts, RejectsTooFewStages) {
  mpisim::World world(1);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 1));
    mpisim::Comm comm(world, rank, engine);
    field::Field u(engine, "u", 4, 4, 4, 1);
    field::Field s1(engine, "s1", 4, 4, 4, 1), s2(engine, "s2", 4, 4, 4, 1),
        s3(engine, "s3", 4, 4, 4, 1), s4(engine, "s4", 4, 4, 4, 1),
        s5(engine, "s5", 4, 4, 4, 1);
    auto rhs = [](field::Field&, field::Field& y) { y.a().fill(0.0); };
    EXPECT_THROW(
        solvers::rkl2_advance(engine, rhs, u, s1, s2, s3, s4, s5, 0.1, 1,
                              par::Range3::cube(4, 4, 4)),
        std::invalid_argument);
  });
}

TEST(Sts, ZeroRhsLeavesFieldUnchanged) {
  mpisim::World world(1);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 1));
    mpisim::Comm comm(world, rank, engine);
    field::Field u(engine, "u", 4, 4, 4, 1);
    field::Field s1(engine, "s1", 4, 4, 4, 1), s2(engine, "s2", 4, 4, 4, 1),
        s3(engine, "s3", 4, 4, 4, 1), s4(engine, "s4", 4, 4, 4, 1),
        s5(engine, "s5", 4, 4, 4, 1);
    u(1, 2, 3) = 5.0;
    auto rhs = [](field::Field&, field::Field& y) { y.a().fill(0.0); };
    solvers::rkl2_advance(engine, rhs, u, s1, s2, s3, s4, s5, 0.1, 6,
                          par::Range3::cube(4, 4, 4));
    EXPECT_NEAR(u(1, 2, 3), 5.0, 1e-12);
  });
}

TEST(Sts, ExponentialDecayAccuracy) {
  // du/dt = -λ u has the exact solution u0 exp(-λ dt); RKL2 is second
  // order, so a single super-step must be accurate to O(dt^3).
  mpisim::World world(1);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 1));
    mpisim::Comm comm(world, rank, engine);
    field::Field u(engine, "u", 2, 2, 2, 1);
    field::Field s1(engine, "s1", 2, 2, 2, 1), s2(engine, "s2", 2, 2, 2, 1),
        s3(engine, "s3", 2, 2, 2, 1), s4(engine, "s4", 2, 2, 2, 1),
        s5(engine, "s5", 2, 2, 2, 1);
    const real lambda = 2.0, dt = 0.1;
    u.a().fill(1.0);
    static const par::KernelSite& site =
        SIMAS_SITE("test_sts_decay_rhs", par::SiteKind::ParallelLoop, 0);
    auto rhs = [&](field::Field& x, field::Field& y) {
      engine.for_each(site, par::Range3::cube(2, 2, 2),
                      {par::in(x.id()), par::out(y.id())},
                      [&](idx i, idx j, idx k) {
                        y(i, j, k) = -lambda * x(i, j, k);
                      });
    };
    solvers::rkl2_advance(engine, rhs, u, s1, s2, s3, s4, s5, dt, 8,
                          par::Range3::cube(2, 2, 2));
    EXPECT_NEAR(u(0, 0, 0), std::exp(-lambda * dt), 5e-4);
  });
}

}  // namespace
}  // namespace simas
