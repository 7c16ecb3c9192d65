// PCG and RKL2 super-time-stepping on manufactured diffusion problems,
// driven through the full Engine/Comm/HaloExchanger stack.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "grid/local_grid.hpp"
#include "mhd/config.hpp"
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
    const auto noop = [](const solvers::Pcg::Fields&,
                         const solvers::Pcg::Fields&) {};
    static const par::KernelSite& site_pc =
        SIMAS_SITE("test_shape_check_precond", par::SiteKind::ParallelLoop, 0);
    const solvers::Jacobi identity{
        site_pc,
        [](const field::Field& r, const field::Field& z) {
          return std::array{par::in(r.id()), par::out(z.id())};
        },
        [](const field::Field& r, field::Field& z) {
          return [&r, &z](idx i, idx j, idx k) { z(i, j, k) = r(i, j, k); };
        }};
    for (int odd = 0; odd < 6; ++odd) {
      solvers::PcgSystem sys;
      std::vector<field::Field*>* vecs[] = {&sys.x, &sys.b,  &sys.r,
                                            &sys.p, &sys.ap, &sys.z};
      for (int v = 0; v < 6; ++v)
        *vecs[v] = {make(5), make(v == odd ? 3 : 5)};
      const i64 loops = eng.counters().loops_executed;
      EXPECT_THROW(pcg.solve(noop, identity, sys, solvers::PcgOptions{}),
                   std::invalid_argument)
          << "mismatch in vector " << odd;
      EXPECT_EQ(eng.counters().loops_executed, loops);
    }
  });
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
