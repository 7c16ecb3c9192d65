// Physics tests of the MAS-analog solver: constrained-transport div B,
// boundary conditions, CFL, conservation-style sanity, and diagnostics.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support/paper_scale.hpp"
#include "mhd/eos.hpp"
#include "mhd/ops.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "variants/code_version.hpp"
#include "watchdog.hpp"

namespace simas::mhd {
namespace {

SolverConfig test_cfg(idx nr = 14, idx nt = 10, idx np = 16) {
  SolverConfig cfg;
  cfg.grid.nr = nr;
  cfg.grid.nt = nt;
  cfg.grid.np = np;
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
    fn(solver, rank);
  });
}

TEST(Eos, Helpers) {
  EXPECT_DOUBLE_EQ(pressure(2.0, 3.0), 6.0);
  EXPECT_DOUBLE_EQ(sound_speed2(5.0 / 3.0, 3.0), 5.0);
  EXPECT_DOUBLE_EQ(alfven_speed2(4.0, 2.0), 2.0);
  EXPECT_NEAR(fast_speed(5.0 / 3.0, 3.0, 4.0, 2.0), std::sqrt(7.0), 1e-14);
}

TEST(Initialization, DipoleIsDivergenceFree) {
  with_solver(test_cfg(), 1, [&](MasSolver& solver, int) {
    const auto d = solver.diagnostics();
    EXPECT_LT(d.max_div_b, 1e-12);
    EXPECT_GT(d.magnetic_energy, 0.0);
    EXPECT_DOUBLE_EQ(d.kinetic_energy, 0.0);  // starts at rest
  });
}

TEST(Initialization, StratifiedAtmosphere) {
  with_solver(test_cfg(), 1, [&](MasSolver& solver, int) {
    auto& st = solver.state();
    const auto& lg = solver.local_grid();
    // Density decreases outward; T = 1 everywhere.
    for (idx i = 1; i < st.nloc; ++i) {
      EXPECT_LT(st.rho(i, 3, 4), st.rho(i - 1, 3, 4));
      EXPECT_DOUBLE_EQ(st.temp(i, 3, 4), 1.0);
    }
    EXPECT_NEAR(st.rho(0, 0, 0),
                std::exp(-solver.context().phys.atm_scale *
                         (1.0 - 1.0 / lg.rc(0))),
                1e-14);
  });
}

class DivBPreservation : public ::testing::TestWithParam<int> {};

TEST_P(DivBPreservation, StaysAtRoundOffOverSteps) {
  // The CT update must keep div B = 0 to round-off on every rank count,
  // for a nonuniform mesh, with resistive + advective EMFs active.
  auto cfg = test_cfg(16, 8, 12);
  cfg.grid.r_stretch = 6.0;
  with_solver(cfg, GetParam(), [&](MasSolver& solver, int) {
    for (int s = 0; s < 3; ++s) solver.step();
    const auto d = solver.diagnostics();
    EXPECT_LT(d.max_div_b, 1e-10);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, DivBPreservation, ::testing::Values(1, 2, 4));

TEST(Step, PositiveDtAndStability) {
  with_solver(test_cfg(), 1, [&](MasSolver& solver, int) {
    for (int s = 0; s < 5; ++s) {
      const auto stats = solver.step();
      EXPECT_GT(stats.dt, 0.0);
      EXPECT_LT(stats.dt, 1.0);
      EXPECT_GE(stats.viscosity_iters, 0);   // -1 would mean non-convergence
      EXPECT_GE(stats.conduction_iters, 0);
    }
    const auto d = solver.diagnostics();
    EXPECT_TRUE(std::isfinite(d.kinetic_energy));
    EXPECT_TRUE(std::isfinite(d.thermal_energy));
    EXPECT_LT(d.max_speed, 10.0);  // no blow-up
  });
}

TEST(Step, DensityAndTemperatureStayPositive) {
  with_solver(test_cfg(), 1, [&](MasSolver& solver, int) {
    solver.run(5);
    auto& st = solver.state();
    for (idx i = 0; i < st.nloc; ++i)
      for (idx j = 0; j < st.nt; ++j)
        for (idx k = 0; k < st.np; ++k) {
          EXPECT_GT(st.rho(i, j, k), 0.0);
          EXPECT_GT(st.temp(i, j, k), 0.0);
        }
  });
}

TEST(Boundary, ThetaWallGhostsMirrored) {
  with_solver(test_cfg(), 1, [&](MasSolver& solver, int) {
    auto& c = solver.context();
    auto& st = solver.state();
    st.vt(3, 0, 5) = 0.25;
    st.rho(3, 0, 5) = 0.5;
    apply_center_bcs(c);
    EXPECT_DOUBLE_EQ(st.vt(3, -1, 5), -0.25);  // θ-normal velocity: odd
    EXPECT_DOUBLE_EQ(st.rho(3, -1, 5), 0.5);   // scalars: even
  });
}

TEST(Boundary, LineTiedInnerSurface) {
  with_solver(test_cfg(), 1, [&](MasSolver& solver, int) {
    auto& c = solver.context();
    auto& st = solver.state();
    st.vr(0, 4, 4) = 0.1;
    st.temp(0, 4, 4) = 1.2;
    apply_center_bcs(c);
    // Face values (average of ghost and first cell): v = 0, T = 1.
    EXPECT_NEAR(0.5 * (st.vr(-1, 4, 4) + st.vr(0, 4, 4)), 0.0, 1e-14);
    EXPECT_NEAR(0.5 * (st.temp(-1, 4, 4) + st.temp(0, 4, 4)), 1.0, 1e-14);
  });
}

TEST(Boundary, WallMagneticFluxFrozen) {
  // E_r = E_p = 0 on the θ walls: the wall-normal flux must not change.
  with_solver(test_cfg(), 1, [&](MasSolver& solver, int) {
    auto& st = solver.state();
    const real wall0 = st.bt(4, 0, 3);
    const real wall1 = st.bt(4, st.nt, 3);
    solver.run(3);
    EXPECT_DOUBLE_EQ(st.bt(4, 0, 3), wall0);
    EXPECT_DOUBLE_EQ(st.bt(4, st.nt, 3), wall1);
  });
}

TEST(Cfl, ShrinksWithStrongerField) {
  auto cfg = test_cfg();
  real dt_weak = 0.0, dt_strong = 0.0;
  cfg.phys.dipole_b0 = 0.5;
  with_solver(cfg, 1, [&](MasSolver& solver, int) {
    dt_weak = solver.step().dt;
  });
  cfg.phys.dipole_b0 = 4.0;
  with_solver(cfg, 1, [&](MasSolver& solver, int) {
    dt_strong = solver.step().dt;
  });
  EXPECT_LT(dt_strong, dt_weak);  // higher Alfvén speed -> smaller dt
}

TEST(Cfl, GloballySynchronized) {
  // All ranks must compute the identical dt (allreduce), whatever the
  // decomposition.
  auto cfg = test_cfg();
  std::vector<real> dts(3, -1.0);
  std::mutex m;
  mpisim::World world(3);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 1));
    mpisim::Comm comm(world, rank, engine);
    MasSolver solver(engine, comm, cfg);
    solver.initialize();
    const auto stats = solver.step();
    std::lock_guard<std::mutex> lock(m);
    dts[static_cast<std::size_t>(rank)] = stats.dt;
  });
  EXPECT_EQ(dts[0], dts[1]);
  EXPECT_EQ(dts[1], dts[2]);
}

TEST(Cfl, NonPositiveTemperatureOrDensityThrowsWithinTheStep) {
  // One owned cell of rank 0 goes unhealthy: the CFL max turns NaN and is
  // allreduced, so every rank throws from the same step, before advecting.
  for (const int nranks : {1, 2}) {
    for (const bool bad_rho : {false, true}) {
      std::vector<std::string> errors(static_cast<std::size_t>(nranks));
      std::vector<int> steps(static_cast<std::size_t>(nranks), -1);
      EXPECT_THROW(
          with_solver(test_cfg(), nranks,
                      [&](MasSolver& solver, int rank) {
                        solver.step();
                        auto& st = solver.state();
                        if (rank == 0) {
                          if (bad_rho)
                            st.rho(1, 3, 5) = 0.0;
                          else
                            st.temp(1, 3, 5) = -0.5;
                        }
                        const real vr = st.vr(2, 4, 6);
                        try {
                          solver.step();
                        } catch (const std::exception& e) {
                          errors[static_cast<std::size_t>(rank)] = e.what();
                          steps[static_cast<std::size_t>(rank)] =
                              solver.steps_taken();
                          EXPECT_EQ(st.vr(2, 4, 6), vr);  // not advected
                          throw;
                        }
                      }),
          std::runtime_error);
      for (int r = 0; r < nranks; ++r) {
        EXPECT_NE(errors[static_cast<std::size_t>(r)].find("CFL"),
                  std::string::npos)
            << "rank " << r << ": " << errors[static_cast<std::size_t>(r)];
        EXPECT_EQ(steps[static_cast<std::size_t>(r)], 1) << "rank " << r;
      }
    }
  }
}

TEST(Step, NonConvergedImplicitSolveThrowsWithinTheStep) {
  // One PCG iteration cannot reach the 1e-9 tolerance: the stage returns
  // -1, and the step throws right after it, naming the stage. Viscosity
  // fails in the first step. Conduction starts from an equilibrium
  // temperature (its first solve converges in 0 iterations), so it fails
  // in the second. The convergence test reads allreduced dots, so every
  // rank throws at the same step (the watchdog turns a rank left waiting
  // into a failure).
  testutil::Watchdog watchdog(60);
  struct Case {
    const char* stage;
    int fails_at;
  };
  for (const Case& cs : {Case{"viscosity", 0}, Case{"conduction", 1}}) {
    const std::string stage = cs.stage;
    for (const int nranks : {1, 2}) {
      SCOPED_TRACE(stage + ", " + std::to_string(nranks) + " rank(s)");
      auto cfg = test_cfg();
      (stage == "viscosity" ? cfg.phys.visc_maxit : cfg.phys.cond_maxit) = 1;
      std::vector<std::string> errors(static_cast<std::size_t>(nranks));
      std::vector<int> steps(static_cast<std::size_t>(nranks), -1);
      EXPECT_THROW(
          with_solver(cfg, nranks,
                      [&](MasSolver& solver, int rank) {
                        try {
                          solver.run(cs.fails_at + 1);
                        } catch (const std::exception& e) {
                          errors[static_cast<std::size_t>(rank)] = e.what();
                          steps[static_cast<std::size_t>(rank)] =
                              solver.steps_taken();
                          throw;
                        }
                      }),
          std::runtime_error);
      const std::string want = stage +
                               " solve not converged within 1 iterations "
                               "at step " +
                               std::to_string(cs.fails_at);
      for (int r = 0; r < nranks; ++r) {
        const std::string& e = errors[static_cast<std::size_t>(r)];
        EXPECT_NE(e.find(want), std::string::npos) << "rank " << r << ": " << e;
        EXPECT_EQ(steps[static_cast<std::size_t>(r)], cs.fails_at)
            << "rank " << r;
      }
    }
  }
}

TEST(Diagnostics, ShellProfileMatchesDirectAverage) {
  with_solver(test_cfg(), 1, [&](MasSolver& solver, int) {
    auto& c = solver.context();
    auto& st = solver.state();
    st.temp(2, 3, 4) = 2.0;  // perturb one cell
    std::vector<real> shells;
    shell_mean_temperature(c, shells);
    ASSERT_EQ(shells.size(), static_cast<std::size_t>(st.nloc));
    real direct = 0.0;
    for (idx j = 0; j < st.nt; ++j)
      for (idx k = 0; k < st.np; ++k) direct += st.temp(2, j, k);
    direct /= static_cast<real>(st.nt * st.np);
    EXPECT_NEAR(shells[2], direct, 1e-12);
  });
}

TEST(Diagnostics, MassMatchesAtmosphereIntegral) {
  with_solver(test_cfg(), 1, [&](MasSolver& solver, int) {
    auto& c = solver.context();
    const auto d = global_diagnostics(c);
    // Direct quadrature of the initial condition.
    const auto& lg = solver.local_grid();
    const auto& st = solver.state();
    real mass = 0.0;
    for (idx i = 0; i < st.nloc; ++i)
      for (idx j = 0; j < st.nt; ++j)
        for (idx k = 0; k < st.np; ++k)
          mass += st.rho(i, j, k) * lg.metric().vol(i, j);
    EXPECT_NEAR(d.total_mass, mass, 1e-10 * mass);
  });
}

TEST(Radiation, HeatingRaisesColdAtmosphereAndLossesCoolHot) {
  auto cfg = test_cfg();
  cfg.phys.rad_coef = 0.0;  // heating only
  with_solver(cfg, 1, [&](MasSolver& solver, int) {
    auto& c = solver.context();
    auto& st = solver.state();
    const real before = st.temp(0, 3, 4);
    radiation_heating(c, 0.1);
    EXPECT_GT(st.temp(0, 3, 4), before);
  });
  cfg.phys.rad_coef = 1.0;
  cfg.phys.heat_coef = 0.0;  // losses only
  with_solver(cfg, 1, [&](MasSolver& solver, int) {
    auto& c = solver.context();
    auto& st = solver.state();
    const real before = st.temp(0, 3, 4);
    radiation_heating(c, 0.1);
    EXPECT_LT(st.temp(0, 3, 4), before);
    EXPECT_GT(st.temp(0, 3, 4), 0.0);  // positivity preserved
  });
}

TEST(HostJoins, BenchGridStepJoinsOncePerComponentSweep) {
  // One bench-grid step (version A, 1 rank, 4 threads) issues 302 kernels:
  // 196 pooled and 106 inline. The viscous PCG runs each 3-component
  // sweep and dot as one host job, and both PCG solves run their opening
  // (A x, residual, preconditioner, p = z, <r, z>), every iteration's
  // A p and <p, Ap>, and its tail (x/r update, preconditioner, <r, z>)
  // as cell-local chains, so the pooled kernels take 63 joins, not one
  // each: 114 with the sweeps alone, less 3 per solve and 2 per iteration
  // for the vector chains (6 + 6 iterations) gives 84; the operator then
  // joins its chain once per apply, 7 applies per solve (6 iterations and
  // the opening), for viscosity's matvec (-7) and for conduction's
  // diffusion and shift (-14): 84 - 7 - 14 = 63. Placement is
  // shape-derived, so the counts are exact.
  mpisim::World world(1);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 4));
    mpisim::Comm comm(world, rank, engine);
    SolverConfig cfg;
    cfg.grid = bench_support::bench_grid();
    MasSolver solver(engine, comm, cfg);
    solver.initialize();
    (void)solver.step();
    const telemetry::MetricsSnapshot before = engine.metrics_snapshot();
    const telemetry::SiteProfileRow sites_before =
        engine.site_profiler().totals();
    const StepStats st = solver.step();
    const telemetry::MetricsSnapshot after = engine.metrics_snapshot();
    const telemetry::SiteProfileRow sites_after =
        engine.site_profiler().totals();
    const auto delta = [&](const char* name) {
      return after.counter(name) - before.counter(name);
    };
    EXPECT_EQ(st.viscosity_iters, 6);
    EXPECT_EQ(st.conduction_iters, 6);
    EXPECT_EQ(delta("engine.loops"), 302);
    EXPECT_EQ(delta("engine.launches"), 263);
    EXPECT_EQ(delta("engine.fused_launches"), 39);
    EXPECT_EQ(delta("engine.reduction_loops"), 54);
    EXPECT_EQ(delta("engine.bytes_touched"), 60787712);
    // The engine.* totals are the per-site profile's column sums.
    EXPECT_EQ(sites_after.launches - sites_before.launches,
              delta("engine.launches"));
    EXPECT_EQ(sites_after.fused - sites_before.fused,
              delta("engine.fused_launches"));
    EXPECT_EQ(sites_after.reductions - sites_before.reductions,
              delta("engine.reduction_loops"));
    EXPECT_EQ(sites_after.bytes - sites_before.bytes,
              delta("engine.bytes_touched"));
    EXPECT_EQ(delta("pool.jobs"), 196);
    EXPECT_EQ(delta("pool.inline_kernels"), 106);
    // The checked flavor under a validator runs each op on its own.
    bool op_by_op = false;
#ifdef SIMAS_ELEMENT_SHADOW
    op_by_op = engine.validator() != nullptr;
#endif
    EXPECT_EQ(delta("pool.joins"), op_by_op ? 196 : 63);
  });
}

TEST(Decomposed, MatchesSingleRankSolution) {
  // Radial decomposition must not change the physics: after a few steps
  // the decomposed run agrees with the single-rank run (explicit stages
  // are bitwise; PCG dot-product grouping differs -> tiny tolerance).
  auto cfg = test_cfg(16, 8, 12);
  const int steps = 3;

  std::vector<real> ref;  // rank-0 gathers rho along a ray
  with_solver(cfg, 1, [&](MasSolver& solver, int) {
    solver.run(steps);
    auto& st = solver.state();
    for (idx i = 0; i < st.nloc; ++i) ref.push_back(st.rho(i, 3, 4));
  });

  for (const int nranks : {2, 4}) {
    std::vector<real> got(static_cast<std::size_t>(cfg.grid.nr), 0.0);
    std::mutex m;
    mpisim::World world(nranks);
    world.run([&](int rank) {
      par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                                 gpusim::a100_40gb(), 1));
      mpisim::Comm comm(world, rank, engine);
      MasSolver solver(engine, comm, cfg);
      solver.initialize();
      solver.run(steps);
      auto& st = solver.state();
      const auto& slab = solver.local_grid().slab();
      std::lock_guard<std::mutex> lock(m);
      for (idx i = 0; i < st.nloc; ++i)
        got[static_cast<std::size_t>(slab.ilo + i)] = st.rho(i, 3, 4);
    });
    // "validated ... to within solver tolerances" (paper Sec. V-A): the
    // PCG tolerance is 1e-9, and dot-product grouping differs across
    // decompositions, so agreement is at the solve tolerance, not round-off.
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(got[i], ref[i], 5e-6 * std::abs(ref[i]))
          << "nranks=" << nranks << " i=" << i;
  }
}

}  // namespace
}  // namespace simas::mhd
