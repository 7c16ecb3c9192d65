// The paper's validation requirement (Sec. V-A): "For all test runs, the
// solutions were validated against that of the original code to within
// solver tolerances." Every SIMAS code version runs the same numerics, so
// all seven versions must produce identical physics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "telemetry/profiler.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

struct Solution {
  mhd::GlobalDiagnostics diag;
  real rho_probe = 0.0;
  real br_probe = 0.0;
  real dt_last = 0.0;
  double modeled_time = 0.0;  ///< slowest rank's ledger at the end
  bool unified = false;       ///< the version runs unified memory
  telemetry::SiteProfileSnapshot profile;  ///< merged over all ranks
};

/// Launches of kernel site `name` in a merged profile (0 if it never ran).
i64 launches(const telemetry::SiteProfileSnapshot& profile,
             std::string_view name) {
  for (const auto& row : profile.rows)
    if (row.name == name) return row.launches;
  return 0;
}

Solution run_version(variants::CodeVersion v, int nranks, int steps,
                     bool overlap_halo = false, int host_threads = 1,
                     double scale = 0.0) {
  Solution out;
  std::mutex m;
  mpisim::World world(nranks);
  world.run([&](int rank) {
    par::EngineConfig ecfg =
        variants::engine_config(v, gpusim::a100_40gb(), host_threads);
    ecfg.overlap_halo = overlap_halo;
    par::Engine engine(ecfg);
    if (scale > 0.0) engine.cost().set_scales(scale, scale);
    mpisim::Comm comm(world, rank, engine);
    mhd::SolverConfig cfg;
    cfg.grid.nr = 12;
    cfg.grid.nt = 8;
    cfg.grid.np = 12;
    mhd::MasSolver solver(engine, comm, cfg);
    solver.initialize();
    // Modeled stepping time only: setup (data regions, including the
    // overlap path's slot buffers) is a one-off outside the step loop.
    // Barrier-align the clocks first — otherwise per-rank init skew is
    // absorbed as MPI wait inside the measured window and pollutes the
    // comparison (the usual MPI_Barrier-before-MPI_Wtime idiom).
    comm.barrier();
    const double t0 = engine.ledger().now();
    mhd::StepStats stats{};
    for (int s = 0; s < steps; ++s) stats = solver.step();
    const double t = engine.ledger().now() - t0;
    const auto d = solver.diagnostics();
    const auto profile = engine.site_profiler().snapshot();
    std::lock_guard<std::mutex> lock(m);
    out.modeled_time = std::max(out.modeled_time, t);
    out.profile.merge_from(profile);
    if (rank == 0) {
      out.unified = engine.memory().unified();
      out.diag = d;
      out.rho_probe = solver.state().rho(1, 2, 3);
      out.br_probe = solver.state().br(2, 3, 4);
      out.dt_last = stats.dt;
    }
  });
  return out;
}

TEST(CrossVariant, AllGpuVersionsBitwiseIdenticalPhysics) {
  const auto ref = run_version(variants::CodeVersion::A, 1, 3);
  for (const auto v : variants::gpu_versions()) {
    const auto got = run_version(v, 1, 3);
    // Identical numerics: the execution models differ only in modeled
    // time accounting, exactly like recompiling MAS with different flags.
    EXPECT_EQ(got.rho_probe, ref.rho_probe) << variants::version_tag(v);
    EXPECT_EQ(got.br_probe, ref.br_probe) << variants::version_tag(v);
    EXPECT_EQ(got.dt_last, ref.dt_last) << variants::version_tag(v);
    EXPECT_EQ(got.diag.kinetic_energy, ref.diag.kinetic_energy)
        << variants::version_tag(v);
  }
}

TEST(CrossVariant, CpuVersionMatchesGpuVersions) {
  const auto ref = run_version(variants::CodeVersion::A, 1, 2);
  const auto cpu = run_version(variants::CodeVersion::Cpu, 1, 2);
  EXPECT_EQ(cpu.rho_probe, ref.rho_probe);
  EXPECT_EQ(cpu.br_probe, ref.br_probe);
}

TEST(CrossVariant, DecomposedRunsAgreeAcrossVersions) {
  // Version x rank-count matrix: every combination produces the same
  // globally-reduced diagnostics within solver tolerance.
  const auto ref = run_version(variants::CodeVersion::A, 1, 2);
  for (const auto v :
       {variants::CodeVersion::AD, variants::CodeVersion::D2XU}) {
    for (const int nranks : {2, 4}) {
      const auto got = run_version(v, nranks, 2);
      EXPECT_NEAR(got.diag.kinetic_energy, ref.diag.kinetic_energy,
                  1e-5 * std::abs(ref.diag.kinetic_energy) + 1e-15)
          << variants::version_tag(v) << " nranks=" << nranks;
      EXPECT_NEAR(got.diag.total_mass, ref.diag.total_mass,
                  1e-8 * ref.diag.total_mass)
          << variants::version_tag(v) << " nranks=" << nranks;
      EXPECT_LT(got.diag.max_div_b, 1e-10);
    }
  }
}

TEST(CrossVariant, OverlapHaloPhysicsByteIdenticalAllVersions) {
  // The overlapped exchange reorders communication against independent
  // kernels but never changes what any cell reads: physics must match the
  // synchronous path bitwise for every code version.
  for (const auto v : variants::all_versions()) {
    const auto sync = run_version(v, 2, 3);
    const auto ovl = run_version(v, 2, 3, /*overlap_halo=*/true);
    EXPECT_EQ(ovl.rho_probe, sync.rho_probe) << variants::version_tag(v);
    EXPECT_EQ(ovl.br_probe, sync.br_probe) << variants::version_tag(v);
    EXPECT_EQ(ovl.dt_last, sync.dt_last) << variants::version_tag(v);
    EXPECT_EQ(ovl.diag.kinetic_energy, sync.diag.kinetic_energy)
        << variants::version_tag(v);
    EXPECT_EQ(ovl.diag.magnetic_energy, sync.diag.magnetic_energy)
        << variants::version_tag(v);
    EXPECT_EQ(ovl.diag.total_mass, sync.diag.total_mass)
        << variants::version_tag(v);
  }
}

TEST(CrossVariant, OverlapHaloByteIdenticalAcrossHostThreads) {
  const auto ref = run_version(variants::CodeVersion::AD, 2, 3);
  for (const int threads : {1, 2, 8}) {
    const auto got =
        run_version(variants::CodeVersion::AD, 2, 3, /*overlap_halo=*/true,
                    threads);
    EXPECT_EQ(got.rho_probe, ref.rho_probe) << "threads=" << threads;
    EXPECT_EQ(got.br_probe, ref.br_probe) << "threads=" << threads;
    EXPECT_EQ(got.diag.kinetic_energy, ref.diag.kinetic_energy)
        << "threads=" << threads;
  }
}

TEST(CrossVariant, OverlapHaloNeverIncreasesModeledTime) {
  // Overlap moves transfers to the copy stream and (when profitable)
  // splits kernels, but must never cost modeled time. Scale 1.0 keeps
  // every split unprofitable (window-only overlap). At scale 400 the
  // five-field advection split pays on ranks with two neighbours; at scale
  // 4000 every split pays, down to the one-field conduction sweep on a
  // one-neighbour rank — for the manual-memory versions only: unified
  // memory's staged exchange has nothing to hide, so it never splits.
  for (const auto v : variants::gpu_versions()) {
    for (const double scale : {1.0, 400.0, 4000.0}) {
      for (const int nranks : {2, 4}) {
        const auto sync = run_version(v, nranks, 2, false, 1, scale);
        const auto ovl = run_version(v, nranks, 2, true, 1, scale);
        const auto where = [&] {
          return std::string(variants::version_tag(v)) +
                 " scale=" + std::to_string(scale) +
                 " nranks=" + std::to_string(nranks);
        };
        EXPECT_EQ(ovl.rho_probe, sync.rho_probe) << where();
        EXPECT_EQ(ovl.br_probe, sync.br_probe) << where();
        EXPECT_EQ(ovl.diag.kinetic_energy, sync.diag.kinetic_energy)
            << where();
        EXPECT_EQ(ovl.diag.magnetic_energy, sync.diag.magnetic_energy)
            << where();
        EXPECT_LE(ovl.modeled_time, sync.modeled_time * (1.0 + 1e-12))
            << where();
        for (const char* shell :
             {"advance_shell", "visc_matvec_shell", "cond_matvec_shell"}) {
          const i64 n = launches(ovl.profile, shell);
          if (ovl.unified) {
            EXPECT_EQ(n, 0) << where() << ' ' << shell;
          } else if (scale >= 4000.0) {
            EXPECT_GT(n, 0) << where() << ' ' << shell;
          }
        }
        if (!ovl.unified && scale >= 400.0 && nranks == 4) {
          EXPECT_GT(launches(ovl.profile, "advance_shell"), 0) << where();
        }
      }
    }
  }
}

TEST(CrossVariant, ModeledTimesDifferEvenThoughPhysicsMatches) {
  // Sanity that we are actually modeling different code versions: the UM
  // version must take more modeled time than the manual version for the
  // identical computation.
  double manual_time = 0.0, um_time = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const auto v =
        pass == 0 ? variants::CodeVersion::AD : variants::CodeVersion::ADU;
    mpisim::World world(1);
    world.run([&](int rank) {
      par::Engine engine(
          variants::engine_config(v, gpusim::a100_40gb(), 1));
      engine.cost().set_scales(1000.0, 100.0);
      mpisim::Comm comm(world, rank, engine);
      mhd::SolverConfig cfg;
      cfg.grid.nr = 12;
      cfg.grid.nt = 8;
      cfg.grid.np = 12;
      mhd::MasSolver solver(engine, comm, cfg);
      solver.initialize();
      solver.run(2);
      (pass == 0 ? manual_time : um_time) = engine.ledger().now();
    });
  }
  EXPECT_GT(um_time, manual_time * 1.05);
}

}  // namespace
}  // namespace simas
