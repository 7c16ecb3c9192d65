// Committed physics fingerprint. Every other physics-identity test compares
// variants inside one build, so a change that perturbs every version alike
// (a reordered metric expression, a new reduction order) passes them all.
// This test pins the absolute result instead: version A on the bench grid,
// PFSS dipole initialization, 15 steps on 1 and 2 ranks, printed as hexfloat
// GlobalDiagnostics, per-step dt and PCG iteration counts, PFSS iterations,
// modeled seconds and a state hash per rank. The golden file
// (tests/golden/physics_fingerprint.txt) was generated before the metric
// tables replaced the inline cell geometry, so it also proves that refactor
// bit-identical.
//
// On a mismatch the actual fingerprint is written next to the test binary
// (physics_fingerprint.actual.txt). Regenerate the golden from it only for
// a change that is meant to move the physics, and say so in the change.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support/run_experiment.hpp"
#include "mhd/pfss.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "variants/code_version.hpp"

namespace simas::mhd {
namespace {

constexpr int kSteps = 15;

std::string hex(real v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// FNV-1a over the raw bytes (ghosts included) of the persistent fields.
u64 state_hash(State& st) {
  u64 h = 1469598103934665603ull;
  for (field::Field* f : st.all_persistent()) {
    const field::Array3& a = f->a();
    const auto* p = reinterpret_cast<const unsigned char*>(a.data());
    const std::size_t n = static_cast<std::size_t>(a.size()) * sizeof(real);
    for (std::size_t b = 0; b < n; ++b) {
      h ^= p[b];
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string fingerprint(int nranks) {
  SolverConfig cfg;
  cfg.grid = bench_support::bench_grid();
  std::vector<std::string> rank_lines(static_cast<std::size_t>(nranks));
  std::string lead;
  std::mutex m;
  mpisim::World world(nranks);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 2));
    mpisim::Comm comm(world, rank, engine);
    MasSolver solver(engine, comm, cfg);
    solver.initialize();
    const PfssResult pfss = pfss_initialize(
        solver.context(), dipole_surface_br(cfg.phys.dipole_b0), 1.0e-8, 500);
    std::ostringstream out;
    out << "pfss iters " << pfss.iterations << " converged "
        << (pfss.converged ? 1 : 0) << " max_div_b " << hex(pfss.max_div_b)
        << '\n';
    for (int s = 1; s <= kSteps; ++s) {
      const StepStats st = solver.step();
      out << "step " << s << " dt " << hex(st.dt) << " visc "
          << st.viscosity_iters << " cond " << st.conduction_iters << '\n';
    }
    const GlobalDiagnostics d = solver.diagnostics();
    out << "total_mass " << hex(d.total_mass) << '\n'
        << "kinetic_energy " << hex(d.kinetic_energy) << '\n'
        << "magnetic_energy " << hex(d.magnetic_energy) << '\n'
        << "thermal_energy " << hex(d.thermal_energy) << '\n'
        << "max_div_b " << hex(d.max_div_b) << '\n'
        << "max_speed " << hex(d.max_speed) << '\n';
    char tail[128];
    std::snprintf(tail, sizeof(tail),
                  "rank %d modeled_s %s state_fnv %016llx\n", rank,
                  hex(engine.ledger().now()).c_str(),
                  static_cast<unsigned long long>(state_hash(solver.state())));
    std::lock_guard<std::mutex> lock(m);
    if (rank == 0) lead = out.str();
    rank_lines[static_cast<std::size_t>(rank)] = tail;
  });
  std::string s = "ranks " + std::to_string(nranks) + '\n' + lead;
  for (const std::string& line : rank_lines) s += line;
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(PhysicsFingerprint, VersionABenchGridMatchesCommittedGolden) {
  const std::string actual = fingerprint(1) + fingerprint(2);
  const std::string golden =
      read_file(std::string(SIMAS_TEST_GOLDEN_DIR) +
                "/physics_fingerprint.txt");
  if (actual != golden) {
    std::ofstream("physics_fingerprint.actual.txt") << actual;
    ADD_FAILURE() << "physics fingerprint differs from the committed golden "
                     "(actual written to physics_fingerprint.actual.txt)\n"
                  << "--- golden\n"
                  << golden << "--- actual\n"
                  << actual;
  }
}

}  // namespace
}  // namespace simas::mhd
