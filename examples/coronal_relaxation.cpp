// Coronal relaxation: the paper's test problem in miniature. A stratified
// atmosphere threaded by a dipole relaxes toward a quasi-steady corona
// under thermodynamic MHD (conduction, radiation, coronal heating),
// decomposed over several simulated GPUs. Prints the evolution of global
// energies and the per-shell temperature profile (the CORHEL-style
// quasi-steady background of paper Sec. V-A).
//
//   ./coronal_relaxation [--ranks 4 --steps 20 --version AD]

#include <iostream>

#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;

namespace {

variants::CodeVersion parse_version(const std::string& tag) {
  for (const auto v : variants::all_versions())
    if (tag == variants::version_tag(v)) return v;
  return variants::CodeVersion::AD;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const int nranks = static_cast<int>(opt.get_int("ranks", 4));
  const int steps = static_cast<int>(opt.get_int("steps", 20));
  const auto version = parse_version(opt.get("version", "AD"));

  mhd::SolverConfig cfg;
  cfg.grid.nr = 32;
  cfg.grid.nt = 16;
  cfg.grid.np = 32;
  cfg.grid.r_stretch = 6.0;
  cfg.phys.heat_coef = 4.0e-3;  // stronger heating: build a hot corona

  std::cout << "Coronal relaxation on " << nranks
            << " simulated A100s, code version "
            << variants::version_tag(version) << "\n\n";

  Table energies("global diagnostics vs step");
  energies.set_header(
      {"step", "dt", "KE", "thermal E", "magnetic E", "max|divB|"});
  std::vector<real> shell_t;
  std::mutex m;

  mpisim::World world(nranks);
  world.run([&](int rank) {
    par::Engine engine(
        variants::engine_config(version, gpusim::a100_40gb(), 2));
    mpisim::Comm comm(world, rank, engine);
    mhd::MasSolver solver(engine, comm, cfg);
    solver.initialize();

    for (int s = 0; s < steps; ++s) {
      const auto stats = solver.step();
      if ((s + 1) % 5 == 0 || s == 0) {
        const auto d = solver.diagnostics();
        if (rank == 0) {
          std::lock_guard<std::mutex> lock(m);
          energies.row()
              .cell(s + 1)
              .cell(stats.dt, 5)
              .cell(d.kinetic_energy, 6)
              .cell(d.thermal_energy, 4)
              .cell(d.magnetic_energy, 4)
              .cell(d.max_div_b, 14);
        }
      }
    }
    if (rank == 0) {
      std::lock_guard<std::mutex> lock(m);
      shell_t = solver.last_shell_profile();
    }
  });

  energies.print(std::cout);

  std::cout << "\nrank-0 shell-averaged temperature profile (inner "
            << shell_t.size() << " shells):\n  ";
  for (const real t : shell_t) std::cout << format_fixed(t, 4) << " ";
  std::cout << "\n\nThe corona heats from the base outward (exponential "
               "heating deposition)\nwhile conduction and radiative losses "
               "shape the profile; div B stays at\nround-off under "
               "constrained transport.\n";
  return 0;
}
