// Quickstart: run the MAS-analog solar MHD model for a few steps on one
// simulated A100 under the original OpenACC-style configuration (Code 1)
// and print physics diagnostics plus the modeled performance summary.
//
//   ./quickstart [--nr 24 --nt 16 --np 32 --steps 5 --version A]

#include <iostream>

#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;

namespace {

variants::CodeVersion parse_version(const std::string& tag) {
  for (const auto v : variants::all_versions()) {
    if (tag == variants::version_tag(v)) return v;
  }
  std::cerr << "unknown version tag '" << tag << "', using A\n";
  return variants::CodeVersion::A;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  grid::GridConfig gcfg;
  gcfg.nr = opt.get_int("nr", 24);
  gcfg.nt = opt.get_int("nt", 16);
  gcfg.np = opt.get_int("np", 32);
  const int steps = static_cast<int>(opt.get_int("steps", 5));
  const auto version = parse_version(opt.get("version", "A"));

  std::cout << "SIMAS quickstart: " << gcfg.nr << "x" << gcfg.nt << "x"
            << gcfg.np << " spherical wedge, code version "
            << variants::version_tag(version) << " ("
            << variants::version_description(version) << ")\n\n";

  mpisim::World world(1);
  world.run([&](int rank) {
    par::Engine engine(
        variants::engine_config(version, gpusim::a100_40gb(), 4));
    mpisim::Comm comm(world, rank, engine);

    mhd::SolverConfig cfg;
    cfg.grid = gcfg;
    mhd::MasSolver solver(engine, comm, cfg);
    solver.initialize();

    Table table("step diagnostics");
    table.set_header({"step", "dt", "visc_iters", "cond_iters", "max|divB|",
                      "max|v|", "KE", "ME"});
    for (int s = 0; s < steps; ++s) {
      const auto stats = solver.step();
      const auto d = solver.diagnostics();
      table.row()
          .cell(s + 1)
          .cell(stats.dt, 5)
          .cell(stats.viscosity_iters)
          .cell(stats.conduction_iters)
          .cell(d.max_div_b, 14)
          .cell(d.max_speed, 5)
          .cell(d.kinetic_energy, 6)
          .cell(d.magnetic_energy, 6);
    }
    table.print(std::cout);

    const auto& counters = engine.counters();
    std::cout << "\nexecution-model summary (" << steps << " steps):\n"
              << "  logical loops:    " << counters.loops_executed << "\n"
              << "  kernel launches:  " << counters.kernel_launches << "\n"
              << "  fused launches:   " << counters.fused_launches << "\n"
              << "  reduction loops:  " << counters.reduction_loops << "\n"
              << "  modeled time:     " << engine.ledger().now() << " s ("
              << engine.ledger().mpi_time() << " s MPI)\n";
  });
  return 0;
}
