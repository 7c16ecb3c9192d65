// Ablation: OpenACC kernel fusion on/off. The paper (Sec. IV-B) names
// kernel fusion as one of the two OpenACC features whose loss makes DC
// slower; this bench isolates its contribution by running the Code 1
// engine with fusion disabled.

#include <iostream>

#include "bench_support/paper_scale.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;

namespace {

double run_with(bool fusion, bool async, int nranks) {
  const i64 run_cells = 24 * 16 * 32;
  bench_support::PaperScale scale;
  double minutes = 0.0;
  mpisim::World world(nranks);
  std::mutex m;
  world.run([&](int rank) {
    auto cfg = variants::engine_config(variants::CodeVersion::A,
                                       gpusim::a100_40gb(), 1);
    cfg.fusion_enabled = fusion;
    cfg.async_enabled = async;
    par::Engine engine(cfg);
    engine.cost().set_scales(scale.vol_scale(run_cells),
                             scale.surf_scale(run_cells));
    engine.cost().set_working_set_shrink(nranks);
    mpisim::Comm comm(world, rank, engine);
    mhd::SolverConfig scfg;
    scfg.grid = bench_support::bench_grid();
    mhd::MasSolver solver(engine, comm, scfg);
    solver.initialize();
    solver.step();  // warmup
    const double t0 = engine.ledger().now();
    solver.run(3);
    std::lock_guard<std::mutex> lock(m);
    minutes = std::max(
        minutes, scale.minutes_for((engine.ledger().now() - t0) / 3.0));
  });
  return minutes;
}

}  // namespace

int main() {
  std::cout << "Ablation: ACC kernel fusion and async launches "
               "(Code 1 engine, modeled minutes)\n\n";
  Table table("feature ablation");
  table.set_header({"fusion", "async", "1 GPU", "8 GPUs"});
  for (const bool fusion : {true, false}) {
    for (const bool async : {true, false}) {
      table.row()
          .cell(std::string(fusion ? "on" : "off"))
          .cell(std::string(async ? "on" : "off"))
          .cell(run_with(fusion, async, 1), 1)
          .cell(run_with(fusion, async, 8), 1);
    }
  }
  table.print(std::cout);
  std::cout << "\nfusion off + async off approximates the launch-side cost "
               "of DC kernel fission\n(paper Sec. IV-B); the remaining "
               "AD-vs-A gap is the compiler's different\noffload "
               "parameters for DC kernels (Sec. V-C).\n";
  return 0;
}
