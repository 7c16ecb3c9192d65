// Porting walkthrough: replays the paper's Sec. IV journey on one
// workload. For each code version (0-6) it prints the version's rules
// (what became DC, what stayed OpenACC, how memory is managed), the
// rule-derived directive count for SIMAS, and the modeled performance on
// one and eight GPUs — the whole paper in one screen.
//
//   ./porting_walkthrough

#include <iostream>

#include "bench_support/run_experiment.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "util/table.hpp"
#include "variants/directive_model.hpp"
#include "variants/inventory.hpp"

using namespace simas;
using bench_support::ExperimentConfig;

int main() {
  // Gather the directive inventory from a canonical solver instance.
  variants::CodeInventory inv;
  mpisim::World world(1);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 2));
    mpisim::Comm comm(world, rank, engine);
    mhd::SolverConfig cfg;
    cfg.grid = bench_support::bench_grid();
    mhd::MasSolver solver(engine, comm, cfg);
    solver.initialize();
    solver.run(2);
    inv = variants::gather_inventory(engine);
  });

  std::cout
      << "From OpenACC to `do concurrent`: the six-version porting path\n"
      << "==============================================================\n\n";

  Table table("porting ladder");
  table.set_header({"Code", "acc lines", "1 GPU (min)", "8 GPUs (min)",
                    "needs"});
  for (const auto v : variants::all_versions()) {
    const auto t = variants::traits_of(v);
    const auto d = variants::directives_for(inv, v);
    std::string needs;
    if (t.needs_inline_flags) needs += "-Minline ";
    if (t.needs_launch_script) needs += "launch.sh ";
    if (t.memory == gpusim::MemoryMode::Unified) needs += "managed-mem ";
    if (needs.empty()) needs.push_back('-');

    std::string t1 = "-", t8 = "-";
    if (v != variants::CodeVersion::Cpu) {
      ExperimentConfig cfg;
      cfg.version = v;
      cfg.nranks = 1;
      cfg.grid = bench_support::bench_grid();
      t1 = format_fixed(bench_support::run_experiment(cfg).wall_minutes, 1);
      cfg.nranks = 8;
      t8 = format_fixed(bench_support::run_experiment(cfg).wall_minutes, 1);
    }
    table.row()
        .cell(std::string(variants::version_tag(v)))
        .cell(d.total())
        .cell(t1)
        .cell(t8)
        .cell(needs);
  }
  table.print(std::cout);

  std::cout << R"(
Reading the ladder (paper Sec. IV and VI):
 * A -> AD       : plain loops become `do concurrent`; reductions, atomics,
                   data movement stay OpenACC. Performance holds.
 * AD -> ADU     : drop manual data movement, rely on unified memory.
                   Directive count collapses — and so does performance:
                   MPI halo exchanges start paging through the host.
 * ADU -> AD2XU  : Fortran 202X `reduce` clause removes reduction loops'
                   OpenACC; atomics survive inside DC loops.
 * AD2XU -> D2XU : loop-flipped array reductions, -Minline for pure
                   routines, CUDA_VISIBLE_DEVICES launch script. ZERO
                   OpenACC directives — but still UM-slow.
 * D2XU -> D2XAd : put manual data management back (with init wrappers):
                   performance returns to within ~6%% of the original,
                   with 5x fewer directives than Code 1.
)";
  return 0;
}
