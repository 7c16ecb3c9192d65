// Ablation: implicit PCG conduction vs RKL2 super-time-stepping.
// MAS's parabolic operators can be advanced either implicitly (Krylov) or
// with explicit super-time-stepping (paper ref [25], Caplan et al. 2017);
// this bench compares the modeled cost and the communication profile of
// the two approaches within SIMAS.

#include <algorithm>
#include <iostream>

#include "run/run_experiment.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;

namespace {

struct StsRow {
  double wall_minutes = 0.0;
  double mpi_minutes = 0.0;
  int cond_iters = 0;
};

StsRow run_conduction(bool sts, int stages, int nranks) {
  run::ExperimentConfig cfg;
  cfg.nranks = nranks;
  cfg.grid = bench_support::bench_grid();
  cfg.phys.sts_conduction = sts;
  cfg.phys.sts_stages = stages;
  const run::ExperimentResult res = run::run_experiment(cfg);
  // Iterations from the rank whose step time sets wall_minutes.
  const auto slowest = std::max_element(
      res.ranks.begin(), res.ranks.end(), [](const auto& a, const auto& b) {
        return a.seconds_per_step < b.seconds_per_step;
      });
  return {res.wall_minutes, res.mpi_minutes,
          slowest->last_step.conduction_iters};
}

}  // namespace

int main() {
  std::cout << "Ablation: conduction via implicit PCG vs RKL2 "
               "super-time-stepping\n(Code 1 engine, modeled minutes for "
               "the full test problem)\n\n";
  Table table("conduction scheme comparison");
  table.set_header({"scheme", "ranks", "wall", "MPI", "iters/stages"});
  for (const int nranks : {1, 8}) {
    const auto pcg = run_conduction(false, 0, nranks);
    table.row()
        .cell(std::string("PCG"))
        .cell(nranks)
        .cell(pcg.wall_minutes, 1)
        .cell(pcg.mpi_minutes, 1)
        .cell(pcg.cond_iters);
    for (const int stages : {4, 8, 16}) {
      const auto sts = run_conduction(true, stages, nranks);
      table.row()
          .cell("RKL2 s=" + std::to_string(stages))
          .cell(nranks)
          .cell(sts.wall_minutes, 1)
          .cell(sts.mpi_minutes, 1)
          .cell(sts.cond_iters);
    }
  }
  table.print(std::cout);
  std::cout << "\nRKL2 trades Krylov dot products (allreduce latency) for "
               "extra stage sweeps\n(bandwidth); the crossover depends on "
               "rank count — the trade studied in\npaper ref [25].\n";
  return 0;
}
