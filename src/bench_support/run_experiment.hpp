#pragma once
// Forwarding header for perfbench, which still reaches the experiment
// runner (run/run_experiment.hpp) through bench_support names. Nothing
// else includes it (Layering.NoCoreIncludesBenchRunner).

#include "bench_support/paper_scale.hpp"
#include "run/run_experiment.hpp"

namespace simas::bench_support {

using run::BoundaryConfig;
using run::boundary_surface_br;
using run::run_experiment;

/// perfbench assigns `shared_pool` next to `ctx`, whose context carries
/// the same pool; engines borrow only through `ctx`, so it is never read.
struct ExperimentConfig : run::ExperimentConfig {
  par::ThreadPool* shared_pool = nullptr;
};

}  // namespace simas::bench_support
