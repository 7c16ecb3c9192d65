#pragma once
// Projection of run-scale work to the paper's test problem.
//
// The paper's test case (Sec. V-A) is a 36M-cell thermodynamic coronal
// relaxation run for the first 24 minutes of a 48-hour simulation. SIMAS
// executes a smaller grid (so the harness finishes in seconds) and scales
// each kernel's byte traffic and each message's payload to paper size:
//   volume terms  x  (paper_cells / run_cells)
//   surface terms x  (paper_cells / run_cells)^(2/3)
// The modeled per-step time is then multiplied by the paper-scale step
// count. Absolute minutes are a model, not a measurement; the reproduction
// target is the *shape* (ratios between code versions and rank counts).

#include "grid/spherical_grid.hpp"
#include "util/types.hpp"

namespace simas::bench_support {

struct PaperScale {
  i64 paper_cells = 36'000'000;
  /// Explicit steps in the paper-scale test segment. Calibrated once so
  /// that Code 1 on one A100 lands near the paper's ~200 wall-clock
  /// minutes; all other entries follow from the model.
  i64 paper_steps = 82'000;

  double vol_scale(i64 run_cells) const;
  double surf_scale(i64 run_cells) const;
  /// Projected minutes for the full run given modeled seconds/step.
  double minutes_for(double modeled_seconds_per_step) const;
};

/// Default run-scale grid for the benches: small enough that a full sweep
/// of versions x rank counts finishes in seconds.
grid::GridConfig bench_grid();

/// Apply modeled run-to-run jitter (the paper plots the average of three
/// runs with min/max error bars).
double jitter_minutes(double minutes, double fraction, u64 seed, int sample);

}  // namespace simas::bench_support
