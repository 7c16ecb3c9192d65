#include "bench_support/paper_scale.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace simas::bench_support {

double PaperScale::vol_scale(i64 run_cells) const {
  return static_cast<double>(paper_cells) / static_cast<double>(run_cells);
}

double PaperScale::surf_scale(i64 run_cells) const {
  return std::pow(vol_scale(run_cells), 2.0 / 3.0);
}

double PaperScale::minutes_for(double modeled_seconds_per_step) const {
  return modeled_seconds_per_step * static_cast<double>(paper_steps) / 60.0;
}

grid::GridConfig bench_grid() {
  grid::GridConfig g;
  g.nr = 24;
  g.nt = 16;
  g.np = 32;
  g.r_stretch = 4.0;
  return g;
}

double jitter_minutes(double minutes, double fraction, u64 seed, int sample) {
  Rng rng(seed * 1315423911ull + static_cast<u64>(sample) * 2654435761ull);
  return minutes * (1.0 + fraction * (2.0 * rng.uniform() - 1.0));
}

}  // namespace simas::bench_support
