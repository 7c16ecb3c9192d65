#pragma once
// The Engine's metric bundle: every counter the scheduler and dispatcher
// touch per kernel, pre-resolved to registry handles at Engine
// construction so the launch path never does a name lookup (and never
// allocates — see the allocation-counting test in tests/test_par.cpp).
//
// The per-kernel counts (engine.launches and its four siblings) live in
// the per-site profile (telemetry/profiler.hpp); Engine::metrics_snapshot()
// publishes their column sums at snapshot time, as it publishes the
// colder families (mem.*, graph.*, time.*). bind() registers their names
// first, so the snapshot order does not depend on when they are set.

#include <span>

#include "telemetry/metrics.hpp"

namespace simas::telemetry {

struct EngineMetrics {
  Counter pool_jobs;      ///< pool.jobs — kernels dispatched to the pool
  Counter pool_inline;    ///< pool.inline_kernels — run on the caller
  Counter pool_joins;     ///< pool.joins — pooled host jobs (one join each)
  Histogram kernel_cells; ///< engine.kernel_cells — iteration-space sizes

  /// Upper bounds of engine.kernel_cells: decades from 1e3 (the inline
  /// threshold neighbourhood) to 1e7, overflow above.
  static constexpr double kCellBounds[] = {1e3, 1e4, 1e5, 1e6, 1e7};

  void bind(Registry& reg) {
    for (const char* total :
         {"engine.launches", "engine.loops", "engine.fused_launches",
          "engine.reduction_loops", "engine.bytes_touched"})
      reg.counter(total);
    pool_jobs = reg.counter("pool.jobs");
    pool_inline = reg.counter("pool.inline_kernels");
    pool_joins = reg.counter("pool.joins");
    kernel_cells =
        reg.histogram("engine.kernel_cells", std::span<const double>(
                                                 kCellBounds));
  }
};

}  // namespace simas::telemetry
