#pragma once
// The Engine's hot-path metric bundle: every counter the scheduler and
// dispatcher touch per kernel, pre-resolved to registry handles at Engine
// construction so the launch path never does a name lookup (and never
// allocates — see the allocation-counting test in tests/test_par.cpp).
//
// Colder families (mem.*, graph.*, time.*) are published into the same
// registry at snapshot time by Engine::metrics_snapshot(); only what runs
// per-launch lives here.

#include <span>

#include "telemetry/metrics.hpp"

namespace simas::telemetry {

struct EngineMetrics {
  Counter launches;       ///< engine.launches — issued after fusion
  Counter loops;          ///< engine.loops — logical parallel loops
  Counter fused;          ///< engine.fused_launches
  Counter reductions;     ///< engine.reduction_loops
  Counter bytes_touched;  ///< engine.bytes_touched (run scale)
  Counter pool_jobs;      ///< pool.jobs — kernels dispatched to the pool
  Counter pool_inline;    ///< pool.inline_kernels — run on the caller
  Counter pool_joins;     ///< pool.joins — pooled host jobs (one join each)
  Histogram kernel_cells; ///< engine.kernel_cells — iteration-space sizes

  /// Upper bounds of engine.kernel_cells: decades from 1e3 (the inline
  /// threshold neighbourhood) to 1e7, overflow above.
  static constexpr double kCellBounds[] = {1e3, 1e4, 1e5, 1e6, 1e7};

  void bind(Registry& reg) {
    launches = reg.counter("engine.launches");
    loops = reg.counter("engine.loops");
    fused = reg.counter("engine.fused_launches");
    reductions = reg.counter("engine.reduction_loops");
    bytes_touched = reg.counter("engine.bytes_touched");
    pool_jobs = reg.counter("pool.jobs");
    pool_inline = reg.counter("pool.inline_kernels");
    pool_joins = reg.counter("pool.joins");
    kernel_cells =
        reg.histogram("engine.kernel_cells", std::span<const double>(
                                                 kCellBounds));
  }
};

}  // namespace simas::telemetry
