#pragma once
// The parallel execution engine: SIMAS's analog of the OpenACC /
// `do concurrent` programming models compared in the paper.
//
// One Engine per simulated rank. The Engine is a *recording front-end*:
// every parallel loop, reduction, sync and fusion break is reified as a
// kernel-stream IR op (par/stream.hpp) and handed to the Scheduler
// (par/scheduler.hpp), which performs all modeled-time accounting.
// Kernels *execute* on host threads with deterministic partitioning
// (results are independent of thread count and execution model), while the
// scheduler *accounts* modeled time on the configured device under one
// LoweringPolicy resolved from the config:
//
//  * LoopModel::Acc    — OpenACC analog: consecutive kernels in the same
//    fusion group merge into one launch (kernel fusion); launches can be
//    asynchronous (latency partially hidden). Reductions use the
//    `reduction` clause; array reductions use atomics.
//  * LoopModel::Dc2018 — `do concurrent` within Fortran 2018: plain loops
//    become DC (one kernel per loop, synchronous — kernel fission);
//    reductions are NOT expressible and remain OpenACC (paper Code 2/3).
//  * LoopModel::Dc2x   — Fortran 202X preview: adds the `reduce` clause;
//    array reductions flip the loop order (paper Listing 5, Code 5/6).
//
// The compiler personality (par/compiler_personality.hpp) and the
// fusion/async ablation flags refine the same policy.
//
// On top of the IR, the Engine offers CUDA-Graph-style capture/replay
// (EngineConfig::graph_replay): a GraphScope names a repeated op sequence
// (the PCG inner iteration); its first pass is captured, later passes are
// validated against the capture and charged one per-graph launch overhead
// instead of one per kernel. See DESIGN.md "Execution pipeline".

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.hpp"
#ifdef SIMAS_ELEMENT_SHADOW
#include "analysis/shadow.hpp"
#endif
#include "gpusim/clock_ledger.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/memory_manager.hpp"
#include "par/kernel_site.hpp"
#include "par/range.hpp"
#include "par/scheduler.hpp"
#include "par/sim_context.hpp"
#include "par/site_table.hpp"
#include "par/stream.hpp"
#include "par/thread_pool.hpp"
#include "telemetry/engine_metrics.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace simas::analysis {
class StreamCapture;
class Validator;
}

namespace simas::par {

class Engine {
 public:
  explicit Engine(EngineConfig cfg);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const { return cfg_; }
  gpusim::ClockLedger& ledger() { return ledger_; }
  const gpusim::ClockLedger& ledger() const { return ledger_; }
  gpusim::CostModel& cost() { return cost_; }
  gpusim::MemoryManager& memory() { return mem_; }
  trace::Recorder& tracer() { return tracer_; }

  /// Snapshot view of the engine.* counter family, synthesized from the
  /// telemetry registry (the store of record).
  EngineCounters counters() const {
    EngineCounters c;
    c.kernel_launches = metrics_.launches.value();
    c.loops_executed = metrics_.loops.value();
    c.fused_launches = metrics_.fused.value();
    c.reduction_loops = metrics_.reductions.value();
    c.bytes_touched = metrics_.bytes_touched.value();
    return c;
  }

  /// This rank's metrics registry. Subsystems owned by the rank (the halo
  /// exchanger) register their own metrics here at construction time.
  telemetry::Registry& metrics_registry() { return registry_; }
  /// Per-kernel-site hot-spot accumulation (always on; O(1) per launch).
  const telemetry::SiteProfiler& site_profiler() const { return profiler_; }
  /// Full metrics snapshot. Publishes the colder families first — time.*
  /// from the ClockLedger, mem.* from MemoryStats/UmStats, graph.* from
  /// GraphStats — so one call captures everything the rank knows.
  telemetry::MetricsSnapshot metrics_snapshot();

  /// Live kernel-stream validator; nullptr when validation is off.
  analysis::Validator* validator() { return validator_.get(); }
  /// Drain the validator's findings (empty report when validation is off).
  /// Draining before teardown also disarms the validate_fatal abort.
  analysis::ValidationReport take_validation_report();

  /// Recorded event trace (cfg.capture_stream); nullptr when capture is
  /// off.
  analysis::StreamCapture* stream_capture() { return capture_.get(); }
  /// Run the static verifier over the recorded trace (empty report when
  /// capture is off). Pure: executes no kernels, touches no engine state.
  analysis::ValidationReport static_verify() const;

  /// Halo-exchange window notes (called by mpisim::HaloExchanger), emitted
  /// as HaloBeginRec / HaloEndRec events: flight-recorded, captured, and
  /// fed to the runtime validator's in-flight tracking. Columns are
  /// (i + nghost); pass -1 to skip a side (a begin with neither side
  /// posted is not an event).
  void note_halo_begin(gpusim::ArrayId id, std::size_t radial_stride,
                       int lo_column, int hi_column);
  void note_halo_end(gpusim::ArrayId id);

  /// Scoped time-category override: halo exchange wraps its buffer
  /// pack/unpack kernels in Mpi so that "buffer loading/unloading" lands in
  /// the MPI ledger, matching the paper's Fig. 3 definition.
  class CategoryScope {
   public:
    CategoryScope(Engine& e, gpusim::TimeCategory cat)
        : engine_(e), saved_(e.kernel_category_) {
      engine_.kernel_category_ = cat;
    }
    ~CategoryScope() { engine_.kernel_category_ = saved_; }
    CategoryScope(const CategoryScope&) = delete;
    CategoryScope& operator=(const CategoryScope&) = delete;

   private:
    Engine& engine_;
    gpusim::TimeCategory saved_;
  };

  /// Anything that is not a kernel launch (MPI call, data directive,
  /// host sync) breaks ACC kernel fusion chains.
  void break_fusion();

  // ------------------------------------------------------------------
  // Modeled unified-memory hints (cudaMemPrefetchAsync / cudaMemAdvise).
  //
  // Recorded as MemHintOp stream ops so capture/replay and the static
  // verifier see them. No-ops — not even recorded — unless
  // the engine runs Unified memory on a GPU, so manual and host streams
  // are untouched. Hints never break fusion chains and never touch
  // physics data; they only move modeled pages and time.

  /// Prefetch `bytes` of the array toward the device (or host) ahead of
  /// demand. `span` declares the radial footprint the prefetch intends to
  /// cover, for the static verifier's hint-correctness rules.
  void mem_prefetch(gpusim::ArrayId id, i64 bytes, Span span = Span::Full,
                    bool to_device = true, const KernelSite* site = nullptr);
  /// Apply a residency advise (AdviseReadMostly / AdvisePreferredHost);
  /// other MemHint values are ignored. Covers the whole array.
  void mem_advise(gpusim::ArrayId id, MemHint advise,
                  const KernelSite* site = nullptr);

  // ------------------------------------------------------------------
  // Parallel loops. body(i, j, k) is invoked for every point of r.
  template <class F>
  void for_each(const KernelSite& site, Range3 r,
                std::initializer_list<Access> acc, F&& body) {
    record<LaunchOp>(site, r.count(), acc);
    body_begin();
    execute3(r, std::forward<F>(body));
    body_end();
  }

  /// 1-D variant for packed buffers and solver vectors.
  template <class F>
  void for_each1(const KernelSite& site, Range1 r,
                 std::initializer_list<Access> acc, F&& body) {
    record<LaunchOp>(site, r.count(), acc);
    body_begin();
    execute1(r, std::forward<F>(body));
    body_end();
  }

  // ------------------------------------------------------------------
  // Scalar reductions. term(i, j, k) -> value. Deterministic block order.
  template <class F>
  real reduce_sum(const KernelSite& site, Range3 r,
                  std::initializer_list<Access> acc, F&& term) {
    record<ReduceOp>(site, r.count(), acc);
    body_begin();
    const real v = reduce3(r, std::forward<F>(term), /*take_max=*/false);
    body_end();
    return v;
  }

  template <class F>
  real reduce_max(const KernelSite& site, Range3 r,
                  std::initializer_list<Access> acc, F&& term) {
    record<ReduceOp>(site, r.count(), acc);
    body_begin();
    const real v = reduce3(r, std::forward<F>(term), /*take_max=*/true);
    body_end();
    return v;
  }

  template <class F>
  real reduce_sum1(const KernelSite& site, Range1 r,
                   std::initializer_list<Access> acc, F&& term) {
    record<ReduceOp>(site, r.count(), acc);
    body_begin();
    const real v = reduce1(r, std::forward<F>(term));
    body_end();
    return v;
  }

  // ------------------------------------------------------------------
  // Array reduction: out[i - r.i0] accumulates term(i, j, k) over (j, k).
  //
  // Executed as a flipped loop (outer over i, inner reduce) for
  // determinism under every model; the *accounting* follows the active
  // scheduler: ACC / DC+atomic issue one kernel with atomic traffic, DC2X
  // issues the flipped loop (paper Listing 3 -> 4 -> 5).
  template <class F>
  void array_reduce(const KernelSite& site, Range3 r,
                    std::initializer_list<Access> acc, std::span<real> out,
                    F&& term) {
    record<ArrayReduceOp>(site, r.count(), acc);
    body_begin();
    execute_array_reduce(r, out, std::forward<F>(term));
    body_end();
  }

  // ------------------------------------------------------------------
  /// Host-side synchronization point (drains async queues, breaks fusion).
  void device_sync();

  /// Modeled elapsed seconds so far on this rank.
  double modeled_seconds() const { return ledger_.now(); }

  // ------------------------------------------------------------------
  // Graph capture/replay (active only when cfg.graph_replay && cfg.gpu).
  //
  // The first pass over a named scope captures the op sequence; later
  // passes replay it: one per-graph launch overhead, zero per-kernel
  // launch overhead. The live stream is validated op-by-op against the
  // capture; on divergence the graph is invalidated (re-captured on the
  // next pass) and the rest of the pass is charged normally.

  void graph_begin(const std::string& name);
  void graph_end();

  /// RAII wrapper marking one pass over a replayable op sequence.
  class GraphScope {
   public:
    GraphScope(Engine& e, const std::string& name) : engine_(e) {
      engine_.graph_begin(name);
    }
    ~GraphScope() { engine_.graph_end(); }
    GraphScope(const GraphScope&) = delete;
    GraphScope& operator=(const GraphScope&) = delete;

   private:
    Engine& engine_;
  };

  GraphStats graph_stats() const;
  /// The captured graph registered under `name`, if any.
  const CapturedGraph* find_graph(const std::string& name) const;

 private:
  // Op recording (front-end): build the kernel IR op (LaunchOp, ReduceOp
  // or ArrayReduceOp) and emit it. Instantiated in engine.cpp.
  template <class Op>
  void record(const KernelSite& site, i64 cells,
              std::initializer_list<Access> acc);
  /// The one place the engine's observers learn about an event: every op,
  /// data event and halo window is encoded into the flight ring, appended
  /// to the stream capture and fed to the validator here, in program
  /// order. Ops then go on to graph capture/replay and the scheduler.
  void emit(StreamEvent ev);
  void diverge();
  /// Dump the process flight recorder when a drained validation report
  /// carries errors and the context's SIMAS_FLIGHT_DUMP path is set.
  void maybe_flight_dump(const analysis::ValidationReport& report);
#ifdef SIMAS_ELEMENT_SHADOW
  // Validator body brackets (no-ops when validation is off); defined in
  // engine.cpp so this header needs only the forward declaration.
  void body_begin();
  void body_end();
#else
  // The production validator observes no kernel body: nothing to bracket.
  void body_begin() {}
  void body_end() {}
#endif
  /// Surface-scaled when the site says so or any accessed array is a
  /// surface-sized buffer (halo pack/unpack).
  gpusim::ScaleClass resolve_scale(const KernelSite& site,
                                   std::initializer_list<Access> acc) const;

  // ---- Host execution (see DESIGN.md §11 "Host execution layer") ----
  //
  // Determinism rules: anything that changes *which values are combined
  // in which order* must depend on the problem shape only — never on the
  // thread count or on who executes a block. Plain loops (execute3 /
  // execute1 / execute_array_reduce) write each cell exactly once, so
  // their grain is free to adapt to the shape; scalar reductions combine
  // per-block partials in block order, so their partitioning is *pinned*
  // (kReducePlanesPerBlock / kReduceChunk) — changing it would change
  // partial-sum rounding and every golden result built on it.

  /// Pinned reduction partitioning (frozen: determines partial-sum order).
  static constexpr i64 kReducePlanesPerBlock = 8;
  static constexpr i64 kReduceChunk = 4096;
  /// Adaptive-grain target block count for plain loops: enough blocks to
  /// feed/balance any plausible host, few enough that the per-block
  /// claim fetch-add never dominates. Shape-derived only.
  static constexpr i64 kTargetBlocks = 256;
  /// Kernels with fewer cells than this run inline on the caller: at this
  /// size the work is microseconds, so waking workers costs more than it
  /// buys. Execution placement never affects results (the partition and
  /// the partial-sum order are unchanged), only who runs the blocks.
  static constexpr i64 kInlineCells = 4096;

  /// Floor on the cells a plain-loop block should carry: below this the
  /// fixed per-block cost (one div/mod for the (j,k) seed, loop setup)
  /// rivals the cells themselves. Matches the 1-D chunk floor.
  static constexpr i64 kMinBlockCells = 1024;

  /// Planes per block for a plain 3-D loop: ~kTargetBlocks blocks, but
  /// each block carries at least ~kMinBlockCells cells (small kernels
  /// coalesce — an 8x8x8 kernel is one block, not 64 one-plane blocks).
  /// A 4-plane kernel with a long i extent still gets 4 blocks (not 1);
  /// a million-plane loop still caps near kTargetBlocks claims. Derived
  /// from the iteration-space shape only, never the thread count.
  static i64 plane_grain(i64 planes, i64 ni) {
    const i64 spread = ceil_div(planes, kTargetBlocks);
    const i64 fill = ceil_div(kMinBlockCells, std::max<i64>(1, ni));
    return std::max<i64>(1, std::max(spread, std::min(fill, planes)));
  }
  /// Chunk for a plain 1-D loop: ~kTargetBlocks blocks, but never chunks
  /// so small that the claim overhead shows.
  static i64 chunk_grain(i64 n) {
    return std::max<i64>(kMinBlockCells, ceil_div(n, kTargetBlocks));
  }

  /// Run fn(b) for b in [0, nblocks): inline for small kernels, else on
  /// the pool. Blocks execute exactly once either way; results are
  /// identical by construction.
  template <class Fn>
  void dispatch_blocks(i64 nblocks, i64 cells, Fn&& fn) {
    if (cells <= kInlineCells) {
      metrics_.pool_inline.add();
      for (i64 b = 0; b < nblocks; ++b) fn(b);
    } else {
      metrics_.pool_jobs.add();
      pool_->run_blocks(nblocks, fn);
    }
  }

  /// Publish the flat iteration id of the cell about to run, for the
  /// validator's element tags. Only the checked flavor's validated
  /// instantiation (kShadow = true) does anything; the production flavor
  /// never instantiates it.
  template <bool kShadow>
  void tag_iteration([[maybe_unused]] i64 flat) const {
#ifdef SIMAS_ELEMENT_SHADOW
    if constexpr (kShadow) analysis::set_current_iteration(shadow_ctx_, flat);
#endif
  }

  template <class F>
  void execute3(Range3 r, F&& body) {
#ifdef SIMAS_ELEMENT_SHADOW
    // The iteration-tagging path is selected once per launch (a separate
    // template instantiation), not per element: unvalidated runs carry
    // zero per-iteration validation cost. Validated runs stay
    // byte-identical in modeled time — the validator observes the op
    // stream and element accesses but never touches the clock ledger.
    if (validator_ != nullptr) return execute3_impl<true>(r, body);
#endif
    execute3_impl<false>(r, body);
  }

  template <bool kShadow, class F>
  void execute3_impl(Range3 r, F& body) {
    const idx nj = r.nj();
    const i64 ni = r.ni();
    const i64 planes = static_cast<i64>(nj) * r.nk();
    if (planes <= 0 || ni <= 0) return;
    const i64 ppb = plane_grain(planes, ni);
    const i64 nblocks = ceil_div(planes, ppb);
    dispatch_blocks(nblocks, planes * ni, [&](i64 b) {
      const i64 p0 = b * ppb;
      const i64 p1 = std::min<i64>(planes, p0 + ppb);
      // Incremental (j,k) walk: one div/mod per block, not per plane.
      idx j = r.j0 + static_cast<idx>(p0 % nj);
      idx k = r.k0 + static_cast<idx>(p0 / nj);
      for (i64 p = p0; p < p1; ++p) {
        for (idx i = r.i0; i < r.i1; ++i) {
          tag_iteration<kShadow>(p * ni + (i - r.i0));
          body(i, j, k);
        }
        if (++j == r.j1) {
          j = r.j0;
          ++k;
        }
      }
    });
  }

  template <class F>
  void execute1(Range1 r, F&& body) {
#ifdef SIMAS_ELEMENT_SHADOW
    if (validator_ != nullptr) return execute1_impl<true>(r, body);
#endif
    execute1_impl<false>(r, body);
  }

  template <bool kShadow, class F>
  void execute1_impl(Range1 r, F& body) {
    const i64 n = r.count();
    if (n <= 0) return;
    const i64 chunk = chunk_grain(n);
    const i64 nblocks = ceil_div(n, chunk);
    dispatch_blocks(nblocks, n, [&](i64 b) {
      const idx lo = r.begin + static_cast<idx>(b * chunk);
      const idx hi = std::min<idx>(r.end, lo + static_cast<idx>(chunk));
      for (idx i = lo; i < hi; ++i) {
        tag_iteration<kShadow>(i - r.begin);
        body(i);
      }
    });
  }

  static constexpr real max_identity() {
    return std::numeric_limits<real>::lowest();
  }

  /// Per-block partial results, sized on demand and reused across calls:
  /// reductions are allocation-free in steady state (PCG calls two dot
  /// products per inner iteration — a malloc here sits in the innermost
  /// solver loop). Every entry in [0, nblocks) is written by its block
  /// before being combined, so no re-initialization is needed.
  real* reduce_partials(i64 nblocks) {
    if (static_cast<i64>(partials_.size()) < nblocks)
      partials_.resize(static_cast<std::size_t>(nblocks));
    return partials_.data();
  }

  template <class F>
  real reduce3(Range3 r, F&& term, bool take_max) {
    const idx nj = r.nj(), nk = r.nk();
    const i64 planes = static_cast<i64>(nj) * nk;
    if (planes <= 0 || r.ni() <= 0) return take_max ? max_identity() : 0.0;
    // Pinned partitioning: partial-sum order is part of the results.
    const i64 planes_per_block = kReducePlanesPerBlock;
    const i64 nblocks = ceil_div(planes, planes_per_block);
    real* partial = reduce_partials(nblocks);
    dispatch_blocks(nblocks, planes * r.ni(), [&](i64 b) {
      const i64 p0 = b * planes_per_block;
      const i64 p1 = std::min<i64>(planes, p0 + planes_per_block);
      idx j = r.j0 + static_cast<idx>(p0 % nj);
      idx k = r.k0 + static_cast<idx>(p0 / nj);
      real acc = take_max ? max_identity() : 0.0;
      for (i64 p = p0; p < p1; ++p) {
        for (idx i = r.i0; i < r.i1; ++i) {
          const real v = term(i, j, k);
          if (take_max) {
            acc = nan_max(acc, v);
          } else {
            acc += v;
          }
        }
        if (++j == r.j1) {
          j = r.j0;
          ++k;
        }
      }
      partial[b] = acc;
    });
    real total = take_max ? max_identity() : 0.0;
    for (i64 b = 0; b < nblocks; ++b) {
      if (take_max) {
        total = nan_max(total, partial[b]);
      } else {
        total += partial[b];
      }
    }
    return total;
  }

  /// Blocked 1-D sum with the pinned kReduceChunk partitioning:
  /// deterministic and thread-count invariant, like every other entry
  /// point.
  template <class F>
  real reduce1(Range1 r, F&& term) {
    const i64 n = r.count();
    if (n <= 0) return 0.0;
    const i64 chunk = kReduceChunk;
    const i64 nblocks = ceil_div(n, chunk);
    real* partial = reduce_partials(nblocks);
    dispatch_blocks(nblocks, n, [&](i64 b) {
      const idx lo = r.begin + static_cast<idx>(b * chunk);
      const idx hi = std::min<idx>(r.end, lo + static_cast<idx>(chunk));
      real acc = 0.0;
      for (idx i = lo; i < hi; ++i) acc += term(i);
      partial[b] = acc;
    });
    real total = 0.0;
    for (i64 b = 0; b < nblocks; ++b) total += partial[b];
    return total;
  }

  template <class F>
  void execute_array_reduce(Range3 r, std::span<real> out, F&& term) {
#ifdef SIMAS_ELEMENT_SHADOW
    if (validator_ != nullptr) return execute_array_reduce_impl<true>(r, out, term);
#endif
    execute_array_reduce_impl<false>(r, out, term);
  }

  template <bool kShadow, class F>
  void execute_array_reduce_impl(Range3 r, std::span<real> out, F& term) {
    const idx ni = r.ni();
    if (ni <= 0) return;
    // One block per output element: pinned (inner accumulation order is
    // part of the results), like the scalar reductions.
    const i64 nblocks = ni;
    dispatch_blocks(nblocks, static_cast<i64>(r.count()), [&](i64 b) {
      tag_iteration<kShadow>(b);
      const idx i = r.i0 + static_cast<idx>(b);
      real acc = 0.0;
      for (idx k = r.k0; k < r.k1; ++k)
        for (idx j = r.j0; j < r.j1; ++j) acc += term(i, j, k);
      out[static_cast<std::size_t>(b)] += acc;
    });
  }

  /// Always-installed memory observer: emits every coherence transition
  /// (data directives, host/device access notes) as a DataEventRec.
  struct FlightMemObserver final : gpusim::MemoryObserver {
    Engine* engine = nullptr;
    void on_data_event(gpusim::DataEvent ev, gpusim::ArrayId id) override;
  };

  EngineConfig cfg_;
  gpusim::ClockLedger ledger_;
  gpusim::CostModel cost_;
  gpusim::MemoryManager mem_;
  FlightMemObserver flight_obs_;
  trace::Recorder tracer_;
  /// Kernel execution threads: borrowed (the context's shared pool — N
  /// engines multiplexing one host-thread budget) or owned. The
  /// multi-job pool makes concurrent run_blocks from several engines
  /// safe; determinism is unaffected either way (partitioning is
  /// caller-defined, the pool only places blocks).
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  /// Store of record for every per-rank metric (see DESIGN.md §13).
  telemetry::Registry registry_;
  /// Hot-path handles into registry_, bound once in the constructor.
  telemetry::EngineMetrics metrics_;
  telemetry::SiteProfiler profiler_;
  gpusim::TimeCategory kernel_category_ = gpusim::TimeCategory::Compute;
  Scheduler sched_;
  std::unique_ptr<analysis::Validator> validator_;
  /// Event-trace recorder; feeds static_verify().
  std::unique_ptr<analysis::StreamCapture> capture_;
#ifdef SIMAS_ELEMENT_SHADOW
  /// Identity the execute loops publish with each iteration id while
  /// validation is on, so shadow slots can tag touched elements: this
  /// engine's validator and its current armed window. Slots owned by
  /// other engines (shared ThreadPool) ignore ids carrying a different
  /// owner/window, so interleaved engines cannot cross-pollute element
  /// tags. Updated by body_begin on the rank thread; pool workers read it
  /// after the job publication fence.
  analysis::ShadowExecContext shadow_ctx_;
#endif
  /// Reused per-block partials scratch for reduce3/reduce1 (sized to the
  /// largest reduction seen; steady-state reductions never allocate).
  std::vector<real> partials_;

  // Graph capture/replay state.
  enum class GraphMode { Off, Capture, Replay, Diverged };
  std::unordered_map<std::string, CapturedGraph> graphs_;
  CapturedGraph* active_graph_ = nullptr;
  GraphMode graph_mode_ = GraphMode::Off;
  int graph_depth_ = 0;
  std::size_t replay_cursor_ = 0;
  GraphStats graph_stats_;
};

}  // namespace simas::par
