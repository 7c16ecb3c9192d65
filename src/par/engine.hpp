#pragma once
// The parallel execution engine: SIMAS's analog of the OpenACC /
// `do concurrent` programming models compared in the paper.
//
// One Engine per simulated rank. Every parallel loop, reduction, sync and
// fusion break is reified as a kernel-stream IR op (par/stream.hpp) and
// passes through one per-op pipeline: observers, graph capture/replay,
// then the engine's own accounting of modeled time (consume() and the
// charge() it drives, engine.cpp). Kernels *execute* on host threads with
// deterministic partitioning (results are independent of thread count and
// execution model), while the accounting charges modeled time on the
// configured device under one LoweringPolicy resolved from the config
// (par/scheduler.hpp):
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
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
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
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

/// Marks the per-block function of each loop nest: every call inside it is
/// inlined, cell bodies included, so a body shared by two launches (the
/// RadialSplit interior and shell) is never called out of line per cell.
/// See DESIGN.md §11 "Cell bodies inline".
#if defined(__GNUC__)
#define SIMAS_FLATTEN __attribute__((flatten))
#else
#define SIMAS_FLATTEN
#endif

namespace simas::analysis {
class StreamCapture;
class Validator;
}

namespace simas::par {

/// One part of a cell-local chain (Engine::chain_sum_n): a component
/// sweep's site, access_of(c) and body_of(c), as for_each_n takes them.
template <class AccessOf, class BodyOf>
struct Sweep {
  const KernelSite& site;
  AccessOf access_of;
  BodyOf body_of;
};
template <class AccessOf, class BodyOf>
Sweep(const KernelSite&, AccessOf, BodyOf) -> Sweep<AccessOf, BodyOf>;

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
  /// The pool kernel bodies run on (owned, or the context's shared one).
  const ThreadPool& pool() const { return *pool_; }

  /// Snapshot view of the engine.* counter family: the column sums of
  /// the per-site profile (the store of record for per-kernel counts).
  EngineCounters counters() const;

  /// This rank's metrics registry. Subsystems owned by the rank (the halo
  /// exchanger) register their own metrics here at construction time.
  telemetry::Registry& metrics_registry() { return registry_; }
  /// Per-kernel-site hot-spot accumulation (always on; O(1) per launch).
  const telemetry::SiteProfiler& site_profiler() const { return profiler_; }
  /// Full metrics snapshot. Publishes the site profile's engine.* sums
  /// and the colder families first — time.* from the ClockLedger, mem.*
  /// from MemoryStats/UmStats, graph.* from GraphStats — so one call
  /// captures everything the rank knows.
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
    for_each_n(site, r, 1, [acc](int) { return acc; },
               [&body](int) -> F& { return body; });
  }

  /// Component sweep: n launches of one site over one range, one per
  /// component of a solver vector system (the three velocity components
  /// of the viscous PCG), recorded as n for_each calls would record them
  /// and run as ONE host job (launch()). access_of(c) returns component
  /// c's access list (any contiguous range of Access, e.g. a std::array)
  /// and body_of(c) its cell body, called inside each block so that no
  /// body outlives this call.
  template <class AccessOf, class BodyOf>
  void for_each_n(const KernelSite& site, Range3 r, int n,
                  AccessOf&& access_of, BodyOf&& body_of) {
    launch(r.count(), n,
           [&](auto shadow, int, int c0, int cn) {
             loop3(shadow, r, c0, cn, body_of);
           },
           ops<LaunchOp>(site, access_of));
  }

  /// 1-D variant for packed buffers and solver vectors.
  template <class F>
  void for_each1(const KernelSite& site, Range1 r,
                 std::initializer_list<Access> acc, F&& body) {
    launch(r.count(), 1,
           [&](auto shadow, int, int, int) { loop1(shadow, r, body); },
           ops<LaunchOp>(site, [acc](int) { return acc; }));
  }

  // ------------------------------------------------------------------
  // Scalar reductions. term(i, j, k) -> value. Deterministic block order.
  template <class F>
  real reduce_sum(const KernelSite& site, Range3 r,
                  std::initializer_list<Access> acc, F&& term) {
    return reduce(site, r, acc, term, /*take_max=*/false);
  }

  template <class F>
  real reduce_max(const KernelSite& site, Range3 r,
                  std::initializer_list<Access> acc, F&& term) {
    return reduce(site, r, acc, term, /*take_max=*/true);
  }

  /// Cell-local chain: k component sweeps over one range, then a
  /// component sum. parts are k + 1 Sweeps: the k stages, then the sum,
  /// whose body_of(c) returns the term. Recorded exactly as k for_each_n
  /// calls and n reduce_sum calls record them (all n ops of stage 1, then
  /// stage 2, ..., then the n ReduceOps) and run as ONE host job over the
  /// sum's pinned partition (launch()). Each (j, k) row of component c
  /// runs stage 1 ... k of c over the row, then the term; each stage
  /// writes a cell once and the partials combine in block order, then
  /// component order from 0.0, so the stages' outputs and the sum are bit
  /// for bit those of the separate launches and the loop
  /// `s += reduce_sum(...)` over c. k = 0 is a plain component sum.
  ///
  /// Legality, which the caller guarantees: a stage may read an array
  /// written earlier in the chain only at its own cell (i, j, k); only
  /// arrays the chain does not write may be read through a stencil.
  /// The engine checks the component rule of for_each_n over all stages:
  /// no component of any stage may write an array that another component
  /// of any stage declares (std::logic_error before anything is recorded).
  template <class... Parts>
  real chain_sum_n(Range3 r, int n, const Parts&... parts) {
    static_assert(sizeof...(Parts) >= 1, "a chain ends in a sum");
    return chain_sum(r, n, std::forward_as_tuple(parts...),
                     std::make_index_sequence<sizeof...(Parts) - 1>{});
  }

  // ------------------------------------------------------------------
  // Array reduction: out[i - r.i0] accumulates term(i, j, k) over (j, k).
  //
  // Executed as a flipped loop (outer over i, inner reduce) for
  // determinism under every model; the *accounting* follows the lowering
  // policy: ACC / DC+atomic issue one kernel with atomic traffic, DC2X
  // issues the flipped loop (paper Listing 3 -> 4 -> 5).
  template <class F>
  void array_reduce(const KernelSite& site, Range3 r,
                    std::initializer_list<Access> acc, std::span<real> out,
                    F&& term) {
    launch(r.count(), 1,
           [&](auto shadow, int, int, int) {
             array_reduce_loop(shadow, r, out, term);
           },
           ops<ArrayReduceOp>(site, [acc](int) { return acc; }));
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

  const GraphStats& graph_stats() const { return graph_stats_; }
  /// The captured graph registered under `name`, if any.
  const CapturedGraph* find_graph(const std::string& name) const;

 private:
  // Op recording (front-end): build the kernel IR op (LaunchOp, ReduceOp
  // or ArrayReduceOp) and emit it. Instantiated in engine.cpp.
  template <class Op>
  void record(const KernelSite& site, i64 cells, std::span<const Access> acc);

  /// n ops of type Op at one site: op c declares access_of(c).
  template <class Op, class AccessOf>
  struct OpGroup {
    using OpType = Op;
    const KernelSite& site;
    const AccessOf& access_of;
  };
  template <class Op, class AccessOf>
  static OpGroup<Op, AccessOf> ops(const KernelSite& site,
                                   const AccessOf& access_of) {
    return {site, access_of};
  }

  /// The one launch path behind every kernel entry point: check that the
  /// n components are independent, record each group's n ops of `cells`
  /// cells, group by group in component order, and run them. Element
  /// checks need one armed window per op, so the checked flavor with a
  /// validator records and runs op by op, each in its own body window:
  /// run(std::true_type, g, c, 1) runs component c of group g (plain loops
  /// then publish iteration ids for the element tags). Otherwise all ops
  /// are recorded first and run(std::false_type, 0, 0, n) runs every group
  /// and component as ONE host job. The split is made once per launch,
  /// never per cell.
  template <class Run, class... Groups>
  void launch(i64 cells, int n, Run&& run, const Groups&... groups) {
    check_independent(n, groups...);
#ifdef SIMAS_ELEMENT_SHADOW
    if (validator_ != nullptr) {
      int g = 0;
      const auto op_by_op = [&](const auto& grp) {
        for (int c = 0; c < n; ++c) {
          record<typename std::remove_cvref_t<decltype(grp)>::OpType>(
              grp.site, cells, grp.access_of(c));
          body_begin();
          run(std::true_type{}, g, c, 1);
          body_end();
        }
        ++g;
      };
      (op_by_op(groups), ...);
      return;
    }
#endif
    const auto record_all = [&](const auto& grp) {
      for (int c = 0; c < n; ++c)
        record<typename std::remove_cvref_t<decltype(grp)>::OpType>(
            grp.site, cells, grp.access_of(c));
    };
    (record_all(groups), ...);
    run(std::false_type{}, 0, 0, n);
  }

  /// The components of one launch must be independent: throws
  /// std::logic_error if component c of any group writes an array that
  /// component d (d != c) of any group declares at all. Allocation-free
  /// unless it throws.
  template <class... Groups>
  static void check_independent(int n, const Groups&... groups) {
    if (n < 2) return;
    // each(c, f): f(site, access list) for component c of every group.
    const auto each = [&](int c, const auto& f) {
      (f(groups.site, std::span<const Access>(groups.access_of(c))), ...);
    };
    for (int c = 0; c < n; ++c)
      each(c, [&](const KernelSite& site, std::span<const Access> mine) {
        for (int d = 0; d < n; ++d) {
          if (d == c) continue;
          each(d, [&](const KernelSite&, std::span<const Access> theirs) {
            for (const Access& w : mine) {
              if (!w.write) continue;
              for (const Access& a : theirs)
                if (a.id == w.id) throw_dependent(site, c, d);
            }
          });
        }
      });
  }
  /// The error check_independent throws; out of line, so each launch
  /// instantiation carries only the comparison loops.
  [[noreturn]] static void throw_dependent(const KernelSite& site, int c,
                                           int d);

  /// chain_sum_n over parts = (stage 0, ..., stage k - 1, sum). Fused, the
  /// sum's reduce3 runs every stage's body over each plane's row of cells,
  /// stage by stage, before the sum's term walks that row: each stage
  /// loop stays a plain i loop the compiler can vectorize, and a stage
  /// still reads an earlier stage's output only after its cell is
  /// written. Op by op, group g < k is stage g's loop3 and group k the
  /// sum's reduce3, as the separate launches run.
  template <class Parts, std::size_t... s>
  real chain_sum(Range3 r, int n, const Parts& parts,
                 std::index_sequence<s...>) {
    constexpr int k = static_cast<int>(sizeof...(s));
    const auto& sum = std::get<k>(parts);
    const auto rows_of = [&]([[maybe_unused]] int c) {
      return [stages = std::tuple{std::get<s>(parts).body_of(c)...}](
                 idx i0, idx i1, idx j, idx kk) {
        [[maybe_unused]] const auto row = [&](auto& stage) {
          for (idx i = i0; i < i1; ++i) stage(i, j, kk);
        };
        (row(std::get<s>(stages)), ...);
      };
    };
    real total = 0.0;
    launch(r.count(), n,
           [&](auto shadow, [[maybe_unused]] int g, int c0, int cn) {
             if constexpr (decltype(shadow)::value) {
               ((g == static_cast<int>(s)
                     ? loop3(shadow, r, c0, cn, std::get<s>(parts).body_of)
                     : void()),
                ...);
               if (g == k) total += reduce3(r, c0, cn, sum.body_of, false);
             } else {
               total = reduce3(r, c0, cn, sum.body_of, false, k + 1, rows_of);
             }
           },
           ops<LaunchOp>(std::get<s>(parts).site,
                         std::get<s>(parts).access_of)...,
           ops<ReduceOp>(sum.site, sum.access_of));
    return total;
  }
  /// The one place the engine's observers learn about an event: every op,
  /// data event and halo window is encoded into the flight ring, appended
  /// to the stream capture and fed to the validator here, in program
  /// order. Ops then go on to graph capture/replay and consume().
  void emit(StreamEvent ev);
  void diverge();

  // ---- Accounting (the end of the per-op pipeline, engine.cpp) ----
  //
  // Drives the cost model, clock ledger, memory manager, site profile and
  // trace recorder. Ops must be consumed in program order: fusion and
  // unified-memory residency are stateful.
  void consume(const StreamOp& op);
  void on_launch(const LaunchOp& op);
  void on_reduce(const KernelOp& op, double traffic_factor);
  void on_sync();
  /// UM prefetch/advise hint: drives the page engine and charges the
  /// batched prefetch cost. Hints never break fusion chains.
  void on_mem_hint(const MemHintOp& op);
  /// Sum the logical bytes the op touches and notify the memory manager
  /// (unified-memory page migration). Returns the byte total.
  i64 touch_accesses(const AccessList& accesses, i64 cells);
  /// Charge one kernel op: touch its accesses, advance the ledger by its
  /// launch and traffic time, and count it in the per-site profile. Inside
  /// a replayed graph no per-kernel launch overhead is charged.
  void charge(const KernelOp& op, bool fused, bool async, bool reduction,
              double extra_traffic_factor);
#ifdef SIMAS_ELEMENT_SHADOW
  // Validator body brackets around one op's cells; defined in engine.cpp
  // so this header needs only the forward declaration.
  void body_begin();
  void body_end();
#endif
  /// Surface-scaled when the site says so or any accessed array is a
  /// surface-sized buffer (halo pack/unpack).
  gpusim::ScaleClass resolve_scale(const KernelSite& site,
                                   std::span<const Access> acc) const;

  // ---- Host execution (see DESIGN.md §11 "Host execution layer") ----
  //
  // Determinism rules: anything that changes *which values are combined
  // in which order* must depend on the problem shape only — never on the
  // thread count or on who executes a block. Plain loops (loop3 / loop1 /
  // array_reduce_loop) write each cell exactly once, so their grain is
  // free to adapt to the shape; scalar reductions combine per-block
  // partials in block order, so their partitioning is *pinned*
  // (kReducePlanesPerBlock) — changing it would change partial-sum
  // rounding and every golden result built on it. How many pinned blocks
  // one pool claim takes (reduce_group) is placement, not partitioning:
  // free to follow the shape like a plain loop's grain.

  /// Pinned reduction partitioning (frozen: determines partial-sum order).
  static constexpr i64 kReducePlanesPerBlock = 8;
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

  /// Claim unit of a pinned 3-D reduction: g consecutive pinned blocks
  /// per pool claim, so a claim carries at least ~kMinBlockCells cells
  /// (the floor plane_grain gives plain loops). Each block still writes
  /// its own partial, so the partial-sum order is untouched; g only sets
  /// how many blocks one fetch-add hands a thread. Shape-derived only.
  static i64 reduce_group(i64 ni) {
    return ceil_div(kMinBlockCells,
                    kReducePlanesPerBlock * std::max<i64>(1, ni));
  }

  /// Run fn(b) for b in [0, claims) as ONE host job covering `kernels`
  /// recorded ops of `cells` cells each, whose claims are `components`
  /// equal runs (one per component; the pool gives each thread the same
  /// share of every run): inline when one kernel is small
  /// or when the pool is saturated (its live engines already cover every
  /// hardware thread, ThreadPool::saturated), else on the pool, with one
  /// join. The size test comes first, so small launches read no atomic.
  /// Claims execute exactly once either way and the partition is the
  /// caller's, so results are identical by construction: the gate moves
  /// placement, never partitioning. pool.jobs and pool.inline_kernels
  /// count kernels by where they ran; pool.joins counts pooled jobs.
  template <class Fn>
  void dispatch_blocks(int kernels, int components, i64 claims, i64 cells,
                       Fn&& fn) {
    if (cells <= kInlineCells || pool_->saturated()) {
      pool_inline_.add(kernels);
      for (i64 b = 0; b < claims; ++b) fn(b);
    } else {
      pool_jobs_.add(kernels);
      pool_joins_.add();
      pool_->run_blocks(claims, fn, components);
    }
  }

  /// Publish the flat iteration id of the cell about to run, for the
  /// validator's element tags. Only the checked flavor's validated
  /// launches (shadow = std::true_type) do anything; the production
  /// flavor never instantiates that path.
  template <class Shadow>
  void tag_iteration(Shadow, [[maybe_unused]] i64 flat) const {
#ifdef SIMAS_ELEMENT_SHADOW
    if constexpr (Shadow::value)
      analysis::set_current_iteration(shadow_ctx_, flat);
#endif
  }

  /// The one 3-D loop nest: components [c0, c0 + n) x nblocks plane
  /// blocks, block bb running plane block bb % nblocks of component
  /// c0 + bb / nblocks.
  template <class Shadow, class BodyOf>
  void loop3(Shadow shadow, Range3 r, int c0, int n, BodyOf& body_of) {
    const idx nj = r.nj();
    const i64 ni = r.ni();
    const i64 planes = static_cast<i64>(nj) * r.nk();
    if (planes <= 0 || ni <= 0) return;
    const i64 ppb = plane_grain(planes, ni);
    const i64 nblocks = ceil_div(planes, ppb);
    dispatch_blocks(n, n, n * nblocks, planes * ni,
                    [&](i64 bb) SIMAS_FLATTEN {
      auto&& body = body_of(c0 + static_cast<int>(bb / nblocks));
      const i64 p0 = (bb % nblocks) * ppb;
      const i64 p1 = std::min<i64>(planes, p0 + ppb);
      // Incremental (j,k) walk: one div/mod per block, not per plane.
      idx j = r.j0 + static_cast<idx>(p0 % nj);
      idx k = r.k0 + static_cast<idx>(p0 / nj);
      for (i64 p = p0; p < p1; ++p) {
        for (idx i = r.i0; i < r.i1; ++i) {
          tag_iteration(shadow, p * ni + (i - r.i0));
          body(i, j, k);
        }
        if (++j == r.j1) {
          j = r.j0;
          ++k;
        }
      }
    });
  }

  template <class Shadow, class F>
  void loop1(Shadow shadow, Range1 r, F& body) {
    const i64 n = r.count();
    if (n <= 0) return;
    const i64 chunk = chunk_grain(n);
    const i64 nblocks = ceil_div(n, chunk);
    dispatch_blocks(1, 1, nblocks, n, [&](i64 b) SIMAS_FLATTEN {
      const idx lo = r.begin + static_cast<idx>(b * chunk);
      const idx hi = std::min<idx>(r.end, lo + static_cast<idx>(chunk));
      for (idx i = lo; i < hi; ++i) {
        tag_iteration(shadow, i - r.begin);
        body(i);
      }
    });
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

  static constexpr real identity(bool take_max) {
    return take_max ? std::numeric_limits<real>::lowest() : 0.0;
  }
  static real combine(real acc, real v, bool take_max) {
    return take_max ? nan_max(acc, v) : acc + v;
  }

  /// Record and run one scalar reduction (reduce_sum / reduce_max).
  template <class F>
  real reduce(const KernelSite& site, Range3 r,
              std::initializer_list<Access> acc, F& term, bool take_max) {
    const auto term_of = [&term](int) -> F& { return term; };
    real total = 0.0;
    launch(r.count(), 1,
           [&](auto, int, int, int) {
             total = reduce3(r, 0, 1, term_of, take_max);
           },
           ops<ReduceOp>(site, [acc](int) { return acc; }));
    return total;
  }

  /// The one 3-D reduction nest over components [c0, c0 + n). Pinned
  /// partitioning (partial-sum order is part of the results):
  /// kReducePlanesPerBlock planes per block, one partial per (component,
  /// block). A pool claim takes reduce_group consecutive blocks of one
  /// component, so claim cc covers component c0 + cc / nclaims. Partials
  /// combine in block order per component, then the component totals in
  /// component order. A cell-local chain runs rows_of(c)(i0, i1, j, k),
  /// its stages over a plane's row, before the term walks the row, and
  /// counts its kernels_per_component recorded kernels per component (1
  /// for a plain reduction, whose rows_of does nothing); the pool
  /// counters count them all.
  struct NoRows {
    auto operator()(int) const { return [](idx, idx, idx, idx) {}; }
  };
  template <class TermOf, class RowsOf = NoRows>
  real reduce3(Range3 r, int c0, int n, TermOf& term_of, bool take_max,
               int kernels_per_component = 1, const RowsOf& rows_of = {}) {
    const idx nj = r.nj(), nk = r.nk();
    const i64 ni = r.ni();
    const i64 planes = static_cast<i64>(nj) * nk;
    if (planes <= 0 || ni <= 0) return identity(take_max);
    const i64 ppb = kReducePlanesPerBlock;
    const i64 nblocks = ceil_div(planes, ppb);
    const i64 group = reduce_group(ni);
    const i64 nclaims = ceil_div(nblocks, group);
    real* partial = reduce_partials(n * nblocks);
    dispatch_blocks(n * kernels_per_component, n, n * nclaims, planes * ni,
                    [&](i64 cc) SIMAS_FLATTEN {
      const i64 c = cc / nclaims;
      auto&& term = term_of(c0 + static_cast<int>(c));
      auto&& rows = rows_of(c0 + static_cast<int>(c));
      real* part = partial + c * nblocks;
      const i64 b0 = (cc % nclaims) * group;
      const i64 b1 = std::min(nblocks, b0 + group);
      // Consecutive blocks are consecutive planes: one (j,k) walk per claim.
      idx j = r.j0 + static_cast<idx>((b0 * ppb) % nj);
      idx k = r.k0 + static_cast<idx>((b0 * ppb) / nj);
      for (i64 b = b0; b < b1; ++b) {
        const i64 p1 = std::min<i64>(planes, (b + 1) * ppb);
        real acc = identity(take_max);
        for (i64 p = b * ppb; p < p1; ++p) {
          rows(r.i0, r.i1, j, k);
          for (idx i = r.i0; i < r.i1; ++i)
            acc = combine(acc, term(i, j, k), take_max);
          if (++j == r.j1) {
            j = r.j0;
            ++k;
          }
        }
        part[b] = acc;
      }
    });
    real total = identity(take_max);
    for (i64 c = 0; c < n; ++c) {
      real sub = identity(take_max);
      for (i64 b = 0; b < nblocks; ++b)
        sub = combine(sub, partial[c * nblocks + b], take_max);
      total = combine(total, sub, take_max);
    }
    return total;
  }

  template <class Shadow, class F>
  void array_reduce_loop(Shadow shadow, Range3 r, std::span<real> out,
                         F& term) {
    const idx ni = r.ni();
    if (ni <= 0) return;
    // One block per output element: pinned (inner accumulation order is
    // part of the results), like the scalar reductions.
    const i64 nblocks = ni;
    dispatch_blocks(1, 1, nblocks, static_cast<i64>(r.count()),
                    [&](i64 b) SIMAS_FLATTEN {
      tag_iteration(shadow, b);
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
  /// cfg.ctx, or SimContext::process() when unset; resolved once.
  const SimContext& ctx_;
  gpusim::ClockLedger ledger_;
  gpusim::CostModel cost_;
  gpusim::MemoryManager mem_;
  FlightMemObserver flight_obs_;
  trace::Recorder tracer_;
  /// Kernel execution threads: borrowed (the context's shared pool — N
  /// engines multiplexing one host-thread budget) or owned. The
  /// multi-job pool makes concurrent run_blocks from several engines
  /// safe; determinism is unaffected either way (partitioning is
  /// caller-defined, the pool only places blocks). The lease counts this
  /// engine among the pool's callers for its spin gate.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  ThreadPool::Lease pool_lease_;
  /// Store of record for every per-rank metric (see DESIGN.md §13).
  telemetry::Registry registry_;
  /// Hot-path handles into registry_, registered once in the constructor
  /// so the launch path never does a name lookup (or allocates).
  telemetry::Counter pool_jobs_;    ///< pool.jobs — kernels run on the pool
  telemetry::Counter pool_inline_;  ///< pool.inline_kernels — on the caller
  telemetry::Counter pool_joins_;   ///< pool.joins — pooled host jobs
  telemetry::Histogram kernel_cells_;  ///< engine.kernel_cells
  /// Upper bounds of engine.kernel_cells: decades from 1e3 (the inline
  /// threshold neighbourhood) to 1e7, overflow above.
  static constexpr double kCellBounds[] = {1e3, 1e4, 1e5, 1e6, 1e7};
  telemetry::SiteProfiler profiler_;
  gpusim::TimeCategory kernel_category_ = gpusim::TimeCategory::Compute;
  /// How this engine's loops lower (fusion, async, reduction traffic,
  /// hints), resolved once from cfg_.
  LoweringPolicy policy_;
  FusionChain chain_;
  std::unique_ptr<analysis::Validator> validator_;
  /// Event-trace recorder; feeds static_verify().
  std::unique_ptr<analysis::StreamCapture> capture_;
#ifdef SIMAS_ELEMENT_SHADOW
  /// Identity the loop nests publish with each iteration id while
  /// validation is on, so shadow slots can tag touched elements: this
  /// engine's validator and its current armed window. Slots owned by
  /// other engines (shared ThreadPool) ignore ids carrying a different
  /// owner/window, so interleaved engines cannot cross-pollute element
  /// tags. Updated by body_begin on the rank thread; pool workers read it
  /// after the job publication fence.
  analysis::ShadowExecContext shadow_ctx_;
#endif
  /// Reused per-block partials scratch for reduce3 (sized to the
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
