#pragma once
// The one execution policy of every paper code version: the engine
// configuration, the lowering it resolves to, and the fusion-chain rule.
//
// The Engine records ops and accounts them itself (par/engine.hpp); this
// header holds what its accounting and both checkers share. The paper's
// three loop models are lowering decisions, not backends:
// lowering_policy() resolves them once per engine into a LoweringPolicy,
// from the loop model, the compiler personality, the target, and the
// fusion/async ablations.
//
//  * Acc    — OpenACC analog: consecutive same-group launches merge into
//    one kernel (fusion); async-capable launches hide part of the launch
//    latency (paper Sec. IV-B), where the toolchain lowers them so.
//  * Dc2018 — `do concurrent` (F2018) analog: one synchronous launch per
//    loop (kernel fission); array reductions use atomics.
//  * Dc2x   — Fortran 202X preview: adds the `reduce` clause; array
//    reductions flip the loop order (paper Listing 5) and avoid the atomic
//    read-modify-write traffic.
//
// FusionChain is the one chain rule; the Engine's accounting and both
// checkers (analysis/validator.hpp, analysis/static_verifier.hpp) step the
// same type, so "the launch the engine merged" and "the launch the
// checkers race-check" cannot disagree. The golden-equivalence test
// (tests/test_scheduler_golden.cpp) pins the accounting against the
// pre-refactor monolithic engine arithmetic.

#include <string>

#include "gpusim/device_spec.hpp"
#include "gpusim/memory_manager.hpp"
#include "par/compiler_personality.hpp"
#include "par/kernel_site.hpp"
#include "util/types.hpp"

namespace simas::par {

class SimContext;
class GraphCache;

enum class LoopModel { Acc, Dc2018, Dc2x };

const char* loop_model_name(LoopModel m);

struct EngineConfig {
  LoopModel loops = LoopModel::Acc;
  gpusim::MemoryMode memory = gpusim::MemoryMode::Manual;
  bool gpu = true;               ///< offload target is the device
  bool fusion_enabled = true;    ///< ACC kernel fusion (ablation toggle)
  bool async_enabled = true;     ///< ACC async launches (ablation toggle)
  /// CUDA-Graph-style capture/replay of repeated op sequences (the PCG
  /// inner iteration): per-graph instead of per-kernel launch overhead.
  bool graph_replay = false;
  /// Extra per-kernel traffic fraction from the array-creation/init
  /// wrapper routines of paper Code 6 (zero-init kernels the original
  /// code did not have).
  double wrapper_init_overhead = 0.0;
  /// Run the kernel-stream validator (analysis/validator.hpp) over the op
  /// stream: coherence, access-list, and DC-legality checking. Also
  /// enabled by the SIMAS_VALIDATE and SIMAS_VALIDATE_FATAL environment
  /// variables; the latter also aborts at Engine teardown if the
  /// validator recorded errors not drained by take_validation_report().
  /// Validation never changes modeled time.
  bool validate = false;
  /// Record the full event trace — IR ops, Manual-mode data events, halo
  /// begin/finish windows — into an analysis::StreamCapture for
  /// ahead-of-run static verification (Engine::static_verify). Recording
  /// is O(1) per op and never changes modeled time.
  bool capture_stream = false;
  /// Overlapped halo exchange: HaloExchanger posts nonblocking sends on the
  /// rank's copy stream and the solver splits radial sweeps into interior
  /// (runs while halos are in flight) and boundary-shell launches. Never
  /// consulted by the engine's accounting — the charge per op is unchanged;
  /// only the op sequence differs. Off = synchronous golden reference.
  bool overlap_halo = false;
  /// Span-driven unified-memory hints (cudaMemPrefetchAsync/cudaMemAdvise
  /// analogues): the engine bulk-prefetches each launch's declared
  /// access footprint ahead of the kernel (batched move, no per-page fault
  /// service), and the halo layer pins its staging buffers host-side and
  /// prefetches ghost spans around exchange windows. Off = the paper's
  /// demand-paged UM penalty, unchanged. No effect unless memory == Unified
  /// on a GPU; never changes physics.
  bool um_hints = false;
  int host_threads = 1;          ///< real execution threads for kernels
  gpusim::DeviceSpec device = gpusim::a100_40gb();
  /// How the modeled toolchain lowers loops, reductions and hints
  /// (par/compiler_personality.hpp). Nvfortran is the identity: it
  /// reproduces the pre-matrix accounting arithmetic exactly. Personalities
  /// gate the lowering policy and hint lowering only — one kernel body per
  /// launch under every personality, so physics never changes.
  CompilerPersonality personality = CompilerPersonality::Nvfortran;

  // ---- Re-entrancy / service-layer wiring (see par/sim_context.hpp) ----
  /// Context the engine runs under: environment snapshot, optional shared
  /// host pool, flight-dump trigger. nullptr = SimContext::process() (the
  /// immutable process-default context). When the context carries a
  /// shared pool the engine borrows it for kernel execution instead of
  /// owning `host_threads` worker threads; the pool must outlive the
  /// Engine.
  const SimContext* ctx = nullptr;
  /// Cross-engine captured-graph reuse: on first entry to a graph scope
  /// the engine seeds its local graph from cache[graph_cache_scope, name]
  /// (replay from pass one), and publishes its own finished captures
  /// back (first-wins). nullptr = engine-local graphs only.
  GraphCache* graph_cache = nullptr;
  /// Cache partition key: engines with equal scopes must record identical
  /// op streams (same code version, device, grid slab, rank).
  std::string graph_cache_scope;
  /// Distributed-trace identity (telemetry/trace_context.hpp): every flight
  /// recorder event this engine records carries this trace id, so a dump
  /// can be filtered to one job. 0 = untraced (the default; recording
  /// happens either way).
  u64 trace_id = 0;
  /// Simulated rank this engine runs as, stamped into flight-recorder
  /// events (mpisim rank-tagged spans). Purely observational.
  int flight_rank = 0;
};

/// The engine.* totals by value: column sums of the per-site profile
/// (Engine::counters()).
struct EngineCounters {
  i64 kernel_launches = 0;  ///< launches actually issued (after fusion)
  i64 loops_executed = 0;   ///< logical parallel loops run
  i64 fused_launches = 0;   ///< loops merged into a previous launch
  i64 reduction_loops = 0;
  i64 bytes_touched = 0;    ///< logical bytes (run scale)
};

/// How the modeled toolchain lowers this engine's loops: the one answer to
/// "does this launch fuse or run async, and what does an array reduction
/// cost?". Resolved once per engine by lowering_policy(); the Engine's
/// accounting, the runtime validator and the static verifier all read the
/// same value.
struct LoweringPolicy {
  /// Same-group launches may merge into one kernel (FusionChain applies
  /// the chain rule).
  bool fuse = false;
  /// Async-capable launches are issued asynchronously.
  bool async = false;
  /// Traffic multiplier for array reductions (atomic RMW contention vs the
  /// flipped-loop form, paper Listings 3 -> 4 -> 5).
  double array_reduce_traffic = 1.0;
  /// Does the runtime honor bulk prefetch / residency advice hints? An
  /// ignored hint class is accepted and inert.
  bool honors_mem_prefetch = true;
  bool honors_mem_advise = true;

  /// Is a launch (or reduction) at this site issued asynchronously?
  bool async_launch(const KernelSite& site) const {
    return async && site.async_capable;
  }
};

/// Resolve the lowering of `cfg`: loop model x personality traits x gpu x
/// the fusion_enabled/async_enabled ablation inputs.
LoweringPolicy lowering_policy(const EngineConfig& cfg);

/// The fusion-chain rule. A launch fuses into the open chain when the
/// policy fuses, its site carries the chain's nonzero fusion group, and
/// the chain has a free op slot (the checkers' element tags give a kernel
/// an 8-bit slot, so a chain holds at most kMaxSlot + 1 kernels).
/// Reductions, syncs and fusion breaks end the chain.
class FusionChain {
 public:
  static constexpr u64 kMaxSlot = 255;

  explicit FusionChain(bool fuse) : fuse_(fuse) {}

  /// Step over one launch. True when it fuses into the open chain; false
  /// when it opens a new chain (new id(), slot() 0).
  bool launch(int fusion_group) {
    const bool fused = fuse_ && fusion_group != 0 && fusion_group == group_ &&
                       slot_ < kMaxSlot;
    group_ = fusion_group;
    if (fused) {
      ++slot_;
    } else {
      ++id_;
      slot_ = 0;
    }
    return fused;
  }
  /// End the open chain (reduction, sync, fusion break).
  void reset() {
    group_ = 0;
    ++id_;
    slot_ = 0;
  }

  /// Identity of the open chain; changes whenever a chain ends or opens.
  u64 id() const { return id_; }
  /// Position of the last launch within the open chain (0 = chain head).
  u64 slot() const { return slot_; }

 private:
  bool fuse_;
  int group_ = 0;
  u64 id_ = 1;
  u64 slot_ = 0;
};

}  // namespace simas::par
