#pragma once
// Kernel-stream intermediate representation (IR).
//
// Every operation the solver hands to the Engine — parallel loop launches,
// scalar/array reductions, device syncs, fusion breaks — is reified as a
// typed op before any time accounting happens. The ops form a stream that
// the Scheduler (par/scheduler.hpp) consumes to drive the cost
// model, and that a CapturedGraph can record for CUDA-Graph-style replay:
// one launch overhead per *graph* instead of per *kernel*, the
// launch-amortization technique that extends the paper's fusion/async
// story (see bench/bench_ablation_graph.cpp).
//
// The interned site table (par/site_table.hpp) is the IR's symbol table:
// ops reference sites by stable pointer (process-wide, shared by every
// engine), and the directive model in src/variants reads its inventory
// from the same table.

#include <string>
#include <variant>
#include <vector>

#include "gpusim/clock_ledger.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/memory_manager.hpp"
#include "par/kernel_site.hpp"
#include "util/small_vec.hpp"
#include "util/types.hpp"

namespace simas::par {

/// Radial footprint of one declared access, relative to the rank's slab.
/// The static verifier (analysis/static_verifier.hpp) reasons about
/// element disjointness from these declarations alone: two accesses can
/// only conflict when their spans overlap, and only Full/GhostLo/GhostHi
/// spans can touch the radial ghost columns an overlapped halo exchange
/// marks in flight. The runtime validator is element-exact and ignores
/// spans, so a dishonest declaration is still caught when the stream
/// actually executes.
enum class Span : unsigned char {
  Full,      ///< may touch any radial index, ghosts included (default)
  Interior,  ///< radial indices [0, n1) only — never the ghost columns
  GhostLo,   ///< the low radial ghost column (logical i < 0) only
  GhostHi,   ///< the high radial ghost column (logical i >= n1) only
};

const char* span_name(Span s);

/// Two declared spans may cover a common radial column.
inline bool spans_overlap(Span a, Span b) {
  return a == b || a == Span::Full || b == Span::Full;
}

/// Declares one array an upcoming kernel touches, for traffic accounting,
/// unified-memory residency tracking, and static race analysis.
struct Access {
  gpusim::ArrayId id = gpusim::kInvalidArray;
  bool write = false;
  Span span = Span::Full;
  /// Write targets are computed indices that several iterations may share
  /// (histogram/accumulation patterns). Legal only under an atomic or
  /// reduction site kind: a plain parallel loop declaring a scatter write
  /// is not valid `do concurrent` (the static DuplicateWrite check).
  bool scatter = false;
};
inline Access in(gpusim::ArrayId id, Span s = Span::Full) {
  return Access{id, false, s, false};
}
inline Access out(gpusim::ArrayId id, Span s = Span::Full) {
  return Access{id, true, s, false};
}
inline Access in_interior(gpusim::ArrayId id) {
  return in(id, Span::Interior);
}
inline Access out_interior(gpusim::ArrayId id) {
  return out(id, Span::Interior);
}
inline Access out_ghost_lo(gpusim::ArrayId id) {
  return out(id, Span::GhostLo);
}
inline Access out_ghost_hi(gpusim::ArrayId id) {
  return out(id, Span::GhostHi);
}
inline Access out_scatter(gpusim::ArrayId id) {
  return Access{id, true, Span::Full, true};
}

/// Per-op access list with inline storage: recording a kernel launch must
/// not heap-allocate on the steady-state path (kernels rarely declare
/// more than a handful of arrays; longer lists spill to the heap).
using AccessList = SmallVec<Access, 8>;

enum class OpKind { Launch, Reduce, ArrayReduce, Sync, FusionBreak, MemHint };

const char* op_kind_name(OpKind k);

/// Payload shared by every op that corresponds to a device kernel.
struct KernelOp {
  const KernelSite* site = nullptr;  ///< stable pointer into the registry
  i64 cells = 0;                     ///< logical iteration-space size
  AccessList accesses;
  /// Traffic scale class resolved at record time (site flag or any
  /// surface-registered buffer among the accesses).
  gpusim::ScaleClass scale = gpusim::ScaleClass::Volume;
  /// Time category active when the op was recorded (CategoryScope).
  gpusim::TimeCategory category = gpusim::TimeCategory::Compute;
};

/// A data-parallel loop nest (for_each / for_each1).
struct LaunchOp : KernelOp {};
/// A scalar reduction (reduce_sum / reduce_max / reduce_sum1).
struct ReduceOp : KernelOp {};
/// An indexed accumulation (array_reduce).
struct ArrayReduceOp : KernelOp {};
/// Host-side synchronization point (drains async queues, breaks fusion).
struct SyncOp {};
/// Non-kernel activity (MPI call, data directive) breaking fusion chains.
struct FusionBreakOp {};

/// What a MemHintOp asks the UM driver to do.
enum class MemHint : unsigned char {
  PrefetchToDevice,     ///< cudaMemPrefetchAsync toward the device
  PrefetchToHost,       ///< cudaMemPrefetchAsync toward the host
  AdviseReadMostly,     ///< cudaMemAdvise(ReadMostly): duplicate on read
  AdvisePreferredHost,  ///< cudaMemAdvise(PreferredLocation = host): pin
};

const char* mem_hint_name(MemHint h);

/// A modeled unified-memory hint (prefetch/advise) recorded into the
/// stream ahead of the launches or halo windows it covers. Hint ops are
/// pure driver directives: they never touch physics data, never break
/// fusion chains, and only move modeled time/pages. `span` declares the
/// radial footprint the hint intends to cover so the static verifier can
/// match it against the next device access (a prefetch whose span does not
/// cover the access it precedes is a diagnostic, not a silent no-op).
struct MemHintOp {
  const KernelSite* site = nullptr;  ///< emission site (nullable)
  gpusim::ArrayId id = gpusim::kInvalidArray;
  MemHint hint = MemHint::PrefetchToDevice;
  Span span = Span::Full;
  i64 bytes = 0;  ///< logical bytes the hint covers
  gpusim::TimeCategory category = gpusim::TimeCategory::DataMotion;
};

using StreamOp = std::variant<LaunchOp, ReduceOp, ArrayReduceOp, SyncOp,
                              FusionBreakOp, MemHintOp>;

OpKind op_kind(const StreamOp& op);
/// Site of a kernel or hint op; nullptr for SyncOp / FusionBreakOp.
const KernelSite* op_site(const StreamOp& op);
/// Cell count of a kernel op; 0 for SyncOp / FusionBreakOp / MemHintOp.
i64 op_cells(const StreamOp& op);

/// Structural equality used to validate a replayed stream against its
/// capture: same op kind, same call site, same iteration-space size.
/// Hint ops additionally compare (array, hint, span, bytes) — two hints at
/// the same site covering different arrays are different ops.
bool same_signature(const StreamOp& a, const StreamOp& b);

/// Fold one op's signature (kind, site id, cells) into an FNV-1a style
/// running hash. Two engines recording identical op streams accumulate
/// identical hashes — the integrity check behind verified-stream
/// certificates (par/graph_cache.hpp): a certified engine re-hashes its
/// live stream and compares against the certificate at teardown.
u64 hash_op_signature(u64 h, const StreamOp& op);
inline constexpr u64 kStreamHashSeed = 14695981039346656037ull;

// ---------------------------------------------------------------------
// Graph capture/replay (CUDA-Graph analog).

/// One recorded op sequence (e.g. a PCG inner iteration). After capture it
/// can be replayed: the scheduler charges a single per-graph launch
/// overhead instead of one per kernel, while per-kernel memory traffic and
/// UM behaviour are unchanged.
class CapturedGraph {
 public:
  explicit CapturedGraph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  bool captured() const { return captured_; }
  std::size_t size() const { return ops_.size(); }
  const std::vector<StreamOp>& ops() const { return ops_; }

  /// Start (or restart, after invalidation) recording the op sequence.
  void begin_capture() {
    ops_.clear();
    captured_ = false;
  }
  void append(const StreamOp& op) {
    // Copy via the concrete alternative (not the variant copy ctor): GCC's
    // -Wmaybe-uninitialized false-fires on inactive variant alternatives.
    std::visit([this](const auto& o) { ops_.emplace_back(o); }, op);
  }
  /// Capture complete: the graph is instantiated and may be replayed.
  void finalize() { captured_ = true; }
  /// The live stream diverged from this capture: re-capture before the
  /// next replay.
  void invalidate() { captured_ = false; }

 private:
  std::string name_;
  std::vector<StreamOp> ops_;
  bool captured_ = false;
};

struct GraphStats {
  i64 captures = 0;     ///< capture passes (first iteration + re-captures)
  i64 replays = 0;      ///< whole-graph launches issued
  i64 divergences = 0;  ///< live stream mismatched the capture
  i64 replayed_ops = 0; ///< kernel ops satisfied from a replayed graph
  /// Graph scopes seeded from a cross-engine GraphCache (the engine
  /// skipped its own capture pass and replayed from pass one).
  i64 cache_seeds = 0;
  /// Per-graph launch overhead charged (one launch per replay).
  double graph_launch_seconds = 0.0;
  /// Per-kernel launch overhead *not* charged because the kernel ran
  /// inside a replayed graph.
  double kernel_launch_seconds_saved = 0.0;
};

/// Snapshot of every kernel site the IR knows about. The interned site
/// table is the IR's symbol table; the directive model (src/variants)
/// derives its code inventory from this.
std::vector<KernelSite> stream_sites();

}  // namespace simas::par
