#pragma once
// Debug shadow instrumentation for the access-list verifier and the
// DC-legality / race checker (analysis/validator.hpp).
//
// Checked build only: Array3, Field, the Engine and the Validator include
// and use this header under SIMAS_ELEMENT_SHADOW (the `simas_checked`
// library). The production library has no element hook at all.
//
// When EngineConfig::validate is on, every Field attaches a ShadowSlot to
// its Array3; Array3::operator() then reports each element access here.
// Between Validator::body_begin()/body_end() the slot is armed with a mode
// derived from the op's declared Access list:
//
//   Touch      — record only "this array was touched" (access-list diff);
//   WriteTrack — additionally tag each touched element with the current
//                (fusion-chain, op, iteration) id to detect duplicate
//                writes (illegal `do concurrent`) and write-write
//                conflicts across kernels fused into one launch;
//   ReadCheck  — compare element tags against writes recorded earlier in
//                the same fusion chain (read-after-write across fusion).
//
// Outside a kernel body the mode is Idle and note() is a single branch,
// so host-side access (tests, I/O) costs one predictable-untaken branch.
// With validation off no slot is attached at all.
//
// Iteration tags are *scoped to the arming validator*: engines may share
// one ThreadPool, so a pool thread can run bodies of several engines in
// any interleaving. The thread-local tag therefore carries which
// validator's engine published it and for which armed window
// (body_begin bumps a per-validator sequence); note_element ignores tags
// from a different owner or a stale window. Without the scope, a body of
// engine B touching an array instrumented by engine A would stamp A's
// element tags with B's (or a stale) iteration id and manufacture
// DuplicateWrite/FusedConflict findings that no single-engine run could
// produce — see tests/test_service_concurrency.cpp for the regression.

#include <atomic>
#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace simas::analysis {

class Validator;

/// Thread-local identity of the kernel body executing on this thread:
/// which validator's engine is running it (owner), which armed window of
/// that validator it belongs to, and the flat iteration id (1-based;
/// 0 = not inside a tracked body). Never reset between bodies — staleness
/// is detected by the owner/window match in note_element, not by
/// clearing (clearing would put a write on every body exit).
struct IterationTag {
  const Validator* owner = nullptr;
  u64 window = 0;
  u64 iteration = 0;
};

inline thread_local IterationTag tl_iteration_tag;

/// Engine-side handle naming the validator (and its current armed window)
/// on whose behalf the execute loops publish iteration ids.
struct ShadowExecContext {
  const Validator* owner = nullptr;
  u64 window = 0;
};

inline void set_current_iteration(const ShadowExecContext& ctx, i64 flat) {
  IterationTag& t = tl_iteration_tag;
  t.owner = ctx.owner;
  t.window = ctx.window;
  // Truncated to 32 bits in the tag; collisions need > 4G-cell loops.
  t.iteration = (static_cast<u64>(flat) & 0xffffffffu) + 1;
}

class ShadowSlot {
 public:
  enum class Mode : unsigned char { Idle, Touch, WriteTrack, ReadCheck };

  /// Hot path: called from Array3::operator() for every element access.
  /// mode_ is an atomic because a foreign engine's pool thread may read
  /// it while the owner arms/disarms (cross-engine array sharing only
  /// happens in tests, but the load must still be race-free); relaxed is
  /// enough — within one engine the pool's job publication orders the
  /// arming writes before any body runs.
  void note(std::size_t off) {
    const Mode m = mode_.load(std::memory_order_relaxed);
    if (m == Mode::Idle) return;
    if (inflight_.load(std::memory_order_acquire)) [[unlikely]]
      note_inflight(off);
    if (!touched_.load(std::memory_order_relaxed))
      touched_.store(true, std::memory_order_relaxed);
    if (m != Mode::Touch) note_element(off);
  }

 private:
  friend class Validator;

  /// Element-tag conflict detection; defined in validator.cpp.
  void note_element(std::size_t off);
  /// In-flight ghost-plane check (overlapped halo exchange); validator.cpp.
  void note_inflight(std::size_t off);

  Validator* owner_ = nullptr;  ///< set once at attach, immutable after
  int array_id_ = -1;  ///< gpusim::ArrayId of the instrumented array
  std::atomic<Mode> mode_{Mode::Idle};
  /// Armed-window sequence stamped by the owner's body_begin; tags from
  /// other windows (stale or foreign) are ignored in note_element.
  std::atomic<u64> armed_window_{0};
  std::atomic<bool> touched_{false};
  /// Tag template of the active op: (chain_id << 40) | (op_slot << 32).
  /// OR-ed with the thread's iteration id to form a full element tag.
  u64 chain_tag_ = 0;
  /// Per-element last-writer tags, owned by the Validator (lazily sized to
  /// the array's allocation; entries: chain | op_slot | iteration).
  std::vector<std::atomic<u64>>* tags_ = nullptr;

  // Overlapped halo exchange: while a nonblocking exchange is posted on
  // this array, the radial ghost columns its finish() will overwrite are
  // marked; any kernel-body access to them is a read of data still in
  // flight. The columns are written on the rank thread before the release
  // store of inflight_; pool threads pair it with the acquire load in
  // note(), and begin/end only happen between kernel bodies.
  std::atomic<bool> inflight_{false};
  std::size_t inflight_stride_ = 0;  ///< radial stride: column = off % stride
  int inflight_lo_ = -1;             ///< marked lo ghost column (i+g), -1 none
  int inflight_hi_ = -1;             ///< marked hi ghost column, -1 none
};

}  // namespace simas::analysis
