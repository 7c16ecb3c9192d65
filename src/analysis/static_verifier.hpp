#pragma once
// Static kernel-stream analyzer: ahead-of-run race/coherence verification.
//
// Where the runtime validator (analysis/validator.hpp) shadows every
// element access — O(cells x steps) — this pass replays a captured event
// trace (analysis/stream_capture.hpp) through a happens-before dataflow
// analysis over the *declared* Access lists: O(stream size), zero kernels
// executed. It constructs the same op-level machinery the runtime
// validator maintains — ACC fusion chains (the scheduler's own
// par::FusionChain under the same par::LoweringPolicy), the single async
// queue, the Manual-mode coherence state machine, halo begin/finish
// windows — and derives element-level conclusions from the declared radial
// spans and write patterns (par::Span / Access::scatter) instead of
// observed touches:
//
//   * WAW/RAW races across fused kernels: a kernel whose declared pure
//     write (or pure read) overlaps — by span — an array pure-written by
//     an earlier member of the same fusion chain (FusedConflict);
//   * DC-illegality: a scatter-declared write in a plain parallel loop,
//     where unordered iterations may hit one element (DuplicateWrite);
//   * reads of in-flight ghost regions: any declared access whose span
//     covers a radial ghost column posted by an unfinished overlapped
//     exchange (InflightGhostRead);
//   * host pulls without sync, async reductions, and the full Manual-mode
//     coherence machine — op-level checks mirrored from the runtime
//     validator verbatim.
//
// The division of labor is: the static pass TRUSTS declarations and flags
// conservatively; the runtime validator VERIFIES declarations element-
// exactly. On honestly-declared streams the static findings are a
// superset of the runtime findings (the differential harness in
// tests/test_static_verifier.cpp pins this); a lying declaration slips
// past the static pass but is caught the first time the stream actually
// runs. Checks that need observed touches (UndeclaredAccess,
// DeclaredWriteNotTouched) remain runtime-only — see the check matrix in
// DESIGN.md §15.
//
// A clean static report over a captured stream is what a verified-stream
// certificate (par/graph_cache.hpp) attests.

#include "analysis/diagnostics.hpp"
#include "analysis/stream_capture.hpp"
#include "par/scheduler.hpp"

namespace simas::analysis {

/// The model facts the static pass resolves from an engine configuration:
/// the scheduler's LoweringPolicy (a toolchain that never fuses cannot
/// have fused-chain races; one that ignores a hint class turns that
/// class's findings into notes) plus the memory mode and target.
struct StaticModel {
  par::LoweringPolicy policy;
  gpusim::MemoryMode memory = gpusim::MemoryMode::Manual;
  bool gpu = true;

  static StaticModel from(const par::EngineConfig& cfg) {
    return StaticModel{par::lowering_policy(cfg), cfg.memory, cfg.gpu};
  }
};

/// Run the static pass over a captured trace. Pure function of its
/// arguments: no kernel executes, no engine state is touched.
ValidationReport verify_stream(const StreamCapture& capture,
                               const StaticModel& model);

}  // namespace simas::analysis
