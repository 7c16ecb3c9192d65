#pragma once
// Static kernel-stream analyzer: ahead-of-run race/coherence verification.
//
// Where the runtime validator of the checked build
// (analysis/validator.hpp) shadows every element access — O(cells x
// steps) — this pass replays a captured event trace
// (analysis/stream_capture.hpp) over the *declared* Access lists:
// O(stream size), zero kernels executed.
//
// The op-level machinery is not re-implemented here: the replay feeds the
// same analysis::OpChecker the validator feeds live (fusion chains, the
// async queue, the Manual-mode coherence machine, and the op-level
// checks), so both report those findings identically. On top of it the
// pass derives element-level conclusions from the declared radial spans
// and write patterns (par::Span / Access::scatter) instead of observed
// touches:
//
//   * WAW/RAW races across fused kernels: a kernel whose declared pure
//     write (or pure read) overlaps — by span — an array pure-written by
//     an earlier member of the same fusion chain (FusedConflict);
//   * DC-illegality: a scatter-declared write in a plain parallel loop,
//     where unordered iterations may hit one element (DuplicateWrite);
//   * reads of in-flight ghost regions: any declared access whose span
//     covers a radial ghost column posted by an unfinished overlapped
//     exchange (InflightGhostRead);
//   * unified-memory hint correctness (PrefetchSpanMismatch,
//     UseAfterEvict), demoted to notes under toolchains that ignore the
//     hint class.
//
// The division of labor is: the static pass TRUSTS declarations and flags
// conservatively; the runtime validator VERIFIES declarations element-
// exactly. On honestly-declared streams the static findings are a
// superset of the runtime findings (the differential harness in
// tests/test_static_verifier.cpp pins this); a lying declaration slips
// past the static pass but is caught the first time the stream actually
// runs on the checked build. Checks that need observed touches
// (UndeclaredAccess, DeclaredWriteNotTouched) remain runtime-only — see
// the check matrix in DESIGN.md §15.

#include "analysis/diagnostics.hpp"
#include "analysis/op_checker.hpp"
#include "analysis/stream_capture.hpp"

namespace simas::analysis {

/// Run the static pass over a captured trace. Pure function of its
/// arguments: no kernel executes, no engine state is touched.
ValidationReport verify_stream(const StreamCapture& capture,
                               const StaticModel& model);

}  // namespace simas::analysis
