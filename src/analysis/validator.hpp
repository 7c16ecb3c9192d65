#pragma once
// Kernel-stream validator ("simas-lint"): run-time detection of the
// paper's Sec. IV porting hazards over the live op stream.
//
// The Engine owns one Validator when EngineConfig::validate is on (or the
// SIMAS_VALIDATE environment variable is set) and feeds it, in program
// order on the rank thread:
//   * every par::StreamEvent — IR ops (before the engine accounts
//     them), data-management directives and host/device access notes,
//     and overlapped-halo windows — via on_event(), from the same engine
//     call that writes the flight ring and the stream capture;
//   * in the checked build only (SIMAS_ELEMENT_SHADOW, library
//     `simas_checked`): the execution window of each kernel body, via
//     body_begin()/body_end(), and a ShadowSlot per Field-backed array
//     (analysis/shadow.hpp), through which Array3 reports which elements
//     a body actually touches.
//
// Ops and data events go straight into the analysis::OpChecker that the
// static verifier replays captures through: fusion chains (the
// engine's own par::LoweringPolicy and par::FusionChain, so
// personality lowering applies), the single async queue, the Manual-mode
// coherence machine and the op-level checks live there once, and every
// finding lands in its fold. Both build flavors run those. What stays
// here is what needs observed touches, and it exists in the checked
// build only:
//   1. Access-list verifier: the set of arrays a body touched is diffed
//      against the op's declared Access list — undeclared touches are the
//      missing-data-clause bug; declared-but-untouched writes inflate the
//      cost model.
//   2. DC-legality & race checker: element write tags detect duplicate
//      writes within one iteration space (illegal `do concurrent`) and
//      write conflicts across kernels fused into one ACC launch.
//   3. In-flight halo tracking: touches of radial ghost columns whose
//      overlapped exchange has not finished.
// The production build (`simas`) attaches no shadow slot and runs no
// touch diff. Instead every report it drains carries one Info
// ElementChecksUnavailable note, so a validated production run never
// reads as element-clean.
//
// The validator never touches the clock ledger: modeled time is identical
// with validation on or off.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/op_checker.hpp"
#ifdef SIMAS_ELEMENT_SHADOW
#include "analysis/shadow.hpp"
#endif
#include "gpusim/memory_manager.hpp"
#include "par/stream.hpp"

namespace simas::analysis {

class Validator {
 public:
  /// `cfg` is read at construction only; `mem` is an Engine member and
  /// outlives the validator.
  Validator(const par::EngineConfig& cfg, gpusim::MemoryManager& mem);
  ~Validator();
  Validator(const Validator&) = delete;
  Validator& operator=(const Validator&) = delete;

  // ---- Event hooks (called by the Engine on the rank thread) ----
  /// One stream event, in program order. In the checked build a
  /// HaloBeginRec marks the radial ghost columns of its array whose
  /// overlapped exchange has been posted but not finished: any
  /// kernel-body access to column off % radial_stride on a posted column
  /// is an InflightGhostRead (RAW race against the unfinished recv); the
  /// matching HaloEndRec clears the marks (unpack may now write them).
  void on_event(const par::StreamEvent& ev);

  // ---- Report ----
  /// Drain the findings (tests consume diagnostics before Engine teardown;
  /// a drained validator never trips the fatal-at-destruction path). In
  /// the production build the report also carries one
  /// ElementChecksUnavailable note.
  ValidationReport take();

#ifdef SIMAS_ELEMENT_SHADOW
  /// Bracket the execution of the body belonging to the last kernel op.
  void body_begin();
  void body_end();
  /// Sequence number of the armed window started by the last body_begin.
  /// The Engine's execute loops publish it (with the validator identity)
  /// in the thread-local iteration tag, so shadow slots can reject
  /// iteration ids from other engines or stale windows when several
  /// engines share one ThreadPool.
  u64 current_window() const { return window_seq_; }

  // ---- Shadow attachment (called by Field construction/destruction) ----
  ShadowSlot* attach_shadow(gpusim::ArrayId id, std::size_t elements);
  void detach_shadow(gpusim::ArrayId id);
#endif

 private:
  struct ArrayState {
    std::string name;
#ifdef SIMAS_ELEMENT_SHADOW
    std::size_t elements = 0;  ///< allocation size, for the tag vector
    std::unique_ptr<ShadowSlot> slot;
    std::unique_ptr<std::vector<std::atomic<u64>>> tags;
#endif
  };

  ArrayState& state_for(gpusim::ArrayId id);
  void on_op(const par::StreamOp& op);

  gpusim::MemoryManager& mem_;
  std::unordered_map<gpusim::ArrayId, ArrayState> arrays_;
  OpChecker checker_;

#ifdef SIMAS_ELEMENT_SHADOW
  friend class ShadowSlot;

  void begin_inflight_recv(const par::HaloBeginRec& rec);
  void end_inflight_recv(gpusim::ArrayId id);
  /// Conflict sink for ShadowSlot::note_element (runs on pool threads).
  void report_conflict(const ShadowSlot& slot, u64 prev_tag, u64 new_tag);
  /// Sink for ShadowSlot::note_inflight (runs on pool threads).
  void report_inflight(const ShadowSlot& slot);
  /// Name of a shadowed array (pool threads: lookup only, never inserts).
  const std::string& shadow_name(const ShadowSlot& slot) const;

  std::vector<gpusim::ArrayId> chain_written_;  ///< pure-write arrays so far

  // The kernel op whose body executes next.
  struct PendingKernel {
    const par::KernelSite* site = nullptr;
    par::OpKind kind = par::OpKind::Launch;
    i64 cells = 0;
    par::AccessList accesses;
    bool valid = false;
  };
  PendingKernel pending_;
  bool armed_ = false;
  u64 window_seq_ = 0;  ///< armed-window sequence (see current_window())
#endif
};

}  // namespace simas::analysis
