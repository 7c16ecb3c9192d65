#pragma once
// Kernel-stream validator ("simas-lint"): run-time detection of the
// paper's Sec. IV porting hazards over the live op stream.
//
// The Engine owns one Validator when EngineConfig::validate is on (or the
// SIMAS_VALIDATE environment variable is set) and feeds it:
//   * every IR op, via on_op() — before the scheduler consumes it;
//   * the execution window of each kernel body, via body_begin()/body_end();
//   * every data-management directive and host/device access note, via the
//     MemoryObserver hook on the MemoryManager;
//   * a ShadowSlot per Field-backed array (analysis/shadow.hpp), through
//     which Array3 reports which elements a body actually touches.
//
// Three analyses run on this feed:
//   1. Coherence checker (Manual memory mode): a per-array host-dirty /
//      device-dirty state machine flags device reads of stale copies,
//      host/MPI reads of dirty device data, exits that discard device
//      writes, and unbalanced enter/exit pairs.
//   2. Access-list verifier: the set of arrays a body touched is diffed
//      against the op's declared Access list — undeclared touches are the
//      missing-data-clause bug; declared-but-untouched writes inflate the
//      cost model.
//   3. DC-legality & race checker: element write tags detect duplicate
//      writes within one iteration space (illegal `do concurrent`) and
//      write conflicts across kernels fused into one ACC launch (fusion
//      decided by the scheduler's own par::LoweringPolicy and
//      par::FusionChain, so personality lowering applies); reduction
//      sites still marked async-capable are flagged, since the engine
//      hands their result to the host with no intervening device_sync.
//
// The modeled MPI layer captures payloads synchronously and every Comm
// entry point emits a FusionBreakOp first; the validator therefore treats
// FusionBreak (like SyncOp) as draining the single async queue. The
// missing-sync hazard remains visible whenever code bypasses Comm (e.g. a
// direct update_host after an async kernel).
//
// The validator never touches the clock ledger: modeled time is identical
// with validation on or off.

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/shadow.hpp"
#include "gpusim/memory_manager.hpp"
#include "par/scheduler.hpp"
#include "par/stream.hpp"

namespace simas::analysis {

class Validator final : public gpusim::MemoryObserver {
 public:
  /// `cfg` is read at construction only; `mem` is an Engine member and
  /// outlives the validator.
  Validator(const par::EngineConfig& cfg, gpusim::MemoryManager& mem);
  ~Validator() override;
  Validator(const Validator&) = delete;
  Validator& operator=(const Validator&) = delete;

  // ---- IR hooks (called by the Engine on the rank thread) ----
  void on_op(const par::StreamOp& op);
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

  // ---- In-flight halo tracking (called by mpisim::HaloExchanger) ----
  /// Mark the radial ghost columns of `id` whose overlapped exchange has
  /// been posted but not finished: any kernel-body access to column
  /// off % radial_stride in {lo_column, hi_column} is an InflightGhostRead
  /// (RAW race against the unfinished recv). Columns are (i + nghost);
  /// pass -1 to skip a side.
  void begin_inflight_recv(gpusim::ArrayId id, std::size_t radial_stride,
                           int lo_column, int hi_column);
  /// Clear the marks (the exchange finished; unpack may now write them).
  void end_inflight_recv(gpusim::ArrayId id);

  // ---- MemoryObserver ----
  void on_data_event(gpusim::DataEvent ev, gpusim::ArrayId id) override;

  // ---- Report ----
  /// Snapshot of the findings so far.
  ValidationReport report() const;
  /// Drain the findings (tests consume diagnostics before Engine teardown;
  /// a drained validator never trips the fatal-at-destruction path).
  ValidationReport take();

 private:
  friend class ShadowSlot;

  struct ArrayState {
    std::string name;
    std::size_t elements = 0;  ///< allocation size, for the tag vector
    bool on_device = false;
    bool host_dirty = false;    ///< host copy newer than device copy
    bool device_dirty = false;  ///< device copy newer than host copy
    bool pending_async = false; ///< async device write not yet drained
    std::unique_ptr<ShadowSlot> slot;
    std::unique_ptr<std::vector<std::atomic<u64>>> tags;
  };

  ArrayState& state_for(gpusim::ArrayId id);
  void end_chain();
  void diagnose(Check check, const std::string& site,
                const std::string& array, std::string message,
                std::string location = {});
  void drain_async_queue();
  /// Conflict sink for ShadowSlot::note_element (runs on pool threads).
  void report_conflict(const ShadowSlot& slot, u64 prev_tag, u64 new_tag);
  /// Sink for ShadowSlot::note_inflight (runs on pool threads).
  void report_inflight(const ShadowSlot& slot);

  gpusim::MemoryManager& mem_;

  // Model facts resolved once from the config.
  bool manual_gpu_ = false;   ///< coherence machine active
  par::LoweringPolicy policy_;  ///< the scheduler's fuse/async lowering

  std::unordered_map<gpusim::ArrayId, ArrayState> arrays_;

  // The scheduler's fusion-chain rule: chain id and op slot become the
  // element tags' chain/slot fields.
  par::FusionChain chain_;
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
  std::string current_site_;      ///< site name during body execution
  std::string current_location_;  ///< its registering file:line

  i64 op_index_ = 0;

  // Findings, folded per (check, site, array). The mutex only guards the
  // diagnostic map: element tagging itself is lock-free.
  mutable std::mutex diag_mutex_;
  std::unordered_map<std::string, std::size_t> diag_index_;
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace simas::analysis
