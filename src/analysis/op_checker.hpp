#pragma once
// The op-level stream checker: the one state machine behind both the
// runtime validator (analysis/validator.hpp) and the static verifier
// (analysis/static_verifier.hpp).
//
// It consumes a rank's kernel-stream ops and Manual-mode data events one
// at a time, in program order. The validator feeds it live from the
// Engine; the static pass replays a StreamCapture through it. Either way
// the checker owns:
//
//   * fusion-chain stepping (the engine's own par::FusionChain under
//     the engine's par::LoweringPolicy);
//   * the single async queue: every async launch's writes stay pending
//     until a sync, a fusion break (every modeled MPI entry point emits
//     one and captures its payload synchronously) or a reduction;
//   * the Manual-mode host/device coherence flags per array;
//   * the op-level checks: StaleDeviceRead, StaleHostRead,
//     DiscardedDeviceWrites, KernelOutsideRegion, UnbalancedDataRegion,
//     AsyncReductionNoWait and AsyncHostAccessNoSync;
//   * the findings fold both consumers write into: one Diagnostic per
//     (check, site, array), the first op_index kept, count++ on repeats.
//
// Checks that need observed element touches (validator) or declared spans
// (static pass) stay with their consumer and go through note().

#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "analysis/diagnostics.hpp"
#include "gpusim/memory_manager.hpp"
#include "par/scheduler.hpp"
#include "par/stream.hpp"

namespace simas::analysis {

/// The model facts the checkers resolve from an engine configuration: the
/// engine's LoweringPolicy (a toolchain that never fuses cannot have
/// fused-chain races; one that ignores a hint class turns that class's
/// findings into notes) plus the memory mode and target.
struct StaticModel {
  par::LoweringPolicy policy;
  gpusim::MemoryMode memory = gpusim::MemoryMode::Manual;
  bool gpu = true;

  static StaticModel from(const par::EngineConfig& cfg) {
    return StaticModel{par::lowering_policy(cfg), cfg.memory, cfg.gpu};
  }
};

class OpChecker {
 public:
  /// Resolves an array id to its registered name for findings. Called on
  /// the feeding thread only, and only when a finding is noted.
  using ArrayNames = std::function<const std::string&(gpusim::ArrayId)>;

  OpChecker(const StaticModel& model, ArrayNames names);
  OpChecker(const OpChecker&) = delete;
  OpChecker& operator=(const OpChecker&) = delete;

  /// What one op did to the fusion chain and which kernel it carries.
  struct Step {
    /// The op's kernel payload; nullptr for syncs, fusion breaks, hints.
    const par::KernelOp* kernel = nullptr;
    /// The op ended the open fusion chain or opened a new one: consumers
    /// drop the arrays they recorded as written in the chain.
    bool new_chain = false;
  };

  /// Step the fusion chain and the async queue over one op. A reduction
  /// is checked for AsyncReductionNoWait here. A kernel op must be
  /// followed by check_coherence(); the static pass runs its declaration
  /// checks in between, so they report ahead of the kernel's coherence
  /// findings.
  Step step(const par::StreamOp& op);
  /// Run the Manual-mode coherence machine over the accesses of the
  /// kernel that step() returned last.
  void check_coherence(const par::KernelOp& ko);
  /// One Manual-mode data directive or host/device access note.
  void on_data_event(gpusim::DataEvent ev, gpusim::ArrayId id);

  /// Fold one finding, stamped with the current op index. Strings are
  /// built only when (check, site, array) is new; repeats just count.
  /// `where` gives the finding its file:line provenance. `demoted` drops
  /// it to an Info note. Thread-safe.
  void note(Check check, std::string_view site, std::string_view array,
            const char* message, const par::KernelSite* where = nullptr,
            bool demoted = false);

  /// Chain id / slot of the last launch (the validator's element tags).
  u64 chain_id() const { return chain_.id(); }
  u64 chain_slot() const { return chain_.slot(); }
  const par::LoweringPolicy& policy() const { return policy_; }

  /// Drain the findings; the machine state (coherence flags, async queue,
  /// fusion chain, op count) is kept.
  ValidationReport take();

 private:
  struct Coherence {
    bool on_device = false;
    bool host_dirty = false;    ///< host copy newer than device copy
    bool device_dirty = false;  ///< device copy newer than host copy
    bool pending_async = false; ///< async device write not yet drained
  };

  void drain_async_queue();

  const par::LoweringPolicy policy_;
  const bool manual_gpu_;  ///< coherence machine active for kernels
  ArrayNames names_;

  std::unordered_map<gpusim::ArrayId, Coherence> arrays_;
  par::FusionChain chain_;
  bool launch_async_ = false;  ///< the last kernel op was an async launch
  i64 op_index_ = 0;

  // The fold. Keys view the site/array strings of their own Diagnostic;
  // a deque never moves its elements, so the views stay valid.
  struct FoldKey {
    Check check;
    std::string_view site;
    std::string_view array;
    bool operator==(const FoldKey&) const = default;
  };
  struct FoldHash {
    std::size_t operator()(const FoldKey& k) const noexcept;
  };
  std::mutex fold_mutex_;
  std::unordered_map<FoldKey, std::size_t, FoldHash> fold_index_;
  std::deque<Diagnostic> findings_;
};

}  // namespace simas::analysis
