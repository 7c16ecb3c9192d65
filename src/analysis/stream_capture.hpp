#pragma once
// Enriched kernel-stream recording for ahead-of-run verification.
//
// The kernel-stream IR (par/stream.hpp) alone does not carry everything
// the paper's Sec. IV hazards live in: data-management directives and the
// begin/finish pairs of the overlapped halo exchange are separate event
// channels. StreamCapture merges all three into ONE ordered event trace:
//
//   * every IR op, via on_op() — fed by Engine::submit in program order;
//   * every Manual-mode data directive / host-device access note, via
//     on_data_event() — fed by the Engine's memory observer, which hands
//     the same event to the runtime validator;
//   * halo begin/finish pairs, via on_halo_begin()/on_halo_end() — fed by
//     Engine::note_halo_begin/note_halo_end from mpisim::HaloExchanger.
//
// All three channels fire on the rank thread, so the recorded order IS the
// program order the runtime validator observes. The static verifier
// (analysis/static_verifier.hpp) replays this trace through the same
// analysis::OpChecker the validator feeds live, without executing a
// single kernel: O(stream size), not O(cells x steps).
//
// The capture also folds a running signature hash over the op channel
// (par::hash_op_signature) — the integrity fingerprint stored in a
// verified-stream certificate (par/graph_cache.hpp).

#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "gpusim/memory_manager.hpp"
#include "par/stream.hpp"
#include "util/types.hpp"

namespace simas::analysis {

/// A Manual-mode data directive or host/device access note.
struct DataEventRec {
  gpusim::DataEvent event = gpusim::DataEvent::HostRead;
  gpusim::ArrayId id = gpusim::kInvalidArray;
};

/// A nonblocking halo exchange was posted on `id`: the radial ghost
/// columns named here are in flight until the matching HaloEndRec.
struct HaloBeginRec {
  gpusim::ArrayId id = gpusim::kInvalidArray;
  bool lo_inflight = false;  ///< low radial ghost column posted
  bool hi_inflight = false;  ///< high radial ghost column posted
};

/// The exchange on `id` finished: its ghost columns are valid again.
struct HaloEndRec {
  gpusim::ArrayId id = gpusim::kInvalidArray;
};

using StreamEvent =
    std::variant<par::StreamOp, DataEventRec, HaloBeginRec, HaloEndRec>;

class StreamCapture {
 public:
  /// `mem` resolves array names at record time (the verifier runs after
  /// the arrays may be gone). Must outlive the capture.
  explicit StreamCapture(gpusim::MemoryManager& mem) : mem_(mem) {}

  // ---- Recording hooks (rank thread, program order) ----
  void on_op(const par::StreamOp& op);
  void on_halo_begin(gpusim::ArrayId id, bool lo_inflight, bool hi_inflight);
  void on_halo_end(gpusim::ArrayId id);
  void on_data_event(gpusim::DataEvent ev, gpusim::ArrayId id);

  // ---- The recorded trace ----
  const std::vector<StreamEvent>& events() const { return events_; }
  /// Kernel-stream ops recorded (the certificate's op count).
  i64 ops() const { return ops_; }
  /// Running signature hash over the op channel (certificate fingerprint).
  u64 stream_hash() const { return hash_; }
  /// Registered name of an array seen in the trace ("?" if never seen).
  const std::string& array_name(gpusim::ArrayId id) const;

 private:
  void remember_name(gpusim::ArrayId id);

  gpusim::MemoryManager& mem_;
  std::vector<StreamEvent> events_;
  std::unordered_map<gpusim::ArrayId, std::string> names_;
  i64 ops_ = 0;
  u64 hash_ = par::kStreamHashSeed;
};

}  // namespace simas::analysis
