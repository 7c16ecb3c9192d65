#pragma once
// Enriched kernel-stream recording for ahead-of-run verification.
//
// The kernel-stream IR alone does not carry everything the paper's
// Sec. IV hazards live in: data-management directives and the
// begin/finish pairs of the overlapped halo exchange are separate event
// channels. StreamCapture keeps all three as ONE ordered trace of
// par::StreamEvent records (par/stream.hpp), appended by the Engine's one
// event function — the same call that writes the flight ring and feeds
// the runtime validator — so the recorded order IS the program order the
// validator observes. The static verifier (analysis/static_verifier.hpp)
// replays this trace through the same analysis::OpChecker the validator
// feeds live, without executing a single kernel: O(stream size), not
// O(cells x steps).

#include <string>
#include <unordered_map>
#include <vector>

#include "gpusim/memory_manager.hpp"
#include "par/stream.hpp"

namespace simas::analysis {

class StreamCapture {
 public:
  /// `mem` resolves array names at record time (the verifier runs after
  /// the arrays may be gone). Must outlive the capture.
  explicit StreamCapture(gpusim::MemoryManager& mem) : mem_(mem) {}

  /// Recording hook (rank thread, program order).
  void record(const par::StreamEvent& ev);

  // ---- The recorded trace ----
  const std::vector<par::StreamEvent>& events() const { return events_; }
  /// Registered name of an array seen in the trace ("?" if never seen).
  const std::string& array_name(gpusim::ArrayId id) const;

 private:
  void remember_name(gpusim::ArrayId id);

  gpusim::MemoryManager& mem_;
  std::vector<par::StreamEvent> events_;
  std::unordered_map<gpusim::ArrayId, std::string> names_;
};

}  // namespace simas::analysis
