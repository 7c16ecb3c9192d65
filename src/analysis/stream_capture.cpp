#include "analysis/stream_capture.hpp"

namespace simas::analysis {

void StreamCapture::record(const par::StreamEvent& ev) {
  if (const auto* op = std::get_if<par::StreamOp>(&ev)) {
    if (const par::KernelOp* ko = par::kernel_payload(*op))
      for (const par::Access& a : ko->accesses) remember_name(a.id);
  }
  // The record's own array (a hint's, a data event's, a halo window's);
  // for a kernel op the encoder's array is its first declared access.
  remember_name(par::flight_event(ev).array);
  events_.push_back(ev);
}

const std::string& StreamCapture::array_name(gpusim::ArrayId id) const {
  static const std::string unknown = "?";
  const auto it = names_.find(id);
  return it == names_.end() ? unknown : it->second;
}

void StreamCapture::remember_name(gpusim::ArrayId id) {
  if (id == gpusim::kInvalidArray) return;
  if (names_.find(id) != names_.end()) return;
  names_.emplace(id, mem_.record(id).name);
}

}  // namespace simas::analysis
