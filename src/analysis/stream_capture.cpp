#include "analysis/stream_capture.hpp"

namespace simas::analysis {

void StreamCapture::on_op(const par::StreamOp& op) {
  // Copy via the concrete alternative, like CapturedGraph::append: GCC's
  // -Wmaybe-uninitialized false-fires on inactive variant alternatives.
  std::visit([this](const auto& o) { events_.emplace_back(par::StreamOp{o}); },
             op);
  ++ops_;
  hash_ = par::hash_op_signature(hash_, op);
  if (const par::KernelOp* ko = par::kernel_payload(op); ko != nullptr)
    for (const par::Access& a : ko->accesses) remember_name(a.id);
  if (const auto* mh = std::get_if<par::MemHintOp>(&op))
    remember_name(mh->id);
}

void StreamCapture::on_halo_begin(gpusim::ArrayId id, bool lo_inflight,
                                  bool hi_inflight) {
  remember_name(id);
  events_.emplace_back(HaloBeginRec{id, lo_inflight, hi_inflight});
}

void StreamCapture::on_halo_end(gpusim::ArrayId id) {
  events_.emplace_back(HaloEndRec{id});
}

void StreamCapture::on_data_event(gpusim::DataEvent ev, gpusim::ArrayId id) {
  remember_name(id);
  events_.emplace_back(DataEventRec{ev, id});
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
