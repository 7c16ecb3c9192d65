#include "analysis/op_checker.hpp"

#include <iterator>
#include <utility>

namespace simas::analysis {

OpChecker::OpChecker(const StaticModel& model, ArrayNames names)
    : policy_(model.policy),
      manual_gpu_(model.memory == gpusim::MemoryMode::Manual && model.gpu),
      names_(std::move(names)),
      chain_(policy_.fuse) {}

std::size_t OpChecker::FoldHash::operator()(const FoldKey& k) const noexcept {
  const std::hash<std::string_view> h;
  return (h(k.site) * 31 + h(k.array)) * 31 + static_cast<std::size_t>(k.check);
}

void OpChecker::note(Check check, std::string_view site,
                     std::string_view array, const char* message,
                     const par::KernelSite* where, bool demoted) {
  std::lock_guard<std::mutex> lock(fold_mutex_);
  const auto it = fold_index_.find(FoldKey{check, site, array});
  if (it != fold_index_.end()) {
    findings_[it->second].count++;
    return;
  }
  Diagnostic& d = findings_.emplace_back();
  d.check = check;
  d.severity = demoted ? Severity::Info : check_severity(check);
  d.site = site;
  d.array = array;
  if (where != nullptr) d.location = where->location();
  d.op_index = op_index_;
  d.message = message;
  fold_index_.emplace(FoldKey{check, d.site, d.array}, findings_.size() - 1);
}

void OpChecker::drain_async_queue() {
  for (auto& [id, st] : arrays_) st.pending_async = false;
}

OpChecker::Step OpChecker::step(const par::StreamOp& op) {
  ++op_index_;
  const par::OpKind kind = par::op_kind(op);
  if (kind == par::OpKind::MemHint) {
    // Driver residency hint: no kernel body, no fusion effect, no
    // coherence transition.
    return {};
  }
  if (kind == par::OpKind::Sync || kind == par::OpKind::FusionBreak) {
    // Both drain the single async queue: SyncOp is an explicit wait; every
    // modeled MPI entry point emits a FusionBreakOp and captures its
    // payload synchronously.
    drain_async_queue();
    chain_.reset();
    return {nullptr, true};
  }
  const par::KernelOp& ko = *par::kernel_payload(op);
  if (kind == par::OpKind::Launch) {
    launch_async_ = policy_.async_launch(*ko.site);
    return {&ko, !chain_.launch(ko.site->fusion_group)};
  }
  // Reductions are synchronous under every model: they end the fusion
  // chain and drain the async queue before the host reads the result.
  launch_async_ = false;
  chain_.reset();
  if (policy_.async_launch(*ko.site)) {
    note(Check::AsyncReductionNoWait, ko.site->name, {},
         "reduction result is consumed on the host immediately, but the "
         "site is declared async-capable: under async launches the host "
         "would read the result before the kernel finished; mark the site "
         "async_capable=false or device_sync first",
         ko.site);
  }
  drain_async_queue();
  return {&ko, true};
}

void OpChecker::check_coherence(const par::KernelOp& ko) {
  if (!manual_gpu_) return;
  for (const par::Access& a : ko.accesses) {
    Coherence& st = arrays_[a.id];
    if (!st.on_device) {
      note(Check::KernelOutsideRegion, ko.site->name, names_(a.id),
           "kernel accesses an array outside any data region: the compiler "
           "would add an implicit per-kernel copy (correct but slow) — wrap "
           "it in enter_data/exit_data",
           ko.site);
      continue;
    }
    if (a.write) {
      st.device_dirty = true;
      if (launch_async_) st.pending_async = true;
    } else if (st.host_dirty) {
      note(Check::StaleDeviceRead, ko.site->name, names_(a.id),
           "device kernel reads an array whose host copy was modified after "
           "the last update_device: the device sees stale data",
           ko.site);
    }
  }
}

void OpChecker::on_data_event(gpusim::DataEvent ev, gpusim::ArrayId id) {
  using gpusim::DataEvent;
  Coherence& st = arrays_[id];
  switch (ev) {
    case DataEvent::EnterData:
      st.on_device = true;
      st.host_dirty = false;
      st.device_dirty = false;
      break;
    case DataEvent::RedundantEnter:
      note(Check::UnbalancedDataRegion, "enter_data", names_(id),
           "enter_data on an array already inside a data region "
           "(unbalanced enter/exit pairs)");
      break;
    case DataEvent::ExitCopyOut:
      if (st.pending_async) {
        note(Check::AsyncHostAccessNoSync, "exit_data", names_(id),
             "exit_data copies the array back while async device writes "
             "are still in flight: device_sync first");
      }
      st = Coherence{};
      break;
    case DataEvent::ExitDelete:
      if (st.device_dirty) {
        note(Check::DiscardedDeviceWrites, "exit_data", names_(id),
             "exit_data(Delete) discards device writes that were never "
             "copied back to the host");
      }
      st.on_device = false;
      st.device_dirty = false;
      st.pending_async = false;
      break;
    case DataEvent::ExitOutsideRegion:
      note(Check::UnbalancedDataRegion, "exit_data", names_(id),
           "exit_data without a matching enter_data (double exit?)");
      break;
    case DataEvent::UpdateDevice:
      st.host_dirty = false;
      break;
    case DataEvent::UpdateDeviceOutsideRegion:
      note(Check::UnbalancedDataRegion, "update_device", names_(id),
           "update_device outside a data region: the array is not present "
           "on the device");
      break;
    case DataEvent::UpdateHost:
      if (st.pending_async) {
        note(Check::AsyncHostAccessNoSync, "update_host", names_(id),
             "update_host pulls data while async device writes are still in "
             "flight on the queue: device_sync first (the Sec. IV "
             "reduction/IO-before-wait bug)");
        st.pending_async = false;
      }
      st.device_dirty = false;
      break;
    case DataEvent::UpdateHostOutsideRegion:
      note(Check::UnbalancedDataRegion, "update_host", names_(id),
           "update_host outside a data region: the array is not present on "
           "the device");
      break;
    case DataEvent::UnregisterInRegion:
      if (st.device_dirty) {
        note(Check::DiscardedDeviceWrites, "unregister_array", names_(id),
             "array storage freed while its device copy held writes never "
             "copied back to the host");
      }
      note(Check::UnbalancedDataRegion, "unregister_array", names_(id),
           "array storage freed while still device-resident: the data "
           "region was never exited (implicit release)");
      st.on_device = false;
      st.device_dirty = false;
      st.pending_async = false;
      break;
    case DataEvent::HostRead:
      if (st.on_device && st.device_dirty) {
        note(Check::StaleHostRead, "host-read", names_(id),
             "host-side code reads an array whose device copy was modified "
             "after the last update_host: the host sees stale data");
      }
      break;
    case DataEvent::HostWrite:
      if (st.on_device) st.host_dirty = true;
      break;
    case DataEvent::DeviceRead:
      if (st.on_device && st.host_dirty) {
        note(Check::StaleDeviceRead, "device-read", names_(id),
             "device-side transfer reads an array whose host copy was "
             "modified after the last update_device");
      }
      break;
    case DataEvent::DeviceWrite:
      if (st.on_device) st.device_dirty = true;
      break;
  }
}

ValidationReport OpChecker::take() {
  std::lock_guard<std::mutex> lock(fold_mutex_);
  ValidationReport r;
  r.diagnostics.assign(std::make_move_iterator(findings_.begin()),
                       std::make_move_iterator(findings_.end()));
  r.ops_checked = op_index_;
  fold_index_.clear();
  findings_.clear();
  return r;
}

}  // namespace simas::analysis
