#include "analysis/validator.hpp"

#include <algorithm>
#include <utility>

namespace simas::analysis {

namespace {

// Element-tag layout: [chain_id:24][op_slot:8][iteration+1:32]. The chain
// id identifies one ACC fusion chain (or one kernel, under the DC models);
// the op slot orders kernels within a chain; the iteration distinguishes
// loop iterations within a kernel.
constexpr u64 chain_of(u64 tag) { return tag >> 40; }
constexpr u64 slot_of(u64 tag) { return (tag >> 32) & 0xffu; }

const par::KernelOp* kernel_payload(const par::StreamOp& op) {
  if (const auto* l = std::get_if<par::LaunchOp>(&op)) return l;
  if (const auto* r = std::get_if<par::ReduceOp>(&op)) return r;
  if (const auto* a = std::get_if<par::ArrayReduceOp>(&op)) return a;
  return nullptr;
}

}  // namespace

void ShadowSlot::note_element(std::size_t off) {
  // Only honor iteration ids published for *this* slot's validator and
  // for the *currently armed* window: a pool thread may carry a tag from
  // another engine (shared ThreadPool) or from an earlier body (tags are
  // never cleared), and stamping foreign/stale ids into the element tags
  // would manufacture conflicts no single-engine run could produce.
  const IterationTag& t = tl_iteration_tag;
  if (t.owner != owner_ ||
      t.window != armed_window_.load(std::memory_order_relaxed))
    return;
  const u64 iter = t.iteration;
  if (iter == 0 || tags_ == nullptr) return;
  auto& tags = *tags_;
  if (off >= tags.size()) return;
  if (mode_.load(std::memory_order_relaxed) == Mode::WriteTrack) {
    const u64 mine = chain_tag_ | iter;
    const u64 prev = tags[off].exchange(mine, std::memory_order_relaxed);
    if (prev != 0 && prev != mine && chain_of(prev) == chain_of(mine))
      owner_->report_conflict(*this, prev, mine);
  } else {  // ReadCheck: flag reads of elements written earlier this chain
    const u64 prev = tags[off].load(std::memory_order_relaxed);
    if (prev != 0 && chain_of(prev) == chain_of(chain_tag_) &&
        slot_of(prev) != slot_of(chain_tag_))
      owner_->report_conflict(*this, prev, chain_tag_ | iter);
  }
}

void ShadowSlot::note_inflight(std::size_t off) {
  if (inflight_stride_ == 0) return;
  const int col = static_cast<int>(off % inflight_stride_);
  if (col != inflight_lo_ && col != inflight_hi_) return;
  owner_->report_inflight(*this);
}

Validator::Validator(const par::EngineConfig& cfg, gpusim::MemoryManager& mem)
    : mem_(mem),
      manual_gpu_(cfg.memory == gpusim::MemoryMode::Manual && cfg.gpu),
      policy_(par::lowering_policy(cfg)),
      chain_(policy_.fuse) {}

Validator::~Validator() = default;

Validator::ArrayState& Validator::state_for(gpusim::ArrayId id) {
  auto it = arrays_.find(id);
  if (it == arrays_.end()) {
    ArrayState st;
    st.name = mem_.record(id).name;
    it = arrays_.emplace(id, std::move(st)).first;
  }
  return it->second;
}

void Validator::diagnose(Check check, const std::string& site,
                         const std::string& array, std::string message,
                         std::string location) {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  std::string key = std::string(check_name(check)) + '|' + site + '|' + array;
  const auto it = diag_index_.find(key);
  if (it != diag_index_.end()) {
    diagnostics_[it->second].count++;
    return;
  }
  Diagnostic d;
  d.check = check;
  d.severity = check_severity(check);
  d.site = site;
  d.array = array;
  d.location = std::move(location);
  d.op_index = op_index_;
  d.message = std::move(message);
  diag_index_.emplace(std::move(key), diagnostics_.size());
  diagnostics_.push_back(std::move(d));
}

void Validator::drain_async_queue() {
  for (auto& [id, st] : arrays_) st.pending_async = false;
}

void Validator::end_chain() {
  chain_.reset();
  chain_written_.clear();
}

void Validator::on_op(const par::StreamOp& op) {
  ++op_index_;
  const par::OpKind kind = par::op_kind(op);

  if (kind == par::OpKind::MemHint) {
    // Driver residency hint: no kernel body follows, no fusion effect, no
    // coherence transition. Hint-correctness rules (wrong-span prefetch,
    // use-after-evict) are span-level reasoning and live in the static
    // verifier; the runtime pass just counts the op.
    return;
  }

  if (kind == par::OpKind::Sync || kind == par::OpKind::FusionBreak) {
    // Both drain the single async queue: SyncOp is an explicit wait; every
    // modeled MPI entry point emits a FusionBreakOp and captures its
    // payload synchronously (see header comment).
    drain_async_queue();
    end_chain();
    pending_.valid = false;
    return;
  }

  const par::KernelOp& ko = *kernel_payload(op);

  if (kind == par::OpKind::Launch) {
    if (!chain_.launch(ko.site->fusion_group)) chain_written_.clear();
  } else {
    // Reductions are synchronous under every model: they end the fusion
    // chain and drain the async queue before the host reads the result.
    end_chain();
    if (policy_.async_launch(*ko.site)) {
      diagnose(Check::AsyncReductionNoWait, ko.site->name, {},
               "reduction result is consumed on the host immediately, but "
               "the site is declared async-capable: under async launches "
               "the host would read the result before the kernel finished; "
               "mark the site async_capable=false or device_sync first",
               ko.site->location());
    }
    drain_async_queue();
  }

  // Coherence checker (Manual memory mode, device execution).
  if (manual_gpu_) {
    const bool launch_async =
        kind == par::OpKind::Launch && policy_.async_launch(*ko.site);
    for (const par::Access& a : ko.accesses) {
      ArrayState& st = state_for(a.id);
      if (!st.on_device) {
        diagnose(Check::KernelOutsideRegion, ko.site->name, st.name,
                 "kernel accesses an array outside any data region: the "
                 "compiler would add an implicit per-kernel copy (correct "
                 "but slow) — wrap it in enter_data/exit_data",
                 ko.site->location());
        continue;
      }
      if (a.write) {
        st.device_dirty = true;
        if (launch_async) st.pending_async = true;
      } else if (st.host_dirty) {
        diagnose(Check::StaleDeviceRead, ko.site->name, st.name,
                 "device kernel reads an array whose host copy was "
                 "modified after the last update_device: the device sees "
                 "stale data",
                 ko.site->location());
      }
    }
  }

  // Remember the op whose body executes next (access-list verification).
  pending_.site = ko.site;
  pending_.kind = kind;
  pending_.cells = ko.cells;
  pending_.accesses = ko.accesses;
  pending_.valid = true;
}

void Validator::body_begin() {
  if (!pending_.valid || pending_.cells <= 0) {
    armed_ = false;
    return;
  }
  armed_ = true;
  // New armed window: iteration ids published by the engine's execute
  // loops for this body carry this sequence number; note_element ignores
  // every other (owner, window) pair.
  ++window_seq_;
  current_site_ = pending_.site->name;
  current_location_ = pending_.site->location();
  const u64 chain_tag =
      ((chain_.id() & 0xffffffu) << 40) | ((chain_.slot() & 0xffu) << 32);
  for (auto& [id, st] : arrays_) {
    if (!st.slot) continue;
    ShadowSlot& s = *st.slot;
    s.touched_.store(false, std::memory_order_relaxed);
    s.armed_window_.store(window_seq_, std::memory_order_relaxed);
    bool declared_r = false, declared_w = false;
    for (const par::Access& a : pending_.accesses)
      if (a.id == id) (a.write ? declared_w : declared_r) = true;
    // Element tagging applies to loop launches and array reductions — the
    // entry points whose execute loops publish iteration ids. Scalar
    // reductions only get the touched/declared diff.
    const bool tagged_kind = pending_.kind == par::OpKind::Launch ||
                             pending_.kind == par::OpKind::ArrayReduce;
    ShadowSlot::Mode m = ShadowSlot::Mode::Touch;
    if (!tagged_kind) {
      // keep Touch
    } else if (declared_w && !declared_r) {
      // Pure write declaration: under `do concurrent` no element may be
      // written by two iterations, and no other kernel of the same fused
      // launch may touch the same element.
      m = ShadowSlot::Mode::WriteTrack;
    } else if (declared_r && !declared_w &&
               std::find(chain_written_.begin(), chain_written_.end(), id) !=
                   chain_written_.end()) {
      // Pure read of an array written earlier in this fusion chain: fusing
      // the kernels makes element overlap a read-after-write race.
      m = ShadowSlot::Mode::ReadCheck;
    }
    if (m != ShadowSlot::Mode::Touch) {
      if (!st.tags)
        st.tags =
            std::make_unique<std::vector<std::atomic<u64>>>(st.elements);
      s.tags_ = st.tags.get();
      s.chain_tag_ = chain_tag;
    }
    s.mode_.store(m, std::memory_order_relaxed);
  }
}

void Validator::body_end() {
  if (!armed_) {
    pending_.valid = false;
    return;
  }
  for (auto& [id, st] : arrays_) {
    if (!st.slot) continue;
    ShadowSlot& s = *st.slot;
    const ShadowSlot::Mode mode =
        s.mode_.load(std::memory_order_relaxed);
    s.mode_.store(ShadowSlot::Mode::Idle, std::memory_order_relaxed);
    const bool touched = s.touched_.load(std::memory_order_relaxed);
    bool declared_r = false, declared_w = false;
    for (const par::Access& a : pending_.accesses)
      if (a.id == id) (a.write ? declared_w : declared_r) = true;
    if (touched && !declared_r && !declared_w) {
      diagnose(Check::UndeclaredAccess, current_site_, st.name,
               "kernel body touched an array missing from its Access "
               "list: a `default(present)` region would fault and the "
               "traffic model undercounts (the Sec. IV missing-data-"
               "clause bug)");
    }
    if (!touched && declared_w) {
      diagnose(Check::DeclaredWriteNotTouched, current_site_, st.name,
               "declared write was never touched by the body: the copy "
               "clause and the cost model charge traffic that does not "
               "exist");
    }
    if (touched && mode == ShadowSlot::Mode::WriteTrack &&
        pending_.kind == par::OpKind::Launch &&
        std::find(chain_written_.begin(), chain_written_.end(), id) ==
            chain_written_.end()) {
      chain_written_.push_back(id);
    }
  }
  armed_ = false;
  pending_.valid = false;
}

void Validator::report_conflict(const ShadowSlot& slot, u64 prev_tag,
                                u64 new_tag) {
  std::string array;
  const auto it = arrays_.find(slot.array_id_);
  if (it != arrays_.end()) array = it->second.name;
  if (slot_of(prev_tag) == slot_of(new_tag)) {
    diagnose(Check::DuplicateWrite, current_site_, array,
             "two iterations of one parallel loop wrote the same element: "
             "the loop is not legal `do concurrent` (unordered iterations "
             "race on the element)",
             current_location_);
  } else {
    diagnose(Check::FusedConflict, current_site_, array,
             "element written by an earlier kernel of the same ACC fusion "
             "group is touched again by this kernel: fusing them into one "
             "launch introduces a race",
             current_location_);
  }
}

void Validator::report_inflight(const ShadowSlot& slot) {
  std::string array;
  const auto it = arrays_.find(slot.array_id_);
  if (it != arrays_.end()) array = it->second.name;
  diagnose(Check::InflightGhostRead, current_site_, array,
           "kernel touches a radial ghost plane whose nonblocking halo "
           "exchange is still in flight: the unpack has not run, so the "
           "value read races with the unfinished recv — finish the "
           "exchange first, or restrict the kernel to the interior",
           current_location_);
}

void Validator::begin_inflight_recv(gpusim::ArrayId id,
                                    std::size_t radial_stride, int lo_column,
                                    int hi_column) {
  ArrayState& st = state_for(id);
  if (!st.slot) return;
  ShadowSlot& s = *st.slot;
  s.inflight_stride_ = radial_stride;
  s.inflight_lo_ = lo_column;
  s.inflight_hi_ = hi_column;
  s.inflight_.store(true, std::memory_order_release);
}

void Validator::end_inflight_recv(gpusim::ArrayId id) {
  const auto it = arrays_.find(id);
  if (it == arrays_.end() || !it->second.slot) return;
  it->second.slot->inflight_.store(false, std::memory_order_release);
}

ShadowSlot* Validator::attach_shadow(gpusim::ArrayId id,
                                     std::size_t elements) {
  ArrayState& st = state_for(id);
  st.elements = elements;
  st.slot = std::make_unique<ShadowSlot>();
  st.slot->owner_ = this;
  st.slot->array_id_ = id;
  return st.slot.get();
}

void Validator::detach_shadow(gpusim::ArrayId id) {
  const auto it = arrays_.find(id);
  if (it == arrays_.end()) return;
  it->second.slot.reset();
  it->second.tags.reset();
}

void Validator::on_data_event(gpusim::DataEvent ev, gpusim::ArrayId id) {
  using gpusim::DataEvent;
  ArrayState& st = state_for(id);
  switch (ev) {
    case DataEvent::EnterData:
      st.on_device = true;
      st.host_dirty = false;
      st.device_dirty = false;
      break;
    case DataEvent::RedundantEnter:
      diagnose(Check::UnbalancedDataRegion, "enter_data", st.name,
               "enter_data on an array already inside a data region "
               "(unbalanced enter/exit pairs)");
      break;
    case DataEvent::ExitCopyOut:
      if (st.pending_async) {
        diagnose(Check::AsyncHostAccessNoSync, "exit_data", st.name,
                 "exit_data copies the array back while async device "
                 "writes are still in flight: device_sync first");
      }
      st.on_device = false;
      st.host_dirty = false;
      st.device_dirty = false;
      st.pending_async = false;
      break;
    case DataEvent::ExitDelete:
      if (st.device_dirty) {
        diagnose(Check::DiscardedDeviceWrites, "exit_data", st.name,
                 "exit_data(Delete) discards device writes that were "
                 "never copied back to the host");
      }
      st.on_device = false;
      st.device_dirty = false;
      st.pending_async = false;
      break;
    case DataEvent::ExitOutsideRegion:
      diagnose(Check::UnbalancedDataRegion, "exit_data", st.name,
               "exit_data without a matching enter_data (double exit?)");
      break;
    case DataEvent::UpdateDevice:
      st.host_dirty = false;
      break;
    case DataEvent::UpdateDeviceOutsideRegion:
      diagnose(Check::UnbalancedDataRegion, "update_device", st.name,
               "update_device outside a data region: the array is not "
               "present on the device");
      break;
    case DataEvent::UpdateHost:
      if (st.pending_async) {
        diagnose(Check::AsyncHostAccessNoSync, "update_host", st.name,
                 "update_host pulls data while async device writes are "
                 "still in flight on the queue: device_sync first (the "
                 "Sec. IV reduction/IO-before-wait bug)");
        st.pending_async = false;
      }
      st.device_dirty = false;
      break;
    case DataEvent::UpdateHostOutsideRegion:
      diagnose(Check::UnbalancedDataRegion, "update_host", st.name,
               "update_host outside a data region: the array is not "
               "present on the device");
      break;
    case DataEvent::UnregisterInRegion:
      if (st.device_dirty) {
        diagnose(Check::DiscardedDeviceWrites, "unregister_array", st.name,
                 "array storage freed while its device copy held writes "
                 "never copied back to the host");
      }
      diagnose(Check::UnbalancedDataRegion, "unregister_array", st.name,
               "array storage freed while still device-resident: the data "
               "region was never exited (implicit release)");
      st.on_device = false;
      st.device_dirty = false;
      st.pending_async = false;
      break;
    case DataEvent::HostRead:
      if (st.on_device && st.device_dirty) {
        diagnose(Check::StaleHostRead, "host-read", st.name,
                 "host-side code reads an array whose device copy was "
                 "modified after the last update_host: the host sees "
                 "stale data");
      }
      break;
    case DataEvent::HostWrite:
      if (st.on_device) st.host_dirty = true;
      break;
    case DataEvent::DeviceRead:
      if (st.on_device && st.host_dirty) {
        diagnose(Check::StaleDeviceRead, "device-read", st.name,
                 "device-side transfer reads an array whose host copy was "
                 "modified after the last update_device");
      }
      break;
    case DataEvent::DeviceWrite:
      if (st.on_device) st.device_dirty = true;
      break;
  }
}

ValidationReport Validator::report() const {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  ValidationReport r;
  r.diagnostics = diagnostics_;
  r.ops_checked = op_index_;
  return r;
}

ValidationReport Validator::take() {
  std::lock_guard<std::mutex> lock(diag_mutex_);
  ValidationReport r;
  r.diagnostics = std::move(diagnostics_);
  r.ops_checked = op_index_;
  diagnostics_.clear();
  diag_index_.clear();
  return r;
}

}  // namespace simas::analysis
