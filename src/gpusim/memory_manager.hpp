#pragma once
// Device memory management for one simulated rank.
//
// Two modes, mirroring the paper's code versions:
//  * Manual  — OpenACC-style data regions: the application issues explicit
//    enter_data / exit_data / update_device / update_host calls. Arrays are
//    device-resident between enter and exit, so CUDA-aware MPI can move them
//    peer-to-peer. Each *call site* of these APIs is what the directive
//    model counts as a data-management directive line.
//  * Unified — NVIDIA unified managed memory: no data calls needed; pages
//    migrate on demand (see UnifiedPages). Host access (MPI staging) drags
//    pages back.
//
// HostOnly is the CPU configuration (Code 0 and the Table III runs): all
// data calls are no-ops and kernels read host memory directly.

#include <string>
#include <unordered_map>
#include <vector>

#include "gpusim/clock_ledger.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/unified_pages.hpp"
#include "util/types.hpp"

namespace simas::gpusim {

enum class MemoryMode { HostOnly, Manual, Unified };

const char* memory_mode_name(MemoryMode m);

using ArrayId = int;
inline constexpr ArrayId kInvalidArray = -1;

struct ArrayRecord {
  ArrayId id = kInvalidArray;
  std::string name;
  i64 bytes = 0;
  ScaleClass scale = ScaleClass::Volume;
  bool derived_type_member = false;
  bool on_device = false;  ///< Manual mode: inside an enter/exit region
};

struct MemoryStats {
  i64 enter_data_calls = 0;
  i64 exit_data_calls = 0;
  i64 update_device_calls = 0;
  i64 update_host_calls = 0;
  i64 manual_h2d_bytes = 0;
  i64 manual_d2h_bytes = 0;
  /// Arrays unregistered while still device-resident: the device copy is
  /// released without a copy-out (nothing left to copy into).
  i64 implicit_releases = 0;
};

/// What exit_data does with the device copy (OpenACC `copyout` vs
/// `delete`). CopyOut charges a D2H transfer; Delete discards the device
/// copy — cheap, but wrong if the device data was never copied back.
enum class ExitPolicy { CopyOut, Delete };

/// Data-management events observable by the kernel-stream validator
/// (analysis/validator.hpp). Events fire for Manual-mode directives and
/// for explicit host/device access notes; they carry no time accounting.
enum class DataEvent {
  EnterData,
  RedundantEnter,      ///< enter_data while already inside a region
  ExitCopyOut,
  ExitDelete,
  ExitOutsideRegion,   ///< exit_data without a matching enter
  UpdateDevice,
  UpdateDeviceOutsideRegion,
  UpdateHost,
  UpdateHostOutsideRegion,
  UnregisterInRegion,  ///< storage freed while device-resident
  HostRead,
  HostWrite,
  DeviceRead,
  DeviceWrite,
};

class MemoryObserver {
 public:
  virtual ~MemoryObserver() = default;
  virtual void on_data_event(DataEvent ev, ArrayId id) = 0;
};

class MemoryManager {
 public:
  MemoryManager(MemoryMode mode, CostModel* cost, ClockLedger* ledger);

  MemoryMode mode() const { return mode_; }
  bool unified() const { return mode_ == MemoryMode::Unified; }

  ArrayId register_array(std::string name, i64 bytes,
                         ScaleClass scale = ScaleClass::Volume,
                         bool derived_type_member = false);
  void unregister_array(ArrayId id);

  /// The observer (the Engine's, which feeds the flight recorder, the
  /// stream capture and the validator) is notified of every data
  /// directive and access note. Pass nullptr to detach.
  void set_observer(MemoryObserver* obs) { observer_ = obs; }

  // ---- Manual-mode data directives (no-ops under Unified / HostOnly) ----
  void enter_data(ArrayId id, TimeCategory cat = TimeCategory::DataMotion);
  void exit_data(ArrayId id, TimeCategory cat = TimeCategory::DataMotion);
  void exit_data(ArrayId id, ExitPolicy policy,
                 TimeCategory cat = TimeCategory::DataMotion);
  void update_device(ArrayId id, TimeCategory cat = TimeCategory::DataMotion);
  void update_host(ArrayId id, TimeCategory cat = TimeCategory::DataMotion);

  // ---- Validator-only access notes (no time accounted) ----
  // Host-side I/O (checkpointing) and the MPI layer report which side of
  // the fence they touch an array from, so the coherence checker can see
  // reads of stale copies that would silently corrupt a real GPU run.
  void note_host_read(ArrayId id) { notify(DataEvent::HostRead, id); }
  void note_host_write(ArrayId id) { notify(DataEvent::HostWrite, id); }
  void note_device_read(ArrayId id) { notify(DataEvent::DeviceRead, id); }
  void note_device_write(ArrayId id) { notify(DataEvent::DeviceWrite, id); }

  // ---- Access notifications (issued by the Engine / MPI layer) ----
  /// A device kernel touches `bytes` of the array. Under Unified this may
  /// migrate pages (accounted to `cat`), or stream the bytes over the link
  /// in place when the array is PreferredHost-pinned. `write` drives
  /// read-duplication invalidation. Returns migrated logical bytes.
  i64 on_device_access(ArrayId id, i64 bytes, TimeCategory cat,
                       bool write = false);
  /// Host code (MPI staging) touches `bytes`. Under Unified this pages the
  /// data out of the device. Returns migrated logical bytes.
  i64 on_host_access(ArrayId id, i64 bytes, TimeCategory cat,
                     bool write = false);

  // ---- Modeled UM hints (no-ops unless Unified) ----
  /// cudaMemPrefetchAsync analogue: bulk-move `bytes` of the array toward
  /// the device (or host) ahead of demand, charged at the batched prefetch
  /// rate (host-link latency once, no per-page fault service). Returns the
  /// bytes actually moved.
  i64 mem_prefetch(ArrayId id, i64 bytes, bool to_device, TimeCategory cat);
  /// cudaMemAdvise analogue. PreferredHost pages any device-resident bytes
  /// out at the prefetch rate.
  i64 mem_advise(ArrayId id, UmAdvise adv,
                 TimeCategory cat = TimeCategory::DataMotion);

  /// True if the array's pages are pinned host-side (PreferredHost advise).
  bool host_pinned(ArrayId id) const;
  /// True if a non-CUDA-aware MPI send/recv of this buffer needs no page
  /// fault service (host-pinned and nothing device-resident): the DMA can
  /// run on the copy stream like a CUDA-aware transfer would.
  bool staging_overlap_eligible(ArrayId id) const;

  /// True if MPI can transfer this array device-to-device without staging
  /// (CUDA-aware MPI with a device-resident buffer).
  bool device_direct_eligible(ArrayId id) const;

  const ArrayRecord& record(ArrayId id) const;
  const MemoryStats& stats() const { return stats_; }
  const UmStats& um_stats() const { return um_.stats(); }
  const UnifiedPages& um_pages() const { return um_; }
  std::vector<ArrayRecord> arrays() const;

 private:
  ArrayRecord& rec(ArrayId id);
  void notify(DataEvent ev, ArrayId id) {
    if (observer_ != nullptr) observer_->on_data_event(ev, id);
  }

  MemoryMode mode_;
  CostModel* cost_;
  ClockLedger* ledger_;
  UnifiedPages um_;
  std::unordered_map<ArrayId, ArrayRecord> arrays_;
  ArrayId next_id_ = 0;
  MemoryStats stats_;
  MemoryObserver* observer_ = nullptr;
};

}  // namespace simas::gpusim
