#include "analysis/static_verifier.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace simas::analysis {

namespace {

const par::KernelOp* kernel_payload(const par::StreamOp& op) {
  if (const auto* l = std::get_if<par::LaunchOp>(&op)) return l;
  if (const auto* r = std::get_if<par::ReduceOp>(&op)) return r;
  if (const auto* a = std::get_if<par::ArrayReduceOp>(&op)) return a;
  return nullptr;
}

/// Does a prefetched span cover a subsequently accessed span? Spans are
/// coarse radial classes, so coverage is exact-match-or-Full: a Full
/// prefetch covers everything, and any span trivially covers itself.
/// Everything else leaves uncovered pages that still demand-fault.
bool span_covers(par::Span prefetched, par::Span accessed) {
  return prefetched == par::Span::Full || prefetched == accessed;
}

/// Does a declared span cover any radial ghost column currently posted?
bool span_hits_inflight(par::Span s, bool lo, bool hi) {
  switch (s) {
    case par::Span::Full: return lo || hi;
    case par::Span::GhostLo: return lo;
    case par::Span::GhostHi: return hi;
    case par::Span::Interior: return false;
  }
  return false;
}

/// Per-array digest of one op's access list: an AccessList may carry
/// separate in(f)/out(f) entries for the same array, so purity (pure read
/// vs pure write) is a property of the folded entry, not of one Access.
struct FoldedAccess {
  gpusim::ArrayId id = gpusim::kInvalidArray;
  bool read = false;
  bool write = false;
  bool scatter = false;
  par::Span read_span = par::Span::Full;
  par::Span write_span = par::Span::Full;
};

std::vector<FoldedAccess> fold_accesses(const par::AccessList& accesses) {
  std::vector<FoldedAccess> out;
  for (const par::Access& a : accesses) {
    FoldedAccess* f = nullptr;
    for (FoldedAccess& e : out)
      if (e.id == a.id) { f = &e; break; }
    if (f == nullptr) {
      out.push_back(FoldedAccess{a.id, false, false, false, a.span, a.span});
      f = &out.back();
    }
    if (a.write) {
      f->write = true;
      f->write_span = a.span;
      f->scatter = f->scatter || a.scatter;
    } else {
      f->read = true;
      f->read_span = a.span;
    }
  }
  return out;
}

class Pass {
 public:
  Pass(const StreamCapture& capture, const StaticModel& model)
      : capture_(capture),
        policy_(model.policy),
        manual_gpu_(model.memory == gpusim::MemoryMode::Manual && model.gpu),
        unified_gpu_(model.memory == gpusim::MemoryMode::Unified &&
                     model.gpu),
        chain_(policy_.fuse) {}

  ValidationReport run() {
    for (const StreamEvent& ev : capture_.events()) {
      if (const auto* op = std::get_if<par::StreamOp>(&ev)) {
        on_op(*op);
      } else if (const auto* de = std::get_if<DataEventRec>(&ev)) {
        on_data_event(*de);
      } else if (const auto* hb = std::get_if<HaloBeginRec>(&ev)) {
        ArrState& st = state_for(hb->id);
        st.inflight = true;
        st.inflight_lo = hb->lo_inflight;
        st.inflight_hi = hb->hi_inflight;
      } else if (const auto* he = std::get_if<HaloEndRec>(&ev)) {
        ArrState& st = state_for(he->id);
        st.inflight = false;
        st.inflight_lo = st.inflight_hi = false;
      }
    }
    ValidationReport r;
    r.diagnostics = std::move(diagnostics_);
    r.ops_checked = op_index_;
    return r;
  }

 private:
  struct ArrState {
    bool on_device = false;
    bool host_dirty = false;
    bool device_dirty = false;
    bool pending_async = false;
    bool inflight = false;
    bool inflight_lo = false;
    bool inflight_hi = false;
    // -- Unified-memory hint state (Unified mode only) --
    bool preferred_host = false;   ///< advised AdvisePreferredHost
    bool prefetch_pending = false; ///< device prefetch not yet consumed
    par::Span prefetch_span = par::Span::Full;
    bool paged_to_host = false;    ///< last residency hint was host-ward
  };

  /// An array pure-written by an earlier kernel of the open fusion chain.
  struct ChainWrite {
    gpusim::ArrayId id;
    par::Span span;
  };

  ArrState& state_for(gpusim::ArrayId id) { return arrays_[id]; }

  void end_chain() {
    chain_.reset();
    chain_written_.clear();
  }

  void drain_async_queue() {
    for (auto& [id, st] : arrays_) st.pending_async = false;
  }

  /// `demoted` drops the finding to an Info note: used when the modeled
  /// toolchain ignores the hint class, so the hazard the check describes
  /// cannot cost anything under this personality.
  void diagnose(Check check, const std::string& site,
                const std::string& array, std::string message,
                std::string location = {}, bool demoted = false) {
    std::string key =
        std::string(check_name(check)) + '|' + site + '|' + array;
    const auto it = diag_index_.find(key);
    if (it != diag_index_.end()) {
      diagnostics_[it->second].count++;
      return;
    }
    Diagnostic d;
    d.check = check;
    d.severity = demoted ? Severity::Info : check_severity(check);
    d.site = site;
    d.array = array;
    d.location = std::move(location);
    d.op_index = op_index_;
    d.message = std::move(message);
    diag_index_.emplace(std::move(key), diagnostics_.size());
    diagnostics_.push_back(std::move(d));
  }

  void on_op(const par::StreamOp& op) {
    ++op_index_;
    const par::OpKind kind = par::op_kind(op);

    if (kind == par::OpKind::Sync || kind == par::OpKind::FusionBreak) {
      // Mirror the runtime validator: both drain the single async queue
      // (every modeled MPI entry point captures its payload synchronously
      // behind a FusionBreakOp) and end the open fusion chain.
      drain_async_queue();
      end_chain();
      return;
    }

    if (kind == par::OpKind::MemHint) {
      // Hints have no body and never break fusion chains; they only move
      // the per-array residency-hint state the checks below consume.
      const auto& mh = std::get<par::MemHintOp>(op);
      ArrState& st = state_for(mh.id);
      switch (mh.hint) {
        case par::MemHint::PrefetchToDevice:
          st.prefetch_pending = true;
          st.prefetch_span = mh.span;
          st.paged_to_host = false;
          break;
        case par::MemHint::PrefetchToHost:
          st.prefetch_pending = false;
          st.paged_to_host = true;
          break;
        case par::MemHint::AdviseReadMostly:
          break;
        case par::MemHint::AdvisePreferredHost:
          // Pinned host-side: device touches become zero-copy remote
          // accesses, so "evicted" residency is the intended state. A
          // toolchain that ignores advise leaves the array unpinned — the
          // hint grants no exemption there.
          if (policy_.honors_mem_advise) {
            st.preferred_host = true;
            st.prefetch_pending = false;
            st.paged_to_host = false;
          }
          break;
      }
      return;
    }

    const par::KernelOp& ko = *kernel_payload(op);
    const std::string& site = ko.site->name;
    std::string loc = ko.site->location();
    const std::vector<FoldedAccess> folded = fold_accesses(ko.accesses);

    bool fused = false;
    if (kind == par::OpKind::Launch) {
      fused = chain_.launch(ko.site->fusion_group);
      if (!fused) chain_written_.clear();
    } else {
      // Reductions are synchronous under every model: they end the chain
      // and drain the async queue before the host consumes the result.
      end_chain();
      if (policy_.async_launch(*ko.site)) {
        diagnose(Check::AsyncReductionNoWait, site, {},
                 "reduction result is consumed on the host immediately, but "
                 "the site is declared async-capable: under async launches "
                 "the host would read the result before the kernel finished; "
                 "mark the site async_capable=false or device_sync first",
                 loc);
      }
      drain_async_queue();
    }

    const bool launch_async =
        kind == par::OpKind::Launch && policy_.async_launch(*ko.site);

    for (const FoldedAccess& a : folded) {
      // DC-legality: a scatter-declared write means several unordered
      // iterations may target one element — illegal in a plain parallel
      // loop (`do concurrent` forbids it; OpenACC races without atomic).
      // Atomic-update and reduction site kinds carry the protection the
      // declaration calls for.
      if (kind == par::OpKind::Launch && a.write && a.scatter &&
          ko.site->kind != par::SiteKind::AtomicUpdate &&
          ko.site->kind != par::SiteKind::ArrayReduction) {
        diagnose(Check::DuplicateWrite, site, capture_.array_name(a.id),
                 "declared scatter write in a plain parallel loop: several "
                 "iterations may write one element, which is not legal "
                 "`do concurrent` — use an atomic/reduction site kind or "
                 "restructure the loop",
                 loc);
      }

      // Fused-chain races, from declared spans: an array pure-written by
      // an earlier kernel of this chain that this kernel pure-writes
      // (WAW) or pure-reads (RAW) on an overlapping span would race once
      // the chain fuses into one launch.
      if (fused && (a.write != a.read)) {
        for (const ChainWrite& cw : chain_written_) {
          if (cw.id != a.id) continue;
          const par::Span mine = a.write ? a.write_span : a.read_span;
          if (!par::spans_overlap(cw.span, mine)) continue;
          diagnose(Check::FusedConflict, site, capture_.array_name(a.id),
                   a.write
                       ? "declared write overlaps an array written by an "
                         "earlier kernel of the same ACC fusion group: "
                         "fusing them into one launch makes the write "
                         "order undefined (WAW race)"
                       : "declared read overlaps an array written by an "
                         "earlier kernel of the same ACC fusion group: "
                         "fusing them into one launch makes the read race "
                         "the producer (RAW race)",
                   loc);
          break;
        }
      }

      // Unified-memory hint correctness. Every kernel access is a device
      // access, so it consumes the array's pending residency hints: a
      // device prefetch whose span does not cover this access left the
      // uncovered pages to demand-fault (the hint silently bought
      // nothing), and an access after a host-ward prefetch with no
      // re-prefetch demand-migrates the whole footprint back (ping-pong).
      // PreferredHost-advised arrays are exempt from the latter: their
      // device touches are intended zero-copy remote accesses.
      if (unified_gpu_) {
        ArrState& hs = state_for(a.id);
        if (hs.prefetch_pending) {
          bool covered = true;
          if (a.read) covered = span_covers(hs.prefetch_span, a.read_span);
          if (a.write)
            covered =
                covered && span_covers(hs.prefetch_span, a.write_span);
          if (!covered) {
            diagnose(Check::PrefetchSpanMismatch, site,
                     capture_.array_name(a.id),
                     policy_.honors_mem_prefetch
                         ? "device prefetch span does not cover this "
                           "kernel's declared access span: the uncovered "
                           "pages still demand-fault, so the prefetch hides "
                           "nothing — widen the prefetch span or match it "
                           "to the access"
                         : "device prefetch span does not cover this "
                           "kernel's declared access span (note: the "
                           "modeled toolchain ignores prefetch hints, so "
                           "the hint is inert and the mismatch costs "
                           "nothing here — fix it for toolchains that "
                           "honor it)",
                     loc, /*demoted=*/!policy_.honors_mem_prefetch);
          }
          hs.prefetch_pending = false;
        } else if (hs.paged_to_host && !hs.preferred_host) {
          diagnose(Check::UseAfterEvict, site, capture_.array_name(a.id),
                   policy_.honors_mem_prefetch
                       ? "kernel accesses an array prefetched to the host "
                         "with no intervening device prefetch: every touch "
                         "is a fresh demand migration back (ping-pong) — "
                         "re-prefetch to the device before the launch, or "
                         "advise preferred-host if zero-copy access is "
                         "intended"
                       : "kernel accesses an array prefetched to the host "
                         "with no intervening device prefetch (note: the "
                         "modeled toolchain ignores prefetch hints, so no "
                         "eviction happened and no ping-pong occurs here — "
                         "fix it for toolchains that honor it)",
                   loc, /*demoted=*/!policy_.honors_mem_prefetch);
        }
        // Either way the demand touch re-establishes device residency.
        hs.paged_to_host = false;
      }

      // In-flight ghost regions: any declared access whose radial span
      // covers a posted-but-unfinished ghost column races the recv.
      const ArrState& st = arrays_[a.id];
      if (st.inflight) {
        const bool hits =
            (a.read &&
             span_hits_inflight(a.read_span, st.inflight_lo,
                                st.inflight_hi)) ||
            (a.write &&
             span_hits_inflight(a.write_span, st.inflight_lo,
                                st.inflight_hi));
        if (hits) {
          diagnose(Check::InflightGhostRead, site, capture_.array_name(a.id),
                   "declared span covers a radial ghost column whose "
                   "nonblocking halo exchange is still in flight: finish "
                   "the exchange first, or declare an interior span if the "
                   "kernel never touches the ghost columns",
                   loc);
        }
      }
    }

    // Manual-mode coherence machine (mirrors Validator::on_op).
    if (manual_gpu_) {
      for (const par::Access& a : ko.accesses) {
        ArrState& st = state_for(a.id);
        if (!st.on_device) {
          diagnose(Check::KernelOutsideRegion, site,
                   capture_.array_name(a.id),
                   "kernel accesses an array outside any data region: the "
                   "compiler would add an implicit per-kernel copy (correct "
                   "but slow) — wrap it in enter_data/exit_data",
                   loc);
          continue;
        }
        if (a.write) {
          st.device_dirty = true;
          if (launch_async) st.pending_async = true;
        } else if (st.host_dirty) {
          diagnose(Check::StaleDeviceRead, site, capture_.array_name(a.id),
                   "device kernel reads an array whose host copy was "
                   "modified after the last update_device: the device sees "
                   "stale data",
                   loc);
        }
      }
    }

    // Open the chain to this kernel's pure writes (mirrors the runtime
    // validator's body_end bookkeeping, with declaration standing in for
    // the observed touch).
    if (kind == par::OpKind::Launch) {
      for (const FoldedAccess& a : folded) {
        if (!a.write || a.read) continue;
        const bool seen =
            std::any_of(chain_written_.begin(), chain_written_.end(),
                        [&](const ChainWrite& cw) { return cw.id == a.id; });
        if (!seen) chain_written_.push_back(ChainWrite{a.id, a.write_span});
      }
    }
  }

  void on_data_event(const DataEventRec& rec) {
    using gpusim::DataEvent;
    ArrState& st = state_for(rec.id);
    const std::string& name = capture_.array_name(rec.id);
    switch (rec.event) {
      case DataEvent::EnterData:
        st.on_device = true;
        st.host_dirty = false;
        st.device_dirty = false;
        break;
      case DataEvent::RedundantEnter:
        diagnose(Check::UnbalancedDataRegion, "enter_data", name,
                 "enter_data on an array already inside a data region "
                 "(unbalanced enter/exit pairs)");
        break;
      case DataEvent::ExitCopyOut:
        if (st.pending_async) {
          diagnose(Check::AsyncHostAccessNoSync, "exit_data", name,
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
          diagnose(Check::DiscardedDeviceWrites, "exit_data", name,
                   "exit_data(Delete) discards device writes that were "
                   "never copied back to the host");
        }
        st.on_device = false;
        st.device_dirty = false;
        st.pending_async = false;
        break;
      case DataEvent::ExitOutsideRegion:
        diagnose(Check::UnbalancedDataRegion, "exit_data", name,
                 "exit_data without a matching enter_data (double exit?)");
        break;
      case DataEvent::UpdateDevice:
        st.host_dirty = false;
        break;
      case DataEvent::UpdateDeviceOutsideRegion:
        diagnose(Check::UnbalancedDataRegion, "update_device", name,
                 "update_device outside a data region: the array is not "
                 "present on the device");
        break;
      case DataEvent::UpdateHost:
        if (st.pending_async) {
          diagnose(Check::AsyncHostAccessNoSync, "update_host", name,
                   "update_host pulls data while async device writes are "
                   "still in flight on the queue: device_sync first (the "
                   "Sec. IV reduction/IO-before-wait bug)");
          st.pending_async = false;
        }
        st.device_dirty = false;
        break;
      case DataEvent::UpdateHostOutsideRegion:
        diagnose(Check::UnbalancedDataRegion, "update_host", name,
                 "update_host outside a data region: the array is not "
                 "present on the device");
        break;
      case DataEvent::UnregisterInRegion:
        if (st.device_dirty) {
          diagnose(Check::DiscardedDeviceWrites, "unregister_array", name,
                   "array storage freed while its device copy held writes "
                   "never copied back to the host");
        }
        diagnose(Check::UnbalancedDataRegion, "unregister_array", name,
                 "array storage freed while still device-resident: the data "
                 "region was never exited (implicit release)");
        st.on_device = false;
        st.device_dirty = false;
        st.pending_async = false;
        break;
      case DataEvent::HostRead:
        if (st.on_device && st.device_dirty) {
          diagnose(Check::StaleHostRead, "host-read", name,
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
          diagnose(Check::StaleDeviceRead, "device-read", name,
                   "device-side transfer reads an array whose host copy was "
                   "modified after the last update_device");
        }
        break;
      case DataEvent::DeviceWrite:
        if (st.on_device) st.device_dirty = true;
        break;
    }
  }

  const StreamCapture& capture_;
  const par::LoweringPolicy policy_;
  const bool manual_gpu_;
  const bool unified_gpu_;

  std::unordered_map<gpusim::ArrayId, ArrState> arrays_;
  par::FusionChain chain_;
  std::vector<ChainWrite> chain_written_;
  i64 op_index_ = 0;

  std::unordered_map<std::string, std::size_t> diag_index_;
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace

ValidationReport verify_stream(const StreamCapture& capture,
                               const StaticModel& model) {
  return Pass(capture, model).run();
}

}  // namespace simas::analysis
