#include "analysis/static_verifier.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace simas::analysis {

namespace {

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
        unified_gpu_(model.memory == gpusim::MemoryMode::Unified &&
                     model.gpu),
        checker_(model, [&capture](gpusim::ArrayId id) -> const std::string& {
          return capture.array_name(id);
        }) {}

  ValidationReport run() {
    for (const par::StreamEvent& ev : capture_.events()) {
      if (const auto* op = std::get_if<par::StreamOp>(&ev)) {
        on_op(*op);
      } else if (const auto* de = std::get_if<par::DataEventRec>(&ev)) {
        checker_.on_data_event(de->event, de->id);
      } else if (const auto* hb = std::get_if<par::HaloBeginRec>(&ev)) {
        ArrState& st = state_for(hb->id);
        st.inflight = true;
        st.inflight_lo = hb->lo_inflight();
        st.inflight_hi = hb->hi_inflight();
      } else if (const auto* he = std::get_if<par::HaloEndRec>(&ev)) {
        ArrState& st = state_for(he->id);
        st.inflight = false;
        st.inflight_lo = st.inflight_hi = false;
      }
    }
    return checker_.take();
  }

 private:
  struct ArrState {
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

  void on_mem_hint(const par::MemHintOp& mh) {
    // Hints have no body and never break fusion chains; they only move
    // the per-array residency-hint state the checks below consume.
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
        if (checker_.policy().honors_mem_advise) {
          st.preferred_host = true;
          st.prefetch_pending = false;
          st.paged_to_host = false;
        }
        break;
    }
  }

  void on_op(const par::StreamOp& op) {
    const OpChecker::Step step = checker_.step(op);
    if (step.new_chain) chain_written_.clear();
    if (const auto* mh = std::get_if<par::MemHintOp>(&op)) on_mem_hint(*mh);
    if (step.kernel == nullptr) return;

    const par::KernelOp& ko = *step.kernel;
    const par::KernelSite* site = ko.site;
    const bool launch = std::holds_alternative<par::LaunchOp>(op);
    // Only a launch can join the open chain; a reduction always ends it.
    const bool fused = !step.new_chain;
    const par::LoweringPolicy& policy = checker_.policy();
    const std::vector<FoldedAccess> folded = fold_accesses(ko.accesses);

    for (const FoldedAccess& a : folded) {
      const std::string& name = capture_.array_name(a.id);
      // DC-legality: a scatter-declared write means several unordered
      // iterations may target one element — illegal in a plain parallel
      // loop (`do concurrent` forbids it; OpenACC races without atomic).
      // Atomic-update and reduction site kinds carry the protection the
      // declaration calls for.
      if (launch && a.write && a.scatter &&
          site->kind != par::SiteKind::AtomicUpdate &&
          site->kind != par::SiteKind::ArrayReduction) {
        checker_.note(Check::DuplicateWrite, site->name, name,
                      "declared scatter write in a plain parallel loop: "
                      "several iterations may write one element, which is "
                      "not legal `do concurrent` — use an atomic/reduction "
                      "site kind or restructure the loop",
                      site);
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
          checker_.note(
              Check::FusedConflict, site->name, name,
              a.write ? "declared write overlaps an array written by an "
                        "earlier kernel of the same ACC fusion group: "
                        "fusing them into one launch makes the write "
                        "order undefined (WAW race)"
                      : "declared read overlaps an array written by an "
                        "earlier kernel of the same ACC fusion group: "
                        "fusing them into one launch makes the read race "
                        "the producer (RAW race)",
              site);
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
      // device touches are intended zero-copy remote accesses. A
      // toolchain that ignores prefetch hints demotes both to notes.
      if (unified_gpu_) {
        ArrState& hs = state_for(a.id);
        if (hs.prefetch_pending) {
          bool covered = true;
          if (a.read) covered = span_covers(hs.prefetch_span, a.read_span);
          if (a.write)
            covered =
                covered && span_covers(hs.prefetch_span, a.write_span);
          if (!covered) {
            checker_.note(
                Check::PrefetchSpanMismatch, site->name, name,
                policy.honors_mem_prefetch
                    ? "device prefetch span does not cover this kernel's "
                      "declared access span: the uncovered pages still "
                      "demand-fault, so the prefetch hides nothing — widen "
                      "the prefetch span or match it to the access"
                    : "device prefetch span does not cover this kernel's "
                      "declared access span (note: the modeled toolchain "
                      "ignores prefetch hints, so the hint is inert and the "
                      "mismatch costs nothing here — fix it for toolchains "
                      "that honor it)",
                site, /*demoted=*/!policy.honors_mem_prefetch);
          }
          hs.prefetch_pending = false;
        } else if (hs.paged_to_host && !hs.preferred_host) {
          checker_.note(
              Check::UseAfterEvict, site->name, name,
              policy.honors_mem_prefetch
                  ? "kernel accesses an array prefetched to the host with "
                    "no intervening device prefetch: every touch is a fresh "
                    "demand migration back (ping-pong) — re-prefetch to the "
                    "device before the launch, or advise preferred-host if "
                    "zero-copy access is intended"
                  : "kernel accesses an array prefetched to the host with "
                    "no intervening device prefetch (note: the modeled "
                    "toolchain ignores prefetch hints, so no eviction "
                    "happened and no ping-pong occurs here — fix it for "
                    "toolchains that honor it)",
              site, /*demoted=*/!policy.honors_mem_prefetch);
        }
        // Either way the demand touch re-establishes device residency.
        hs.paged_to_host = false;
      }

      // In-flight ghost regions: any declared access whose radial span
      // covers a posted-but-unfinished ghost column races the recv.
      const ArrState& st = state_for(a.id);
      if (st.inflight &&
          ((a.read && span_hits_inflight(a.read_span, st.inflight_lo,
                                         st.inflight_hi)) ||
           (a.write && span_hits_inflight(a.write_span, st.inflight_lo,
                                          st.inflight_hi)))) {
        checker_.note(Check::InflightGhostRead, site->name, name,
                      "declared span covers a radial ghost column whose "
                      "nonblocking halo exchange is still in flight: finish "
                      "the exchange first, or declare an interior span if "
                      "the kernel never touches the ghost columns",
                      site);
      }
    }

    checker_.check_coherence(ko);

    // Open the chain to this kernel's pure writes: the runtime validator
    // records the same list from observed touches, this pass from the
    // declarations.
    if (launch) {
      for (const FoldedAccess& a : folded) {
        if (!a.write || a.read) continue;
        const bool seen =
            std::any_of(chain_written_.begin(), chain_written_.end(),
                        [&](const ChainWrite& cw) { return cw.id == a.id; });
        if (!seen) chain_written_.push_back(ChainWrite{a.id, a.write_span});
      }
    }
  }

  const StreamCapture& capture_;
  const bool unified_gpu_;
  OpChecker checker_;
  std::unordered_map<gpusim::ArrayId, ArrState> arrays_;
  std::vector<ChainWrite> chain_written_;
};

}  // namespace

ValidationReport verify_stream(const StreamCapture& capture,
                               const StaticModel& model) {
  return Pass(capture, model).run();
}

}  // namespace simas::analysis
