#include "analysis/validator.hpp"

#include <algorithm>

namespace simas::analysis {

Validator::Validator(const par::EngineConfig& cfg, gpusim::MemoryManager& mem)
    : mem_(mem),
      checker_(StaticModel::from(cfg),
               [this](gpusim::ArrayId id) -> const std::string& {
                 return state_for(id).name;
               }) {}

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

void Validator::on_event(const par::StreamEvent& ev) {
  if (const auto* op = std::get_if<par::StreamOp>(&ev)) {
    on_op(*op);
  } else if (const auto* d = std::get_if<par::DataEventRec>(&ev)) {
    checker_.on_data_event(d->event, d->id);
#ifdef SIMAS_ELEMENT_SHADOW
  } else if (const auto* hb = std::get_if<par::HaloBeginRec>(&ev)) {
    begin_inflight_recv(*hb);
  } else {
    end_inflight_recv(std::get<par::HaloEndRec>(ev).id);
#endif
  }
}

ValidationReport Validator::take() {
#ifndef SIMAS_ELEMENT_SHADOW
  checker_.note(Check::ElementChecksUnavailable, "validator", {},
                "element checks did not run: undeclared-access, "
                "declared-write-not-touched and element-exact "
                "duplicate-write, fused-conflict and inflight-ghost-read "
                "need the checked build (link simas_checked, or compile "
                "with -DSIMAS_ELEMENT_SHADOW)");
#endif
  return checker_.take();
}

#ifndef SIMAS_ELEMENT_SHADOW

// Production build: op-level checks only. No kernel body is observed.
void Validator::on_op(const par::StreamOp& op) {
  const OpChecker::Step step = checker_.step(op);
  if (step.kernel != nullptr) checker_.check_coherence(*step.kernel);
}

#else  // SIMAS_ELEMENT_SHADOW

namespace {

// Element-tag layout: [chain_id:24][op_slot:8][iteration+1:32]. The chain
// id identifies one ACC fusion chain (or one kernel, under the DC models);
// the op slot orders kernels within a chain; the iteration distinguishes
// loop iterations within a kernel.
constexpr u64 chain_of(u64 tag) { return tag >> 40; }
constexpr u64 slot_of(u64 tag) { return (tag >> 32) & 0xffu; }

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

const std::string& Validator::shadow_name(const ShadowSlot& slot) const {
  static const std::string none;
  const auto it = arrays_.find(slot.array_id_);
  return it == arrays_.end() ? none : it->second.name;
}

void Validator::on_op(const par::StreamOp& op) {
  const OpChecker::Step step = checker_.step(op);
  if (step.new_chain) chain_written_.clear();
  if (step.kernel == nullptr) {
    pending_.valid = false;
    return;
  }
  const par::KernelOp& ko = *step.kernel;
  checker_.check_coherence(ko);

  // Remember the op whose body executes next (access-list verification).
  pending_.site = ko.site;
  pending_.kind = par::op_kind(op);
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
  const u64 chain_tag = ((checker_.chain_id() & 0xffffffu) << 40) |
                        ((checker_.chain_slot() & 0xffu) << 32);
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
      checker_.note(Check::UndeclaredAccess, pending_.site->name, st.name,
                    "kernel body touched an array missing from its Access "
                    "list: a `default(present)` region would fault and the "
                    "traffic model undercounts (the Sec. IV missing-data-"
                    "clause bug)");
    }
    if (!touched && declared_w) {
      checker_.note(Check::DeclaredWriteNotTouched, pending_.site->name,
                    st.name,
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
  if (slot_of(prev_tag) == slot_of(new_tag)) {
    checker_.note(Check::DuplicateWrite, pending_.site->name,
                  shadow_name(slot),
                  "two iterations of one parallel loop wrote the same "
                  "element: the loop is not legal `do concurrent` "
                  "(unordered iterations race on the element)",
                  pending_.site);
  } else {
    checker_.note(Check::FusedConflict, pending_.site->name,
                  shadow_name(slot),
                  "element written by an earlier kernel of the same ACC "
                  "fusion group is touched again by this kernel: fusing "
                  "them into one launch introduces a race",
                  pending_.site);
  }
}

void Validator::report_inflight(const ShadowSlot& slot) {
  checker_.note(Check::InflightGhostRead, pending_.site->name,
                shadow_name(slot),
                "kernel touches a radial ghost plane whose nonblocking halo "
                "exchange is still in flight: the unpack has not run, so "
                "the value read races with the unfinished recv — finish the "
                "exchange first, or restrict the kernel to the interior",
                pending_.site);
}

void Validator::begin_inflight_recv(const par::HaloBeginRec& rec) {
  ArrayState& st = state_for(rec.id);
  if (!st.slot) return;
  ShadowSlot& s = *st.slot;
  s.inflight_stride_ = rec.radial_stride;
  s.inflight_lo_ = rec.lo_column;
  s.inflight_hi_ = rec.hi_column;
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

#endif  // SIMAS_ELEMENT_SHADOW

}  // namespace simas::analysis
