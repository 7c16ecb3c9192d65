#include "par/stream.hpp"

#include "par/site_table.hpp"

namespace simas::par {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::Launch: return "launch";
    case OpKind::Reduce: return "reduce";
    case OpKind::ArrayReduce: return "array_reduce";
    case OpKind::Sync: return "sync";
    case OpKind::FusionBreak: return "fusion_break";
    case OpKind::MemHint: return "mem_hint";
  }
  return "?";
}

const char* mem_hint_name(MemHint h) {
  switch (h) {
    case MemHint::PrefetchToDevice: return "prefetch_to_device";
    case MemHint::PrefetchToHost: return "prefetch_to_host";
    case MemHint::AdviseReadMostly: return "advise_read_mostly";
    case MemHint::AdvisePreferredHost: return "advise_preferred_host";
  }
  return "?";
}

OpKind op_kind(const StreamOp& op) {
  switch (op.index()) {
    case 0: return OpKind::Launch;
    case 1: return OpKind::Reduce;
    case 2: return OpKind::ArrayReduce;
    case 3: return OpKind::Sync;
    case 5: return OpKind::MemHint;
    default: return OpKind::FusionBreak;
  }
}

const KernelOp* kernel_payload(const StreamOp& op) {
  if (const auto* l = std::get_if<LaunchOp>(&op)) return l;
  if (const auto* r = std::get_if<ReduceOp>(&op)) return r;
  if (const auto* a = std::get_if<ArrayReduceOp>(&op)) return a;
  return nullptr;
}

const KernelSite* op_site(const StreamOp& op) {
  if (const auto* m = std::get_if<MemHintOp>(&op)) return m->site;
  const KernelOp* k = kernel_payload(op);
  return k ? k->site : nullptr;
}

i64 op_cells(const StreamOp& op) {
  const KernelOp* k = kernel_payload(op);
  return k ? k->cells : 0;
}

bool same_signature(const StreamOp& a, const StreamOp& b) {
  if (op_kind(a) != op_kind(b) || op_site(a) != op_site(b) ||
      op_cells(a) != op_cells(b))
    return false;
  if (const auto* ma = std::get_if<MemHintOp>(&a)) {
    const auto* mb = std::get_if<MemHintOp>(&b);
    return ma->id == mb->id && ma->hint == mb->hint && ma->span == mb->span &&
           ma->bytes == mb->bytes;
  }
  return true;
}

const char* span_name(Span s) {
  switch (s) {
    case Span::Full: return "full";
    case Span::Interior: return "interior";
    case Span::GhostLo: return "ghost_lo";
    case Span::GhostHi: return "ghost_hi";
  }
  return "?";
}

u64 hash_op_signature(u64 h, const StreamOp& op) {
  const auto fold = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  fold(static_cast<u64>(op_kind(op)));
  const KernelSite* site = op_site(op);
  // Site *id*, not pointer: the interning order is deterministic for a
  // fixed code path, while pointer values are not stable across processes.
  fold(site != nullptr ? static_cast<u64>(site->id) + 1 : 0);
  fold(static_cast<u64>(op_cells(op)));
  if (const auto* m = std::get_if<MemHintOp>(&op)) {
    // Hint ops have no cells; fold their own identity so certificates
    // distinguish streams that hint different arrays, spans, or amounts.
    fold(static_cast<u64>(m->hint) + 1);
    fold(static_cast<u64>(m->id) + 1);
    fold(static_cast<u64>(m->span) + 1);
    fold(static_cast<u64>(m->bytes));
  }
  return h;
}

std::vector<KernelSite> stream_sites() {
  return SiteTable::process().all();
}

}  // namespace simas::par
