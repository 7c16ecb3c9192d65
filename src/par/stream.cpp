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

namespace {

telemetry::FlightKind flight_kind(OpKind k) {
  switch (k) {
    case OpKind::Launch: return telemetry::FlightKind::Launch;
    case OpKind::Reduce: return telemetry::FlightKind::Reduce;
    case OpKind::ArrayReduce: return telemetry::FlightKind::ArrayReduce;
    case OpKind::Sync: return telemetry::FlightKind::Sync;
    case OpKind::FusionBreak: return telemetry::FlightKind::FusionBreak;
    case OpKind::MemHint: return telemetry::FlightKind::MemHint;
  }
  return telemetry::FlightKind::Sync;
}

telemetry::FlightEvent encode_op(const StreamOp& op) {
  telemetry::FlightEvent e;
  e.kind = flight_kind(op_kind(op));
  const KernelSite* site = op_site(op);
  e.site = site != nullptr ? static_cast<i32>(site->id) : -1;
  if (const KernelOp* k = kernel_payload(op)) {
    e.array = k->accesses.empty() ? -1 : static_cast<i32>(k->accesses[0].id);
    e.payload = k->cells;
  } else if (const auto* h = std::get_if<MemHintOp>(&op)) {
    e.array = static_cast<i32>(h->id);
    e.payload = h->bytes;
    e.detail = static_cast<unsigned char>(h->hint);
  }
  return e;
}

}  // namespace

telemetry::FlightEvent flight_event(const StreamEvent& ev) {
  if (const auto* op = std::get_if<StreamOp>(&ev)) return encode_op(*op);
  telemetry::FlightEvent e;
  if (const auto* d = std::get_if<DataEventRec>(&ev)) {
    e.kind = telemetry::FlightKind::DataEvent;
    e.array = static_cast<i32>(d->id);
    e.detail = static_cast<unsigned char>(d->event);
  } else if (const auto* hb = std::get_if<HaloBeginRec>(&ev)) {
    e.kind = telemetry::FlightKind::HaloBegin;
    e.array = static_cast<i32>(hb->id);
    e.payload = static_cast<i64>(hb->radial_stride);
    e.detail = static_cast<unsigned char>((hb->lo_inflight() ? 1 : 0) |
                                          (hb->hi_inflight() ? 2 : 0));
  } else {
    e.kind = telemetry::FlightKind::HaloEnd;
    e.array = static_cast<i32>(std::get<HaloEndRec>(ev).id);
  }
  return e;
}

std::vector<KernelSite> stream_sites() {
  return SiteTable::process().all();
}

}  // namespace simas::par
