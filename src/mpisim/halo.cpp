#include "mpisim/halo.hpp"

#include <span>
#include <stdexcept>
#include <string>


namespace simas::mpisim {

namespace {
constexpr int kTagRLo = 101;  // message travelling to the rank below
constexpr int kTagRHi = 102;  // message travelling to the rank above
constexpr int kTagPhi = 103;
// Overlapped exchanges use a disjoint tag range, two tags per slot, so a
// posted exchange can never be matched by a concurrent synchronous one.
constexpr int kTagAsyncBase = 111;

constexpr int async_tag_lo(int slot) { return kTagAsyncBase + 2 * slot; }
constexpr int async_tag_hi(int slot) { return kTagAsyncBase + 2 * slot + 1; }

/// The first `count` elements of a staging buffer: one message payload.
std::span<real> payload(field::Field& buf, i64 count) {
  return {buf.a().data(), static_cast<std::size_t>(count)};
}

using par::SiteKind;
}  // namespace

// Buffers are sized for the largest staggered field (+1 in θ / r); a fixed
// message size per exchange keeps send/recv counts trivially matched.
HaloExchanger::BufferSet::BufferSet(par::Engine& engine,
                                    const std::string& suffix, idx nt, idx np,
                                    int max_fields)
    : send_lo(engine, "halo_send_lo" + suffix, nt + 1, np, max_fields, 0,
              gpusim::ScaleClass::Surface),
      send_hi(engine, "halo_send_hi" + suffix, nt + 1, np, max_fields, 0,
              gpusim::ScaleClass::Surface),
      recv_lo(engine, "halo_recv_lo" + suffix, nt + 1, np, max_fields, 0,
              gpusim::ScaleClass::Surface),
      recv_hi(engine, "halo_recv_hi" + suffix, nt + 1, np, max_fields, 0,
              gpusim::ScaleClass::Surface) {}

void HaloExchanger::BufferSet::enter_data() {
  send_lo.enter_data();
  send_hi.enter_data();
  recv_lo.enter_data();
  recv_hi.enter_data();
}

void HaloExchanger::BufferSet::exit_data() {
  send_lo.exit_data();
  send_hi.exit_data();
  recv_lo.exit_data();
  recv_hi.exit_data();
}

void HaloExchanger::BufferSet::advise_host(par::Engine& engine) {
  for (const field::Field* f : {&send_lo, &send_hi, &recv_lo, &recv_hi})
    engine.mem_advise(f->id(), par::MemHint::AdvisePreferredHost);
}

HaloExchanger::HaloExchanger(par::Engine& engine, Comm& comm, const Slab& slab,
                             idx nloc, idx nt, idx np, int max_fields)
    : engine_(engine),
      comm_(comm),
      slab_(slab),
      nloc_(nloc),
      nt_(nt),
      np_(np),
      max_fields_(max_fields),
      sync_(engine, "", nt, np, max_fields),
      phi_buf_(engine, "halo_phi_buf", nloc + 1, nt + 1, 2 * max_fields, 0,
               gpusim::ScaleClass::Surface),
      bytes_sent_r_(engine.metrics_registry().counter("halo.bytes_sent_r")),
      bytes_sent_phi_(
          engine.metrics_registry().counter("halo.bytes_sent_phi")) {
  // Manual mode: halo buffers live on the device for the whole run so that
  // CUDA-aware MPI can use the P2P path (paper Fig. 4, top).
  sync_.enter_data();
  phi_buf_.enter_data();
  // The overlapped-exchange buffers exist only when the knob is on, so the
  // synchronous baseline keeps bit-identical data-region accounting.
  if (engine_.config().overlap_halo) {
    for (int s = 0; s < kAsyncSlots; ++s) {
      std::optional<BufferSet>& bufs =
          slots_[static_cast<std::size_t>(s)].bufs;
      bufs.emplace(engine, "_a" + std::to_string(s), nt, np, max_fields);
      bufs->enter_data();
    }
  }
  // Unified memory with hints: pin every staging buffer host-side
  // (cudaMemAdviseSetPreferredLocation analog). Pack/unpack kernels then
  // touch the buffers zero-copy over the host link instead of ping-ponging
  // pages, and the MPI layer finds them host-resident — which is what lets
  // Comm::isend overlap the staged copy (staging_overlap_eligible).
  // mem_advise is a no-op unless the engine runs unified memory on a GPU.
  if (engine_.config().um_hints) {
    sync_.advise_host(engine_);
    engine_.mem_advise(phi_buf_.id(), par::MemHint::AdvisePreferredHost);
    for (auto& slot : slots_)
      if (slot.bufs) slot.bufs->advise_host(engine_);
  }
}

HaloExchanger::~HaloExchanger() {
  for (auto& slot : slots_)
    if (slot.bufs) slot.bufs->exit_data();
  sync_.exit_data();
  phi_buf_.exit_data();
}

// Pack boundary planes: i = 0 to the rank below, i = n1-1 to the above.
void HaloExchanger::pack_r(const std::vector<field::Field*>& fields,
                           BufferSet& bufs) {
  static const par::KernelSite& pack_site =
      SIMAS_SITE("halo_pack_r", SiteKind::ParallelLoop, 0);
  field::Field& lo = bufs.send_lo;
  field::Field& hi = bufs.send_hi;
  const int nf = static_cast<int>(fields.size());
  for (int f = 0; f < nf; ++f) {
    field::Field& fld = *fields[static_cast<std::size_t>(f)];
    const idx n1 = fld.a().n1(), n2 = fld.a().n2(), n3 = fld.a().n3();
    if (slab_.rank_below >= 0) {
      engine_.for_each(pack_site, par::Range3{0, n2, 0, n3, f, f + 1},
                       {par::in(fld.id()), par::out(lo.id())},
                       [&](idx j, idx k, idx ff) {
                         lo(j, k, ff) = fld(0, j, k);
                       });
    }
    if (slab_.rank_above >= 0) {
      engine_.for_each(pack_site, par::Range3{0, n2, 0, n3, f, f + 1},
                       {par::in(fld.id()), par::out(hi.id())},
                       [&, n1](idx j, idx k, idx ff) {
                         hi(j, k, ff) = fld(n1 - 1, j, k);
                       });
    }
  }
}

// Unpack into ghost layers i = -1 and i = n1.
void HaloExchanger::unpack_r(const std::vector<field::Field*>& fields,
                             BufferSet& bufs) {
  static const par::KernelSite& unpack_site =
      SIMAS_SITE("halo_unpack_r", SiteKind::ParallelLoop, 0);
  field::Field& lo = bufs.recv_lo;
  field::Field& hi = bufs.recv_hi;
  const int nf = static_cast<int>(fields.size());
  for (int f = 0; f < nf; ++f) {
    field::Field& fld = *fields[static_cast<std::size_t>(f)];
    const idx n1 = fld.a().n1(), n2 = fld.a().n2(), n3 = fld.a().n3();
    if (slab_.rank_below >= 0) {
      engine_.for_each(unpack_site, par::Range3{0, n2, 0, n3, f, f + 1},
                       {par::in(lo.id()), par::out(fld.id())},
                       [&](idx j, idx k, idx ff) {
                         fld(-1, j, k) = lo(j, k, ff);
                       });
    }
    if (slab_.rank_above >= 0) {
      engine_.for_each(unpack_site, par::Range3{0, n2, 0, n3, f, f + 1},
                       {par::in(hi.id()), par::out(fld.id())},
                       [&, n1](idx j, idx k, idx ff) {
                         fld(n1, j, k) = hi(j, k, ff);
                       });
    }
  }
}

void HaloExchanger::post_r(const std::vector<field::Field*>& fields,
                           BufferSet& bufs, int tag_lo, int tag_hi,
                           bool overlap, Request& req_lo, Request& req_hi) {
  const i64 count = static_cast<i64>(nt_ + 1) * np_ *
                    static_cast<i64>(fields.size());
  const i64 msg_bytes = count * static_cast<i64>(sizeof(real));
  const bool below = slab_.rank_below >= 0, above = slab_.rank_above >= 0;
  par::Engine::CategoryScope mpi_scope(engine_, gpusim::TimeCategory::Mpi);

  pack_r(fields, bufs);
  // Ghost-window host prefetch (um_hints): the recv staging buffers are
  // about to be written host-side by MPI — page any device residue out
  // ahead of the exchange so the delivery never faults.
  if (engine_.config().um_hints) {
    if (below)
      engine_.mem_prefetch(bufs.recv_lo.id(), msg_bytes, par::Span::GhostLo,
                           /*to_device=*/false);
    if (above)
      engine_.mem_prefetch(bufs.recv_hi.id(), msg_bytes, par::Span::GhostHi,
                           /*to_device=*/false);
  }

  // Sends are buffered and receives are only posted here (complete_r
  // waits), so no order can deadlock. tag_lo travels to the rank below,
  // tag_hi to the rank above; each send is counted once, by its sender.
  const auto send = overlap ? &Comm::isend : &Comm::send;
  if (below) {
    (comm_.*send)(slab_.rank_below, tag_lo, payload(bufs.send_lo, count),
                  bufs.send_lo.id());
    bytes_sent_r_.add(msg_bytes);
    req_lo = comm_.irecv(slab_.rank_below, tag_hi,
                         payload(bufs.recv_lo, count), bufs.recv_lo.id());
  }
  if (above) {
    (comm_.*send)(slab_.rank_above, tag_hi, payload(bufs.send_hi, count),
                  bufs.send_hi.id());
    bytes_sent_r_.add(msg_bytes);
    req_hi = comm_.irecv(slab_.rank_above, tag_lo,
                         payload(bufs.recv_hi, count), bufs.recv_hi.id());
  }
  if (!overlap) return;

  // Tell the validator/stream-capture which ghost columns are now in
  // flight: kernels touching them before finish_exchange_r race with the
  // unfinished recv.
  for (field::Field* fld : fields) {
    const idx g = fld->a().nghost();
    const int lo_col = below ? static_cast<int>(g - 1) : -1;
    const int hi_col = above ? static_cast<int>(fld->a().n1() + g) : -1;
    engine_.note_halo_begin(fld->id(), fld->a().radial_stride(), lo_col,
                            hi_col);
  }
}

void HaloExchanger::complete_r(const std::vector<field::Field*>& fields,
                               BufferSet& bufs, bool overlap,
                               Request& req_lo, Request& req_hi) {
  par::Engine::CategoryScope mpi_scope(engine_, gpusim::TimeCategory::Mpi);

  comm_.wait(req_lo);
  comm_.wait(req_hi);

  // The data has arrived: clear the in-flight marks before the unpack
  // kernels legitimately write those ghost columns.
  if (overlap)
    for (field::Field* fld : fields) engine_.note_halo_end(fld->id());

  unpack_r(fields, bufs);
  engine_.break_fusion();
}

void HaloExchanger::exchange_r(const std::vector<field::Field*>& fields) {
  const int nf = static_cast<int>(fields.size());
  if (nf == 0) return;
  if (nf > max_fields_)
    throw std::invalid_argument("HaloExchanger: too many fields");
  Request req_lo, req_hi;
  post_r(fields, sync_, kTagRLo, kTagRHi, /*overlap=*/false, req_lo, req_hi);
  complete_r(fields, sync_, /*overlap=*/false, req_lo, req_hi);
}

int HaloExchanger::begin_exchange_r(const std::vector<field::Field*>& fields) {
  const int nf = static_cast<int>(fields.size());
  if (nf == 0 || nf > max_fields_)
    throw std::invalid_argument("HaloExchanger: bad field count");
  if (!engine_.config().overlap_halo)
    throw std::logic_error(
        "HaloExchanger::begin_exchange_r requires EngineConfig::overlap_halo");

  int handle = -1;
  for (int s = 0; s < kAsyncSlots; ++s)
    if (!slots_[static_cast<std::size_t>(s)].active) { handle = s; break; }
  if (handle < 0)
    throw std::logic_error("HaloExchanger: all overlap slots in flight");
  AsyncSlot& slot = slots_[static_cast<std::size_t>(handle)];
  slot.fields = fields;
  slot.active = true;
  post_r(fields, *slot.bufs, async_tag_lo(handle), async_tag_hi(handle),
         /*overlap=*/true, slot.req_lo, slot.req_hi);
  return handle;
}

void HaloExchanger::finish_exchange_r(int handle) {
  if (handle < 0 || handle >= kAsyncSlots)
    throw std::out_of_range("HaloExchanger::finish_exchange_r handle");
  AsyncSlot& slot = slots_[static_cast<std::size_t>(handle)];
  if (!slot.active)
    throw std::logic_error("HaloExchanger: finish without matching begin");
  complete_r(slot.fields, *slot.bufs, /*overlap=*/true, slot.req_lo,
             slot.req_hi);
  slot.fields.clear();
  slot.active = false;
}

void HaloExchanger::wrap_phi(const std::vector<field::Field*>& fields) {
  const int nf = static_cast<int>(fields.size());
  if (nf == 0) return;
  if (nf > max_fields_)
    throw std::invalid_argument("HaloExchanger: too many fields");
  const i64 count = static_cast<i64>(nloc_ + 1) * (nt_ + 1) * 2 * nf;

  static const par::KernelSite& pack_site =
      SIMAS_SITE("halo_pack_phi", SiteKind::ParallelLoop, 0);
  static const par::KernelSite& unpack_site =
      SIMAS_SITE("halo_unpack_phi", SiteKind::ParallelLoop, 0);

  par::Engine::CategoryScope mpi_scope(engine_, gpusim::TimeCategory::Mpi);

  // Pack both wrap planes for all fields: slot 2f   = plane k = n3-1,
  //                                       slot 2f+1 = plane k = 0.
  for (int f = 0; f < nf; ++f) {
    field::Field& fld = *fields[static_cast<std::size_t>(f)];
    const idx n1 = fld.a().n1(), n2 = fld.a().n2(), n3 = fld.a().n3();
    // The pack reads owned radial columns only — safe while the same
    // field's radial ghosts are in flight (overlapped exchange).
    engine_.for_each(pack_site, par::Range3{0, n1, 0, n2, 0, 1},
                     {par::in(fld.id(), par::Span::Interior),
                      par::out(phi_buf_.id())},
                     [&, f, n3](idx i, idx j, idx) {
                       phi_buf_(i, j, 2 * f) = fld(i, j, n3 - 1);
                       phi_buf_(i, j, 2 * f + 1) = fld(i, j, 0);
                     });
  }

  // MAS communicates periodic boundaries through MPI even within one rank;
  // the self-exchange reproduces the 1-GPU MPI fraction of Fig. 3. It is
  // one send like any other: counted once, at the full two-plane payload.
  comm_.send(comm_.rank(), kTagPhi, payload(phi_buf_, count), phi_buf_.id());
  bytes_sent_phi_.add(count * static_cast<i64>(sizeof(real)));
  comm_.recv(comm_.rank(), kTagPhi, payload(phi_buf_, count), phi_buf_.id());

  for (int f = 0; f < nf; ++f) {
    field::Field& fld = *fields[static_cast<std::size_t>(f)];
    const idx n1 = fld.a().n1(), n2 = fld.a().n2(), n3 = fld.a().n3();
    // The unpack writes φ ghosts of owned radial columns — disjoint from
    // any in-flight radial ghost column.
    engine_.for_each(unpack_site, par::Range3{0, n1, 0, n2, 0, 1},
                     {par::in(phi_buf_.id()),
                      par::out(fld.id(), par::Span::Interior)},
                     [&, f, n3](idx i, idx j, idx) {
                       fld(i, j, -1) = phi_buf_(i, j, 2 * f);
                       fld(i, j, n3) = phi_buf_(i, j, 2 * f + 1);
                     });
  }
  engine_.break_fusion();
}

}  // namespace simas::mpisim
