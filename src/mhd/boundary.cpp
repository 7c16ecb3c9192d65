#include "mhd/ops.hpp"

namespace simas::mhd {

using par::SiteKind;

namespace {

/// θ-wall ghosts for a cell-centered field: mirror symmetry, with an odd
/// sign for the θ-normal velocity component (reflecting wall).
void theta_wall_ghosts(MhdContext& c, field::Field& f, real sign) {
  static const par::KernelSite& site =
      SIMAS_SITE("bc_theta_wall_center", SiteKind::ParallelLoop, 11,
                 false, false, true, /*surface_scaled=*/true);
  const idx n1 = f.a().n1(), nt = f.a().n2(), np = f.a().n3();
  // Reads/writes radially owned columns only (θ ghosts live inside them).
  c.eng.for_each(site, par::Range3{0, n1, 0, np, 0, 1},
                 {par::in(f.id(), par::Span::Interior),
                  par::out(f.id(), par::Span::Interior)},
                 [&, sign, nt](idx i, idx k, idx) {
                   f(i, -1, k) = sign * f(i, 0, k);
                   f(i, nt, k) = sign * f(i, nt - 1, k);
                 });
}

/// True when the overlapped-exchange path is active on this rank:
/// overlap_halo is set, the rank has at least one radial neighbour, and
/// the slab is thick enough for an interior/boundary split.
bool overlap_active(const MhdContext& c) {
  if (!c.eng.config().overlap_halo) return false;
  // A rank with no radial neighbour has nothing to overlap; a 1-cell slab
  // has no interior distinct from its boundary shell.
  const bool inner = c.lg.at_inner_boundary();
  const bool outer = c.lg.at_outer_boundary();
  return !(inner && outer) && c.st.nloc >= 2;
}

/// True when an interior/boundary-shell kernel split pays for an exchange
/// of `nfields` radially decomposed fields (see RadialSplit).
bool overlap_split_pays(const MhdContext& c, int nfields) {
  const auto& cfg = c.eng.config();
  // Unified memory: the exchange stages through host-touched pages and
  // serializes with compute (Fig. 4) — nothing can be hidden, so the
  // extra boundary-shell launch never pays.
  if (cfg.gpu && c.eng.memory().unified()) return false;
  auto& cost = c.eng.cost();
  const i64 bytes = static_cast<i64>(c.st.nt + 1) * c.st.np * nfields *
                    static_cast<i64>(sizeof(real));
  const double per_msg =
      cfg.gpu ? cost.p2p_transfer_time(bytes, gpusim::ScaleClass::Surface)
              : cost.host_transfer_time(bytes, gpusim::ScaleClass::Surface);
  int neighbors = 0;
  if (!c.lg.at_inner_boundary()) ++neighbors;
  if (!c.lg.at_outer_boundary()) ++neighbors;
  // Hideable time = transfer minus the posting latency the compute clock
  // pays anyway; the split costs one extra kernel launch.
  const double hidden =
      neighbors * (per_msg - cost.device().p2p_latency_s);
  return hidden > cost.device().launch_overhead_s;
}

/// Declared radial span of stencil reads over [ilo, ihi) (see
/// RadialSplit::span).
par::Span interior_stencil_span(bool split, idx ilo, idx ihi, idx nloc) {
  if (!split) return par::Span::Full;
  const bool lo = ilo == 0, hi = ihi == nloc;
  if (lo && hi) return par::Span::Full;
  if (lo) return par::Span::GhostLo;
  if (hi) return par::Span::GhostHi;
  return par::Span::Interior;
}

}  // namespace

void apply_center_bcs(MhdContext& c) {
  State& st = c.st;
  const idx nloc = st.nloc, nt = st.nt, np = st.np;

  // θ walls for all centered fields (vt is odd across the wall).
  theta_wall_ghosts(c, st.rho, 1.0);
  theta_wall_ghosts(c, st.temp, 1.0);
  theta_wall_ghosts(c, st.vr, 1.0);
  theta_wall_ghosts(c, st.vt, -1.0);
  theta_wall_ghosts(c, st.vp, 1.0);

  // Inner radial boundary (solar surface): line-tied, fixed T and ρ at the
  // boundary face; velocities vanish at the face (odd ghosts).
  if (c.lg.at_inner_boundary()) {
    static const par::KernelSite& site =
        SIMAS_SITE("bc_inner_r_center", SiteKind::ParallelLoop, 12, false,
                   false, true, /*surface_scaled=*/true);
    field::Field& rho = st.rho;
    field::Field& temp = st.temp;
    field::Field& vr = st.vr;
    field::Field& vt = st.vt;
    field::Field& vp = st.vp;
    // Writes the low radial ghost from the first owned plane; at the inner
    // wall that ghost has no neighbour, so it is never in flight.
    c.eng.for_each(site, par::Range3{0, nt, 0, np, 0, 1},
                   {par::in(rho.id(), par::Span::Interior),
                    par::out(rho.id(), par::Span::GhostLo),
                    par::in(temp.id(), par::Span::Interior),
                    par::out(temp.id(), par::Span::GhostLo),
                    par::out(vr.id(), par::Span::GhostLo),
                    par::out(vt.id(), par::Span::GhostLo),
                    par::out(vp.id(), par::Span::GhostLo)},
                   [&](idx j, idx k, idx) {
                     // Face value = 1 (base atmosphere) for ρ and T.
                     rho(-1, j, k) = 2.0 - rho(0, j, k);
                     temp(-1, j, k) = 2.0 - temp(0, j, k);
                     vr(-1, j, k) = -vr(0, j, k);
                     vt(-1, j, k) = -vt(0, j, k);
                     vp(-1, j, k) = -vp(0, j, k);
                   });
  }

  // Outer radial boundary: open (zero-gradient) ghosts.
  if (c.lg.at_outer_boundary()) {
    static const par::KernelSite& site =
        SIMAS_SITE("bc_outer_r_center", SiteKind::ParallelLoop, 12, false,
                   false, true, /*surface_scaled=*/true);
    field::Field& rho = st.rho;
    field::Field& temp = st.temp;
    field::Field& vr = st.vr;
    field::Field& vt = st.vt;
    field::Field& vp = st.vp;
    // Writes the high radial ghost from the last owned plane; at the outer
    // wall that ghost has no neighbour, so it is never in flight.
    c.eng.for_each(site, par::Range3{0, nt, 0, np, 0, 1},
                   {par::in(rho.id(), par::Span::Interior),
                    par::out(rho.id(), par::Span::GhostHi),
                    par::in(temp.id(), par::Span::Interior),
                    par::out(temp.id(), par::Span::GhostHi),
                    par::in(vr.id(), par::Span::Interior),
                    par::out(vr.id(), par::Span::GhostHi),
                    par::out(vt.id(), par::Span::GhostHi),
                    par::out(vp.id(), par::Span::GhostHi)},
                   [&, nloc](idx j, idx k, idx) {
                     rho(nloc, j, k) = rho(nloc - 1, j, k);
                     temp(nloc, j, k) = temp(nloc - 1, j, k);
                     vr(nloc, j, k) = vr(nloc - 1, j, k);
                     vt(nloc, j, k) = vt(nloc - 1, j, k);
                     vp(nloc, j, k) = vp(nloc - 1, j, k);
                   });
  }
}

int post_radial_exchange(MhdContext& c,
                         const std::vector<field::Field*>& fields,
                         const std::vector<field::Field*>& wrap) {
  int pending = -1;
  if (overlap_active(c)) {
    pending = c.halo.begin_exchange_r(fields);
  } else {
    c.halo.exchange_r(fields);
  }
  c.halo.wrap_phi(wrap);
  return pending;
}

void finish_radial_exchange(MhdContext& c, int pending) {
  if (pending >= 0) c.halo.finish_exchange_r(pending);
}

RadialSplit::RadialSplit(MhdContext& c, int pending, int nfields)
    : c_(c), pending_(pending) {
  const idx nloc = c.st.nloc;
  const bool split = pending >= 0 && overlap_split_pays(c, nfields);
  if (!split) {
    // Overlap without a split: the transfer hid behind the φ wrap (and
    // BC kernels) of its exchange window; complete it before any read.
    finish_radial_exchange(c, pending_);
    pending_ = -1;
  }
  // Interior planes exclude the ones adjacent to an in-flight ghost.
  ilo_ = (split && !c.lg.at_inner_boundary()) ? 1 : 0;
  ihi_ = (split && !c.lg.at_outer_boundary()) ? nloc - 1 : nloc;
  span_ = interior_stencil_span(split, ilo_, ihi_, nloc);
  if (split) {
    const bool lo = ilo_ == 1, hi = ihi_ == nloc - 1;
    nshell_ = (lo ? 1 : 0) + (hi ? 1 : 0);
    shell_first_ = lo ? 0 : nloc - 1;
    shell_last_ = hi ? nloc - 1 : 0;
  }
}

void exchange_center_ghosts(MhdContext& c) {
  c.halo.exchange_r(c.st.center_fields());
  c.halo.wrap_phi(c.st.center_fields());
  apply_center_bcs(c);
}

int begin_exchange_center_ghosts(MhdContext& c) {
  // Post the radial exchange, then fill every locally computable ghost
  // while the halos are in flight. The φ-wrap pack reads only owned radial
  // planes and its unpack writes only φ ghosts; the physical BCs write θ
  // ghosts and (at boundary ranks only) radial planes that have no
  // neighbour — none of them touch the in-flight radial ghost planes, so
  // the result is byte-identical to the synchronous order.
  const int pending = post_radial_exchange(c, c.st.center_fields());
  apply_center_bcs(c);
  return pending;
}

void apply_b_ghosts(MhdContext& c) {
  State& st = c.st;
  const idx nloc = st.nloc, nt = st.nt, np = st.np;

  // Rank halos for the center-dimensioned face fields. Under overlap the
  // exchange rides the copy stream while the φ wrap and wall kernels run
  // (they read owned planes and write θ/φ ghosts only), and completes at
  // the end of this routine.
  const int pending = post_radial_exchange(c, {&st.bt, &st.bp},
                                           {&st.br, &st.bt, &st.bp});

  // θ-wall ghosts: bt is wall-normal (odd about the fixed wall flux), br
  // and bp mirror.
  {
    static const par::KernelSite& site =
        SIMAS_SITE("bc_theta_wall_b", SiteKind::ParallelLoop, 13, false,
                   false, true, /*surface_scaled=*/true);
    field::Field& br = st.br;
    field::Field& bt = st.bt;
    field::Field& bp = st.bp;
    // θ ghosts of radially owned columns only: br owns i ∈ [0, nloc]
    // (face-dimensioned), bt/bp iterations are guarded to i < nloc — no
    // radial ghost column is touched while the bt/bp halos are in flight.
    c.eng.for_each(site, par::Range3{0, nloc + 1, 0, np, 0, 1},
                   {par::in(br.id(), par::Span::Interior),
                    par::out(br.id(), par::Span::Interior),
                    par::in(bt.id(), par::Span::Interior),
                    par::out(bt.id(), par::Span::Interior),
                    par::in(bp.id(), par::Span::Interior),
                    par::out(bp.id(), par::Span::Interior)},
                   [&, nloc, nt](idx i, idx k, idx) {
                     br(i, -1, k) = br(i, 0, k);
                     br(i, nt, k) = br(i, nt - 1, k);
                     if (i < nloc) {
                       bt(i, -1, k) = bt(i, 1, k);
                       bt(i, nt + 1, k) = bt(i, nt - 1, k);
                       bp(i, -1, k) = bp(i, 0, k);
                       bp(i, nt, k) = bp(i, nt - 1, k);
                     }
                   });
  }

  // Radial ghosts at the physical boundaries (zero-gradient).
  if (c.lg.at_inner_boundary() || c.lg.at_outer_boundary()) {
    static const par::KernelSite& site =
        SIMAS_SITE("bc_r_walls_b", SiteKind::ParallelLoop, 13, false,
                   false, true, /*surface_scaled=*/true);
    const bool inner = c.lg.at_inner_boundary();
    const bool outer = c.lg.at_outer_boundary();
    field::Field& br = st.br;
    field::Field& bt = st.bt;
    field::Field& bp = st.bp;
    // Writes only the physical-wall ghost columns this rank owns a wall
    // for — those have no neighbour and are never in flight. Reads the
    // adjacent owned planes.
    const par::Span rspan = (inner && outer) ? par::Span::Full
                            : inner          ? par::Span::GhostLo
                                             : par::Span::GhostHi;
    c.eng.for_each(site, par::Range3{0, nt + 1, 0, np, 0, 1},
                   {par::in(br.id(), par::Span::Interior),
                    par::out(br.id(), rspan),
                    par::in(bt.id(), par::Span::Interior),
                    par::out(bt.id(), rspan),
                    par::in(bp.id(), par::Span::Interior),
                    par::out(bp.id(), rspan)},
                   [&, nloc, inner, outer, nt](idx j, idx k, idx) {
                     if (inner) {
                       br(-1, j, k) = br(0, j, k);
                       bt(-1, j, k) = bt(0, j, k);
                       if (j < nt) bp(-1, j, k) = bp(0, j, k);
                     }
                     if (outer) {
                       br(nloc + 1, j, k) = br(nloc, j, k);
                       bt(nloc, j, k) = bt(nloc - 1, j, k);
                       if (j < nt) bp(nloc, j, k) = bp(nloc - 1, j, k);
                     }
                   });
  }

  finish_radial_exchange(c, pending);
}

}  // namespace simas::mhd
