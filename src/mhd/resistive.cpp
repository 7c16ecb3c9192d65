#include <algorithm>

#include "mhd/ops.hpp"

namespace simas::mhd {

using par::SiteKind;

// Constrained-transport induction update:
//   E(edge) = -(v x B)(edge) + η J(edge);   B(face) -= dt * circ(E)/A(face)
// The circulation form guarantees d(div B)/dt = 0 exactly: each cell edge
// appears in the circulations of exactly two faces of any cell, with
// opposite orientation.
void ct_update(MhdContext& c, real dt) {
  State& st = c.st;
  const grid::LocalGrid& lg = c.lg;
  const real eta = c.phys.eta;
  const idx nloc = st.nloc, nt = st.nt, np = st.np;
  const real dph = lg.dph();

  static const par::KernelSite& site_er =
      SIMAS_SITE("emf_r", SiteKind::ParallelLoop, 41);
  static const par::KernelSite& site_et =
      SIMAS_SITE("emf_t", SiteKind::ParallelLoop, 41);
  static const par::KernelSite& site_ep =
      SIMAS_SITE("emf_p", SiteKind::ParallelLoop, 41);

  const bool inner = lg.at_inner_boundary();

  // --- EMF at r-edges (r-center, θ-face, φ-face) -------------------------
  c.eng.for_each(
      site_er, par::Range3{0, nloc, 0, nt + 1, 0, np},
      {par::in(st.vt.id()), par::in(st.vp.id()), par::in(st.bt.id()),
       par::in(st.bp.id()), par::out(st.er.id())},
      [&, eta](idx i, idx j, idx k) {
        if (j == 0 || j == nt) {  // conducting θ wall: E_r = 0
          st.er(i, j, k) = 0.0;
          return;
        }
        const real vt_e = 0.25 * (st.vt(i, j - 1, k - 1) + st.vt(i, j, k - 1) +
                                  st.vt(i, j - 1, k) + st.vt(i, j, k));
        const real vp_e = 0.25 * (st.vp(i, j - 1, k - 1) + st.vp(i, j, k - 1) +
                                  st.vp(i, j - 1, k) + st.vp(i, j, k));
        const real bp_e = 0.5 * (st.bp(i, j - 1, k) + st.bp(i, j, k));
        const real bt_e = 0.5 * (st.bt(i, j, k - 1) + st.bt(i, j, k));
        const real r = lg.rc(i);
        const real stf = std::max<real>(lg.stf(j), 1.0e-12);
        const real jr =
            (lg.stc(j) * st.bp(i, j, k) -
             lg.stc(j - 1) * st.bp(i, j - 1, k)) /
                (r * stf * lg.dtf(j)) -
            (st.bt(i, j, k) - st.bt(i, j, k - 1)) / (r * stf * dph);
        st.er(i, j, k) = -(vt_e * bp_e - vp_e * bt_e) + eta * jr;
      });

  // --- EMF at θ-edges (r-face, θ-center, φ-face) -------------------------
  c.eng.for_each(
      site_et, par::Range3{0, nloc + 1, 0, nt, 0, np},
      {par::in(st.vr.id()), par::in(st.vp.id()), par::in(st.br.id()),
       par::in(st.bp.id()), par::out(st.et.id())},
      [&, eta, inner](idx i, idx j, idx k) {
        if (inner && i == 0) {  // line-tied inner boundary: E_θ = 0
          st.et(i, j, k) = 0.0;
          return;
        }
        const real vr_e = 0.25 * (st.vr(i - 1, j, k - 1) + st.vr(i, j, k - 1) +
                                  st.vr(i - 1, j, k) + st.vr(i, j, k));
        const real vp_e = 0.25 * (st.vp(i - 1, j, k - 1) + st.vp(i, j, k - 1) +
                                  st.vp(i - 1, j, k) + st.vp(i, j, k));
        const real bp_e = 0.5 * (st.bp(i - 1, j, k) + st.bp(i, j, k));
        const real br_e = 0.5 * (st.br(i, j, k - 1) + st.br(i, j, k));
        const real rf = lg.rf(i);
        const real jt =
            (st.br(i, j, k) - st.br(i, j, k - 1)) /
                (rf * lg.stc(j) * dph) -
            (lg.rc(i) * st.bp(i, j, k) - lg.rc(i - 1) * st.bp(i - 1, j, k)) /
                (rf * lg.drf(i));
        st.et(i, j, k) = -(vp_e * br_e - vr_e * bp_e) + eta * jt;
      });

  // --- EMF at φ-edges (r-face, θ-face, φ-center) -------------------------
  c.eng.for_each(
      site_ep, par::Range3{0, nloc + 1, 0, nt + 1, 0, np},
      {par::in(st.vr.id()), par::in(st.vt.id()), par::in(st.br.id()),
       par::in(st.bt.id()), par::out(st.ep.id())},
      [&, eta, inner](idx i, idx j, idx k) {
        if ((j == 0 || j == nt) || (inner && i == 0)) {
          st.ep(i, j, k) = 0.0;  // conducting wall / line-tied surface
          return;
        }
        const real vr_e = 0.25 * (st.vr(i - 1, j - 1, k) + st.vr(i, j - 1, k) +
                                  st.vr(i - 1, j, k) + st.vr(i, j, k));
        const real vt_e = 0.25 * (st.vt(i - 1, j - 1, k) + st.vt(i, j - 1, k) +
                                  st.vt(i - 1, j, k) + st.vt(i, j, k));
        const real bt_e = 0.5 * (st.bt(i - 1, j, k) + st.bt(i, j, k));
        const real br_e = 0.5 * (st.br(i, j - 1, k) + st.br(i, j, k));
        const real rf = lg.rf(i);
        const real jp =
            (lg.rc(i) * st.bt(i, j, k) - lg.rc(i - 1) * st.bt(i - 1, j, k)) /
                (rf * lg.drf(i)) -
            (st.br(i, j, k) - st.br(i, j - 1, k)) / (rf * lg.dtf(j));
        st.ep(i, j, k) = -(vr_e * bt_e - vt_e * br_e) + eta * jp;
      });

  // k+1 EMF values are needed by the face circulations.
  c.halo.wrap_phi({&st.er, &st.et});

  static const par::KernelSite& site_br =
      SIMAS_SITE("ct_update_br", SiteKind::ParallelLoop, 42);
  static const par::KernelSite& site_bt =
      SIMAS_SITE("ct_update_bt", SiteKind::ParallelLoop, 42);
  static const par::KernelSite& site_bp =
      SIMAS_SITE("ct_update_bp", SiteKind::ParallelLoop, 42);

  // --- face updates: B -= dt * circulation / area ------------------------
  // r-faces: all local faces (the shared inter-rank face is computed
  // identically by both owners from the same EMF stencils).
  c.eng.for_each(
      site_br, par::Range3{0, nloc + 1, 0, nt, 0, np},
      {par::in(st.et.id()), par::in(st.ep.id()), par::out(st.br.id())},
      [&, dt, dph](idx i, idx j, idx k) {
        const real rf = lg.rf(i);
        const real area = lg.metric().area_r(i, j);
        const real lp0 = rf * lg.stf(j) * dph;
        const real lp1 = rf * lg.stf(j + 1) * dph;
        const real lt = rf * lg.dtc(j);
        const real circ = (st.ep(i, j + 1, k) * lp1 - st.ep(i, j, k) * lp0) -
                          (st.et(i, j, k + 1) - st.et(i, j, k)) * lt;
        st.br(i, j, k) -= dt * circ / area;
      });

  // θ-faces.
  c.eng.for_each(
      site_bt, par::Range3{0, nloc, 0, nt + 1, 0, np},
      {par::in(st.er.id()), par::in(st.ep.id()), par::out(st.bt.id())},
      [&, dt, dph](idx i, idx j, idx k) {
        const real stf = std::max<real>(lg.stf(j), 1.0e-12);
        const real alin = (sq(lg.rf(i + 1)) - sq(lg.rf(i))) / 2.0;
        const real area = alin * stf * dph;
        const real lr = lg.drc(i);
        const real lp0 = lg.rf(i) * stf * dph;
        const real lp1 = lg.rf(i + 1) * stf * dph;
        const real circ = (st.er(i, j, k + 1) - st.er(i, j, k)) * lr -
                          (st.ep(i + 1, j, k) * lp1 - st.ep(i, j, k) * lp0);
        st.bt(i, j, k) -= dt * circ / area;
      });

  // φ-faces.
  c.eng.for_each(
      site_bp, par::Range3{0, nloc, 0, nt, 0, np},
      {par::in(st.er.id()), par::in(st.et.id()), par::out(st.bp.id())},
      [&, dt](idx i, idx j, idx k) {
        const real area = lg.metric().area_p(i, j);
        const real lr = lg.drc(i);
        const real lt0 = lg.rf(i) * lg.dtc(j);
        const real lt1 = lg.rf(i + 1) * lg.dtc(j);
        const real circ =
            (st.et(i + 1, j, k) * lt1 - st.et(i, j, k) * lt0) -
            (st.er(i, j + 1, k) - st.er(i, j, k)) * lr;
        st.bp(i, j, k) -= dt * circ / area;
      });

  apply_b_ghosts(c);
}

}  // namespace simas::mhd
