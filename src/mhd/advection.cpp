#include <algorithm>
#include <array>

#include "mhd/ops.hpp"

namespace simas::mhd {

using par::SiteKind;

namespace {

/// First-order upwind directional derivative helpers (1 ghost layer).
inline real upwind_r(const field::Field& q, const grid::LocalGrid& lg, real v,
                     idx i, idx j, idx k) {
  if (v >= 0.0) return (q(i, j, k) - q(i - 1, j, k)) / lg.drf(i);
  return (q(i + 1, j, k) - q(i, j, k)) / lg.drf(i + 1);
}
inline real upwind_t(const field::Field& q, const grid::LocalGrid& lg, real v,
                     idx i, idx j, idx k) {
  const real r = lg.rc(i);
  if (v >= 0.0) return (q(i, j, k) - q(i, j - 1, k)) / (r * lg.dtf(j));
  return (q(i, j + 1, k) - q(i, j, k)) / (r * lg.dtf(j + 1));
}
inline real upwind_p(const field::Field& q, const grid::LocalGrid& lg, real v,
                     idx i, idx j, idx k) {
  const real rs = lg.rc(i) * lg.stc(j);
  if (v >= 0.0) return (q(i, j, k) - q(i, j, k - 1)) / (rs * lg.dph());
  return (q(i, j, k + 1) - q(i, j, k)) / (rs * lg.dph());
}

/// Centered velocity divergence in flux form (exact cell areas/volume).
inline real div_v(const State& st, const grid::LocalGrid& lg, idx i, idx j,
                  idx k) {
  const grid::Metric& mt = lg.metric();
  const real ar0 = mt.area_r(i, j), ar1 = mt.area_r(i + 1, j);
  const real at0 = mt.area_t(i, j), at1 = mt.area_t(i, j + 1);
  const real ap = mt.area_p(i, j);

  const real vr0 = 0.5 * (st.vr(i - 1, j, k) + st.vr(i, j, k));
  const real vr1 = 0.5 * (st.vr(i, j, k) + st.vr(i + 1, j, k));
  const real vt0 = 0.5 * (st.vt(i, j - 1, k) + st.vt(i, j, k));
  const real vt1 = 0.5 * (st.vt(i, j, k) + st.vt(i, j + 1, k));
  const real vp0 = 0.5 * (st.vp(i, j, k - 1) + st.vp(i, j, k));
  const real vp1 = 0.5 * (st.vp(i, j, k) + st.vp(i, j, k + 1));

  return (ar1 * vr1 - ar0 * vr0 + at1 * vt1 - at0 * vt0 + ap * (vp1 - vp0)) /
         mt.vol(i, j);
}

}  // namespace

// One combined advection + forces stage (predictor into wrk1..5, then a
// fused block of copy-back kernels — prime kernel-fusion material for the
// ACC model, and a block that fissions into five kernels under DC).
//
// With a pending overlapped center exchange (`pending_center` >= 0) and a
// cost model under which the split pays, the five predictors run over the
// interior radial planes while the halos are still in flight; the exchange
// is finished afterwards and one combined boundary-shell launch evaluates
// all five predictors on the planes that read the fresh ghosts. Every cell
// is written exactly once with the same arithmetic, so the result is
// byte-identical to the synchronous path.
void advect_and_forces(MhdContext& c, real dt, int pending_center) {
  State& st = c.st;
  const grid::LocalGrid& lg = c.lg;
  const PhysicsConfig& ph = c.phys;
  const real gamma = ph.gamma;
  const real g0 = ph.gravity;

  RadialSplit split(c, pending_center,
                    static_cast<int>(st.center_fields().size()));

  static const par::KernelSite& site_vr =
      SIMAS_SITE("advance_vr", SiteKind::ParallelLoop, 31);
  static const par::KernelSite& site_vt =
      SIMAS_SITE("advance_vt", SiteKind::ParallelLoop, 31);
  static const par::KernelSite& site_vp =
      SIMAS_SITE("advance_vp", SiteKind::ParallelLoop, 31);
  static const par::KernelSite& site_rho =
      SIMAS_SITE("advance_rho", SiteKind::ParallelLoop, 32);
  static const par::KernelSite& site_t =
      SIMAS_SITE("advance_temp", SiteKind::ParallelLoop, 32);

  // --- predictor bodies (shared by interior and boundary-shell launches) --
  auto vr_body = [&, dt, g0](idx i, idx j, idx k) {
        const real r = lg.rc(i);
        const real rho = std::max<real>(st.rho(i, j, k), 1.0e-12);
        const real vr0 = st.vr(i, j, k);
        const real vt0 = st.vt(i, j, k);
        const real vp0 = st.vp(i, j, k);
        real rhs = -(vr0 * upwind_r(st.vr, lg, vr0, i, j, k) +
                     vt0 * upwind_t(st.vr, lg, vt0, i, j, k) +
                     vp0 * upwind_p(st.vr, lg, vp0, i, j, k));
        rhs += (sq(vt0) + sq(vp0)) / r;  // geometric
        // -dp/dr / rho with p = rho T.
        const real dpdr =
            (st.rho(i + 1, j, k) * st.temp(i + 1, j, k) -
             st.rho(i - 1, j, k) * st.temp(i - 1, j, k)) /
            (lg.drf(i) + lg.drf(i + 1));
        rhs -= dpdr / rho;
        rhs -= g0 / sq(r);
        // (J x B)_r = Jθ Bφ - Jφ Bθ.
        rhs += (st.jct(i, j, k) * st.bcp(i, j, k) -
                st.jcp(i, j, k) * st.bct(i, j, k)) /
               rho;
        st.wrk1(i, j, k) = vr0 + dt * rhs;
  };

  auto vt_body = [&, dt](idx i, idx j, idx k) {
        const real r = lg.rc(i);
        const real cot = lg.metric().cot(j);
        const real rho = std::max<real>(st.rho(i, j, k), 1.0e-12);
        const real vr0 = st.vr(i, j, k);
        const real vt0 = st.vt(i, j, k);
        const real vp0 = st.vp(i, j, k);
        real rhs = -(vr0 * upwind_r(st.vt, lg, vr0, i, j, k) +
                     vt0 * upwind_t(st.vt, lg, vt0, i, j, k) +
                     vp0 * upwind_p(st.vt, lg, vp0, i, j, k));
        rhs += (-vr0 * vt0 + sq(vp0) * cot) / r;
        const real dpdt =
            (st.rho(i, j + 1, k) * st.temp(i, j + 1, k) -
             st.rho(i, j - 1, k) * st.temp(i, j - 1, k)) /
            (r * (lg.dtf(j) + lg.dtf(j + 1)));
        rhs -= dpdt / rho;
        // (J x B)_θ = Jφ Br - Jr Bφ.
        rhs += (st.jcp(i, j, k) * st.bcr(i, j, k) -
                st.jcr(i, j, k) * st.bcp(i, j, k)) /
               rho;
        st.wrk2(i, j, k) = vt0 + dt * rhs;
  };

  auto vp_body = [&, dt](idx i, idx j, idx k) {
        const real r = lg.rc(i);
        const real cot = lg.metric().cot(j);
        const real rho = std::max<real>(st.rho(i, j, k), 1.0e-12);
        const real vr0 = st.vr(i, j, k);
        const real vt0 = st.vt(i, j, k);
        const real vp0 = st.vp(i, j, k);
        real rhs = -(vr0 * upwind_r(st.vp, lg, vr0, i, j, k) +
                     vt0 * upwind_t(st.vp, lg, vt0, i, j, k) +
                     vp0 * upwind_p(st.vp, lg, vp0, i, j, k));
        rhs += (-vr0 * vp0 - vt0 * vp0 * cot) / r;
        const real dpdp =
            (st.rho(i, j, k + 1) * st.temp(i, j, k + 1) -
             st.rho(i, j, k - 1) * st.temp(i, j, k - 1)) /
            (2.0 * r * lg.stc(j) * lg.dph());
        rhs -= dpdp / rho;
        // (J x B)_φ = Jr Bθ - Jθ Br.
        rhs += (st.jcr(i, j, k) * st.bct(i, j, k) -
                st.jct(i, j, k) * st.bcr(i, j, k)) /
               rho;
        st.wrk3(i, j, k) = vp0 + dt * rhs;
  };

  auto rho_body = [&, dt](idx i, idx j, idx k) {
        const real vr0 = st.vr(i, j, k);
        const real vt0 = st.vt(i, j, k);
        const real vp0 = st.vp(i, j, k);
        const real adv = vr0 * upwind_r(st.rho, lg, vr0, i, j, k) +
                         vt0 * upwind_t(st.rho, lg, vt0, i, j, k) +
                         vp0 * upwind_p(st.rho, lg, vp0, i, j, k);
        const real dv = div_v(st, lg, i, j, k);
        st.wrk4(i, j, k) = std::max<real>(
            st.rho(i, j, k) - dt * (adv + st.rho(i, j, k) * dv), 1.0e-12);
  };

  auto temp_body = [&, dt, gamma](idx i, idx j, idx k) {
        const real vr0 = st.vr(i, j, k);
        const real vt0 = st.vt(i, j, k);
        const real vp0 = st.vp(i, j, k);
        const real adv = vr0 * upwind_r(st.temp, lg, vr0, i, j, k) +
                         vt0 * upwind_t(st.temp, lg, vt0, i, j, k) +
                         vp0 * upwind_p(st.temp, lg, vp0, i, j, k);
        const real dv = div_v(st, lg, i, j, k);
        st.wrk5(i, j, k) = std::max<real>(
            st.temp(i, j, k) -
                dt * (adv + (gamma - 1.0) * st.temp(i, j, k) * dv),
            1.0e-12);
  };

  // --- interior predictor launches (full range when not split) ----------
  // Declared span of the centered-field reads: the ±1 radial stencil over
  // the clipped interior range never reaches the in-flight ghost columns.
  const par::Span cspan = split.span();
  split.interior(
      site_vr,
      {par::in(st.rho.id(), cspan), par::in(st.temp.id(), cspan),
       par::in(st.vr.id(), cspan), par::in(st.vt.id(), cspan),
       par::in(st.vp.id(), cspan), par::in(st.jct.id()), par::in(st.jcp.id()),
       par::in(st.bct.id()), par::in(st.bcp.id()), par::out(st.wrk1.id())},
      vr_body);
  split.interior(
      site_vt,
      {par::in(st.rho.id(), cspan), par::in(st.temp.id(), cspan),
       par::in(st.vr.id(), cspan), par::in(st.vt.id(), cspan),
       par::in(st.vp.id(), cspan), par::in(st.jcr.id()), par::in(st.jcp.id()),
       par::in(st.bcr.id()), par::in(st.bcp.id()), par::out(st.wrk2.id())},
      vt_body);
  split.interior(
      site_vp,
      {par::in(st.rho.id(), cspan), par::in(st.temp.id(), cspan),
       par::in(st.vr.id(), cspan), par::in(st.vt.id(), cspan),
       par::in(st.vp.id(), cspan), par::in(st.jcr.id()), par::in(st.jct.id()),
       par::in(st.bcr.id()), par::in(st.bct.id()), par::out(st.wrk3.id())},
      vp_body);
  split.interior(site_rho,
                 {par::in(st.rho.id(), cspan), par::in(st.vr.id(), cspan),
                  par::in(st.vt.id(), cspan), par::in(st.vp.id(), cspan),
                  par::out(st.wrk4.id())},
                 rho_body);
  split.interior(site_t,
                 {par::in(st.temp.id(), cspan), par::in(st.vr.id(), cspan),
                  par::in(st.vt.id(), cspan), par::in(st.vp.id(), cspan),
                  par::out(st.wrk5.id())},
                 temp_body);

  // --- boundary shell: finish the exchange, then one combined launch ----
  if (split.has_shell()) {
    static const par::KernelSite& site_shell =
        SIMAS_SITE("advance_shell", SiteKind::ParallelLoop, 0, false, false,
                   true, /*surface_scaled=*/true);
    split.shell(
        site_shell,
        std::array{par::in(st.rho.id()), par::in(st.temp.id()),
                   par::in(st.vr.id()), par::in(st.vt.id()),
                   par::in(st.vp.id()), par::in(st.jcr.id()),
                   par::in(st.jct.id()), par::in(st.jcp.id()),
                   par::in(st.bcr.id()), par::in(st.bct.id()),
                   par::in(st.bcp.id()), par::out(st.wrk1.id()),
                   par::out(st.wrk2.id()), par::out(st.wrk3.id()),
                   par::out(st.wrk4.id()), par::out(st.wrk5.id())},
        [&](idx i, idx j, idx k) {
          vr_body(i, j, k);
          vt_body(i, j, k);
          vp_body(i, j, k);
          rho_body(i, j, k);
          temp_body(i, j, k);
        });
  }

  // --- copy-back block: five data-independent loops in one fusion group --
  const par::Range3 full{0, st.nloc, 0, st.nt, 0, st.np};
  static const par::KernelSite& cp1 =
      SIMAS_SITE("copyback_vr", SiteKind::ParallelLoop, 33);
  static const par::KernelSite& cp2 =
      SIMAS_SITE("copyback_vt", SiteKind::ParallelLoop, 33);
  static const par::KernelSite& cp3 =
      SIMAS_SITE("copyback_vp", SiteKind::ParallelLoop, 33);
  static const par::KernelSite& cp4 =
      SIMAS_SITE("copyback_rho", SiteKind::ParallelLoop, 33);
  static const par::KernelSite& cp5 =
      SIMAS_SITE("copyback_temp", SiteKind::ParallelLoop, 33);
  c.eng.for_each(cp1, full,
                 {par::in(st.wrk1.id()), par::out(st.vr.id())},
                 [&](idx i, idx j, idx k) { st.vr(i, j, k) = st.wrk1(i, j, k); });
  c.eng.for_each(cp2, full,
                 {par::in(st.wrk2.id()), par::out(st.vt.id())},
                 [&](idx i, idx j, idx k) { st.vt(i, j, k) = st.wrk2(i, j, k); });
  c.eng.for_each(cp3, full,
                 {par::in(st.wrk3.id()), par::out(st.vp.id())},
                 [&](idx i, idx j, idx k) { st.vp(i, j, k) = st.wrk3(i, j, k); });
  c.eng.for_each(cp4, full,
                 {par::in(st.wrk4.id()), par::out(st.rho.id())},
                 [&](idx i, idx j, idx k) { st.rho(i, j, k) = st.wrk4(i, j, k); });
  c.eng.for_each(cp5, full,
                 {par::in(st.wrk5.id()), par::out(st.temp.id())},
                 [&](idx i, idx j, idx k) { st.temp(i, j, k) = st.wrk5(i, j, k); });
}

}  // namespace simas::mhd
