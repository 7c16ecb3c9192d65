#include "solvers/pcg.hpp"

#include <cmath>
#include <stdexcept>

#include "telemetry/ranges.hpp"

namespace simas::solvers {

using par::SiteKind;

Pcg::Pcg(par::Engine& engine, mpisim::Comm& comm, const grid::LocalGrid& lg,
         std::string name)
    : eng_(engine), comm_(comm), lg_(lg), name_(std::move(name)) {}

real Pcg::dot(const Fields& a, const Fields& b) {
  static const par::KernelSite& site =
      SIMAS_SITE("pcg_dot", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);
  if (a.size() != b.size())
    throw std::invalid_argument("Pcg::dot: component mismatch");
  const grid::Metric& mt = lg_.metric();
  real local = 0.0;
  for (std::size_t c = 0; c < a.size(); ++c) {
    const field::Field& fa = *a[c];
    const field::Field& fb = *b[c];
    local += eng_.reduce_sum(
        site, par::Range3{0, fa.a().n1(), 0, fa.a().n2(), 0, fa.a().n3()},
        {par::in(fa.id()), par::in(fb.id())},
        [&](idx i, idx j, idx k) -> real {
          return fa(i, j, k) * fb(i, j, k) * mt.vol(i, j);
        });
  }
  return comm_.allreduce_sum(local);
}

PcgResult Pcg::solve(const ApplyFn& apply, const PrecondFn& precond,
                     PcgSystem& sys, const PcgOptions& opts) {
  static const par::KernelSite& site_resid =
      SIMAS_SITE("pcg_residual", SiteKind::ParallelLoop, 0);
  static const par::KernelSite& site_xupd =
      SIMAS_SITE("pcg_update_x_r", SiteKind::ParallelLoop, 51);
  static const par::KernelSite& site_pupd =
      SIMAS_SITE("pcg_update_p", SiteKind::ParallelLoop, 0);
  static const par::KernelSite& site_pinit =
      SIMAS_SITE("pcg_init_p", SiteKind::IntrinsicKernels, 0);

  const std::size_t nc = sys.x.size();
  if (nc == 0 || sys.b.size() != nc || sys.r.size() != nc ||
      sys.p.size() != nc || sys.ap.size() != nc || sys.z.size() != nc)
    throw std::invalid_argument("Pcg::solve: inconsistent system");

  PcgResult res;
  SIMAS_RANGE(eng_, name_ + ".pcg");

  // r = b - A x
  apply(sys.x, sys.ap);
  for (std::size_t c = 0; c < nc; ++c) {
    field::Field& b = *sys.b[c];
    field::Field& ap = *sys.ap[c];
    field::Field& r = *sys.r[c];
    const par::Range3 interior{0, r.a().n1(), 0, r.a().n2(), 0, r.a().n3()};
    eng_.for_each(site_resid, interior,
                  {par::in(b.id()), par::in(ap.id()), par::out(r.id())},
                  [&](idx i, idx j, idx k) {
                    r(i, j, k) = b(i, j, k) - ap(i, j, k);
                  });
  }

  // Convergence is monitored on the preconditioned residual norm
  // sqrt(<r, z>) relative to its initial value — one global dot per
  // iteration, as production Krylov solvers do.
  precond(sys.r, sys.z);
  for (std::size_t c = 0; c < nc; ++c) {
    field::Field& z = *sys.z[c];
    field::Field& p = *sys.p[c];
    const par::Range3 interior{0, p.a().n1(), 0, p.a().n2(), 0, p.a().n3()};
    eng_.for_each(site_pinit, interior, {par::in(z.id()), par::out(p.id())},
                  [&](idx i, idx j, idx k) { p(i, j, k) = z(i, j, k); });
  }
  real rz = dot(sys.r, sys.z);
  const real rz0 = std::max(rz, 1.0e-300);
  if (rz == 0.0) {
    res.converged = true;
    return res;
  }

  // The two graph scopes below split the inner iteration at its control
  // dependencies: "/iter" (operator apply + alpha update + precondition)
  // always runs, "/pupd" (search-direction update) only when the solve
  // continues. Each scope emits an identical op sequence every iteration,
  // so under EngineConfig::graph_replay the first iteration captures and
  // all later ones replay at per-graph launch cost (the host-side scalar
  // recurrences alpha/beta are graph parameters, not ops).
  for (int it = 1; it <= opts.maxit; ++it) {
    real rz_new = 0.0;
    {
      par::Engine::GraphScope graph(eng_, name_ + "/iter");
      apply(sys.p, sys.ap);
      const real pap = dot(sys.p, sys.ap);
      if (pap <= 0.0) break;  // loss of positive-definiteness
      const real alpha = rz / pap;

      for (std::size_t c = 0; c < nc; ++c) {
        field::Field& x = *sys.x[c];
        field::Field& r = *sys.r[c];
        field::Field& p = *sys.p[c];
        field::Field& ap = *sys.ap[c];
        const par::Range3 interior{0, x.a().n1(), 0, x.a().n2(), 0,
                                   x.a().n3()};
        eng_.for_each(site_xupd, interior,
                      {par::in(p.id()), par::in(ap.id()), par::in(x.id()),
                       par::out(x.id()), par::in(r.id()), par::out(r.id())},
                      [&, alpha](idx i, idx j, idx k) {
                        x(i, j, k) += alpha * p(i, j, k);
                        r(i, j, k) -= alpha * ap(i, j, k);
                      });
      }

      precond(sys.r, sys.z);
      rz_new = dot(sys.r, sys.z);
    }
    res.iterations = it;
    res.relative_residual = std::sqrt(std::max(rz_new, 0.0) / rz0);
    if (res.relative_residual <= opts.tol) {
      res.converged = true;
      break;
    }
    const real beta = rz_new / rz;
    rz = rz_new;
    par::Engine::GraphScope graph(eng_, name_ + "/pupd");
    for (std::size_t c = 0; c < nc; ++c) {
      field::Field& z = *sys.z[c];
      field::Field& p = *sys.p[c];
      const par::Range3 interior{0, p.a().n1(), 0, p.a().n2(), 0,
                                 p.a().n3()};
      eng_.for_each(site_pupd, interior,
                    {par::in(z.id()), par::in(p.id()), par::out(p.id())},
                    [&, beta](idx i, idx j, idx k) {
                      p(i, j, k) = z(i, j, k) + beta * p(i, j, k);
                    });
    }
  }
  return res;
}

}  // namespace simas::solvers
