#include "solvers/pcg.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "telemetry/ranges.hpp"

namespace simas::solvers {

using par::SiteKind;

Pcg::Pcg(par::Engine& engine, mpisim::Comm& comm, const grid::LocalGrid& lg,
         std::string name)
    : eng_(engine), comm_(comm), lg_(lg), name_(std::move(name)) {}

namespace {

/// The interior range every component of a system vector shares: one
/// Range3 covers all components of a sweep, so their extents must agree.
par::Range3 component_range(const Pcg::Fields& v, const field::Field& ref,
                            const char* who) {
  for (const field::Field* f : v)
    if (f->a().n1() != ref.a().n1() || f->a().n2() != ref.a().n2() ||
        f->a().n3() != ref.a().n3())
      throw std::invalid_argument(std::string(who) +
                                  ": component shape mismatch");
  return par::Range3{0, ref.a().n1(), 0, ref.a().n2(), 0, ref.a().n3()};
}

}  // namespace

real Pcg::dot(const Fields& a, const Fields& b) {
  static const par::KernelSite& site =
      SIMAS_SITE("pcg_dot", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false);
  if (a.size() != b.size())
    throw std::invalid_argument("Pcg::dot: component mismatch");
  if (a.empty()) return comm_.allreduce_sum(0.0);
  const par::Range3 range = component_range(a, *a[0], "Pcg::dot");
  component_range(b, *a[0], "Pcg::dot");
  const grid::Metric& mt = lg_.metric();
  // One ReduceOp per component, one host job for all of them.
  const real local = eng_.reduce_sum_n(
      site, range, static_cast<int>(a.size()),
      [&](int c) {
        return std::array{par::in(a[c]->id()), par::in(b[c]->id())};
      },
      [&](int c) {
        return [&fa = *a[c], &fb = *b[c], &mt](idx i, idx j, idx k) -> real {
          return fa(i, j, k) * fb(i, j, k) * mt.vol(i, j);
        };
      });
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
  par::Range3 interior;
  for (const Fields* v : {&sys.x, &sys.b, &sys.r, &sys.p, &sys.ap, &sys.z})
    interior = component_range(*v, *sys.x[0], "Pcg::solve");
  const int n = static_cast<int>(nc);
  // Each vector operation below is one component sweep: one op per
  // component in the stream, one host job for the system.

  PcgResult res;
  SIMAS_RANGE(eng_, name_ + ".pcg");

  // r = b - A x
  apply(sys.x, sys.ap);
  eng_.for_each_n(
      site_resid, interior, n,
      [&](int c) {
        return std::array{par::in(sys.b[c]->id()), par::in(sys.ap[c]->id()),
                          par::out(sys.r[c]->id())};
      },
      [&](int c) {
        return [&b = *sys.b[c], &ap = *sys.ap[c],
                &r = *sys.r[c]](idx i, idx j, idx k) {
          r(i, j, k) = b(i, j, k) - ap(i, j, k);
        };
      });

  // Convergence is monitored on the preconditioned residual norm
  // sqrt(<r, z>) relative to its initial value — one global dot per
  // iteration, as production Krylov solvers do.
  precond(sys.r, sys.z);
  eng_.for_each_n(
      site_pinit, interior, n,
      [&](int c) {
        return std::array{par::in(sys.z[c]->id()), par::out(sys.p[c]->id())};
      },
      [&](int c) {
        return [&z = *sys.z[c], &p = *sys.p[c]](idx i, idx j, idx k) {
          p(i, j, k) = z(i, j, k);
        };
      });
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

      eng_.for_each_n(
          site_xupd, interior, n,
          [&](int c) {
            return std::array{par::in(sys.p[c]->id()),
                              par::in(sys.ap[c]->id()),
                              par::in(sys.x[c]->id()),
                              par::out(sys.x[c]->id()),
                              par::in(sys.r[c]->id()),
                              par::out(sys.r[c]->id())};
          },
          [&](int c) {
            return [&x = *sys.x[c], &r = *sys.r[c], &p = *sys.p[c],
                    &ap = *sys.ap[c], alpha](idx i, idx j, idx k) {
              x(i, j, k) += alpha * p(i, j, k);
              r(i, j, k) -= alpha * ap(i, j, k);
            };
          });

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
    eng_.for_each_n(
        site_pupd, interior, n,
        [&](int c) {
          return std::array{par::in(sys.z[c]->id()), par::in(sys.p[c]->id()),
                            par::out(sys.p[c]->id())};
        },
        [&](int c) {
          return [&z = *sys.z[c], &p = *sys.p[c], beta](idx i, idx j,
                                                            idx k) {
            p(i, j, k) = z(i, j, k) + beta * p(i, j, k);
          };
        });
  }
  return res;
}

}  // namespace simas::solvers
