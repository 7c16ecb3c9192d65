#include "solvers/pcg.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "telemetry/ranges.hpp"

namespace simas::solvers {

using par::SiteKind;

Pcg::Pcg(par::Engine& engine, mpisim::Comm& comm, const grid::LocalGrid& lg,
         std::string name)
    : eng_(engine), comm_(comm), lg_(lg), name_(std::move(name)) {}

const Pcg::Sites& Pcg::sites() {
  static const Sites s{
      SIMAS_SITE("pcg_residual", SiteKind::ParallelLoop, 0),
      SIMAS_SITE("pcg_update_x_r", SiteKind::ParallelLoop, 51),
      SIMAS_SITE("pcg_update_p", SiteKind::ParallelLoop, 0),
      SIMAS_SITE("pcg_init_p", SiteKind::IntrinsicKernels, 0),
      SIMAS_SITE("pcg_dot", SiteKind::ScalarReduction, 0,
                 /*calls_routine=*/false, /*uses_derived_type=*/false,
                 /*async_capable=*/false)};
  return s;
}

par::Range3 Pcg::interior(const PcgSystem& sys) {
  const std::size_t nc = sys.x.size();
  if (nc == 0 || sys.b.size() != nc || sys.r.size() != nc ||
      sys.p.size() != nc || sys.ap.size() != nc || sys.z.size() != nc)
    throw std::invalid_argument("Pcg::solve: inconsistent system");
  // One Range3 covers every component of a sweep, so every component's
  // extents must agree with component 0 of x.
  const field::Array3& ref = sys.x[0]->a();
  for (const Fields* v : {&sys.x, &sys.b, &sys.r, &sys.p, &sys.ap, &sys.z})
    for (const field::Field* f : *v)
      if (f->a().n1() != ref.n1() || f->a().n2() != ref.n2() ||
          f->a().n3() != ref.n3())
        throw std::invalid_argument("Pcg::solve: component shape mismatch");
  return par::Range3{0, ref.n1(), 0, ref.n2(), 0, ref.n3()};
}

PcgResult Pcg::iterate(PcgSystem& sys, const PcgOptions& opts,
                       par::Range3 range, par::FunctionRef<real()> open,
                       par::FunctionRef<real()> pap,
                       par::FunctionRef<real(real)> tail) {
  const int n = static_cast<int>(sys.x.size());
  PcgResult res;
  SIMAS_RANGE(eng_, name_ + ".pcg");

  // Convergence is monitored on the preconditioned residual norm
  // sqrt(<r, z>) relative to its initial value — one global dot per
  // iteration, as production Krylov solvers do. A NaN or Inf that reaches
  // a dot ends the solve at once, as not converged: it would otherwise
  // pass every test below and spin to maxit.
  real rz = open();
  if (!std::isfinite(rz)) return res;
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
      const real p_ap = pap();
      // Loss of positive-definiteness; a NaN fails the test too.
      if (!(p_ap > 0.0) || !std::isfinite(p_ap)) break;
      rz_new = tail(rz / p_ap);
    }
    res.iterations = it;
    if (!std::isfinite(rz_new)) break;
    res.relative_residual = std::sqrt(std::max(rz_new, 0.0) / rz0);
    if (res.relative_residual <= opts.tol) {
      res.converged = true;
      break;
    }
    const real beta = rz_new / rz;
    rz = rz_new;
    par::Engine::GraphScope graph(eng_, name_ + "/pupd");
    eng_.for_each_n(
        sites().update_p, range, n,
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
