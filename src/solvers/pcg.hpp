#pragma once
// Matrix-free preconditioned conjugate gradient over decomposed fields.
//
// The solver operates on *systems of components*: MAS solves the implicit
// viscous update for all three velocity components as one vector system,
// so each CG iteration performs ONE fused halo exchange and ONE global
// reduction regardless of component count. This communication structure is
// what the paper's Fig. 4 profiles ("viscosity solver iterations").
//
// On the host each vector operation is one component sweep
// (Engine::for_each_n / chain_sum_n): one op per component, one host job
// and one join for all of them. Stages that meet only at a cell run as
// one cell-local chain (Engine::chain_sum_n): the opening A x, residual,
// preconditioner, p = z and <r, z>; every iteration's A p and <p, Ap>;
// and its x/r update, preconditioner and <r, z>. The operator leads its
// chain only when its launch split leaves no boundary shell.
//
// Inner products are volume-weighted and summed over components: the
// flux-form diffusion operators used by the solver are SPD in that inner
// product on the non-uniform spherical mesh.

#include <array>
#include <cstddef>
#include <string>
#include <tuple>
#include <vector>

#include "field/field.hpp"
#include "grid/local_grid.hpp"
#include "mpisim/comm.hpp"
#include "par/engine.hpp"
#include "par/function_ref.hpp"

namespace simas::solvers {

struct PcgOptions {
  real tol = 1.0e-9;  ///< preconditioned-residual reduction target
  int maxit = 200;
};

struct PcgResult {
  int iterations = 0;
  real relative_residual = 0.0;
  bool converged = false;
};

/// One field per component for every CG vector. All spans must have the
/// same length (the component count) and identical field shapes; solve()
/// throws std::invalid_argument otherwise.
struct PcgSystem {
  std::vector<field::Field*> x;   ///< solution (in: initial guess)
  std::vector<field::Field*> b;   ///< right-hand side
  std::vector<field::Field*> r;   ///< workspace: residual
  std::vector<field::Field*> p;   ///< workspace: search direction
  std::vector<field::Field*> ap;  ///< workspace: A p
  std::vector<field::Field*> z;   ///< workspace: preconditioned residual
};

/// The Jacobi preconditioner of a solve: z = precond(r, i, j, k) at each
/// cell, r the residual's value there; `reads` are the arrays outside the
/// system it reads (ρ and κ for conduction). Pcg declares {in(r),
/// in(reads)..., out(z)} at `site`.
template <std::size_t N, class Precond>
struct Jacobi {
  const par::KernelSite& site;
  Precond precond;
  std::array<gpusim::ArrayId, N> reads = {};

  std::array<par::Access, N + 2> access_of(const field::Field& r,
                                           const field::Field& z) const {
    std::array<par::Access, N + 2> acc;
    acc[0] = par::in(r.id());
    for (std::size_t a = 0; a < N; ++a) acc[a + 1] = par::in(reads[a]);
    acc[N + 1] = par::out(z.id());
    return acc;
  }
};
template <class Precond, class... Reads>
Jacobi(const par::KernelSite&, Precond, Reads...)
    -> Jacobi<sizeof...(Reads), Precond>;

/// The operator y = A x of an implicit solve as cell bodies, the routines
/// a parallel loop calls (`!$acc routine`, paper Table II; DESIGN.md §7).
/// halo(x) fills the ghosts of x the stencil reads and returns the launch
/// split (mhd::RadialSplit). `stencil` is a par::Sweep over (x, y, span),
/// span the declared extent of its reads of x, and `post` a tuple of
/// par::Sweeps over (x, y) run after it at each cell.
template <class Halo, class Stencil, class J, class Post = std::tuple<>>
struct Operator {
  Halo halo;
  Stencil stencil;
  J jacobi;
  Post post = {};
};

class Pcg {
 public:
  using Fields = std::vector<field::Field*>;

  /// `name` labels this solver's captured graphs (one solver instance per
  /// name when EngineConfig::graph_replay is on, so that e.g. viscosity
  /// and conduction solves do not invalidate each other's captures).
  Pcg(par::Engine& engine, mpisim::Comm& comm, const grid::LocalGrid& lg,
      std::string name = "pcg");

  /// Solve A x = b with the Jacobi-preconditioned operator `op`. Stops as
  /// not converged at the first non-finite <r, z> or <p, Ap>, and at a
  /// <p, Ap> that is not positive.
  template <class Op>
  PcgResult solve(const Op& op, PcgSystem& sys, const PcgOptions& opts);

 private:
  struct Sites {
    const par::KernelSite& residual;
    const par::KernelSite& update_x_r;
    const par::KernelSite& update_p;
    const par::KernelSite& init_p;
    const par::KernelSite& dot;
  };
  static const Sites& sites();

  /// The range every vector of `sys` covers; throws std::invalid_argument
  /// on an inconsistent system, before any op is issued.
  static par::Range3 interior(const PcgSystem& sys);

  /// The local sum of <a, b>: one ReduceOp per component.
  static auto dot_sweep(const Fields& a, const Fields& b,
                        const grid::Metric& mt) {
    return par::Sweep{
        sites().dot,
        [&](int c) {
          return std::array{par::in(a[c]->id()), par::in(b[c]->id())};
        },
        [&](int c) {
          return [&fa = *a[c], &fb = *b[c], &mt](idx i, idx j, idx k) -> real {
            return fa(i, j, k) * fb(i, j, k) * mt.vol(i, j);
          };
        }};
  }

  /// y = A x, then the chain `then` (stages, then a sum); returns the
  /// global sum. With no boundary shell the stencil and post stages lead
  /// the chain, which is legal because no stage writes x, the array the
  /// stencil reads through neighbours; otherwise they launch on their own.
  /// The split is static per run, so every iteration emits the same ops
  /// (graph capture).
  template <class Op, class... Then>
  real apply_then(const Op& op, const Fields& x, const Fields& y,
                  par::Range3 range, const Then&... then) {
    const int n = static_cast<int>(x.size());
    auto split = op.halo(x);
    const auto on_xy = [&](const auto& st, auto... span) {
      return par::Sweep{
          st.site,
          [&, span...](int c) { return st.access_of(*x[c], *y[c], span...); },
          [&](int c) { return st.body_of(*x[c], *y[c]); }};
    };
    return comm_.allreduce_sum(std::apply(
        [&](const auto&... post) {
          if (!split.has_shell())
            return eng_.chain_sum_n(range, n, on_xy(op.stencil, split.span()),
                                    on_xy(post)..., then...);
          split.apply(op.stencil, x, y);
          (eng_.for_each_n(post.site, range, n, on_xy(post).access_of,
                           on_xy(post).body_of),
           ...);
          return eng_.chain_sum_n(range, n, then...);
        },
        op.post));
  }

  /// The iteration, given the solve's three chains: open() runs Ap = A x,
  /// r = b - Ap, z = M^{-1} r and p = z and returns the global <r, z>;
  /// pap() runs Ap = A p and returns the global <p, Ap>; tail(alpha) runs
  /// x += alpha p, r -= alpha Ap and z = M^{-1} r and returns <r, z>.
  PcgResult iterate(PcgSystem& sys, const PcgOptions& opts, par::Range3 range,
                    par::FunctionRef<real()> open,
                    par::FunctionRef<real()> pap,
                    par::FunctionRef<real(real)> tail);

  par::Engine& eng_;
  mpisim::Comm& comm_;
  const grid::LocalGrid& lg_;
  std::string name_;
};

template <class Op>
PcgResult Pcg::solve(const Op& op, PcgSystem& sys, const PcgOptions& opts) {
  const par::Range3 range = interior(sys);
  const Sites& site = sites();
  const auto& pc = op.jacobi;
  const auto precondition = par::Sweep{
      pc.site, [&](int c) { return pc.access_of(*sys.r[c], *sys.z[c]); },
      [&](int c) {
        return [&r = *sys.r[c], &z = *sys.z[c], &pc](idx i, idx j, idx k) {
          z(i, j, k) = pc.precond(r(i, j, k), i, j, k);
        };
      }};
  const auto rz = dot_sweep(sys.r, sys.z, lg_.metric());
  const auto open = [&] {
    const auto residual = par::Sweep{
        site.residual,
        [&](int c) {
          return std::array{par::in(sys.b[c]->id()), par::in(sys.ap[c]->id()),
                            par::out(sys.r[c]->id())};
        },
        [&](int c) {
          return [&b = *sys.b[c], &ap = *sys.ap[c],
                  &r = *sys.r[c]](idx i, idx j, idx k) {
            r(i, j, k) = b(i, j, k) - ap(i, j, k);
          };
        }};
    const auto init_p = par::Sweep{
        site.init_p,
        [&](int c) {
          return std::array{par::in(sys.z[c]->id()), par::out(sys.p[c]->id())};
        },
        [&](int c) {
          return [&z = *sys.z[c], &p = *sys.p[c]](idx i, idx j, idx k) {
            p(i, j, k) = z(i, j, k);
          };
        }};
    return apply_then(op, sys.x, sys.ap, range, residual, precondition,
                      init_p, rz);
  };
  const auto pap = [&] {
    return apply_then(op, sys.p, sys.ap, range,
                      dot_sweep(sys.p, sys.ap, lg_.metric()));
  };
  const auto tail = [&](real alpha) {
    const auto update_x_r = par::Sweep{
        site.update_x_r,
        [&](int c) {
          return std::array{par::in(sys.p[c]->id()), par::in(sys.ap[c]->id()),
                            par::in(sys.x[c]->id()), par::out(sys.x[c]->id()),
                            par::in(sys.r[c]->id()), par::out(sys.r[c]->id())};
        },
        [&](int c) {
          return [&x = *sys.x[c], &r = *sys.r[c], &p = *sys.p[c],
                  &ap = *sys.ap[c], alpha](idx i, idx j, idx k) {
            x(i, j, k) += alpha * p(i, j, k);
            r(i, j, k) -= alpha * ap(i, j, k);
          };
        }};
    return comm_.allreduce_sum(eng_.chain_sum_n(
        range, static_cast<int>(sys.x.size()), update_x_r, precondition, rz));
  };
  return iterate(sys, opts, range, open, pap, tail);
}

}  // namespace simas::solvers
