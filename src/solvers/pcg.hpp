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
// (Engine::for_each_n / reduce_sum_n): the op stream still carries one op
// per component, but the components run as one host job with one join,
// and a dot adds the component partial sums in component order. The
// stages that meet only at a cell run as one cell-local chain
// (Engine::chain_sum_n), one host job each: the opening residual,
// preconditioner, p = z and <r, z>, and every iteration's x/r update,
// preconditioner and <r, z>.
//
// The operator callback must fill any ghost values it needs (rank halos,
// periodic wraps). Inner products are volume-weighted and summed over
// components: the flux-form diffusion operators used by the solver are SPD
// in that inner product on the non-uniform spherical mesh.

#include <array>
#include <functional>
#include <string>
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

/// The pointwise Jacobi preconditioner z = M^{-1} r of a solve, as a cell
/// body: its site, access_of(r, z), one component's access list, and
/// body_of(r, z), that component's cell body (i, j, k). Pcg::solve runs
/// it inside its cell-local chains (Engine::chain_sum_n), so the body may
/// read r (written earlier in the chain) only at its own cell, and writes
/// z there; arrays outside the system (ρ, κ) it may read freely.
template <class AccessOf, class BodyOf>
struct Jacobi {
  const par::KernelSite& site;
  AccessOf access_of;
  BodyOf body_of;
};
template <class AccessOf, class BodyOf>
Jacobi(const par::KernelSite&, AccessOf, BodyOf) -> Jacobi<AccessOf, BodyOf>;

class Pcg {
 public:
  using Fields = std::vector<field::Field*>;
  /// y[c] = A(x)[c] for every component; may read ghosts of x after
  /// filling them (one fused exchange for all components).
  using ApplyFn = std::function<void(const Fields& x, const Fields& y)>;

  /// `name` labels this solver's captured graphs (one solver instance per
  /// name when EngineConfig::graph_replay is on, so that e.g. viscosity
  /// and conduction solves do not invalidate each other's captures).
  Pcg(par::Engine& engine, mpisim::Comm& comm, const grid::LocalGrid& lg,
      std::string name = "pcg");

  /// Solve with a Jacobi preconditioner. Stops as not converged at the
  /// first non-finite <r, z> or <p, Ap>, and at a <p, Ap> that is not
  /// positive.
  template <class AccessOf, class BodyOf>
  PcgResult solve(const ApplyFn& apply, const Jacobi<AccessOf, BodyOf>& pc,
                  PcgSystem& sys, const PcgOptions& opts);

  /// Volume-weighted global dot product summed over components
  /// (one allreduce).
  real dot(const Fields& a, const Fields& b);

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

  /// The iteration, given the solve's two chains: open() runs r = b - Ap
  /// (Ap = A x), z = M^{-1} r and p = z, and tail(alpha) runs x += alpha
  /// p, r -= alpha Ap and z = M^{-1} r; each returns the global <r, z>.
  PcgResult iterate(const ApplyFn& apply, PcgSystem& sys,
                    const PcgOptions& opts, par::Range3 range,
                    par::FunctionRef<real()> open,
                    par::FunctionRef<real(real)> tail);

  par::Engine& eng_;
  mpisim::Comm& comm_;
  const grid::LocalGrid& lg_;
  std::string name_;
};

template <class AccessOf, class BodyOf>
PcgResult Pcg::solve(const ApplyFn& apply,
                     const Jacobi<AccessOf, BodyOf>& pc, PcgSystem& sys,
                     const PcgOptions& opts) {
  const par::Range3 range = interior(sys);
  const int n = static_cast<int>(sys.x.size());
  const Sites& site = sites();
  const auto precondition = par::Sweep{
      pc.site, [&](int c) { return pc.access_of(*sys.r[c], *sys.z[c]); },
      [&](int c) { return pc.body_of(*sys.r[c], *sys.z[c]); }};
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
    return comm_.allreduce_sum(
        eng_.chain_sum_n(range, n, residual, precondition, init_p, rz));
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
    return comm_.allreduce_sum(
        eng_.chain_sum_n(range, n, update_x_r, precondition, rz));
  };
  return iterate(apply, sys, opts, range, open, tail);
}

}  // namespace simas::solvers
