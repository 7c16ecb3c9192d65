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
// and a dot adds the component partial sums in component order.
//
// The operator callback must fill any ghost values it needs (rank halos,
// periodic wraps). Inner products are volume-weighted and summed over
// components: the flux-form diffusion operators used by the solver are SPD
// in that inner product on the non-uniform spherical mesh.

#include <functional>
#include <string>
#include <vector>

#include "field/field.hpp"
#include "grid/local_grid.hpp"
#include "mpisim/comm.hpp"
#include "par/engine.hpp"

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

class Pcg {
 public:
  using Fields = std::vector<field::Field*>;
  /// y[c] = A(x)[c] for every component; may read ghosts of x after
  /// filling them (one fused exchange for all components).
  using ApplyFn = std::function<void(const Fields& x, const Fields& y)>;
  /// z[c] = M^{-1} r[c] (pointwise; no ghosts needed).
  using PrecondFn = std::function<void(const Fields& r, const Fields& z)>;

  /// `name` labels this solver's captured graphs (one solver instance per
  /// name when EngineConfig::graph_replay is on, so that e.g. viscosity
  /// and conduction solves do not invalidate each other's captures).
  Pcg(par::Engine& engine, mpisim::Comm& comm, const grid::LocalGrid& lg,
      std::string name = "pcg");

  PcgResult solve(const ApplyFn& apply, const PrecondFn& precond,
                  PcgSystem& sys, const PcgOptions& opts);

  /// Volume-weighted global dot product summed over components
  /// (one allreduce).
  real dot(const Fields& a, const Fields& b);

 private:
  par::Engine& eng_;
  mpisim::Comm& comm_;
  const grid::LocalGrid& lg_;
  std::string name_;
};

}  // namespace simas::solvers
