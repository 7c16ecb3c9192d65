#include <array>

#include "mhd/operators.hpp"

namespace simas::mhd {

using par::SiteKind;

// Implicit viscous update: solve the single 3-component vector system
//   (I - dt ν ∇²) v = v*
// with Jacobi-preconditioned CG: one fused halo exchange and one global
// reduction per iteration for all components, exactly the viscosity-solver
// communication pattern the paper's Fig. 4 profiles.
int viscous_update(MhdContext& c, real dt) {
  State& st = c.st;
  if (c.phys.nu <= 0.0) return 0;
  const auto op = viscosity_operator(c, dt);
  const par::Range3 interior{0, st.nloc, 0, st.nt, 0, st.np};

  static const par::KernelSite& site_rhs =
      SIMAS_SITE("visc_build_rhs", SiteKind::ParallelLoop, 52);

  solvers::Pcg pcg(c.eng, c.comm, c.lg, "viscosity");

  // RHS = v* (current velocities); they also serve as the initial guess.
  std::vector<field::Field*> rhs{&st.wrk1, &st.wrk2, &st.wrk3};
  std::vector<field::Field*> unknowns = st.velocity_fields();
  c.eng.for_each_n(
      site_rhs, interior, static_cast<int>(unknowns.size()),
      [&](int comp) {
        return std::array{par::in(unknowns[comp]->id()),
                          par::out(rhs[comp]->id())};
      },
      [&](int comp) {
        return [&u = *unknowns[comp], &b = *rhs[comp]](idx i, idx j, idx k) {
          b(i, j, k) = u(i, j, k);
        };
      });

  solvers::PcgSystem sys{unknowns,         rhs,
                         st.pcg_r_vec(3),  st.pcg_p_vec(3),
                         st.pcg_ap_vec(3), st.pcg_z_vec(3)};
  const auto res = pcg.solve(op, sys, {c.phys.visc_tol, c.phys.visc_maxit});
  return res.converged ? res.iterations : -1;
}

}  // namespace simas::mhd
