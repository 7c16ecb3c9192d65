#pragma once
// Potential-field (PFSS-style) initializer.
//
// MAS production runs start from a potential magnetic field matching an
// observed photospheric radial-field map; the paper's related work cites
// POT3D, the CG-based solar potential-field solver that was itself an
// early `do concurrent` port. This module provides the same capability
// for SIMAS: solve the Laplace equation for a scalar potential Φ,
//
//     ∇²Φ = 0,  ∂Φ/∂r|_{r0} = -Br_surface(θ, φ),  Φ|_{r1} = 0
//     (source surface), zero-flux θ walls, periodic φ,
//
// with the same matrix-free Jacobi-PCG used by the implicit physics, then
// set the face magnetic field to B = -∇Φ. The resulting field is
// current-free and divergence-free to solver tolerance, and the
// constrained-transport induction update preserves that level thereafter.

#include <functional>

#include "mhd/ops.hpp"

namespace simas::mhd {

/// Prescribed radial field at the inner boundary, Br(θ, φ).
using SurfaceBrFn = std::function<real(real theta, real phi)>;

struct PfssResult {
  int iterations = 0;
  bool converged = false;
  real max_div_b = 0.0;  ///< discrete div B of the initialized field
};

/// Overwrite the state's magnetic field with the potential field matching
/// `surface_br`, using the PCG workspace fields in the state. Tolerance
/// and iteration cap come from `tol` / `maxit`.
PfssResult pfss_initialize(MhdContext& c, const SurfaceBrFn& surface_br,
                           real tol = 1.0e-9, int maxit = 500);

/// The PFSS operator y = -∇²x over the owned cells (pfss_operator,
/// operators.hpp), after exchanging x's radial halos and wrapping φ.
void pfss_laplacian(MhdContext& c, field::Field& x, field::Field& y);

/// Convenience: the dipole surface field Br = 2 b0 cosθ.
SurfaceBrFn dipole_surface_br(real b0);

}  // namespace simas::mhd
