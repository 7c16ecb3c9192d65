#pragma once
// Equation-of-state helpers (normalized ideal gas, p = ρT).

#include <algorithm>
#include <cmath>

#include "util/types.hpp"

namespace simas::mhd {

inline real pressure(real rho, real temp) { return rho * temp; }

/// Adiabatic sound speed squared.
inline real sound_speed2(real gamma, real temp) { return gamma * temp; }

/// Alfvén speed squared from the field magnitude squared.
inline real alfven_speed2(real b2, real rho) { return b2 / rho; }

/// Fast magnetosonic speed bound (cs² + vA² overestimate, as used in the
/// CFL computation). Density is floored at 1e-12 and temperature and b2 at
/// 0; a NaN input passes through.
inline real fast_speed(real gamma, real temp, real b2, real rho) {
  const real r = std::max<real>(rho, 1.0e-12);
  const real t = std::max<real>(temp, 0.0);
  return std::sqrt(sound_speed2(gamma, t) +
                   alfven_speed2(std::max<real>(b2, 0.0), r));
}

}  // namespace simas::mhd
