#pragma once
// Common fixed-width type aliases and small helpers used across SIMAS.

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace simas {

using i32 = std::int32_t;
using i64 = std::int64_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// Floating-point type for all field data. MAS runs in double precision.
using real = double;

/// Index type for grid loops (signed, so that reverse loops and
/// differences are well-defined).
using idx = std::int64_t;

inline constexpr real kPi = 3.14159265358979323846;

/// Integer ceiling division for non-negative operands.
constexpr i64 ceil_div(i64 a, i64 b) { return (a + b - 1) / b; }

/// max(acc, v) that never drops a NaN: a NaN `v` replaces `acc`, and a NaN
/// already in `acc` stays. (Plain `v > acc` and std::max discard a NaN
/// `v`; `!(v <= acc)` overwrites a NaN `acc`.)
inline real nan_max(real acc, real v) {
  return (v > acc || std::isnan(v)) ? v : acc;
}

/// Square helper (clearer than std::pow(x, 2) in stencil code).
constexpr real sq(real x) { return x * x; }

}  // namespace simas
