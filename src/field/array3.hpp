#pragma once
// 3-D array with ghost layers, i-fastest layout (matching the Fortran MAS
// loop order `do k / do j / do i`). Indexing accepts i in [-g, n1+g) etc.;
// the interior is [0, n1) x [0, n2) x [0, n3).
//
// The accessor comes in two build flavors from this one source. The
// production library (`simas`) compiles operator() to an offset and a
// load, which the compiler can inline into cell bodies and vectorize
// across. The checked library
// (`simas_checked`, which defines SIMAS_ELEMENT_SHADOW) adds the
// validator's element hook: each access is reported to an attached
// analysis::ShadowSlot (analysis/shadow.hpp) when validation is on.

#include <cstddef>
#include <vector>

#ifdef SIMAS_ELEMENT_SHADOW
#include "analysis/shadow.hpp"
#endif
#include "util/types.hpp"

namespace simas::field {

class Array3 {
 public:
  Array3() = default;
  Array3(idx n1, idx n2, idx n3, idx nghost = 0, real fill = 0.0);

  idx n1() const { return n1_; }
  idx n2() const { return n2_; }
  idx n3() const { return n3_; }
  idx nghost() const { return g_; }

  /// Total allocated elements (including ghosts).
  idx size() const { return static_cast<idx>(data_.size()); }
  i64 bytes() const { return size() * static_cast<i64>(sizeof(real)); }

  /// Stride between consecutive j at fixed (i,k): a flat offset's radial
  /// column is off % radial_stride() = i + nghost. Used by the validator's
  /// in-flight ghost tracking.
  std::size_t radial_stride() const { return s2_; }

#ifdef SIMAS_ELEMENT_SHADOW
  // Checked flavor: one strided offset plus a predictable not-taken
  // branch. shadow_ is non-null only under SIMAS_VALIDATE (element
  // tagging), so unvalidated runs pay a single compare-and-skip per
  // access; validated runs take the unlikely branch but stay
  // byte-identical in modeled time (the shadow never feeds the cost
  // model).
  real& operator()(idx i, idx j, idx k) {
    const std::size_t off = offset(i, j, k);
    if (shadow_ != nullptr) [[unlikely]] shadow_->note(off);
    return data_[off];
  }
  real operator()(idx i, idx j, idx k) const {
    const std::size_t off = offset(i, j, k);
    if (shadow_ != nullptr) [[unlikely]] shadow_->note(off);
    return data_[off];
  }
#else
  // Production flavor: one strided offset and a load.
  real& operator()(idx i, idx j, idx k) { return data_[offset(i, j, k)]; }
  real operator()(idx i, idx j, idx k) const { return data_[offset(i, j, k)]; }
#endif

  real* data() { return data_.data(); }
  const real* data() const { return data_.data(); }

  void fill(real v);

#ifdef SIMAS_ELEMENT_SHADOW
  /// Attach the validator's shadow slot (nullptr detaches). Accesses via
  /// data() bypass the shadow by design: raw-pointer I/O paths report
  /// through the MemoryManager access notes instead.
  void set_shadow(analysis::ShadowSlot* slot) { shadow_ = slot; }
#endif

  /// Interior-only L2 norm and max-abs (serial; used by tests/diagnostics).
  /// A NaN cell makes max_abs_interior NaN.
  real norm2_interior() const;
  real max_abs_interior() const;

 private:
  std::size_t offset(idx i, idx j, idx k) const {
    return static_cast<std::size_t>((i + g_) +
                                    s2_ * (j + g_) +
                                    s3_ * (k + g_));
  }

  idx n1_ = 0, n2_ = 0, n3_ = 0, g_ = 0;
  std::size_t s2_ = 0, s3_ = 0;
  std::vector<real> data_;
#ifdef SIMAS_ELEMENT_SHADOW
  analysis::ShadowSlot* shadow_ = nullptr;
#endif
};

}  // namespace simas::field
