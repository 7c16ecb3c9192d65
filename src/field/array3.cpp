#include "field/array3.hpp"

#include <algorithm>
#include <cmath>

namespace simas::field {

Array3::Array3(idx n1, idx n2, idx n3, idx nghost, real fill)
    : n1_(n1), n2_(n2), n3_(n3), g_(nghost) {
  const idx w1 = n1 + 2 * g_;
  const idx w2 = n2 + 2 * g_;
  const idx w3 = n3 + 2 * g_;
  s2_ = static_cast<std::size_t>(w1);
  s3_ = static_cast<std::size_t>(w1 * w2);
  data_.assign(static_cast<std::size_t>(w1 * w2 * w3), fill);
}

void Array3::fill(real v) { std::fill(data_.begin(), data_.end(), v); }

real Array3::norm2_interior() const {
  real acc = 0.0;
  for (idx k = 0; k < n3_; ++k)
    for (idx j = 0; j < n2_; ++j)
      for (idx i = 0; i < n1_; ++i) acc += sq((*this)(i, j, k));
  return std::sqrt(acc);
}

real Array3::max_abs_interior() const {
  real acc = 0.0;
  for (idx k = 0; k < n3_; ++k)
    for (idx j = 0; j < n2_; ++j)
      for (idx i = 0; i < n1_; ++i)
        acc = nan_max(acc, std::abs((*this)(i, j, k)));
  return acc;
}

}  // namespace simas::field
