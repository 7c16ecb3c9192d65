#include "service/field_cache.hpp"

#include <type_traits>

namespace simas::service {

namespace {

inline u64 mix(u64 h, u64 v) {
  // splitmix64 finalizer over the running hash — cheap and well mixed for
  // the handful of fields involved.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

template <class T>
inline u64 bits_of(T v) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(u64));
  u64 out = 0;
  __builtin_memcpy(&out, &v, sizeof(v));
  return out;
}

}  // namespace

u64 FieldCache::key_for(const run::ExperimentConfig& cfg) {
  u64 h = cfg.boundary.hash();
  h = mix(h, static_cast<u64>(cfg.grid.nr));
  h = mix(h, static_cast<u64>(cfg.grid.nt));
  h = mix(h, static_cast<u64>(cfg.grid.np));
  h = mix(h, bits_of(cfg.grid.r_stretch));
  h = mix(h, static_cast<u64>(cfg.nranks));
  return h;
}

}  // namespace simas::service
