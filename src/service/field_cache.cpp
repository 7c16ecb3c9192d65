#include "service/field_cache.hpp"

#include <type_traits>
#include <utility>

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

std::shared_ptr<const run::BoundaryFields> FieldCache::find(u64 key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    stats_.misses++;
    return nullptr;
  }
  stats_.hits++;
  return it->second;
}

std::shared_ptr<const run::BoundaryFields> FieldCache::insert(
    u64 key, run::BoundaryFields&& fields) {
  auto entry = std::make_shared<const run::BoundaryFields>(std::move(fields));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = map_.try_emplace(key, std::move(entry));
  if (inserted)
    stats_.inserts++;
  else
    stats_.duplicates++;
  return it->second;
}

std::size_t FieldCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

FieldCache::Stats FieldCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace simas::service
