#pragma once
// First-wins, append-only, thread-safe store of immutable shared entries:
// the one implementation behind the service layer's cross-job caches
// (service::FieldCache, par::GraphCache).
//
// Entries are published once and never replaced or removed. A reader gets
// a shared pointer to the immutable entry and keeps it valid however the
// store grows; nothing is copied under the mutex. Concurrent publishers
// of one key race benignly: the first wins, later ones are counted as
// duplicates and handed the winner.

#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/types.hpp"

namespace simas {

struct FirstWinsStats {
  i64 hits = 0;        ///< find() calls that found an entry
  i64 misses = 0;      ///< find() calls that found nothing
  i64 publishes = 0;   ///< entries stored
  i64 duplicates = 0;  ///< publishes dropped (first publisher won)
};

template <class Key, class V>
class FirstWinsStore {
 public:
  /// Published entry for `key`, or nullptr (counted as a hit or a miss).
  std::shared_ptr<const V> find(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      stats_.misses++;
      return nullptr;
    }
    stats_.hits++;
    return it->second;
  }

  /// Publish `value` under `key`; first-wins. Returns the canonical entry
  /// (the new one if this call won, the earlier one otherwise).
  std::shared_ptr<const V> publish(const Key& key, V value) {
    auto entry = std::make_shared<const V>(std::move(value));
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = map_.try_emplace(key, std::move(entry));
    if (inserted)
      stats_.publishes++;
    else
      stats_.duplicates++;
    return it->second;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  FirstWinsStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<const V>> map_;
  FirstWinsStats stats_;
};

}  // namespace simas
