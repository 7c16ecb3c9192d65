#include "par/graph_cache.hpp"

namespace simas::par {

const CapturedGraph* GraphCache::find(const std::string& scope,
                                      const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key(scope, name));
  if (it == map_.end()) {
    stats_.misses++;
    return nullptr;
  }
  stats_.hits++;
  return it->second.get();
}

bool GraphCache::publish(const std::string& scope,
                         const CapturedGraph& graph) {
  if (!graph.captured()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      map_.try_emplace(key(scope, graph.name()), nullptr);
  if (!inserted) {
    stats_.duplicates++;
    return false;
  }
  it->second = std::make_unique<CapturedGraph>(graph);
  stats_.publishes++;
  return true;
}

GraphCache::Stats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace simas::par
