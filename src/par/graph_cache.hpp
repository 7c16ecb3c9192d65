#pragma once
// Cross-engine cache of captured graphs (par/stream.hpp CapturedGraph).
//
// A captured graph is a validated op sequence: site pointer + cell count
// per op. Sites are interned process-wide (par/site_table.hpp), so a
// graph captured by one engine replays verbatim in another engine of the
// *same shape* — same code version, device, grid slab and step structure
// — because both record identical op streams. The service layer keys the
// cache by an experiment shape string plus rank, so jobs of identical
// shape skip the capture pass entirely: their first PCG pass replays.
//
// Publication is first-wins: concurrent engines capturing the same scope
// race benignly (both captures are identical by construction; the second
// publish is dropped). Lookups copy the graph into the engine under the
// cache mutex — the engine then owns its copy and mutates it freely
// (invalidation on divergence stays engine-local and never poisons the
// cache).

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "par/stream.hpp"
#include "util/types.hpp"

namespace simas::par {

class GraphCache {
 public:
  struct Stats {
    i64 hits = 0;       ///< lookups that found a captured graph
    i64 misses = 0;     ///< lookups that found nothing
    i64 publishes = 0;  ///< graphs stored
    i64 duplicates = 0; ///< publishes dropped (first-wins)
  };

  /// Captured graph for (scope, name), or nullptr. The returned pointer
  /// stays valid for the cache's lifetime (entries are never removed).
  const CapturedGraph* find(const std::string& scope,
                            const std::string& name);

  /// Store a finished capture; returns false if an entry already exists
  /// (first publisher wins).
  bool publish(const std::string& scope, const CapturedGraph& graph);

  Stats stats() const;

 private:
  static std::string key(const std::string& scope, const std::string& name) {
    return scope + '\x1f' + name;
  }

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<CapturedGraph>> map_;
  Stats stats_;
};

}  // namespace simas::par
