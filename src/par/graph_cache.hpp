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
// Publication is first-wins (util/first_wins_store.hpp): concurrent
// engines capturing the same scope race benignly (both captures are
// identical by construction; the second publish is dropped). Only
// finalized captures are published. A lookup hands out a shared pointer
// to the immutable entry; the engine copies it into its own graph outside
// the cache mutex and then mutates that copy freely (invalidation on
// divergence stays engine-local and never poisons the cache).

#include <string>

#include "par/stream.hpp"
#include "util/first_wins_store.hpp"

namespace simas::par {

class GraphCache : public FirstWinsStore<std::string, CapturedGraph> {
 public:
  /// Entry key of graph `name` captured under engine scope `scope`
  /// (EngineConfig::graph_cache_scope).
  static std::string key(const std::string& scope, const std::string& name) {
    return scope + '\x1f' + name;
  }
};

}  // namespace simas::par
