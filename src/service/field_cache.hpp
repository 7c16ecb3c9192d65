#pragma once
// Shared read-only cache of PFSS boundary-field solutions.
//
// The PFSS initialization is a pure function of (BoundaryConfig, grid,
// rank decomposition) — see run::boundary_surface_br — so two
// jobs with the same boundary data need only one PCG solve: the first job
// extracts the solved field's raw per-rank bytes, subsequent jobs inject
// them (bit-identical; the kernels then execute on byte-equal arrays).
// Entries are immutable once published and held by shared_ptr, so a job
// may keep reading an entry while the cache grows; publication is
// first-wins, concurrent duplicate solves race benignly.

#include <memory>
#include <mutex>
#include <unordered_map>

#include "run/run_experiment.hpp"
#include "util/types.hpp"

namespace simas::service {

class FieldCache {
 public:
  struct Stats {
    i64 hits = 0;
    i64 misses = 0;
    i64 inserts = 0;
    i64 duplicates = 0;  ///< inserts dropped (first publisher won)
  };

  /// Cache key for the boundary data an experiment config implies:
  /// boundary content hash combined with the grid and rank decomposition
  /// the per-rank field arrays depend on.
  static u64 key_for(const run::ExperimentConfig& cfg);

  /// Published entry for `key`, or nullptr (counted as hit/miss).
  std::shared_ptr<const run::BoundaryFields> find(u64 key);

  /// Publish a solved field set; first-wins. Returns the canonical entry
  /// (the argument if this call won, the earlier entry otherwise).
  std::shared_ptr<const run::BoundaryFields> insert(
      u64 key, run::BoundaryFields&& fields);

  std::size_t size() const;
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<u64, std::shared_ptr<const run::BoundaryFields>> map_;
  Stats stats_;
};

}  // namespace simas::service
