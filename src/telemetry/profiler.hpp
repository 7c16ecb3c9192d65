#pragma once
// Hot-spot profiler: per-kernel-site aggregation of modeled time, launch
// counts, cells, and bytes — the reproduction of the paper's Tables 1–3
// methodology ("which kernels dominate, per code version") as a queryable
// artifact instead of an eyeballed timeline. It is also the store of
// record for per-kernel counts: the engine.* launch, loop, fusion,
// reduction and byte totals are its column sums (SiteProfiler::totals).
//
// The Engine's accounting (Engine::charge) feeds every charged kernel op
// into SiteProfiler::record; the hot path is a single indexed accumulate
// into a vector keyed by the KernelSite's registry id (the vector grows
// only when a new site first appears, so the steady-state launch path
// stays allocation-free). Reports are taken as SiteProfileSnapshot:
// mergeable across ranks, sortable by modeled seconds or launches,
// printable as a table and exportable as BENCH_profile.json.

#include <iosfwd>
#include <string>
#include <vector>

#include "par/kernel_site.hpp"
#include "util/types.hpp"

namespace simas::telemetry {

struct SiteProfileRow {
  std::string name;
  std::string kind;
  i64 launches = 0;   ///< launches issued for this site (fused ones excluded)
  i64 fused = 0;      ///< loops merged into a preceding launch
  i64 reductions = 0; ///< launches that were scalar or array reductions
  i64 cells = 0;      ///< logical iteration-space cells executed
  i64 bytes = 0;      ///< logical bytes touched (run scale)
  double seconds = 0.0;  ///< modeled seconds charged (launch + traffic)
};

struct SiteProfileSnapshot {
  std::vector<SiteProfileRow> rows;

  double total_seconds() const;
  /// Fold another rank's profile into this one (matched by site name).
  void merge_from(const SiteProfileSnapshot& other);
  /// Rows sorted by modeled seconds, descending (ties by name).
  std::vector<SiteProfileRow> top_by_seconds(std::size_t n) const;
  std::vector<SiteProfileRow> top_by_launches(std::size_t n) const;

  /// Human-readable top-N table ("hot spots by modeled time").
  void print(std::ostream& os, std::size_t top_n = 10) const;
  /// JSON array of every row (sorted by seconds descending).
  void write_json(std::ostream& os) const;
};

class SiteProfiler {
 public:
  /// Account one charged kernel op. `fused` marks a loop merged into the
  /// previous launch (no launch of its own); `reduction` a scalar or
  /// array reduction (never fused). Hot path: O(1) indexed adds.
  void record(const par::KernelSite& site, double seconds, i64 cells,
              i64 bytes, bool fused, bool reduction) {
    const std::size_t id = static_cast<std::size_t>(site.id);
    if (id >= entries_.size()) entries_.resize(id + 1);
    Entry& e = entries_[id];
    e.site = &site;
    if (fused)
      e.fused++;
    else
      e.launches++;
    if (reduction) e.reductions++;
    e.cells += cells;
    e.bytes += bytes;
    e.seconds += seconds;
  }

  SiteProfileSnapshot snapshot() const;
  /// Column sums over every site (name and kind left empty).
  SiteProfileRow totals() const;

 private:
  struct Entry {
    const par::KernelSite* site = nullptr;  ///< null = id never seen
    i64 launches = 0, fused = 0, reductions = 0, cells = 0, bytes = 0;
    double seconds = 0.0;
  };
  std::vector<Entry> entries_;  ///< indexed by KernelSite::id
};

}  // namespace simas::telemetry
