#pragma once
// Perf-regression comparator: diff a freshly produced BENCH_*.json against
// a checked-in baseline under per-metric tolerances.
//
// Both files are arbitrary JSON; every numeric leaf is flattened to a
// dotted path ("points[0].wall_minutes_sync", "counters.kernel_launches")
// and matched against an ordered rule list. Rules are glob patterns
// (`*` any run, `?` one char) with first-match-wins semantics:
//
//   {"rules": [
//     {"pattern": "*host_seconds*", "skip": true},
//     {"pattern": "*.wall_minutes*", "rel": 0.02},
//     {"pattern": "*", "rel": 0.0}
//   ]}
//
// `rel` gives the allowed relative deviation, in either direction;
// `skip` exempts noisy metrics (host wall-clock). A leaf with no matching
// rule must match exactly; a baseline leaf missing from the current run
// is a failure, a new leaf in the current run is reported but never
// fails (baselines ratchet forward by being regenerated).
//
// SIMAS's modeled clocks are deterministic across machines and thread
// counts, so baselines are portable and most tolerances can be zero.

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace simas::telemetry {

struct ToleranceRule {
  std::string pattern;              ///< glob over the flattened leaf path
  double rel = 0.0;                 ///< max |cur-base| / max(|base|, eps)
  bool skip = false;                ///< exempt entirely (noisy metric)
};

/// `*` matches any run (including empty), `?` exactly one character.
bool glob_match(std::string_view pattern, std::string_view text);

/// Depth-first flatten of every numeric leaf (objects -> ".key",
/// arrays -> "[i]"); bools/strings/nulls are ignored.
std::vector<std::pair<std::string, double>> flatten_numeric(
    const json::Value& v);

/// Parse {"rules": [...]} (unknown keys rejected). Returns empty and sets
/// *err on malformed input.
std::vector<ToleranceRule> parse_rules(const json::Value& v,
                                       std::string* err);

struct MetricDiff {
  std::string path;
  double baseline = 0.0;
  double current = 0.0;
  std::string rule;     ///< pattern that matched ("" = exact-match default)
  bool skipped = false;
  bool failed = false;
  std::string note;     ///< "missing in current", "new metric", ...
};

struct Comparison {
  std::vector<MetricDiff> rows;
  std::size_t failures = 0;

  bool ok() const { return failures == 0; }
  /// Full report: every compared leaf with verdicts, failures up top.
  void print(std::ostream& os) const;
  /// Human-readable digest of the worst regressions: the top-N failed
  /// leaves sorted by relative delta, as an aligned table (metric,
  /// baseline, current, delta, matched rule). No-op when nothing failed —
  /// this is the "what do I look at first" view for a red CI run.
  void print_summary(std::ostream& os, std::size_t top_n = 10) const;
};

Comparison compare(const json::Value& baseline, const json::Value& current,
                   std::span<const ToleranceRule> rules);

}  // namespace simas::telemetry
