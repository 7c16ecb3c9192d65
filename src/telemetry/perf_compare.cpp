#include "telemetry/perf_compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace simas::telemetry {

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative two-pointer match with star backtracking.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

void flatten_into(const json::Value& v, const std::string& prefix,
                  std::vector<std::pair<std::string, double>>* out) {
  switch (v.kind()) {
    case json::Kind::Number:
      out->emplace_back(prefix, v.as_number());
      break;
    case json::Kind::Object:
      for (const auto& [key, member] : v.as_object()) {
        flatten_into(member, prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    case json::Kind::Array: {
      std::size_t i = 0;
      for (const json::Value& elem : v.as_array()) {
        flatten_into(elem, prefix + "[" + std::to_string(i) + "]", out);
        ++i;
      }
      break;
    }
    default:
      break;  // bool / string / null: not perf metrics
  }
}

}  // namespace

std::vector<std::pair<std::string, double>> flatten_numeric(
    const json::Value& v) {
  std::vector<std::pair<std::string, double>> out;
  flatten_into(v, "", &out);
  return out;
}

std::vector<ToleranceRule> parse_rules(const json::Value& v,
                                       std::string* err) {
  std::vector<ToleranceRule> rules;
  const json::Value* list = v.find("rules");
  if (list == nullptr || !list->is_array()) {
    if (err != nullptr) *err = "tolerance spec must be {\"rules\": [...]}";
    return {};
  }
  for (const json::Value& item : list->as_array()) {
    if (!item.is_object()) {
      if (err != nullptr) *err = "rule entries must be objects";
      return {};
    }
    ToleranceRule rule;
    bool has_pattern = false;
    for (const auto& [key, val] : item.as_object()) {
      if (key == "pattern" && val.is_string()) {
        rule.pattern = val.as_string();
        has_pattern = true;
      } else if (key == "rel" && val.is_number()) {
        rule.rel = val.as_number();
      } else if (key == "skip" && val.is_bool()) {
        rule.skip = val.as_bool();
      } else if (key == "comment") {
        // annotation only
      } else {
        if (err != nullptr) *err = "unknown or mistyped rule key: " + key;
        return {};
      }
    }
    if (!has_pattern) {
      if (err != nullptr) *err = "every rule needs a \"pattern\" string";
      return {};
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

namespace {

const ToleranceRule* first_match(std::span<const ToleranceRule> rules,
                                 const std::string& path) {
  for (const ToleranceRule& r : rules)
    if (glob_match(r.pattern, path)) return &r;
  return nullptr;
}

bool within_tolerance(double base, double cur, const ToleranceRule* rule) {
  const double rel_tol = rule != nullptr ? rule->rel : 0.0;
  const double mag = std::abs(cur - base);
  if (mag == 0.0) return true;
  const double denom = std::max(std::abs(base), 1e-300);
  return mag / denom <= rel_tol;
}

}  // namespace

Comparison compare(const json::Value& baseline, const json::Value& current,
                   std::span<const ToleranceRule> rules) {
  Comparison cmp;
  const auto base_leaves = flatten_numeric(baseline);
  const auto cur_leaves = flatten_numeric(current);

  const auto find_leaf =
      [](const std::vector<std::pair<std::string, double>>& leaves,
         const std::string& path) -> const double* {
    for (const auto& [p, v] : leaves)
      if (p == path) return &v;
    return nullptr;
  };

  for (const auto& [path, base_v] : base_leaves) {
    MetricDiff row;
    row.path = path;
    row.baseline = base_v;
    const ToleranceRule* rule = first_match(rules, path);
    if (rule != nullptr) row.rule = rule->pattern;
    const double* cur_v = find_leaf(cur_leaves, path);
    if (rule != nullptr && rule->skip) {
      row.skipped = true;
      row.current = cur_v != nullptr ? *cur_v : 0.0;
      row.note = "skipped by rule";
    } else if (cur_v == nullptr) {
      row.failed = true;
      row.note = "missing in current";
    } else {
      row.current = *cur_v;
      row.failed = !within_tolerance(base_v, *cur_v, rule);
    }
    if (row.failed) ++cmp.failures;
    cmp.rows.push_back(std::move(row));
  }

  // New leaves: informational only — the baseline ratchets forward by
  // being regenerated, not by failing on additions.
  for (const auto& [path, cur_v] : cur_leaves) {
    if (find_leaf(base_leaves, path) != nullptr) continue;
    MetricDiff row;
    row.path = path;
    row.current = cur_v;
    row.note = "new metric (not in baseline)";
    cmp.rows.push_back(std::move(row));
  }
  return cmp;
}

void Comparison::print(std::ostream& os) const {
  const auto emit = [&os](const MetricDiff& r) {
    const char* verdict = r.failed ? "FAIL" : (r.skipped ? "skip" : "ok");
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  [%-4s] %-48s base=%-14.8g cur=%-14.8g",
                  verdict, r.path.c_str(), r.baseline, r.current);
    os << buf;
    if (!r.rule.empty()) os << "  rule=" << r.rule;
    if (!r.note.empty()) os << "  (" << r.note << ")";
    os << '\n';
  };
  if (failures > 0) {
    os << "perf regression: " << failures << " metric(s) out of tolerance\n";
    for (const MetricDiff& r : rows)
      if (r.failed) emit(r);
    os << "full comparison:\n";
  } else {
    os << "perf check passed: " << rows.size() << " metric(s) compared\n";
  }
  for (const MetricDiff& r : rows)
    if (!r.failed || failures == 0) emit(r);
}

void Comparison::print_summary(std::ostream& os, std::size_t top_n) const {
  if (failures == 0) return;
  std::vector<const MetricDiff*> failed;
  for (const MetricDiff& r : rows)
    if (r.failed) failed.push_back(&r);
  const auto rel_delta = [](const MetricDiff& r) {
    return std::abs(r.current - r.baseline) /
           std::max(std::abs(r.baseline), 1e-300);
  };
  std::sort(failed.begin(), failed.end(),
            [&](const MetricDiff* a, const MetricDiff* b) {
              return rel_delta(*a) > rel_delta(*b);
            });
  const std::size_t shown = std::min(top_n, failed.size());
  os << "== perf summary: top " << shown << " of " << failed.size()
     << " regression(s) by relative delta ==\n";
  char buf[224];
  std::snprintf(buf, sizeof(buf), "  %-48s %14s %14s %12s  %s\n", "metric",
                "baseline", "current", "delta", "rule");
  os << buf;
  for (std::size_t i = 0; i < shown; ++i) {
    const MetricDiff& r = *failed[i];
    if (!r.note.empty() && r.note == "missing in current") {
      std::snprintf(buf, sizeof(buf), "  %-48s %14.8g %14s %12s  %s\n",
                    r.path.c_str(), r.baseline, "(missing)", "-",
                    r.rule.empty() ? "(exact)" : r.rule.c_str());
    } else {
      const double delta = r.current - r.baseline;
      char delta_s[40];
      std::snprintf(delta_s, sizeof(delta_s), "%+.3g (%+.2f%%)", delta,
                    100.0 * delta /
                        std::max(std::abs(r.baseline), 1e-300));
      std::snprintf(buf, sizeof(buf), "  %-48s %14.8g %14.8g %12s  %s\n",
                    r.path.c_str(), r.baseline, r.current, delta_s,
                    r.rule.empty() ? "(exact)" : r.rule.c_str());
    }
    os << buf;
  }
  if (failed.size() > shown)
    os << "  ... " << (failed.size() - shown) << " more (full list above)\n";
}

}  // namespace simas::telemetry
