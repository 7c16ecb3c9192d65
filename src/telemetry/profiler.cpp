#include "telemetry/profiler.hpp"

#include <algorithm>
#include <ostream>

#include "util/json.hpp"
#include "util/table.hpp"

namespace simas::telemetry {

SiteProfileSnapshot SiteProfiler::snapshot() const {
  SiteProfileSnapshot snap;
  for (const Entry& e : entries_) {
    if (e.site == nullptr) continue;
    SiteProfileRow row;
    row.name = e.site->name;
    row.kind = par::site_kind_name(e.site->kind);
    row.launches = e.launches;
    row.fused = e.fused;
    row.reductions = e.reductions;
    row.cells = e.cells;
    row.bytes = e.bytes;
    row.seconds = e.seconds;
    snap.rows.push_back(std::move(row));
  }
  return snap;
}

SiteProfileRow SiteProfiler::totals() const {
  SiteProfileRow sum;
  for (const Entry& e : entries_) {
    sum.launches += e.launches;
    sum.fused += e.fused;
    sum.reductions += e.reductions;
    sum.cells += e.cells;
    sum.bytes += e.bytes;
    sum.seconds += e.seconds;
  }
  return sum;
}

double SiteProfileSnapshot::total_seconds() const {
  double total = 0.0;
  for (const SiteProfileRow& r : rows) total += r.seconds;
  return total;
}

void SiteProfileSnapshot::merge_from(const SiteProfileSnapshot& other) {
  for (const SiteProfileRow& o : other.rows) {
    SiteProfileRow* mine = nullptr;
    for (SiteProfileRow& r : rows)
      if (r.name == o.name) {
        mine = &r;
        break;
      }
    if (mine == nullptr) {
      rows.push_back(o);
      continue;
    }
    mine->launches += o.launches;
    mine->fused += o.fused;
    mine->reductions += o.reductions;
    mine->cells += o.cells;
    mine->bytes += o.bytes;
    mine->seconds += o.seconds;
  }
}

namespace {

template <class Key>
std::vector<SiteProfileRow> top_by(const std::vector<SiteProfileRow>& rows,
                                   std::size_t n, Key key) {
  std::vector<SiteProfileRow> sorted = rows;
  std::sort(sorted.begin(), sorted.end(),
            [&](const SiteProfileRow& a, const SiteProfileRow& b) {
              if (key(a) != key(b)) return key(a) > key(b);
              return a.name < b.name;
            });
  if (sorted.size() > n) sorted.resize(n);
  return sorted;
}

}  // namespace

std::vector<SiteProfileRow> SiteProfileSnapshot::top_by_seconds(
    std::size_t n) const {
  return top_by(rows, n, [](const SiteProfileRow& r) { return r.seconds; });
}

std::vector<SiteProfileRow> SiteProfileSnapshot::top_by_launches(
    std::size_t n) const {
  return top_by(rows, n, [](const SiteProfileRow& r) {
    return static_cast<double>(r.launches + r.fused);
  });
}

void SiteProfileSnapshot::print(std::ostream& os, std::size_t top_n) const {
  const double total = total_seconds();
  Table table("hot spots: top " + std::to_string(top_n) +
              " kernel sites by modeled time");
  table.set_header({"site", "kind", "launches", "fused", "Mcells", "MB",
                    "seconds", "%"});
  for (const SiteProfileRow& r : top_by_seconds(top_n)) {
    table.row()
        .cell(r.name)
        .cell(r.kind)
        .cell(r.launches)
        .cell(r.fused)
        .cell(static_cast<double>(r.cells) * 1e-6, 2)
        .cell(static_cast<double>(r.bytes) / (1024.0 * 1024.0), 2)
        .cell(r.seconds, 6)
        .cell(total > 0.0 ? 100.0 * r.seconds / total : 0.0, 1);
  }
  table.print(os);
}

void SiteProfileSnapshot::write_json(std::ostream& os) const {
  json::Value arr{json::Value::Array{}};
  for (const SiteProfileRow& r : top_by_seconds(rows.size())) {
    json::Value row{json::Value::Object{}};
    row.set("site", json::Value(r.name));
    row.set("kind", json::Value(r.kind));
    row.set("launches", json::Value(static_cast<long long>(r.launches)));
    row.set("fused", json::Value(static_cast<long long>(r.fused)));
    row.set("cells", json::Value(static_cast<long long>(r.cells)));
    row.set("bytes", json::Value(static_cast<long long>(r.bytes)));
    row.set("modeled_seconds", json::Value(r.seconds));
    arr.push_back(std::move(row));
  }
  json::write(os, arr, 2);
}

}  // namespace simas::telemetry
