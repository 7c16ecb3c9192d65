#include "telemetry/span_tree.hpp"

#include <cmath>
#include <cstdio>

namespace simas::telemetry {

const PhaseTotals* JobSpanRecord::wall_phases() const {
  const PhaseTotals* worst = nullptr;
  for (const RankSpan& r : ranks) {
    if (worst == nullptr || r.phases.modeled_seconds > worst->modeled_seconds)
      worst = &r.phases;
  }
  return worst;
}

double JobSpanRecord::modeled_wall_seconds() const {
  const PhaseTotals* p = wall_phases();
  return p == nullptr ? 0.0 : p->modeled_seconds;
}

bool JobSpanRecord::complete(double rel, std::string* why) const {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = "job " + std::to_string(job_id) + " (" + name +
                               "): " + reason;
    return false;
  };
  if (ranks.empty()) return fail("no rank spans");
  for (const RankSpan& r : ranks) {
    const PhaseTotals& p = r.phases;
    const std::string tag = "rank " + std::to_string(r.rank);
    if (!(p.modeled_seconds > 0.0))
      return fail(tag + " has zero modeled time");
    if (!(p.compute_seconds > 0.0))
      return fail(tag + " is missing its compute phase");
    const double err = std::fabs(p.sum() - p.modeled_seconds);
    if (err > rel * p.modeled_seconds) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    " phase sum %.12g != modeled %.12g (rel err %.3g)",
                    p.sum(), p.modeled_seconds,
                    err / p.modeled_seconds);
      return fail(tag + buf);
    }
  }
  return true;
}

json::Value span_record_json(const JobSpanRecord& rec) {
  json::Value v;
  v.set("job", json::Value(static_cast<long long>(rec.job_id)));
  v.set("name", json::Value(rec.name));
  v.set("field_cache_hit", json::Value(rec.field_cache_hit));
  v.set("span_sum_ok", json::Value(rec.complete(1.0e-6)));

  json::Value attr;
  attr.set("queue_host_seconds", json::Value(rec.queue_host_seconds));
  attr.set("run_host_seconds", json::Value(rec.run_host_seconds));
  const PhaseTotals* wall = rec.wall_phases();
  const PhaseTotals zero;
  const PhaseTotals& p = wall != nullptr ? *wall : zero;
  attr.set("compute_seconds", json::Value(p.compute_seconds));
  attr.set("launch_gap_seconds", json::Value(p.launch_gap_seconds));
  attr.set("prefetch_seconds", json::Value(p.data_motion_seconds));
  attr.set("mpi_exposed_seconds", json::Value(p.mpi_exposed_seconds));
  attr.set("mpi_hidden_seconds", json::Value(p.hidden_mpi_seconds));
  attr.set("modeled_wall_seconds", json::Value(rec.modeled_wall_seconds()));

  json::Value ranks{json::Value::Array{}};
  for (const RankSpan& r : rec.ranks) {
    json::Value rv;
    rv.set("rank", json::Value(r.rank));
    rv.set("span", json::Value(static_cast<long long>(r.ctx.span_id)));
    rv.set("compute_seconds", json::Value(r.phases.compute_seconds));
    rv.set("launch_gap_seconds", json::Value(r.phases.launch_gap_seconds));
    rv.set("prefetch_seconds", json::Value(r.phases.data_motion_seconds));
    rv.set("mpi_exposed_seconds", json::Value(r.phases.mpi_exposed_seconds));
    rv.set("mpi_hidden_seconds", json::Value(r.phases.hidden_mpi_seconds));
    rv.set("modeled_seconds", json::Value(r.phases.modeled_seconds));
    ranks.push_back(std::move(rv));
  }
  attr.set("ranks", std::move(ranks));
  v.set("attribution", std::move(attr));
  return v;
}

}  // namespace simas::telemetry
