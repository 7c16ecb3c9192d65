#include "service/job_server.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <utility>

#include "bench_support/host_threads.hpp"
#include "telemetry/flight_recorder.hpp"

namespace simas::service {

JobServer::JobServer(JobServerConfig cfg)
    : cfg_(cfg),
      ctx_(cfg.ctx != nullptr ? cfg.ctx->env() : par::EnvConfig::process()),
      queue_(cfg.queue_capacity) {
  cfg_.workers = std::max(1, cfg_.workers);
  const int width = bench_support::resolve_host_threads(
      cfg_.host_threads_total, &ctx_.env());
  pool_ = std::make_unique<par::ThreadPool>(width);
  ctx_.set_shared_pool(pool_.get());

  // Latency edges reach 30s so cold-start jobs land in a real bucket
  // instead of the overflow bucket (which would flatten p99); the registry
  // records the exact running max alongside, so the tail is never clipped.
  static constexpr std::array<double, 14> kLatencyBounds = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
      0.2,   0.5,   1.0,   2.0,  5.0,  10.0, 30.0};
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  submitted_ = registry_.counter("jobs.submitted");
  rejected_ = registry_.counter("jobs.rejected");
  completed_ = registry_.counter("jobs.completed");
  failed_ = registry_.counter("jobs.failed");
  prewarmed_ = registry_.counter("jobs.prewarmed");
  queue_depth_gauge_ = registry_.gauge("queue.depth");
  latency_hist_ =
      registry_.histogram("jobs.latency_seconds", kLatencyBounds);
  if (cfg_.autostart) start();
}

JobServer::~JobServer() { drain(); }

void JobServer::start() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (started_ || drained_) return;
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

bool JobServer::submit(JobDescription desc) {
  // Mint the job's root span here — at submission — so the queue-wait
  // span starts with the trace. A client-provided context survives
  // (external propagation).
  if (cfg_.trace && !desc.trace.active())
    desc.trace = telemetry::TraceContext::mint();
  AdmissionQueue::Entry e;
  e.submitted_at = epoch_.seconds();
  e.desc = std::move(desc);
  const bool accepted = queue_.try_push(std::move(e));
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    if (accepted)
      submitted_.add(1);
    else
      rejected_.add(1);
    queue_depth_gauge_.set(static_cast<double>(queue_.depth()));
  }
  return accepted;
}

std::vector<JobResult> JobServer::drain() {
  {
    // Make sure a never-started server still drains its backlog.
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (drained_) return results_;
  }
  start();
  queue_.close();
  std::vector<std::thread> joining;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    joining.swap(workers_);
  }
  for (std::thread& t : joining) t.join();
  std::lock_guard<std::mutex> lock(state_mutex_);
  drained_ = true;
  std::sort(results_.begin(), results_.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });
  return results_;
}

void JobServer::worker_loop() {
  while (auto entry = queue_.pop()) {
    const double picked = epoch_.seconds();
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      in_flight_.push_back(InFlightJob{entry->desc.id, entry->desc.name,
                                       entry->desc.trace.trace_id, picked});
    }
    JobResult r = run_job(std::move(entry->desc), entry->submitted_at,
                          picked);
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
        if (it->id == r.id && it->picked_at == picked) {
          in_flight_.erase(it);
          break;
        }
      }
    }
    note_completion(r);
    std::lock_guard<std::mutex> lock(state_mutex_);
    results_.push_back(std::move(r));
  }
}

JobResult JobServer::prewarm(JobDescription desc) {
  if (cfg_.trace && !desc.trace.active())
    desc.trace = telemetry::TraceContext::mint();
  const double now = epoch_.seconds();
  JobResult r = run_job(std::move(desc), now, now);
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  prewarmed_.add(1);
  return r;
}

JobResult JobServer::run_job(JobDescription desc, double submitted_at,
                             double picked_at) {
  JobResult r;
  r.id = desc.id;
  r.name = std::move(desc.name);
  r.queue_seconds = picked_at - submitted_at;
  const telemetry::TraceContext trace = desc.trace;

  run::ExperimentConfig ecfg = std::move(desc.config);
  ecfg.ctx = &ctx_;
  ecfg.trace = trace;
  if (cfg_.enable_graph_cache) ecfg.graph_cache = &graph_cache_;

  // Boundary-field cache: resolve the entry once, up front, so every rank
  // of the job sees the same decision (hit -> inject, miss -> solve and
  // publish). The shared_ptr pins the entry across the run.
  std::shared_ptr<const run::BoundaryFields> cached;
  run::BoundaryFields solved;
  if (ecfg.boundary.enabled && cfg_.enable_field_cache) {
    r.field_cache_used = true;
    const u64 key = FieldCache::key_for(ecfg);
    cached = field_cache_.find(key);
    if (cached != nullptr) {
      r.field_cache_hit = true;
      ecfg.boundary_fields = cached.get();
    } else {
      ecfg.boundary_out = &solved;
    }
  }

  try {
    r.result = run::run_experiment(ecfg);
    r.ok = true;
    if (ecfg.boundary_out != nullptr)
      field_cache_.insert(FieldCache::key_for(ecfg), std::move(solved));
  } catch (const std::exception& e) {
    r.error = e.what();
  } catch (...) {
    r.error = "unknown exception";
  }

  const double done = epoch_.seconds();
  r.run_seconds = done - picked_at;
  r.latency_seconds = done - submitted_at;

  // Assemble the span record: root context + host-side spans + the rank
  // phase spans run_experiment built from the ledgers. The record owns
  // the rank spans from here on.
  r.spans.ctx = trace;
  r.spans.job_id = static_cast<u64>(r.id);
  r.spans.name = r.name;
  r.spans.queue_host_seconds = r.queue_seconds;
  r.spans.run_host_seconds = r.run_seconds;
  r.spans.field_cache_hit = r.field_cache_hit;
  r.spans.ranks = std::move(r.result.rank_spans);

  // A failed job is a flight-dump trigger when SIMAS_FLIGHT_DUMP is set:
  // the ring still holds the events leading up to the failure.
  if (!r.ok && !ctx_.env().flight_dump.empty()) {
    telemetry::FlightRecorder& fr = telemetry::FlightRecorder::process();
    fr.note(telemetry::FlightNote::JobFailed, trace.trace_id, r.id);
    fr.dump_to_file(ctx_.env().flight_dump, "job_failed");
  }
  return r;
}

void JobServer::note_completion(const JobResult& r) {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  if (r.ok)
    completed_.add(1);
  else
    failed_.add(1);
  latency_hist_.observe(r.latency_seconds);
  queue_depth_gauge_.set(static_cast<double>(queue_.depth()));
  completed_ring_.push_back(r.spans);
  while (completed_ring_.size() > std::max<std::size_t>(1, cfg_.completed_ring))
    completed_ring_.pop_front();
}

std::vector<JobServer::InFlightJob> JobServer::in_flight() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  return in_flight_;
}

std::vector<telemetry::JobSpanRecord> JobServer::recent_completed() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  return std::vector<telemetry::JobSpanRecord>(completed_ring_.begin(),
                                               completed_ring_.end());
}

telemetry::MetricsSnapshot JobServer::metrics() {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  const FieldCache::Stats fc = field_cache_.stats();
  registry_.counter("field_cache.hits").set(fc.hits);
  registry_.counter("field_cache.misses").set(fc.misses);
  registry_.counter("field_cache.inserts").set(fc.inserts);
  const par::GraphCache::Stats gc = graph_cache_.stats();
  registry_.counter("graph_cache.hits").set(gc.hits);
  registry_.counter("graph_cache.misses").set(gc.misses);
  registry_.counter("graph_cache.publishes").set(gc.publishes);
  const AdmissionQueue::Stats qs = queue_.stats();
  registry_.counter("queue.accepted").set(qs.accepted);
  registry_.counter("queue.rejected").set(qs.rejected);
  queue_depth_gauge_.set(static_cast<double>(queue_.depth()));
  return registry_.snapshot();
}

}  // namespace simas::service
