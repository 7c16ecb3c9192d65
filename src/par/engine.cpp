#include "par/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "analysis/static_verifier.hpp"
#include "analysis/stream_capture.hpp"
#include "analysis/validator.hpp"
#include "par/graph_cache.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/logging.hpp"

namespace simas::par {

Engine::Engine(EngineConfig cfg)
    : cfg_(cfg),
      cost_(cfg.device),
      mem_(cfg.memory, &cost_, &ledger_),
      sched_(SchedulerContext{&cfg_, &cost_, &ledger_, &mem_, &tracer_,
                              &metrics_, &profiler_}) {
  const SimContext& ctx = cfg_.ctx != nullptr ? *cfg_.ctx
                                              : SimContext::process();
  // Execution threads: borrow the context's shared pool, else own one.
  if (ThreadPool* shared = ctx.shared_pool(); shared != nullptr) {
    pool_ = shared;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(cfg_.host_threads);
    pool_ = owned_pool_.get();
  }
  if (mem_.unified()) {
    // Paging pressure costs some sustained bandwidth even once resident
    // (observed as the modest non-MPI slowdown of the UM codes, Fig. 3).
    cost_.set_unified_bw_penalty(0.82);
  }
  if (cfg_.gpu && cfg_.loops != LoopModel::Acc) {
    // DC kernels get different compiler offload parameters than OpenACC
    // regions (paper Sec. V-C).
    cost_.set_dc_bw_penalty(0.985);
  }
  // Environment overrides come from the context's one-time snapshot, not
  // from getenv(): engines never observe ambient process state directly.
  if (ctx.env().validate) cfg_.validate = true;
  if (ctx.env().validate_fatal) {
    cfg_.validate = true;
    cfg_.validate_fatal = true;
  }
  metrics_.bind(registry_);
  if (cfg_.validate) {
    validator_ = std::make_unique<analysis::Validator>(cfg_, mem_);
#ifdef SIMAS_ELEMENT_SHADOW
    shadow_ctx_.owner = validator_.get();
#endif
  }
  if (cfg_.capture_stream)
    capture_ = std::make_unique<analysis::StreamCapture>(mem_);
  // The MemoryManager has a single observer slot: the flight observer
  // emits every coherence transition as a data event.
  flight_obs_.engine = this;
  mem_.set_observer(&flight_obs_);
}

void Engine::FlightMemObserver::on_data_event(gpusim::DataEvent ev,
                                              gpusim::ArrayId id) {
  engine->emit(DataEventRec{ev, id});
}

Engine::~Engine() {
  mem_.set_observer(nullptr);
  if (validator_ == nullptr) return;
  const analysis::ValidationReport report = validator_->take();
  if (!report.diagnostics.empty()) {
    for (const analysis::Diagnostic& d : report.diagnostics) {
      if (d.severity == analysis::Severity::Error)
        log_error(d.to_string());
      else
        log_warn(d.to_string());
    }
    log_warn("validator: " + std::to_string(report.errors()) + " error(s), " +
             std::to_string(report.warnings()) + " warning(s) over " +
             std::to_string(report.ops_checked) + " ops");
  }
  maybe_flight_dump(report);
  if (cfg_.validate_fatal && report.errors() > 0) {
    std::fprintf(stderr,
                 "simas: SIMAS_VALIDATE_FATAL set and the kernel-stream "
                 "validator recorded %d error(s); aborting\n",
                 static_cast<int>(report.errors()));
    std::abort();
  }
}

analysis::ValidationReport Engine::take_validation_report() {
  if (validator_ == nullptr) return {};
  analysis::ValidationReport report = validator_->take();
  maybe_flight_dump(report);
  return report;
}

void Engine::maybe_flight_dump(const analysis::ValidationReport& report) {
  if (report.errors() == 0) return;
  const SimContext& ctx =
      cfg_.ctx != nullptr ? *cfg_.ctx : SimContext::process();
  if (ctx.env().flight_dump.empty()) return;
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::process();
  fr.note(telemetry::FlightNote::ValidatorError, cfg_.trace_id,
          report.errors());
  fr.dump_to_file(ctx.env().flight_dump, "validator_error");
}

analysis::ValidationReport Engine::static_verify() const {
  if (capture_ == nullptr) return {};
  return analysis::verify_stream(*capture_, analysis::StaticModel::from(cfg_));
}

void Engine::note_halo_begin(gpusim::ArrayId id, std::size_t radial_stride,
                             int lo_column, int hi_column) {
  if (lo_column < 0 && hi_column < 0) return;
  emit(HaloBeginRec{id, radial_stride, lo_column, hi_column});
}

void Engine::note_halo_end(gpusim::ArrayId id) { emit(HaloEndRec{id}); }

#ifdef SIMAS_ELEMENT_SHADOW
void Engine::body_begin() {
  if (validator_ != nullptr) {
    validator_->body_begin();
    // Execute loops stamp this (owner, window) pair into the thread-local
    // iteration tag; slots armed by other validators reject it.
    shadow_ctx_.window = validator_->current_window();
  }
}

void Engine::body_end() {
  if (validator_ != nullptr) validator_->body_end();
}
#endif

gpusim::ScaleClass Engine::resolve_scale(
    const KernelSite& site, std::initializer_list<Access> acc) const {
  if (site.surface_scaled) return gpusim::ScaleClass::Surface;
  for (const Access& a : acc) {
    if (mem_.record(a.id).scale == gpusim::ScaleClass::Surface)
      return gpusim::ScaleClass::Surface;
  }
  return gpusim::ScaleClass::Volume;
}

template <class Op>
void Engine::record(const KernelSite& site, i64 cells,
                    std::initializer_list<Access> acc) {
  Op op;
  op.site = &site;
  op.cells = cells;
  op.accesses.assign(acc.begin(), acc.end());
  op.scale = resolve_scale(site, acc);
  op.category = kernel_category_;
  emit(StreamOp{std::move(op)});
}

template void Engine::record<LaunchOp>(const KernelSite&, i64,
                                       std::initializer_list<Access>);
template void Engine::record<ReduceOp>(const KernelSite&, i64,
                                       std::initializer_list<Access>);
template void Engine::record<ArrayReduceOp>(const KernelSite&, i64,
                                            std::initializer_list<Access>);

void Engine::break_fusion() { emit(StreamOp{FusionBreakOp{}}); }

void Engine::device_sync() { emit(StreamOp{SyncOp{}}); }

void Engine::mem_prefetch(gpusim::ArrayId id, i64 bytes, Span span,
                          bool to_device, const KernelSite* site) {
  if (!cfg_.gpu || !mem_.unified()) return;
  MemHintOp op;
  op.site = site;
  op.id = id;
  op.hint = to_device ? MemHint::PrefetchToDevice : MemHint::PrefetchToHost;
  op.span = span;
  op.bytes = bytes;
  op.category = kernel_category_;
  emit(StreamOp{op});
}

void Engine::mem_advise(gpusim::ArrayId id, MemHint advise,
                        const KernelSite* site) {
  if (!cfg_.gpu || !mem_.unified()) return;
  if (advise != MemHint::AdviseReadMostly &&
      advise != MemHint::AdvisePreferredHost)
    return;
  MemHintOp op;
  op.site = site;
  op.id = id;
  op.hint = advise;
  op.span = Span::Full;
  op.bytes = mem_.record(id).bytes;
  op.category = kernel_category_;
  emit(StreamOp{op});
}

void Engine::emit(StreamEvent ev) {
  // Flight recording: one O(1) ring append per event, always on.
  const telemetry::FlightEvent fe = flight_event(ev);
  telemetry::FlightRecorder::process().record(
      fe.kind, cfg_.trace_id, cfg_.flight_rank, ledger_.now(), fe.site,
      fe.array, fe.payload, fe.detail);
  if (capture_ != nullptr) capture_->record(ev);
  if (validator_ != nullptr) validator_->on_event(ev);
  const StreamOp* op = std::get_if<StreamOp>(&ev);
  if (op == nullptr) return;
  switch (graph_mode_) {
    case GraphMode::Capture:
      active_graph_->append(*op);
      break;
    case GraphMode::Replay:
      if (replay_cursor_ < active_graph_->size() &&
          same_signature(active_graph_->ops()[replay_cursor_], *op)) {
        ++replay_cursor_;
        if (op_site(*op) != nullptr) graph_stats_.replayed_ops++;
      } else {
        diverge();
      }
      break;
    case GraphMode::Off:
    case GraphMode::Diverged:
      break;
  }
  sched_.consume(*op);
}

/// The live stream no longer matches the capture: stop replaying (the
/// rest of this pass is charged per-kernel again) and re-capture on the
/// next pass.
void Engine::diverge() {
  graph_stats_.divergences++;
  active_graph_->invalidate();
  sched_.set_replay_active(false);
  graph_mode_ = GraphMode::Diverged;
}

void Engine::graph_begin(const std::string& name) {
  if (!cfg_.graph_replay || !cfg_.gpu) return;
  if (graph_depth_++ > 0) return;  // nested scope: the outer graph governs
  auto [it, inserted] = graphs_.try_emplace(name, name);
  active_graph_ = &it->second;
  if (inserted && cfg_.graph_cache != nullptr) {
    // First entry into this scope: seed from the cross-engine cache so
    // jobs of identical shape replay from their very first pass. The
    // local copy is engine-owned; divergence invalidates it locally only.
    if (const CapturedGraph* cached =
            cfg_.graph_cache->find(cfg_.graph_cache_scope, name)) {
      *active_graph_ = *cached;
      graph_stats_.cache_seeds++;
    }
  }
  if (active_graph_->captured()) {
    graph_mode_ = GraphMode::Replay;
    replay_cursor_ = 0;
    sched_.set_replay_active(true);
    graph_stats_.replays++;
    // One submission launches the whole instantiated graph
    // (cudaGraphLaunch): a single launch overhead, not async-hidden.
    const double t0 = ledger_.now();
    ledger_.advance(cfg_.device.launch_overhead_s,
                    gpusim::TimeCategory::LaunchGap);
    graph_stats_.graph_launch_seconds += cfg_.device.launch_overhead_s;
    if (tracer_.enabled())
      tracer_.record(t0, ledger_.now(), trace::Lane::Kernel,
                     "graph:" + name);
  } else {
    graph_mode_ = GraphMode::Capture;
    active_graph_->begin_capture();
    graph_stats_.captures++;
  }
}

void Engine::graph_end() {
  if (!cfg_.graph_replay || !cfg_.gpu) return;
  if (graph_depth_ <= 0) return;  // unbalanced end: ignore
  if (--graph_depth_ > 0) return;
  switch (graph_mode_) {
    case GraphMode::Capture:
      active_graph_->finalize();
      // Publish finished captures for engines of the same shape
      // (first-wins; identical captures by construction, so losing the
      // race is harmless).
      if (cfg_.graph_cache != nullptr)
        cfg_.graph_cache->publish(cfg_.graph_cache_scope, *active_graph_);
      break;
    case GraphMode::Replay:
      sched_.set_replay_active(false);
      if (replay_cursor_ != active_graph_->size()) {
        // The pass ended before exhausting the capture: shorter sequence.
        graph_stats_.divergences++;
        active_graph_->invalidate();
      }
      break;
    case GraphMode::Diverged:
    case GraphMode::Off:
      break;
  }
  graph_mode_ = GraphMode::Off;
  active_graph_ = nullptr;
}

telemetry::MetricsSnapshot Engine::metrics_snapshot() {
  // Publish the cold families into the registry before snapshotting.
  // Registration is idempotent (name lookup after the first call); `set`
  // mirrors the externally-accumulated totals. Modeled times are gauges
  // merged with Max across ranks (wall semantics: the slowest rank is the
  // wall), byte/call totals are counters and sum.
  registry_.gauge("time.modeled_seconds").set(ledger_.now());
  registry_.gauge("time.compute_seconds")
      .set(ledger_.total(gpusim::TimeCategory::Compute));
  registry_.gauge("time.launch_gap_seconds")
      .set(ledger_.total(gpusim::TimeCategory::LaunchGap));
  registry_.gauge("time.data_motion_seconds")
      .set(ledger_.total(gpusim::TimeCategory::DataMotion));
  registry_.gauge("time.mpi_seconds")
      .set(ledger_.total(gpusim::TimeCategory::Mpi));
  registry_.gauge("halo.hidden_seconds").set(ledger_.hidden_mpi_time());

  const gpusim::MemoryStats& ms = mem_.stats();
  registry_.counter("mem.enter_data_calls").set(ms.enter_data_calls);
  registry_.counter("mem.exit_data_calls").set(ms.exit_data_calls);
  registry_.counter("mem.update_device_calls").set(ms.update_device_calls);
  registry_.counter("mem.update_host_calls").set(ms.update_host_calls);
  registry_.counter("mem.manual_h2d_bytes").set(ms.manual_h2d_bytes);
  registry_.counter("mem.manual_d2h_bytes").set(ms.manual_d2h_bytes);
  const gpusim::UmStats& um = mem_.um_stats();
  registry_.counter("mem.bytes_migrated").set(um.h2d_bytes + um.d2h_bytes);
  registry_.counter("mem.um_migrations").set(um.migrations);
  if (mem_.unified()) {
    // um.*: the page engine's view. Resident bytes are a Max-merged gauge
    // (peak across ranks); the rest are additive counters.
    registry_.gauge("um.resident_bytes")
        .set(static_cast<double>(mem_.um_pages().device_resident_bytes()));
    registry_.counter("um.h2d_bytes").set(um.h2d_bytes);
    registry_.counter("um.d2h_bytes").set(um.d2h_bytes);
    registry_.counter("um.migrations").set(um.migrations);
    registry_.counter("um.faults").set(um.faults);
    registry_.counter("um.fault_batches").set(um.fault_batches);
    registry_.counter("um.prefetches").set(um.prefetches);
    registry_.counter("um.prefetch_bytes").set(um.prefetch_bytes);
    registry_.counter("um.advises").set(um.advises);
    registry_.counter("um.evictions").set(um.evictions);
    registry_.counter("um.evicted_bytes").set(um.evicted_bytes);
    registry_.counter("um.thrash_events").set(um.thrash_events);
    registry_.counter("um.remote_access_bytes").set(um.remote_access_bytes);
    registry_.counter("um.read_dup_invalidations")
        .set(um.read_dup_invalidations);
  }

  const GraphStats gs = graph_stats();
  registry_.counter("graph.captures").set(gs.captures);
  registry_.counter("graph.replays").set(gs.replays);
  registry_.counter("graph.divergences").set(gs.divergences);
  registry_.counter("graph.replayed_ops").set(gs.replayed_ops);
  registry_.counter("graph.cache_seeds").set(gs.cache_seeds);
  registry_.gauge("graph.launch_seconds", telemetry::Merge::Sum)
      .set(gs.graph_launch_seconds);
  registry_.gauge("graph.launch_seconds_saved", telemetry::Merge::Sum)
      .set(gs.kernel_launch_seconds_saved);

  return registry_.snapshot();
}

GraphStats Engine::graph_stats() const {
  GraphStats s = graph_stats_;
  s.kernel_launch_seconds_saved = sched_.replay_launch_saved();
  return s;
}

const CapturedGraph* Engine::find_graph(const std::string& name) const {
  const auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : &it->second;
}

}  // namespace simas::par
