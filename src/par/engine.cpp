#include "par/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "analysis/static_verifier.hpp"
#include "analysis/stream_capture.hpp"
#include "analysis/validator.hpp"
#include "par/graph_cache.hpp"
#include "telemetry/flight_recorder.hpp"

namespace simas::par {

Engine::Engine(EngineConfig cfg)
    : cfg_(cfg),
      ctx_(cfg.ctx != nullptr ? *cfg.ctx : SimContext::process()),
      cost_(cfg.device),
      mem_(cfg.memory, &cost_, &ledger_),
      // Execution threads: borrow the context's shared pool, else own one.
      owned_pool_(ctx_.shared_pool() != nullptr
                      ? nullptr
                      : std::make_unique<ThreadPool>(cfg_.host_threads)),
      pool_(owned_pool_ != nullptr ? owned_pool_.get() : ctx_.shared_pool()),
      pool_lease_(*pool_),
      policy_(lowering_policy(cfg_)),
      chain_(policy_.fuse) {
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
  if (ctx_.env().validate || ctx_.env().validate_fatal) cfg_.validate = true;
  // The engine.* totals are published at snapshot time (from the site
  // profile) but registered first, so the snapshot order does not depend
  // on when they are set.
  for (const char* total :
       {"engine.launches", "engine.loops", "engine.fused_launches",
        "engine.reduction_loops", "engine.bytes_touched"})
    registry_.counter(total);
  pool_jobs_ = registry_.counter("pool.jobs");
  pool_inline_ = registry_.counter("pool.inline_kernels");
  pool_joins_ = registry_.counter("pool.joins");
  kernel_cells_ = registry_.histogram("engine.kernel_cells",
                                      std::span<const double>(kCellBounds));
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
  const analysis::ValidationReport report = take_validation_report();
  if (!report.diagnostics.empty()) {
    for (const analysis::Diagnostic& d : report.diagnostics)
      std::fprintf(stderr, "[%s] %s\n",
                   d.severity == analysis::Severity::Error ? "ERROR" : "WARN",
                   d.to_string().c_str());
    std::fprintf(stderr,
                 "[WARN] validator: %d error(s), %d warning(s) over %lld "
                 "ops\n",
                 report.errors(), report.warnings(),
                 static_cast<long long>(report.ops_checked));
  }
  if (ctx_.env().validate_fatal && report.errors() > 0) {
    std::fprintf(stderr,
                 "simas: SIMAS_VALIDATE_FATAL set and the kernel-stream "
                 "validator recorded %d error(s); aborting\n",
                 report.errors());
    std::abort();
  }
}

analysis::ValidationReport Engine::take_validation_report() {
  if (validator_ == nullptr) return {};
  analysis::ValidationReport report = validator_->take();
  if (report.errors() > 0)
    ctx_.flight_incident(telemetry::FlightNote::ValidatorError,
                         cfg_.trace_id, report.errors());
  return report;
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

gpusim::ScaleClass Engine::resolve_scale(const KernelSite& site,
                                         std::span<const Access> acc) const {
  if (site.surface_scaled) return gpusim::ScaleClass::Surface;
  for (const Access& a : acc) {
    if (mem_.record(a.id).scale == gpusim::ScaleClass::Surface)
      return gpusim::ScaleClass::Surface;
  }
  return gpusim::ScaleClass::Volume;
}

template <class Op>
void Engine::record(const KernelSite& site, i64 cells,
                    std::span<const Access> acc) {
  Op op;
  op.site = &site;
  op.cells = cells;
  op.accesses.assign(acc.begin(), acc.end());
  op.scale = resolve_scale(site, acc);
  op.category = kernel_category_;
  emit(StreamOp{std::move(op)});
}

template void Engine::record<LaunchOp>(const KernelSite&, i64,
                                       std::span<const Access>);
template void Engine::record<ReduceOp>(const KernelSite&, i64,
                                       std::span<const Access>);
template void Engine::record<ArrayReduceOp>(const KernelSite&, i64,
                                            std::span<const Access>);

void Engine::throw_dependent(const KernelSite& site, int c, int d) {
  throw std::logic_error("Engine: component sweep '" + site.name +
                         "': component " + std::to_string(c) +
                         " writes an array component " + std::to_string(d) +
                         " declares");
}

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
  consume(*op);
}

// ---- Accounting ----

void Engine::consume(const StreamOp& op) {
  switch (op_kind(op)) {
    case OpKind::Launch: on_launch(std::get<LaunchOp>(op)); break;
    // Reductions are synchronous under every model (the DC reduce clause
    // and the OpenACC reduction clause both imply a result dependency).
    case OpKind::Reduce: on_reduce(std::get<ReduceOp>(op), 1.0); break;
    case OpKind::ArrayReduce:
      on_reduce(std::get<ArrayReduceOp>(op), policy_.array_reduce_traffic);
      break;
    case OpKind::Sync: on_sync(); break;
    case OpKind::FusionBreak: chain_.reset(); break;
    case OpKind::MemHint: on_mem_hint(std::get<MemHintOp>(op)); break;
  }
}

i64 Engine::touch_accesses(const AccessList& accesses, i64 cells) {
  i64 bytes = 0;
  for (const Access& a : accesses) {
    const i64 touched = std::min<i64>(cells * static_cast<i64>(sizeof(real)),
                                      mem_.record(a.id).bytes);
    bytes += touched;
    if (cfg_.gpu) {
      // Span-driven driver prefetch: move the declared footprint ahead of
      // the launch as one batched transfer, so the demand path below finds
      // the pages resident and no per-page fault service is charged. A
      // personality that ignores prefetch hints leaves the pages to
      // demand-fault exactly as if hints were off.
      if (cfg_.um_hints && policy_.honors_mem_prefetch)
        mem_.mem_prefetch(a.id, touched, /*to_device=*/true,
                          gpusim::TimeCategory::DataMotion);
      mem_.on_device_access(a.id, touched, gpusim::TimeCategory::DataMotion,
                            a.write);
    }
  }
  return bytes;
}

void Engine::on_mem_hint(const MemHintOp& op) {
  if (!cfg_.gpu || !mem_.unified()) return;
  // Hint lowering is a personality trait: a toolchain that ignores a hint
  // class accepts the call and does nothing — no page state change, no
  // time. The op stays in the recorded stream either way (the source is
  // the same; graph cache scopes are keyed by personality).
  const bool is_advise = op.hint == MemHint::AdviseReadMostly ||
                         op.hint == MemHint::AdvisePreferredHost;
  if (is_advise ? !policy_.honors_mem_advise : !policy_.honors_mem_prefetch)
    return;
  const double t0 = ledger_.now();
  switch (op.hint) {
    case MemHint::PrefetchToDevice:
      mem_.mem_prefetch(op.id, op.bytes, /*to_device=*/true, op.category);
      break;
    case MemHint::PrefetchToHost:
      mem_.mem_prefetch(op.id, op.bytes, /*to_device=*/false, op.category);
      break;
    case MemHint::AdviseReadMostly:
      mem_.mem_advise(op.id, gpusim::UmAdvise::ReadMostly, op.category);
      break;
    case MemHint::AdvisePreferredHost:
      mem_.mem_advise(op.id, gpusim::UmAdvise::PreferredHost, op.category);
      break;
  }
  const double t1 = ledger_.now();
  if (tracer_.enabled() && t1 > t0)
    tracer_.record(t0, t1, trace::Lane::UmHint,
                   std::string(mem_hint_name(op.hint)) + ":" +
                       mem_.record(op.id).name);
}

void Engine::charge(const KernelOp& op, bool fused, bool async,
                    bool reduction, double extra_traffic_factor) {
  kernel_cells_.observe(static_cast<double>(op.cells));
  const i64 bytes = touch_accesses(op.accesses, op.cells);
  const bool unified = mem_.unified() && cfg_.gpu;
  const double t0 = ledger_.now();
  double launch = cost_.launch_time(fused, async, unified);
  if (graph_mode_ == GraphMode::Replay) {
    // Inside a replayed graph the kernel was pre-instantiated: no launch
    // submission cost. UM inter-kernel gaps are a paging artifact, not a
    // launch artifact, so they persist under graphs.
    const double graphed = unified ? cost_.device().um_kernel_gap_s : 0.0;
    graph_stats_.kernel_launch_seconds_saved += launch - graphed;
    launch = graphed;
  }
  ledger_.advance(launch, gpusim::TimeCategory::LaunchGap);
  const double traffic =
      cost_.kernel_time(bytes, op.scale) * extra_traffic_factor;
  ledger_.advance(traffic, op.category);
  profiler_.record(*op.site, ledger_.now() - t0, op.cells, bytes, fused,
                   reduction);
  if (tracer_.enabled())
    tracer_.record(t0, ledger_.now(), trace::Lane::Kernel, op.site->name);
}

void Engine::on_launch(const LaunchOp& op) {
  const bool fused = chain_.launch(op.site->fusion_group);
  charge(op, fused, policy_.async_launch(*op.site), /*reduction=*/false,
         1.0 + cfg_.wrapper_init_overhead);
}

void Engine::on_reduce(const KernelOp& op, double traffic_factor) {
  chain_.reset();  // reductions synchronize; they never fuse
  charge(op, /*fused=*/false, /*async=*/false, /*reduction=*/true,
         traffic_factor);
}

void Engine::on_sync() {
  chain_.reset();
  // Draining the async queue costs one launch latency on the GPU.
  if (cfg_.gpu)
    ledger_.advance(cfg_.device.launch_overhead_s * 0.5,
                    gpusim::TimeCategory::LaunchGap);
}

/// The live stream no longer matches the capture: stop replaying (the
/// rest of this pass is charged per-kernel again) and re-capture on the
/// next pass.
void Engine::diverge() {
  graph_stats_.divergences++;
  active_graph_->invalidate();
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
    if (const auto cached = cfg_.graph_cache->find(
            GraphCache::key(cfg_.graph_cache_scope, name))) {
      *active_graph_ = *cached;
      graph_stats_.cache_seeds++;
    }
  }
  if (active_graph_->captured()) {
    graph_mode_ = GraphMode::Replay;
    replay_cursor_ = 0;
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
      assert(active_graph_->captured());
      if (cfg_.graph_cache != nullptr)
        cfg_.graph_cache->publish(
            GraphCache::key(cfg_.graph_cache_scope, active_graph_->name()),
            *active_graph_);
      break;
    case GraphMode::Replay:
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

EngineCounters Engine::counters() const {
  const telemetry::SiteProfileRow sum = profiler_.totals();
  EngineCounters c;
  c.kernel_launches = sum.launches;
  c.loops_executed = sum.launches + sum.fused;
  c.fused_launches = sum.fused;
  c.reduction_loops = sum.reductions;
  c.bytes_touched = sum.bytes;
  return c;
}

telemetry::MetricsSnapshot Engine::metrics_snapshot() {
  // Publish the cold families into the registry before snapshotting.
  // Registration is idempotent (name lookup after the first call); `set`
  // mirrors the externally-accumulated totals. Modeled times are gauges
  // merged with Max across ranks (wall semantics: the slowest rank is the
  // wall), byte/call totals are counters and sum.
  const EngineCounters ec = counters();
  registry_.counter("engine.launches").set(ec.kernel_launches);
  registry_.counter("engine.loops").set(ec.loops_executed);
  registry_.counter("engine.fused_launches").set(ec.fused_launches);
  registry_.counter("engine.reduction_loops").set(ec.reduction_loops);
  registry_.counter("engine.bytes_touched").set(ec.bytes_touched);
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

  const GraphStats& gs = graph_stats_;
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

const CapturedGraph* Engine::find_graph(const std::string& name) const {
  const auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : &it->second;
}

}  // namespace simas::par
