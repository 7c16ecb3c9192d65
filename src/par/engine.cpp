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

namespace {

/// OpKind -> FlightKind for the six stream-op kinds (the flight vocabulary
/// extends the IR's with halo/data/note events).
telemetry::FlightKind flight_kind(OpKind k) {
  switch (k) {
    case OpKind::Launch: return telemetry::FlightKind::Launch;
    case OpKind::Reduce: return telemetry::FlightKind::Reduce;
    case OpKind::ArrayReduce: return telemetry::FlightKind::ArrayReduce;
    case OpKind::Sync: return telemetry::FlightKind::Sync;
    case OpKind::FusionBreak: return telemetry::FlightKind::FusionBreak;
    case OpKind::MemHint: return telemetry::FlightKind::MemHint;
  }
  return telemetry::FlightKind::Sync;
}

/// First declared array of a kernel op, -1 when none (sync/fusion ops).
i32 flight_array(const StreamOp& op) {
  return std::visit(
      [](const auto& o) -> i32 {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_base_of_v<KernelOp, T>) {
          return o.accesses.empty() ? -1 : static_cast<i32>(o.accesses[0].id);
        } else if constexpr (std::is_same_v<T, MemHintOp>) {
          return static_cast<i32>(o.id);
        } else {
          return -1;
        }
      },
      op);
}

}  // namespace

Engine::Engine(EngineConfig cfg)
    : cfg_(cfg),
      cost_(cfg.device),
      mem_(cfg.memory, &cost_, &ledger_),
      sched_(SchedulerContext{&cfg_, &cost_, &ledger_, &mem_, &tracer_,
                              &metrics_, &profiler_}) {
  const SimContext& ctx = cfg_.ctx != nullptr ? *cfg_.ctx
                                              : SimContext::process();
  // Execution threads: borrow the configured/shared pool, else own one.
  ThreadPool* shared =
      cfg_.shared_pool != nullptr ? cfg_.shared_pool : ctx.shared_pool();
  if (shared != nullptr) {
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
  // Verified-stream certificates: a certificate for this scope means an
  // engine of identical shape already ran its full stream under both the
  // runtime validator and the static verifier, clean. Skip the O(cells)
  // shadow machinery and fall back to the O(1)-per-op integrity hash —
  // unless validate_fatal is set (the CI validate job checks everything).
  if (cfg_.certify && cfg_.graph_cache != nullptr &&
      !cert_scope().empty() && !cfg_.validate_fatal) {
    cert_ = cfg_.graph_cache->find_certificate(cert_scope());
    certified_ = cert_ != nullptr;
  }
  if (cfg_.certify && !certified_) {
    // First engine of an uncertified scope: validate + capture so the
    // first report drain can mint the certificate.
    cfg_.validate = true;
    cfg_.capture_stream = true;
  }
  if (cfg_.validate && !certified_) {
    validator_ = std::make_unique<analysis::Validator>(cfg_, mem_);
    shadow_exec_ = true;
    shadow_ctx_.owner = validator_.get();
  }
  if (cfg_.capture_stream && !certified_) {
    capture_ = std::make_unique<analysis::StreamCapture>(mem_);
    // The MemoryManager has a single observer slot: the capture records
    // every data event and forwards it to the validator.
    capture_->set_next(validator_.get());
    flight_obs_.next = capture_.get();
  } else if (validator_ != nullptr) {
    flight_obs_.next = validator_.get();
  }
  // The flight recorder always observes coherence transitions, forwarding
  // to whatever the capture/validator chain would have received directly.
  flight_obs_.engine = this;
  mem_.set_observer(&flight_obs_);
}

void Engine::FlightMemObserver::on_data_event(gpusim::DataEvent ev,
                                              gpusim::ArrayId id) {
  telemetry::FlightRecorder::process().record(
      telemetry::FlightKind::DataEvent, engine->cfg_.trace_id,
      engine->cfg_.flight_rank, engine->ledger_.now(), /*site=*/-1,
      static_cast<i32>(id), /*payload=*/0, static_cast<unsigned char>(ev));
  if (next != nullptr) next->on_data_event(ev, id);
}

Engine::~Engine() {
  mem_.set_observer(nullptr);
  if (certified_) {
    // No validator ran: the integrity contract is the stream hash. A
    // mismatch means this engine's stream was NOT the one certified for
    // its scope — a shape-key collision or a broken scope contract. Loud.
    if (!certified_stream_matches())
      log_error("certified stream diverged from the certificate for scope '" +
                cert_scope() + "' (op " +
                std::to_string(live_ops_) + " of " +
                std::to_string(cert_->ops) +
                " expected): shape-key collision?");
    return;
  }
  if (validator_ == nullptr) return;
  const analysis::ValidationReport report = validator_->take();
  finalize_certificate(report);
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
  finalize_certificate(report);
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

void Engine::finalize_certificate(const analysis::ValidationReport& report) {
  if (!cfg_.certify || cert_finalized_) return;
  cert_finalized_ = true;
  if (capture_ == nullptr || cfg_.graph_cache == nullptr) return;
  if (report.errors() > 0) return;
  const analysis::ValidationReport st = static_verify();
  if (st.errors() > 0) return;
  StreamCertificate cert;
  cert.scope = cert_scope();
  cert.stream_hash = capture_->stream_hash();
  cert.ops = capture_->ops();
  cert.runtime_clean = true;
  cert.static_clean = true;
  cfg_.graph_cache->publish_certificate(cert);
}

analysis::ValidationReport Engine::static_verify() const {
  if (capture_ == nullptr) return {};
  return analysis::verify_stream(*capture_, analysis::StaticModel::from(cfg_));
}

bool Engine::certified_stream_matches() const {
  if (!certified_ || cert_ == nullptr) return true;
  return live_hash_ == cert_->stream_hash && live_ops_ == cert_->ops;
}

void Engine::note_halo_begin(gpusim::ArrayId id, std::size_t radial_stride,
                             int lo_column, int hi_column) {
  if (lo_column < 0 && hi_column < 0) return;
  telemetry::FlightRecorder::process().record(
      telemetry::FlightKind::HaloBegin, cfg_.trace_id, cfg_.flight_rank,
      ledger_.now(), /*site=*/-1, static_cast<i32>(id),
      static_cast<i64>(radial_stride),
      static_cast<unsigned char>((lo_column >= 0 ? 1 : 0) |
                                 (hi_column >= 0 ? 2 : 0)));
  if (validator_ != nullptr)
    validator_->begin_inflight_recv(id, radial_stride, lo_column, hi_column);
  if (capture_ != nullptr)
    capture_->on_halo_begin(id, lo_column >= 0, hi_column >= 0);
}

void Engine::note_halo_end(gpusim::ArrayId id) {
  telemetry::FlightRecorder::process().record(
      telemetry::FlightKind::HaloEnd, cfg_.trace_id, cfg_.flight_rank,
      ledger_.now(), /*site=*/-1, static_cast<i32>(id), /*payload=*/0);
  if (validator_ != nullptr) validator_->end_inflight_recv(id);
  if (capture_ != nullptr) capture_->on_halo_end(id);
}

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

gpusim::ScaleClass Engine::resolve_scale(
    const KernelSite& site, std::initializer_list<Access> acc) const {
  if (site.surface_scaled) return gpusim::ScaleClass::Surface;
  for (const Access& a : acc) {
    if (mem_.record(a.id).scale == gpusim::ScaleClass::Surface)
      return gpusim::ScaleClass::Surface;
  }
  return gpusim::ScaleClass::Volume;
}

void Engine::record_launch(const KernelSite& site, i64 cells,
                           std::initializer_list<Access> acc) {
  LaunchOp op;
  op.site = &site;
  op.cells = cells;
  op.accesses.assign(acc.begin(), acc.end());
  op.scale = resolve_scale(site, acc);
  op.category = kernel_category_;
  submit(StreamOp{std::move(op)});
}

void Engine::record_reduce(const KernelSite& site, i64 cells,
                           std::initializer_list<Access> acc) {
  ReduceOp op;
  op.site = &site;
  op.cells = cells;
  op.accesses.assign(acc.begin(), acc.end());
  op.scale = resolve_scale(site, acc);
  op.category = kernel_category_;
  submit(StreamOp{std::move(op)});
}

void Engine::record_array_reduce(const KernelSite& site, i64 cells,
                                 std::initializer_list<Access> acc) {
  ArrayReduceOp op;
  op.site = &site;
  op.cells = cells;
  op.accesses.assign(acc.begin(), acc.end());
  op.scale = resolve_scale(site, acc);
  op.category = kernel_category_;
  submit(StreamOp{std::move(op)});
}

void Engine::break_fusion() { submit(StreamOp{FusionBreakOp{}}); }

void Engine::device_sync() { submit(StreamOp{SyncOp{}}); }

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
  submit(StreamOp{op});
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
  submit(StreamOp{op});
}

void Engine::submit(StreamOp op) {
  {
    // Flight recording: one lock-free ring append per op, always on. The
    // payload is cells for kernel ops and bytes for hint ops; detail
    // carries the MemHint code so a dump can name the hint.
    const OpKind k = op_kind(op);
    const KernelSite* site = op_site(op);
    i64 payload = op_cells(op);
    unsigned char detail = 0;
    if (const MemHintOp* h = std::get_if<MemHintOp>(&op)) {
      payload = h->bytes;
      detail = static_cast<unsigned char>(h->hint);
    }
    telemetry::FlightRecorder::process().record(
        flight_kind(k), cfg_.trace_id, cfg_.flight_rank, ledger_.now(),
        site != nullptr ? static_cast<i32>(site->id) : -1, flight_array(op),
        payload, detail);
  }
  switch (graph_mode_) {
    case GraphMode::Capture:
      active_graph_->append(op);
      break;
    case GraphMode::Replay:
      if (replay_cursor_ < active_graph_->size() &&
          same_signature(active_graph_->ops()[replay_cursor_], op)) {
        ++replay_cursor_;
        if (op_site(op) != nullptr) graph_stats_.replayed_ops++;
      } else {
        diverge();
      }
      break;
    case GraphMode::Off:
    case GraphMode::Diverged:
      break;
  }
  if (certified_) {
    // Shadow checks are skipped under a certificate; fold the O(1)
    // integrity fingerprint instead (compared at teardown).
    live_hash_ = hash_op_signature(live_hash_, op);
    ++live_ops_;
  }
  if (capture_ != nullptr) capture_->on_op(op);
  if (validator_ != nullptr) validator_->on_op(op);
  sched_.consume(op);
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

  if (cfg_.certify) {
    // cert.certified_runs: this engine ran under a certificate (shadow
    // checks skipped); cert.certified_ops: ops covered by the hash-only
    // integrity fold instead of element shadowing.
    registry_.counter("cert.certified_runs").set(certified_ ? 1 : 0);
    registry_.counter("cert.certified_ops").set(certified_ ? live_ops_ : 0);
  }

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
