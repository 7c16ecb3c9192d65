#include "par/scheduler.hpp"

#include <algorithm>

namespace simas::par {

const char* loop_model_name(LoopModel m) {
  switch (m) {
    case LoopModel::Acc: return "acc";
    case LoopModel::Dc2018: return "dc2018";
    case LoopModel::Dc2x: return "dc2x";
  }
  return "?";
}

LoweringPolicy lowering_policy(const EngineConfig& cfg) {
  const PersonalityTraits t = personality_traits(cfg.personality);
  LoweringPolicy p;
  // Fusion chains and async queues exist only for OpenACC loops on the
  // device, and only where the toolchain merges consecutive ACC regions
  // (nvfortran); OpenMP-target lowerings launch one synchronous region per
  // construct. DC loops fission and launch synchronously (paper Sec. IV-B).
  const bool acc_on_device = cfg.gpu && cfg.loops == LoopModel::Acc;
  p.fuse = acc_on_device && cfg.fusion_enabled && t.fuses_acc_chains;
  p.async = acc_on_device && cfg.async_enabled && t.async_launches;
  // Array reductions on the device: atomic update (ACC, F2018 DC; paper
  // Listing 3) or the 202X reduce clause, which nvfortran flips into the
  // atomic-free form (Listing 5) and other toolchains lower to trees or
  // atomic blocks.
  if (cfg.gpu)
    p.array_reduce_traffic = cfg.loops == LoopModel::Dc2x
                                 ? t.reduce_clause_traffic
                                 : t.atomic_reduce_traffic;
  p.honors_mem_prefetch = t.honors_mem_prefetch;
  p.honors_mem_advise = t.honors_mem_advise;
  return p;
}

void Scheduler::consume(const StreamOp& op) {
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

i64 Scheduler::touch_accesses(const AccessList& accesses,
                              i64 cells) {
  i64 bytes = 0;
  for (const Access& a : accesses) {
    const i64 touched = std::min<i64>(cells * static_cast<i64>(sizeof(real)),
                                      ctx_.mem->record(a.id).bytes);
    bytes += touched;
    if (ctx_.cfg->gpu) {
      // Span-driven driver prefetch: move the declared footprint ahead of
      // the launch as one batched transfer, so the demand path below finds
      // the pages resident and no per-page fault service is charged. A
      // personality that ignores prefetch hints leaves the pages to
      // demand-fault exactly as if hints were off.
      if (ctx_.cfg->um_hints && policy_.honors_mem_prefetch)
        ctx_.mem->mem_prefetch(a.id, touched, /*to_device=*/true,
                               gpusim::TimeCategory::DataMotion);
      ctx_.mem->on_device_access(a.id, touched,
                                 gpusim::TimeCategory::DataMotion, a.write);
    }
  }
  return bytes;
}

void Scheduler::on_mem_hint(const MemHintOp& op) {
  if (!ctx_.cfg->gpu || !ctx_.mem->unified()) return;
  // Hint lowering is a personality trait: a toolchain that ignores a hint
  // class accepts the call and does nothing — no page state change, no
  // time. The op stays in the recorded stream either way (the source is
  // the same; certificates are keyed by personality).
  const bool is_advise = op.hint == MemHint::AdviseReadMostly ||
                         op.hint == MemHint::AdvisePreferredHost;
  if (is_advise ? !policy_.honors_mem_advise : !policy_.honors_mem_prefetch)
    return;
  const double t0 = ctx_.ledger->now();
  switch (op.hint) {
    case MemHint::PrefetchToDevice:
      ctx_.mem->mem_prefetch(op.id, op.bytes, /*to_device=*/true, op.category);
      break;
    case MemHint::PrefetchToHost:
      ctx_.mem->mem_prefetch(op.id, op.bytes, /*to_device=*/false,
                             op.category);
      break;
    case MemHint::AdviseReadMostly:
      ctx_.mem->mem_advise(op.id, gpusim::UmAdvise::ReadMostly, op.category);
      break;
    case MemHint::AdvisePreferredHost:
      ctx_.mem->mem_advise(op.id, gpusim::UmAdvise::PreferredHost,
                           op.category);
      break;
  }
  const double t1 = ctx_.ledger->now();
  if (ctx_.tracer->enabled() && t1 > t0)
    ctx_.tracer->record(t0, t1, trace::Lane::UmHint,
                        std::string(mem_hint_name(op.hint)) + ":" +
                            ctx_.mem->record(op.id).name);
}

void Scheduler::charge_launch_and_bytes(const KernelSite& site, i64 cells,
                                        i64 bytes, gpusim::ScaleClass scale,
                                        bool fused, bool async,
                                        double extra_traffic_factor,
                                        gpusim::TimeCategory category) {
  const bool unified = ctx_.mem->unified() && ctx_.cfg->gpu;
  const double t0 = ctx_.ledger->now();
  double launch = ctx_.cost->launch_time(fused, async, unified);
  if (replay_active_) {
    // Inside a replayed graph the kernel was pre-instantiated: no launch
    // submission cost. UM inter-kernel gaps are a paging artifact, not a
    // launch artifact, so they persist under graphs.
    const double graphed =
        unified ? ctx_.cost->device().um_kernel_gap_s : 0.0;
    replay_launch_saved_ += launch - graphed;
    launch = graphed;
  }
  ctx_.ledger->advance(launch, gpusim::TimeCategory::LaunchGap);
  const double traffic =
      ctx_.cost->kernel_time(bytes, scale) * extra_traffic_factor;
  ctx_.ledger->advance(traffic, category);
  ctx_.metrics->bytes_touched.add(bytes);
  if (ctx_.profiler != nullptr)
    ctx_.profiler->record(site, ctx_.ledger->now() - t0, cells, bytes,
                          fused);
  if (ctx_.tracer->enabled())
    ctx_.tracer->record(t0, ctx_.ledger->now(), trace::Lane::Kernel,
                        site.name);
}

void Scheduler::on_launch(const LaunchOp& op) {
  ctx_.metrics->loops.add();
  ctx_.metrics->kernel_cells.observe(static_cast<double>(op.cells));
  const i64 bytes = touch_accesses(op.accesses, op.cells);

  const bool fused = chain_.launch(op.site->fusion_group);
  if (fused)
    ctx_.metrics->fused.add();
  else
    ctx_.metrics->launches.add();

  charge_launch_and_bytes(*op.site, op.cells, bytes, op.scale, fused,
                          policy_.async_launch(*op.site),
                          1.0 + ctx_.cfg->wrapper_init_overhead, op.category);
}

void Scheduler::on_reduce(const KernelOp& op, double traffic_factor) {
  ctx_.metrics->loops.add();
  ctx_.metrics->reductions.add();
  ctx_.metrics->launches.add();
  ctx_.metrics->kernel_cells.observe(static_cast<double>(op.cells));
  chain_.reset();  // reductions synchronize; they never fuse
  const i64 bytes = touch_accesses(op.accesses, op.cells);
  charge_launch_and_bytes(*op.site, op.cells, bytes, op.scale,
                          /*fused=*/false, /*async=*/false, traffic_factor,
                          op.category);
}

void Scheduler::on_sync() {
  chain_.reset();
  // Draining the async queue costs one launch latency on the GPU.
  if (ctx_.cfg->gpu)
    ctx_.ledger->advance(ctx_.cfg->device.launch_overhead_s * 0.5,
                         gpusim::TimeCategory::LaunchGap);
}

}  // namespace simas::par
