#include "par/scheduler.hpp"

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

}  // namespace simas::par
