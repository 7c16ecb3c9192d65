// Accounting-model tests for the Engine: scale classes, wrapper overhead,
// DC penalties, UM interactions, counters — the machinery every
// table/figure bench relies on.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "par/engine.hpp"
#include "par/site_table.hpp"

namespace simas::par {
namespace {

EngineConfig base_config() {
  EngineConfig cfg;
  cfg.loops = LoopModel::Acc;
  cfg.memory = gpusim::MemoryMode::Manual;
  cfg.gpu = true;
  cfg.host_threads = 1;
  return cfg;
}

TEST(EngineAccounting, SurfaceScaledSitesChargeLessAtPaperScale) {
  // Two identical kernels, one flagged surface-scaled: with vol scale 100
  // and surf scale 10 the surface kernel must be ~10x cheaper.
  Engine eng(base_config());
  eng.cost().set_scales(100.0, 10.0);
  const auto id = eng.memory().register_array("a", 1 << 24);
  static const KernelSite& vol_site =
      SIMAS_SITE("acct_vol_site", SiteKind::ParallelLoop, 0);
  static const KernelSite& surf_site =
      SIMAS_SITE("acct_surf_site", SiteKind::ParallelLoop, 0, false, false,
                 true, /*surface_scaled=*/true);
  const Range3 r{0, 32, 0, 32, 0, 32};
  const double t0 = eng.ledger().now();
  eng.for_each(vol_site, r, {out(id)}, [](idx, idx, idx) {});
  const double t_vol = eng.ledger().now() - t0;
  const double t1 = eng.ledger().now();
  eng.for_each(surf_site, r, {out(id)}, [](idx, idx, idx) {});
  const double t_surf = eng.ledger().now() - t1;
  // t_surf is launch-overhead dominated; traffic differs by 10x.
  EXPECT_GT(t_vol, 3.0 * t_surf);
}

TEST(EngineAccounting, SurfaceBufferAccessImpliesSurfaceScale) {
  // A kernel touching a Surface-registered buffer is surface-scaled even
  // without the site flag (halo pack/unpack pattern).
  Engine eng(base_config());
  eng.cost().set_scales(100.0, 1.0);
  const auto vol_id = eng.memory().register_array("vol", 1 << 24);
  const auto surf_id = eng.memory().register_array(
      "surf", 1 << 24, gpusim::ScaleClass::Surface);
  static const KernelSite& site =
      SIMAS_SITE("acct_buffer_site", SiteKind::ParallelLoop, 0);
  const Range3 r{0, 32, 0, 32, 0, 32};
  const double t0 = eng.ledger().now();
  eng.for_each(site, r, {in(vol_id), out(surf_id)}, [](idx, idx, idx) {});
  const double t_mixed = eng.ledger().now() - t0;
  const double t1 = eng.ledger().now();
  eng.for_each(site, r, {in(vol_id), out(vol_id)}, [](idx, idx, idx) {});
  const double t_vol = eng.ledger().now() - t1;
  EXPECT_GT(t_vol, 10.0 * t_mixed);
}

TEST(EngineAccounting, WrapperInitOverheadInflatesTraffic) {
  double t_plain = 0.0, t_wrapped = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    EngineConfig cfg = base_config();
    cfg.wrapper_init_overhead = pass == 0 ? 0.0 : 0.10;
    Engine eng(cfg);
    eng.cost().set_scales(1000.0, 1000.0);  // make traffic dominate launch
    const auto id = eng.memory().register_array("a", 1 << 24);
    static const KernelSite& site =
        SIMAS_SITE("acct_wrapper_site", SiteKind::ParallelLoop, 0);
    eng.for_each(site, Range3{0, 32, 0, 32, 0, 32}, {out(id)},
                 [](idx, idx, idx) {});
    (pass == 0 ? t_plain : t_wrapped) =
        eng.ledger().total(gpusim::TimeCategory::Compute);
  }
  EXPECT_NEAR(t_wrapped / t_plain, 1.10, 1e-9);
}

TEST(EngineAccounting, ArrayReductionAtomicFormCostsMoreThanFlipped) {
  // ACC / DC2018 array reductions use atomics (extra RMW traffic); the
  // DC2X loop-flip does not (paper Listings 3 -> 5).
  double t_atomic = 0.0, t_flipped = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    EngineConfig cfg = base_config();
    cfg.loops = pass == 0 ? LoopModel::Dc2018 : LoopModel::Dc2x;
    Engine eng(cfg);
    const auto id = eng.memory().register_array("a", 1 << 24);
    static const KernelSite& site =
        SIMAS_SITE("acct_arr_red", SiteKind::ArrayReduction, 0, false,
                 false, /*async_capable=*/false);
    std::vector<real> out_vec(16, 0.0);
    eng.array_reduce(site, Range3{0, 16, 0, 16, 0, 16}, {in(id)},
                     std::span<real>(out_vec),
                     [](idx, idx, idx) { return 1.0; });
    // Kernel-launch parts are close; compare compute-category time only.
    (pass == 0 ? t_atomic : t_flipped) =
        eng.ledger().total(gpusim::TimeCategory::Compute);
  }
  EXPECT_GT(t_atomic, t_flipped * 1.2);
}

TEST(EngineAccounting, UnifiedFirstTouchChargesOnce) {
  EngineConfig cfg = base_config();
  cfg.memory = gpusim::MemoryMode::Unified;
  cfg.loops = LoopModel::Dc2x;
  Engine eng(cfg);
  const auto id = eng.memory().register_array("a", 1 << 22);
  static const KernelSite& site =
      SIMAS_SITE("acct_um_touch", SiteKind::ParallelLoop, 0);
  const Range3 r{0, 64, 0, 64, 0, 64};  // covers the whole array
  eng.for_each(site, r, {in(id)}, [](idx, idx, idx) {});
  const double first = eng.ledger().total(gpusim::TimeCategory::DataMotion);
  EXPECT_GT(first, 0.0);  // first touch migrates
  eng.for_each(site, r, {in(id)}, [](idx, idx, idx) {});
  const double second = eng.ledger().total(gpusim::TimeCategory::DataMotion);
  EXPECT_DOUBLE_EQ(second, first);  // resident: no further migration
}

TEST(EngineAccounting, CountersTrackLaunchesAndBytes) {
  Engine eng(base_config());
  const auto id = eng.memory().register_array("a", 1 << 24);
  static const KernelSite& site =
      SIMAS_SITE("acct_counters", SiteKind::ParallelLoop, 0);
  const Range3 r{0, 8, 0, 8, 0, 8};
  eng.for_each(site, r, {in(id), out(id)}, [](idx, idx, idx) {});
  EXPECT_EQ(eng.counters().kernel_launches, 1);
  EXPECT_EQ(eng.counters().loops_executed, 1);
  // bytes = cells * sizeof(real) * (#accesses)
  EXPECT_EQ(eng.counters().bytes_touched, 8 * 8 * 8 * 8 * 2);
}

TEST(EngineAccounting, ReductionsBreakFusionChains) {
  Engine eng(base_config());
  const auto id = eng.memory().register_array("a", 1 << 24);
  static const KernelSite& loop_site =
      SIMAS_SITE("acct_fusebreak_loop", SiteKind::ParallelLoop, 91);
  static const KernelSite& red_site =
      SIMAS_SITE("acct_fusebreak_red", SiteKind::ScalarReduction, 91, false,
                 false, /*async_capable=*/false);
  const Range3 r{0, 4, 0, 4, 0, 4};
  eng.for_each(loop_site, r, {out(id)}, [](idx, idx, idx) {});
  eng.reduce_sum(red_site, r, {in(id)}, [](idx, idx, idx) { return 1.0; });
  eng.for_each(loop_site, r, {out(id)}, [](idx, idx, idx) {});
  // Three launches: the second loop cannot fuse across the reduction.
  EXPECT_EQ(eng.counters().kernel_launches, 3);
  EXPECT_EQ(eng.counters().fused_launches, 0);
}

TEST(EngineAccounting, ForEach1) {
  Engine eng(base_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& site1 =
      SIMAS_SITE("acct_1d_loop", SiteKind::ParallelLoop, 0);
  std::vector<real> v(100, 0.0);
  eng.for_each1(site1, Range1{0, 100}, {out(id)},
                [&](idx i) { v[static_cast<std::size_t>(i)] = real(i); });
  EXPECT_DOUBLE_EQ(v[99], 99.0);
}

TEST(EngineAccounting, ReduceMaxIdentityIsLowestRepresentable) {
  Engine eng(base_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& site =
      SIMAS_SITE("acct_redmax_ident", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  // Empty iteration space: the identity, not an arbitrary sentinel.
  const real empty =
      eng.reduce_max(site, Range3{0, 0, 0, 4, 0, 4}, {in(id)},
                     [](idx, idx, idx) { return 1.0; });
  EXPECT_EQ(empty, std::numeric_limits<real>::lowest());
  // Terms below the old -1e300 sentinel must still yield the true max.
  const real m = eng.reduce_max(site, Range3{0, 4, 0, 4, 0, 4}, {in(id)},
                                [](idx, idx, idx) { return -1.7e308; });
  EXPECT_EQ(m, -1.7e308);
}

TEST(EngineAccounting, DeviceSyncAdvancesClockOnGpuOnly) {
  Engine gpu(base_config());
  gpu.device_sync();
  EXPECT_GT(gpu.ledger().now(), 0.0);

  EngineConfig cpu_cfg = base_config();
  cpu_cfg.gpu = false;
  cpu_cfg.memory = gpusim::MemoryMode::HostOnly;
  cpu_cfg.device = gpusim::epyc7742_node();
  Engine cpu(cpu_cfg);
  cpu.device_sync();
  EXPECT_DOUBLE_EQ(cpu.ledger().now(), 0.0);
}

}  // namespace
}  // namespace simas::par
