// Portability-matrix differential suite: the cross-cell pin for the
// multi-vendor study (arXiv 2408.07843 analogue). Sweeps code versions x
// device classes x compiler personalities and asserts the one property
// the whole matrix rests on — physics is bit-identical in every cell,
// because devices and personalities feed only the cost model and the
// recorded op stream, never the kernel bodies. On top of the sweep:
// modeled-time sanity (a capacity-starved device is never faster under
// unified memory; a fusion-less personality is never faster than the
// fusing one), shape-key and graph-scope separation across cells, and fuzzed
// robustness properties for DeviceSpec -> CostModel / UnifiedPages
// (random specs never produce negative or NaN times; eviction respects
// the capacity invariant).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/unified_pages.hpp"
#include "par/compiler_personality.hpp"
#include "par/graph_cache.hpp"
#include "run/run_experiment.hpp"
#include "util/rng.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

using run::ExperimentConfig;
using run::ExperimentResult;
using run::run_experiment;

bool same_physics(const mhd::GlobalDiagnostics& a,
                  const mhd::GlobalDiagnostics& b) {
  return a.total_mass == b.total_mass && a.kinetic_energy == b.kinetic_energy &&
         a.magnetic_energy == b.magnetic_energy &&
         a.thermal_energy == b.thermal_energy && a.max_div_b == b.max_div_b &&
         a.max_speed == b.max_speed;
}

ExperimentConfig cell_config(variants::CodeVersion version,
                             gpusim::DeviceSpec device,
                             par::CompilerPersonality personality) {
  ExperimentConfig cfg;
  cfg.version = version;
  cfg.nranks = 2;
  cfg.device = std::move(device);
  cfg.personality = personality;
  cfg.grid = bench_support::bench_grid();
  cfg.measure_steps = 2;
  return cfg;
}

ExperimentResult run_cell(variants::CodeVersion version,
                          gpusim::DeviceClass device,
                          par::CompilerPersonality personality) {
  return run_experiment(
      cell_config(version, gpusim::device_spec(device), personality));
}

// ---------------------------------------------------------------------
// 1. The differential pin: every cell of the matrix produces physics
//    byte-identical to the same version's golden cell (A100 / nvf — the
//    source paper's device and toolchain).

TEST(PortabilityMatrix, EveryCellMatchesGoldenCellPhysics) {
  const std::vector<variants::CodeVersion> versions = {
      variants::CodeVersion::A, variants::CodeVersion::ADU,
      variants::CodeVersion::D2XU};
  for (const auto version : versions) {
    const ExperimentResult golden =
        run_cell(version, gpusim::DeviceClass::A100,
                 par::CompilerPersonality::Nvfortran);
    for (const auto device : gpusim::all_device_classes()) {
      for (const auto personality : par::all_personalities()) {
        const ExperimentResult res = run_cell(version, device, personality);
        EXPECT_TRUE(same_physics(res.final_diag, golden.final_diag))
            << variants::version_tag(version) << " on "
            << gpusim::device_class_name(device) << "/"
            << par::personality_tag(personality)
            << " diverged from the golden a100/nvf cell";
        EXPECT_GT(res.wall_minutes, 0.0);
      }
    }
  }
}

// ---------------------------------------------------------------------
// 2. Modeled-time monotonicity: knobs that can only remove capability
//    must never make the modeled run faster.

TEST(PortabilityMatrix, CapacityStarvedDeviceNeverFasterUnderUm) {
  // Same A100-class silicon, but with device memory cut to a sliver of
  // the working set: the UM page engine must evict and re-fault, which
  // costs writeback traffic — never less time than the roomy device.
  const ExperimentResult roomy = run_cell(variants::CodeVersion::ADU,
                                          gpusim::DeviceClass::A100,
                                          par::CompilerPersonality::Nvfortran);
  gpusim::DeviceSpec starved = gpusim::device_spec(gpusim::DeviceClass::A100);
  starved.mem_bytes = 1 << 20;  // 1 MiB: forces steady-state eviction
  starved.um_page_bytes = 1 << 12;
  const ExperimentResult tight =
      run_experiment(cell_config(variants::CodeVersion::ADU, starved,
                                 par::CompilerPersonality::Nvfortran));
  EXPECT_TRUE(same_physics(tight.final_diag, roomy.final_diag));
  EXPECT_GE(tight.wall_minutes, roomy.wall_minutes);
  EXPECT_GT(tight.metrics.counter("um.evictions"), 0);
}

TEST(PortabilityMatrix, FusionlessPersonalityNeverFasterOnAccVersion) {
  // flang-like drops ACC fusion chains and async launches: every launch
  // pays full overhead, so the pure-OpenACC version can only slow down.
  const ExperimentResult nvf = run_cell(variants::CodeVersion::A,
                                        gpusim::DeviceClass::A100,
                                        par::CompilerPersonality::Nvfortran);
  const ExperimentResult flang = run_cell(variants::CodeVersion::A,
                                          gpusim::DeviceClass::A100,
                                          par::CompilerPersonality::Flang);
  EXPECT_TRUE(same_physics(flang.final_diag, nvf.final_diag));
  EXPECT_GE(flang.wall_minutes, nvf.wall_minutes);
}

TEST(PortabilityMatrix, UmUnsupportedDeviceRunsZeroCopy) {
  // MI250X-class models a toolchain/driver combo without managed-memory
  // paging: fresh unified arrays are pinned host-side, so device touches
  // stream over the host link instead of fault-migrating.
  const ExperimentResult res = run_cell(variants::CodeVersion::ADU,
                                        gpusim::DeviceClass::Mi250x,
                                        par::CompilerPersonality::Nvfortran);
  EXPECT_FALSE(gpusim::device_spec(gpusim::DeviceClass::Mi250x).um_supported);
  EXPECT_GT(res.metrics.counter("um.remote_access_bytes"), 0);
  EXPECT_EQ(res.metrics.counter("um.faults"), 0);
}

// ---------------------------------------------------------------------
// 3. Shape keys: a personality or device change is a different stream
//    shape and must never share another cell's graph cache scope.

TEST(PortabilityMatrix, PersonalityChangeNeverSeedsFromAnotherCell) {
  par::GraphCache cache;
  ExperimentConfig cfg =
      cell_config(variants::CodeVersion::ADU,
                  gpusim::device_spec(gpusim::DeviceClass::A100),
                  par::CompilerPersonality::Nvfortran);
  cfg.nranks = 1;
  cfg.measure_steps = 1;
  cfg.graph_replay = true;
  cfg.graph_cache = &cache;

  const ExperimentResult cold = run_experiment(cfg);  // captures, publishes
  const auto first = cache.stats();
  ASSERT_GE(first.publishes, 1);
  EXPECT_EQ(cold.ranks.at(0).metrics.counter("graph.cache_seeds"), 0);

  const ExperimentResult warm = run_experiment(cfg);  // same cell: seeded
  const auto second = cache.stats();
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(second.publishes, first.publishes);
  EXPECT_GT(warm.ranks.at(0).metrics.counter("graph.cache_seeds"), 0);

  cfg.personality = par::CompilerPersonality::Flang;  // new cell
  const ExperimentResult other = run_experiment(cfg);
  const auto third = cache.stats();
  EXPECT_EQ(third.hits, second.hits);
  EXPECT_GT(third.misses, second.misses);
  EXPECT_GT(third.publishes, second.publishes);
  EXPECT_EQ(other.ranks.at(0).metrics.counter("graph.cache_seeds"), 0);
}

TEST(PortabilityMatrix, ShapeKeySeparatesEveryCell) {
  std::vector<std::string> keys;
  for (const auto device : gpusim::all_device_classes()) {
    for (const auto personality : par::all_personalities()) {
      keys.push_back(cell_config(variants::CodeVersion::ADU,
                                 gpusim::device_spec(device), personality)
                         .shape_key());
    }
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "two matrix cells share a shape key";
}

// ---------------------------------------------------------------------
// 4. Fuzzed robustness: arbitrary (even degenerate) DeviceSpec fields
//    must never leak NaN/negative time out of the cost model, and the
//    page engine's eviction must respect the capacity invariant.

gpusim::DeviceSpec random_spec(Rng& rng) {
  gpusim::DeviceSpec s;
  s.name = "fuzz";
  s.mem_bw_gbs = rng.uniform(0.0, 5000.0);
  s.eff_bw_fraction = rng.uniform(0.0, 1.2);
  s.launch_overhead_s = rng.uniform(0.0, 1e-4);
  s.p2p_bw_gbs = rng.uniform(0.0, 600.0);
  s.p2p_latency_s = rng.uniform(0.0, 1e-4);
  s.host_link_bw_gbs = rng.uniform(0.0, 64.0);
  s.host_link_latency_s = rng.uniform(0.0, 1e-4);
  s.um_page_bytes = static_cast<i64>(rng.uniform(0.0, 1 << 22));
  s.um_fault_latency_s = rng.uniform(0.0, 1e-3);
  s.um_kernel_gap_s = rng.uniform(0.0, 1e-4);
  s.um_staging_multiplier = rng.uniform(0.0, 8.0);
  s.ws_boost_per_halving = rng.uniform(0.0, 0.2);
  s.ws_boost_cap = rng.uniform(1.0, 2.0);
  s.mem_bytes = rng.uniform(0.0, 2e11);
  s.is_cpu = rng.uniform() < 0.2;
  s.um_supported = rng.uniform() < 0.8;
  // A handful of hard zeros: the degenerate corners (no bandwidth, no
  // pages, no memory) are exactly where division blows up.
  if (rng.uniform() < 0.1) s.mem_bw_gbs = 0.0;
  if (rng.uniform() < 0.1) s.eff_bw_fraction = 0.0;
  if (rng.uniform() < 0.1) s.host_link_bw_gbs = 0.0;
  if (rng.uniform() < 0.1) s.p2p_bw_gbs = 0.0;
  if (rng.uniform() < 0.1) s.um_page_bytes = 0;
  if (rng.uniform() < 0.1) s.mem_bytes = 0.0;
  return s;
}

TEST(PortabilityProperty, RandomDeviceSpecsNeverYieldNanOrNegativeTime) {
  Rng rng(0xC0FFEEu);
  const gpusim::ScaleClass classes[] = {gpusim::ScaleClass::Volume,
                                        gpusim::ScaleClass::Surface,
                                        gpusim::ScaleClass::None};
  for (int trial = 0; trial < 300; ++trial) {
    gpusim::CostModel cm(random_spec(rng), rng.uniform(0.5, 40.0),
                         rng.uniform(0.5, 12.0));
    cm.set_working_set_shrink(rng.uniform(0.05, 64.0));
    cm.set_unified_bw_penalty(rng.uniform(1.0, 3.0));
    cm.set_dc_bw_penalty(rng.uniform(1.0, 2.0));
    const i64 sizes[] = {0, 1, static_cast<i64>(rng.uniform(0.0, 1 << 30))};
    for (const i64 b : sizes) {
      for (const auto sc : classes) {
        const double times[] = {
            cm.kernel_time(b, sc),          cm.um_migration_time(b, sc),
            cm.um_prefetch_time(b, sc),     cm.um_remote_access_time(b, sc),
            cm.p2p_transfer_time(b, sc),    cm.host_transfer_time(b, sc),
            cm.local_copy_time(b, sc),      cm.effective_bw(),
            cm.launch_time(false, false, true),
            cm.launch_time(true, true, false)};
        for (const double t : times) {
          ASSERT_TRUE(std::isfinite(t))
              << "non-finite modeled time at trial " << trial;
          ASSERT_GE(t, 0.0) << "negative modeled time at trial " << trial;
        }
      }
    }
  }
}

TEST(PortabilityProperty, UnifiedPagesEvictionRespectsCapacity) {
  Rng rng(0xBADD1CEu);
  for (int trial = 0; trial < 25; ++trial) {
    gpusim::UnifiedPages up;
    const i64 page = 1LL << static_cast<int>(rng.uniform(5.0, 13.0));
    const i64 capacity = static_cast<i64>(rng.uniform(0.0, 1 << 16));
    up.configure(page, capacity);
    const int narrays = 4;
    std::vector<i64> sizes(narrays);
    for (int a = 0; a < narrays; ++a) {
      sizes[a] = static_cast<i64>(rng.uniform(1.0, 1 << 15));
      up.add_array(a, sizes[a]);
    }
    for (int op = 0; op < 300; ++op) {
      const int a = static_cast<int>(rng.uniform(0.0, narrays));
      const i64 bytes = static_cast<i64>(rng.uniform(0.0, 1 << 15));
      switch (static_cast<int>(rng.uniform(0.0, 6.0))) {
        case 0: up.touch_device(a, bytes, rng.uniform() < 0.5); break;
        case 1: up.touch_host(a, bytes, rng.uniform() < 0.5); break;
        case 2: up.prefetch_to_device(a, bytes); break;
        case 3: up.prefetch_to_host(a, bytes); break;
        case 4:
          up.advise(a, rng.uniform() < 0.5 ? gpusim::UmAdvise::ReadMostly
                                           : gpusim::UmAdvise::PreferredHost);
          break;
        case 5: up.touch_device(a, sizes[a], false); break;
      }
      // Capacity invariant: total device residency only exceeds the
      // capacity when a single working-set array is itself oversized —
      // eviction never sacrifices the array being serviced.
      i64 max_resident = 0;
      for (int b = 0; b < narrays; ++b) {
        const i64 r = up.device_resident_bytes(b);
        ASSERT_GE(r, 0);
        ASSERT_LE(r, sizes[b]);
        max_resident = std::max(max_resident, r);
      }
      ASSERT_GE(up.device_resident_bytes(), 0);
      ASSERT_LE(up.device_resident_bytes(),
                std::max(up.capacity_bytes(), max_resident))
          << "trial " << trial << " op " << op;
      const auto& st = up.stats();
      ASSERT_GE(st.h2d_bytes, 0);
      ASSERT_GE(st.d2h_bytes, 0);
      ASSERT_GE(st.evicted_bytes, 0);
    }
  }
}

}  // namespace
}  // namespace simas
