// Golden-equivalence test for the scheduler refactor.
//
// The Engine used to be a monolith that accounted modeled time inline;
// it is now a recording front-end feeding kernel-stream IR ops to the
// Scheduler. This test pins the refactor bit-for-bit: a
// ReferenceAccountant below re-implements the pre-refactor arithmetic
// verbatim (same operations, same order, same doubles), and every loop
// model x memory mode must reproduce its clock, category totals,
// counters, and trace stream EXACTLY (==, not near). The lowering table
// at the end pins par::lowering_policy() cell by cell.

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "par/engine.hpp"
#include "par/site_table.hpp"

namespace simas::par {
namespace {

using gpusim::TimeCategory;

struct Snapshot {
  double now = 0.0;
  std::array<double, 4> totals{};
  EngineCounters counters;
  std::vector<trace::Event> events;
};

bool events_equal(const std::vector<trace::Event>& a,
                  const std::vector<trace::Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].t0 != b[i].t0 || a[i].t1 != b[i].t1 ||
        a[i].lane != b[i].lane || a[i].name != b[i].name)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Reference: the seed engine's accounting, replicated verbatim against
// private cost/ledger/memory/trace state.

class ReferenceAccountant {
 public:
  explicit ReferenceAccountant(const EngineConfig& cfg)
      : cfg_(cfg), cost_(cfg.device), mem_(cfg.memory, &cost_, &ledger_) {
    if (mem_.unified()) cost_.set_unified_bw_penalty(0.82);
    if (cfg_.gpu && cfg_.loops != LoopModel::Acc)
      cost_.set_dc_bw_penalty(0.985);
    tracer_.enable(true);
  }

  gpusim::ArrayId register_array(const std::string& name, i64 bytes,
                                 gpusim::ScaleClass scale) {
    return mem_.register_array(name, bytes, scale);
  }

  void set_category(TimeCategory cat) { category_ = cat; }

  void kernel(const KernelSite& site, i64 cells,
              std::initializer_list<Access> acc) {
    counters_.loops_executed++;
    const i64 bytes = touch(acc, cells);
    const bool fused = cfg_.gpu && cfg_.loops == LoopModel::Acc &&
                       cfg_.fusion_enabled && site.fusion_group != 0 &&
                       site.fusion_group == last_fusion_group_;
    if (fused) counters_.fused_launches++;
    last_fusion_group_ = site.fusion_group;
    if (!fused) counters_.kernel_launches++;
    const bool async = cfg_.gpu && cfg_.loops == LoopModel::Acc &&
                       cfg_.async_enabled && site.async_capable;
    charge(site, bytes, scale_of(site, acc), fused, async,
           1.0 + cfg_.wrapper_init_overhead);
  }

  void reduction(const KernelSite& site, i64 cells,
                 std::initializer_list<Access> acc) {
    counters_.loops_executed++;
    counters_.reduction_loops++;
    counters_.kernel_launches++;
    last_fusion_group_ = 0;
    const i64 bytes = touch(acc, cells);
    charge(site, bytes, scale_of(site, acc), false, false, 1.0);
  }

  void array_reduction(const KernelSite& site, i64 cells,
                       std::initializer_list<Access> acc) {
    counters_.loops_executed++;
    counters_.reduction_loops++;
    counters_.kernel_launches++;
    last_fusion_group_ = 0;
    const i64 bytes = touch(acc, cells);
    const double factor =
        (cfg_.gpu && cfg_.loops != LoopModel::Dc2x) ? 1.35 : 1.0;
    charge(site, bytes, scale_of(site, acc), false, false, factor);
  }

  void device_sync() {
    last_fusion_group_ = 0;
    if (cfg_.gpu)
      ledger_.advance(cfg_.device.launch_overhead_s * 0.5,
                      TimeCategory::LaunchGap);
  }

  void break_fusion() { last_fusion_group_ = 0; }

  Snapshot snapshot() const {
    Snapshot s;
    s.now = ledger_.now();
    for (int c = 0; c < 4; ++c)
      s.totals[static_cast<std::size_t>(c)] =
          ledger_.total(static_cast<TimeCategory>(c));
    s.counters = counters_;
    s.events = tracer_.events();
    return s;
  }

 private:
  i64 touch(std::initializer_list<Access> acc, i64 cells) {
    i64 bytes = 0;
    for (const Access& a : acc) {
      const i64 touched = std::min<i64>(
          cells * static_cast<i64>(sizeof(real)), mem_.record(a.id).bytes);
      bytes += touched;
      if (cfg_.gpu)
        mem_.on_device_access(a.id, touched, TimeCategory::DataMotion);
    }
    return bytes;
  }

  gpusim::ScaleClass scale_of(const KernelSite& site,
                              std::initializer_list<Access> acc) const {
    if (site.surface_scaled) return gpusim::ScaleClass::Surface;
    for (const Access& a : acc) {
      if (mem_.record(a.id).scale == gpusim::ScaleClass::Surface)
        return gpusim::ScaleClass::Surface;
    }
    return gpusim::ScaleClass::Volume;
  }

  void charge(const KernelSite& site, i64 bytes, gpusim::ScaleClass scale,
              bool fused, bool async, double extra_traffic_factor) {
    const bool unified = mem_.unified() && cfg_.gpu;
    const double t0 = ledger_.now();
    ledger_.advance(cost_.launch_time(fused, async, unified),
                    TimeCategory::LaunchGap);
    const double traffic =
        cost_.kernel_time(bytes, scale) * extra_traffic_factor;
    ledger_.advance(traffic, category_);
    counters_.bytes_touched += bytes;
    if (tracer_.enabled())
      tracer_.record(t0, ledger_.now(), trace::Lane::Kernel, site.name);
  }

  EngineConfig cfg_;
  gpusim::ClockLedger ledger_;
  gpusim::CostModel cost_;
  gpusim::MemoryManager mem_;
  trace::Recorder tracer_;
  EngineCounters counters_;
  TimeCategory category_ = TimeCategory::Compute;
  int last_fusion_group_ = 0;
};

// ---------------------------------------------------------------------
// One representative op script exercising every accounting path: fusion
// chains, chain restarts, reductions breaking fusion, atomic/flipped
// array reductions, surface scaling by site flag and by buffer, the MPI
// category scope, 1-D entry points, sync and explicit fusion breaks.

const Range3 kVol{0, 16, 0, 12, 0, 10};
const Range3 kSmall{0, 8, 0, 8, 0, 8};
const Range1 kPacked{0, 600};

struct Sites {
  const KernelSite& chain_a;
  const KernelSite& chain_b;
  const KernelSite& solo;
  const KernelSite& no_async;
  const KernelSite& surf;
  const KernelSite& red;
  const KernelSite& arr_red;
  const KernelSite& pack;
  const KernelSite& red1;

  static const Sites& get() {
    static const Sites s{
        SIMAS_SITE("golden_chain_a", SiteKind::ParallelLoop, 42),
        SIMAS_SITE("golden_chain_b", SiteKind::ParallelLoop, 42),
        SIMAS_SITE("golden_solo", SiteKind::ParallelLoop, 0),
        SIMAS_SITE("golden_no_async", SiteKind::ParallelLoop, 0, false,
                   false, /*async_capable=*/false),
        SIMAS_SITE("golden_surf", SiteKind::ParallelLoop, 0, false, false,
                   true, /*surface_scaled=*/true),
        SIMAS_SITE("golden_red", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false),
        SIMAS_SITE("golden_arr_red", SiteKind::ArrayReduction, 0, false,
                 false, /*async_capable=*/false),
        SIMAS_SITE("golden_pack", SiteKind::ParallelLoop, 0),
        SIMAS_SITE("golden_red1", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false),
    };
    return s;
  }
};

Snapshot run_engine(const EngineConfig& cfg) {
  const Sites& s = Sites::get();
  Engine eng(cfg);
  eng.tracer().enable(true);
  const auto a = eng.memory().register_array("golden_a", 1 << 16);
  const auto b = eng.memory().register_array("golden_b", 1 << 16);
  const auto buf = eng.memory().register_array("golden_buf", 1 << 13,
                                               gpusim::ScaleClass::Surface);
  const auto noop3 = [](idx, idx, idx) {};
  std::vector<real> arr_out(static_cast<std::size_t>(kSmall.ni()), 0.0);

  for (int rep = 0; rep < 2; ++rep) {  // second rep: UM data now resident
    eng.for_each(s.chain_a, kVol, {in(a), out(b)}, noop3);
    eng.for_each(s.chain_b, kVol, {in(b)}, noop3);  // fuses under ACC
    eng.for_each(s.solo, kVol, {out(a)}, noop3);
    eng.reduce_sum(s.red, kVol, {in(a)},
                   [](idx, idx, idx) { return 1.0; });
    eng.for_each(s.chain_a, kVol, {in(a)}, noop3);  // chain restart
    eng.break_fusion();
    eng.for_each(s.chain_b, kVol, {in(b)}, noop3);  // broken: no fusion
    eng.array_reduce(s.arr_red, kSmall, {in(a)}, std::span<real>(arr_out),
                     [](idx, idx, idx) { return 1.0; });
    eng.for_each(s.surf, kSmall, {in(a)}, noop3);   // surface via site
    eng.for_each(s.solo, kSmall, {in(buf)}, noop3); // surface via buffer
    {
      Engine::CategoryScope mpi(eng, TimeCategory::Mpi);
      eng.for_each1(s.pack, kPacked, {out(buf)}, [](idx) {});
    }
    eng.reduce_max(s.red, kVol, {in(b)},
                   [](idx, idx, idx) { return 2.0; });
    eng.device_sync();
    eng.reduce_sum(s.red1, Range3{0, 600, 0, 1, 0, 1}, {in(a)},
                   [](idx, idx, idx) { return 1.0; });
    eng.for_each(s.no_async, kVol, {out(b)}, noop3);
  }

  Snapshot snap;
  snap.now = eng.ledger().now();
  for (int c = 0; c < 4; ++c)
    snap.totals[static_cast<std::size_t>(c)] =
        eng.ledger().total(static_cast<TimeCategory>(c));
  snap.counters = eng.counters();
  snap.events = eng.tracer().events();
  return snap;
}

Snapshot run_reference(const EngineConfig& cfg) {
  const Sites& s = Sites::get();
  ReferenceAccountant ref(cfg);
  const auto a =
      ref.register_array("golden_a", 1 << 16, gpusim::ScaleClass::Volume);
  const auto b =
      ref.register_array("golden_b", 1 << 16, gpusim::ScaleClass::Volume);
  const auto buf =
      ref.register_array("golden_buf", 1 << 13, gpusim::ScaleClass::Surface);
  const i64 vol = kVol.count();
  const i64 small = kSmall.count();
  const i64 packed = kPacked.count();

  for (int rep = 0; rep < 2; ++rep) {
    ref.kernel(s.chain_a, vol, {in(a), out(b)});
    ref.kernel(s.chain_b, vol, {in(b)});
    ref.kernel(s.solo, vol, {out(a)});
    ref.reduction(s.red, vol, {in(a)});
    ref.kernel(s.chain_a, vol, {in(a)});
    ref.break_fusion();
    ref.kernel(s.chain_b, vol, {in(b)});
    ref.array_reduction(s.arr_red, small, {in(a)});
    ref.kernel(s.surf, small, {in(a)});
    ref.kernel(s.solo, small, {in(buf)});
    ref.set_category(TimeCategory::Mpi);
    ref.kernel(s.pack, packed, {out(buf)});
    ref.set_category(TimeCategory::Compute);
    ref.reduction(s.red, vol, {in(b)});
    ref.device_sync();
    ref.reduction(s.red1, packed, {in(a)});
    ref.kernel(s.no_async, vol, {out(b)});
  }
  return ref.snapshot();
}

void expect_identical(const EngineConfig& cfg, const char* label) {
  SCOPED_TRACE(label);
  const Snapshot eng = run_engine(cfg);
  const Snapshot ref = run_reference(cfg);

  // Exact equality: the refactor must not change a single double.
  EXPECT_EQ(eng.now, ref.now);
  EXPECT_EQ(eng.totals[0], ref.totals[0]);  // Compute
  EXPECT_EQ(eng.totals[1], ref.totals[1]);  // LaunchGap
  EXPECT_EQ(eng.totals[2], ref.totals[2]);  // DataMotion
  EXPECT_EQ(eng.totals[3], ref.totals[3]);  // Mpi
  EXPECT_GT(eng.now, 0.0);  // the script actually charged time

  EXPECT_EQ(eng.counters.kernel_launches, ref.counters.kernel_launches);
  EXPECT_EQ(eng.counters.loops_executed, ref.counters.loops_executed);
  EXPECT_EQ(eng.counters.fused_launches, ref.counters.fused_launches);
  EXPECT_EQ(eng.counters.reduction_loops, ref.counters.reduction_loops);
  EXPECT_EQ(eng.counters.bytes_touched, ref.counters.bytes_touched);

  EXPECT_TRUE(events_equal(eng.events, ref.events))
      << "trace streams differ (" << eng.events.size() << " vs "
      << ref.events.size() << " events)";
}

EngineConfig config_for(LoopModel loops, gpusim::MemoryMode mem) {
  EngineConfig cfg;
  cfg.loops = loops;
  cfg.memory = mem;
  cfg.gpu = true;
  cfg.host_threads = 1;
  return cfg;
}

TEST(SchedulerGolden, AllLoopModelsAndMemoryModesMatchSeedAccounting) {
  for (const LoopModel loops :
       {LoopModel::Acc, LoopModel::Dc2018, LoopModel::Dc2x}) {
    for (const gpusim::MemoryMode mem :
         {gpusim::MemoryMode::Manual, gpusim::MemoryMode::Unified}) {
      const EngineConfig cfg = config_for(loops, mem);
      const std::string label = std::string(loop_model_name(loops)) + "/" +
                                gpusim::memory_mode_name(mem);
      expect_identical(cfg, label.c_str());
    }
  }
}

TEST(SchedulerGolden, CpuEngineMatchesSeedAccounting) {
  EngineConfig cfg;
  cfg.loops = LoopModel::Acc;
  cfg.memory = gpusim::MemoryMode::HostOnly;
  cfg.gpu = false;
  cfg.device = gpusim::epyc7742_node();
  cfg.host_threads = 1;
  expect_identical(cfg, "cpu/host-only");
}

TEST(SchedulerGolden, AblationTogglesMatchSeedAccounting) {
  EngineConfig no_fusion = config_for(LoopModel::Acc, gpusim::MemoryMode::Manual);
  no_fusion.fusion_enabled = false;
  expect_identical(no_fusion, "acc/no-fusion");

  EngineConfig no_async = config_for(LoopModel::Acc, gpusim::MemoryMode::Manual);
  no_async.async_enabled = false;
  expect_identical(no_async, "acc/no-async");

  EngineConfig wrapped = config_for(LoopModel::Dc2x, gpusim::MemoryMode::Unified);
  wrapped.wrapper_init_overhead = 0.08;  // paper Code 6 wrapper traffic
  expect_identical(wrapped, "dc2x/wrapper-overhead");
}

TEST(SchedulerGolden, OverlapHaloFlagDoesNotChangeAccounting) {
  // EngineConfig::overlap_halo is never consulted by the Scheduler:
  // accounting per op is unchanged, only the op sequence emitted by the
  // halo layer differs. The same script under the flag must reproduce the
  // reference accounting bit-for-bit.
  for (const LoopModel loops :
       {LoopModel::Acc, LoopModel::Dc2018, LoopModel::Dc2x}) {
    for (const gpusim::MemoryMode mem :
         {gpusim::MemoryMode::Manual, gpusim::MemoryMode::Unified}) {
      EngineConfig cfg = config_for(loops, mem);
      cfg.overlap_halo = true;
      const std::string label = std::string(loop_model_name(loops)) + "/" +
                                gpusim::memory_mode_name(mem) + "/overlap";
      expect_identical(cfg, label.c_str());
    }
  }
}

// ---------------------------------------------------------------------
// The lowering table: every loop model x personality x target x ablation
// cell, with the expected LoweringPolicy written out (not recomputed).
// Columns: loops, personality, target, fusion_enabled, async_enabled ->
// {fuse, async, array_reduce_traffic, honors_mem_prefetch,
//  honors_mem_advise}.

TEST(LoweringPolicyTable, EveryCellMatchesItsLiteral) {
  constexpr LoopModel Acc = LoopModel::Acc;
  constexpr LoopModel Dc2018 = LoopModel::Dc2018;
  constexpr LoopModel Dc2x = LoopModel::Dc2x;
  constexpr CompilerPersonality Nvfortran = CompilerPersonality::Nvfortran;
  constexpr CompilerPersonality Ifx = CompilerPersonality::Ifx;
  constexpr CompilerPersonality Flang = CompilerPersonality::Flang;
  constexpr bool kGpu = true;
  constexpr bool kCpu = false;
  struct Cell {
    LoopModel loops;
    CompilerPersonality personality;
    bool gpu;
    bool fusion_enabled;
    bool async_enabled;
    LoweringPolicy want;
  };
  const Cell cells[] = {
      {Acc, Nvfortran, kGpu, true, true, {true, true, 1.35, true, true}},
      {Acc, Nvfortran, kGpu, true, false, {true, false, 1.35, true, true}},
      {Acc, Nvfortran, kGpu, false, true, {false, true, 1.35, true, true}},
      {Acc, Nvfortran, kGpu, false, false, {false, false, 1.35, true, true}},
      {Acc, Nvfortran, kCpu, true, true, {false, false, 1.0, true, true}},
      {Acc, Nvfortran, kCpu, true, false, {false, false, 1.0, true, true}},
      {Acc, Nvfortran, kCpu, false, true, {false, false, 1.0, true, true}},
      {Acc, Nvfortran, kCpu, false, false, {false, false, 1.0, true, true}},
      {Acc, Ifx, kGpu, true, true, {false, false, 1.12, true, false}},
      {Acc, Ifx, kGpu, true, false, {false, false, 1.12, true, false}},
      {Acc, Ifx, kGpu, false, true, {false, false, 1.12, true, false}},
      {Acc, Ifx, kGpu, false, false, {false, false, 1.12, true, false}},
      {Acc, Ifx, kCpu, true, true, {false, false, 1.0, true, false}},
      {Acc, Ifx, kCpu, true, false, {false, false, 1.0, true, false}},
      {Acc, Ifx, kCpu, false, true, {false, false, 1.0, true, false}},
      {Acc, Ifx, kCpu, false, false, {false, false, 1.0, true, false}},
      {Acc, Flang, kGpu, true, true, {false, false, 1.5, false, false}},
      {Acc, Flang, kGpu, true, false, {false, false, 1.5, false, false}},
      {Acc, Flang, kGpu, false, true, {false, false, 1.5, false, false}},
      {Acc, Flang, kGpu, false, false, {false, false, 1.5, false, false}},
      {Acc, Flang, kCpu, true, true, {false, false, 1.0, false, false}},
      {Acc, Flang, kCpu, true, false, {false, false, 1.0, false, false}},
      {Acc, Flang, kCpu, false, true, {false, false, 1.0, false, false}},
      {Acc, Flang, kCpu, false, false, {false, false, 1.0, false, false}},
      {Dc2018, Nvfortran, kGpu, true, true, {false, false, 1.35, true, true}},
      {Dc2018, Nvfortran, kGpu, true, false, {false, false, 1.35, true, true}},
      {Dc2018, Nvfortran, kGpu, false, true, {false, false, 1.35, true, true}},
      {Dc2018, Nvfortran, kGpu, false, false, {false, false, 1.35, true, true}},
      {Dc2018, Nvfortran, kCpu, true, true, {false, false, 1.0, true, true}},
      {Dc2018, Nvfortran, kCpu, true, false, {false, false, 1.0, true, true}},
      {Dc2018, Nvfortran, kCpu, false, true, {false, false, 1.0, true, true}},
      {Dc2018, Nvfortran, kCpu, false, false, {false, false, 1.0, true, true}},
      {Dc2018, Ifx, kGpu, true, true, {false, false, 1.12, true, false}},
      {Dc2018, Ifx, kGpu, true, false, {false, false, 1.12, true, false}},
      {Dc2018, Ifx, kGpu, false, true, {false, false, 1.12, true, false}},
      {Dc2018, Ifx, kGpu, false, false, {false, false, 1.12, true, false}},
      {Dc2018, Ifx, kCpu, true, true, {false, false, 1.0, true, false}},
      {Dc2018, Ifx, kCpu, true, false, {false, false, 1.0, true, false}},
      {Dc2018, Ifx, kCpu, false, true, {false, false, 1.0, true, false}},
      {Dc2018, Ifx, kCpu, false, false, {false, false, 1.0, true, false}},
      {Dc2018, Flang, kGpu, true, true, {false, false, 1.5, false, false}},
      {Dc2018, Flang, kGpu, true, false, {false, false, 1.5, false, false}},
      {Dc2018, Flang, kGpu, false, true, {false, false, 1.5, false, false}},
      {Dc2018, Flang, kGpu, false, false, {false, false, 1.5, false, false}},
      {Dc2018, Flang, kCpu, true, true, {false, false, 1.0, false, false}},
      {Dc2018, Flang, kCpu, true, false, {false, false, 1.0, false, false}},
      {Dc2018, Flang, kCpu, false, true, {false, false, 1.0, false, false}},
      {Dc2018, Flang, kCpu, false, false, {false, false, 1.0, false, false}},
      {Dc2x, Nvfortran, kGpu, true, true, {false, false, 1.0, true, true}},
      {Dc2x, Nvfortran, kGpu, true, false, {false, false, 1.0, true, true}},
      {Dc2x, Nvfortran, kGpu, false, true, {false, false, 1.0, true, true}},
      {Dc2x, Nvfortran, kGpu, false, false, {false, false, 1.0, true, true}},
      {Dc2x, Nvfortran, kCpu, true, true, {false, false, 1.0, true, true}},
      {Dc2x, Nvfortran, kCpu, true, false, {false, false, 1.0, true, true}},
      {Dc2x, Nvfortran, kCpu, false, true, {false, false, 1.0, true, true}},
      {Dc2x, Nvfortran, kCpu, false, false, {false, false, 1.0, true, true}},
      {Dc2x, Ifx, kGpu, true, true, {false, false, 1.12, true, false}},
      {Dc2x, Ifx, kGpu, true, false, {false, false, 1.12, true, false}},
      {Dc2x, Ifx, kGpu, false, true, {false, false, 1.12, true, false}},
      {Dc2x, Ifx, kGpu, false, false, {false, false, 1.12, true, false}},
      {Dc2x, Ifx, kCpu, true, true, {false, false, 1.0, true, false}},
      {Dc2x, Ifx, kCpu, true, false, {false, false, 1.0, true, false}},
      {Dc2x, Ifx, kCpu, false, true, {false, false, 1.0, true, false}},
      {Dc2x, Ifx, kCpu, false, false, {false, false, 1.0, true, false}},
      {Dc2x, Flang, kGpu, true, true, {false, false, 1.5, false, false}},
      {Dc2x, Flang, kGpu, true, false, {false, false, 1.5, false, false}},
      {Dc2x, Flang, kGpu, false, true, {false, false, 1.5, false, false}},
      {Dc2x, Flang, kGpu, false, false, {false, false, 1.5, false, false}},
      {Dc2x, Flang, kCpu, true, true, {false, false, 1.0, false, false}},
      {Dc2x, Flang, kCpu, true, false, {false, false, 1.0, false, false}},
      {Dc2x, Flang, kCpu, false, true, {false, false, 1.0, false, false}},
      {Dc2x, Flang, kCpu, false, false, {false, false, 1.0, false, false}},
  };
  ASSERT_EQ(std::size(cells), 72u);
  for (const Cell& c : cells) {
    EngineConfig cfg;
    cfg.loops = c.loops;
    cfg.personality = c.personality;
    cfg.gpu = c.gpu;
    cfg.fusion_enabled = c.fusion_enabled;
    cfg.async_enabled = c.async_enabled;
    const LoweringPolicy got = lowering_policy(cfg);
    SCOPED_TRACE(std::string(loop_model_name(c.loops)) + "/" +
                 personality_tag(c.personality) + (c.gpu ? "/gpu" : "/cpu") +
                 (c.fusion_enabled ? "/fusion" : "/no-fusion") +
                 (c.async_enabled ? "/async" : "/no-async"));
    EXPECT_EQ(got.fuse, c.want.fuse);
    EXPECT_EQ(got.async, c.want.async);
    EXPECT_EQ(got.array_reduce_traffic, c.want.array_reduce_traffic);
    EXPECT_EQ(got.honors_mem_prefetch, c.want.honors_mem_prefetch);
    EXPECT_EQ(got.honors_mem_advise, c.want.honors_mem_advise);
  }
}

}  // namespace
}  // namespace simas::par
