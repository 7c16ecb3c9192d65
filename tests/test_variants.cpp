// Code-version traits, directive-model rules, and the Table I/II ladders.

#include <gtest/gtest.h>

#include "variants/code_version.hpp"
#include "variants/directive_model.hpp"

namespace simas::variants {
namespace {

CodeInventory sample_inventory() {
  CodeInventory inv;
  inv.parallel_loops = 50;
  inv.scalar_reductions = 8;
  inv.array_reductions = 2;
  inv.atomic_updates = 1;
  inv.intrinsic_kernels = 2;
  inv.routine_sites = 3;
  inv.persistent_arrays = 40;
  inv.update_sites = 6;
  inv.derived_types = 1;
  inv.device_globals = 1;
  inv.base_lines = 12000;
  inv.setup_duplicate_lines = 900;
  return inv;
}

TEST(Traits, MatchPaperSectionIV) {
  const auto a = traits_of(CodeVersion::A);
  EXPECT_EQ(a.loops, par::LoopModel::Acc);
  EXPECT_EQ(a.memory, gpusim::MemoryMode::Manual);
  EXPECT_TRUE(a.acc_parallel_loops);
  EXPECT_TRUE(a.acc_data_directives);

  const auto ad = traits_of(CodeVersion::AD);
  EXPECT_EQ(ad.loops, par::LoopModel::Dc2018);
  EXPECT_FALSE(ad.acc_parallel_loops);   // plain loops became DC
  EXPECT_TRUE(ad.acc_scalar_reductions); // F2018 DC cannot reduce
  EXPECT_TRUE(ad.acc_data_directives);

  const auto adu = traits_of(CodeVersion::ADU);
  EXPECT_EQ(adu.memory, gpusim::MemoryMode::Unified);
  EXPECT_FALSE(adu.acc_data_directives);
  EXPECT_TRUE(adu.acc_derived_type_data);  // paper Sec. IV-C

  const auto ad2xu = traits_of(CodeVersion::AD2XU);
  EXPECT_EQ(ad2xu.loops, par::LoopModel::Dc2x);
  EXPECT_FALSE(ad2xu.acc_scalar_reductions);  // DC2X reduce clause
  EXPECT_TRUE(ad2xu.acc_atomics);             // array reductions keep atomic

  const auto d2xu = traits_of(CodeVersion::D2XU);
  EXPECT_FALSE(d2xu.acc_atomics);
  EXPECT_TRUE(d2xu.needs_inline_flags);
  EXPECT_TRUE(d2xu.needs_launch_script);
  EXPECT_FALSE(d2xu.duplicate_cpu_setup_routines);  // removed via UM

  const auto d2xad = traits_of(CodeVersion::D2XAd);
  EXPECT_EQ(d2xad.memory, gpusim::MemoryMode::Manual);
  EXPECT_TRUE(d2xad.acc_data_directives);
  EXPECT_TRUE(d2xad.init_wrapper_routines);
}

TEST(DirectiveModel, CpuAndD2xuHaveZeroDirectives) {
  const auto inv = sample_inventory();
  EXPECT_EQ(directives_for(inv, CodeVersion::Cpu).total(), 0);
  EXPECT_EQ(directives_for(inv, CodeVersion::D2XU).total(), 0);
}

TEST(DirectiveModel, LadderStrictlyDecreasesThroughCode5) {
  const auto inv = sample_inventory();
  const i64 a = directives_for(inv, CodeVersion::A).total();
  const i64 ad = directives_for(inv, CodeVersion::AD).total();
  const i64 adu = directives_for(inv, CodeVersion::ADU).total();
  const i64 ad2xu = directives_for(inv, CodeVersion::AD2XU).total();
  const i64 d2xu = directives_for(inv, CodeVersion::D2XU).total();
  const i64 d2xad = directives_for(inv, CodeVersion::D2XAd).total();
  EXPECT_GT(a, ad);
  EXPECT_GT(ad, adu);
  EXPECT_GT(adu, ad2xu);
  EXPECT_GT(ad2xu, d2xu);
  EXPECT_EQ(d2xu, 0);
  // Code 6 sits between Code 4 and Code 2 (paper: 277 vs 55 and 540).
  EXPECT_GT(d2xad, ad2xu);
  EXPECT_LT(d2xad, ad);
}

TEST(DirectiveModel, ReductionRatiosInPaperBallpark) {
  // Paper: A->AD 2.7x, A->D2XAd 5.26x. Rule-derived ratios must land in
  // the same regime for a MAS-like construct mix.
  const auto inv = sample_inventory();
  const double a =
      static_cast<double>(directives_for(inv, CodeVersion::A).total());
  const double ad =
      static_cast<double>(directives_for(inv, CodeVersion::AD).total());
  const double d2xad =
      static_cast<double>(directives_for(inv, CodeVersion::D2XAd).total());
  EXPECT_GT(a / ad, 1.8);
  EXPECT_LT(a / ad, 4.0);
  EXPECT_GT(a / d2xad, 3.5);
  EXPECT_LT(a / d2xad, 8.0);
}

TEST(DirectiveModel, TotalLinesOrdering) {
  // Paper Table I: Code 1 is the longest; Code 5 is the shortest (even
  // shorter than the CPU code: DC nests are more compact and the duplicate
  // CPU setup routines are gone).
  const auto inv = sample_inventory();
  const i64 cpu = total_lines_for(inv, CodeVersion::Cpu);
  const i64 a = total_lines_for(inv, CodeVersion::A);
  const i64 d2xu = total_lines_for(inv, CodeVersion::D2XU);
  for (const auto v : all_versions()) {
    EXPECT_LE(total_lines_for(inv, v), a) << version_tag(v);
    EXPECT_GE(total_lines_for(inv, v), d2xu) << version_tag(v);
  }
  EXPECT_LT(d2xu, cpu);
}

TEST(DirectiveModel, Table2DistributionDominatedByParallelLoop) {
  // Paper Table II: parallel/loop is by far the largest category (68%),
  // data management second (22%).
  const auto inv = sample_inventory();
  const auto d = directives_for(inv, CodeVersion::A);
  EXPECT_GT(d.parallel_loop, d.data);
  EXPECT_GT(d.data, d.atomic);
  EXPECT_GT(d.parallel_loop, d.total() / 2);
  EXPECT_EQ(d.set_device, 1);
  EXPECT_EQ(d.wait, 6);
}

TEST(PaperTables, EncodedValuesMatchThePaper) {
  const auto t1 = paper_table1();
  ASSERT_EQ(t1.size(), 7u);
  EXPECT_EQ(t1[1].acc_lines, 1458);
  EXPECT_EQ(t1[2].acc_lines, 540);
  EXPECT_EQ(t1[3].acc_lines, 162);
  EXPECT_EQ(t1[4].acc_lines, 55);
  EXPECT_EQ(t1[5].acc_lines, 0);
  EXPECT_EQ(t1[6].acc_lines, 277);
  const auto t2 = paper_table2();
  i64 total = 0;
  for (const auto& row : t2) total += row.lines;
  EXPECT_EQ(total, 1458);  // Table II sums to Table I's Code 1 count
}

TEST(EngineConfig, FusionAndAsyncOnlyForCode1) {
  for (const auto v : gpu_versions()) {
    const auto cfg = engine_config(v, gpusim::a100_40gb());
    const bool is_acc = (v == CodeVersion::A);
    const par::LoweringPolicy policy = par::lowering_policy(cfg);
    EXPECT_EQ(policy.fuse, is_acc) << version_tag(v);
    EXPECT_EQ(policy.async, is_acc) << version_tag(v);
  }
}

TEST(EngineConfig, CpuDeviceDemotesToHost) {
  const auto cfg = engine_config(CodeVersion::AD, gpusim::epyc7742_node());
  EXPECT_FALSE(cfg.gpu);
  EXPECT_EQ(cfg.memory, gpusim::MemoryMode::HostOnly);
  // And A is configured identically (Table III: equal runtimes).
  const auto cfg_a = engine_config(CodeVersion::A, gpusim::epyc7742_node());
  EXPECT_EQ(cfg_a.gpu, cfg.gpu);
  EXPECT_EQ(cfg_a.memory, cfg.memory);
  EXPECT_EQ(cfg_a.wrapper_init_overhead, cfg.wrapper_init_overhead);
}

TEST(EngineConfig, OnlyCode6PaysWrapperInitOverhead) {
  for (const auto v : gpu_versions()) {
    const auto cfg = engine_config(v, gpusim::a100_40gb());
    if (v == CodeVersion::D2XAd)
      EXPECT_GT(cfg.wrapper_init_overhead, 0.0);
    else
      EXPECT_DOUBLE_EQ(cfg.wrapper_init_overhead, 0.0);
  }
}

TEST(Names, TagsAndFlagsStable) {
  EXPECT_STREQ(version_tag(CodeVersion::AD2XU), "AD2XU");
  EXPECT_NE(version_compiler_flags(CodeVersion::D2XU).find("-stdpar=gpu"),
            std::string::npos);
  EXPECT_EQ(version_compiler_flags(CodeVersion::D2XU).find("-acc=gpu"),
            std::string::npos);  // Code 5: no OpenACC at all
  EXPECT_NE(version_compiler_flags(CodeVersion::D2XAd).find("-Minline"),
            std::string::npos);
}

}  // namespace
}  // namespace simas::variants
