// Shape assertions against the paper's evaluation: who wins, by roughly
// what factor, and where the mechanisms show up. These are the headline
// claims of Figs. 2-4 and Tables I-III, asserted with generous tolerances
// (the model is calibrated, not measured).

#include <gtest/gtest.h>

#include "run/run_experiment.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

using run::ExperimentConfig;
using run::run_experiment;
using variants::CodeVersion;

ExperimentConfig cfg_for(CodeVersion v, int nranks,
                         gpusim::DeviceSpec dev = gpusim::a100_40gb()) {
  ExperimentConfig cfg;
  cfg.version = v;
  cfg.nranks = nranks;
  cfg.device = std::move(dev);
  cfg.grid = bench_support::bench_grid();
  return cfg;
}

class PaperShape : public ::testing::Test {
 protected:
  static double wall(CodeVersion v, int n) {
    return run_experiment(cfg_for(v, n)).wall_minutes;
  }
  static run::ExperimentResult full(CodeVersion v, int n) {
    return run_experiment(cfg_for(v, n));
  }
};

TEST_F(PaperShape, Code1IsFastestOnGpus) {
  // Paper Sec. VI: "Code 1 (A, our original OpenACC code) is the best
  // performing version."
  for (const int n : {1, 8}) {
    const double a = wall(CodeVersion::A, n);
    for (const auto v : variants::gpu_versions()) {
      if (v == CodeVersion::A) continue;
      EXPECT_LE(a, wall(v, n) * 1.001)
          << variants::version_tag(v) << " @" << n;
    }
  }
}

TEST_F(PaperShape, DcWithManualMemoryNearOpenAcc) {
  // Paper: Code 2 (AD) within a few percent of Code 1 (206.9 vs 200.9 on
  // 1 GPU; 25.3 vs 23.0 on 8).
  const double ratio1 = wall(CodeVersion::AD, 1) / wall(CodeVersion::A, 1);
  EXPECT_GT(ratio1, 1.005);
  EXPECT_LT(ratio1, 1.10);
  const double ratio8 = wall(CodeVersion::AD, 8) / wall(CodeVersion::A, 8);
  EXPECT_GT(ratio8, 1.02);
  EXPECT_LT(ratio8, 1.25);
  // The penalty grows with rank count (launch overheads do not shrink).
  EXPECT_GT(ratio8, ratio1);
}

TEST_F(PaperShape, UnifiedMemorySlowdownBand) {
  // Paper abstract: zero-directive code is 1.25x-3x slower.
  for (const auto v :
       {CodeVersion::ADU, CodeVersion::AD2XU, CodeVersion::D2XU}) {
    const double r1 = wall(v, 1) / wall(CodeVersion::A, 1);
    EXPECT_GT(r1, 1.2) << variants::version_tag(v);
    EXPECT_LT(r1, 1.6) << variants::version_tag(v);
    const double r8 = wall(v, 8) / wall(CodeVersion::A, 8);
    EXPECT_GT(r8, 2.0) << variants::version_tag(v);
    EXPECT_LT(r8, 3.5) << variants::version_tag(v);
  }
}

TEST_F(PaperShape, UmCodesAllCloseTogether) {
  // Paper Sec. V-C: "All the codes that exhibit worse performance have
  // similar timings, and all use UM."
  const double adu = wall(CodeVersion::ADU, 8);
  const double ad2xu = wall(CodeVersion::AD2XU, 8);
  const double d2xu = wall(CodeVersion::D2XU, 8);
  EXPECT_NEAR(ad2xu / adu, 1.0, 0.12);
  EXPECT_NEAR(d2xu / adu, 1.0, 0.12);
}

TEST_F(PaperShape, UmBlowsUpMpiTimeNotJustCompute) {
  // Paper Fig. 3: "The MPI time is greatly increased in the codes that use
  // UM, and the non-MPI time is increased as well (but to a much smaller
  // degree)."
  const auto manual = full(CodeVersion::A, 8);
  const auto um = full(CodeVersion::ADU, 8);
  EXPECT_GT(um.mpi_minutes, 8.0 * manual.mpi_minutes);
  const double nonmpi_ratio =
      um.non_mpi_minutes() / manual.non_mpi_minutes();
  EXPECT_GT(nonmpi_ratio, 1.1);
  EXPECT_LT(nonmpi_ratio, 2.2);
}

TEST_F(PaperShape, Code6RecoversPerformanceWithManualData) {
  // Paper: D2XAd ≈ AD ≈ A, slightly slower than AD due to the init
  // wrappers (213.0 vs 206.9 on 1 GPU).
  const double d2xad = wall(CodeVersion::D2XAd, 1);
  const double ad = wall(CodeVersion::AD, 1);
  const double adu = wall(CodeVersion::ADU, 1);
  EXPECT_GT(d2xad, ad);
  EXPECT_LT(d2xad, ad * 1.10);
  EXPECT_LT(d2xad, adu * 0.90);  // far better than the UM codes
}

TEST_F(PaperShape, ManualCodesScaleSuperLinearlyAtFirst) {
  // Paper Fig. 2: Codes 1, 2, 6 show 'super' scaling 1 -> 2 GPUs.
  for (const auto v :
       {CodeVersion::A, CodeVersion::AD, CodeVersion::D2XAd}) {
    const double t1 = wall(v, 1);
    const double t2 = wall(v, 2);
    EXPECT_LT(t2, t1 / 2.0 * 1.01) << variants::version_tag(v);
  }
}

TEST_F(PaperShape, EightGpuSpeedupNearIdealForCode1) {
  // Paper: 200.9 -> 23.0 is 8.7x on 8 GPUs (better than ideal).
  const double speedup = wall(CodeVersion::A, 1) / wall(CodeVersion::A, 8);
  EXPECT_GT(speedup, 7.0);
  EXPECT_LT(speedup, 10.0);
}

TEST_F(PaperShape, UmCodesScaleWorse) {
  const double s_manual =
      wall(CodeVersion::A, 1) / wall(CodeVersion::A, 8);
  const double s_um =
      wall(CodeVersion::ADU, 1) / wall(CodeVersion::ADU, 8);
  EXPECT_LT(s_um, s_manual);
}

TEST_F(PaperShape, CpuTableIII) {
  // DC == OpenACC on CPU nodes, to the reproducibility of the model.
  const auto dev = gpusim::epyc7742_node();
  const double a1 = run_experiment(cfg_for(CodeVersion::A, 1, dev)).wall_minutes;
  const double ad1 =
      run_experiment(cfg_for(CodeVersion::AD, 1, dev)).wall_minutes;
  EXPECT_DOUBLE_EQ(a1, ad1);
  // 8 nodes: strong scaling better than 8x (paper: 725.5/79.6 = 9.1x).
  const double a8 = run_experiment(cfg_for(CodeVersion::A, 8, dev)).wall_minutes;
  EXPECT_GT(a1 / a8, 7.5);
  EXPECT_LT(a1 / a8, 10.5);
  // CPU nodes are far slower than one A100 (memory-bound code,
  // 409.5 vs 1555 GB/s).
  EXPECT_GT(a1, 2.5 * wall(CodeVersion::A, 1));
}

TEST_F(PaperShape, Fig4UmPerIterationRatio) {
  // Paper Fig. 4: one UM viscosity-iteration block takes ~3x the manual
  // one on 8 GPUs.
  const auto manual = full(CodeVersion::A, 8);
  const auto um = full(CodeVersion::ADU, 8);
  const double ratio = um.ranks[0].seconds_per_step /
                       manual.ranks[0].seconds_per_step;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.0);
}

TEST_F(PaperShape, TraceShowsMigrationLaneOnlyUnderUm) {
  auto cfg = cfg_for(CodeVersion::A, 8);
  cfg.capture_trace = true;
  const auto manual = run_experiment(cfg);
  auto cfg2 = cfg_for(CodeVersion::ADU, 8);
  cfg2.capture_trace = true;
  const auto um = run_experiment(cfg2);
  const double mig_manual = manual.rank_traces[0].lane_busy(
      trace::Lane::Migration, manual.trace_t0, manual.trace_t1);
  const double mig_um = um.rank_traces[0].lane_busy(
      trace::Lane::Migration, um.trace_t0, um.trace_t1);
  EXPECT_DOUBLE_EQ(mig_manual, 0.0);  // P2P path: no CPU-GPU migrations
  EXPECT_GT(mig_um, 0.0);
  const double p2p_manual = manual.rank_traces[0].lane_busy(
      trace::Lane::Transfer, manual.trace_t0, manual.trace_t1);
  EXPECT_GT(p2p_manual, 0.0);  // manual path rides NVLink
}

}  // namespace
}  // namespace simas
