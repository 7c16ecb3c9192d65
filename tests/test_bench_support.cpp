#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_support/paper_scale.hpp"
#include "bench_support/run_experiment.hpp"
#include "bench_support/write_file.hpp"
#include "util/json.hpp"
#include "util/ppm.hpp"
#include "variants/code_version.hpp"

namespace simas::bench_support {
namespace {

TEST(PaperScale, ScaleFactors) {
  PaperScale s;
  s.paper_cells = 36'000'000;
  EXPECT_DOUBLE_EQ(s.vol_scale(36'000'000), 1.0);
  EXPECT_DOUBLE_EQ(s.vol_scale(36'000), 1000.0);
  EXPECT_NEAR(s.surf_scale(36'000), 100.0, 1e-9);
  // Surface grows slower than volume: the MPI fraction shrinks at scale.
  EXPECT_LT(s.surf_scale(36'000), s.vol_scale(36'000));
}

TEST(PaperScale, MinutesProjection) {
  PaperScale s;
  s.paper_steps = 60'000;
  EXPECT_DOUBLE_EQ(s.minutes_for(0.1), 100.0);  // 0.1 s/step -> 100 min
}

TEST(Jitter, DeterministicAndBounded) {
  const double base = 100.0;
  const double a = jitter_minutes(base, 0.02, 7, 0);
  const double b = jitter_minutes(base, 0.02, 7, 0);
  EXPECT_DOUBLE_EQ(a, b);  // same seed/sample -> same jitter
  EXPECT_NE(a, jitter_minutes(base, 0.02, 7, 1));
  for (int sample = 0; sample < 16; ++sample) {
    const double v = jitter_minutes(base, 0.02, 3, sample);
    EXPECT_GE(v, base * 0.98);
    EXPECT_LE(v, base * 1.02);
  }
  EXPECT_DOUBLE_EQ(jitter_minutes(base, 0.0, 1, 0), base);
}

TEST(RunExperiment, ProducesValidatedResult) {
  ExperimentConfig cfg;
  cfg.version = variants::CodeVersion::AD;
  cfg.nranks = 2;
  cfg.grid = bench_grid();
  const auto res = run_experiment(cfg);
  ASSERT_EQ(res.ranks.size(), 2u);
  EXPECT_GT(res.wall_minutes, 0.0);
  EXPECT_GE(res.mpi_minutes, 0.0);
  EXPECT_LT(res.mpi_minutes, res.wall_minutes);
  // Physics sanity travels with every experiment.
  EXPECT_LT(res.final_diag.max_div_b, 1e-10);
  EXPECT_GT(res.final_diag.total_mass, 0.0);
  for (const auto& r : res.ranks) {
    EXPECT_GT(r.seconds_per_step, 0.0);
    EXPECT_GT(r.counters.kernel_launches, 0);
  }
}

TEST(RunExperiment, TraceCaptureWindow) {
  ExperimentConfig cfg;
  cfg.version = variants::CodeVersion::A;
  cfg.nranks = 1;
  cfg.grid = bench_grid();
  cfg.capture_trace = true;
  const auto res = run_experiment(cfg);
  ASSERT_EQ(res.rank_traces.size(), 1u);
  const trace::Recorder& rank0 = res.rank_traces[0];
  EXPECT_GT(rank0.events().size(), 0u);
  EXPECT_GT(res.trace_t1, res.trace_t0);
  // Kernel activity exists inside the measured window.
  EXPECT_GT(rank0.lane_busy(trace::Lane::Kernel, res.trace_t0, res.trace_t1),
            0.0);
}

TEST(RunExperiment, MoreRanksFasterForManualCodes) {
  ExperimentConfig cfg;
  cfg.version = variants::CodeVersion::A;
  cfg.grid = bench_grid();
  cfg.nranks = 1;
  const double t1 = run_experiment(cfg).wall_minutes;
  cfg.nranks = 4;
  const double t4 = run_experiment(cfg).wall_minutes;
  EXPECT_LT(t4, t1 / 2.0);
}

TEST(Ppm, HeatColormapEndpoints) {
  const Rgb black = heat_color(0.0);
  EXPECT_EQ(black.r, 0);
  EXPECT_EQ(black.g, 0);
  const Rgb white = heat_color(1.0);
  EXPECT_EQ(white.r, 255);
  EXPECT_EQ(white.g, 255);
  EXPECT_EQ(white.b, 255);
  const Rgb mid = heat_color(0.5);  // orange-ish: red saturated, some green
  EXPECT_EQ(mid.r, 255);
  EXPECT_GT(mid.g, 50);
  EXPECT_EQ(mid.b, 0);
}

TEST(Ppm, WriterEmitsValidHeader) {
  std::ostringstream os;
  std::vector<Rgb> px(6);
  write_ppm(os, px, 3, 2);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("P6\n3 2\n255\n", 0), 0u);
  EXPECT_EQ(out.size(), std::string("P6\n3 2\n255\n").size() + 18);
  EXPECT_THROW(write_ppm(os, px, 4, 2), std::invalid_argument);
}

TEST(Ppm, RenderNormalizesAndUpscales) {
  std::ostringstream os;
  render_field_ppm(os, {0.0, 1.0, 2.0, 3.0}, 2, 2, 2);
  // 4x4 upscaled image.
  EXPECT_EQ(os.str().rfind("P6\n4 4\n255\n", 0), 0u);
  std::ostringstream os2;
  EXPECT_THROW(render_field_ppm(os2, {0.0, 1.0}, 2, 2),
               std::invalid_argument);
}

TEST(WriteFile, FailsUnderAMissingDirectory) {
  const std::filesystem::path missing =
      std::filesystem::path(::testing::TempDir()) / "simas_no_such_dir";
  std::filesystem::remove_all(missing);
  json::Value doc{json::Value::Object{}};
  doc.set("bench", "x");
  EXPECT_FALSE(write_file((missing / "out.json").string(), doc));
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(WriteFile, WritesExactlyTheJsonWriterBytes) {
  json::Value doc{json::Value::Object{}};
  doc.set("bench", "x");
  doc.set("wall_minutes", 1.25);
  doc.set("points", json::Value{json::Value::Array{}});
  std::ostringstream expected;
  json::write(expected, doc, 2);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "simas_write_file.json")
          .string();
  ASSERT_TRUE(write_file(path, doc));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), expected.str());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace simas::bench_support
