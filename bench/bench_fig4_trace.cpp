// Reproduces paper Fig. 4: NSIGHT-Systems-style timeline of viscosity
// solver iterations on 8 A100 GPUs for Code 1 (A) with manual memory
// management vs unified managed memory. With manual management the MPI
// halo exchanges ride NVLink peer-to-peer; with UM every exchange drags
// pages across the host link, and extra inter-kernel overhead appears —
// "the manually managed memory run completes almost three full iterations
// in the same time it takes the UM run to complete one".

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/run_experiment.hpp"
#include "bench_support/write_file.hpp"
#include "telemetry/perfetto.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;
using bench_support::ExperimentConfig;

namespace {

struct TraceRun {
  bench_support::ExperimentResult res;
  double t0 = 0.0, t1 = 0.0;
  double step_seconds = 0.0;
  /// Rank 0's timeline, the one Fig. 4 shows.
  const trace::Recorder& rec() const { return res.rank_traces.at(0); }
};

TraceRun trace_for(variants::CodeVersion version) {
  ExperimentConfig cfg;
  cfg.version = version;
  cfg.nranks = 8;
  cfg.grid = bench_support::bench_grid();
  cfg.capture_trace = true;
  TraceRun out;
  out.res = bench_support::run_experiment(cfg);
  out.t0 = out.res.trace_t0;
  out.t1 = out.res.trace_t1;
  out.step_seconds =
      out.res.ranks.empty() ? 0.0 : out.res.ranks[0].seconds_per_step;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Artifacts land under --outdir (default: build/, which is gitignored)
  // instead of the working directory, so running the bench from a source
  // checkout never litters the repo root with trace files.
  Options opts(argc, argv);
  const std::filesystem::path outdir = opts.get("outdir", "build");
  std::filesystem::create_directories(outdir);

  std::cout << "Fig. 4 reproduction: modeled timeline on 8 A100 GPUs "
               "(rank 0, one solver step window)\n\n";

  // Code 1 (A): OpenACC with manual memory management.
  const auto manual = trace_for(variants::CodeVersion::A);
  // Code 1 with UM is performance-equivalent to Code 3 (ADU) per the
  // paper; ADU stands in for "Code 1 with managed memory".
  const auto um = trace_for(variants::CodeVersion::ADU);

  const double window_m = manual.step_seconds;
  std::cout << "manual memory management (window = one step, "
            << format_fixed(window_m * 1e3, 2) << " modeled ms):\n";
  manual.rec().render_ascii(std::cout, manual.t0, manual.t0 + window_m, 100);

  const double window_u = um.step_seconds;
  std::cout << "\nunified managed memory (window = one step, "
            << format_fixed(window_u * 1e3, 2) << " modeled ms):\n";
  um.rec().render_ascii(std::cout, um.t0, um.t0 + window_u, 100);

  // Lane-occupancy summary over the measured window.
  Table table("lane busy time within one step (modeled ms)");
  table.set_header({"lane", "manual", "unified"});
  for (const auto lane :
       {trace::Lane::Kernel, trace::Lane::Migration, trace::Lane::Transfer,
        trace::Lane::MpiWait}) {
    table.row()
        .cell(std::string(trace::lane_name(lane)))
        .cell(1e3 * manual.rec().lane_busy(lane, manual.t0,
                                           manual.t0 + window_m), 3)
        .cell(1e3 * um.rec().lane_busy(lane, um.t0, um.t0 + window_u), 3);
  }
  table.print(std::cout);

  const double ratio = window_u / window_m;
  std::cout << "\nper-step (per viscosity-iteration-block) time ratio "
               "UM / manual = "
            << format_fixed(ratio, 2)
            << "  (paper: ~3x — \"almost three full iterations in the time "
               "the UM run completes one\")\n";

  using bench_support::write_file;
  if (!write_file((outdir / "fig4_trace_manual.csv").string(),
                  [&](std::ostream& os) { manual.rec().write_csv(os); }) ||
      !write_file((outdir / "fig4_trace_unified.csv").string(),
                  [&](std::ostream& os) { um.rec().write_csv(os); }))
    return 1;

  // Combined Perfetto/Chrome trace: one process per (run, rank) so the
  // manual-vs-unified contrast is visible side by side in the UI. Manual
  // ranks get pids 0..N-1, unified ranks 100..100+N-1.
  std::vector<telemetry::TraceSource> sources;
  for (std::size_t r = 0; r < manual.res.rank_traces.size(); ++r)
    sources.push_back({static_cast<int>(r),
                       "manual/rank " + std::to_string(r),
                       &manual.res.rank_traces[r]});
  for (std::size_t r = 0; r < um.res.rank_traces.size(); ++r)
    sources.push_back({100 + static_cast<int>(r),
                       "unified/rank " + std::to_string(r),
                       &um.res.rank_traces[r]});
  if (!write_file((outdir / "fig4_trace.perfetto.json").string(),
                  [&](std::ostream& os) {
                    telemetry::write_perfetto_json(os, sources);
                  }))
    return 1;

  // Hot-spot profile of the manual run (all ranks merged).
  if (!write_file((outdir / "BENCH_profile.json").string(),
                  [&](std::ostream& os) { manual.res.profile.write_json(os); }))
    return 1;

  std::cout << "\nfull event traces written to " << outdir.string()
            << "/fig4_trace_manual.csv / fig4_trace_unified.csv / "
               "fig4_trace.perfetto.json (load in ui.perfetto.dev); "
               "hot-spot profile in BENCH_profile.json\n";
  return 0;
}
