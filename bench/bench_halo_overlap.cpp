// Overlapped halo exchange: exposed vs hidden MPI time per code version.
//
// Runs every GPU code version at several rank counts with the synchronous
// exchange and with overlap_halo, and reports (a) the modeled wall-clock
// delta and (b) how much MPI transfer time moved onto the copy stream
// (hidden behind compute). The manual-memory versions (A, AD, D2XAd) can
// hide their P2P transfers; the unified-memory versions (ADU, AD2XU, D2XU)
// stage their exchanges through host-touched pages, which serialize with
// compute (Fig. 4), so overlap recovers almost nothing for them.
//
// Each UM version gets an extra "+h" row: the same version with
// EngineConfig::um_hints, whose preferred-host-pinned staging buffers let
// the staged exchange ride the copy stream like the manual path — the
// headline check asserts those rows hide >= 1 modeled MPI minute at the
// largest rank count (vs ~0 without hints).
//
// Usage: bench_halo_overlap [--ranks=2,8] [--steps=3]
//                           [--out=BENCH_halo_overlap.json]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/run_experiment.hpp"
#include "bench_support/write_file.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;
using bench_support::ExperimentConfig;
using bench_support::run_experiment;

namespace {

struct Point {
  std::string version;
  bool um_hints = false;
  int nranks = 0;
  double wall_sync = 0.0;     // minutes
  double wall_overlap = 0.0;  // minutes
  double mpi_sync = 0.0;      // exposed MPI minutes, sync path
  double mpi_overlap = 0.0;   // exposed MPI minutes, overlapped path
  double hidden = 0.0;        // MPI minutes moved to the copy stream
  long long launches = 0;     // kernel launches, all ranks (sync path)
  long long bytes = 0;        // bytes touched, all ranks (sync path)
};

Point measure(variants::CodeVersion version, int nranks, int steps,
              bool um_hints) {
  Point p;
  p.version = variants::version_tag(version);
  if (um_hints) p.version += "+h";
  p.um_hints = um_hints;
  p.nranks = nranks;
  for (const bool overlap : {false, true}) {
    ExperimentConfig cfg;
    cfg.version = version;
    cfg.nranks = nranks;
    cfg.grid = bench_support::bench_grid();
    cfg.measure_steps = steps;
    cfg.overlap_halo = overlap;
    cfg.um_hints = um_hints;
    const auto res = run_experiment(cfg);
    if (overlap) {
      p.wall_overlap = res.wall_minutes;
      p.mpi_overlap = res.mpi_minutes;
      p.hidden = res.hidden_mpi_minutes;
    } else {
      p.wall_sync = res.wall_minutes;
      p.mpi_sync = res.mpi_minutes;
      p.launches = res.metrics.counter("engine.launches");
      p.bytes = res.metrics.counter("engine.bytes_touched");
    }
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (!opts.only({"ranks", "steps", "out"}, std::cerr)) return 1;
  const std::vector<int> ranks = opts.get_int_list("ranks", {2, 8});
  const int steps = static_cast<int>(opts.get_int("steps", 3));
  const std::string out = opts.get("out", "BENCH_halo_overlap.json");

  std::cout << "Overlapped halo exchange: exposed vs hidden MPI (modeled "
               "minutes)\n\n";
  std::vector<Point> points;
  for (const int nranks : ranks) {
    Table table(std::to_string(nranks) + " GPU(s)");
    table.set_header({"version", "wall sync", "wall ovl", "saved", "MPI sync",
                      "MPI ovl", "hidden"});
    for (const auto version : variants::gpu_versions()) {
      const bool unified = variants::traits_of(version).memory ==
                           gpusim::MemoryMode::Unified;
      // UM versions get a second row with span-driven prefetch/advise
      // hints on — the "closing the UM gap" configuration.
      for (const bool um_hints : {false, true}) {
        if (um_hints && !unified) continue;
        const Point p = measure(version, nranks, steps, um_hints);
        table.row()
            .cell(p.version)
            .cell(p.wall_sync, 2)
            .cell(p.wall_overlap, 2)
            .cell(p.wall_sync - p.wall_overlap, 2)
            .cell(p.mpi_sync, 2)
            .cell(p.mpi_overlap, 2)
            .cell(p.hidden, 2);
        points.push_back(p);
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  json::Value arr{json::Value::Array{}};
  for (const auto& p : points) {
    json::Value v{json::Value::Object{}};
    v.set("version", p.version);
    v.set("um_hints", p.um_hints);
    v.set("ranks", p.nranks);
    v.set("wall_minutes_sync", p.wall_sync);
    v.set("wall_minutes_overlap", p.wall_overlap);
    v.set("mpi_minutes_sync", p.mpi_sync);
    v.set("mpi_minutes_overlap", p.mpi_overlap);
    v.set("hidden_mpi_minutes", p.hidden);
    v.set("kernel_launches", p.launches);
    v.set("bytes_touched", p.bytes);
    arr.push_back(std::move(v));
  }
  json::Value doc{json::Value::Object{}};
  doc.set("bench", "halo_overlap");
  doc.set("points", std::move(arr));
  if (!bench_support::write_file(out, doc)) return 1;
  std::printf("wrote %s\n", out.c_str());

  // Sanity: overlap must never be slower, and only the manual-memory
  // versions should hide a meaningful transfer fraction.
  int bad = 0;
  int max_ranks = 0;
  for (const int r : ranks) max_ranks = std::max(max_ranks, r);
  for (const auto& p : points) {
    if (p.wall_overlap > p.wall_sync * (1.0 + 1e-12)) {
      std::fprintf(stderr, "REGRESSION: %s ranks=%d overlap slower\n",
                   p.version.c_str(), p.nranks);
      ++bad;
    }
    // Headline: at the largest rank count, every hinted UM version must
    // hide at least one modeled MPI minute on the copy stream (the
    // hint-free UM rows hide ~0 — the gap this PR closes).
    if (p.um_hints && p.nranks == max_ranks && max_ranks > 1 &&
        p.hidden < 1.0) {
      std::fprintf(stderr,
                   "REGRESSION: %s ranks=%d hides only %.3f MPI minutes "
                   "(expected >= 1.0)\n",
                   p.version.c_str(), p.nranks, p.hidden);
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}
