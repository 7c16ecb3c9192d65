// Unified-memory prefetch/advise hints: closing the UM 3x gap.
//
// Runs every unified-memory GPU code version (ADU, AD2XU, D2XU) with and
// without EngineConfig::um_hints at several rank counts, overlap_halo on,
// and reports modeled wall/MPI/hidden minutes next to the um.* page-engine
// counters. Without hints the demand-paged runs reproduce the paper's
// Fig. 4 penalty: every first touch fault-migrates, MPI staging serializes
// with compute, nothing rides the copy stream. With hints the scheduler
// bulk-prefetches kernel footprints (no per-page fault service), the halo
// staging buffers are pinned host-side (zero-copy pack/unpack, overlapped
// staged sends), and the run recovers most of the manual-memory gap.
//
// Sanity gates (exit 1 on violation):
//   * hints off: um.prefetches == 0 and um.faults > 0 (pure demand paging);
//   * hints on: um.prefetches > 0 and hidden MPI >= 1 modeled minute at
//     the largest rank count (vs ~0 without hints);
//   * physics (final diagnostics) bit-identical between hints off and on.
//
// Usage: bench_um_prefetch [--ranks=2,8] [--steps=3]
//                          [--out=BENCH_um_prefetch.json]

#include <algorithm>
#include <cmath>
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
  double wall = 0.0;    // modeled minutes
  double mpi = 0.0;     // exposed MPI minutes
  double hidden = 0.0;  // MPI minutes on the copy stream
  long long faults = 0;
  long long migrations = 0;
  long long prefetches = 0;
  long long prefetch_bytes = 0;
  long long advises = 0;
  long long remote_bytes = 0;
  long long thrash_events = 0;
  mhd::GlobalDiagnostics diag;
};

Point measure(variants::CodeVersion version, int nranks, int steps,
              bool um_hints) {
  ExperimentConfig cfg;
  cfg.version = version;
  cfg.nranks = nranks;
  cfg.grid = bench_support::bench_grid();
  cfg.measure_steps = steps;
  cfg.overlap_halo = true;
  cfg.um_hints = um_hints;
  const auto res = run_experiment(cfg);

  Point p;
  p.version = variants::version_tag(version);
  p.um_hints = um_hints;
  p.nranks = nranks;
  p.wall = res.wall_minutes;
  p.mpi = res.mpi_minutes;
  p.hidden = res.hidden_mpi_minutes;
  p.faults = res.metrics.counter("um.faults");
  p.migrations = res.metrics.counter("um.migrations");
  p.prefetches = res.metrics.counter("um.prefetches");
  p.prefetch_bytes = res.metrics.counter("um.prefetch_bytes");
  p.advises = res.metrics.counter("um.advises");
  p.remote_bytes = res.metrics.counter("um.remote_access_bytes");
  p.thrash_events = res.metrics.counter("um.thrash_events");
  p.diag = res.final_diag;
  return p;
}

bool same_physics(const mhd::GlobalDiagnostics& a,
                  const mhd::GlobalDiagnostics& b) {
  return a.total_mass == b.total_mass && a.kinetic_energy == b.kinetic_energy &&
         a.magnetic_energy == b.magnetic_energy &&
         a.thermal_energy == b.thermal_energy && a.max_div_b == b.max_div_b &&
         a.max_speed == b.max_speed;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (!opts.only({"ranks", "steps", "out"}, std::cerr)) return 1;
  const std::vector<int> ranks = opts.get_int_list("ranks", {2, 8});
  const int steps = static_cast<int>(opts.get_int("steps", 3));
  const std::string out = opts.get("out", "BENCH_um_prefetch.json");

  std::vector<variants::CodeVersion> um_versions;
  for (const auto v : variants::gpu_versions())
    if (variants::traits_of(v).memory == gpusim::MemoryMode::Unified)
      um_versions.push_back(v);

  std::cout << "Unified-memory hints: demand paging vs prefetch/advise "
               "(modeled minutes + um.* counters)\n\n";
  std::vector<Point> points;
  int bad = 0;
  for (const int nranks : ranks) {
    Table table(std::to_string(nranks) + " GPU(s)");
    table.set_header({"version", "hints", "wall", "MPI", "hidden", "faults",
                      "prefetches", "advises", "thrash"});
    for (const auto version : um_versions) {
      Point off, on;
      for (const bool um_hints : {false, true}) {
        const Point p = measure(version, nranks, steps, um_hints);
        (um_hints ? on : off) = p;
        table.row()
            .cell(p.version + (um_hints ? "+h" : ""))
            .cell(um_hints ? "on" : "off")
            .cell(p.wall, 2)
            .cell(p.mpi, 2)
            .cell(p.hidden, 2)
            .cell(static_cast<double>(p.faults), 0)
            .cell(static_cast<double>(p.prefetches), 0)
            .cell(static_cast<double>(p.advises), 0)
            .cell(static_cast<double>(p.thrash_events), 0);
        points.push_back(p);
      }
      // Hints must never change physics: the page engine only moves the
      // modeled clock, kernels run on the same host arrays either way.
      if (!same_physics(off.diag, on.diag)) {
        std::fprintf(stderr,
                     "REGRESSION: %s ranks=%d physics differs with hints\n",
                     off.version.c_str(), nranks);
        ++bad;
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
    v.set("wall_minutes", p.wall);
    v.set("mpi_minutes", p.mpi);
    v.set("hidden_mpi_minutes", p.hidden);
    v.set("um_faults", p.faults);
    v.set("um_migrations", p.migrations);
    v.set("um_prefetches", p.prefetches);
    v.set("um_prefetch_bytes", p.prefetch_bytes);
    v.set("um_advises", p.advises);
    v.set("um_remote_access_bytes", p.remote_bytes);
    v.set("um_thrash_events", p.thrash_events);
    arr.push_back(std::move(v));
  }
  json::Value doc{json::Value::Object{}};
  doc.set("bench", "um_prefetch");
  doc.set("points", std::move(arr));
  if (!bench_support::write_file(out, doc)) return 1;
  std::printf("wrote %s\n", out.c_str());

  int max_ranks = 0;
  for (const int r : ranks) max_ranks = std::max(max_ranks, r);
  for (const auto& p : points) {
    if (!p.um_hints) {
      // The hint-free baseline must stay pure demand paging.
      if (p.prefetches != 0 || p.advises != 0) {
        std::fprintf(stderr,
                     "REGRESSION: %s ranks=%d emits hints while disabled\n",
                     p.version.c_str(), p.nranks);
        ++bad;
      }
      if (p.faults == 0) {
        std::fprintf(stderr,
                     "REGRESSION: %s ranks=%d shows no demand faults\n",
                     p.version.c_str(), p.nranks);
        ++bad;
      }
    } else {
      if (p.prefetches == 0 || p.advises == 0) {
        std::fprintf(stderr,
                     "REGRESSION: %s ranks=%d hints on but none emitted\n",
                     p.version.c_str(), p.nranks);
        ++bad;
      }
      if (p.nranks == max_ranks && max_ranks > 1 && p.hidden < 1.0) {
        std::fprintf(stderr,
                     "REGRESSION: %s ranks=%d hides only %.3f MPI minutes "
                     "(expected >= 1.0)\n",
                     p.version.c_str(), p.nranks, p.hidden);
        ++bad;
      }
    }
  }
  return bad == 0 ? 0 : 1;
}
