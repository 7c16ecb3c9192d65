// Portability matrix: code versions x device classes x compiler
// personalities (the follow-up paper's multi-vendor study, arXiv
// 2408.07843). Each cell runs the MAS-analog solver under one
// (version, device, personality) triple and reports modeled wall/MPI
// minutes plus the cell's slowdown against the best cell of the same
// code version.
//
// The load-bearing claim is the differential one: every cell must
// produce BIT-IDENTICAL physics to the same version's golden cell
// (A100-class device, nvfortran-like personality). Device specs and
// personalities feed only the cost model and the recorded op stream —
// fusion eligibility, reduction traffic, hint lowering, implicit UM —
// never the kernel bodies, so any physics drift across the matrix is a
// modeling bug, not a portability result. The bench exits nonzero on
// the first non-identical cell, and `physics_ok` lands in the JSON as
// an integer so tools/perf_check pins it exactly against the checked-in
// baseline.
//
// Usage: bench_portability_matrix [--ranks=2] [--steps=3]
//                                 [--out=BENCH_portability_matrix.json]

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/run_experiment.hpp"
#include "bench_support/write_file.hpp"
#include "gpusim/device_spec.hpp"
#include "par/compiler_personality.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

using namespace simas;
using bench_support::ExperimentConfig;
using bench_support::run_experiment;

namespace {

struct Cell {
  std::string version;
  std::string device;
  std::string personality;
  double wall = 0.0;  // modeled minutes
  double mpi = 0.0;
  double slowdown_vs_best = 0.0;  // wall / best wall of this version
  bool physics_ok = false;        // bit-identical to the golden cell
  mhd::GlobalDiagnostics diag;
};

Cell measure(variants::CodeVersion version, gpusim::DeviceClass device,
             par::CompilerPersonality personality, int nranks, int steps) {
  ExperimentConfig cfg;
  cfg.version = version;
  cfg.nranks = nranks;
  cfg.device = gpusim::device_spec(device);
  cfg.personality = personality;
  cfg.grid = bench_support::bench_grid();
  cfg.measure_steps = steps;
  const auto res = run_experiment(cfg);

  Cell c;
  c.version = variants::version_tag(version);
  c.device = gpusim::device_class_name(device);
  c.personality = par::personality_tag(personality);
  c.wall = res.wall_minutes;
  c.mpi = res.mpi_minutes;
  c.diag = res.final_diag;
  return c;
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
  const int nranks = static_cast<int>(opts.get_int("ranks", 2));
  const int steps = static_cast<int>(opts.get_int("steps", 3));
  const std::string out = opts.get("out", "BENCH_portability_matrix.json");

  // One version per accelerated programming model of the study: pure
  // OpenACC (A), mixed ACC+DC with unified memory (ADU), and pure
  // standard-parallelism DC2X (D2XU) — the version the follow-up paper
  // carries across vendors.
  const std::vector<variants::CodeVersion> versions = {
      variants::CodeVersion::A, variants::CodeVersion::ADU,
      variants::CodeVersion::D2XU};
  const std::vector<gpusim::DeviceClass> devices =
      gpusim::all_device_classes();
  const std::vector<par::CompilerPersonality> personalities =
      par::all_personalities();

  std::cout << "Portability matrix: " << versions.size() << " versions x "
            << devices.size() << " devices x " << personalities.size()
            << " personalities, " << nranks << " rank(s)\n"
            << "(modeled minutes; physics must be bit-identical to each "
               "version's a100/nvf cell)\n\n";

  int bad = 0;
  std::vector<Cell> cells;
  for (const auto version : versions) {
    // Golden cell first: the source paper's toolchain on the source
    // paper's device. Every other cell of this version diffs against it.
    const Cell golden =
        measure(version, gpusim::DeviceClass::A100,
                par::CompilerPersonality::Nvfortran, nranks, steps);

    std::vector<Cell> row_cells;
    double best = 1e300;
    for (const auto device : devices) {
      for (const auto personality : personalities) {
        Cell c = (device == gpusim::DeviceClass::A100 &&
                  personality == par::CompilerPersonality::Nvfortran)
                     ? golden
                     : measure(version, device, personality, nranks, steps);
        c.physics_ok = same_physics(c.diag, golden.diag);
        if (!c.physics_ok) {
          std::fprintf(stderr,
                       "REGRESSION: %s on %s/%s physics differs from the "
                       "golden a100/nvf cell\n",
                       c.version.c_str(), c.device.c_str(),
                       c.personality.c_str());
          ++bad;
        }
        best = std::min(best, c.wall);
        row_cells.push_back(std::move(c));
      }
    }

    Table table(std::string("version ") + variants::version_tag(version));
    table.set_header(
        {"device", "pers", "wall", "MPI", "vs best", "physics"});
    for (Cell& c : row_cells) {
      c.slowdown_vs_best = c.wall / best;
      table.row()
          .cell(c.device)
          .cell(c.personality)
          .cell(c.wall, 2)
          .cell(c.mpi, 2)
          .cell(c.slowdown_vs_best, 3)
          .cell(c.physics_ok ? "identical" : "DIFFERS");
      cells.push_back(std::move(c));
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  json::Value arr{json::Value::Array{}};
  for (const Cell& c : cells) {
    json::Value v{json::Value::Object{}};
    v.set("version", c.version);
    v.set("device", c.device);
    v.set("personality", c.personality);
    v.set("wall_minutes", c.wall);
    v.set("mpi_minutes", c.mpi);
    v.set("slowdown_vs_best", c.slowdown_vs_best);
    // Integer on purpose: perf_check flattens numeric leaves only, and
    // the physics verdict must be pinned exactly by the baseline.
    v.set("physics_ok", c.physics_ok ? 1 : 0);
    arr.push_back(std::move(v));
  }
  json::Value doc{json::Value::Object{}};
  doc.set("bench", "portability_matrix");
  doc.set("ranks", nranks);
  doc.set("steps", steps);
  doc.set("cells_failed", bad);
  doc.set("cells", std::move(arr));
  if (!bench_support::write_file(out, [&doc](std::ostream& os) {
        json::write(os, doc, 2);
        os << "\n";
      }))
    return 1;
  std::printf("wrote %s\n", out.c_str());

  if (bad > 0) {
    std::fprintf(stderr,
                 "bench_portability_matrix: %d cell(s) broke physics "
                 "identity\n",
                 bad);
    return 1;
  }
  return 0;
}
