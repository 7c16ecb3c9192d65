// Reproduces paper Table I: summary of all MAS code versions — description,
// compiler flags, total source lines, and `!$acc` directive lines. SIMAS's
// counts come from applying the paper's Sec. IV porting rules to our own
// kernel-site inventory (our solver is smaller than the 70 kLoC MAS, so
// absolute numbers differ; the reduction ladder is the reproduction
// target). The paper's measured values print alongside.

#include <iostream>
#include <string>

#include "bench_support/run_experiment.hpp"
#include "bench_support/write_file.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "variants/directive_model.hpp"
#include "variants/inventory.hpp"

using namespace simas;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (!opts.only({"out"}, std::cerr)) return 1;
  const std::string out = opts.get("out", "BENCH_table1_versions.json");
  // Instantiate and step a canonical solver so every kernel call-site
  // registers itself, then gather the inventory.
  variants::CodeInventory inv;
  mpisim::World world(1);
  world.run([&](int rank) {
    par::Engine engine(variants::engine_config(variants::CodeVersion::A,
                                               gpusim::a100_40gb(), 2));
    mpisim::Comm comm(world, rank, engine);
    mhd::SolverConfig cfg;
    cfg.grid = bench_support::bench_grid();
    mhd::MasSolver solver(engine, comm, cfg);
    solver.initialize();
    solver.run(2);
    inv = variants::gather_inventory(engine);
  });

  std::cout << "Table I reproduction: code-version summary\n\n";
  Table table("SIMAS (rule-derived) vs paper (measured on MAS)");
  table.set_header({"Code", "flags", "total", "$acc", "paper total",
                    "paper $acc"});
  const auto paper = variants::paper_table1();
  for (const auto& row : paper) {
    const auto d = variants::directives_for(inv, row.version);
    table.row()
        .cell(std::string(variants::version_tag(row.version)))
        .cell(variants::version_compiler_flags(row.version))
        .cell(variants::total_lines_for(inv, row.version))
        .cell(d.total())
        .cell(row.total_lines)
        .cell(row.acc_lines < 0 ? std::string("0 (CPU)")
                                : std::to_string(row.acc_lines));
  }
  table.print(std::cout);

  std::cout << "\ndirective-reduction ladder (each version vs Code 1):\n";
  const auto base = variants::directives_for(inv, variants::CodeVersion::A);
  for (const auto& row : paper) {
    if (row.version == variants::CodeVersion::Cpu) continue;
    const auto d = variants::directives_for(inv, row.version);
    const double ours =
        d.total() > 0 ? static_cast<double>(base.total()) / d.total() : 0.0;
    const double theirs =
        row.acc_lines > 0 ? 1458.0 / row.acc_lines : 0.0;
    std::cout << "  " << variants::version_tag(row.version) << ": ours ";
    if (d.total() > 0)
      std::cout << format_fixed(ours, 2) << "x fewer";
    else
      std::cout << "ZERO directives";
    std::cout << " | paper ";
    if (row.acc_lines > 0)
      std::cout << format_fixed(theirs, 2) << "x fewer\n";
    else
      std::cout << "ZERO directives\n";
  }

  // BENCH JSON for the CI perf gate: directive counts for every version
  // plus 1-rank modeled timing and launch counters for the GPU versions.
  // Everything here is derived from the deterministic modeled clocks and
  // the kernel-site inventory, so the numbers are bit-stable across hosts.
  json::Value versions{json::Value::Array{}};
  for (const auto& row : paper) {
    const auto d = variants::directives_for(inv, row.version);
    json::Value v{json::Value::Object{}};
    v.set("version", std::string(variants::version_tag(row.version)));
    v.set("total_lines", variants::total_lines_for(inv, row.version));
    v.set("directive_lines", d.total());
    if (row.version != variants::CodeVersion::Cpu) {
      bench_support::ExperimentConfig ecfg;
      ecfg.version = row.version;
      ecfg.nranks = 1;
      ecfg.grid = bench_support::bench_grid();
      const auto res = bench_support::run_experiment(ecfg);
      v.set("wall_minutes", res.wall_minutes);
      v.set("mpi_minutes", res.mpi_minutes);
      v.set("kernel_launches", res.metrics.counter("engine.launches"));
      v.set("fused_launches", res.metrics.counter("engine.fused_launches"));
      v.set("bytes_touched", res.metrics.counter("engine.bytes_touched"));
    }
    versions.push_back(std::move(v));
  }
  json::Value doc{json::Value::Object{}};
  doc.set("bench", "table1_versions");
  doc.set("versions", std::move(versions));
  if (!bench_support::write_file(out, doc)) return 1;
  std::cout << "\nwrote " << out << '\n';
  return 0;
}
