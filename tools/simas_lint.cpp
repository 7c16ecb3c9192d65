// simas_lint: ahead-of-run static verification of SIMAS kernel streams.
//
// For every solver code version x halo-exchange mode x rank count, runs a
// few steps of the MAS-analog solver with stream capture on (no runtime
// shadow checks), replays each rank's recorded event trace through the
// static verifier (analysis/static_verifier.hpp), and prints one table
// row per configuration. Any Error-severity finding makes the exit status
// nonzero, so CI can gate on "no new diagnostics".
//
// Unified-memory code versions are additionally swept with um_hints on
// (span-driven prefetch/advise), and every row reports the stream's hint
// coverage: the percentage of modeled UM page traffic that was hint-driven
// (batched prefetches + advised zero-copy remote access) rather than
// demand-faulted. 0% = pure demand paging; the static verifier's hint
// rules (prefetch-span-mismatch, use-after-evict) fire on the same sweep.
//
// With --matrix the sweep gains the two portability axes: every device
// class in the catalog (gpusim::all_device_classes) x every compiler
// personality (par::all_personalities). Each cell re-verifies the stream
// that configuration actually records — implicit-UM personalities flip
// Manual DC versions to Unified, hint-ignoring personalities demote the
// hint-correctness findings to notes — so the exit status covers the
// whole matrix, not just the nvfortran/A100 column. To keep the cell
// count bounded, matrix mode defaults to --ranks 2 --overlap 1.
//
// Usage: kUsage below. An unknown option, or --json without a file path,
// prints it on stderr and exits 2 before the sweep runs.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "bench_support/write_file.hpp"
#include "gpusim/device_spec.hpp"
#include "par/compiler_personality.hpp"
#include "run/run_experiment.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "variants/code_version.hpp"

namespace {

using namespace simas;

constexpr const char* kUsage = R"(usage:
  simas_lint [--steps N] [--ranks 1,2] [--overlap 0,1] [--hints 0,1]
             [--matrix] [--json FILE] [--verbose]

  --steps N     measured steps per configuration (default 2)
  --ranks LIST  comma-separated rank counts to sweep (default "1,2")
  --overlap L   halo modes to sweep: 0=sync, 1=overlapped (default "0,1")
  --hints L     um_hints modes for UM versions (default "0,1")
  --matrix      sweep device classes x compiler personalities too
                (defaults become --ranks 2 --overlap 1)
  --json FILE   also write the full report as JSON
  --verbose     print every diagnostic, not just per-config counts
)";

struct ConfigReport {
  variants::CodeVersion version;
  gpusim::DeviceClass device = gpusim::DeviceClass::A100;
  par::CompilerPersonality personality = par::CompilerPersonality::Nvfortran;
  bool overlap = false;
  bool um_hints = false;
  int nranks = 0;
  i64 ops = 0;
  int errors = 0;
  int warnings = 0;
  i64 um_prefetches = 0;
  i64 um_advises = 0;
  double hint_coverage_pct = 0.0;  ///< hint-driven share of UM traffic
  std::vector<analysis::Diagnostic> diagnostics;
};

/// Share of modeled UM page traffic that moved via hints (batched
/// prefetches + advised zero-copy remote access) instead of demand faults.
double hint_coverage(const telemetry::MetricsSnapshot& m) {
  const double prefetched = static_cast<double>(m.counter("um.prefetch_bytes"));
  const double remote =
      static_cast<double>(m.counter("um.remote_access_bytes"));
  const double demand = static_cast<double>(m.counter("um.h2d_bytes")) +
                        static_cast<double>(m.counter("um.d2h_bytes")) -
                        prefetched;
  const double hinted = prefetched + remote;
  const double total = hinted + std::max(0.0, demand);
  return total > 0.0 ? 100.0 * hinted / total : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const std::string json_path = opt.get("json");
  // A bare --json parses as the flag value "true": reject it rather than
  // write the report to a file of that name.
  const bool json_without_path =
      opt.has("json") && (json_path.empty() || json_path == "true");
  if (json_without_path) std::cerr << "--json needs a file path\n";
  if (!opt.only({"steps", "ranks", "overlap", "hints", "matrix", "json",
                 "verbose"},
                std::cerr) ||
      json_without_path) {
    std::cerr << kUsage;
    return 2;
  }
  const bool matrix = opt.get_bool("matrix", false);
  const int steps = static_cast<int>(opt.get_int("steps", 2));
  const std::vector<int> ranks =
      opt.get_int_list("ranks", matrix ? std::vector<int>{2}
                                       : std::vector<int>{1, 2});
  const std::vector<int> overlaps =
      opt.get_int_list("overlap", matrix ? std::vector<int>{1}
                                         : std::vector<int>{0, 1});
  const std::vector<int> hint_modes = opt.get_int_list("hints", {0, 1});
  const bool verbose = opt.get_bool("verbose", false);

  const std::vector<gpusim::DeviceClass> devices =
      matrix ? gpusim::all_device_classes()
             : std::vector<gpusim::DeviceClass>{gpusim::DeviceClass::A100};
  const std::vector<par::CompilerPersonality> personalities =
      matrix ? par::all_personalities()
             : std::vector<par::CompilerPersonality>{
                   par::CompilerPersonality::Nvfortran};

  std::vector<ConfigReport> reports;
  for (const variants::CodeVersion v : variants::all_versions()) {
    for (const gpusim::DeviceClass dc : devices) {
      for (const par::CompilerPersonality p : personalities) {
        // "Unified" must be what this cell actually runs: implicit-UM
        // personalities flip Manual DC versions to managed memory.
        const bool unified =
            variants::engine_config(v, gpusim::device_spec(dc), p).memory ==
            gpusim::MemoryMode::Unified;
        for (const int overlap : overlaps) {
          for (const int hints : hint_modes) {
            if (hints != 0 && !unified) continue;  // hints are a UM knob
            for (const int nranks : ranks) {
              run::ExperimentConfig cfg;
              cfg.version = v;
              cfg.nranks = nranks;
              cfg.device = gpusim::device_spec(dc);
              cfg.personality = p;
              cfg.grid = bench_support::bench_grid();
              cfg.warmup_steps = 1;
              cfg.measure_steps = steps;
              cfg.overlap_halo = overlap != 0;
              cfg.um_hints = hints != 0;
              cfg.capture_stream = true;
              const run::ExperimentResult res = run::run_experiment(cfg);

              ConfigReport cr;
              cr.version = v;
              cr.device = dc;
              cr.personality = p;
              cr.overlap = overlap != 0;
              cr.um_hints = hints != 0;
              cr.nranks = nranks;
              for (const analysis::ValidationReport& r : res.static_reports) {
                cr.ops += r.ops_checked;
                cr.errors += r.errors();
                cr.warnings += r.warnings();
                cr.diagnostics.insert(cr.diagnostics.end(),
                                      r.diagnostics.begin(),
                                      r.diagnostics.end());
              }
              cr.um_prefetches = res.metrics.counter("um.prefetches");
              cr.um_advises = res.metrics.counter("um.advises");
              cr.hint_coverage_pct = hint_coverage(res.metrics);
              reports.push_back(std::move(cr));
            }
          }
        }
      }
    }
  }

  Table table(matrix
                  ? "simas_lint: static verification, portability matrix"
                  : "simas_lint: static kernel-stream verification");
  std::vector<std::string> header{"version"};
  if (matrix) {
    header.push_back("device");
    header.push_back("pers");
  }
  for (const char* col : {"halo", "hints", "ranks", "ops", "errors",
                          "warnings", "hint cov%", "status"})
    header.push_back(col);
  table.set_header(header);
  int total_errors = 0;
  for (const ConfigReport& cr : reports) {
    total_errors += cr.errors;
    auto row = table.row();
    row.cell(variants::version_tag(cr.version));
    if (matrix) {
      row.cell(gpusim::device_class_name(cr.device));
      row.cell(par::personality_tag(cr.personality));
    }
    row.cell(cr.overlap ? "overlap" : "sync")
        .cell(cr.um_hints ? "on" : "off")
        .cell(cr.nranks)
        .cell(static_cast<long long>(cr.ops))
        .cell(cr.errors)
        .cell(cr.warnings)
        .cell(cr.hint_coverage_pct, 1)
        .cell(cr.errors > 0 ? "FAIL"
                            : (cr.warnings > 0 ? "warn" : "clean"));
  }
  table.print(std::cout);

  for (const ConfigReport& cr : reports) {
    if (cr.diagnostics.empty()) continue;
    if (!verbose && cr.errors == 0) continue;
    std::cout << "\n" << variants::version_tag(cr.version) << " (";
    if (matrix)
      std::cout << gpusim::device_class_name(cr.device) << "/"
                << par::personality_tag(cr.personality) << ", ";
    std::cout << (cr.overlap ? "overlap" : "sync")
              << (cr.um_hints ? "+hints" : "") << ", " << cr.nranks
              << " rank" << (cr.nranks == 1 ? "" : "s") << "):\n";
    for (const analysis::Diagnostic& d : cr.diagnostics) {
      if (!verbose && d.severity != analysis::Severity::Error) continue;
      std::cout << "  " << d.to_string() << "\n";
    }
  }

  if (!json_path.empty()) {
    json::Value root;
    root.set("tool", "simas_lint");
    root.set("matrix", matrix);
    root.set("total_errors", total_errors);
    json::Value arr{json::Value::Array{}};
    for (const ConfigReport& cr : reports) {
      json::Value e;
      e.set("version", variants::version_tag(cr.version));
      e.set("device", gpusim::device_class_name(cr.device));
      e.set("personality", par::personality_tag(cr.personality));
      e.set("halo", cr.overlap ? "overlap" : "sync");
      e.set("um_hints", cr.um_hints);
      e.set("ranks", cr.nranks);
      e.set("ops", static_cast<long long>(cr.ops));
      e.set("errors", cr.errors);
      e.set("warnings", cr.warnings);
      e.set("um_prefetches", static_cast<long long>(cr.um_prefetches));
      e.set("um_advises", static_cast<long long>(cr.um_advises));
      e.set("hint_coverage_pct", cr.hint_coverage_pct);
      json::Value diags{json::Value::Array{}};
      for (const analysis::Diagnostic& d : cr.diagnostics) {
        json::Value jd;
        jd.set("check", analysis::check_name(d.check));
        jd.set("severity", analysis::severity_name(d.severity));
        jd.set("site", d.site);
        jd.set("array", d.array);
        jd.set("location", d.location);
        jd.set("count", static_cast<long long>(d.count));
        jd.set("message", d.message);
        diags.push_back(std::move(jd));
      }
      e.set("diagnostics", std::move(diags));
      arr.push_back(std::move(e));
    }
    root.set("configs", std::move(arr));
    if (!bench_support::write_file(json_path, [&root](std::ostream& os) {
          json::write(os, root, 2);
          os << "\n";
        }))
      return 1;
    std::cout << "\nwrote " << json_path << "\n";
  }

  if (total_errors > 0) {
    std::cout << "\nsimas_lint: " << total_errors
              << " error(s) across the sweep\n";
    return 1;
  }
  std::cout << "\nsimas_lint: all streams verified clean\n";
  return 0;
}
