// simas_perf: one workload of the SIMAS host-wall benchmark per call.
//
//   simas_perf --workload solve|small_um|ensemble --seed N --seconds S
//              --trace 0|1 [--workdir DIR] [--quick]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/rationale.json). The last stdout line is one JSON object;
// perfbench/run.py builds this program, runs it and reduces that line to
// the benchmark's result format. Exit status is nonzero when an output is
// wrong (a failed step or checkpoint, or a served job whose physics differs
// from its serial reference).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::RunOptions& opt) {
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++a];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++a]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++a]) == "1";
    } else if (arg == "--workdir" && has_value) {
      opt.workdir = argv[++a];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  if (opt.workload != "solve" && opt.workload != "small_um" &&
      opt.workload != "ensemble") {
    std::fprintf(stderr, "--workload must be solve, small_um or ensemble\n");
    return false;
  }
  return opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  if (!parse(argc, argv, opt)) return 2;
  perfbench::Report report;
  perfbench::print_build_guard(report);
  try {
    const int rc = opt.workload == "ensemble"
                       ? perfbench::run_ensemble_workload(opt, report)
                       : perfbench::run_solver_workload(opt, report);
    if (rc != 0) return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  report.print(opt);
  return report.correct() ? 0 : 1;
}
