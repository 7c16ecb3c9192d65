#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "bench_support/paper_scale.hpp"
#include "mhd/pfss.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

}  // namespace

// ---------------------------------------------------------------------
// Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

void Report::fail(const std::string& why) {
  ++failed_;
  // Every failure is counted; the first few are also described.
  if (printed_failures_++ < 20) std::printf("FAILED: %s\n", why.c_str());
}

void Report::incorrect(const std::string& why) {
  correct_ = false;
  std::printf("INCORRECT: %s\n", why.c_str());
}

void Report::print(const RunOptions& opt) const {
  std::printf("\n%s (seed %llu, %s run, %.0f s)\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced", opt.seconds);
  for (const Metric& m : metrics_)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("  attempted %lld, failed %lld, failed_frac %.6g\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0);

  std::string line = "{\"workload\": " + json_string(opt.workload) +
                     ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"correct\": " + (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics_[i].name) +
            ": {\"value\": " + json_number(metrics_[i].value) +
            ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  line += "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(info_[i].first) + ": " + info_[i].second;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

Tail tail_percentile(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  Tail t;
  t.n = v.size();
  for (const double p : kLadder) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0 || p == 50.0) {
      t.percentile = p;
      t.value = quantile(v, p / 100.0);
      return t;
    }
  }
  return t;
}

// ---------------------------------------------------------------------
// Seeds

u64 derive_seed(u64 seed, u64 stream, u64 index) {
  u64 z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
          index * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Machine and build facts

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

i64 llc_total_bytes() {
  // Highest cache level wins; distinct shared_cpu_list values are distinct
  // instances of that cache.
  int best_level = 0;
  i64 best_size = 0;
  std::set<std::string> instances;
  for (int cpu = 0; cpu < nproc(); ++cpu) {
    for (int index = 0; index < 8; ++index) {
      const std::string dir = "/sys/devices/system/cpu/cpu" +
                              std::to_string(cpu) + "/cache/index" +
                              std::to_string(index) + "/";
      std::ifstream level_f(dir + "level"), size_f(dir + "size"),
          shared_f(dir + "shared_cpu_list"), type_f(dir + "type");
      int level = 0;
      std::string size_s, shared, type;
      if (!(level_f >> level) || !(size_f >> size_s)) continue;
      shared_f >> shared;
      type_f >> type;
      if (type == "Instruction") continue;
      i64 size = std::atoll(size_s.c_str());
      if (!size_s.empty() && size_s.back() == 'K') size *= 1024;
      if (!size_s.empty() && size_s.back() == 'M') size *= 1024 * 1024;
      if (level > best_level) {
        best_level = level;
        best_size = size;
        instances.clear();
      }
      if (level == best_level) instances.insert(shared);
    }
  }
  return best_size * static_cast<i64>(instances.size());
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

const char* build_type() { return SIMAS_PERF_BUILD_TYPE; }

bool ndebug_build() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

void print_build_guard(Report& r) {
  std::printf("build: %s, %s, flags \"%s\", NDEBUG %s; nproc %d\n",
              build_type(), SIMAS_PERF_COMPILER, SIMAS_PERF_CXX_FLAGS,
              ndebug_build() ? "set" : "UNSET", nproc());
  if (!ndebug_build())
    std::printf(
        "WARNING: NDEBUG is unset. ThreadPool's debug exactly-once "
        "accounting adds an atomic per block on the hot path; these "
        "numbers are not comparable with a release build.\n");
  for (char** e = environ; e != nullptr && *e != nullptr; ++e)
    if (std::strncmp(*e, "SIMAS_", 6) == 0)
      std::printf("WARNING: %s is set and may change what runs\n", *e);
  r.info("build_type", build_type());
  r.info("cxx_flags", SIMAS_PERF_CXX_FLAGS);
  r.info("compiler", SIMAS_PERF_COMPILER);
  r.info("ndebug", ndebug_build() ? 1.0 : 0.0);
  r.info("nproc", static_cast<double>(nproc()));
}

// ---------------------------------------------------------------------
// Solver rig

simas::par::EngineConfig rig_engine_config(const SolverSpec& spec, int rank) {
  simas::par::EngineConfig cfg = simas::variants::engine_config(
      spec.version, simas::gpusim::a100_40gb(),
      simas::par::CompilerPersonality::Nvfortran, spec.threads_per_rank);
  cfg.graph_replay = spec.graph_replay;
  cfg.flight_rank = rank;
  return cfg;
}

std::unique_ptr<Rig> build_rig(simas::mpisim::World& world, int rank,
                               const SolverSpec& spec) {
  auto rig = std::make_unique<Rig>();
  rig->engine =
      std::make_unique<simas::par::Engine>(rig_engine_config(spec, rank));
  // The cost-model scales run_experiment applies: modeled numbers then
  // match what the same shape reports inside a job.
  const i64 cells = static_cast<i64>(spec.grid.nr) * spec.grid.nt *
                    spec.grid.np;
  const simas::bench_support::PaperScale scale;
  rig->engine->cost().set_scales(scale.vol_scale(cells),
                                 scale.surf_scale(cells));
  rig->engine->cost().set_working_set_shrink(static_cast<double>(spec.nranks));
  rig->comm = std::make_unique<simas::mpisim::Comm>(world, rank, *rig->engine);
  simas::mhd::SolverConfig scfg;
  scfg.grid = spec.grid;
  rig->solver =
      std::make_unique<simas::mhd::MasSolver>(*rig->engine, *rig->comm, scfg);
  rig->solver->initialize();
  if (spec.boundary.enabled) {
    const Clock::time_point p0 = Clock::now();
    rig->pfss = simas::mhd::pfss_initialize(
        rig->solver->context(),
        simas::bench_support::boundary_surface_br(spec.boundary),
        static_cast<simas::real>(spec.boundary.tol), spec.boundary.maxit);
    rig->pfss_seconds = seconds_between(p0, Clock::now());
  }
  return rig;
}

std::string state_bytes(const simas::mhd::State& st) {
  std::string out;
  for (const simas::field::Field* f :
       {&st.rho, &st.temp, &st.vr, &st.vt, &st.vp, &st.br, &st.bt, &st.bp}) {
    const simas::field::Array3& a = f->a();
    out.append(reinterpret_cast<const char*>(a.data()),
               static_cast<std::size_t>(a.bytes()));
  }
  return out;
}

}  // namespace perfbench
