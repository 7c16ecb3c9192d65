// Micro-probes for the per-layer table: the per-op pipeline (an empty
// Engine::for_each), pool dispatch, the flight recorder, and the memory
// bandwidth reference (triad). Each reports the median of several timed
// batches, so a single descheduling does not move it.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "par/site_table.hpp"
#include "par/thread_pool.hpp"
#include "telemetry/flight_recorder.hpp"

namespace perfbench {

namespace {

/// Median over `batches` of the per-call time of `calls` calls of fn.
template <class Fn>
double median_ns_per_call(int batches, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(seconds_between(t0, Clock::now()) * 1e9 / calls);
  }
  return median(per_call);
}

}  // namespace

double probe_empty_op_ns(simas::par::EngineConfig cfg) {
  simas::par::Engine eng(cfg);
  const auto id = eng.memory().register_array("perf_empty_op", 8);
  eng.memory().enter_data(id);
  static const simas::par::KernelSite& site = SIMAS_SITE(
      "perfbench_empty_op", simas::par::SiteKind::ParallelLoop, 0);
  simas::real sink = 0.0;
  const auto op = [&] {
    eng.for_each(site, simas::par::Range3{0, 1, 0, 1, 0, 1},
                 {simas::par::out(id)},
                 [&](simas::idx, simas::idx, simas::idx) { sink += 1.0; });
  };
  for (int i = 0; i < 2000; ++i) op();
  const double ns = median_ns_per_call(9, 20000, op);
  if (sink <= 0.0) std::printf("empty-op probe did not run\n");
  eng.memory().exit_data(id);
  return ns;
}

double probe_pool_dispatch_ns(int width) {
  simas::par::ThreadPool pool(width);
  constexpr simas::i64 kBlocks = 64;
  std::vector<simas::real> slots(kBlocks, 0.0);
  const auto block = [&](simas::i64 b) {
    slots[static_cast<std::size_t>(b)] += 1.0;
  };
  const auto launch = [&] { pool.run_blocks(kBlocks, block); };
  for (int i = 0; i < 500; ++i) launch();
  return median_ns_per_call(9, 2000, launch);
}

double probe_flight_record_ns() {
  simas::telemetry::FlightRecorder& fr =
      simas::telemetry::FlightRecorder::process();
  const auto rec = [&] {
    fr.record(simas::telemetry::FlightKind::Launch, 0, 0, 0.0, 0, 0, 512);
  };
  for (std::size_t i = 0; i < 2 * fr.kCapacity; ++i) rec();
  return median_ns_per_call(9, 1 << 18, rec);
}

TriadResult probe_triad(int width) {
  // Arrays of 4x the total LLC, capped at 256 MiB each: on a VM that
  // reports the whole socket's L3 the rule asks for gigabytes per array,
  // and the measured rate is flat from 128 MiB per array upward there.
  constexpr simas::i64 kCapBytes = simas::i64{256} << 20;
  constexpr simas::i64 kFloorBytes = simas::i64{64} << 20;
  TriadResult res;
  res.llc_bytes = llc_total_bytes();
  res.array_bytes =
      std::clamp<simas::i64>(4 * res.llc_bytes, kFloorBytes, kCapBytes);
  const auto n = static_cast<simas::idx>(res.array_bytes /
                                         static_cast<simas::i64>(
                                             sizeof(simas::real)));

  simas::par::EngineConfig cfg;
  cfg.host_threads = width;
  simas::par::Engine eng(cfg);
  std::vector<simas::real> a(static_cast<std::size_t>(n), 1.0),
      b(static_cast<std::size_t>(n), 2.0), c(static_cast<std::size_t>(n), 0.0);
  const auto ia = eng.memory().register_array("perf_triad_a", res.array_bytes);
  const auto ib = eng.memory().register_array("perf_triad_b", res.array_bytes);
  const auto ic = eng.memory().register_array("perf_triad_c", res.array_bytes);
  for (const auto id : {ia, ib, ic}) eng.memory().enter_data(id);
  static const simas::par::KernelSite& site =
      SIMAS_SITE("perfbench_triad", simas::par::SiteKind::ParallelLoop, 0);
  const simas::real scalar = 0.4;
  const auto sweep = [&] {
    eng.for_each1(site, simas::par::Range1{0, n},
                  {simas::par::in(ia), simas::par::in(ib),
                   simas::par::out(ic)},
                  [&](simas::idx i) {
                    const auto k = static_cast<std::size_t>(i);
                    c[k] = a[k] + scalar * b[k];
                  });
  };
  sweep();
  const double ns = median_ns_per_call(7, 1, sweep);
  res.cells_per_s = static_cast<double>(n) / (ns * 1e-9);
  for (const auto id : {ia, ib, ic}) eng.memory().exit_data(id);
  return res;
}

}  // namespace perfbench
