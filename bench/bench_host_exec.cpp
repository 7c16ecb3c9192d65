// Host wall-clock gate on the always-on flight recorder: one
// telemetry::FlightRecorder::record() per submitted op must cost at most
// 1% of a lock-free pooled launch, the "always on at O(1)" promise.
//
//  * record   — min over 6 repeats of a 1M-call record() storm (trace
//               id 0, the tracing-off configuration).
//  * dispatch — min over 6 repeats of 500 launches through a 2-wide
//               ThreadPool, each launch 64 blocks of 8 cells: the
//               cheapest pooled launch, so the most adverse denominator.
//               A 1-wide pool would short-circuit to a bare loop and time
//               the kernel body, not the claim protocol.
//
// Usage: bench_host_exec   (no arguments; exits 1 above the bound, 2 if
// given any argument). Everything else on the host wall clock — solver
// steps, triad bandwidth, per-launch dispatch — is measured by perfbench
// (python3 perfbench/run.py, see BENCHMARK.json).

#include <cstdio>
#include <vector>

#include "par/thread_pool.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/timer.hpp"

using namespace simas;

namespace {

constexpr int kRepeats = 6;
constexpr int kPoolThreads = 2;
constexpr int kLaunches = 500;
constexpr int kRecordCalls = 1 << 20;
constexpr double kOverheadMax = 0.01;

/// Min-of-repeats seconds per call of `body`, which makes `calls` calls
/// (wall-clock noise is one-sided).
template <class Body>
double min_seconds_per_call(int calls, Body&& body) {
  double best = -1.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    Timer wall;
    body();
    const double per_call = wall.seconds() / calls;
    if (best < 0.0 || per_call < best) best = per_call;
  }
  return best;
}

/// Seconds per pooled launch of 64 blocks of 8 cells each.
double time_dispatch() {
  constexpr i64 kBlocks = 64;
  constexpr int kCellsPerBlock = 8;
  par::ThreadPool pool(kPoolThreads);
  std::vector<real> slots(kBlocks * kCellsPerBlock, 0.0);
  const auto block_work = [&](i64 b) {
    real* s = &slots[static_cast<std::size_t>(b) * kCellsPerBlock];
    for (int i = 0; i < kCellsPerBlock; ++i)
      s[i] += 0.5 * static_cast<real>(i + b);
  };
  for (int i = 0; i < 32; ++i) pool.run_blocks(kBlocks, block_work);
  return min_seconds_per_call(kLaunches, [&] {
    for (int l = 0; l < kLaunches; ++l) pool.run_blocks(kBlocks, block_work);
  });
}

/// Seconds per FlightRecorder::record() call.
double time_flight_record() {
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::process();
  const auto record = [&fr] {
    fr.record(telemetry::FlightKind::Launch, 0, 0, 0.0, 0, 0, 512);
  };
  // Warm the ring (touch every slot once).
  for (int i = 0; i < 1 << 14; ++i) record();
  return min_seconds_per_call(kRecordCalls, [&] {
    for (int i = 0; i < kRecordCalls; ++i) record();
  });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "%s takes no arguments (got %s)\n", argv[0],
                 argv[1]);
    return 2;
  }
  const double sec_per_launch = time_dispatch();
  const double sec_per_record = time_flight_record();
  const double fraction = sec_per_record / sec_per_launch;
  std::printf("dispatch threads=%d  %.3f us/launch\n", kPoolThreads,
              sec_per_launch * 1e6);
  std::printf("flight   record %.1f ns/event  (%.3f%% of a dispatch; "
              "gate <= %.1f%%)\n",
              sec_per_record * 1e9, 100.0 * fraction, 100.0 * kOverheadMax);
  if (fraction > kOverheadMax) {
    std::fprintf(stderr,
                 "FAIL: flight-recorder overhead %.3f%% of a lock-free "
                 "dispatch exceeds the %.1f%% gate\n",
                 100.0 * fraction, 100.0 * kOverheadMax);
    return 1;
  }
  return 0;
}
