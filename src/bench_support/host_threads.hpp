#pragma once
// Shared host-thread-count resolution for benches and the experiment
// runner. One policy, used everywhere a "how many real execution threads"
// decision is made, so SIMAS_HOST_THREADS behaves identically across
// run_experiment and the service layer's shared pool.

namespace simas::par {
struct EnvConfig;
}

namespace simas::bench_support {

/// Total host execution threads to use. Priority order:
///  1. `requested`, when positive (an explicit config / sweep value);
///  2. the env snapshot's host_threads (the SIMAS_HOST_THREADS variable,
///     captured once per process — see par/env_config.hpp), when
///     positive — this is the knob for the auto path;
///  3. std::thread::hardware_concurrency(), clamped to >= 1.
/// `env` defaults to the process snapshot; the service layer passes its
/// SimContext's snapshot instead, so jobs never consult getenv mid-run.
int resolve_host_threads(int requested = 0,
                         const par::EnvConfig* env = nullptr);

/// Split a total thread budget over `nranks` simulated ranks. Always >= 1
/// per rank, even when nranks exceeds `threads_total` (the ranks are
/// threads themselves, so oversubscription is already implied).
int threads_per_rank(int threads_total, int nranks);

}  // namespace simas::bench_support
