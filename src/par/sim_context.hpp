#pragma once
// SimContext: the ownership root for everything an engine used to reach
// through process-global state.
//
//   * EnvConfig — the one-time SIMAS_* environment snapshot. Engines and
//     the experiment runner read flags from here, never from getenv().
//   * an optional shared ThreadPool — when set, engines built under this
//     context borrow it instead of owning worker threads, so N concurrent
//     experiments multiplex one host-thread budget (the service layer's
//     execution substrate).
//   * the one flight-dump trigger path, flight_incident(): every layer
//     that detects a failure (validator, static verifier, job server,
//     ensemble divergence check) reports it here.
//
// Kernel sites are interned process-wide (SiteTable::process(), see
// site_table.hpp): shared by design, since sites are immutable and
// pointer-stable.
//
// SimContext::process() is the default used when nothing is threaded
// through: it is constructed once and immutable afterwards, so it is
// *not* a mutable singleton — all mutable per-run state lives in the
// Engine (and in the service layer's per-job structures).

#include "par/env_config.hpp"
#include "util/types.hpp"

namespace simas::telemetry {
enum class FlightNote : unsigned char;
}  // namespace simas::telemetry

namespace simas::par {

class ThreadPool;

class SimContext {
 public:
  /// Context over the process environment snapshot.
  SimContext() : env_(EnvConfig::process()) {}
  /// Context with an explicit environment (tests, service layer).
  explicit SimContext(EnvConfig env) : env_(env) {}

  const EnvConfig& env() const { return env_; }

  /// Shared host execution pool; nullptr = each engine owns its threads.
  ThreadPool* shared_pool() const { return shared_pool_; }
  void set_shared_pool(ThreadPool* pool) { shared_pool_ = pool; }

  /// Report an incident to the flight recorder. A no-op when this
  /// context's flight_dump path (SIMAS_FLIGHT_DUMP) is empty; otherwise
  /// notes `note` in the flight ring and dumps the ring to that path with
  /// flight_note_name(note) as the reason.
  void flight_incident(telemetry::FlightNote note, u64 trace_id,
                       i64 payload = 0) const;

  /// The immutable default context (process env snapshot, no shared
  /// pool).
  static const SimContext& process();

 private:
  EnvConfig env_;
  ThreadPool* shared_pool_ = nullptr;
};

}  // namespace simas::par
