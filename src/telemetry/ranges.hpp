#pragma once
// NVTX-style scoped range annotations over modeled time.
//
// SIMAS_RANGE(engine, "viscosity.sts_stage") opens a named range at the
// engine's current modeled time and closes it when the scope exits. Ranges
// nest; the trace::Recorder keeps the live stack and records each closed
// range as an Event on the dedicated Lane::Range track carrying the full
// call path ("step/viscosity/sts_stage") and its nesting depth — the
// Perfetto export then shows modeled time attributed to a call-path,
// exactly how NVTX ranges frame kernels in an Nsight timeline.
//
// Cost when tracing is disabled (the default): two virtual-free inline
// calls that read a bool and push/pop a small stack frame — no strings are
// built, nothing is recorded. Safe to leave in production solver code.

#include <string_view>

#include "par/engine.hpp"
#include "trace/trace.hpp"

namespace simas::telemetry {

/// RAII scope around one annotated region of modeled time.
class RangeScope {
 public:
  RangeScope(par::Engine& engine, std::string_view name) : engine_(engine) {
    engine_.tracer().push_range(engine_.ledger().now(), name);
  }

  ~RangeScope() { engine_.tracer().pop_range(engine_.ledger().now()); }

  RangeScope(const RangeScope&) = delete;
  RangeScope& operator=(const RangeScope&) = delete;

 private:
  par::Engine& engine_;
};

}  // namespace simas::telemetry

#define SIMAS_RANGE_CONCAT_INNER(a, b) a##b
#define SIMAS_RANGE_CONCAT(a, b) SIMAS_RANGE_CONCAT_INNER(a, b)

/// Annotate the enclosing scope as a named range of modeled time.
#define SIMAS_RANGE(engine, name)                                \
  ::simas::telemetry::RangeScope SIMAS_RANGE_CONCAT(simas_range_, \
                                                    __LINE__)(engine, name)
