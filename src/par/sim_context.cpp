#include "par/sim_context.hpp"

#include "telemetry/flight_recorder.hpp"

namespace simas::par {

void SimContext::flight_incident(telemetry::FlightNote note, u64 trace_id,
                                 i64 payload) const {
  if (env_.flight_dump.empty()) return;
  telemetry::FlightRecorder& fr = telemetry::FlightRecorder::process();
  fr.note(note, trace_id, payload);
  fr.dump_to_file(env_.flight_dump, telemetry::flight_note_name(note));
}

const SimContext& SimContext::process() {
  static const SimContext ctx;
  return ctx;
}

}  // namespace simas::par
