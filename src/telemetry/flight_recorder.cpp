#include "telemetry/flight_recorder.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <thread>

#include "par/site_table.hpp"
#include "util/json.hpp"

namespace simas::telemetry {

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::Launch: return "launch";
    case FlightKind::Reduce: return "reduce";
    case FlightKind::ArrayReduce: return "array_reduce";
    case FlightKind::Sync: return "sync";
    case FlightKind::FusionBreak: return "fusion_break";
    case FlightKind::MemHint: return "mem_hint";
    case FlightKind::HaloBegin: return "halo_begin";
    case FlightKind::HaloEnd: return "halo_end";
    case FlightKind::DataEvent: return "data_event";
    case FlightKind::JobNote: return "job_note";
  }
  return "unknown";
}

const char* flight_note_name(FlightNote n) {
  switch (n) {
    case FlightNote::JobFailed: return "job_failed";
    case FlightNote::PhysicsDivergence: return "physics_divergence";
    case FlightNote::ValidatorError: return "validator_error";
    case FlightNote::StaticVerifierError: return "static_verifier_error";
    case FlightNote::ExplicitDump: return "explicit_dump";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() : ring_(new Slot[kCapacity]) {}

FlightRecorder& FlightRecorder::process() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::wait_for(const Slot& s, u64 prev) {
  // The previous lap's writer publishes without waiting on anything but
  // its own predecessor, so this wait is short unless it was preempted.
  for (int spins = 0; s.seq.load(std::memory_order_acquire) != prev;
       ++spins) {
    if (spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    } else {
      std::this_thread::yield();
    }
  }
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const u64 head = head_.load(std::memory_order_acquire);
  const u64 start = head > kCapacity ? head - kCapacity : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(head - start));
  for (u64 seq = start; seq < head; ++seq) {
    const Slot& s = ring_[seq & (kCapacity - 1)];
    const u64 tag = tag_of(seq);
    if (s.seq.load(std::memory_order_acquire) != tag) continue;  // in flight
    FlightEvent e;
    e.seq = seq;
    e.trace_id = s.trace_id.load(std::memory_order_relaxed);
    e.t = s.t.load(std::memory_order_relaxed);
    e.payload = s.payload.load(std::memory_order_relaxed);
    const u64 ids = s.ids.load(std::memory_order_relaxed);
    const u64 meta = s.meta.load(std::memory_order_relaxed);
    e.site = static_cast<i32>(static_cast<u32>(ids));
    e.array = static_cast<i32>(static_cast<u32>(ids >> 32));
    e.rank = static_cast<i32>(static_cast<u32>(meta));
    e.kind = static_cast<FlightKind>((meta >> 32) & 0xff);
    e.detail = static_cast<unsigned char>((meta >> 40) & 0xff);
    // A lapping writer marks the tag busy before touching the payload, so
    // a changed tag here means the fields above may be torn: drop the slot.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != tag) continue;
    out.push_back(e);
  }
  return out;
}

void FlightRecorder::dump_json(std::ostream& os,
                               const std::string& reason) const {
  const std::vector<FlightEvent> events = snapshot();
  const u64 head = head_.load(std::memory_order_acquire);
  const par::SiteTable& sites = par::SiteTable::process();
  const std::size_t nsites = sites.size();

  json::Value doc;
  doc.set("flight_recorder", json::Value("simas"));
  doc.set("reason", json::Value(reason));
  doc.set("capacity", json::Value(static_cast<long long>(kCapacity)));
  doc.set("recorded_total", json::Value(static_cast<long long>(head)));
  doc.set("dropped",
          json::Value(static_cast<long long>(
              head > kCapacity ? head - kCapacity : 0)));

  json::Value arr{json::Value::Array{}};
  for (const FlightEvent& e : events) {
    json::Value ev;
    ev.set("seq", json::Value(static_cast<long long>(e.seq)));
    ev.set("kind", json::Value(flight_kind_name(e.kind)));
    ev.set("trace_id", json::Value(static_cast<long long>(e.trace_id)));
    ev.set("rank", json::Value(static_cast<int>(e.rank)));
    ev.set("t", json::Value(e.t));
    if (e.site >= 0 && static_cast<std::size_t>(e.site) < nsites) {
      const par::KernelSite& site = sites.at(static_cast<std::size_t>(e.site));
      ev.set("site", json::Value(site.name));
      ev.set("where", json::Value(site.location()));
    } else if (e.site >= 0) {
      ev.set("site_id", json::Value(static_cast<int>(e.site)));
    }
    if (e.array >= 0) ev.set("array", json::Value(static_cast<int>(e.array)));
    ev.set("payload", json::Value(static_cast<long long>(e.payload)));
    if (e.kind == FlightKind::JobNote) {
      ev.set("note",
             json::Value(flight_note_name(static_cast<FlightNote>(e.detail))));
    } else if (e.detail != 0) {
      ev.set("detail", json::Value(static_cast<int>(e.detail)));
    }
    arr.push_back(std::move(ev));
  }
  doc.set("events", std::move(arr));
  json::write(os, doc, 1);
  os << "\n";
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  const std::string& reason) const {
  if (path.empty()) return false;
  static std::atomic<u64> dumps{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(dumps.fetch_add(1));
  std::ofstream os(tmp);
  if (!os) return false;
  dump_json(os, reason);
  os.close();
  const bool ok = !os.fail() && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) (void)std::remove(tmp.c_str());
  return ok;
}

}  // namespace simas::telemetry
