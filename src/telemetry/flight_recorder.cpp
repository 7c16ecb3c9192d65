#include "telemetry/flight_recorder.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string_view>
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

namespace {

/// Appends a JSON document laid out as json::write(os, doc, 1) lays it
/// out, member by member, so a dump streams the writer's bytes without
/// building the document.
class JsonOut {
 public:
  explicit JsonOut(std::ostream& os) : os_(os) { buf_.reserve(kFlush + 512); }
  ~JsonOut() { flush(); }

  /// Opens member `key` of an object at nesting depth `depth`.
  void member(int depth, const char* key, bool first = false) {
    if (!first) buf_ += ',';
    buf_ += '\n';
    buf_.append(static_cast<std::size_t>(depth), ' ');
    buf_ += '"';
    buf_ += key;
    buf_ += "\": ";
  }
  /// A number, converted as json::Value's constructors convert it.
  void number(int depth, const char* key, double v, bool first = false) {
    member(depth, key, first);
    char num[json::kNumberChars];
    buf_.append(num, json::format_number(num, v));
  }
  /// A string value that needs no escaping, or is already escaped.
  void raw_string(int depth, const char* key, std::string_view escaped) {
    member(depth, key);
    buf_ += '"';
    buf_ += escaped;
    buf_ += '"';
  }
  void text(std::string_view s) {
    buf_ += s;
    if (buf_.size() >= kFlush) flush();
  }

 private:
  static constexpr std::size_t kFlush = 1 << 16;
  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
  std::ostream& os_;
  std::string buf_;
};

}  // namespace

void FlightRecorder::dump_json(std::ostream& os,
                               const std::string& reason) const {
  const std::vector<FlightEvent> events = snapshot();
  const u64 head = head_.load(std::memory_order_acquire);
  const par::SiteTable& sites = par::SiteTable::process();
  const std::size_t nsites = sites.size();
  // Each site's name and "file:line", escaped once per dump.
  std::vector<std::string> site_name(nsites), site_where(nsites);
  for (std::size_t s = 0; s < nsites; ++s) {
    site_name[s] = json::escape(sites.at(s).name);
    site_where[s] = json::escape(sites.at(s).location());
  }

  JsonOut out(os);
  out.text("{");
  out.member(1, "flight_recorder", true);
  out.text("\"simas\"");
  out.raw_string(1, "reason", json::escape(reason));
  out.number(1, "capacity", static_cast<double>(kCapacity));
  out.number(1, "recorded_total",
             static_cast<double>(static_cast<long long>(head)));
  out.number(1, "dropped",
             static_cast<double>(static_cast<long long>(
                 head > kCapacity ? head - kCapacity : 0)));
  out.member(1, "events");
  out.text(events.empty() ? "[]" : "[");
  for (std::size_t n = 0; n < events.size(); ++n) {
    const FlightEvent& e = events[n];
    out.text(n > 0 ? ",\n  {" : "\n  {");
    out.number(3, "seq", static_cast<double>(static_cast<long long>(e.seq)),
               true);
    // Kind and note names are plain identifiers: nothing to escape.
    out.raw_string(3, "kind", flight_kind_name(e.kind));
    out.number(3, "trace_id",
               static_cast<double>(static_cast<long long>(e.trace_id)));
    out.number(3, "rank", e.rank);
    out.number(3, "t", e.t);
    if (e.site >= 0 && static_cast<std::size_t>(e.site) < nsites) {
      out.raw_string(3, "site", site_name[static_cast<std::size_t>(e.site)]);
      out.raw_string(3, "where",
                     site_where[static_cast<std::size_t>(e.site)]);
    } else if (e.site >= 0) {
      out.number(3, "site_id", e.site);
    }
    if (e.array >= 0) out.number(3, "array", e.array);
    out.number(3, "payload", static_cast<double>(e.payload));
    if (e.kind == FlightKind::JobNote) {
      out.raw_string(3, "note",
                     flight_note_name(static_cast<FlightNote>(e.detail)));
    } else if (e.detail != 0) {
      out.number(3, "detail", e.detail);
    }
    out.text("\n  }");
  }
  if (!events.empty()) out.text("\n ]");
  out.text("\n}\n");
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
