#pragma once
// Divergence flight recorder: a fixed-capacity ring of structured stream
// events that is always on at O(1) cost and is dumped to JSON — with
// SiteTable file:line provenance — only when something goes wrong
// (validator error, physics divergence, job failure) or when
// SIMAS_FLIGHT_DUMP requests an explicit dump.
//
// The event vocabulary mirrors par::StreamEvent (par/stream.hpp), which
// the Engine encodes through one encoder, par::flight_event: launches,
// reductions, syncs, fusion breaks, memory hints, halo windows,
// data-motion events, plus free-form notes for service-level incidents.
// Each event is a handful of integers — no strings, no allocation — so
// recording is a single fetch_add, the lap-order check and a few relaxed
// atomic stores.
//
// Concurrency contract (TSan-clean by construction):
//  * every slot field is a std::atomic of a primitive type, so no access
//    is ever a data race;
//  * a writer takes a sequence number with fetch_add(relaxed). Each slot
//    is written in lap order: the writer acquire-loads the slot tag and,
//    in the rare case it does not yet hold the previous lap's published
//    event (that writer is still between its fetch_add and its publish),
//    waits for it (pause, then yield). It then marks the slot busy with
//    its own sequence, stores the payload relaxed behind a release fence,
//    and publishes the tag with a release store;
//  * so the newest event always owns its slot: a writer preempted before
//    publishing can never publish an older event over a newer one, and two
//    writers never store into one slot at once;
//  * a reader (dump/snapshot) acquire-loads the tag, reads the payload,
//    issues an acquire fence and re-checks the tag — a slot being
//    rewritten is detected and skipped, never mis-decoded.
// Readers only run on the error path, so they can afford the re-check. A
// writer waits only on the writer one full ring lap (kCapacity events)
// behind it on the same slot; waits point to strictly older sequences and
// a writer holds no lock, so they cannot cycle.

#include <atomic>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace simas::telemetry {

/// Event kinds. The first six mirror par::OpKind one-to-one; the rest
/// cover the observer callbacks and service-level notes.
enum class FlightKind : unsigned char {
  Launch = 0,
  Reduce = 1,
  ArrayReduce = 2,
  Sync = 3,
  FusionBreak = 4,
  MemHint = 5,
  HaloBegin = 6,
  HaloEnd = 7,
  DataEvent = 8,
  JobNote = 9,
};

const char* flight_kind_name(FlightKind k);

/// Detail codes for FlightKind::JobNote (stored in FlightEvent::detail).
enum class FlightNote : unsigned char {
  JobFailed = 0,
  PhysicsDivergence = 1,
  ValidatorError = 2,
  StaticVerifierError = 3,
  ExplicitDump = 4,
};

const char* flight_note_name(FlightNote n);

/// A decoded event, as returned by snapshot() and written by dump_json().
struct FlightEvent {
  u64 seq = 0;       ///< global sequence number (total order of recording)
  u64 trace_id = 0;  ///< owning trace, 0 when untraced
  double t = 0.0;    ///< modeled seconds on the recording engine's clock
  i64 payload = 0;   ///< cells / bytes / job id, by kind
  i32 site = -1;     ///< SiteTable id, -1 when the op carries no site
  i32 array = -1;    ///< first accessed array id, -1 when none
  i32 rank = 0;      ///< mpisim rank of the recording engine
  FlightKind kind = FlightKind::JobNote;
  /// MemHint code / DataEvent code / halo side mask (lo=1 | hi=2) /
  /// FlightNote, by kind (see par::flight_event).
  unsigned char detail = 0;
};

class FlightRecorder {
 public:
  /// Ring capacity (power of two). 8192 events is ~30 modeled steps of a
  /// production stream — enough history to see what led up to a fault.
  static constexpr std::size_t kCapacity = 8192;

  FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every Engine records into.
  static FlightRecorder& process();

  /// Record one event. Allocation-free, O(1). The narrow fields are
  /// packed into two words so the hot path is one fetch_add, the lap-order
  /// check, six relaxed stores and the release publish.
  void record(FlightKind kind, u64 trace_id, i32 rank, double t, i32 site,
              i32 array, i64 payload, unsigned char detail = 0) {
    const u64 seq = head_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = ring_[seq & (kCapacity - 1)];
    const u64 mine = tag_of(seq);
    const u64 prev = seq >= kCapacity ? tag_of(seq - kCapacity) : kEmpty;
    // Acquire: the previous lap's payload stores happen before ours.
    if (s.seq.load(std::memory_order_acquire) != prev) wait_for(s, prev);
    s.seq.store(mine | kBusy, std::memory_order_relaxed);
    // Orders the busy mark before the payload stores: a reader that sees
    // any of them also sees the mark on its re-check.
    std::atomic_thread_fence(std::memory_order_release);
    s.trace_id.store(trace_id, std::memory_order_relaxed);
    s.t.store(t, std::memory_order_relaxed);
    s.payload.store(payload, std::memory_order_relaxed);
    s.ids.store(pack_ids(site, array), std::memory_order_relaxed);
    s.meta.store(pack_meta(rank, kind, detail), std::memory_order_relaxed);
    s.seq.store(mine, std::memory_order_release);
  }

  /// Convenience: record a service-level note (job failure, divergence).
  void note(FlightNote n, u64 trace_id, i64 payload = 0) {
    record(FlightKind::JobNote, trace_id, 0, 0.0, -1, -1, payload,
           static_cast<unsigned char>(n));
  }

  /// Total events recorded since construction (may exceed kCapacity).
  u64 recorded() const { return head_.load(std::memory_order_acquire); }

  /// Decode the currently retained window in sequence order. Slots being
  /// concurrently overwritten are skipped, not mis-decoded.
  std::vector<FlightEvent> snapshot() const;

  /// Dump the retained window as a JSON document: schema in DESIGN.md §18.
  /// Site ids are resolved to {name, "file:line"} via the process
  /// SiteTable at dump time.
  void dump_json(std::ostream& os, const std::string& reason) const;

  /// dump_json to a temp file beside `path`, renamed over it: concurrent
  /// dumps to one path leave one whole document (the last rename wins).
  /// Returns false (and stays silent, leaving no temp file) if the file
  /// cannot be written — the flight recorder must never take a run down.
  bool dump_to_file(const std::string& path, const std::string& reason) const;

 private:
  /// Slot tags: kEmpty (never written), seq + 1 (event `seq` published),
  /// or (seq + 1) | kBusy (event `seq` being written).
  static constexpr u64 kEmpty = 0;
  static constexpr u64 kBusy = u64{1} << 63;
  static constexpr u64 tag_of(u64 seq) { return seq + 1; }

  /// site in the low word, array in the high word (both sign-extended on
  /// unpack so -1 round-trips).
  static constexpr u64 pack_ids(i32 site, i32 array) {
    return static_cast<u64>(static_cast<u32>(site)) |
           (static_cast<u64>(static_cast<u32>(array)) << 32);
  }
  /// rank in the low word, kind in bits 32..39, detail in bits 40..47.
  static constexpr u64 pack_meta(i32 rank, FlightKind kind,
                                 unsigned char detail) {
    return static_cast<u64>(static_cast<u32>(rank)) |
           (static_cast<u64>(static_cast<unsigned char>(kind)) << 32) |
           (static_cast<u64>(detail) << 40);
  }

  /// One cache line per slot: adjacent-slot false sharing would otherwise
  /// put two concurrent writers on the same line.
  struct alignas(64) Slot {
    std::atomic<u64> seq{kEmpty};  ///< slot tag (see kBusy)
    std::atomic<u64> trace_id{0};
    std::atomic<double> t{0.0};
    std::atomic<i64> payload{0};
    std::atomic<u64> ids{pack_ids(-1, -1)};
    std::atomic<u64> meta{0};
  };

  /// Wait until the slot holds the published tag `prev` (the previous
  /// lap's event, or kEmpty on the first lap).
  static void wait_for(const Slot& s, u64 prev);

  std::unique_ptr<Slot[]> ring_;
  std::atomic<u64> head_{0};
};

}  // namespace simas::telemetry
