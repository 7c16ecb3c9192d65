// End-to-end observability tests (DESIGN.md §18): trace-context minting
// and propagation, span-tree completeness (the 1e-6 phase-sum invariant),
// the flight recorder under writer contention and on the seeded-bug dump
// path (file:line provenance), the one event record shared by the flight
// ring and the stream capture, Prometheus exposition, histogram bucket
// audit (configurable edges + exact running max), the metrics registry
// under the snapshot-while-writing discipline the JobServer uses, the
// perf_check --summary digest, and a live mid-run scrape of the
// introspection surface. Every suite name starts with "Observability" so
// the TSan CI job can select the contention tests by regex.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/stream_capture.hpp"
#include "field/field.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "par/engine.hpp"
#include "par/env_config.hpp"
#include "par/sim_context.hpp"
#include "run/run_experiment.hpp"
#include "service/introspection.hpp"
#include "service/job_server.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf_compare.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/span_tree.hpp"
#include "telemetry/trace_context.hpp"
#include "util/json.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

using par::SiteKind;
using telemetry::FlightKind;
using telemetry::FlightNote;
using telemetry::FlightRecorder;
using telemetry::TraceContext;

// ---------------------------------------------------------------------
// Trace contexts.

TEST(ObservabilityTrace, MintedContextsAreActiveAndUnique) {
  const TraceContext a = TraceContext::mint();
  const TraceContext b = TraceContext::mint();
  EXPECT_TRUE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_FALSE(TraceContext{}.active());
}

TEST(ObservabilityTrace, ChildSpansShareTraceIdWithDistinctSpanIds) {
  const TraceContext root = TraceContext::mint();
  // The rank convention: rank r is the root's child(r + 1), so no rank
  // span ever collides with the root's span id.
  const TraceContext r0 = root.child(1);
  const TraceContext r1 = root.child(2);
  EXPECT_EQ(r0.trace_id, root.trace_id);
  EXPECT_EQ(r1.trace_id, root.trace_id);
  EXPECT_NE(r0.span_id, r1.span_id);
  EXPECT_NE(r0.span_id, root.span_id);
  EXPECT_NE(r1.span_id, root.span_id);
}

// ---------------------------------------------------------------------
// Span trees.

telemetry::JobSpanRecord consistent_record() {
  telemetry::JobSpanRecord rec;
  rec.ctx = TraceContext::mint();
  rec.job_id = 7;
  rec.name = "unit";
  rec.queue_host_seconds = 0.001;
  rec.run_host_seconds = 0.1;
  telemetry::RankSpan rank;
  rank.rank = 0;
  rank.ctx = rec.ctx.child(1);
  rank.phases.compute_seconds = 1.0;
  rank.phases.launch_gap_seconds = 0.25;
  rank.phases.data_motion_seconds = 0.5;
  rank.phases.mpi_exposed_seconds = 0.25;
  rank.phases.hidden_mpi_seconds = 0.125;  // not part of the sum
  rank.phases.modeled_seconds = 2.0;
  rec.ranks.push_back(rank);
  return rec;
}

TEST(ObservabilitySpans, CompleteAcceptsConsistentPhases) {
  std::string why;
  EXPECT_TRUE(consistent_record().complete(1e-6, &why)) << why;
}

TEST(ObservabilitySpans, CompleteRejectsEmptyMissingPhaseAndBadSum) {
  std::string why;
  telemetry::JobSpanRecord rec = consistent_record();
  rec.ranks.clear();
  EXPECT_FALSE(rec.complete(1e-6, &why));

  rec = consistent_record();
  rec.ranks[0].phases.compute_seconds = 0.0;
  EXPECT_FALSE(rec.complete(1e-6, &why));
  EXPECT_NE(why.find("compute"), std::string::npos) << why;

  rec = consistent_record();
  rec.ranks[0].phases.launch_gap_seconds += 0.01;  // sum != modeled
  EXPECT_FALSE(rec.complete(1e-6, &why));
}

TEST(ObservabilitySpans, JsonPutsModeledLeavesUnderAttribution) {
  const json::Value v = telemetry::span_record_json(consistent_record());
  const json::Value* attr = v.find("attribution");
  ASSERT_NE(attr, nullptr);
  for (const char* key :
       {"compute_seconds", "launch_gap_seconds", "prefetch_seconds",
        "mpi_exposed_seconds", "mpi_hidden_seconds", "modeled_wall_seconds"})
    EXPECT_NE(attr->find(key), nullptr) << key;
  const json::Value* ok = v.find("span_sum_ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->is_bool());  // bool: invisible to perf_check's flatten
  EXPECT_TRUE(ok->as_bool());
  // Host wall-clock leaves keep the host_seconds suffix the skip rules
  // in tools/perf_tolerances.json match.
  EXPECT_NE(attr->find("queue_host_seconds"), nullptr);
  EXPECT_NE(attr->find("run_host_seconds"), nullptr);
}

/// Scales one leaf of a span_record_json document's attribution block.
void scale_attribution(json::Value* doc, std::string_view key, double f) {
  for (auto& [name, attr] : doc->as_object())
    if (name == "attribution")
      for (auto& [leaf, v] : attr.as_object())
        if (leaf == key) v = json::Value(v.as_number() * f);
}

TEST(ObservabilitySpans, CommittedRulesGateModeledWallButNotHostWall) {
  std::ifstream in(SIMAS_TEST_PERF_TOLERANCES);
  ASSERT_TRUE(in.good()) << SIMAS_TEST_PERF_TOLERANCES;
  std::ostringstream buf;
  buf << in.rdbuf();
  json::Value spec;
  std::string err;
  ASSERT_TRUE(json::parse(buf.str(), &spec, &err)) << err;
  const std::vector<telemetry::ToleranceRule> rules =
      telemetry::parse_rules(spec, &err);
  ASSERT_TRUE(err.empty()) << err;

  const json::Value baseline = telemetry::span_record_json(consistent_record());
  // Modeled wall time is deterministic: a 1% drift is a model change.
  json::Value modeled = baseline;
  scale_attribution(&modeled, "modeled_wall_seconds", 1.01);
  const telemetry::Comparison cmp =
      telemetry::compare(baseline, modeled, rules);
  std::ostringstream report;
  cmp.print(report);
  EXPECT_FALSE(cmp.ok()) << report.str();
  // Host wall time is machine noise: even 10x must pass.
  json::Value host = baseline;
  scale_attribution(&host, "run_host_seconds", 10.0);
  EXPECT_TRUE(telemetry::compare(baseline, host, rules).ok());
}

TEST(ObservabilitySpans, RunExperimentFillsCompleteRankSpans) {
  run::ExperimentConfig cfg;
  cfg.version = variants::CodeVersion::A;
  cfg.nranks = 2;
  cfg.grid = bench_support::bench_grid();
  cfg.warmup_steps = 0;
  cfg.measure_steps = 1;
  cfg.trace = TraceContext::mint();
  const auto result = run::run_experiment(cfg);
  ASSERT_EQ(result.rank_spans.size(), 2u);
  telemetry::JobSpanRecord rec;
  rec.ctx = cfg.trace;
  rec.job_id = 1;
  rec.ranks = result.rank_spans;
  std::string why;
  EXPECT_TRUE(rec.complete(1e-6, &why)) << why;
  for (const telemetry::RankSpan& rank : result.rank_spans) {
    EXPECT_EQ(rank.ctx.trace_id, cfg.trace.trace_id);
    // Rank r is the root's child(r + 1): span r + 2, never the root's 1.
    EXPECT_EQ(rank.ctx.span_id, static_cast<u64>(rank.rank) + 2);
    EXPECT_NE(rank.ctx.span_id, cfg.trace.span_id);
    EXPECT_GT(rank.phases.modeled_seconds, 0.0);
  }
}

// ---------------------------------------------------------------------
// Flight recorder: ring behaviour and contention.

TEST(ObservabilityFlightRing, RecordsAreDecodableInSequenceOrder) {
  FlightRecorder& fr = FlightRecorder::process();
  const u64 before = fr.recorded();
  fr.record(FlightKind::Launch, 42, 3, 1.5, -1, 7, 4096);
  fr.note(FlightNote::ExplicitDump, 42, 9);
  const auto events = fr.snapshot();
  ASSERT_GE(events.size(), 2u);
  // Our two events are the newest; find them at the tail.
  const telemetry::FlightEvent& launch = events[events.size() - 2];
  const telemetry::FlightEvent& note = events.back();
  EXPECT_EQ(launch.seq, before);
  EXPECT_EQ(launch.kind, FlightKind::Launch);
  EXPECT_EQ(launch.trace_id, 42u);
  EXPECT_EQ(launch.rank, 3);
  EXPECT_EQ(launch.payload, 4096);
  EXPECT_EQ(launch.array, 7);
  EXPECT_EQ(note.kind, FlightKind::JobNote);
  EXPECT_EQ(note.detail, static_cast<unsigned char>(FlightNote::ExplicitDump));
  EXPECT_EQ(note.payload, 9);
}

TEST(ObservabilityFlightRing, ContendedWritersNeverTearASnapshot) {
  // Writers lap the ring many times over while readers snapshot
  // concurrently; every decoded event must be internally consistent
  // (kind/payload stored by the same writer). Run under TSan in CI.
  FlightRecorder& fr = FlightRecorder::process();
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50000;  // ~24x ring capacity in total
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&fr, &go, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerWriter; ++i)
        fr.record(FlightKind::Launch, static_cast<u64>(w) + 1, w,
                  static_cast<double>(i), /*site=*/-1, /*array=*/w,
                  /*payload=*/(static_cast<i64>(w) << 32) | i);
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&fr, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto events = fr.snapshot();
      for (const telemetry::FlightEvent& e : events) {
        if (e.kind != FlightKind::Launch || e.trace_id == 0) continue;
        // payload encodes (writer, i); writer must match trace_id - 1.
        const i64 writer = e.payload >> 32;
        if (e.trace_id >= 1 && e.trace_id <= kWriters) {
          EXPECT_EQ(writer, static_cast<i64>(e.trace_id) - 1);
        }
      }
    }
  });
  const u64 before = fr.recorded();
  go.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(fr.recorded() - before,
            static_cast<u64>(kWriters) * kPerWriter);
  // A final quiescent snapshot decodes the full retained window.
  EXPECT_EQ(fr.snapshot().size(), FlightRecorder::kCapacity);
}

TEST(ObservabilityFlightRing, LappedRingRetainsTheNewestWindowInOrder) {
  // One writer laps the ring twice over: the quiescent snapshot holds
  // exactly the newest kCapacity events, in sequence order, each in its
  // own slot.
  FlightRecorder& fr = FlightRecorder::process();
  const u64 trace_id = TraceContext::mint().trace_id;
  const i64 total = 2 * static_cast<i64>(FlightRecorder::kCapacity) + 5;
  const u64 from = fr.recorded();
  for (i64 i = 0; i < total; ++i)
    fr.record(FlightKind::Sync, trace_id, 0, 0.0, -1, -1, i);
  const u64 head = fr.recorded();
  ASSERT_EQ(head - from, static_cast<u64>(total));
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
  for (std::size_t n = 0; n < events.size(); ++n) {
    const telemetry::FlightEvent& e = events[n];
    const u64 seq = head - FlightRecorder::kCapacity + n;
    ASSERT_EQ(e.seq, seq) << n;
    EXPECT_EQ(e.trace_id, trace_id) << n;
    EXPECT_EQ(e.payload, static_cast<i64>(seq - from)) << n;
  }
}

// ---------------------------------------------------------------------
// One event record: the flight ring and the stream capture see the same
// events, because the engine writes both from one function through one
// encoder (par::flight_event).

TEST(ObservabilityEventRecord, FlightRingMatchesTheStreamCaptureOneForOne) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("host threads " + std::to_string(threads));
    const u64 trace_id = TraceContext::mint().trace_id;
    std::vector<telemetry::FlightEvent> flight;
    std::vector<telemetry::FlightEvent> captured;
    u64 window = 0;
    mpisim::World world(2);
    world.run([&](int rank) {
      par::EngineConfig ecfg = variants::engine_config(
          variants::CodeVersion::A, gpusim::a100_40gb(), threads);
      ASSERT_EQ(ecfg.memory, gpusim::MemoryMode::Manual);
      ecfg.capture_stream = true;
      ecfg.overlap_halo = true;
      ecfg.trace_id = trace_id;
      ecfg.flight_rank = rank;
      FlightRecorder& fr = FlightRecorder::process();
      const u64 from = fr.recorded();
      par::Engine engine(ecfg);
      mpisim::Comm comm(world, rank, engine);
      mhd::SolverConfig scfg;
      scfg.grid.nr = 12;
      scfg.grid.nt = 8;
      scfg.grid.np = 8;
      mhd::MasSolver solver(engine, comm, scfg);
      solver.initialize();
      solver.run(1);
      if (rank != 0) return;
      window = fr.recorded() - from;
      for (const telemetry::FlightEvent& e : fr.snapshot())
        if (e.seq >= from && e.trace_id == trace_id && e.rank == 0)
          flight.push_back(e);
      for (const par::StreamEvent& ev : engine.stream_capture()->events())
        captured.push_back(par::flight_event(ev));
    });
    // Both ranks' events since rank 0 started must still be retained.
    ASSERT_LT(window, FlightRecorder::kCapacity);
    ASSERT_EQ(flight.size(), captured.size());
    ASSERT_GT(captured.size(), 0u);
    std::set<FlightKind> kinds;
    for (std::size_t i = 0; i < captured.size(); ++i) {
      const telemetry::FlightEvent& f = flight[i];
      const telemetry::FlightEvent& c = captured[i];
      ASSERT_TRUE(f.kind == c.kind && f.site == c.site &&
                  f.array == c.array && f.payload == c.payload &&
                  f.detail == c.detail)
          << "event " << i << ": flight " << telemetry::flight_kind_name(f.kind)
          << " site " << f.site << " array " << f.array << " payload "
          << f.payload << " detail " << int(f.detail) << ", capture "
          << telemetry::flight_kind_name(c.kind) << " site " << c.site
          << " array " << c.array << " payload " << c.payload << " detail "
          << int(c.detail);
      kinds.insert(c.kind);
    }
    // The step exercises every channel: ops, data events, halo windows.
    for (const FlightKind k :
         {FlightKind::Launch, FlightKind::Reduce, FlightKind::DataEvent,
          FlightKind::HaloBegin, FlightKind::HaloEnd})
      EXPECT_EQ(kinds.count(k), 1u) << telemetry::flight_kind_name(k);
  }
}

/// Ring events recorded for `trace_id` at or after sequence `from`.
std::vector<telemetry::FlightEvent> ring_events(u64 trace_id, u64 from) {
  std::vector<telemetry::FlightEvent> out;
  for (const telemetry::FlightEvent& e : FlightRecorder::process().snapshot())
    if (e.seq >= from && e.trace_id == trace_id) out.push_back(e);
  return out;
}

TEST(ObservabilityEventRecord, UnifiedHintsReachTheRingAsCaptured) {
  par::EngineConfig cfg;
  cfg.memory = gpusim::MemoryMode::Unified;
  cfg.capture_stream = true;
  cfg.host_threads = 1;
  cfg.trace_id = TraceContext::mint().trace_id;
  par::Engine eng(cfg);
  field::Field f(eng, "obs_hint", 4, 4, 4);
  const i64 bytes = eng.memory().record(f.id()).bytes;
  const u64 from = FlightRecorder::process().recorded();
  const std::size_t first = eng.stream_capture()->events().size();
  eng.mem_prefetch(f.id(), bytes, par::Span::GhostHi);
  eng.mem_advise(f.id(), par::MemHint::AdviseReadMostly);

  const auto& events = eng.stream_capture()->events();
  ASSERT_EQ(events.size(), first + 2);
  const auto flight = ring_events(cfg.trace_id, from);
  ASSERT_EQ(flight.size(), 2u);
  const par::MemHint hints[] = {par::MemHint::PrefetchToDevice,
                                par::MemHint::AdviseReadMostly};
  for (std::size_t n = 0; n < 2; ++n) {
    const auto* op = std::get_if<par::StreamOp>(&events[first + n]);
    ASSERT_NE(op, nullptr) << n;
    const auto* h = std::get_if<par::MemHintOp>(op);
    ASSERT_NE(h, nullptr) << n;
    EXPECT_EQ(h->hint, hints[n]);
    EXPECT_EQ(h->bytes, bytes);
    const telemetry::FlightEvent& e = flight[n];
    EXPECT_EQ(e.kind, FlightKind::MemHint);
    EXPECT_EQ(e.array, static_cast<i32>(f.id()));
    EXPECT_EQ(e.payload, bytes);
    EXPECT_EQ(e.detail, static_cast<unsigned char>(hints[n]));
  }
  EXPECT_EQ(std::get<par::MemHintOp>(std::get<par::StreamOp>(
                events[first])).span,
            par::Span::GhostHi);
  eng.device_sync();
  (void)eng.take_validation_report();
}

TEST(ObservabilityEventRecord, HaloNotesRecordStrideAndPostedColumns) {
  par::EngineConfig cfg;
  cfg.capture_stream = true;
  cfg.host_threads = 1;
  cfg.trace_id = TraceContext::mint().trace_id;
  par::Engine eng(cfg);
  field::Field f(eng, "obs_halo", 6, 4, 4, 1);
  const std::size_t stride = f.a().radial_stride();
  const int hi_col = static_cast<int>(f.a().n1() + f.a().nghost());
  const u64 from = FlightRecorder::process().recorded();
  const std::size_t first = eng.stream_capture()->events().size();
  eng.note_halo_begin(f.id(), stride, -1, -1);  // nothing posted: no event
  eng.note_halo_begin(f.id(), stride, -1, hi_col);
  eng.note_halo_end(f.id());

  const auto& events = eng.stream_capture()->events();
  ASSERT_EQ(events.size(), first + 2);
  const auto* begin = std::get_if<par::HaloBeginRec>(&events[first]);
  ASSERT_NE(begin, nullptr);
  EXPECT_EQ(begin->id, f.id());
  EXPECT_EQ(begin->radial_stride, stride);
  EXPECT_EQ(begin->lo_column, -1);
  EXPECT_EQ(begin->hi_column, hi_col);
  EXPECT_FALSE(begin->lo_inflight());
  EXPECT_TRUE(begin->hi_inflight());
  const auto* end = std::get_if<par::HaloEndRec>(&events[first + 1]);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(end->id, f.id());

  const auto flight = ring_events(cfg.trace_id, from);
  ASSERT_EQ(flight.size(), 2u);
  EXPECT_EQ(flight[0].kind, FlightKind::HaloBegin);
  EXPECT_EQ(flight[0].array, static_cast<i32>(f.id()));
  EXPECT_EQ(flight[0].payload, static_cast<i64>(stride));
  EXPECT_EQ(flight[0].detail, 2);  // hi side only
  EXPECT_EQ(flight[1].kind, FlightKind::HaloEnd);
  EXPECT_EQ(flight[1].array, static_cast<i32>(f.id()));
  (void)eng.take_validation_report();
}

// ---------------------------------------------------------------------
// Flight dump from a seeded bug: provenance back to file:line.

TEST(ObservabilityFlightDump, SeededValidatorErrorDumpsWithProvenance) {
  const std::string path =
      ::testing::TempDir() + "simas_flight_validator.json";
  std::remove(path.c_str());

  // Inject the dump path through a test-local SimContext: engines read
  // the env snapshot from their context, never from getenv() directly.
  par::EnvConfig env;  // defaults: validate off, fatal off
  env.flight_dump = path;
  par::SimContext ctx(env);

  par::EngineConfig cfg;
  cfg.validate = true;
  cfg.host_threads = 1;
  cfg.ctx = &ctx;
  cfg.trace_id = 77;
  const int seed_line = __LINE__ + 2;  // the SIMAS_SITE line below
  static const par::KernelSite& site =
      SIMAS_SITE("obs_dump_w", SiteKind::ParallelLoop, 0);
  {
    par::Engine eng(cfg);
    field::Field f(eng, "obs_dump_a", 4, 4, 4);
    f.enter_data();
    // The classic seeded bug: every iteration writes element (0,0,0),
    // declared honestly as a scatter write — a duplicate-write error.
    eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
                 {par::out_scatter(f.id())}, [&](idx i, idx j, idx k) {
                   f(0, 0, 0) = static_cast<real>(i + j + k);
                 });
    eng.device_sync();
    f.exit_data();
    const auto report = eng.take_validation_report();
    ASSERT_GT(report.errors(), 0);  // this triggered the dump
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "flight dump not written to " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(buf.str(), &doc, &err)) << err;
  ASSERT_NE(doc.find("reason"), nullptr);
  EXPECT_EQ(doc.find("reason")->as_string(), "validator_error");

  // Locate the faulting launch in the event window and walk its
  // provenance back to this file and the SIMAS_SITE line.
  const json::Value* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  bool found_launch = false, found_note = false;
  for (const json::Value& ev : events->as_array()) {
    const json::Value* site_name = ev.find("site");
    if (site_name != nullptr && site_name->is_string() &&
        site_name->as_string() == "obs_dump_w") {
      found_launch = true;
      EXPECT_EQ(ev.find("kind")->as_string(), "launch");
      EXPECT_EQ(ev.find("trace_id")->as_number(), 77.0);
      const json::Value* where = ev.find("where");
      ASSERT_NE(where, nullptr);
      const std::string& loc = where->as_string();
      EXPECT_NE(loc.find("test_observability.cpp"), std::string::npos) << loc;
      const std::size_t colon = loc.rfind(':');
      ASSERT_NE(colon, std::string::npos);
      EXPECT_EQ(std::stoi(loc.substr(colon + 1)), seed_line) << loc;
    }
    const json::Value* note = ev.find("note");
    if (note != nullptr && note->as_string() == "validator_error")
      found_note = true;
  }
  EXPECT_TRUE(found_launch)
      << "faulting launch missing from the flight dump";
  EXPECT_TRUE(found_note);
  std::remove(path.c_str());
}

// Every trigger goes through SimContext::flight_incident: the dump's
// reason is the name of the note it records.

json::Value read_flight_dump(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "flight dump not written to " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  json::Value doc;
  std::string err;
  EXPECT_TRUE(json::parse(buf.str(), &doc, &err)) << err;
  return doc;
}

/// The newest note event carrying `trace_id`, or nullptr.
const json::Value* find_note(const json::Value& doc, u64 trace_id) {
  const json::Value* found = nullptr;
  const json::Value* events = doc.find("events");
  if (events == nullptr) return nullptr;
  for (const json::Value& ev : events->as_array()) {
    if (ev.find("note") != nullptr &&
        ev.find("trace_id")->as_number() == static_cast<double>(trace_id))
      found = &ev;
  }
  return found;
}

TEST(ObservabilityFlightDump, EveryTriggerNamesItsNote) {
  const std::string path = ::testing::TempDir() + "simas_flight_triggers.json";
  par::EnvConfig env;
  env.flight_dump = path;
  par::SimContext ctx(env);

  run::ExperimentConfig cfg;
  cfg.version = variants::CodeVersion::A;
  cfg.nranks = 2;
  cfg.grid = bench_support::bench_grid();
  cfg.warmup_steps = 0;
  cfg.measure_steps = 1;

  // (a) The explicit end-of-run dump of a clean run.
  {
    std::remove(path.c_str());
    run::ExperimentConfig run_cfg = cfg;
    run_cfg.ctx = &ctx;
    run_cfg.trace = TraceContext::mint();
    (void)run::run_experiment(run_cfg);
    const json::Value doc = read_flight_dump(path);
    ASSERT_NE(doc.find("reason"), nullptr);
    EXPECT_EQ(doc.find("reason")->as_string(), "explicit_dump");
    const json::Value* note = find_note(doc, run_cfg.trace.trace_id);
    ASSERT_NE(note, nullptr);
    EXPECT_EQ(note->find("note")->as_string(), "explicit_dump");
  }

  // (b) A job that fails on a corrupt field-cache entry (rank 1's field
  // is one element short).
  {
    cfg.boundary.enabled = true;
    cfg.boundary.seed = 57;
    cfg.boundary.tol = 1.0e-4;
    run::BoundaryFields fields;
    run::ExperimentConfig solving = cfg;  // process context: no dump
    solving.boundary_out = &fields;
    (void)run::run_experiment(solving);
    fields.ranks.at(1).br.pop_back();

    std::remove(path.c_str());
    service::JobServerConfig scfg;
    scfg.ctx = &ctx;
    scfg.workers = 1;
    scfg.host_threads_total = 2;
    scfg.trace = true;
    service::JobServer server(scfg);
    server.field_cache().publish(service::FieldCache::key_for(cfg),
                                 std::move(fields));
    service::JobDescription d;
    d.id = 7;
    d.config = cfg;
    ASSERT_TRUE(server.submit(std::move(d)));
    const auto results = server.drain();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_FALSE(results[0].ok);
    const json::Value doc = read_flight_dump(path);
    ASSERT_NE(doc.find("reason"), nullptr);
    EXPECT_EQ(doc.find("reason")->as_string(), "job_failed");
    const json::Value* note = find_note(doc, results[0].spans.ctx.trace_id);
    ASSERT_NE(note, nullptr);
    EXPECT_EQ(note->find("note")->as_string(), "job_failed");
    EXPECT_EQ(note->find("payload")->as_number(), 7.0);
  }
  std::remove(path.c_str());
}

TEST(ObservabilityFlightDump, DrainedServerDumpsOnceForItsBatch) {
  // Served jobs fire no explicit dump of their own: the server's drain
  // fires one for the whole batch (trace 0, payload = jobs drained).
  const std::string path = ::testing::TempDir() + "simas_flight_drain.json";
  std::remove(path.c_str());
  par::EnvConfig env;
  env.flight_dump = path;
  par::SimContext ctx(env);

  constexpr int kJobs = 3;
  service::JobServerConfig scfg;
  scfg.ctx = &ctx;
  scfg.workers = 2;
  scfg.host_threads_total = 2;
  scfg.trace = true;
  service::JobServer server(scfg);
  for (int j = 0; j < kJobs; ++j) {
    service::JobDescription d;
    d.id = j;
    d.config.version = variants::CodeVersion::A;
    d.config.nranks = 2;
    d.config.grid = bench_support::bench_grid();
    d.config.warmup_steps = 0;
    d.config.measure_steps = 1;
    ASSERT_TRUE(server.submit(std::move(d)));
  }
  const auto results = server.drain();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kJobs));
  std::set<u64> served;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    served.insert(r.spans.ctx.trace_id);
  }

  const json::Value doc = read_flight_dump(path);
  ASSERT_NE(doc.find("reason"), nullptr);
  EXPECT_EQ(doc.find("reason")->as_string(), "explicit_dump");
  int batch_dumps = 0;
  for (const json::Value& ev : doc.find("events")->as_array()) {
    const json::Value* note = ev.find("note");
    if (note == nullptr || note->as_string() != "explicit_dump") continue;
    const u64 trace = static_cast<u64>(ev.find("trace_id")->as_number());
    EXPECT_EQ(served.count(trace), 0u) << "a served job dumped on its own";
    if (trace == 0 && ev.find("payload")->as_number() == kJobs) ++batch_dumps;
  }
  EXPECT_EQ(batch_dumps, 1);

  // drain() is idempotent: a second call dumps nothing.
  std::remove(path.c_str());
  (void)server.drain();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ObservabilityFlightDump, ConcurrentDumpsToOnePathLeaveOneDocument) {
  // Runs sharing one SIMAS_FLIGHT_DUMP path (concurrent direct runs,
  // incidents of concurrent jobs) may dump at once: the file must stay
  // one whole document, with no temp file left behind.
  const std::string dir = ::testing::TempDir();
  const std::string name = "simas_flight_concurrent.json";
  const std::string path = dir + name;
  std::remove(path.c_str());
  par::EnvConfig env;
  env.flight_dump = path;
  const par::SimContext ctx(env);
  // A full ring makes each document large enough for torn writes to show.
  FlightRecorder& fr = FlightRecorder::process();
  for (std::size_t e = 0; e < FlightRecorder::kCapacity; ++e)
    fr.record(FlightKind::Launch, 1, 0, 0.0, -1, -1, static_cast<i64>(e));

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&ctx, &ready, t] {
      // Start together, so every dump overlaps another.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      ctx.flight_incident(FlightNote::ExplicitDump, 900 + t);
    });
  for (std::thread& th : threads) th.join();

  EXPECT_NE(read_flight_dump(path).find("events"), nullptr);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    EXPECT_FALSE(file.starts_with(name + ".tmp")) << "left behind: " << file;
  }
  std::remove(path.c_str());
}

/// The dump as the document-model writer produced it: dump_json's former
/// body, kept as the reference for the streamed writer.
std::string dom_flight_dump(const FlightRecorder& fr,
                            const std::string& reason) {
  const std::vector<telemetry::FlightEvent> events = fr.snapshot();
  const u64 head = fr.recorded();
  const par::SiteTable& sites = par::SiteTable::process();
  const std::size_t nsites = sites.size();
  const std::size_t cap = FlightRecorder::kCapacity;
  json::Value doc;
  doc.set("flight_recorder", json::Value("simas"));
  doc.set("reason", json::Value(reason));
  doc.set("capacity", json::Value(static_cast<long long>(cap)));
  doc.set("recorded_total", json::Value(static_cast<long long>(head)));
  doc.set("dropped",
          json::Value(static_cast<long long>(head > cap ? head - cap : 0)));
  json::Value arr{json::Value::Array{}};
  for (const telemetry::FlightEvent& e : events) {
    json::Value ev;
    ev.set("seq", json::Value(static_cast<long long>(e.seq)));
    ev.set("kind", json::Value(telemetry::flight_kind_name(e.kind)));
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
      ev.set("note", json::Value(telemetry::flight_note_name(
                         static_cast<FlightNote>(e.detail))));
    } else if (e.detail != 0) {
      ev.set("detail", json::Value(static_cast<int>(e.detail)));
    }
    arr.push_back(std::move(ev));
  }
  doc.set("events", std::move(arr));
  std::ostringstream os;
  json::write(os, doc, 1);
  os << "\n";
  return os.str();
}

/// Empty when `got` equals `want`, else the first differing offset and a
/// little context (gtest's own string diff is quadratic on a 1.5 MB dump).
std::string first_difference(const std::string& got,
                             const std::string& want) {
  if (got == want) return {};
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(),
                                    want.end());
  const std::size_t at = static_cast<std::size_t>(g - got.begin());
  const std::size_t from = at > 40 ? at - 40 : 0;
  return "sizes " + std::to_string(got.size()) + " vs " +
         std::to_string(want.size()) + ", first difference at byte " +
         std::to_string(at) + ":\n got: " + got.substr(from, 80) +
         "\nwant: " + want.substr(from, 80);
}

TEST(ObservabilityFlightDump, StreamedDumpMatchesTheDomWriterByteForByte) {
  const par::KernelSite& located = SIMAS_SITE(
      "flight_dump \"quoted\"\\name", par::SiteKind::ParallelLoop, 0);
  const par::KernelSite& unlocated = par::SiteTable::process().intern(
      par::make_site("flight_dump_unlocated", par::SiteKind::ParallelLoop));
  const std::string reason = "explicit \"dump\"\n\ttab";
  FlightRecorder fr;
  const auto dump = [&] {
    std::ostringstream os;
    fr.dump_json(os, reason);
    return os.str();
  };
  // Empty ring: "events": [].
  EXPECT_EQ(first_difference(dump(), dom_flight_dump(fr, reason)), "");

  // A lapped ring of every kind and field shape: in-table, unlocated and
  // out-of-table sites, no site, arrays, notes, details, fractional and
  // huge values (%.15g path), negative payloads.
  const i32 sites[4] = {located.id, unlocated.id, -1, 1 << 20};
  const std::size_t total = FlightRecorder::kCapacity + 77;
  for (std::size_t n = 0; n < total; ++n) {
    const auto kind = static_cast<FlightKind>(n % 10);
    const u64 trace = n % 7 == 0 ? (u64{1} << 60) + n : n % 5;
    const double t = n % 3 == 0 ? static_cast<double>(n)
                                : 1.0e-3 * static_cast<double>(n) / 7.0;
    const i64 payload =
        n % 11 == 0 ? -static_cast<i64>(n) : static_cast<i64>(n) << 20;
    const auto detail = static_cast<unsigned char>(
        kind == FlightKind::JobNote ? n % 5 : n % 4);
    fr.record(kind, trace, static_cast<i32>(n % 3), t, sites[n % 4],
              n % 2 == 0 ? -1 : static_cast<i32>(n % 9), payload, detail);
  }
  const std::string streamed = dump();
  EXPECT_EQ(first_difference(streamed, dom_flight_dump(fr, reason)), "");
  json::Value parsed;
  std::string err;
  EXPECT_TRUE(json::parse(streamed, &parsed, &err)) << err;
}

// ---------------------------------------------------------------------
// Metrics registry: bucket audit + snapshot-while-writing discipline.

TEST(ObservabilityRegistry, HistogramTracksExactMaxAndCustomBounds) {
  telemetry::Registry reg;
  const std::array<double, 3> bounds = {1.0, 2.0, 4.0};
  telemetry::Histogram h = reg.histogram("obs.latency", bounds);
  h.observe(0.5);
  h.observe(3.0);
  h.observe(25.0);  // long tail: overflow bucket, exact max retained
  const auto snap = reg.snapshot();
  const telemetry::MetricSample* s = snap.find("obs.latency");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->bounds.size(), 3u);
  EXPECT_EQ(s->bounds[2], 4.0);
  ASSERT_EQ(s->buckets.size(), 4u);
  EXPECT_EQ(s->buckets[3], 1);  // the tail sample
  EXPECT_EQ(s->count, 3);
  EXPECT_EQ(s->max, 25.0);
}

TEST(ObservabilityRegistry, MergeKeepsTheLargestObservedMax) {
  telemetry::Registry a, b, c;
  const std::array<double, 2> bounds = {1.0, 2.0};
  a.histogram("m", bounds).observe(1.5);
  b.histogram("m", bounds).observe(9.0);
  (void)c.histogram("m", bounds);  // no samples: max is meaningless
  auto snap = a.snapshot();
  snap.merge_from(b.snapshot());
  snap.merge_from(c.snapshot());
  const telemetry::MetricSample* s = snap.find("m");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 2);
  EXPECT_EQ(s->max, 9.0);
}

TEST(ObservabilityRegistry, SnapshotWhileWritingUnderTheServerDiscipline) {
  // The registry itself is rank-local by design; cross-thread use goes
  // through an external mutex (exactly what JobServer does). This test
  // runs that discipline hot — mutating writers racing a snapshotting
  // reader — and is part of the TSan CI job: if the discipline were not
  // sufficient, TSan would flag the registry internals.
  telemetry::Registry reg;
  std::mutex mu;
  telemetry::Counter ctr;
  telemetry::Histogram hist;
  {
    std::lock_guard<std::mutex> lock(mu);
    ctr = reg.counter("obs.ops");
    const std::array<double, 2> bounds = {0.5, 1.0};
    hist = reg.histogram("obs.h", bounds);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        std::lock_guard<std::mutex> lock(mu);
        ctr.add(1);
        hist.observe(0.25 * (i % 8));
      }
    });
  }
  i64 last_seen = 0;
  while (!stop.load()) {
    telemetry::MetricsSnapshot snap;
    {
      std::lock_guard<std::mutex> lock(mu);
      snap = reg.snapshot();
    }
    const i64 v = snap.counter("obs.ops");
    EXPECT_GE(v, last_seen);  // monotone under the lock
    last_seen = v;
    if (v >= 3 * 20000) stop.store(true);
  }
  for (auto& t : writers) t.join();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(reg.snapshot().counter("obs.ops"), 3 * 20000);
}

// ---------------------------------------------------------------------
// Prometheus exposition.

TEST(ObservabilityPrometheus, ExposesCounterGaugeHistogramWithMax) {
  telemetry::Registry reg;
  reg.counter("jobs.completed").add(5);
  reg.gauge("queue.depth").set(2.0);
  const std::array<double, 2> bounds = {0.1, 1.0};
  telemetry::Histogram h = reg.histogram("jobs.latency_seconds", bounds);
  h.observe(0.05);
  h.observe(30.0);
  const std::string text = telemetry::to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# TYPE simas_jobs_completed counter\n"
                      "simas_jobs_completed 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("simas_queue_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("simas_jobs_latency_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("simas_jobs_latency_seconds_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("simas_jobs_latency_seconds_max 30\n"),
            std::string::npos);
  // Dotted metric names sanitize to underscores (dots in `le` label
  // *values* are legitimate exposition syntax).
  EXPECT_NE(text.find("simas_jobs_latency_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("simas_jobs."), std::string::npos);
}

// ---------------------------------------------------------------------
// perf_check --summary digest.

TEST(ObservabilityPerfSummary, RanksWorstRelativeRegressionFirst) {
  json::Value base, cur;
  base.set("small_drift", json::Value(100.0));
  base.set("big_drift", json::Value(10.0));
  base.set("gone", json::Value(1.0));
  cur.set("small_drift", json::Value(101.0));  // +1%
  cur.set("big_drift", json::Value(15.0));     // +50%
  const telemetry::Comparison cmp =
      telemetry::compare(base, cur, {});  // exact-match default
  EXPECT_EQ(cmp.failures, 3u);
  std::ostringstream os;
  cmp.print_summary(os, 2);
  const std::string text = os.str();
  EXPECT_NE(text.find("top 2 of 3"), std::string::npos) << text;
  // big_drift (50%) must outrank small_drift (1%).
  EXPECT_LT(text.find("big_drift"), text.find("small_drift")) << text;
  EXPECT_NE(text.find("1 more"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Traced serving end to end: span records + Perfetto job tracks.

run::ExperimentConfig tiny_cfg(u64 seed) {
  run::ExperimentConfig cfg;
  cfg.version = variants::CodeVersion::A;
  cfg.nranks = 1;
  cfg.grid = bench_support::bench_grid();
  cfg.warmup_steps = 0;
  cfg.measure_steps = 1;
  cfg.boundary.enabled = true;
  cfg.boundary.seed = seed;
  cfg.boundary.tol = 1.0e-4;
  return cfg;
}

TEST(ObservabilityServing, TracedJobsYieldCompleteSpanTrees) {
  service::JobServerConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = 8;
  scfg.host_threads_total = 2;
  scfg.autostart = false;
  scfg.trace = true;
  scfg.completed_ring = 4;
  service::JobServer server(scfg);
  for (i64 id = 0; id < 6; ++id) {
    service::JobDescription d;
    d.id = id;
    d.name = "traced";
    d.config = tiny_cfg(60);
    ASSERT_TRUE(server.submit(std::move(d)));
  }
  server.start();
  const auto results = server.drain();
  ASSERT_EQ(results.size(), 6u);
  std::set<u64> trace_ids;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.spans.ctx.active());
    trace_ids.insert(r.spans.ctx.trace_id);
    std::string why;
    EXPECT_TRUE(r.spans.complete(1e-6, &why)) << "job " << r.id << ": " << why;
    EXPECT_GE(r.spans.run_host_seconds, 0.0);
    EXPECT_EQ(r.spans.job_id, static_cast<u64>(r.id));
    for (const telemetry::RankSpan& rank : r.spans.ranks) {
      EXPECT_EQ(rank.ctx.span_id, static_cast<u64>(rank.rank) + 2);
      EXPECT_NE(rank.ctx.span_id, r.spans.ctx.span_id);
    }
  }
  EXPECT_EQ(trace_ids.size(), 6u);  // one distinct trace per job

  // The completed ring retains the newest N records.
  const auto recent = server.recent_completed();
  EXPECT_EQ(recent.size(), 4u);

  // Perfetto job-track export round-trips through the strict parser.
  std::ostringstream os;
  std::vector<telemetry::JobSpanRecord> spans;
  for (const auto& r : results) spans.push_back(r.spans);
  telemetry::write_job_spans_json(os, spans);
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(os.str(), &doc, &err)) << err;
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int process_rows = 0;
  for (const json::Value& ev : events->as_array())
    if (ev.find("name") != nullptr && ev.find("name")->is_string() &&
        ev.find("name")->as_string() == "process_name")
      ++process_rows;
  EXPECT_EQ(process_rows, 6);  // one track per job
}

// ---------------------------------------------------------------------
// Introspection surface: live scrape mid-run.

std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<unsigned short>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string response;
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

TEST(ObservabilityIntrospection, ScrapesHealthMetricsAndJobsMidRun) {
  service::JobServerConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = 16;
  scfg.host_threads_total = 2;
  scfg.autostart = false;
  scfg.trace = true;
  service::JobServer server(scfg);
  service::IntrospectionServer surface(server);
  ASSERT_GT(surface.port(), 0);

  for (i64 id = 0; id < 10; ++id) {
    service::JobDescription d;
    d.id = id;
    d.name = "scrape";
    d.config = tiny_cfg(61);
    ASSERT_TRUE(server.submit(std::move(d)));
  }
  server.start();  // jobs are now in flight

  // Scrape all three endpoints live, while the batch is being served.
  EXPECT_EQ(http_get(surface.port(), "/healthz"), "ok\n");
  const std::string metrics = http_get(surface.port(), "/metrics");
  EXPECT_NE(metrics.find("simas_jobs_submitted 10"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE simas_jobs_latency_seconds histogram"),
            std::string::npos);
  const std::string jobs_body = http_get(surface.port(), "/jobs");
  json::Value mid;
  std::string err;
  ASSERT_TRUE(json::parse(jobs_body, &mid, &err)) << err << "\n" << jobs_body;
  ASSERT_NE(mid.find("queue"), nullptr);
  EXPECT_EQ(mid.find("queue")->find("capacity")->as_number(), 16.0);
  ASSERT_NE(mid.find("in_flight"), nullptr);
  ASSERT_NE(mid.find("recent_completed"), nullptr);

  EXPECT_EQ(http_get(surface.port(), "/nope"), "not found\n");

  const auto results = server.drain();
  ASSERT_EQ(results.size(), 10u);

  // Post-drain, the completed ring is visible with latency attribution.
  json::Value done;
  ASSERT_TRUE(json::parse(http_get(surface.port(), "/jobs"), &done, &err))
      << err;
  const json::Value* completed = done.find("recent_completed");
  ASSERT_NE(completed, nullptr);
  ASSERT_FALSE(completed->as_array().empty());
  const json::Value& rec = completed->as_array().front();
  ASSERT_NE(rec.find("attribution"), nullptr);
  EXPECT_NE(rec.find("attribution")->find("compute_seconds"), nullptr);
  surface.stop();
  // stop() is idempotent and the destructor tolerates a stopped server.
  surface.stop();
}

}  // namespace
}  // namespace simas
