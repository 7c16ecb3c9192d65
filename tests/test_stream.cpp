// Kernel-stream IR and graph capture/replay tests: op helpers, signature
// validation, the flight encoding of every StreamEvent record,
// CapturedGraph lifecycle, and the Engine's capture -> replay ->
// divergence -> re-capture state machine with its launch-overhead
// accounting (per-graph instead of per-kernel).

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "analysis/stream_capture.hpp"
#include "par/engine.hpp"
#include "par/site_table.hpp"

namespace simas::par {
namespace {

EngineConfig graph_config(LoopModel loops = LoopModel::Dc2018,
                          gpusim::MemoryMode mem = gpusim::MemoryMode::Manual) {
  EngineConfig cfg;
  cfg.loops = loops;
  cfg.memory = mem;
  cfg.gpu = true;
  cfg.graph_replay = true;
  cfg.host_threads = 1;
  return cfg;
}

const KernelSite& stream_site(const char* name,
                              SiteKind kind = SiteKind::ParallelLoop) {
  return SiteTable::process().intern(make_site(name, kind));
}

TEST(StreamIr, OpKindHelpers) {
  const KernelSite& site = stream_site("stream_helpers");
  LaunchOp launch;
  launch.site = &site;
  launch.cells = 64;
  ReduceOp red;
  red.site = &site;
  red.cells = 8;

  const StreamOp ops[] = {StreamOp{launch}, StreamOp{red},
                          StreamOp{ArrayReduceOp{}}, StreamOp{SyncOp{}},
                          StreamOp{FusionBreakOp{}}};
  EXPECT_EQ(op_kind(ops[0]), OpKind::Launch);
  EXPECT_EQ(op_kind(ops[1]), OpKind::Reduce);
  EXPECT_EQ(op_kind(ops[2]), OpKind::ArrayReduce);
  EXPECT_EQ(op_kind(ops[3]), OpKind::Sync);
  EXPECT_EQ(op_kind(ops[4]), OpKind::FusionBreak);

  EXPECT_STREQ(op_kind_name(OpKind::Launch), "launch");
  EXPECT_STREQ(op_kind_name(OpKind::ArrayReduce), "array_reduce");
  EXPECT_STREQ(op_kind_name(OpKind::FusionBreak), "fusion_break");

  EXPECT_EQ(op_site(ops[0]), &site);
  EXPECT_EQ(op_cells(ops[0]), 64);
  EXPECT_EQ(op_site(ops[3]), nullptr);
  EXPECT_EQ(op_cells(ops[4]), 0);
}

TEST(StreamIr, SameSignatureChecksKindSiteAndCells) {
  const KernelSite& a = stream_site("stream_sig_a");
  const KernelSite& b = stream_site("stream_sig_b");
  LaunchOp la;
  la.site = &a;
  la.cells = 100;
  LaunchOp la2 = la;
  EXPECT_TRUE(same_signature(StreamOp{la}, StreamOp{la2}));

  LaunchOp other_site = la;
  other_site.site = &b;
  EXPECT_FALSE(same_signature(StreamOp{la}, StreamOp{other_site}));

  LaunchOp other_cells = la;
  other_cells.cells = 101;
  EXPECT_FALSE(same_signature(StreamOp{la}, StreamOp{other_cells}));

  ReduceOp red;
  red.site = &a;
  red.cells = 100;
  EXPECT_FALSE(same_signature(StreamOp{la}, StreamOp{red}));

  EXPECT_TRUE(same_signature(StreamOp{SyncOp{}}, StreamOp{SyncOp{}}));
  EXPECT_FALSE(same_signature(StreamOp{SyncOp{}}, StreamOp{FusionBreakOp{}}));
}

TEST(StreamIr, FlightEventEncodesKernelAndHintOps) {
  using telemetry::FlightKind;
  const KernelSite& site = stream_site("stream_flight_ops");
  LaunchOp launch;
  launch.site = &site;
  launch.cells = 96;
  launch.accesses.push_back(in(7));
  launch.accesses.push_back(out(3));
  const telemetry::FlightEvent l = flight_event(StreamOp{launch});
  EXPECT_EQ(l.kind, FlightKind::Launch);
  EXPECT_EQ(l.site, static_cast<i32>(site.id));
  EXPECT_EQ(l.array, 7);  // first declared array
  EXPECT_EQ(l.payload, 96);
  EXPECT_EQ(l.detail, 0);

  ReduceOp red;  // no declared arrays
  red.site = &site;
  red.cells = 12;
  const telemetry::FlightEvent r = flight_event(StreamOp{red});
  EXPECT_EQ(r.kind, FlightKind::Reduce);
  EXPECT_EQ(r.array, -1);
  EXPECT_EQ(r.payload, 12);

  const telemetry::FlightEvent sync = flight_event(StreamOp{SyncOp{}});
  EXPECT_EQ(sync.kind, FlightKind::Sync);
  EXPECT_EQ(sync.site, -1);
  EXPECT_EQ(sync.array, -1);
  EXPECT_EQ(sync.payload, 0);
  EXPECT_EQ(flight_event(StreamOp{FusionBreakOp{}}).kind,
            FlightKind::FusionBreak);

  // Hint ops: (site, array, bytes) plus the MemHint code as the detail.
  MemHintOp hint;
  hint.id = 5;
  hint.hint = MemHint::AdvisePreferredHost;
  hint.bytes = 4096;
  const telemetry::FlightEvent h = flight_event(StreamOp{hint});
  EXPECT_EQ(h.kind, FlightKind::MemHint);
  EXPECT_EQ(h.site, -1);  // emitted without a kernel site
  EXPECT_EQ(h.array, 5);
  EXPECT_EQ(h.payload, 4096);
  EXPECT_EQ(h.detail, static_cast<unsigned char>(MemHint::AdvisePreferredHost));
  hint.site = &site;
  EXPECT_EQ(flight_event(StreamOp{hint}).site, static_cast<i32>(site.id));
}

TEST(StreamIr, FlightEventEncodesDataAndHaloRecords) {
  using telemetry::FlightKind;
  const telemetry::FlightEvent d =
      flight_event(DataEventRec{gpusim::DataEvent::UpdateHost, 9});
  EXPECT_EQ(d.kind, FlightKind::DataEvent);
  EXPECT_EQ(d.site, -1);
  EXPECT_EQ(d.array, 9);
  EXPECT_EQ(d.payload, 0);
  EXPECT_EQ(d.detail, static_cast<unsigned char>(gpusim::DataEvent::UpdateHost));

  // Halo begins: (array, radial stride, side mask lo=1 | hi=2).
  const telemetry::FlightEvent lo = flight_event(HaloBeginRec{4, 80, 0, -1});
  EXPECT_EQ(lo.kind, FlightKind::HaloBegin);
  EXPECT_EQ(lo.array, 4);
  EXPECT_EQ(lo.payload, 80);
  EXPECT_EQ(lo.detail, 1);
  EXPECT_EQ(flight_event(HaloBeginRec{4, 80, -1, 9}).detail, 2);
  EXPECT_EQ(flight_event(HaloBeginRec{4, 80, 0, 9}).detail, 3);

  const telemetry::FlightEvent end = flight_event(HaloEndRec{4});
  EXPECT_EQ(end.kind, FlightKind::HaloEnd);
  EXPECT_EQ(end.array, 4);
  EXPECT_EQ(end.payload, 0);
  EXPECT_EQ(end.detail, 0);
}

TEST(StreamIr, CapturedGraphLifecycle) {
  CapturedGraph g("pcg/iter");
  EXPECT_EQ(g.name(), "pcg/iter");
  EXPECT_FALSE(g.captured());
  EXPECT_EQ(g.size(), 0u);

  g.begin_capture();
  g.append(StreamOp{SyncOp{}});
  g.append(StreamOp{FusionBreakOp{}});
  EXPECT_EQ(g.size(), 2u);
  EXPECT_FALSE(g.captured());  // not replayable until finalized
  g.finalize();
  EXPECT_TRUE(g.captured());

  g.invalidate();
  EXPECT_FALSE(g.captured());
  g.begin_capture();  // re-capture starts from an empty op list
  EXPECT_EQ(g.size(), 0u);
}

TEST(StreamIr, SiteInventoryComesFromRegistry) {
  stream_site("stream_inventory_probe");
  const auto sites = stream_sites();
  EXPECT_EQ(sites.size(), SiteTable::process().size());
  bool found = false;
  for (const auto& s : sites) found |= (s.name == "stream_inventory_probe");
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Engine graph capture/replay.

TEST(GraphReplay, SecondPassReplaysWithPerGraphLaunchOverhead) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_basic_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_basic_2", SiteKind::ParallelLoop);
  static const KernelSite& sr =
      SIMAS_SITE("graph_basic_red", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  const Range3 r{0, 8, 0, 8, 0, 8};

  auto pass = [&] {
    Engine::GraphScope graph(eng, "basic");
    eng.for_each(s1, r, {out(id)}, [](idx, idx, idx) {});
    eng.for_each(s2, r, {in(id)}, [](idx, idx, idx) {});
    eng.reduce_sum(sr, r, {in(id)}, [](idx, idx, idx) { return 1.0; });
  };

  const auto gap = [&] {
    return eng.ledger().total(gpusim::TimeCategory::LaunchGap);
  };
  const double g0 = gap();
  pass();  // capture: per-kernel launch overhead
  const double capture_gap = gap() - g0;
  const EngineCounters after_capture = eng.counters();
  pass();  // replay: one per-graph launch
  const double replay_gap = gap() - g0 - capture_gap;

  const double overhead = eng.config().device.launch_overhead_s;
  // DC model, manual memory: 3 synchronous launches while capturing...
  EXPECT_DOUBLE_EQ(capture_gap, 3.0 * overhead);
  // ...but a single graph launch while replaying.
  EXPECT_DOUBLE_EQ(replay_gap, overhead);

  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 1);
  EXPECT_EQ(st.replays, 1);
  EXPECT_EQ(st.divergences, 0);
  EXPECT_EQ(st.replayed_ops, 3);
  EXPECT_DOUBLE_EQ(st.graph_launch_seconds, overhead);
  EXPECT_DOUBLE_EQ(st.kernel_launch_seconds_saved, 3.0 * overhead);

  // Replay changes launch accounting only: logical work counters advance
  // exactly as in the capture pass.
  EXPECT_EQ(eng.counters().loops_executed, 2 * after_capture.loops_executed);
  EXPECT_EQ(eng.counters().kernel_launches,
            2 * after_capture.kernel_launches);
  EXPECT_EQ(eng.counters().bytes_touched, 2 * after_capture.bytes_touched);

  const CapturedGraph* g = eng.find_graph("basic");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->captured());
  EXPECT_EQ(g->size(), 3u);
  EXPECT_EQ(eng.find_graph("nonexistent"), nullptr);
}

TEST(GraphReplay, DivergenceInvalidatesAndRecaptures) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_div_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_div_2", SiteKind::ParallelLoop);
  static const KernelSite& s3 = SIMAS_SITE("graph_div_3", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  {
    Engine::GraphScope graph(eng, "div");
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s2, r, {in(id)}, body);
  }  // captured: [s1, s2]
  {
    Engine::GraphScope graph(eng, "div");
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s3, r, {in(id)}, body);  // mismatch -> diverge
  }
  GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 1);
  EXPECT_EQ(st.replays, 1);
  EXPECT_EQ(st.divergences, 1);
  EXPECT_EQ(st.replayed_ops, 1);  // s1 matched before the divergence
  ASSERT_NE(eng.find_graph("div"), nullptr);
  EXPECT_FALSE(eng.find_graph("div")->captured());
  // Divergence never corrupts the work accounting: 4 loops, 4 launches.
  EXPECT_EQ(eng.counters().loops_executed, 4);
  EXPECT_EQ(eng.counters().kernel_launches, 4);

  {
    Engine::GraphScope graph(eng, "div");  // re-capture the new sequence
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s3, r, {in(id)}, body);
  }
  {
    Engine::GraphScope graph(eng, "div");  // now replays cleanly
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s3, r, {in(id)}, body);
  }
  st = eng.graph_stats();
  EXPECT_EQ(st.captures, 2);
  EXPECT_EQ(st.replays, 2);
  EXPECT_EQ(st.divergences, 1);
}

TEST(GraphReplay, TruncatedReplayCountsAsDivergence) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_trunc_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_trunc_2", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  {
    Engine::GraphScope graph(eng, "trunc");
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s2, r, {in(id)}, body);
  }
  {
    Engine::GraphScope graph(eng, "trunc");
    eng.for_each(s1, r, {out(id)}, body);  // pass ends early
  }
  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.divergences, 1);
  EXPECT_FALSE(eng.find_graph("trunc")->captured());
}

TEST(GraphReplay, CellCountChangeDiverges) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_cells", SiteKind::ParallelLoop);
  const auto body = [](idx, idx, idx) {};
  {
    Engine::GraphScope graph(eng, "cells");
    eng.for_each(s1, Range3{0, 8, 0, 8, 0, 8}, {out(id)}, body);
  }
  {
    Engine::GraphScope graph(eng, "cells");
    eng.for_each(s1, Range3{0, 4, 0, 8, 0, 8}, {out(id)}, body);
  }
  EXPECT_EQ(eng.graph_stats().divergences, 1);
}

TEST(GraphReplay, DisabledToggleIsBitIdenticalToNoScopes) {
  static const KernelSite& s1 = SIMAS_SITE("graph_toggle_1", SiteKind::ParallelLoop);
  static const KernelSite& sr =
      SIMAS_SITE("graph_toggle_red", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  EngineConfig cfg = graph_config();
  cfg.graph_replay = false;
  Engine scoped(cfg);
  Engine plain(cfg);
  const auto ids = scoped.memory().register_array("a", 1 << 20);
  const auto idp = plain.memory().register_array("a", 1 << 20);
  for (int pass = 0; pass < 3; ++pass) {
    {
      Engine::GraphScope graph(scoped, "toggle");
      scoped.for_each(s1, r, {out(ids)}, body);
      scoped.reduce_sum(sr, r, {in(ids)}, [](idx, idx, idx) { return 1.0; });
    }
    plain.for_each(s1, r, {out(idp)}, body);
    plain.reduce_sum(sr, r, {in(idp)}, [](idx, idx, idx) { return 1.0; });
  }
  EXPECT_EQ(scoped.modeled_seconds(), plain.modeled_seconds());
  const GraphStats st = scoped.graph_stats();
  EXPECT_EQ(st.captures, 0);
  EXPECT_EQ(st.replays, 0);
  EXPECT_DOUBLE_EQ(st.kernel_launch_seconds_saved, 0.0);
  EXPECT_EQ(scoped.find_graph("toggle"), nullptr);
}

TEST(GraphReplay, InactiveOnCpuEngines) {
  EngineConfig cfg = graph_config();
  cfg.gpu = false;
  cfg.memory = gpusim::MemoryMode::HostOnly;
  cfg.device = gpusim::epyc7742_node();
  Engine eng(cfg);
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_cpu", SiteKind::ParallelLoop);
  for (int pass = 0; pass < 2; ++pass) {
    Engine::GraphScope graph(eng, "cpu");
    eng.for_each(s1, Range3{0, 4, 0, 4, 0, 4}, {out(id)},
                 [](idx, idx, idx) {});
  }
  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 0);
  EXPECT_EQ(st.replays, 0);
}

TEST(GraphReplay, NestedScopesAreGovernedByTheOuterGraph) {
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_nest_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_nest_2", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  auto pass = [&] {
    Engine::GraphScope outer(eng, "outer");
    eng.for_each(s1, r, {out(id)}, body);
    {
      Engine::GraphScope inner(eng, "inner");  // absorbed into "outer"
      eng.for_each(s2, r, {in(id)}, body);
    }
  };
  pass();
  pass();
  EXPECT_EQ(eng.find_graph("inner"), nullptr);
  const CapturedGraph* outer = eng.find_graph("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->size(), 2u);
  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 1);
  EXPECT_EQ(st.replays, 1);
  EXPECT_EQ(st.replayed_ops, 2);
}

TEST(GraphReplay, UnifiedMemoryKeepsInterKernelGapUnderReplay) {
  // Graphs eliminate launch submissions, not UM paging: replayed kernels
  // still pay um_kernel_gap_s between kernels (paper Fig. 4's UM gaps).
  Engine eng(graph_config(LoopModel::Dc2x, gpusim::MemoryMode::Unified));
  const auto id = eng.memory().register_array("a", 1 << 16);
  static const KernelSite& s1 = SIMAS_SITE("graph_um_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_um_2", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  auto pass = [&] {
    Engine::GraphScope graph(eng, "um");
    eng.for_each(s1, r, {out(id)}, body);
    eng.for_each(s2, r, {in(id)}, body);
  };
  const auto gap = [&] {
    return eng.ledger().total(gpusim::TimeCategory::LaunchGap);
  };
  pass();  // capture
  const double g1 = gap();
  pass();  // replay
  const double replay_gap = gap() - g1;

  const double overhead = eng.config().device.launch_overhead_s;
  const double um_gap = eng.config().device.um_kernel_gap_s;
  // One graph launch + the per-kernel UM gaps that replay cannot remove.
  EXPECT_DOUBLE_EQ(replay_gap, overhead + 2.0 * um_gap);
  EXPECT_DOUBLE_EQ(eng.graph_stats().kernel_launch_seconds_saved,
                   2.0 * overhead);
}

TEST(GraphReplay, TwoNamedGraphsCaptureIndependently) {
  // Per-instance graph names (viscosity vs conduction PCG) must not thrash
  // each other's captures on a shared engine.
  Engine eng(graph_config());
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_multi_1", SiteKind::ParallelLoop);
  static const KernelSite& s2 = SIMAS_SITE("graph_multi_2", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto body = [](idx, idx, idx) {};

  for (int pass = 0; pass < 2; ++pass) {
    {
      Engine::GraphScope graph(eng, "visc/iter");
      eng.for_each(s1, r, {out(id)}, body);
    }
    {
      Engine::GraphScope graph(eng, "cond/iter");
      eng.for_each(s2, r, {in(id)}, body);
    }
  }
  const GraphStats st = eng.graph_stats();
  EXPECT_EQ(st.captures, 2);
  EXPECT_EQ(st.replays, 2);
  EXPECT_EQ(st.divergences, 0);
  EXPECT_TRUE(eng.find_graph("visc/iter")->captured());
  EXPECT_TRUE(eng.find_graph("cond/iter")->captured());
}

TEST(GraphReplay, ReplayedOpsStillReachTheStreamCapture) {
  // Replay changes launch accounting only: every op of a replayed pass
  // still passes through the engine's one event function, so the capture
  // records both passes alike.
  EngineConfig cfg = graph_config();
  cfg.capture_stream = true;
  Engine eng(cfg);
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 =
      SIMAS_SITE("graph_capture_1", SiteKind::ParallelLoop);
  static const KernelSite& sr =
      SIMAS_SITE("graph_capture_red", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  const Range3 r{0, 8, 0, 8, 0, 8};
  const auto ops = [&] {
    std::vector<StreamOp> out_ops;
    for (const StreamEvent& ev : eng.stream_capture()->events())
      if (const auto* op = std::get_if<StreamOp>(&ev)) out_ops.push_back(*op);
    return out_ops;
  };
  const std::size_t before = ops().size();
  for (int pass = 0; pass < 2; ++pass) {
    Engine::GraphScope graph(eng, "captured");
    eng.for_each(s1, r, {out(id)}, [](idx, idx, idx) {});
    eng.reduce_sum(sr, r, {in(id)}, [](idx, idx, idx) { return 1.0; });
  }
  EXPECT_EQ(eng.graph_stats().replays, 1);
  EXPECT_EQ(eng.graph_stats().replayed_ops, 2);
  const std::vector<StreamOp> all = ops();
  ASSERT_EQ(all.size(), before + 4);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_TRUE(same_signature(all[before + i], all[before + 2 + i])) << i;
  EXPECT_EQ(op_site(all[before]), &s1);
  EXPECT_EQ(op_site(all[before + 1]), &sr);
}

TEST(GraphReplay, ReplayedGraphLaunchAppearsInTrace) {
  Engine eng(graph_config());
  eng.tracer().enable(true);
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const KernelSite& s1 = SIMAS_SITE("graph_trace_1", SiteKind::ParallelLoop);
  const Range3 r{0, 8, 0, 8, 0, 8};
  for (int pass = 0; pass < 2; ++pass) {
    Engine::GraphScope graph(eng, "traced");
    eng.for_each(s1, r, {out(id)}, [](idx, idx, idx) {});
  }
  bool found = false;
  for (const auto& e : eng.tracer().events())
    found |= (e.name == "graph:traced");
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace simas::par
