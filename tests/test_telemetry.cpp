#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "par/engine.hpp"
#include "par/site_table.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf_compare.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/ranges.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"

namespace simas {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::Merge;
using telemetry::MetricsSnapshot;
using telemetry::Registry;

// ---------------------------------------------------------------- registry

TEST(Registry, CountersAccumulateAndReadBack) {
  Registry reg;
  Counter c = reg.counter("engine.launches");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Re-registration returns a handle onto the same metric.
  Counter again = reg.counter("engine.launches");
  again.add(8);
  EXPECT_EQ(c.value(), 50);
}

TEST(Registry, DefaultConstructedHandlesAreInertNotCrashes) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add(5);
  g.set(1.0);
  h.observe(2.0);
  EXPECT_EQ(c.value(), 0);
  EXPECT_FALSE(c.valid());
}

TEST(Registry, KindMismatchOnRegisteredNameThrows) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", std::vector<double>{1.0}), std::logic_error);
}

TEST(Registry, HandlesSurviveRegistrationGrowth) {
  // Handles are (registry, slot) pairs, not raw pointers: registering many
  // more metrics (growing the slot vectors) must not invalidate them.
  Registry reg;
  Counter first = reg.counter("first");
  first.add(7);
  for (int i = 0; i < 200; ++i)
    reg.counter("growth." + std::to_string(i)).add(1);
  first.add(1);
  EXPECT_EQ(first.value(), 8);
}

TEST(Registry, HistogramBucketsAndOverflow) {
  Registry reg;
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  Histogram h = reg.histogram("cells", bounds);
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (bound inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow bucket
  const MetricsSnapshot snap = reg.snapshot();
  const telemetry::MetricSample* s = snap.find("cells");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->buckets.size(), 4u);
  EXPECT_EQ(s->buckets[0], 2);
  EXPECT_EQ(s->buckets[1], 1);
  EXPECT_EQ(s->buckets[2], 0);
  EXPECT_EQ(s->buckets[3], 1);
  EXPECT_EQ(s->count, 4);
  EXPECT_DOUBLE_EQ(s->value, 0.5 + 1.0 + 5.0 + 1000.0);
}

TEST(Snapshot, MergeAppliesPerMetricPolicy) {
  Registry a, b;
  a.counter("n").add(10);
  b.counter("n").add(32);
  a.gauge("peak", Merge::Max).set(3.0);
  b.gauge("peak", Merge::Max).set(7.0);
  a.gauge("low", Merge::Min).set(2.0);
  b.gauge("low", Merge::Min).set(5.0);
  a.gauge("acc", Merge::Sum).set(1.5);
  b.gauge("acc", Merge::Sum).set(2.5);
  const std::vector<double> bounds = {1.0};
  a.histogram("h", bounds).observe(0.5);
  b.histogram("h", bounds).observe(2.0);
  b.counter("only_b").add(4);

  MetricsSnapshot merged = a.snapshot();
  merged.merge_from(b.snapshot());
  EXPECT_EQ(merged.counter("n"), 42);
  EXPECT_DOUBLE_EQ(merged.gauge("peak"), 7.0);
  EXPECT_DOUBLE_EQ(merged.gauge("low"), 2.0);
  EXPECT_DOUBLE_EQ(merged.gauge("acc"), 4.0);
  EXPECT_EQ(merged.counter("only_b"), 4);  // unknown metrics are appended
  const telemetry::MetricSample* h = merged.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->buckets[0], 1);
  EXPECT_EQ(h->buckets[1], 1);
  EXPECT_EQ(h->count, 2);
}

TEST(Snapshot, JsonDumpRoundTripsThroughStrictParser) {
  Registry reg;
  reg.counter("engine.launches").add(12);
  reg.gauge("time.modeled_seconds").set(0.125);
  reg.histogram("cells", std::vector<double>{10.0}).observe(3.0);
  std::ostringstream os;
  reg.snapshot().write_json(os);

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(os.str(), &doc, &err)) << err;
  const json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* launches = metrics->find("engine.launches");
  ASSERT_NE(launches, nullptr);
  EXPECT_DOUBLE_EQ(launches->as_number(), 12.0);
  const json::Value* hist = metrics->find("cells");
  ASSERT_NE(hist, nullptr);
  ASSERT_TRUE(hist->is_object());
  EXPECT_NE(hist->find("buckets"), nullptr);
}

// ------------------------------------------------------------ json parser

TEST(Json, ParsesScalarsAndStructure) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(R"({"a": [1, 2.5, -3e2], "b": {"c": true},
                              "d": null, "e": "s"})",
                          &v, &err))
      << err;
  EXPECT_DOUBLE_EQ(v.find("a")->as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(v.find("b")->find("c")->as_bool());
  EXPECT_TRUE(v.find("d")->is_null());
  EXPECT_EQ(v.find("e")->as_string(), "s");
}

TEST(Json, DecodesEscapesAndSurrogatePairs) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(R"("tab\t quote\" é 😀")", &v, &err))
      << err;
  EXPECT_EQ(v.as_string(), "tab\t quote\" \xC3\xA9 \xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                    // empty
      "{\"a\": 1,}",         // trailing comma
      "[1, 2] garbage",      // trailing garbage
      "{'a': 1}",            // wrong quotes
      "{\"a\": 01}",         // leading zero
      "{\"a\": NaN}",        // non-finite
      "\"unterminated",      //
      "\"bad \\x escape\"",  //
      "\"ctrl \x01 char\"",  // raw control character
      "{\"a\" 1}",           // missing colon
      "\"lone \\ud83d surrogate\"",
  };
  for (const char* text : bad) {
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse(text, &v, &err)) << "accepted: " << text;
    EXPECT_FALSE(err.empty());
  }
}

TEST(Json, WriterRoundTripPreservesValues) {
  json::Value obj{json::Value::Object{}};
  obj.set("int", json::Value(static_cast<long long>(123456789012345)));
  obj.set("neg", json::Value(-0.25));
  obj.set("s", json::Value("a\"b\nc"));
  json::Value arr{json::Value::Array{}};
  arr.push_back(json::Value(true));
  arr.push_back(json::Value(nullptr));
  obj.set("arr", std::move(arr));

  for (int indent : {0, 2}) {
    json::Value back;
    std::string err;
    ASSERT_TRUE(json::parse(json::to_string(obj, indent), &back, &err)) << err;
    EXPECT_DOUBLE_EQ(back.find("int")->as_number(), 123456789012345.0);
    EXPECT_DOUBLE_EQ(back.find("neg")->as_number(), -0.25);
    EXPECT_EQ(back.find("s")->as_string(), "a\"b\nc");
    EXPECT_TRUE(back.find("arr")->as_array()[0].as_bool());
  }
}

// -------------------------------------------------------- perfetto export

TEST(Perfetto, GoldenSingleRecorderDocument) {
  trace::Recorder rec;
  rec.enable(true);
  rec.record(0.001, 0.002, trace::Lane::Kernel, "advect");
  std::ostringstream os;
  telemetry::write_perfetto_json(os, rec, /*pid=*/0, "rank 0");
  EXPECT_EQ(os.str(),
            "{\n"
            " \"traceEvents\": [\n"
            "  {\n"
            "   \"ph\": \"M\",\n"
            "   \"pid\": 0,\n"
            "   \"name\": \"process_name\",\n"
            "   \"args\": {\n"
            "    \"name\": \"rank 0\"\n"
            "   }\n"
            "  },\n"
            "  {\n"
            "   \"ph\": \"M\",\n"
            "   \"pid\": 0,\n"
            "   \"name\": \"process_sort_index\",\n"
            "   \"args\": {\n"
            "    \"sort_index\": 0\n"
            "   }\n"
            "  },\n"
            "  {\n"
            "   \"ph\": \"M\",\n"
            "   \"pid\": 0,\n"
            "   \"tid\": 0,\n"
            "   \"name\": \"thread_name\",\n"
            "   \"args\": {\n"
            "    \"name\": \"kernels\"\n"
            "   }\n"
            "  },\n"
            "  {\n"
            "   \"ph\": \"M\",\n"
            "   \"pid\": 0,\n"
            "   \"tid\": 0,\n"
            "   \"name\": \"thread_sort_index\",\n"
            "   \"args\": {\n"
            "    \"sort_index\": 0\n"
            "   }\n"
            "  },\n"
            "  {\n"
            "   \"ph\": \"X\",\n"
            "   \"pid\": 0,\n"
            "   \"tid\": 0,\n"
            "   \"ts\": 1000,\n"
            "   \"dur\": 1000,\n"
            "   \"name\": \"advect\",\n"
            "   \"cat\": \"kernels\"\n"
            "  }\n"
            " ],\n"
            " \"displayTimeUnit\": \"ms\"\n"
            "}\n");
}

TEST(Perfetto, RankToPidMappingAndRoundTrip) {
  trace::Recorder r0, r1;
  r0.enable(true);
  r1.enable(true);
  r0.record(0.0, 1.0, trace::Lane::Kernel, "k0");
  r1.record(0.0, 1.0, trace::Lane::Transfer, "t1");
  r1.push_range(0.0, "step");
  r1.push_range(0.25, "pcg");
  r1.pop_range(0.5);
  r1.pop_range(1.0);
  const telemetry::TraceSource sources[] = {
      {0, "rank 0", &r0},
      {1, "rank 1", &r1},
  };
  std::ostringstream os;
  telemetry::write_perfetto_json(os, sources);

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(os.str(), &doc, &err)) << err;
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  int k0_pid = -1, t1_pid = -1, range_events = 0;
  double nested_ts = -1.0;
  for (const json::Value& ev : events->as_array()) {
    const json::Value* ph = ev.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const std::string& name = ev.find("name")->as_string();
    if (name == "k0") k0_pid = static_cast<int>(ev.find("pid")->as_number());
    if (name == "t1") t1_pid = static_cast<int>(ev.find("pid")->as_number());
    if (ev.find("cat")->as_string() == "ranges") {
      ++range_events;
      if (name == "step/pcg") {
        nested_ts = ev.find("ts")->as_number();
        EXPECT_DOUBLE_EQ(ev.find("args")->find("depth")->as_number(), 1.0);
      }
    }
  }
  EXPECT_EQ(k0_pid, 0);
  EXPECT_EQ(t1_pid, 1);
  EXPECT_EQ(range_events, 2);
  EXPECT_DOUBLE_EQ(nested_ts, 0.25 * 1e6);  // modeled seconds -> µs
}

TEST(Perfetto, EmitsThreadMetadataOnlyForUsedLanes) {
  trace::Recorder rec;
  rec.enable(true);
  rec.record(0.0, 1.0, trace::Lane::MpiWait, "wait");
  std::ostringstream os;
  telemetry::write_perfetto_json(os, rec);
  const std::string out = os.str();
  EXPECT_NE(out.find("mpi-wait"), std::string::npos);
  EXPECT_EQ(out.find("um-migration"), std::string::npos);
}

// ------------------------------------------------------- ranges + profiler

TEST(Ranges, ScopesNestThroughEngineModeledTime) {
  par::EngineConfig cfg;
  cfg.gpu = true;
  cfg.host_threads = 1;
  par::Engine eng(cfg);
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const par::KernelSite& site =
      SIMAS_SITE("test_range_kernel", par::SiteKind::ParallelLoop, 0);
  eng.tracer().enable(true);
  {
    telemetry::RangeScope outer(eng, "outer");
    eng.for_each(site, par::Range3{0, 8, 0, 8, 0, 8}, {par::out(id)},
                 [](idx, idx, idx) {});
    {
      SIMAS_RANGE(eng, "inner");
      eng.for_each(site, par::Range3{0, 8, 0, 8, 0, 8}, {par::out(id)},
                   [](idx, idx, idx) {});
    }
  }
  std::vector<const trace::Event*> ranges;
  for (const trace::Event& e : eng.tracer().events())
    if (e.lane == trace::Lane::Range) ranges.push_back(&e);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0]->name, "outer/inner");
  EXPECT_EQ(ranges[0]->depth, 1);
  EXPECT_EQ(ranges[1]->name, "outer");
  EXPECT_EQ(ranges[1]->depth, 0);
  // The outer range brackets both kernels in modeled time.
  EXPECT_LE(ranges[1]->t0, ranges[0]->t0);
  EXPECT_GE(ranges[1]->t1, ranges[0]->t1);
  EXPECT_DOUBLE_EQ(ranges[1]->t1, eng.ledger().now());
}

TEST(Profiler, AggregatesPerSiteAndRanks) {
  const par::KernelSite& sa =
      SIMAS_SITE("test_prof_a", par::SiteKind::ParallelLoop, 0);
  const par::KernelSite& sb =
      SIMAS_SITE("test_prof_b", par::SiteKind::ScalarReduction, 0);
  telemetry::SiteProfiler prof;
  prof.record(sa, 0.5, 100, 800, /*fused=*/false, /*reduction=*/false);
  prof.record(sa, 0.25, 100, 800, /*fused=*/true, /*reduction=*/false);
  prof.record(sb, 2.0, 50, 400, /*fused=*/false, /*reduction=*/true);

  telemetry::SiteProfileSnapshot snap = prof.snapshot();
  ASSERT_EQ(snap.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.total_seconds(), 2.75);

  const auto top = snap.top_by_seconds(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].name, "test_prof_b");
  EXPECT_EQ(top[0].kind, "scalar_reduction");

  // Merging another rank's identical profile doubles every column.
  telemetry::SiteProfileSnapshot other = prof.snapshot();
  snap.merge_from(other);
  EXPECT_DOUBLE_EQ(snap.total_seconds(), 5.5);
  const auto by_launches = snap.top_by_launches(2);
  ASSERT_EQ(by_launches.size(), 2u);
  EXPECT_EQ(by_launches[0].name, "test_prof_a");  // 2 launches + 2 fused
  EXPECT_EQ(by_launches[0].launches, 2);
  EXPECT_EQ(by_launches[0].fused, 2);
  EXPECT_EQ(by_launches[1].reductions, 2);

  std::ostringstream os;
  snap.write_json(os);
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(os.str(), &doc, &err)) << err;
  ASSERT_TRUE(doc.is_array());
  EXPECT_EQ(doc.as_array()[0].find("site")->as_string(), "test_prof_b");
}

TEST(Engine, CountersViewMatchesRegistryAndProfilerSeesLaunches) {
  par::EngineConfig cfg;
  cfg.gpu = true;
  cfg.host_threads = 1;
  par::Engine eng(cfg);
  const auto id = eng.memory().register_array("a", 1 << 20);
  static const par::KernelSite& site =
      SIMAS_SITE("test_metrics_kernel", par::SiteKind::ParallelLoop, 0);
  for (int i = 0; i < 3; ++i)
    eng.for_each(site, par::Range3{0, 8, 0, 8, 0, 8}, {par::out(id)},
                 [](idx, idx, idx) {});

  const par::EngineCounters c = eng.counters();
  EXPECT_EQ(c.loops_executed, 3);
  const telemetry::MetricsSnapshot snap = eng.metrics_snapshot();
  EXPECT_EQ(snap.counter("engine.loops"), 3);
  EXPECT_EQ(snap.counter("engine.launches"), c.kernel_launches);
  EXPECT_EQ(snap.counter("engine.bytes_touched"), c.bytes_touched);
  EXPECT_GT(snap.counter("pool.inline_kernels") + snap.counter("pool.jobs"),
            0);
  EXPECT_DOUBLE_EQ(snap.gauge("time.modeled_seconds"), eng.ledger().now());
  const telemetry::MetricSample* hist = snap.find("engine.kernel_cells");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3);

  const telemetry::SiteProfileSnapshot prof = eng.site_profiler().snapshot();
  double site_seconds = 0.0;
  for (const auto& row : prof.rows)
    if (row.name == "test_metrics_kernel") {
      EXPECT_EQ(row.launches, 3);
      EXPECT_EQ(row.cells, 3 * 8 * 8 * 8);
      site_seconds = row.seconds;
    }
  EXPECT_GT(site_seconds, 0.0);
}

// ----------------------------------------------------------- perf compare

TEST(PerfCompare, GlobMatchSemantics) {
  using telemetry::glob_match;
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("points[*].wall", "points[12].wall"));
  EXPECT_TRUE(glob_match("*host_seconds*", "ranks[0].host_seconds_per_step"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_FALSE(glob_match("counters.*", "metrics.counters"));
  EXPECT_TRUE(glob_match("*.b.*", "a.b.c"));
}

TEST(PerfCompare, FlattenProducesDottedAndIndexedPaths) {
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(
      R"({"a": 1, "nested": {"b": 2.5}, "arr": [{"c": 3}, 4],
          "skip_me": "string", "flag": true})",
      &doc, &err))
      << err;
  const auto leaves = telemetry::flatten_numeric(doc);
  ASSERT_EQ(leaves.size(), 4u);
  EXPECT_EQ(leaves[0].first, "a");
  EXPECT_EQ(leaves[1].first, "nested.b");
  EXPECT_EQ(leaves[2].first, "arr[0].c");
  EXPECT_EQ(leaves[3].first, "arr[1]");
  EXPECT_DOUBLE_EQ(leaves[3].second, 4.0);
}

telemetry::Comparison compare_docs(const std::string& base,
                                   const std::string& cur,
                                   const std::string& rules_json = "") {
  json::Value b, c;
  std::string err;
  EXPECT_TRUE(json::parse(base, &b, &err)) << err;
  EXPECT_TRUE(json::parse(cur, &c, &err)) << err;
  std::vector<telemetry::ToleranceRule> rules;
  if (!rules_json.empty()) {
    json::Value spec;
    EXPECT_TRUE(json::parse(rules_json, &spec, &err)) << err;
    rules = telemetry::parse_rules(spec, &err);
    EXPECT_TRUE(err.empty()) << err;
  }
  return telemetry::compare(b, c, rules);
}

TEST(PerfCompare, ExactMatchPassesAndPerturbationFails) {
  const std::string base = R"({"wall": 10.0, "launches": 100})";
  EXPECT_TRUE(compare_docs(base, base).ok());

  const auto perturbed =
      compare_docs(base, R"({"wall": 10.5, "launches": 100})");
  EXPECT_FALSE(perturbed.ok());
  EXPECT_EQ(perturbed.failures, 1u);
}

TEST(PerfCompare, ToleranceRulesFirstMatchWins) {
  const std::string base = R"({"wall": 10.0, "host": 5.0})";
  const std::string cur = R"({"wall": 10.5, "host": 50.0})";
  // host is skipped; wall gets 10% relative tolerance.
  const std::string rules = R"({"rules": [
    {"pattern": "host*", "skip": true},
    {"pattern": "*", "rel": 0.10}
  ]})";
  const auto cmp = compare_docs(base, cur, rules);
  EXPECT_TRUE(cmp.ok());
  // Tighten the wall tolerance below the 5% drift: now it must fail.
  const auto tight = compare_docs(base, cur, R"({"rules": [
    {"pattern": "host*", "skip": true},
    {"pattern": "*", "rel": 0.01}
  ]})");
  EXPECT_FALSE(tight.ok());
}

TEST(PerfCompare, MissingMetricFailsNewMetricDoesNot) {
  const auto missing = compare_docs(R"({"a": 1, "b": 2})", R"({"a": 1})");
  EXPECT_FALSE(missing.ok());
  const auto added = compare_docs(R"({"a": 1})", R"({"a": 1, "b": 2})");
  EXPECT_TRUE(added.ok());
}

TEST(PerfCompare, ParseRulesRejectsUnknownKeys) {
  for (const std::string member :
       {R"("tolerance": 0.1)", R"("direction": "both")", R"("abs": 0.1)"}) {
    json::Value spec;
    std::string err;
    ASSERT_TRUE(json::parse(R"({"rules": [{"pattern": "*", )" + member +
                                "}]}",
                            &spec, &err))
        << err;
    EXPECT_TRUE(telemetry::parse_rules(spec, &err).empty()) << member;
    EXPECT_FALSE(err.empty()) << member;
  }
}

}  // namespace
}  // namespace simas
