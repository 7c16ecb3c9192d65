// Unified-memory hint tests: the MemHintOp stream-IR plumbing (kind /
// site / signature), engine-level gating (hints are not even recorded
// outside Unified-on-GPU), the static verifier's hint-correctness rules
// on seeded streams (a wrong-span prefetch and a use-after-evict both
// surface as warnings), the preferred-host suppression that keeps honest
// zero-copy staging quiet, and the randomized differential property that
// um_hints never changes physics.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "analysis/diagnostics.hpp"
#include "analysis/stream_capture.hpp"
#include "field/field.hpp"
#include "par/engine.hpp"
#include "run/run_experiment.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

using analysis::Check;
using analysis::ValidationReport;
using par::MemHint;
using par::SiteKind;

par::EngineConfig unified_config() {
  par::EngineConfig cfg;
  cfg.memory = gpusim::MemoryMode::Unified;
  cfg.validate = true;
  cfg.capture_stream = true;
  cfg.host_threads = 1;
  return cfg;
}

i64 fbytes(const field::Field& f) {
  return f.engine().memory().record(f.id()).bytes;
}

void scrub(par::Engine& eng) {
  eng.device_sync();
  (void)eng.take_validation_report();
}

/// Stream ops recorded in the engine's capture so far.
i64 captured_ops(par::Engine& eng) {
  i64 n = 0;
  for (const par::StreamEvent& ev : eng.stream_capture()->events())
    n += std::holds_alternative<par::StreamOp>(ev) ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------
// 1. Stream-IR plumbing: hint ops are first-class ops with their own
//    identity in signatures.

par::StreamOp hint_op(gpusim::ArrayId id, MemHint h, par::Span span,
                      i64 bytes) {
  par::MemHintOp op;
  op.id = id;
  op.hint = h;
  op.span = span;
  op.bytes = bytes;
  return par::StreamOp{op};
}

TEST(MemHintOps, KindSiteCellsAndSignature) {
  const par::StreamOp a =
      hint_op(3, MemHint::PrefetchToDevice, par::Span::Full, 4096);
  EXPECT_EQ(par::op_kind(a), par::OpKind::MemHint);
  EXPECT_EQ(par::op_site(a), nullptr);  // emitted without a kernel site
  EXPECT_EQ(par::op_cells(a), 0);       // hints have no iteration space

  // Signature equality covers (array, hint, span, bytes): two hints at
  // the same (null) site are still different ops if any differ.
  EXPECT_TRUE(par::same_signature(
      a, hint_op(3, MemHint::PrefetchToDevice, par::Span::Full, 4096)));
  EXPECT_FALSE(par::same_signature(
      a, hint_op(4, MemHint::PrefetchToDevice, par::Span::Full, 4096)));
  EXPECT_FALSE(par::same_signature(
      a, hint_op(3, MemHint::PrefetchToHost, par::Span::Full, 4096)));
  EXPECT_FALSE(par::same_signature(
      a, hint_op(3, MemHint::PrefetchToDevice, par::Span::GhostLo, 4096)));
  EXPECT_FALSE(par::same_signature(
      a, hint_op(3, MemHint::PrefetchToDevice, par::Span::Full, 8192)));
}

// ---------------------------------------------------------------------
// 2. Engine gating: hints are UM-on-GPU-only. Under Manual memory or on
//    a host engine they are not recorded, not costed, not anything.

TEST(MemHintOps, ManualMemoryEngineRecordsNoHints) {
  par::EngineConfig cfg = unified_config();
  cfg.memory = gpusim::MemoryMode::Manual;
  par::Engine eng(cfg);
  field::Field f(eng, "uh_manual", 4, 4, 4);
  const i64 before = captured_ops(eng);
  eng.mem_prefetch(f.id(), fbytes(f));
  eng.mem_advise(f.id(), MemHint::AdvisePreferredHost);
  EXPECT_EQ(captured_ops(eng), before);
  scrub(eng);
}

TEST(MemHintOps, HostEngineRecordsNoHints) {
  par::EngineConfig cfg = unified_config();
  cfg.gpu = false;
  par::Engine eng(cfg);
  field::Field f(eng, "uh_host", 4, 4, 4);
  const i64 before = captured_ops(eng);
  eng.mem_prefetch(f.id(), fbytes(f));
  EXPECT_EQ(captured_ops(eng), before);
  scrub(eng);
}

TEST(MemHintOps, UnifiedGpuEngineRecordsAndCostsHints) {
  par::Engine eng(unified_config());
  field::Field f(eng, "uh_um", 4, 4, 4);
  const i64 before = captured_ops(eng);
  eng.mem_prefetch(f.id(), fbytes(f));
  eng.mem_advise(f.id(), MemHint::AdviseReadMostly);
  EXPECT_EQ(captured_ops(eng), before + 2);
  const auto& um = eng.memory().um_stats();
  EXPECT_EQ(um.prefetches, 1);
  EXPECT_EQ(um.advises, 1);
  EXPECT_EQ(um.prefetch_bytes, fbytes(f));
  scrub(eng);
}

// ---------------------------------------------------------------------
// 3. Seeded hint hazards: the static verifier flags a prefetch whose
//    declared span does not cover the next device access, and a device
//    access after the array was prefetched host-ward. Both are Warning
//    severity (performance hazards, not correctness bugs) and neither
//    trips the runtime validator.

TEST(HintVerifier, WrongSpanPrefetchIsFlagged) {
  par::Engine eng(unified_config());
  field::Field f(eng, "uh_span_a", 4, 4, 4, 1);
  // The prefetch declares it covers only the interior, but the next
  // kernel reads the Full span: the ghost columns will demand-fault.
  eng.mem_prefetch(f.id(), fbytes(f), par::Span::Interior);
  static const par::KernelSite& site =
      SIMAS_SITE("uh_span_r", SiteKind::ParallelLoop, 0);
  real sum = 0.0;
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport st = eng.static_verify();
  EXPECT_TRUE(st.has(Check::PrefetchSpanMismatch)) << st.to_string();
  EXPECT_EQ(st.errors(), 0) << st.to_string();  // warning, not error
  const ValidationReport rt = eng.take_validation_report();
  EXPECT_FALSE(rt.has(Check::PrefetchSpanMismatch));
  scrub(eng);
}

TEST(HintVerifier, CoveringPrefetchIsClean) {
  par::Engine eng(unified_config());
  field::Field f(eng, "uh_span_b", 4, 4, 4, 1);
  eng.mem_prefetch(f.id(), fbytes(f), par::Span::Full);
  static const par::KernelSite& site =
      SIMAS_SITE("uh_span_ok", SiteKind::ParallelLoop, 0);
  real sum = 0.0;
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport st = eng.static_verify();
  EXPECT_FALSE(st.has(Check::PrefetchSpanMismatch)) << st.to_string();
  EXPECT_EQ(st.warnings(), 0) << st.to_string();
  (void)eng.take_validation_report();
  scrub(eng);
}

TEST(HintVerifier, UseAfterEvictIsFlagged) {
  par::Engine eng(unified_config());
  field::Field f(eng, "uh_evict_a", 4, 4, 4);
  static const par::KernelSite& w =
      SIMAS_SITE("uh_evict_w", SiteKind::ParallelLoop, 0);
  eng.for_each(w, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  // Evict the array host-ward, then touch it from the device again with
  // no re-prefetch: the whole footprint fault-migrates straight back.
  eng.mem_prefetch(f.id(), fbytes(f), par::Span::Full, /*to_device=*/false);
  static const par::KernelSite& r =
      SIMAS_SITE("uh_evict_r", SiteKind::ParallelLoop, 0);
  real sum = 0.0;
  eng.for_each(r, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport st = eng.static_verify();
  EXPECT_TRUE(st.has(Check::UseAfterEvict)) << st.to_string();
  EXPECT_EQ(st.errors(), 0) << st.to_string();
  (void)eng.take_validation_report();
  scrub(eng);
}

TEST(HintVerifier, PreferredHostSuppressesUseAfterEvict) {
  // The halo staging pattern: buffers advised PreferredHost are *meant*
  // to be device-touched while host-resident (zero-copy remote access),
  // so the use-after-evict rule must stay quiet for them.
  par::Engine eng(unified_config());
  field::Field f(eng, "uh_evict_b", 4, 4, 4);
  eng.mem_advise(f.id(), MemHint::AdvisePreferredHost);
  eng.mem_prefetch(f.id(), fbytes(f), par::Span::Full, /*to_device=*/false);
  static const par::KernelSite& r =
      SIMAS_SITE("uh_evict_ok", SiteKind::ParallelLoop, 0);
  real sum = 0.0;
  eng.for_each(r, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport st = eng.static_verify();
  EXPECT_FALSE(st.has(Check::UseAfterEvict)) << st.to_string();
  (void)eng.take_validation_report();
  scrub(eng);
}

TEST(HintVerifier, RePrefetchClearsTheEvictedState) {
  par::Engine eng(unified_config());
  field::Field f(eng, "uh_evict_c", 4, 4, 4);
  eng.mem_prefetch(f.id(), fbytes(f), par::Span::Full, /*to_device=*/false);
  eng.mem_prefetch(f.id(), fbytes(f), par::Span::Full, /*to_device=*/true);
  static const par::KernelSite& r =
      SIMAS_SITE("uh_evict_re", SiteKind::ParallelLoop, 0);
  real sum = 0.0;
  eng.for_each(r, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport st = eng.static_verify();
  EXPECT_FALSE(st.has(Check::UseAfterEvict)) << st.to_string();
  (void)eng.take_validation_report();
  scrub(eng);
}

// ---------------------------------------------------------------------
// 4. Randomized differential property: um_hints only moves modeled pages
//    and time — the physics of a full solver run is bit-identical with
//    hints off and on, across randomized shapes, rank counts and halo
//    modes.

TEST(HintDifferential, PhysicsBitIdenticalWithAndWithoutHints) {
  std::mt19937 rng(2026);
  const variants::CodeVersion um_versions[] = {
      variants::CodeVersion::ADU, variants::CodeVersion::AD2XU,
      variants::CodeVersion::D2XU};
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    run::ExperimentConfig cfg;
    cfg.version = um_versions[trial % 3];
    cfg.nranks = 1 + static_cast<int>(rng() % 3);
    cfg.grid.nr = 12 + static_cast<int>(rng() % 4);
    cfg.grid.nt = 8 + static_cast<int>(rng() % 4);
    cfg.grid.np = 16;
    cfg.warmup_steps = 1;
    cfg.measure_steps = 1 + static_cast<int>(rng() % 2);
    cfg.overlap_halo = (rng() % 2) == 0;

    cfg.um_hints = false;
    const auto off = run::run_experiment(cfg);
    cfg.um_hints = true;
    const auto on = run::run_experiment(cfg);

    EXPECT_EQ(off.final_diag.total_mass, on.final_diag.total_mass);
    EXPECT_EQ(off.final_diag.kinetic_energy, on.final_diag.kinetic_energy);
    EXPECT_EQ(off.final_diag.magnetic_energy, on.final_diag.magnetic_energy);
    EXPECT_EQ(off.final_diag.thermal_energy, on.final_diag.thermal_energy);
    EXPECT_EQ(off.final_diag.max_div_b, on.final_diag.max_div_b);
    EXPECT_EQ(off.final_diag.max_speed, on.final_diag.max_speed);
    // ...and the hints actually did something: the demand faults of the
    // hint-free run disappear.
    EXPECT_GT(off.metrics.counter("um.faults"), 0);
    EXPECT_GT(on.metrics.counter("um.prefetches"), 0);
    EXPECT_LT(on.metrics.counter("um.faults"),
              off.metrics.counter("um.faults"));
  }
}

}  // namespace
}  // namespace simas
