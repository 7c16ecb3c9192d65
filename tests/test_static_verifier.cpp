// Static kernel-stream verifier tests: the table-driven seeded-bug suite
// (every hazard class planted deliberately, detected both statically and
// at runtime), the differential superset property (on honestly-declared
// streams the static findings cover every runtime finding), span-
// disjointness clean cases, and the verified-stream certificate
// lifecycle (mint -> replay with shadow checks skipped -> integrity
// hash at teardown).

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "field/field.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/decomposition.hpp"
#include "mpisim/halo.hpp"
#include "par/engine.hpp"
#include "par/env_config.hpp"
#include "par/graph_cache.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

using analysis::Check;
using analysis::ValidationReport;
using par::SiteKind;

par::EngineConfig capture_config() {
  par::EngineConfig cfg;  // Acc / Manual / gpu / fusion+async on
  cfg.validate = true;
  cfg.capture_stream = true;
  cfg.host_threads = 1;
  return cfg;
}

// Leave the engine clean and fully drained so destruction never trips the
// fatal path when CI forces SIMAS_VALIDATE_FATAL=1.
void scrub(par::Engine& eng, std::initializer_list<field::Field*> fields) {
  eng.device_sync();
  for (field::Field* f : fields) f->exit_data();
  (void)eng.take_validation_report();
}

/// Both analyses' findings over one seeded stream.
struct Reports {
  ValidationReport runtime;
  ValidationReport statics;
};

/// The differential property the analyzer is designed around: the static
/// pass trusts declarations and flags conservatively, so on an honestly-
/// declared stream every runtime finding must also be found statically.
/// (UndeclaredAccess / DeclaredWriteNotTouched need observed element
/// touches and are runtime-only by design — the seeded streams declare
/// honestly, so they must not appear at all.)
void expect_static_superset(const Reports& r) {
  for (const analysis::Diagnostic& d : r.runtime.diagnostics) {
    EXPECT_NE(d.check, Check::UndeclaredAccess)
        << "seeded stream must declare honestly: " << d.to_string();
    EXPECT_NE(d.check, Check::DeclaredWriteNotTouched)
        << "seeded stream must declare honestly: " << d.to_string();
    if (d.check == Check::UndeclaredAccess ||
        d.check == Check::DeclaredWriteNotTouched)
      continue;
    EXPECT_TRUE(r.statics.has(d.check))
        << "runtime finding missing from static report: " << d.to_string()
        << "\nstatic report:\n"
        << r.statics.to_string();
  }
}

// ---------------------------------------------------------------------
// 1. Table-driven seeded-bug suite. Each entry plants one hazard class;
//    both the runtime validator (element-exact) and the static verifier
//    (declaration-driven, zero kernels executed) must flag it.

// Bug 1: duplicate write — every iteration of a plain parallel loop hits
// element (0,0,0), declared honestly as a scatter write. Illegal DC.
Reports seed_duplicate_write() {
  par::Engine eng(capture_config());
  field::Field f(eng, "sv_dup_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("sv_dup_w", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
               {par::out_scatter(f.id())}, [&](idx i, idx j, idx k) {
                 f(0, 0, 0) = static_cast<real>(i + j + k);
               });
  Reports r;
  r.runtime = eng.take_validation_report();
  r.statics = eng.static_verify();
  scrub(eng, {&f});
  return r;
}

// Bug 2: two kernels share a fusion group and both pure-write every
// element of the same array — the merged launch would race.
Reports seed_fused_conflict() {
  par::Engine eng(capture_config());
  field::Field f(eng, "sv_fuse_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& s1 =
      SIMAS_SITE("sv_fuse_w1", SiteKind::ParallelLoop, 91);
  static const par::KernelSite& s2 =
      SIMAS_SITE("sv_fuse_w2", SiteKind::ParallelLoop, 91);
  const par::Range3 r3{0, 4, 0, 4, 0, 4};
  eng.for_each(s1, r3, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  eng.for_each(s2, r3, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 2.0; });
  Reports r;
  r.runtime = eng.take_validation_report();
  r.statics = eng.static_verify();
  scrub(eng, {&f});
  return r;
}

// Bug 3: host pulls an array while device writes are still in flight on
// the async queue — no device_sync before the copyout.
Reports seed_copyout_without_sync() {
  par::Engine eng(capture_config());
  field::Field f(eng, "sv_sync_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("sv_sync_w", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  f.update_host();  // missing eng.device_sync()
  Reports r;
  r.runtime = eng.take_validation_report();
  r.statics = eng.static_verify();
  scrub(eng, {&f});
  return r;
}

// Bug 4: a kernel whose declared (and actual) radial footprint covers the
// ghost columns of an unfinished overlapped exchange.
Reports seed_inflight_ghost_read() {
  Reports r;
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig cfg = capture_config();
    cfg.overlap_halo = true;
    par::Engine eng(cfg);
    mpisim::Comm comm(world, rank, eng);
    const mpisim::Slab slab = mpisim::radial_slab(8, 2, rank);
    const idx n = slab.n();
    mpisim::HaloExchanger halo(eng, comm, slab, n, 4, 4);
    field::Field f(eng, "sv_ghost_a", n, 4, 4, 1);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_ghost_r", SiteKind::ParallelLoop, 0);
    const int h = halo.begin_exchange_r({&f});
    real sum = 0.0;
    eng.for_each(site, par::Range3{0, n, 0, 4, 0, 4}, {par::in(f.id())},
                 [&](idx i, idx j, idx k) {
                   sum += f(i - 1, j, k) + f(i + 1, j, k);
                 });
    halo.finish_exchange_r(h);
    if (rank == 0) {
      r.runtime = eng.take_validation_report();
      r.statics = eng.static_verify();
    }
    scrub(eng, {&f});
  });
  return r;
}

struct SeededBug {
  const char* name;
  Check expected;
  std::function<Reports()> run;
};

TEST(SeededBugs, StaticAndRuntimeBothDetectEveryPattern) {
  const std::vector<SeededBug> table = {
      {"duplicate_write", Check::DuplicateWrite, seed_duplicate_write},
      {"fused_conflict", Check::FusedConflict, seed_fused_conflict},
      {"copyout_without_sync", Check::AsyncHostAccessNoSync,
       seed_copyout_without_sync},
      {"inflight_ghost_read", Check::InflightGhostRead,
       seed_inflight_ghost_read},
  };
  for (const SeededBug& bug : table) {
    SCOPED_TRACE(bug.name);
    const Reports r = bug.run();
    EXPECT_TRUE(r.runtime.has(bug.expected))
        << "runtime missed it:\n" << r.runtime.to_string();
    EXPECT_TRUE(r.statics.has(bug.expected))
        << "static missed it:\n" << r.statics.to_string();
    EXPECT_GT(r.statics.errors(), 0);
    expect_static_superset(r);
    // The static diagnostic must carry SiteTable provenance (file:line of
    // the registering SIMAS_SITE) so the lint report is actionable.
    const analysis::Diagnostic* d = r.statics.find(bug.expected);
    ASSERT_NE(d, nullptr);
    if (bug.expected != Check::AsyncHostAccessNoSync)  // data-API event
      EXPECT_NE(d->location.find(':'), std::string::npos) << d->to_string();
  }
}

// ---------------------------------------------------------------------
// 2. Span semantics: disjoint declared spans are clean; over-declared
//    spans are flagged conservatively (static strictly ⊇ runtime).

TEST(Spans, DisjointGhostWritesInOneFusionGroupAreClean) {
  // The real group-12 pattern: the inner-wall kernel writes the low ghost,
  // the outer-wall kernel the high ghost. Same fusion group, no overlap.
  par::Engine eng(capture_config());
  field::Field f(eng, "sv_span_a", 4, 4, 4, 1);
  f.enter_data();
  static const par::KernelSite& lo =
      SIMAS_SITE("sv_span_lo", SiteKind::ParallelLoop, 92);
  static const par::KernelSite& hi =
      SIMAS_SITE("sv_span_hi", SiteKind::ParallelLoop, 92);
  const par::Range3 r3{0, 4, 0, 4, 0, 1};
  eng.for_each(lo, r3, {par::out_ghost_lo(f.id())},
               [&](idx j, idx k, idx) { f(-1, j, k) = 1.0; });
  eng.for_each(hi, r3, {par::out_ghost_hi(f.id())},
               [&](idx j, idx k, idx) { f(4, j, k) = 2.0; });
  const Reports r{eng.take_validation_report(), eng.static_verify()};
  EXPECT_FALSE(r.statics.has(Check::FusedConflict)) << r.statics.to_string();
  EXPECT_FALSE(r.runtime.has(Check::FusedConflict)) << r.runtime.to_string();
  EXPECT_EQ(r.statics.errors(), 0) << r.statics.to_string();
  scrub(eng, {&f});
}

TEST(Spans, InteriorReadDuringOverlapWindowIsClean) {
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig cfg = capture_config();
    cfg.overlap_halo = true;
    par::Engine eng(cfg);
    mpisim::Comm comm(world, rank, eng);
    const mpisim::Slab slab = mpisim::radial_slab(8, 2, rank);
    const idx n = slab.n();
    mpisim::HaloExchanger halo(eng, comm, slab, n, 4, 4);
    field::Field f(eng, "sv_span_b", n, 4, 4, 1);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_span_int", SiteKind::ParallelLoop, 0);
    const int h = halo.begin_exchange_r({&f});
    real sum = 0.0;
    // Pointwise read over owned planes, declared Interior: never touches
    // the in-flight ghosts, statically provable from the span alone.
    eng.for_each(site, par::Range3{0, n, 0, 4, 0, 4},
                 {par::in_interior(f.id())},
                 [&](idx i, idx j, idx k) { sum += f(i, j, k); });
    halo.finish_exchange_r(h);
    const Reports r{eng.take_validation_report(), eng.static_verify()};
    EXPECT_FALSE(r.statics.has(Check::InflightGhostRead))
        << r.statics.to_string();
    EXPECT_EQ(r.statics.errors(), 0) << r.statics.to_string();
    EXPECT_EQ(r.runtime.errors(), 0) << r.runtime.to_string();
    scrub(eng, {&f});
  });
}

TEST(Spans, OverdeclaredFullSpanIsFlaggedOnlyStatically) {
  // The body reads owned planes only, but the declaration says Full: the
  // static pass trusts the declaration and flags conservatively, while
  // the element-exact runtime validator stays quiet. Static ⊇ runtime,
  // strictly here.
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig cfg = capture_config();
    cfg.overlap_halo = true;
    par::Engine eng(cfg);
    mpisim::Comm comm(world, rank, eng);
    const mpisim::Slab slab = mpisim::radial_slab(8, 2, rank);
    const idx n = slab.n();
    mpisim::HaloExchanger halo(eng, comm, slab, n, 4, 4);
    field::Field f(eng, "sv_span_c", n, 4, 4, 1);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_span_over", SiteKind::ParallelLoop, 0);
    const int h = halo.begin_exchange_r({&f});
    real sum = 0.0;
    eng.for_each(site, par::Range3{0, n, 0, 4, 0, 4}, {par::in(f.id())},
                 [&](idx i, idx j, idx k) { sum += f(i, j, k); });
    halo.finish_exchange_r(h);
    const Reports r{eng.take_validation_report(), eng.static_verify()};
    EXPECT_TRUE(r.statics.has(Check::InflightGhostRead))
        << r.statics.to_string();
    EXPECT_FALSE(r.runtime.has(Check::InflightGhostRead))
        << r.runtime.to_string();
    scrub(eng, {&f});
  });
}

// ---------------------------------------------------------------------
// 3. Real solver streams: the production op stream (overlapped exchange
//    included) must verify statically clean — the same property the
//    simas_lint CLI sweeps across every version x backend in CI.

TEST(RealStream, OverlappedSolverStreamVerifiesClean) {
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig ecfg = variants::engine_config(
        variants::CodeVersion::A, gpusim::a100_40gb(), 2);
    ecfg.validate = true;
    ecfg.capture_stream = true;
    ecfg.overlap_halo = true;
    par::Engine engine(ecfg);
    mpisim::Comm comm(world, rank, engine);
    {
      mhd::SolverConfig scfg;
      scfg.grid.nr = 14;
      scfg.grid.nt = 10;
      scfg.grid.np = 16;
      mhd::MasSolver solver(engine, comm, scfg);
      solver.initialize();
      solver.run(2);
    }
    const ValidationReport st = engine.static_verify();
    EXPECT_EQ(st.errors(), 0) << st.to_string();
    EXPECT_GT(st.ops_checked, 0);
    const ValidationReport rt = engine.take_validation_report();
    EXPECT_EQ(rt.errors(), 0) << rt.to_string();
  });
}

// ---------------------------------------------------------------------
// 4. Certificate lifecycle: validate + capture on first run, mint when
//    both analyses come back clean, skip shadow checks on replay, match
//    the integrity hash at teardown.

par::EngineConfig certify_config(par::GraphCache* cache,
                                 const std::string& scope) {
  par::EngineConfig cfg;
  cfg.certify = true;
  cfg.graph_cache = cache;
  cfg.graph_cache_scope = scope;
  cfg.host_threads = 1;
  return cfg;
}

void run_clean_stream(par::Engine& eng, const std::string& field_name) {
  field::Field f(eng, field_name, 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("sv_cert_k", SiteKind::ParallelLoop, 0);
  for (int n = 0; n < 3; ++n) {
    eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
                 [&](idx i, idx j, idx k) { f(i, j, k) = real(n); });
  }
  eng.device_sync();
  f.exit_data();
}

TEST(Certificates, CleanFirstRunMintsAndReplaySkipsShadowChecks) {
  if (par::EnvConfig::process().validate_fatal)
    GTEST_SKIP() << "SIMAS_VALIDATE_FATAL disables certification";
  par::GraphCache cache;
  const std::string scope = "sv_cert_scope/r0";

  // First run: no certificate yet -> certify forces validate + capture.
  {
    par::Engine eng(certify_config(&cache, scope));
    EXPECT_FALSE(eng.certified());
    EXPECT_NE(eng.validator(), nullptr);
    EXPECT_NE(eng.stream_capture(), nullptr);
    run_clean_stream(eng, "sv_cert_a");
    const ValidationReport rep = eng.take_validation_report();
    EXPECT_EQ(rep.errors(), 0) << rep.to_string();
  }
  EXPECT_EQ(cache.stats().cert_publishes, 1);
  EXPECT_NE(cache.find_certificate(scope), nullptr);

  // Replay: certificate found -> no validator, no capture; the live
  // integrity hash over the identical stream matches at teardown.
  {
    par::Engine eng(certify_config(&cache, scope));
    EXPECT_TRUE(eng.certified());
    EXPECT_EQ(eng.validator(), nullptr);
    EXPECT_EQ(eng.stream_capture(), nullptr);
    run_clean_stream(eng, "sv_cert_b");
    EXPECT_TRUE(eng.certified_stream_matches());
  }
  EXPECT_GE(cache.stats().cert_hits, 1);
}

TEST(Certificates, DirtyStreamMintsNothing) {
  if (par::EnvConfig::process().validate_fatal)
    GTEST_SKIP() << "SIMAS_VALIDATE_FATAL disables certification";
  par::GraphCache cache;
  const std::string scope = "sv_cert_dirty/r0";
  {
    par::Engine eng(certify_config(&cache, scope));
    field::Field f(eng, "sv_cert_c", 4, 4, 4);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_cert_dup", SiteKind::ParallelLoop, 0);
    eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
                 {par::out_scatter(f.id())}, [&](idx i, idx j, idx k) {
                   f(0, 0, 0) = static_cast<real>(i + j + k);
                 });
    const ValidationReport rep = eng.take_validation_report();
    EXPECT_GT(rep.errors(), 0);
    scrub(eng, {&f});
  }
  EXPECT_EQ(cache.stats().cert_publishes, 0);
  EXPECT_EQ(cache.find_certificate(scope), nullptr);
  // A later run of the same scope still validates.
  par::Engine eng(certify_config(&cache, scope));
  EXPECT_FALSE(eng.certified());
  EXPECT_NE(eng.validator(), nullptr);
  (void)eng.take_validation_report();
}

TEST(Certificates, DivergentReplayStreamFailsTheIntegrityHash) {
  if (par::EnvConfig::process().validate_fatal)
    GTEST_SKIP() << "SIMAS_VALIDATE_FATAL disables certification";
  par::GraphCache cache;
  const std::string scope = "sv_cert_div/r0";
  {
    par::Engine eng(certify_config(&cache, scope));
    run_clean_stream(eng, "sv_cert_d");
    (void)eng.take_validation_report();
  }
  ASSERT_NE(cache.find_certificate(scope), nullptr);
  par::Engine eng(certify_config(&cache, scope));
  ASSERT_TRUE(eng.certified());
  // A different stream under the same scope (the shape-key collision the
  // teardown check exists to catch): one extra kernel.
  run_clean_stream(eng, "sv_cert_e");
  field::Field f(eng, "sv_cert_f", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& extra =
      SIMAS_SITE("sv_cert_extra", SiteKind::ParallelLoop, 0);
  eng.for_each(extra, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 9.0; });
  EXPECT_FALSE(eng.certified_stream_matches());
  eng.device_sync();
  f.exit_data();
}

TEST(Certificates, PublishRefusesUncleanOrUnscopedCertificates) {
  par::GraphCache cache;
  par::StreamCertificate cert;
  cert.scope = "";
  cert.runtime_clean = true;
  cert.static_clean = true;
  EXPECT_FALSE(cache.publish_certificate(cert));
  cert.scope = "sv_pub/r0";
  cert.runtime_clean = false;
  EXPECT_FALSE(cache.publish_certificate(cert));
  cert.runtime_clean = true;
  cert.static_clean = false;
  EXPECT_FALSE(cache.publish_certificate(cert));
  cert.static_clean = true;
  EXPECT_TRUE(cache.publish_certificate(cert));
  EXPECT_FALSE(cache.publish_certificate(cert));  // first-wins
  EXPECT_EQ(cache.stats().cert_publishes, 1);
  EXPECT_EQ(cache.stats().cert_duplicates, 1);
}

// ---------------------------------------------------------------------
// 6. Compiler personalities (the portability matrix's toolchain axis).
//    Personalities change what the analyzer may assume about lowering:
//    an atomic-block reduction is protected under every personality, and
//    a toolchain that ignores prefetch hints turns the hint-correctness
//    findings into Info notes.

// A same-element accumulation at an AtomicUpdate site is the lowering
// every personality uses for array reductions it cannot tree-reduce
// (atomic_reduce_traffic); the declared protection must silence
// DuplicateWrite in both analyses, under every personality.
TEST(Personalities, AtomicBlockAccumulationNeverTripsDuplicateWrite) {
  for (const par::CompilerPersonality p : par::all_personalities()) {
    par::EngineConfig cfg = capture_config();
    cfg.personality = p;
    par::Engine eng(cfg);
    field::Field f(eng, "sv_pers_atomic", 4, 4, 4);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_pers_atomic_w", SiteKind::AtomicUpdate, 0);
    eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
                 {par::in(f.id()), par::out_scatter(f.id())},
                 [&](idx, idx, idx) { f(0, 0, 0) += 1.0; });
    const ValidationReport st = eng.static_verify();
    const ValidationReport rt = eng.take_validation_report();
    EXPECT_FALSE(st.has(Check::DuplicateWrite))
        << par::personality_name(p) << ":\n"
        << st.to_string();
    EXPECT_FALSE(rt.has(Check::DuplicateWrite))
        << par::personality_name(p) << ":\n"
        << rt.to_string();
    scrub(eng, {&f});
  }
}

// Control: the identical scatter accumulation at a plain parallel-loop
// site IS the illegal-DC hazard — no personality may excuse it.
TEST(Personalities, PlainLoopScatterStillTripsDuplicateWriteEverywhere) {
  for (const par::CompilerPersonality p : par::all_personalities()) {
    par::EngineConfig cfg = capture_config();
    cfg.personality = p;
    par::Engine eng(cfg);
    field::Field f(eng, "sv_pers_plain", 4, 4, 4);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_pers_plain_w", SiteKind::ParallelLoop, 0);
    eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
                 {par::out_scatter(f.id())}, [&](idx i, idx j, idx k) {
                   f(0, 0, 0) = static_cast<real>(i + j + k);
                 });
    const ValidationReport st = eng.static_verify();
    EXPECT_TRUE(st.has(Check::DuplicateWrite)) << par::personality_name(p);
    (void)eng.take_validation_report();
    scrub(eng, {&f});
  }
}

// A toolchain that ignores prefetch hints (flang-like) makes a
// wrong-span prefetch inert: the finding must survive as an Info note —
// visible, but neither a warning nor an error.
TEST(Personalities, IgnoredPrefetchDowngradesSpanMismatchToNote) {
  par::EngineConfig cfg = capture_config();
  cfg.memory = gpusim::MemoryMode::Unified;
  cfg.personality = par::CompilerPersonality::Flang;
  par::Engine eng(cfg);
  field::Field f(eng, "sv_pers_span", 4, 4, 4, 1);
  eng.mem_prefetch(f.id(), eng.memory().record(f.id()).bytes,
                   par::Span::Interior);
  static const par::KernelSite& site =
      SIMAS_SITE("sv_pers_span_r", SiteKind::ParallelLoop, 0);
  real sum = 0.0;
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport st = eng.static_verify();
  EXPECT_TRUE(st.has(Check::PrefetchSpanMismatch)) << st.to_string();
  EXPECT_EQ(st.errors(), 0) << st.to_string();
  EXPECT_EQ(st.warnings(), 0) << st.to_string();  // demoted to Info
  for (const analysis::Diagnostic& d : st.diagnostics)
    if (d.check == Check::PrefetchSpanMismatch)
      EXPECT_EQ(d.severity, analysis::Severity::Info);
  (void)eng.take_validation_report();
  scrub(eng, {&f});
}

// The same stream under the hint-honoring default keeps the Warning:
// the downgrade is a personality fact, not a blanket softening.
TEST(Personalities, HonoredPrefetchKeepsSpanMismatchAsWarning) {
  par::EngineConfig cfg = capture_config();
  cfg.memory = gpusim::MemoryMode::Unified;
  cfg.personality = par::CompilerPersonality::Nvfortran;
  par::Engine eng(cfg);
  field::Field f(eng, "sv_pers_span_w", 4, 4, 4, 1);
  eng.mem_prefetch(f.id(), eng.memory().record(f.id()).bytes,
                   par::Span::Interior);
  static const par::KernelSite& site =
      SIMAS_SITE("sv_pers_span_w_r", SiteKind::ParallelLoop, 0);
  real sum = 0.0;
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport st = eng.static_verify();
  EXPECT_TRUE(st.has(Check::PrefetchSpanMismatch)) << st.to_string();
  EXPECT_GE(st.warnings(), 1) << st.to_string();
  (void)eng.take_validation_report();
  scrub(eng, {&f});
}

// The fusion and async decisions are the toolchain's lowering, and both
// analyses must follow the launches the scheduler actually modeled. Two
// back-to-back same-group full writes race only where the personality
// fuses them (nvfortran-like); ifx-like and flang-like launch them
// separately, so neither analysis may report a fused race there.
TEST(Personalities, FusedWawFollowsTheToolchainsFusion) {
  for (const par::CompilerPersonality p : par::all_personalities()) {
    SCOPED_TRACE(par::personality_name(p));
    par::EngineConfig cfg = capture_config();
    cfg.personality = p;
    par::Engine eng(cfg);
    field::Field f(eng, "sv_pers_waw", 4, 4, 4);
    f.enter_data();
    static const par::KernelSite& s1 =
        SIMAS_SITE("sv_pers_waw_w1", SiteKind::ParallelLoop, 94);
    static const par::KernelSite& s2 =
        SIMAS_SITE("sv_pers_waw_w2", SiteKind::ParallelLoop, 94);
    const par::Range3 r3{0, 4, 0, 4, 0, 4};
    eng.for_each(s1, r3, {par::out(f.id())},
                 [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
    eng.for_each(s2, r3, {par::out(f.id())},
                 [&](idx i, idx j, idx k) { f(i, j, k) = 2.0; });
    const bool fuses = p == par::CompilerPersonality::Nvfortran;
    EXPECT_EQ(eng.counters().kernel_launches, fuses ? 1 : 2);
    EXPECT_EQ(eng.counters().fused_launches, fuses ? 1 : 0);
    const ValidationReport st = eng.static_verify();
    const ValidationReport rt = eng.take_validation_report();
    EXPECT_EQ(st.has(Check::FusedConflict), fuses) << st.to_string();
    EXPECT_EQ(rt.has(Check::FusedConflict), fuses) << rt.to_string();
    scrub(eng, {&f});
  }
}

// The async analogue: a reduction site still marked async_capable hands
// the host an unfinished result only where launches are actually async.
TEST(Personalities, AsyncReductionFollowsTheToolchainsAsync) {
  for (const par::CompilerPersonality p : par::all_personalities()) {
    SCOPED_TRACE(par::personality_name(p));
    par::EngineConfig cfg = capture_config();
    cfg.personality = p;
    par::Engine eng(cfg);
    field::Field f(eng, "sv_pers_async", 4, 4, 4);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("sv_pers_async_red", SiteKind::ScalarReduction, 0);
    (void)eng.reduce_sum(site, par::Range3{0, 4, 0, 4, 0, 4},
                         {par::in(f.id())},
                         [&](idx i, idx j, idx k) { return f(i, j, k); });
    const bool async = p == par::CompilerPersonality::Nvfortran;
    const ValidationReport st = eng.static_verify();
    const ValidationReport rt = eng.take_validation_report();
    EXPECT_EQ(st.has(Check::AsyncReductionNoWait), async) << st.to_string();
    EXPECT_EQ(rt.has(Check::AsyncReductionNoWait), async) << rt.to_string();
    scrub(eng, {&f});
  }
}

// ---------------------------------------------------------------------
// 7. The fusion-chain slot cap. Element tags give a kernel an 8-bit slot
//    within its chain, so a chain holds at most 256 kernels; the
//    scheduler and both checkers break the chain at the same launch.

TEST(FusionChain, SlotCapSplitsLongChainsAlikeInAllThreeConsumers) {
  par::Engine eng(capture_config());
  field::Field f(eng, "sv_chain_cap", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("sv_chain_cap_w", SiteKind::ParallelLoop, 95);
  constexpr int kLaunches = 300;
  for (int n = 0; n < kLaunches; ++n)
    eng.for_each(site, par::Range3{0, 1, 0, 1, 0, 1}, {par::out(f.id())},
                 [&](idx i, idx j, idx k) { f(i, j, k) = real(n); });
  // Chain one: a head plus 255 fused kernels; launch 257 opens chain two,
  // which fuses the remaining 43.
  constexpr i64 kFused = kLaunches - 2;
  EXPECT_EQ(eng.counters().kernel_launches, 2);
  EXPECT_EQ(eng.counters().fused_launches, kFused);
  // Each fused kernel rewrites the one element its chain predecessor
  // wrote: one FusedConflict occurrence per fused launch, and none for
  // the head of chain two.
  const auto fused_conflicts = [](const ValidationReport& r) {
    i64 n = 0;
    for (const analysis::Diagnostic& d : r.diagnostics)
      if (d.check == Check::FusedConflict) n += d.count;
    return n;
  };
  const ValidationReport st = eng.static_verify();
  const ValidationReport rt = eng.take_validation_report();
  EXPECT_EQ(fused_conflicts(st), kFused) << st.to_string();
  EXPECT_EQ(fused_conflicts(rt), kFused) << rt.to_string();
  scrub(eng, {&f});
}

}  // namespace
}  // namespace simas
