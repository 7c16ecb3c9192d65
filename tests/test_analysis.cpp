// Kernel-stream validator tests: every checker must fire on an injected
// bug and stay quiet on the equivalent clean stream — including the real
// solver's full op stream under both manual and unified memory.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "analysis/diagnostics.hpp"
#include "field/field.hpp"
#include "mhd/checkpoint.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/decomposition.hpp"
#include "mpisim/halo.hpp"
#include "par/engine.hpp"
#include "par/env_config.hpp"
#include "par/site_table.hpp"
#include "variants/code_version.hpp"

namespace simas {
namespace {

using analysis::Check;
using analysis::ValidationReport;
using par::SiteKind;

par::EngineConfig validating_config() {
  par::EngineConfig cfg;  // Acc / Manual / gpu / fusion+async on
  cfg.validate = true;
  cfg.host_threads = 1;
  return cfg;
}

// Leave the engine clean and fully drained so destruction never trips the
// fatal path when CI forces SIMAS_VALIDATE_FATAL=1: sync in-flight work,
// close any open data regions, then discard the cleanup's own events.
void scrub(par::Engine& eng, std::initializer_list<field::Field*> fields) {
  eng.device_sync();
  for (field::Field* f : fields) f->exit_data();
  (void)eng.take_validation_report();
}

// ---------------------------------------------------------------------
// 1. Coherence checker (Manual memory mode).

TEST(Coherence, StaleDeviceReadAfterHostWrite) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_coh_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_coh_read", SiteKind::ParallelLoop, 0);
  // Host mutates the array inside the data region, then a device kernel
  // reads it without update_device: the device sees stale data.
  f.note_host_write();
  real sum = 0.0;
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport rep = eng.take_validation_report();
  ASSERT_TRUE(rep.has(Check::StaleDeviceRead)) << rep.to_string();
  EXPECT_EQ(rep.find(Check::StaleDeviceRead)->array, "an_coh_a");
  EXPECT_GT(rep.errors(), 0);
  scrub(eng, {&f});
}

TEST(Coherence, UpdateDeviceRestoresCoherence) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_coh_b", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_coh_read_ok", SiteKind::ParallelLoop, 0);
  f.note_host_write();
  f.update_device();  // the fix for the previous test's bug
  real sum = 0.0;
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(f.id())},
               [&](idx i, idx j, idx k) { sum += f(i, j, k); });
  const ValidationReport rep = eng.take_validation_report();
  EXPECT_FALSE(rep.has(Check::StaleDeviceRead)) << rep.to_string();
  EXPECT_EQ(rep.errors(), 0) << rep.to_string();
  scrub(eng, {&f});
}

TEST(Coherence, StaleHostReadOfDirtyDeviceCopy) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_coh_c", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_coh_write", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  eng.device_sync();
  // Host-side I/O of the array without update_host: stale host copy.
  f.note_host_read();
  const ValidationReport rep = eng.take_validation_report();
  ASSERT_TRUE(rep.has(Check::StaleHostRead)) << rep.to_string();

  // The fix: update_host first.
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 2.0; });
  eng.device_sync();
  f.update_host();
  f.note_host_read();
  const ValidationReport rep2 = eng.take_validation_report();
  EXPECT_FALSE(rep2.has(Check::StaleHostRead)) << rep2.to_string();
  scrub(eng, {&f});
}

TEST(Coherence, ExitDeleteDiscardsDirtyDeviceWrites) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_coh_d", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_coh_del_write", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 3.0; });
  eng.device_sync();
  eng.memory().exit_data(f.id(), gpusim::ExitPolicy::Delete);
  const ValidationReport rep = eng.take_validation_report();
  ASSERT_TRUE(rep.has(Check::DiscardedDeviceWrites)) << rep.to_string();

  // Clean control: flush before the delete-exit.
  f.enter_data();
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 4.0; });
  eng.device_sync();
  f.update_host();
  eng.memory().exit_data(f.id(), gpusim::ExitPolicy::Delete);
  const ValidationReport rep2 = eng.take_validation_report();
  EXPECT_FALSE(rep2.has(Check::DiscardedDeviceWrites)) << rep2.to_string();
  EXPECT_EQ(rep2.errors(), 0) << rep2.to_string();
  scrub(eng, {});
}

TEST(Coherence, KernelOutsideRegionIsAWarningNotAnError) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_coh_e", 4, 4, 4);  // never entered
  static const par::KernelSite& site =
      SIMAS_SITE("an_coh_outside", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  const ValidationReport rep = eng.take_validation_report();
  ASSERT_TRUE(rep.has(Check::KernelOutsideRegion)) << rep.to_string();
  // Implicit per-kernel copies are a performance hazard, not corruption.
  EXPECT_EQ(rep.errors(), 0) << rep.to_string();
  EXPECT_GT(rep.warnings(), 0);
  scrub(eng, {});
}

TEST(Coherence, UnbalancedEnterAndExitAreFlagged) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_coh_f", 4, 4, 4);
  f.enter_data();
  f.enter_data();  // redundant
  f.exit_data();
  f.exit_data();  // exit without a matching enter
  const ValidationReport rep = eng.take_validation_report();
  const analysis::Diagnostic* d = rep.find(Check::UnbalancedDataRegion);
  ASSERT_NE(d, nullptr) << rep.to_string();
  EXPECT_EQ(rep.errors(), 0);  // imbalance alone is a warning
  scrub(eng, {});
}

// ---------------------------------------------------------------------
// 2. Access-list verifier (shadow mode).

TEST(AccessList, UndeclaredAccessIsTheMissingClauseBug) {
  par::Engine eng(validating_config());
  field::Field a(eng, "an_acc_a", 4, 4, 4);
  field::Field b(eng, "an_acc_b", 4, 4, 4);
  a.enter_data();
  b.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_acc_undeclared", SiteKind::ParallelLoop, 0);
  // The body reads b, but the Access list only declares a.
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(a.id())},
               [&](idx i, idx j, idx k) { a(i, j, k) = b(i, j, k); });
  const ValidationReport rep = eng.take_validation_report();
  const analysis::Diagnostic* d = rep.find(Check::UndeclaredAccess);
  ASSERT_NE(d, nullptr) << rep.to_string();
  EXPECT_EQ(d->array, "an_acc_b");
  EXPECT_EQ(d->site, "an_acc_undeclared");
  EXPECT_GT(rep.errors(), 0);
  scrub(eng, {&a, &b});
}

TEST(AccessList, UndeclaredReadInsideComponentSweepIsReported) {
  // for_each_n under a validator records and runs op by op, each in its
  // own body window: the second component's undeclared read of c is
  // still caught and pinned on the sweep's site.
  par::Engine eng(validating_config());
  field::Field a0(eng, "an_acc_sweep_a0", 4, 4, 4);
  field::Field a1(eng, "an_acc_sweep_a1", 4, 4, 4);
  field::Field c(eng, "an_acc_sweep_c", 4, 4, 4);
  for (field::Field* f : {&a0, &a1, &c}) f->enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_acc_sweep_undeclared", SiteKind::ParallelLoop, 0);
  field::Field* outs[] = {&a0, &a1};
  eng.for_each_n(
      site, par::Range3{0, 4, 0, 4, 0, 4}, 2,
      [&](int comp) { return std::array{par::out(outs[comp]->id())}; },
      [&](int comp) {
        return [&, comp](idx i, idx j, idx k) {
          (*outs[comp])(i, j, k) = comp == 1 ? c(i, j, k) : 1.0;
        };
      });
  const ValidationReport rep = eng.take_validation_report();
  const analysis::Diagnostic* d = rep.find(Check::UndeclaredAccess);
  ASSERT_NE(d, nullptr) << rep.to_string();
  EXPECT_EQ(d->array, "an_acc_sweep_c");
  EXPECT_EQ(d->site, "an_acc_sweep_undeclared");
  EXPECT_EQ(rep.errors(), 1) << rep.to_string();
  scrub(eng, {&a0, &a1, &c});
}

TEST(AccessList, UndeclaredWritesInsideForEach1AndArrayReduceAreReported) {
  // for_each1 and array_reduce share the component sweeps' launch path;
  // each op still runs in its own body window under a validator.
  par::Engine eng(validating_config());
  field::Field a(eng, "an_acc_fold_a", 4, 4, 4);
  field::Field w1(eng, "an_acc_fold_w1", 4, 4, 4);
  field::Field w2(eng, "an_acc_fold_w2", 4, 4, 4);
  for (field::Field* f : {&a, &w1, &w2}) f->enter_data();
  static const par::KernelSite& site1 =
      SIMAS_SITE("an_acc_fold_1d", SiteKind::ParallelLoop, 0);
  static const par::KernelSite& site2 =
      SIMAS_SITE("an_acc_fold_arr", SiteKind::ArrayReduction, 0, false,
                 false, /*async_capable=*/false);
  eng.for_each1(site1, par::Range1{0, 4}, {par::out(a.id())}, [&](idx i) {
    a(i, 0, 0) = 1.0;
    w1(i, 0, 0) = 2.0;
  });
  std::array<real, 4> sums{};
  eng.array_reduce(site2, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(a.id())},
                   std::span<real>(sums), [&](idx i, idx j, idx k) {
                     w2(i, j, k) = 3.0;
                     return a(i, j, k);
                   });
  const ValidationReport rep = eng.take_validation_report();
  bool found_1d = false, found_arr = false;
  for (const analysis::Diagnostic& d : rep.diagnostics) {
    if (d.check != Check::UndeclaredAccess) continue;
    found_1d |= d.array == "an_acc_fold_w1" && d.site == "an_acc_fold_1d";
    found_arr |= d.array == "an_acc_fold_w2" && d.site == "an_acc_fold_arr";
  }
  EXPECT_TRUE(found_1d) << rep.to_string();
  EXPECT_TRUE(found_arr) << rep.to_string();
  scrub(eng, {&a, &w1, &w2});
}

TEST(AccessList, DeclaredWriteNeverTouchedInflatesCostModel) {
  par::Engine eng(validating_config());
  field::Field a(eng, "an_acc_c", 4, 4, 4);
  field::Field b(eng, "an_acc_d", 4, 4, 4);
  a.enter_data();
  b.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_acc_unused", SiteKind::ParallelLoop, 0);
  // b is declared as written but the body never touches it.
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
               {par::out(a.id()), par::out(b.id())},
               [&](idx i, idx j, idx k) { a(i, j, k) = 1.0; });
  const ValidationReport rep = eng.take_validation_report();
  const analysis::Diagnostic* d = rep.find(Check::DeclaredWriteNotTouched);
  ASSERT_NE(d, nullptr) << rep.to_string();
  EXPECT_EQ(d->array, "an_acc_d");
  EXPECT_EQ(rep.errors(), 0);  // over-declaration is a warning
  scrub(eng, {&a, &b});
}

TEST(AccessList, CorrectDeclarationIsClean) {
  par::Engine eng(validating_config());
  field::Field a(eng, "an_acc_e", 4, 4, 4);
  field::Field b(eng, "an_acc_f", 4, 4, 4);
  a.enter_data();
  b.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_acc_clean", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4},
               {par::in(b.id()), par::out(a.id())},
               [&](idx i, idx j, idx k) { a(i, j, k) = 2.0 * b(i, j, k); });
  const ValidationReport rep = eng.take_validation_report();
  EXPECT_EQ(rep.errors(), 0) << rep.to_string();
  EXPECT_EQ(rep.warnings(), 0) << rep.to_string();
  scrub(eng, {&a, &b});
}

// ---------------------------------------------------------------------
// 3. DC-legality & race checker.

TEST(DcLegality, DuplicateWriteWithinOneLoopIsIllegalDc) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_dc_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_dc_dup", SiteKind::ParallelLoop, 0);
  // Every iteration writes element (0,0,0): unordered iterations race.
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) {
                 f(0, 0, 0) = static_cast<real>(i + j + k);
               });
  const ValidationReport rep = eng.take_validation_report();
  const analysis::Diagnostic* d = rep.find(Check::DuplicateWrite);
  ASSERT_NE(d, nullptr) << rep.to_string();
  EXPECT_EQ(d->site, "an_dc_dup");
  EXPECT_GT(rep.errors(), 0);
  scrub(eng, {&f});
}

TEST(DcLegality, OneWritePerIterationIsClean) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_dc_b", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_dc_clean", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) {
                 f(i, j, k) = static_cast<real>(i + j + k);
               });
  const ValidationReport rep = eng.take_validation_report();
  EXPECT_FALSE(rep.has(Check::DuplicateWrite)) << rep.to_string();
  EXPECT_EQ(rep.errors(), 0) << rep.to_string();
  scrub(eng, {&f});
}

TEST(DcLegality, WriteWriteConflictAcrossFusedKernels) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_dc_c", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& s1 =
      SIMAS_SITE("an_dc_fuse_w1", SiteKind::ParallelLoop, 81);
  static const par::KernelSite& s2 =
      SIMAS_SITE("an_dc_fuse_w2", SiteKind::ParallelLoop, 81);
  const par::Range3 r{0, 4, 0, 4, 0, 4};
  // Same fusion group, back to back, both write every element of f: the
  // merged launch would race on each element.
  eng.for_each(s1, r, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  eng.for_each(s2, r, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 2.0; });
  const ValidationReport rep = eng.take_validation_report();
  ASSERT_TRUE(rep.has(Check::FusedConflict)) << rep.to_string();
  EXPECT_GT(rep.errors(), 0);
  scrub(eng, {&f});
}

TEST(DcLegality, SameStreamWithFusionDisabledIsClean) {
  par::EngineConfig cfg = validating_config();
  cfg.fusion_enabled = false;  // the kernels no longer share a launch
  par::Engine eng(cfg);
  field::Field f(eng, "an_dc_d", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& s1 =
      SIMAS_SITE("an_dc_nofuse_w1", SiteKind::ParallelLoop, 82);
  static const par::KernelSite& s2 =
      SIMAS_SITE("an_dc_nofuse_w2", SiteKind::ParallelLoop, 82);
  const par::Range3 r{0, 4, 0, 4, 0, 4};
  eng.for_each(s1, r, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  eng.for_each(s2, r, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 2.0; });
  const ValidationReport rep = eng.take_validation_report();
  EXPECT_FALSE(rep.has(Check::FusedConflict)) << rep.to_string();
  EXPECT_EQ(rep.errors(), 0) << rep.to_string();
  scrub(eng, {&f});
}

TEST(DcLegality, ReadAfterWriteAcrossFusedKernels) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_dc_e", 4, 4, 4);
  field::Field g(eng, "an_dc_f", 4, 4, 4);
  f.enter_data();
  g.enter_data();
  static const par::KernelSite& s1 =
      SIMAS_SITE("an_dc_raw_w", SiteKind::ParallelLoop, 83);
  static const par::KernelSite& s2 =
      SIMAS_SITE("an_dc_raw_r", SiteKind::ParallelLoop, 83);
  const par::Range3 r{0, 4, 0, 4, 0, 4};
  // Producer and consumer share a fusion group: inside one merged launch
  // the consumer may read an element before the producer wrote it.
  eng.for_each(s1, r, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  eng.for_each(s2, r, {par::in(f.id()), par::out(g.id())},
               [&](idx i, idx j, idx k) { g(i, j, k) = f(i, j, k); });
  const ValidationReport rep = eng.take_validation_report();
  const analysis::Diagnostic* d = rep.find(Check::FusedConflict);
  ASSERT_NE(d, nullptr) << rep.to_string();
  EXPECT_EQ(d->site, "an_dc_raw_r");
  scrub(eng, {&f, &g});
}

// ---------------------------------------------------------------------
// 4. Async / missing-sync checks.

TEST(Async, AsyncCapableReductionSiteIsFlagged) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_async_a", 4, 4, 4);
  f.enter_data();
  // A reduction site left async-capable: the engine hands the result to
  // the host immediately, so an async launch would race the read.
  static const par::KernelSite& bad =
      SIMAS_SITE("an_async_red_bad", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/true);
  (void)eng.reduce_sum(bad, par::Range3{0, 4, 0, 4, 0, 4},
                       {par::in(f.id())},
                       [&](idx i, idx j, idx k) { return f(i, j, k); });
  const ValidationReport rep = eng.take_validation_report();
  const analysis::Diagnostic* d = rep.find(Check::AsyncReductionNoWait);
  ASSERT_NE(d, nullptr) << rep.to_string();
  EXPECT_EQ(d->site, "an_async_red_bad");

  // The fix: declare the site synchronous.
  static const par::KernelSite& good =
      SIMAS_SITE("an_async_red_good", SiteKind::ScalarReduction, 0, false,
                 false, /*async_capable=*/false);
  (void)eng.reduce_sum(good, par::Range3{0, 4, 0, 4, 0, 4},
                       {par::in(f.id())},
                       [&](idx i, idx j, idx k) { return f(i, j, k); });
  const ValidationReport rep2 = eng.take_validation_report();
  EXPECT_FALSE(rep2.has(Check::AsyncReductionNoWait)) << rep2.to_string();
  scrub(eng, {&f});
}

TEST(Async, HostPullWithoutDeviceSyncIsFlagged) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_async_b", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_async_w", SiteKind::ParallelLoop, 0);
  // Async-capable launch writes f; update_host with no device_sync races
  // the in-flight kernel (the Sec. IV IO-before-wait bug).
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  f.update_host();
  const ValidationReport rep = eng.take_validation_report();
  ASSERT_TRUE(rep.has(Check::AsyncHostAccessNoSync)) << rep.to_string();

  // The fix: drain the queue first.
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) { f(i, j, k) = 2.0; });
  eng.device_sync();
  f.update_host();
  const ValidationReport rep2 = eng.take_validation_report();
  EXPECT_FALSE(rep2.has(Check::AsyncHostAccessNoSync)) << rep2.to_string();
  EXPECT_EQ(rep2.errors(), 0) << rep2.to_string();
  scrub(eng, {&f});
}

// ---------------------------------------------------------------------
// 5. In-flight overlapped-halo hazard.

TEST(Inflight, GhostReadDuringOverlappedExchangeIsFlagged) {
  // An overlapped exchange has been posted but not finished; a kernel
  // whose stencil reaches the radial ghost planes races the unfinished
  // recv — exactly the bug the interior/boundary split exists to avoid.
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig cfg = validating_config();
    cfg.overlap_halo = true;
    par::Engine eng(cfg);
    mpisim::Comm comm(world, rank, eng);
    const mpisim::Slab slab = mpisim::radial_slab(8, 2, rank);
    const idx n = slab.n();
    mpisim::HaloExchanger halo(eng, comm, slab, n, 4, 4);
    field::Field f(eng, "an_inflight_a", n, 4, 4, 1);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("an_inflight_read", SiteKind::ParallelLoop, 0);
    const int h = halo.begin_exchange_r({&f});
    real sum = 0.0;
    eng.for_each(site, par::Range3{0, n, 0, 4, 0, 4}, {par::in(f.id())},
                 [&](idx i, idx j, idx k) {
                   // Full-width radial stencil: touches a ghost plane whose
                   // data has not arrived yet.
                   sum += f(i - 1, j, k) + f(i + 1, j, k);
                 });
    halo.finish_exchange_r(h);
    const ValidationReport rep = eng.take_validation_report();
    const analysis::Diagnostic* d = rep.find(Check::InflightGhostRead);
    ASSERT_NE(d, nullptr) << rep.to_string();
    EXPECT_EQ(d->array, "an_inflight_a");
    EXPECT_EQ(d->site, "an_inflight_read");
    EXPECT_GT(rep.errors(), 0);
    scrub(eng, {&f});
  });
}

TEST(Inflight, InteriorBoundarySplitPassesClean) {
  // The correct overlap pattern: while the exchange is in flight only the
  // interior is computed (stencil never reaches a ghost); the boundary
  // shell runs after finish_exchange_r and may then read the ghosts.
  mpisim::World world(2);
  world.run([&](int rank) {
    par::EngineConfig cfg = validating_config();
    cfg.overlap_halo = true;
    par::Engine eng(cfg);
    mpisim::Comm comm(world, rank, eng);
    const mpisim::Slab slab = mpisim::radial_slab(8, 2, rank);
    const idx n = slab.n();
    mpisim::HaloExchanger halo(eng, comm, slab, n, 4, 4);
    field::Field f(eng, "an_inflight_b", n, 4, 4, 1);
    f.enter_data();
    static const par::KernelSite& interior =
        SIMAS_SITE("an_inflight_interior", SiteKind::ParallelLoop, 0);
    static const par::KernelSite& shell =
        SIMAS_SITE("an_inflight_shell", SiteKind::ParallelLoop, 0);
    const int h = halo.begin_exchange_r({&f});
    real sum = 0.0;
    eng.for_each(interior, par::Range3{1, n - 1, 0, 4, 0, 4},
                 {par::in(f.id())}, [&](idx i, idx j, idx k) {
                   sum += f(i - 1, j, k) + f(i + 1, j, k);
                 });
    halo.finish_exchange_r(h);
    // The ghosts are delivered: the boundary shell may read them now.
    eng.for_each(shell, par::Range3{0, n, 0, 4, 0, 4}, {par::in(f.id())},
                 [&](idx i, idx j, idx k) {
                   sum += f(i - 1, j, k) + f(i + 1, j, k);
                 });
    const ValidationReport rep = eng.take_validation_report();
    EXPECT_FALSE(rep.has(Check::InflightGhostRead)) << rep.to_string();
    EXPECT_EQ(rep.errors(), 0) << rep.to_string();
    scrub(eng, {&f});
  });
}

// ---------------------------------------------------------------------
// 6. Clean real streams, composition, registry, report plumbing.

TEST(CleanStream, SolverOpStreamHasNoErrorsUnderManualAcc) {
  mpisim::World world(1);
  world.run([&](int rank) {
    par::EngineConfig ecfg = variants::engine_config(
        variants::CodeVersion::A, gpusim::a100_40gb(), 2);
    ecfg.validate = true;
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
      (void)solver.diagnostics();
      std::stringstream buf;
      mhd::write_checkpoint(buf, solver.state(), 2, 0.01);
      mhd::read_checkpoint(buf, solver.state());
    }
    // Teardown included: enter/exit pairs must balance and nothing may be
    // discarded dirty.
    const ValidationReport rep = engine.take_validation_report();
    EXPECT_EQ(rep.errors(), 0) << rep.to_string();
    EXPECT_GT(rep.ops_checked, 0);
  });
}

TEST(CleanStream, SolverOpStreamHasNoErrorsUnderUnifiedDc2x) {
  mpisim::World world(1);
  world.run([&](int rank) {
    par::EngineConfig ecfg = variants::engine_config(
        variants::CodeVersion::AD2XU, gpusim::a100_40gb(), 2);
    ecfg.validate = true;
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
      (void)solver.diagnostics();
    }
    const ValidationReport rep = engine.take_validation_report();
    EXPECT_EQ(rep.errors(), 0) << rep.to_string();
  });
}

TEST(Compose, ValidatorSeesReplayedOpsUnderGraphCapture) {
  par::EngineConfig cfg = validating_config();
  cfg.graph_replay = true;
  par::Engine eng(cfg);
  field::Field f(eng, "an_graph_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_graph_k", SiteKind::ParallelLoop, 0);
  for (int pass = 0; pass < 3; ++pass) {
    par::Engine::GraphScope scope(eng, "an_graph");
    eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
                 [&](idx i, idx j, idx k) { f(i, j, k) = 1.0; });
  }
  EXPECT_EQ(eng.graph_stats().replays, 2);
  const ValidationReport rep = eng.take_validation_report();
  // The validator runs before the replay switch: every pass is checked.
  EXPECT_GE(rep.ops_checked, 3);
  EXPECT_EQ(rep.errors(), 0) << rep.to_string();
  scrub(eng, {&f});
}

TEST(SiteTableChecks, RejectsInvalidAndConflictingRegistrations) {
  auto& tab = par::SiteTable::process();
  EXPECT_THROW(tab.intern(par::make_site("", SiteKind::ParallelLoop)),
               std::invalid_argument);
  EXPECT_THROW(tab.intern(
                   par::make_site("an_reg_neg", SiteKind::ParallelLoop, -1)),
               std::invalid_argument);
  const par::KernelSite& first =
      tab.intern(par::make_site("an_reg_dup", SiteKind::ParallelLoop, 3));
  // Identical re-interning returns the same site...
  const par::KernelSite& again =
      tab.intern(par::make_site("an_reg_dup", SiteKind::ParallelLoop, 3));
  EXPECT_EQ(&first, &again);
  // ...but the same name with different properties is a duplicate-name bug.
  EXPECT_THROW(tab.intern(par::make_site(
                   "an_reg_dup", SiteKind::ParallelLoop, 4)),
               std::logic_error);
  EXPECT_THROW(tab.intern(par::make_site(
                   "an_reg_dup", SiteKind::ScalarReduction, 3)),
               std::logic_error);
}

TEST(Report, FoldsRepeatsAndDrainsOnTake) {
  par::Engine eng(validating_config());
  field::Field f(eng, "an_rep_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_rep_dup", SiteKind::ParallelLoop, 0);
  for (int n = 0; n < 2; ++n) {
    eng.for_each(site, par::Range3{0, 2, 0, 2, 0, 2}, {par::out(f.id())},
                 [&](idx i, idx j, idx k) {
                   f(0, 0, 0) = static_cast<real>(i + j + k);
                 });
    eng.device_sync();
  }
  const ValidationReport rep = eng.take_validation_report();
  const analysis::Diagnostic* d = rep.find(Check::DuplicateWrite);
  ASSERT_NE(d, nullptr) << rep.to_string();
  // Folded into one entry with an occurrence count, not one per element.
  EXPECT_GT(d->count, 1);
  int dup_entries = 0;
  for (const auto& diag : rep.diagnostics)
    if (diag.check == Check::DuplicateWrite) ++dup_entries;
  EXPECT_EQ(dup_entries, 1);
  EXPECT_FALSE(rep.to_string().empty());
  // take() drained the validator: a second take is clean.
  const ValidationReport rep2 = eng.take_validation_report();
  EXPECT_TRUE(rep2.clean());
  EXPECT_TRUE(rep2.diagnostics.empty());
  scrub(eng, {&f});
}

TEST(Report, ValidationOffYieldsEmptyReportAndNoShadow) {
  if (par::EnvConfig::process().validate)
    GTEST_SKIP() << "SIMAS_VALIDATE forces the validator on";
  par::EngineConfig cfg;  // validate = false
  cfg.host_threads = 1;
  par::Engine eng(cfg);
  EXPECT_EQ(eng.validator(), nullptr);
  field::Field f(eng, "an_off_a", 4, 4, 4);
  f.enter_data();
  static const par::KernelSite& site =
      SIMAS_SITE("an_off_dup", SiteKind::ParallelLoop, 0);
  eng.for_each(site, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(f.id())},
               [&](idx i, idx j, idx k) {
                 f(0, 0, 0) = static_cast<real>(i + j + k);
               });
  const ValidationReport rep = eng.take_validation_report();
  EXPECT_TRUE(rep.diagnostics.empty());
  EXPECT_EQ(rep.ops_checked, 0);
  scrub(eng, {&f});
}

TEST(Report, ModeledTimeIsIdenticalWithValidationOn) {
  // The validator must never touch the clock ledger.
  auto run = [](bool validate) {
    par::EngineConfig cfg;
    cfg.validate = validate;
    cfg.host_threads = 1;
    par::Engine eng(cfg);
    field::Field f(eng, "an_time_a", 8, 8, 8);
    f.enter_data();
    static const par::KernelSite& site =
        SIMAS_SITE("an_time_k", SiteKind::ParallelLoop, 0);
    for (int n = 0; n < 4; ++n) {
      eng.for_each(site, par::Range3{0, 8, 0, 8, 0, 8}, {par::out(f.id())},
                   [&](idx i, idx j, idx k) {
                     f(i, j, k) = static_cast<real>(n);
                   });
    }
    eng.device_sync();
    f.exit_data();
    (void)eng.take_validation_report();
    return eng.ledger().now();
  };
  EXPECT_DOUBLE_EQ(run(false), run(true));
}

}  // namespace
}  // namespace simas
