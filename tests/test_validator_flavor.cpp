// The kernel-stream validator in the library flavor this binary links
// (production `simas` by default; the CI validate job compiles every
// target with SIMAS_ELEMENT_SHADOW). Both flavors run every op-level
// check. Only the checked flavor observes element touches; a production
// report says so in one Info note and never claims element-level results
// it could not observe (no touch-diff warnings, no element findings).

#include <gtest/gtest.h>

#include "analysis/diagnostics.hpp"
#include "field/field.hpp"
#include "par/engine.hpp"
#include "par/site_table.hpp"

namespace simas {
namespace {

using analysis::Check;
using analysis::Severity;
using analysis::ValidationReport;
using par::SiteKind;

int count_check(const ValidationReport& rep, Check c) {
  int n = 0;
  for (const analysis::Diagnostic& d : rep.diagnostics)
    if (d.check == c) ++n;
  return n;
}

int count_info(const ValidationReport& rep) {
  int n = 0;
  for (const analysis::Diagnostic& d : rep.diagnostics)
    if (d.severity == Severity::Info) ++n;
  return n;
}

TEST(ValidatorFlavor, OpLevelErrorAndElementNoteWithoutTouchWarnings) {
  par::EngineConfig cfg;  // Acc / Manual / gpu
  cfg.validate = true;
  cfg.host_threads = 1;
  par::Engine eng(cfg);
  field::Field src(eng, "vf_src", 4, 4, 4);
  field::Field dst(eng, "vf_dst", 4, 4, 4);
  src.enter_data();
  dst.enter_data();
  static const par::KernelSite& stale =
      SIMAS_SITE("vf_stale_read", SiteKind::ParallelLoop, 0);
  static const par::KernelSite& dup =
      SIMAS_SITE("vf_dup_write", SiteKind::ParallelLoop, 0);

  // Seeded op-level bug: the host writes src inside its data region and
  // a kernel reads it without update_device.
  src.note_host_write();
  real sum = 0.0;
  eng.for_each(stale, par::Range3{0, 4, 0, 4, 0, 4}, {par::in(src.id())},
               [&](idx i, idx j, idx k) { sum += src(i, j, k); });
  // Seeded element-level bug: every iteration writes dst(0,0,0).
  eng.for_each(dup, par::Range3{0, 4, 0, 4, 0, 4}, {par::out(dst.id())},
               [&](idx i, idx j, idx k) {
                 dst(0, 0, 0) = static_cast<real>(i + j + k);
               });
  eng.device_sync();

  const ValidationReport rep = eng.take_validation_report();
  ASSERT_TRUE(rep.has(Check::StaleDeviceRead)) << rep.to_string();
  EXPECT_EQ(rep.find(Check::StaleDeviceRead)->array, "vf_src");
  // Both kernels touched exactly what they declared.
  EXPECT_FALSE(rep.has(Check::UndeclaredAccess)) << rep.to_string();
  EXPECT_FALSE(rep.has(Check::DeclaredWriteNotTouched)) << rep.to_string();
  EXPECT_EQ(rep.warnings(), 0) << rep.to_string();
#ifdef SIMAS_ELEMENT_SHADOW
  EXPECT_TRUE(rep.has(Check::DuplicateWrite)) << rep.to_string();
  EXPECT_EQ(rep.errors(), 2) << rep.to_string();
  EXPECT_EQ(count_check(rep, Check::ElementChecksUnavailable), 0)
      << rep.to_string();
  EXPECT_EQ(count_info(rep), 0) << rep.to_string();
#else
  EXPECT_FALSE(rep.has(Check::DuplicateWrite)) << rep.to_string();
  EXPECT_EQ(rep.errors(), 1) << rep.to_string();
  ASSERT_EQ(count_check(rep, Check::ElementChecksUnavailable), 1)
      << rep.to_string();
  EXPECT_EQ(count_info(rep), 1) << rep.to_string();
  const analysis::Diagnostic& note =
      *rep.find(Check::ElementChecksUnavailable);
  EXPECT_EQ(note.severity, Severity::Info);
  EXPECT_EQ(note.count, 1);
  EXPECT_NE(note.message.find("checked build"), std::string::npos);
  // Every drained report carries the note, so no later report reads as
  // element-clean either.
  const ValidationReport again = eng.take_validation_report();
  EXPECT_EQ(count_check(again, Check::ElementChecksUnavailable), 1);
  EXPECT_TRUE(again.clean());
#endif

  src.exit_data();
  dst.exit_data();
  (void)eng.take_validation_report();
}

}  // namespace
}  // namespace simas
