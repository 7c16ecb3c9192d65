#include "analysis/diagnostics.hpp"

#include <sstream>

namespace simas::analysis {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const char* check_name(Check c) {
  switch (c) {
    case Check::StaleDeviceRead: return "stale-device-read";
    case Check::StaleHostRead: return "stale-host-read";
    case Check::DiscardedDeviceWrites: return "discarded-device-writes";
    case Check::KernelOutsideRegion: return "kernel-outside-region";
    case Check::UnbalancedDataRegion: return "unbalanced-data-region";
    case Check::UndeclaredAccess: return "undeclared-access";
    case Check::DeclaredWriteNotTouched: return "declared-write-not-touched";
    case Check::DuplicateWrite: return "duplicate-write";
    case Check::FusedConflict: return "fused-conflict";
    case Check::AsyncReductionNoWait: return "async-reduction-no-wait";
    case Check::AsyncHostAccessNoSync: return "async-host-access-no-sync";
    case Check::InflightGhostRead: return "inflight-ghost-read";
    case Check::PrefetchSpanMismatch: return "prefetch-span-mismatch";
    case Check::UseAfterEvict: return "use-after-evict";
    case Check::ElementChecksUnavailable: return "element-checks-unavailable";
  }
  return "?";
}

Severity check_severity(Check c) {
  switch (c) {
    case Check::StaleDeviceRead:
    case Check::StaleHostRead:
    case Check::DiscardedDeviceWrites:
    case Check::UndeclaredAccess:
    case Check::DuplicateWrite:
    case Check::FusedConflict:
    case Check::AsyncReductionNoWait:
    case Check::AsyncHostAccessNoSync:
    case Check::InflightGhostRead:
      return Severity::Error;
    case Check::KernelOutsideRegion:
    case Check::UnbalancedDataRegion:
    case Check::DeclaredWriteNotTouched:
    case Check::PrefetchSpanMismatch:
    case Check::UseAfterEvict:
      return Severity::Warning;
    case Check::ElementChecksUnavailable:
      return Severity::Info;
  }
  return Severity::Error;
}

std::string Diagnostic::to_string() const {
  std::ostringstream ss;
  ss << severity_name(severity) << ": [" << check_name(check) << "] site '"
     << site << "'";
  if (!location.empty()) ss << " (" << location << ")";
  if (!array.empty()) ss << ", array '" << array << "'";
  ss << " (op " << op_index;
  if (count > 1) ss << ", x" << count;
  ss << "): " << message;
  return ss.str();
}

int ValidationReport::errors() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == Severity::Error) ++n;
  return n;
}

int ValidationReport::warnings() const {
  int n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == Severity::Warning) ++n;
  return n;
}

bool ValidationReport::has(Check c) const { return find(c) != nullptr; }

const Diagnostic* ValidationReport::find(Check c) const {
  for (const Diagnostic& d : diagnostics)
    if (d.check == c) return &d;
  return nullptr;
}

std::string ValidationReport::to_string() const {
  std::ostringstream ss;
  ss << "simas-lint: " << errors() << " error(s), " << warnings()
     << " warning(s) over " << ops_checked << " op(s)\n";
  for (const Diagnostic& d : diagnostics) ss << "  " << d.to_string() << "\n";
  return ss.str();
}

}  // namespace simas::analysis
