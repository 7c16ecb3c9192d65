#pragma once
// Diagnostic vocabulary of the kernel-stream validator ("simas-lint").
//
// Each Check is one of the silent porting hazards cataloged in the paper's
// Sec. IV: stale host/device copies under manual data management, missing
// or superfluous data clauses, loops that are not legal `do concurrent`,
// and reduction results consumed before a device wait. The validator
// (analysis/validator.hpp) emits one Diagnostic per (check, site, array)
// combination with an occurrence count, so a bug that fires every step
// does not flood the report.

#include <string>
#include <vector>

#include "util/types.hpp"

namespace simas::analysis {

enum class Severity { Info, Warning, Error };

const char* severity_name(Severity s);

enum class Check {
  // -- Coherence checker (Manual memory mode) --
  StaleDeviceRead,    ///< kernel reads an array whose host copy is newer
  StaleHostRead,      ///< host/MPI reads an array whose device copy is newer
  DiscardedDeviceWrites,  ///< exit_data(Delete)/unregister drops dirty device data
  KernelOutsideRegion,    ///< kernel access outside any data region (implicit
                          ///< per-kernel data motion: the Sec. IV perf hazard)
  UnbalancedDataRegion,   ///< redundant enter, exit without enter, update
                          ///< outside a region
  // -- Access-list verifier (shadow mode) --
  UndeclaredAccess,        ///< body touched an array missing from the Access list
  DeclaredWriteNotTouched, ///< declared write never touched (inflates cost model)
  // -- DC-legality & race checker --
  DuplicateWrite,       ///< two iterations of one loop wrote the same element
                        ///< (illegal under `do concurrent`)
  FusedConflict,        ///< element conflict between kernels sharing an ACC
                        ///< fusion chain (fusion would introduce a race)
  AsyncReductionNoWait, ///< reduction result consumed on the host while the
                        ///< site is still declared async-capable
  AsyncHostAccessNoSync,///< host pulled data with device writes still in
                        ///< flight on the async queue (no device_sync)
  // -- Overlapped halo exchange --
  InflightGhostRead,    ///< kernel read a ghost plane whose nonblocking
                        ///< exchange has not been finish()ed (RAW race
                        ///< against an unfinished recv)
  // -- Unified-memory hint correctness --
  PrefetchSpanMismatch, ///< the pending device prefetch's span does not
                        ///< cover the next device access: the kernel still
                        ///< demand-faults the uncovered pages, so the hint
                        ///< silently buys nothing (perf hazard, not a bug)
  UseAfterEvict,        ///< kernel accesses an array on the device after it
                        ///< was prefetched/paged to the host with no
                        ///< intervening device prefetch: every touch is a
                        ///< fresh demand migration (ping-pong hazard)
  // -- Build flavor --
  ElementChecksUnavailable  ///< note: this validator was built without
                            ///< element tagging (SIMAS_ELEMENT_SHADOW), so
                            ///< the access-list, DC-legality and in-flight
                            ///< element checks did not run
};

const char* check_name(Check c);
Severity check_severity(Check c);

/// One finding. `site` is the kernel-site name (or the data-API entry
/// point for memory events); `array` the offending array's registered
/// name; `op_index` the 1-based position in the rank's op stream at first
/// occurrence.
struct Diagnostic {
  Check check = Check::StaleDeviceRead;
  Severity severity = Severity::Error;
  std::string site;
  std::string array;
  /// Source provenance ("file:line") of the registering kernel site, when
  /// the emitting pass had the interned KernelSite at hand ("" otherwise).
  std::string location;
  i64 op_index = 0;
  i64 count = 1;  ///< occurrences folded into this entry
  std::string message;

  std::string to_string() const;
};

/// Everything the validator found over one Engine's op stream.
struct ValidationReport {
  std::vector<Diagnostic> diagnostics;
  i64 ops_checked = 0;

  int errors() const;
  int warnings() const;
  bool clean() const { return errors() == 0; }
  bool has(Check c) const;
  /// First diagnostic of the given check, or nullptr.
  const Diagnostic* find(Check c) const;
  std::string to_string() const;
};

}  // namespace simas::analysis
