#pragma once
// Per-rank modeled clock with categorized time accounting.
//
// Every rank in the simulation owns one ClockLedger. Kernel launches,
// memory migrations, and MPI operations advance the modeled clock; the
// category split lets the benchmark harness reproduce the paper's Fig. 3
// (wall = MPI + non-MPI) exactly as the authors define MPI time:
// "all MPI calls, buffer initialization/loading/unloading, and MPI waiting
// caused by load imbalance".

#include <array>

#include "util/types.hpp"

namespace simas::gpusim {

enum class TimeCategory : int {
  Compute = 0,   ///< kernel execution (bytes / bandwidth)
  LaunchGap = 1, ///< kernel launch overhead and UM inter-kernel gaps
  DataMotion = 2,///< non-MPI host<->device migration (setup, UM faults)
  Mpi = 3,       ///< transfers, buffer packing, waits (paper's maroon bars)
  kCount = 4,
};

class ClockLedger {
 public:
  /// Advance the clock by dt (>= 0), attributing it to the category.
  void advance(double dt, TimeCategory cat);

  /// Jump the clock forward to absolute time t (if in the future) and
  /// attribute the waited interval to the category. Returns the wait length.
  double wait_until(double t, TimeCategory cat);

  double now() const { return now_; }
  double total(TimeCategory cat) const {
    return totals_[static_cast<int>(cat)];
  }
  double mpi_time() const { return total(TimeCategory::Mpi); }
  double non_mpi_time() const { return now_ - mpi_time(); }

  void reset();

  // ---- Copy stream (overlapped halo exchange) ----
  // A second per-rank timeline modeling the DMA/copy engine: nonblocking
  // sends enqueue their transfer here instead of advancing the compute
  // clock. Busy intervals on this stream overlap the compute stream; the
  // compute clock only pays when it waits on a transfer's completion time
  // (Comm::wait -> wait_until). Transfer time absorbed behind compute is
  // recorded as hidden MPI time so the harness can split exposed vs hidden.

  /// Enqueue a transfer of length `cost` on the copy stream. The transfer
  /// starts when both the stream is free and the compute clock has issued
  /// it (max(now, copy_free_at)); returns the completion time.
  double copy_enqueue(double cost);

  /// Attribute transfer time that the copy stream absorbed behind compute.
  void note_hidden_mpi(double dt) {
    if (dt > 0.0) hidden_mpi_ += dt;
  }
  double hidden_mpi_time() const { return hidden_mpi_; }

 private:
  double now_ = 0.0;
  double copy_free_at_ = 0.0;
  double hidden_mpi_ = 0.0;
  std::array<double, static_cast<int>(TimeCategory::kCount)> totals_{};
};

}  // namespace simas::gpusim
