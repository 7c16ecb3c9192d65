#pragma once
// MasSolver: the top-level MAS-analog model. Owns the per-rank state and
// orchestrates one operator-split thermodynamic MHD step:
//
//   ghosts -> CFL -> center B/J -> advection+forces -> CT induction ->
//   implicit viscosity (PCG) -> implicit conduction (PCG/STS) ->
//   radiation+heating -> shell diagnostics
//
// which reproduces the kernel/communication stream structure of the MAS
// production runs benchmarked in the paper.

#include <memory>
#include <vector>

#include "grid/local_grid.hpp"
#include "grid/spherical_grid.hpp"
#include "mhd/config.hpp"
#include "mhd/ops.hpp"
#include "mhd/state.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/halo.hpp"

namespace simas::mhd {

struct StepStats {
  real dt = 0.0;
  int viscosity_iters = 0;   ///< PCG iterations across the 3 components
  int conduction_iters = 0;  ///< PCG iterations (or STS stages)
};

class MasSolver {
 public:
  MasSolver(par::Engine& engine, mpisim::Comm& comm, const SolverConfig& cfg);
  /// Ends the state's device data regions (balances the constructor's
  /// enter_device_data; runs after any timing capture).
  ~MasSolver();

  /// Hydrostatic-ish stratified atmosphere at rest threaded by a dipole
  /// field initialized from a vector potential (div B = 0 to round-off).
  void initialize();

  /// Take one time step; returns the step's dt and solver iteration counts.
  StepStats step();

  /// Take `nsteps` steps.
  void run(int nsteps);

  GlobalDiagnostics diagnostics();

  State& state() { return *state_; }
  const grid::LocalGrid& local_grid() const { return *lg_; }
  par::Engine& engine() { return engine_; }
  MhdContext& context() { return *ctx_; }
  const std::vector<real>& last_shell_profile() const { return shell_t_; }
  int steps_taken() const { return steps_; }

 private:
  par::Engine& engine_;
  mpisim::Comm& comm_;
  SolverConfig cfg_;
  std::unique_ptr<grid::SphericalGrid> grid_;
  mpisim::Slab slab_;
  std::unique_ptr<grid::LocalGrid> lg_;
  std::unique_ptr<State> state_;
  std::unique_ptr<mpisim::HaloExchanger> halo_;
  std::unique_ptr<MhdContext> ctx_;
  std::vector<real> shell_t_;
  int steps_ = 0;
};

}  // namespace simas::mhd
