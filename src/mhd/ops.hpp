#pragma once
// Physics operators of the MAS-analog solver. Each function emits the same
// class of kernel/communication stream the corresponding MAS stage emits;
// all loops go through the rank's Engine so every code version accounts
// them per its execution model.

#include <initializer_list>
#include <span>
#include <vector>

#include "grid/local_grid.hpp"
#include "mhd/config.hpp"
#include "mhd/state.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/halo.hpp"
#include "par/site_table.hpp"
#include "par/stream.hpp"

namespace simas::mhd {

struct MhdContext {
  par::Engine& eng;
  mpisim::Comm& comm;
  mpisim::HaloExchanger& halo;
  const grid::LocalGrid& lg;
  const PhysicsConfig& phys;
  State& st;
};

// --- boundary.cpp -----------------------------------------------------
/// Fill ghost layers of the cell-centered fields: rank halos (r),
/// periodic wrap (φ), physical boundaries (r walls, θ walls).
void exchange_center_ghosts(MhdContext& c);
/// Physical-boundary ghosts only (no communication).
void apply_center_bcs(MhdContext& c);
/// Ghosts for the face-B fields (exchange + wrap + walls). Under
/// EngineConfig::overlap_halo the radial exchange rides the copy stream
/// while the φ wrap and wall kernels execute (none of them touch the
/// in-flight radial ghosts), and is finished at the end.
void apply_b_ghosts(MhdContext& c);

// The radial-sweep protocol of the overlapped halo (DESIGN.md §12). Every
// sweep whose stencil reads radial ghosts runs the same steps:
//   1. post_radial_exchange posts the radial exchange (nonblocking under
//      EngineConfig::overlap_halo on a rank with a radial neighbour and at
//      least two owned planes, synchronous otherwise) and wraps φ;
//   2. a RadialSplit decides whether an interior/boundary-shell split pays
//      and, when it does not, finishes the exchange at once; the sweep's
//      stencil kernels run over RadialSplit::interior;
//   3. RadialSplit::shell finishes the exchange, then covers the 0-2
//      planes next to an in-flight ghost with one combined launch.
// Exchange windows with no stencil to split (κ, face B) pair step 1 with
// finish_radial_exchange.

/// Post the radial exchange of `fields` and wrap φ for `wrap`. Returns the
/// pending handle when the overlapped path is active (step 1); otherwise
/// exchanges synchronously and returns -1.
int post_radial_exchange(MhdContext& c,
                         const std::vector<field::Field*>& fields,
                         const std::vector<field::Field*>& wrap);
inline int post_radial_exchange(MhdContext& c,
                                const std::vector<field::Field*>& fields) {
  return post_radial_exchange(c, fields, fields);
}
/// Complete a posted exchange (no-op for -1).
void finish_radial_exchange(MhdContext& c, int pending);

/// Interior/boundary-shell split of one radial stencil sweep. Built from
/// the sweep's pending exchange handle (-1 = already complete) and the
/// number of fields it carries. The split pays when the transfer time it
/// can hide (per the cost model) exceeds the extra shell launch; never for
/// unified memory, whose staged exchange serializes with compute (Fig. 4).
/// Without a split the constructor finishes the exchange and the interior
/// covers every owned plane, so the result is byte-identical either way.
class RadialSplit {
 public:
  RadialSplit(MhdContext& c, int pending, int nfields);

  /// Declared radial span of the interior launches' stencil reads of the
  /// exchanged fields: the ±1 stencil over [ilo, ihi) reaches
  /// [ilo-1, ihi]. Under a split the range is clipped off the in-flight
  /// ghost columns — Interior, or GhostLo/GhostHi when it abuts a physical
  /// wall (whose ghost has no neighbour). Without a split: Full.
  par::Span span() const { return span_; }

  /// Launch `cell(i, j, k)` over the interior planes (skipped when a
  /// split leaves none).
  template <class Cell>
  void interior(const par::KernelSite& site,
                std::initializer_list<par::Access> acc, Cell&& cell) const {
    if (ihi_ > ilo_) c_.eng.for_each(site, interior_range(), acc, cell);
  }

  /// True under a split: the planes next to an in-flight ghost still need
  /// shell(). Callers register the shell site only then.
  bool has_shell() const { return nshell_ > 0; }

  /// Finish the exchange, then launch `cell(i, j, k)` once over the shell
  /// planes the interior skipped, now that their ghost neighbours arrived.
  template <class Cell>
  void shell(const par::KernelSite& site, std::span<const par::Access> acc,
             const Cell& cell) {
    if (nshell_ == 0) return;
    finish_radial_exchange(c_, pending_);
    pending_ = -1;
    const idx first = shell_first_, last = shell_last_;
    c_.eng.for_each_n(
        site, par::Range3{0, nshell_, 0, c_.st.nt, 0, c_.st.np}, 1,
        [acc](int) { return acc; },
        [&cell, first, last](int) {
          return [&cell, first, last](idx s, idx j, idx k) {
            cell(s == 0 ? first : last, j, k);
          };
        });
  }

  /// One apply y = A x of an operator's stencil (solvers::Operator): every
  /// component over the interior, then, under a split, one shell launch
  /// running every component's body, declaring every component's reads,
  /// then every component's writes, at the stencil's site, surface-scaled,
  /// with "_shell" appended.
  template <class Stencil>
  void apply(const Stencil& s, const std::vector<field::Field*>& x,
             const std::vector<field::Field*>& y) {
    const int n = static_cast<int>(x.size());
    if (ihi_ > ilo_)
      c_.eng.for_each_n(
          s.site, interior_range(), n,
          [&](int comp) { return s.access_of(*x[comp], *y[comp], span_); },
          [&](int comp) { return s.body_of(*x[comp], *y[comp]); });
    if (!has_shell()) return;
    static const par::KernelSite& shell_site = [&]() -> const auto& {
      par::KernelSite proto = s.site;
      proto.name += "_shell";
      proto.surface_scaled = true;
      return par::SiteTable::process().intern(proto);
    }();
    std::vector<par::Access> acc;
    for (const bool write : {false, true})
      for (int comp = 0; comp < n; ++comp)
        for (const par::Access& a :
             s.access_of(*x[comp], *y[comp], par::Span::Full))
          if (a.write == write) acc.push_back(a);
    shell(shell_site, acc, [&](idx i, idx j, idx k) {
      for (int comp = 0; comp < n; ++comp)
        s.body_of(*x[comp], *y[comp])(i, j, k);
    });
  }

 private:
  par::Range3 interior_range() const {
    return par::Range3{ilo_, ihi_, 0, c_.st.nt, 0, c_.st.np};
  }

  MhdContext& c_;
  int pending_;
  idx ilo_ = 0, ihi_ = 0;
  par::Span span_ = par::Span::Full;
  idx nshell_ = 0, shell_first_ = 0, shell_last_ = 0;
};

/// The halo step of an implicit solve's operator (solvers::Operator):
/// post x's radial exchange, wrap φ and return the split. Viscosity and
/// conduction overlap through the split; PFSS (`overlap` false) runs
/// exchange_r then wrap_phi, so its op stream does not move under
/// overlap_halo.
struct OperatorHalo {
  MhdContext& c;
  bool overlap = true;
  RadialSplit operator()(const std::vector<field::Field*>& x) const {
    if (overlap) return {c, post_radial_exchange(c, x), int(x.size())};
    c.halo.exchange_r(x);
    c.halo.wrap_phi(x);
    return {c, -1, int(x.size())};
  }
};

/// Overlapped exchange_center_ghosts: post the radial exchange of the
/// centered fields, then fill every locally computable ghost (φ wrap,
/// physical BCs) while the halos are in flight. Returns the pending
/// handle, which advect_and_forces finishes; falls back to the
/// synchronous exchange_center_ghosts and returns -1 when overlap is
/// inactive.
int begin_exchange_center_ghosts(MhdContext& c);

// --- cfl.cpp ----------------------------------------------------------
/// Globally synchronized explicit stable time step (fast-mode + resistive).
real cfl_timestep(MhdContext& c);

// --- lorentz.cpp -------------------------------------------------------
/// Interpolate face B to centers (bcr, bct, bcp).
void compute_center_b(MhdContext& c);
/// J on edges (stored in er, et, ep) from face B.
void compute_edge_current(MhdContext& c);
/// Average edge J to centers (jcr, jct, jcp). Requires edge J in er/et/ep
/// with φ ghosts wrapped.
void average_j_to_center(MhdContext& c);

// --- advection.cpp ----------------------------------------------------
/// Upwind advection plus pressure gradient, gravity, and Lorentz force.
/// Produces predictor values in wrk1..wrk5 and copies them back.
/// `pending_center` is the handle returned by begin_exchange_center_ghosts
/// (-1 = none): when the split pays, the five predictors run over the
/// interior while the halos are in flight and one combined boundary-shell
/// launch covers the freshly unpacked planes after finish; otherwise the
/// exchange is finished up front and the predictors run full-range.
void advect_and_forces(MhdContext& c, real dt, int pending_center = -1);

// --- resistive.cpp ----------------------------------------------------
/// Constrained-transport update of face B with E = -v x B + η J.
/// Preserves div B = 0 to round-off.
void ct_update(MhdContext& c, real dt);

// --- viscosity.cpp ----------------------------------------------------
/// Implicit viscous update (I - dt ν ∇²) v = v*, one PCG solve per
/// component. Returns total PCG iterations (the Fig. 4 "viscosity solver"
/// workload). Negative on non-convergence.
int viscous_update(MhdContext& c, real dt);

// --- conduction.cpp ---------------------------------------------------
/// Implicit Spitzer conduction (ρ/(γ-1) - dt ∇·κ(T)∇) T = ρ/(γ-1) T*,
/// PCG; or RKL2 super-time-stepping when phys.sts_conduction is set.
/// Returns iterations (PCG) or stages (STS).
int conduction_update(MhdContext& c, real dt);
/// y = ∇·(κ ∇x) over the owned cells (conduction_stencil, operators.hpp),
/// after x's halo step (overlapped when the split pays).
void conduction_diffusion(MhdContext& c, field::Field& x, field::Field& y);

// --- source_terms.cpp -------------------------------------------------
/// Semi-implicit pointwise radiative-loss + coronal-heating update.
void radiation_heating(MhdContext& c, real dt);

// --- diagnostics.cpp --------------------------------------------------
/// Mean temperature per local radial shell (array-reduction kernel class,
/// paper Listings 3-5). `out` is resized to nloc.
void shell_mean_temperature(MhdContext& c, std::vector<real>& out);

struct GlobalDiagnostics {
  real total_mass = 0.0;
  real kinetic_energy = 0.0;
  real magnetic_energy = 0.0;
  real thermal_energy = 0.0;
  real max_div_b = 0.0;   ///< max |div B| (should stay at round-off)
  real max_speed = 0.0;
};
/// Globally reduced diagnostics (several scalar-reduction kernels).
GlobalDiagnostics global_diagnostics(MhdContext& c);

/// Discrete div B at one interior cell (host-side; tests/diagnostics).
real div_b_cell(const grid::LocalGrid& lg, const State& st, idx i, idx j,
                idx k);

}  // namespace simas::mhd
