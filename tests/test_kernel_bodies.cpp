// Straight-line cell bodies against the branchy bodies they replaced.
//
// The conduction diffusion operator and the PFSS Laplacian drop their
// zero-flux (and, for PFSS, Dirichlet) wall faces with selects instead of
// branches, so their loop bodies are straight-line code. The reference
// bodies below are the branchy versions verbatim. The physical-wall ghost
// planes of x and κ hold NaN and ±Inf: a wall term that leaked through a
// multiply-by-zero instead of a select would turn the result non-finite,
// and any reordering of the arithmetic would move its bits.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "mhd/ops.hpp"
#include "mhd/pfss.hpp"
#include "mhd/solver.hpp"
#include "mpisim/comm.hpp"
#include "variants/code_version.hpp"

namespace simas::mhd {
namespace {

SolverConfig stretched_cfg() {
  SolverConfig cfg;
  cfg.grid.nr = 12;
  cfg.grid.nt = 10;
  cfg.grid.np = 8;
  cfg.grid.r_stretch = 4.0;
  cfg.grid.t_stretch = 1.6;
  return cfg;
}

par::EngineConfig host_engine_config() {
  par::EngineConfig cfg = variants::engine_config(
      variants::CodeVersion::A, gpusim::a100_40gb(), 2);
  cfg.memory = gpusim::MemoryMode::HostOnly;
  cfg.gpu = false;
  return cfg;
}

/// Deterministic values in [0.5, 1.5) everywhere, ghosts included.
void fill_smooth(field::Field& f, std::uint64_t seed) {
  field::Array3& a = f.a();
  std::uint64_t s = seed;
  for (idx n = 0; n < a.size(); ++n) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    a.data()[n] = 0.5 + static_cast<real>(s >> 11) * 0x1.0p-53;
  }
}

/// NaN, +Inf and -Inf, cycling over the physical-wall ghost planes: the θ
/// ghost rows j = -1 and j = nt, and the radial ghost column of a slab
/// that touches the inner or outer wall.
void poison_walls(field::Field& f, const grid::LocalGrid& lg) {
  const real bad[3] = {std::numeric_limits<real>::quiet_NaN(),
                       std::numeric_limits<real>::infinity(),
                       -std::numeric_limits<real>::infinity()};
  const idx nloc = lg.nloc(), nt = lg.nt(), np = lg.np();
  int n = 0;
  for (idx k = -1; k <= np; ++k) {
    for (idx i = -1; i <= nloc; ++i) {
      f(i, -1, k) = bad[n++ % 3];
      f(i, nt, k) = bad[n++ % 3];
    }
    for (idx j = -1; j <= nt; ++j) {
      if (lg.at_inner_boundary()) f(-1, j, k) = bad[n++ % 3];
      if (lg.at_outer_boundary()) f(nloc, j, k) = bad[n++ % 3];
    }
  }
}

// The pre-rewrite conduction diffusion cell body, verbatim.
real branchy_diffusion(const MhdContext& c, const field::Field& x, idx i,
                       idx j, idx k) {
  const State& st = c.st;
  const grid::LocalGrid& lg = c.lg;
  const grid::Metric& mt = lg.metric();
  const idx nloc = st.nloc, nt = st.nt;
  const real xc = x(i, j, k);
  const real kc = st.wrk2(i, j, k);
  real flux = 0.0;
  if (!(lg.at_inner_boundary() && i == 0)) {
    const real kf = 0.5 * (kc + st.wrk2(i - 1, j, k));
    flux -= mt.area_r(i, j) * kf * (xc - x(i - 1, j, k)) / lg.drf(i);
  }
  if (!(lg.at_outer_boundary() && i == nloc - 1)) {
    const real kf = 0.5 * (kc + st.wrk2(i + 1, j, k));
    flux += mt.area_r(i + 1, j) * kf * (x(i + 1, j, k) - xc) /
            lg.drf(i + 1);
  }
  if (j > 0) {
    const real kf = 0.5 * (kc + st.wrk2(i, j - 1, k));
    flux -= mt.area_t(i, j) * kf * (xc - x(i, j - 1, k)) /
            (lg.rc(i) * lg.dtf(j));
  }
  if (j < nt - 1) {
    const real kf = 0.5 * (kc + st.wrk2(i, j + 1, k));
    flux += mt.area_t(i, j + 1) * kf * (x(i, j + 1, k) - xc) /
            (lg.rc(i) * lg.dtf(j + 1));
  }
  {
    const real kf0 = 0.5 * (kc + st.wrk2(i, j, k - 1));
    const real kf1 = 0.5 * (kc + st.wrk2(i, j, k + 1));
    flux += mt.coef_p(i, j) * (kf1 * (x(i, j, k + 1) - xc) -
                               kf0 * (xc - x(i, j, k - 1)));
  }
  return flux / mt.vol(i, j);
}

// The pre-rewrite PFSS Laplacian cell body, verbatim.
real branchy_pfss(const MhdContext& c, const field::Field& x, idx i, idx j,
                  idx k) {
  const grid::LocalGrid& lg = c.lg;
  const grid::Metric& mt = lg.metric();
  const idx nloc = c.st.nloc, nt = c.st.nt;
  const real xc = x(i, j, k);
  real flux = 0.0;
  if (!(lg.at_inner_boundary() && i == 0)) {
    flux -= mt.area_r(i, j) * (xc - x(i - 1, j, k)) / lg.drf(i);
  }
  if (lg.at_outer_boundary() && i == nloc - 1) {
    // Dirichlet Φ = 0 at the source surface: half-cell gradient.
    flux += mt.area_r(i + 1, j) * (0.0 - xc) / (0.5 * lg.drc(i));
  } else {
    flux += mt.area_r(i + 1, j) * (x(i + 1, j, k) - xc) / lg.drf(i + 1);
  }
  if (j > 0)
    flux -= mt.area_t(i, j) * (xc - x(i, j - 1, k)) /
            (lg.rc(i) * lg.dtf(j));
  if (j < nt - 1)
    flux += mt.area_t(i, j + 1) * (x(i, j + 1, k) - xc) /
            (lg.rc(i) * lg.dtf(j + 1));
  flux += mt.coef_p(i, j) * (x(i, j, k + 1) - 2.0 * xc + x(i, j, k - 1));
  // PCG solves A x = b with A = -∇·∇ (positive definite).
  return -flux / mt.vol(i, j);
}

/// Every owned cell of y equals ref(i, j, k) bit for bit and is finite.
/// Returns the number of mismatches (reported through gtest).
template <class Ref>
int compare_owned(const MhdContext& c, const field::Field& y, Ref&& ref,
                  const char* what, int rank) {
  int bad = 0;
  for (idx k = 0; k < c.st.np; ++k)
    for (idx j = 0; j < c.st.nt; ++j)
      for (idx i = 0; i < c.st.nloc; ++i) {
        const real got = y(i, j, k), want = ref(i, j, k);
        const bool ok = std::isfinite(got) &&
                        std::bit_cast<std::uint64_t>(got) ==
                            std::bit_cast<std::uint64_t>(want);
        if (!ok && ++bad <= 5)
          ADD_FAILURE() << what << " rank " << rank << " cell (" << i << ","
                        << j << "," << k << "): " << got << " vs " << want;
      }
  return bad;
}

TEST(KernelBodies, StraightLineDiffusionMatchesBranchyReference) {
  for (int nranks : {1, 2, 3}) {
    SCOPED_TRACE(nranks);
    mpisim::World world(nranks);
    world.run([&](int rank) {
      par::Engine engine(host_engine_config());
      mpisim::Comm comm(world, rank, engine);
      MasSolver solver(engine, comm, stretched_cfg());
      solver.initialize();
      MhdContext& c = solver.context();
      State& st = c.st;

      // Conduction: κ in wrk2 with exchanged ghosts, as conduction_update
      // leaves it; x's ghosts are exchanged by the operator itself.
      fill_smooth(st.wrk2, 11 + rank);
      finish_radial_exchange(c, post_radial_exchange(c, {&st.wrk2}));
      poison_walls(st.wrk2, c.lg);
      fill_smooth(st.pcg_p, 23 + rank);
      poison_walls(st.pcg_p, c.lg);
      conduction_diffusion(c, st.pcg_p, st.pcg_ap);
      EXPECT_EQ(compare_owned(
                    c, st.pcg_ap,
                    [&](idx i, idx j, idx k) {
                      return branchy_diffusion(c, st.pcg_p, i, j, k);
                    },
                    "conduction", rank),
                0);

      // PFSS Laplacian on a fresh poisoned x.
      fill_smooth(st.pcg_z, 37 + rank);
      poison_walls(st.pcg_z, c.lg);
      pfss_laplacian(c, st.pcg_z, st.pcg_r);
      EXPECT_EQ(compare_owned(
                    c, st.pcg_r,
                    [&](idx i, idx j, idx k) {
                      return branchy_pfss(c, st.pcg_z, i, j, k);
                    },
                    "pfss", rank),
                0);
    });
  }
}

}  // namespace
}  // namespace simas::mhd
