// Property test for the halo exchange: under randomized rank counts, field
// counts, and grid shapes, the exchanged ghost layers must be bit-identical
// to the corresponding slice of a single-rank reference grid — for the
// synchronous path and for the overlapped begin/finish path alike. Also
// checks that over-limit field counts fail loudly on every entry point.
//
// This test is the workload of the ThreadSanitizer CI job: the overlapped
// path exercises the cross-rank mailboxes and the validator's in-flight
// markers from concurrently running rank threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "field/field.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/decomposition.hpp"
#include "mpisim/halo.hpp"
#include "util/rng.hpp"

namespace simas::mpisim {
namespace {

par::EngineConfig engine_config(bool overlap) {
  par::EngineConfig cfg;
  cfg.loops = par::LoopModel::Acc;
  cfg.memory = gpusim::MemoryMode::Manual;
  cfg.gpu = true;
  cfg.overlap_halo = overlap;
  return cfg;
}

/// Deterministic globally unique cell value, distinct per field.
real cell_value(int field, idx gi, idx j, idx k) {
  return static_cast<real>(field) * 1.0e6 + static_cast<real>(gi) * 1.0e4 +
         static_cast<real>(j) * 1.0e2 + static_cast<real>(k) +
         0.5;  // non-integer so an uninitialized zero can never match
}

int rand_int(Rng& rng, int lo, int hi) {  // inclusive bounds
  return lo + static_cast<int>(rng.uniform() * (hi - lo + 1));
}

struct TrialShape {
  idx nr, nt, np;
  int nranks, nfields;
};

TrialShape random_shape(Rng& rng) {
  TrialShape t;
  t.nr = rand_int(rng, 4, 20);
  t.nt = rand_int(rng, 2, 8);
  t.np = rand_int(rng, 4, 12);
  t.nranks = rand_int(rng, 1, std::min<int>(4, static_cast<int>(t.nr)));
  t.nfields = rand_int(rng, 1, 3);
  return t;
}

/// Run one trial: exchange on `nranks` ranks, then compare every radial
/// ghost plane against the single-rank reference slice bit-for-bit.
void run_trial(const TrialShape& t, bool overlap) {
  World world(t.nranks);
  world.run([&](int rank) {
    par::Engine eng(engine_config(overlap));
    Comm comm(world, rank, eng);
    const Slab slab = radial_slab(t.nr, t.nranks, rank);
    HaloExchanger halo(eng, comm, slab, slab.n(), t.nt, t.np);

    std::vector<std::unique_ptr<field::Field>> storage;
    std::vector<field::Field*> fields;
    for (int f = 0; f < t.nfields; ++f) {
      std::string name = std::to_string(f);
      name.insert(0, 1, 'f');
      storage.push_back(std::make_unique<field::Field>(
          eng, name, slab.n(), t.nt, t.np, 1));
      fields.push_back(storage.back().get());
      for (idx i = 0; i < slab.n(); ++i)
        for (idx j = 0; j < t.nt; ++j)
          for (idx k = 0; k < t.np; ++k)
            (*fields.back())(i, j, k) = cell_value(f, slab.ilo + i, j, k);
    }

    if (overlap) {
      const int h = halo.begin_exchange_r(fields);
      halo.finish_exchange_r(h);
    } else {
      halo.exchange_r(fields);
    }

    // Every ghost plane must equal the neighbour's boundary plane of the
    // single-rank reference grid, bitwise.
    for (int f = 0; f < t.nfields; ++f) {
      field::Field& fld = *fields[static_cast<std::size_t>(f)];
      for (idx j = 0; j < t.nt; ++j) {
        for (idx k = 0; k < t.np; ++k) {
          if (slab.rank_below >= 0) {
            ASSERT_EQ(fld(-1, j, k), cell_value(f, slab.ilo - 1, j, k))
                << "lo ghost, field " << f << " j=" << j << " k=" << k
                << " ranks=" << t.nranks << " overlap=" << overlap;
          }
          if (slab.rank_above >= 0) {
            ASSERT_EQ(fld(slab.n(), j, k), cell_value(f, slab.ihi, j, k))
                << "hi ghost, field " << f << " j=" << j << " k=" << k
                << " ranks=" << t.nranks << " overlap=" << overlap;
          }
          // Interior must be untouched.
          ASSERT_EQ(fld(0, j, k), cell_value(f, slab.ilo, j, k));
        }
      }
    }
  });
}

TEST(HaloProperty, RandomShapesMatchSingleRankReferenceSync) {
  Rng rng(0xC0FFEEull);
  for (int trial = 0; trial < 24; ++trial) {
    run_trial(random_shape(rng), /*overlap=*/false);
  }
}

TEST(HaloProperty, RandomShapesMatchSingleRankReferenceOverlapped) {
  Rng rng(0xC0FFEEull);  // same shapes as the sync sweep
  for (int trial = 0; trial < 24; ++trial) {
    run_trial(random_shape(rng), /*overlap=*/true);
  }
}

TEST(HaloProperty, BothSlotsUsableConcurrently) {
  // Two overlapped exchanges of disjoint field sets in flight at once —
  // the slot tags must keep their mailbox messages apart.
  World world(3);
  world.run([&](int rank) {
    par::Engine eng(engine_config(true));
    Comm comm(world, rank, eng);
    const Slab slab = radial_slab(9, 3, rank);
    HaloExchanger halo(eng, comm, slab, slab.n(), 3, 4);
    field::Field a(eng, "a", slab.n(), 3, 4, 1);
    field::Field b(eng, "b", slab.n(), 3, 4, 1);
    for (idx i = 0; i < slab.n(); ++i)
      for (idx j = 0; j < 3; ++j)
        for (idx k = 0; k < 4; ++k) {
          a(i, j, k) = cell_value(0, slab.ilo + i, j, k);
          b(i, j, k) = cell_value(1, slab.ilo + i, j, k);
        }
    const int ha = halo.begin_exchange_r({&a});
    const int hb = halo.begin_exchange_r({&b});
    EXPECT_NE(ha, hb);
    // A third begin must fail loudly: only kAsyncSlots exchanges may fly.
    EXPECT_THROW(halo.begin_exchange_r({&a}), std::logic_error);
    halo.finish_exchange_r(hb);
    halo.finish_exchange_r(ha);
    if (slab.rank_below >= 0) {
      EXPECT_EQ(a(-1, 1, 2), cell_value(0, slab.ilo - 1, 1, 2));
      EXPECT_EQ(b(-1, 1, 2), cell_value(1, slab.ilo - 1, 1, 2));
    }
    if (slab.rank_above >= 0) {
      EXPECT_EQ(a(slab.n(), 1, 2), cell_value(0, slab.ihi, 1, 2));
      EXPECT_EQ(b(slab.n(), 1, 2), cell_value(1, slab.ihi, 1, 2));
    }
  });
}

TEST(HaloProperty, OverLimitFieldCountsFailLoudly) {
  World world(2);
  world.run([&](int rank) {
    par::Engine eng(engine_config(true));
    Comm comm(world, rank, eng);
    const Slab slab = radial_slab(6, 2, rank);
    HaloExchanger halo(eng, comm, slab, slab.n(), 3, 4, /*max_fields=*/2);
    field::Field a(eng, "a", slab.n(), 3, 4, 1);
    field::Field b(eng, "b", slab.n(), 3, 4, 1);
    field::Field c(eng, "c", slab.n(), 3, 4, 1);
    EXPECT_THROW(halo.exchange_r({&a, &b, &c}), std::invalid_argument);
    EXPECT_THROW(halo.begin_exchange_r({&a, &b, &c}), std::invalid_argument);
    EXPECT_THROW(halo.wrap_phi({&a, &b, &c}), std::invalid_argument);
    EXPECT_THROW(halo.begin_exchange_r({}), std::invalid_argument);
    // The failed begins must not leak slots: both are still available.
    const int ha = halo.begin_exchange_r({&a});
    const int hb = halo.begin_exchange_r({&b});
    halo.finish_exchange_r(ha);
    halo.finish_exchange_r(hb);
    // Bad handles are rejected.
    EXPECT_THROW(halo.finish_exchange_r(-1), std::out_of_range);
    EXPECT_THROW(halo.finish_exchange_r(ha), std::logic_error);  // not active
  });
}

}  // namespace
}  // namespace simas::mpisim
