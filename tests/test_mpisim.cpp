#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "field/field.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/decomposition.hpp"
#include "mpisim/halo.hpp"
#include "variants/code_version.hpp"
#include "watchdog.hpp"

namespace simas::mpisim {
namespace {

par::EngineConfig manual_gpu() {
  par::EngineConfig cfg;
  cfg.loops = par::LoopModel::Acc;
  cfg.memory = gpusim::MemoryMode::Manual;
  cfg.gpu = true;
  return cfg;
}

TEST(Decomposition, CoversAllCellsContiguously) {
  for (const idx nr : {7, 8, 24, 33}) {
    for (const int nranks : {1, 2, 3, 4, 7}) {
      if (static_cast<idx>(nranks) > nr) continue;
      idx covered = 0;
      idx prev_end = 0;
      for (int r = 0; r < nranks; ++r) {
        const Slab s = radial_slab(nr, nranks, r);
        EXPECT_EQ(s.ilo, prev_end);
        EXPECT_GT(s.n(), 0);
        prev_end = s.ihi;
        covered += s.n();
        EXPECT_EQ(s.rank_below, r == 0 ? -1 : r - 1);
        EXPECT_EQ(s.rank_above, r == nranks - 1 ? -1 : r + 1);
      }
      EXPECT_EQ(covered, nr);
      EXPECT_EQ(prev_end, nr);
    }
  }
}

TEST(Decomposition, BalancedWithinOneCell) {
  const Slab a = radial_slab(10, 3, 0);
  const Slab b = radial_slab(10, 3, 1);
  const Slab c = radial_slab(10, 3, 2);
  EXPECT_LE(a.n() - c.n(), 1);
  EXPECT_GE(a.n(), b.n());
}

TEST(Decomposition, RejectsBadArguments) {
  EXPECT_THROW(radial_slab(4, 0, 0), std::invalid_argument);
  EXPECT_THROW(radial_slab(4, 2, 2), std::invalid_argument);
  EXPECT_THROW(radial_slab(4, 5, 0), std::invalid_argument);
}

TEST(World, RunsAllRanksAndPropagatesExceptions) {
  World world(4);
  std::vector<int> hit(4, 0);
  world.run([&](int r) { hit[static_cast<std::size_t>(r)] = 1; });
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), 0), 4);

  World world2(2);
  EXPECT_THROW(world2.run([&](int r) {
    if (r == 1) throw std::runtime_error("rank failure");
  }),
               std::runtime_error);
}

// ---- Abort rule: a throwing rank must not hang its peers -------------
// Each test arms a watchdog, so a regression fails in bounded time
// instead of wedging the test runner.

TEST(World, ThrowingRankWakesPeerBlockedInRecv) {
  testutil::Watchdog watchdog(30);
  World world(2);
  bool peer_threw = false;
  try {
    world.run([&](int rank) {
      par::Engine eng(manual_gpu());
      Comm comm(world, rank, eng);
      const auto buf = eng.memory().register_array(
          "buf", 8 * 8, gpusim::ScaleClass::Surface);
      std::vector<real> data(8, 1.0);
      if (rank == 0) throw std::runtime_error("rank 0 failed before send");
      try {
        comm.recv(0, 5, data, buf);
      } catch (const std::runtime_error&) {
        peer_threw = true;
        throw;
      }
    });
    ADD_FAILURE() << "World::run returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 failed before send");
  }
  EXPECT_TRUE(peer_threw);
}

TEST(World, ThrowingRankWakesPeerBlockedInAllreduce) {
  testutil::Watchdog watchdog(30);
  World world(2);
  try {
    world.run([&](int rank) {
      par::Engine eng(manual_gpu());
      Comm comm(world, rank, eng);
      if (rank == 0) throw std::runtime_error("rank 0 failed first");
      (void)comm.allreduce_sum(1.0);
    });
    ADD_FAILURE() << "World::run returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 failed first");
  }
}

TEST(World, RethrowsOriginatingErrorAndStaysReusable) {
  testutil::Watchdog watchdog(30);
  World world(3);
  // Rank 2 leaves a message nobody receives and fails; rank 0 (blocked
  // in recv) and rank 1 (blocked in a collective) abort. The rethrown
  // error is rank 2's, not the lowest-index rank's.
  try {
    world.run([&](int rank) {
      par::Engine eng(manual_gpu());
      Comm comm(world, rank, eng);
      const auto buf = eng.memory().register_array(
          "buf", 8 * 8, gpusim::ScaleClass::Surface);
      std::vector<real> data(8, 7.0);
      if (rank == 0) comm.recv(2, 9, data, buf);
      if (rank == 1) (void)comm.allreduce_sum(1.0);
      if (rank == 2) {
        comm.send(1, 9, data, buf);
        throw std::runtime_error("rank 2 failed");
      }
    });
    ADD_FAILURE() << "World::run returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 failed");
  }

  // The failed run's stale message and half-arrived collective are gone.
  std::vector<double> sums(3, 0.0);
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const auto buf = eng.memory().register_array(
        "buf", 8 * 8, gpusim::ScaleClass::Surface);
    std::vector<real> data(8, static_cast<real>(rank));
    if (rank == 2) comm.send(1, 9, data, buf);
    if (rank == 1) {
      comm.recv(2, 9, data, buf);
      EXPECT_DOUBLE_EQ(data[0], 2.0);
    }
    sums[static_cast<std::size_t>(rank)] = comm.allreduce_sum(rank + 1.0);
  });
  for (const double s : sums) EXPECT_DOUBLE_EQ(s, 6.0);
}

TEST(World, AbandonedWaitsThrowWorldAborted) {
  testutil::Watchdog watchdog(30);
  World world(3);
  std::vector<int> aborted(3, 0);
  EXPECT_THROW(world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const auto buf = eng.memory().register_array(
        "buf", 8 * 8, gpusim::ScaleClass::Surface);
    std::vector<real> data(8, 0.0);
    try {
      if (rank == 0) throw std::logic_error("origin");
      if (rank == 1) comm.recv(0, 1, data, buf);
      if (rank == 2) (void)comm.allreduce_max(1.0);
    } catch (const WorldAborted&) {
      aborted[static_cast<std::size_t>(rank)] = 1;
      throw;
    }
  }),
               std::logic_error);
  EXPECT_EQ(aborted, (std::vector<int>{0, 1, 1}));
}

TEST(Comm, SendRecvDeliversPayload) {
  World world(2);
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const auto buf = eng.memory().register_array(
        "buf", 64 * 8, gpusim::ScaleClass::Surface);
    eng.memory().enter_data(buf);
    if (rank == 0) {
      std::vector<real> data(64);
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<real>(i) * 1.5;
      comm.send(1, 7, data, buf);
    } else {
      std::vector<real> data(64, 0.0);
      comm.recv(0, 7, data, buf);
      for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_DOUBLE_EQ(data[i], static_cast<real>(i) * 1.5);
    }
  });
}

TEST(Comm, RecvWaitsForSenderModeledClock) {
  World world(2);
  double receiver_wait = -1.0;
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const auto buf = eng.memory().register_array(
        "buf", 8 * 8, gpusim::ScaleClass::Surface);
    eng.memory().enter_data(buf);
    std::vector<real> data(8, 1.0);
    if (rank == 0) {
      // Sender is "busy" for 1 modeled second before sending.
      eng.ledger().advance(1.0, gpusim::TimeCategory::Compute);
      comm.send(1, 1, data, buf);
    } else {
      comm.recv(0, 1, data, buf);
      receiver_wait = eng.ledger().mpi_time();
      EXPECT_GE(eng.ledger().now(), 1.0);  // synced past the sender's clock
    }
  });
  EXPECT_GE(receiver_wait, 1.0);  // load-imbalance wait counted as MPI
}

TEST(Comm, SelfSendRecvWorks) {
  World world(1);
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const auto buf = eng.memory().register_array(
        "buf", 16 * 8, gpusim::ScaleClass::Surface);
    eng.memory().enter_data(buf);
    std::vector<real> data(16, 3.0);
    comm.send(0, 2, data, buf);
    std::vector<real> got(16, 0.0);
    comm.recv(0, 2, got, buf);
    EXPECT_DOUBLE_EQ(got[5], 3.0);
    EXPECT_GT(eng.ledger().mpi_time(), 0.0);
  });
}

TEST(Comm, AllreduceSumAndMaxAreExactAndSynchronizing) {
  for (const int nranks : {1, 2, 3, 5, 8}) {
    World world(nranks);
    world.run([&](int rank) {
      par::Engine eng(manual_gpu());
      Comm comm(world, rank, eng);
      // Unequal work before the collective.
      eng.ledger().advance(0.1 * rank, gpusim::TimeCategory::Compute);
      const double s = comm.allreduce_sum(static_cast<double>(rank + 1));
      EXPECT_DOUBLE_EQ(s, nranks * (nranks + 1) / 2.0);
      const double m = comm.allreduce_max(static_cast<double>(rank));
      EXPECT_DOUBLE_EQ(m, nranks - 1.0);
      // Every rank's clock must be past the slowest participant's arrival.
      EXPECT_GE(eng.ledger().now(), 0.1 * (nranks - 1));
    });
  }
}

TEST(Comm, AllreduceMaxPropagatesNanFromAnyRank) {
  for (const int nranks : {2, 3}) {
    for (int nan_rank = 0; nan_rank < nranks; ++nan_rank) {
      World world(nranks);
      world.run([&](int rank) {
        par::Engine eng(manual_gpu());
        Comm comm(world, rank, eng);
        const double v = rank == nan_rank
                             ? std::numeric_limits<double>::quiet_NaN()
                             : 10.0 + rank;
        const double m = comm.allreduce_max(v);
        EXPECT_TRUE(std::isnan(m)) << "NaN on rank " << nan_rank << " of "
                                   << nranks << ": rank " << rank
                                   << " got " << m;
      });
    }
  }
}

TEST(Comm, UnifiedMemoryStagesThroughHost) {
  World world(2);
  world.run([&](int rank) {
    par::EngineConfig cfg = manual_gpu();
    cfg.memory = gpusim::MemoryMode::Unified;
    cfg.loops = par::LoopModel::Dc2x;
    par::Engine eng(cfg);
    Comm comm(world, rank, eng);
    const auto buf = eng.memory().register_array(
        "buf", 1 << 16, gpusim::ScaleClass::Surface);
    // Touch on device so the send must page it back out.
    eng.memory().on_device_access(buf, 1 << 16,
                                  gpusim::TimeCategory::DataMotion);
    std::vector<real> data((1 << 16) / 8, 1.0);
    if (rank == 0) {
      comm.send(1, 3, data, buf);
      EXPECT_GT(eng.memory().um_stats().d2h_bytes, 0);  // paged out to send
    } else {
      comm.recv(0, 3, data, buf);
      EXPECT_GT(eng.ledger().mpi_time(), 0.0);
    }
  });
}

TEST(Comm, ManualDeviceBuffersGoPeerToPeer) {
  World world(2);
  std::vector<double> mpi_time(2, 0.0);
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const auto buf = eng.memory().register_array(
        "buf", 1 << 16, gpusim::ScaleClass::Surface);
    eng.memory().enter_data(buf);
    EXPECT_TRUE(eng.memory().device_direct_eligible(buf));
    std::vector<real> data((1 << 16) / 8, 1.0);
    if (rank == 0) comm.send(1, 4, data, buf);
    if (rank == 1) comm.recv(0, 4, data, buf);
    mpi_time[static_cast<std::size_t>(rank)] = eng.ledger().mpi_time();
  });
  // The sender paid a P2P transfer; no UM migration costs anywhere.
  EXPECT_GT(mpi_time[0], 0.0);
}

// ---- Nonblocking point-to-point ------------------------------------

TEST(Comm, IsendIrecvWaitDeliversPayload) {
  World world(2);
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const auto buf = eng.memory().register_array(
        "buf", 64 * 8, gpusim::ScaleClass::Surface);
    eng.memory().enter_data(buf);
    std::vector<real> data(64, 0.0);
    if (rank == 0) {
      std::iota(data.begin(), data.end(), 1.0);
      comm.isend(1, 7, data, buf);
    } else {
      Request req = comm.irecv(0, 7, data, buf);
      EXPECT_TRUE(req.active);
      EXPECT_DOUBLE_EQ(data[10], 0.0);  // nothing lands before wait()
      comm.wait(req);
      EXPECT_FALSE(req.active);
      for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_DOUBLE_EQ(data[i], static_cast<real>(i) + 1.0);
      comm.wait(req);  // a completed request is a no-op
    }
  });
}

TEST(Comm, RecvAndIrecvWaitLeaveIdenticalLedgers) {
  for (const auto mode :
       {gpusim::MemoryMode::Manual, gpusim::MemoryMode::Unified}) {
    std::vector<gpusim::ClockLedger> by_recv(2), by_wait(2);
    for (const bool split : {false, true}) {
      World world(2);
      world.run([&](int rank) {
        par::EngineConfig cfg = manual_gpu();
        cfg.memory = mode;
        par::Engine eng(cfg);
        Comm comm(world, rank, eng);
        const auto buf = eng.memory().register_array(
            "buf", 1 << 12, gpusim::ScaleClass::Surface);
        if (mode == gpusim::MemoryMode::Manual)
          eng.memory().enter_data(buf);
        else
          eng.memory().on_device_access(buf, 1 << 12,
                                        gpusim::TimeCategory::DataMotion);
        std::vector<real> data((1 << 12) / 8, 2.0);
        if (rank == 0) {
          eng.ledger().advance(1.0e-3, gpusim::TimeCategory::Compute);
          comm.send(1, 3, data, buf);
        } else if (split) {
          Request req = comm.irecv(0, 3, data, buf);
          comm.wait(req);
        } else {
          comm.recv(0, 3, data, buf);
        }
        (split ? by_wait : by_recv)[static_cast<std::size_t>(rank)] =
            eng.ledger();
      });
    }
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(by_recv[r].now(), by_wait[r].now());
      for (int c = 0; c < static_cast<int>(gpusim::TimeCategory::kCount); ++c)
        EXPECT_EQ(by_recv[r].total(static_cast<gpusim::TimeCategory>(c)),
                  by_wait[r].total(static_cast<gpusim::TimeCategory>(c)));
      EXPECT_EQ(by_recv[r].hidden_mpi_time(), by_wait[r].hidden_mpi_time());
    }
    EXPECT_GT(by_recv[1].mpi_time(), 0.0);
  }
}

/// Rank 0's ledger movement across one isend (rank 1 receives it).
struct IsendDeltas {
  double clock = 0.0;   ///< compute-clock advance
  double mpi = 0.0;     ///< MPI category advance
  double hidden = 0.0;  ///< hidden (copy-stream) MPI time
  double latency = 0.0; ///< the device's posting latency
  double p2p_cost = 0.0, um_prefetch_cost = 0.0;  ///< modeled transfer rates
};

template <class Setup>
IsendDeltas isend_deltas(const par::EngineConfig& cfg, Setup setup) {
  constexpr i64 kBytes = 1 << 16;
  IsendDeltas out;
  World world(2);
  world.run([&](int rank) {
    par::Engine eng(cfg);
    Comm comm(world, rank, eng);
    const auto buf = eng.memory().register_array(
        "buf", kBytes, gpusim::ScaleClass::Surface);
    setup(eng, buf);
    std::vector<real> data(kBytes / sizeof(real), 1.0);
    if (rank == 1) {
      comm.recv(0, 4, data, buf);
      return;
    }
    const double now0 = eng.ledger().now();
    const double mpi0 = eng.ledger().mpi_time();
    comm.isend(1, 4, data, buf);
    out.clock = eng.ledger().now() - now0;
    out.mpi = eng.ledger().mpi_time() - mpi0;
    out.hidden = eng.ledger().hidden_mpi_time();
    out.latency = eng.cost().device().p2p_latency_s;
    out.p2p_cost =
        eng.cost().p2p_transfer_time(kBytes, gpusim::ScaleClass::Surface);
    out.um_prefetch_cost =
        eng.cost().um_prefetch_time(kBytes, gpusim::ScaleClass::Surface);
  });
  return out;
}

par::EngineConfig unified_gpu() {
  par::EngineConfig cfg = manual_gpu();
  cfg.memory = gpusim::MemoryMode::Unified;
  cfg.loops = par::LoopModel::Dc2x;
  return cfg;
}

TEST(Comm, ManualDeviceIsendChargesOnlyThePostingLatency) {
  const IsendDeltas d =
      isend_deltas(manual_gpu(), [](par::Engine& eng, gpusim::ArrayId buf) {
        eng.memory().enter_data(buf);
      });
  EXPECT_DOUBLE_EQ(d.clock, d.latency);
  EXPECT_DOUBLE_EQ(d.mpi, d.latency);
  EXPECT_DOUBLE_EQ(d.hidden, d.p2p_cost);  // the transfer rode the copy stream
  EXPECT_GT(d.hidden, d.latency);
}

TEST(Comm, UnifiedIsendWithoutHintsSerializes) {
  const IsendDeltas d =
      isend_deltas(unified_gpu(), [](par::Engine& eng, gpusim::ArrayId buf) {
        eng.memory().on_device_access(buf, 1 << 16,
                                      gpusim::TimeCategory::DataMotion);
      });
  EXPECT_EQ(d.hidden, 0.0);     // nothing overlapped
  EXPECT_GT(d.mpi, d.latency);  // page-out + staged copy on the compute clock
  EXPECT_DOUBLE_EQ(d.clock, d.mpi);
}

TEST(Comm, UnifiedIsendAdvisedPreferredHostOverlaps) {
  const IsendDeltas d =
      isend_deltas(unified_gpu(), [](par::Engine& eng, gpusim::ArrayId buf) {
        eng.mem_advise(buf, par::MemHint::AdvisePreferredHost);
        EXPECT_TRUE(eng.memory().staging_overlap_eligible(buf));
      });
  EXPECT_DOUBLE_EQ(d.hidden, d.um_prefetch_cost);  // on the copy engine
  EXPECT_GT(d.hidden, 0.0);
  EXPECT_LT(d.clock, d.hidden);
  EXPECT_DOUBLE_EQ(d.clock, d.mpi);
}

class HaloRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HaloRoundTrip, ExchangeRMovesBoundaryPlanes) {
  const int nranks = GetParam();
  const idx nr = 12, nt = 5, np = 6;
  World world(nranks);
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const Slab slab = radial_slab(nr, nranks, rank);
    HaloExchanger halo(eng, comm, slab, slab.n(), nt, np);
    field::Field f(eng, "f", slab.n(), nt, np, 1);
    // Fill with globally identifiable values.
    for (idx i = 0; i < slab.n(); ++i)
      for (idx j = 0; j < nt; ++j)
        for (idx k = 0; k < np; ++k)
          f(i, j, k) = static_cast<real>((slab.ilo + i) * 10000 + j * 100 + k);
    halo.exchange_r({&f});
    if (slab.rank_below >= 0) {
      EXPECT_DOUBLE_EQ(f(-1, 2, 3),
                       static_cast<real>((slab.ilo - 1) * 10000 + 203));
    }
    if (slab.rank_above >= 0) {
      EXPECT_DOUBLE_EQ(f(slab.n(), 1, 4),
                       static_cast<real>((slab.ihi) * 10000 + 104));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, HaloRoundTrip,
                         ::testing::Values(1, 2, 3, 4));

TEST(Halo, WrapPhiIsPeriodic) {
  World world(1);
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const Slab slab = radial_slab(4, 1, 0);
    HaloExchanger halo(eng, comm, slab, 4, 3, 5);
    field::Field f(eng, "f", 4, 3, 5, 1);
    for (idx i = 0; i < 4; ++i)
      for (idx j = 0; j < 3; ++j)
        for (idx k = 0; k < 5; ++k) f(i, j, k) = 100.0 * i + 10.0 * j + k;
    halo.wrap_phi({&f});
    for (idx i = 0; i < 4; ++i)
      for (idx j = 0; j < 3; ++j) {
        EXPECT_DOUBLE_EQ(f(i, j, -1), f(i, j, 4));   // ghost -1 = plane np-1
        EXPECT_DOUBLE_EQ(f(i, j, 5), f(i, j, 0));    // ghost np = plane 0
      }
  });
}

TEST(Halo, BytesSentMatchesPayloadFormula) {
  const idx nr = 12, nt = 5, np = 6;
  for (const int nranks : {1, 2, 3}) {
    World world(nranks);
    world.run([&](int rank) {
      par::Engine eng(manual_gpu());
      Comm comm(world, rank, eng);
      const Slab slab = radial_slab(nr, nranks, rank);
      HaloExchanger halo(eng, comm, slab, slab.n(), nt, np);
      field::Field a(eng, "a", slab.n(), nt, np, 1);
      field::Field b(eng, "b", slab.n(), nt, np, 1);
      EXPECT_EQ(halo.bytes_sent(), 0);

      // Radial: one message of nf x (nt+1) x np reals per neighbour,
      // counted on the sending rank.
      halo.exchange_r({&a, &b});
      const i64 neighbors =
          (slab.rank_below >= 0 ? 1 : 0) + (slab.rank_above >= 0 ? 1 : 0);
      const i64 r_payload = static_cast<i64>(nt + 1) * np * 2 *
                            static_cast<i64>(sizeof(real));
      EXPECT_EQ(halo.bytes_sent_r(), neighbors * r_payload);
      EXPECT_EQ(halo.bytes_sent_phi(), 0);

      // φ wrap: a self-exchange is one send like any other — counted
      // once, at the full two-plane payload.
      halo.wrap_phi({&a});
      const i64 phi_payload = static_cast<i64>(slab.n() + 1) * (nt + 1) * 2 *
                              static_cast<i64>(sizeof(real));
      EXPECT_EQ(halo.bytes_sent_phi(), phi_payload);
      EXPECT_EQ(halo.bytes_sent(), neighbors * r_payload + phi_payload);
    });
  }
}

TEST(Halo, OverlappedExchangeCountsSameBytes) {
  const idx nr = 12, nt = 5, np = 6;
  World world(2);
  std::vector<i64> sync_bytes(2, 0), async_bytes(2, 0);
  for (const bool overlap : {false, true}) {
    world.run([&](int rank) {
      par::EngineConfig cfg = manual_gpu();
      cfg.overlap_halo = overlap;
      par::Engine eng(cfg);
      Comm comm(world, rank, eng);
      const Slab slab = radial_slab(nr, 2, rank);
      HaloExchanger halo(eng, comm, slab, slab.n(), nt, np);
      field::Field f(eng, "f", slab.n(), nt, np, 1);
      if (overlap) {
        const int h = halo.begin_exchange_r({&f});
        halo.finish_exchange_r(h);
        async_bytes[static_cast<std::size_t>(rank)] = halo.bytes_sent();
      } else {
        halo.exchange_r({&f});
        sync_bytes[static_cast<std::size_t>(rank)] = halo.bytes_sent();
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(sync_bytes[static_cast<std::size_t>(r)], 0);
    EXPECT_EQ(sync_bytes[static_cast<std::size_t>(r)],
              async_bytes[static_cast<std::size_t>(r)]);
  }
}

TEST(Halo, BeginExchangeRequiresOverlapConfig) {
  World world(1);
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());  // overlap_halo not set
    Comm comm(world, rank, eng);
    const Slab slab = radial_slab(4, 1, 0);
    HaloExchanger halo(eng, comm, slab, 4, 3, 5);
    field::Field f(eng, "f", 4, 3, 5, 1);
    EXPECT_THROW(halo.begin_exchange_r({&f}), std::logic_error);
  });
}

TEST(Halo, RejectsTooManyFields) {
  World world(1);
  world.run([&](int rank) {
    par::Engine eng(manual_gpu());
    Comm comm(world, rank, eng);
    const Slab slab = radial_slab(4, 1, 0);
    HaloExchanger halo(eng, comm, slab, 4, 3, 5, /*max_fields=*/2);
    field::Field a(eng, "a", 4, 3, 5, 1);
    field::Field b(eng, "b", 4, 3, 5, 1);
    field::Field c(eng, "c", 4, 3, 5, 1);
    EXPECT_THROW(halo.exchange_r({&a, &b, &c}), std::invalid_argument);
    EXPECT_THROW(halo.wrap_phi({&a, &b, &c}), std::invalid_argument);
  });
}

}  // namespace
}  // namespace simas::mpisim
