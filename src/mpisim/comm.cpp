#include "mpisim/comm.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>

#include "gpusim/clock_ledger.hpp"
#include "trace/trace.hpp"

namespace simas::mpisim {

using gpusim::TimeCategory;

World::World(int nranks) : nranks_(nranks) {
  if (nranks < 1) throw std::invalid_argument("World: nranks must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  coll_.values.resize(static_cast<std::size_t>(nranks));
  coll_.clocks.resize(static_cast<std::size_t>(nranks));
}

World::~World() = default;

void World::run(const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks_));
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

std::pair<double, double> World::collective(int rank, double value,
                                            double clock, bool take_max,
                                            double latency) {
  std::unique_lock<std::mutex> lock(coll_.mutex);
  const u64 my_phase = coll_.phase;
  coll_.values[static_cast<std::size_t>(rank)] = value;
  coll_.clocks[static_cast<std::size_t>(rank)] = clock;
  if (++coll_.arrived == nranks_) {
    // Deterministic rank-order reduction; clock syncs to the slowest rank
    // plus the tree latency.
    double acc = coll_.values[0];
    double latest = coll_.clocks[0];
    for (int r = 1; r < nranks_; ++r) {
      const double v = coll_.values[static_cast<std::size_t>(r)];
      acc = take_max ? nan_max(acc, v) : acc + v;
      latest = std::max(latest, coll_.clocks[static_cast<std::size_t>(r)]);
    }
    coll_.result = acc;
    coll_.sync_clock = latest + latency;
    coll_.arrived = 0;
    ++coll_.phase;
    coll_.cv.notify_all();
  } else {
    coll_.cv.wait(lock, [&] { return coll_.phase != my_phase; });
  }
  return {coll_.result, coll_.sync_clock};
}

Comm::Comm(World& world, int rank, par::Engine& engine)
    : world_(world), rank_(rank), engine_(engine) {}

int Comm::size() const { return world_.nranks(); }

double Comm::transfer_cost(i64 bytes, gpusim::ArrayId buf, int dst,
                           bool& staged) {
  auto& cost = engine_.cost();
  auto& mem = engine_.memory();
  staged = false;
  if (engine_.config().gpu && mem.device_direct_eligible(buf)) {
    // CUDA-aware MPI with a device-resident buffer: NVLink peer-to-peer,
    // or a device-local copy for a self-exchange (periodic wrap).
    if (dst == rank_)
      return cost.local_copy_time(bytes, gpusim::ScaleClass::Surface);
    return cost.p2p_transfer_time(bytes, gpusim::ScaleClass::Surface);
  }
  if (engine_.config().gpu && mem.unified()) {
    // UM buffer: MPI touches it from the host -> pages migrate out
    // (on_host_access charges the sender), then the message crosses host
    // memory; the receiver pages it back in on next device touch. A
    // staging buffer advised preferred-host (um_hints) is already pinned
    // in host memory: nothing faults out, and the message moves at the
    // plain host-link rate without the fault-storm staging multiplier.
    staged = true;
    mem.on_host_access(buf, bytes, TimeCategory::Mpi);
    // Pinned buffers move as one batched transfer over the modeled host
    // link — the same rate the page engine charges for an explicit
    // prefetch, with no fault storm and no staging multiplier.
    if (mem.staging_overlap_eligible(buf))
      return cost.um_prefetch_time(bytes, gpusim::ScaleClass::Surface);
    return cost.host_transfer_time(bytes, gpusim::ScaleClass::Surface) *
           cost.device().um_staging_multiplier;
  }
  // CPU ranks: interconnect between nodes; memcpy within a node.
  if (dst == rank_)
    return cost.local_copy_time(bytes, gpusim::ScaleClass::Surface);
  return cost.host_transfer_time(bytes, gpusim::ScaleClass::Surface);
}

void Comm::send(int dst, int tag, std::span<const real> data,
                gpusim::ArrayId buf) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("Comm::send dst");
  engine_.break_fusion();
  auto& ledger = engine_.ledger();
  const i64 bytes = static_cast<i64>(data.size() * sizeof(real));

  bool staged = false;
  const double t0 = ledger.now();
  const double cost = transfer_cost(bytes, buf, dst, staged);
  // Tell the validator which side of the fence MPI reads the buffer from:
  // CUDA-aware sends read the device copy, everything else reads host
  // memory (stale-copy hazards differ).
  if (engine_.config().gpu && engine_.memory().device_direct_eligible(buf))
    engine_.memory().note_device_read(buf);
  else
    engine_.memory().note_host_read(buf);
  ledger.advance(cost, TimeCategory::Mpi);
  if (engine_.tracer().enabled())
    engine_.tracer().record(t0, ledger.now(),
                            staged ? trace::Lane::Migration
                                   : trace::Lane::Transfer,
                            "send->" + std::to_string(dst));

  Message msg;
  msg.payload.assign(data.begin(), data.end());
  msg.available_at = ledger.now();
  msg.staged_through_host = staged;

  auto& box = *world_.mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queues[{rank_, tag}].push(std::move(msg));
  }
  box.cv.notify_all();
}

void Comm::recv(int src, int tag, std::span<real> data, gpusim::ArrayId buf) {
  if (src < 0 || src >= size()) throw std::out_of_range("Comm::recv src");
  engine_.break_fusion();
  auto& ledger = engine_.ledger();

  Message msg;
  {
    auto& box = *world_.mailboxes_[static_cast<std::size_t>(rank_)];
    std::unique_lock<std::mutex> lock(box.mutex);
    auto& q = box.queues[{src, tag}];
    box.cv.wait(lock, [&] { return !q.empty(); });
    msg = std::move(q.front());
    q.pop();
  }
  if (msg.payload.size() != data.size())
    throw std::logic_error("Comm::recv: size mismatch");
  std::copy(msg.payload.begin(), msg.payload.end(), data.begin());
  // The delivered payload lands on the device for CUDA-aware receives and
  // in host memory otherwise (the unpack kernel's input side).
  if (engine_.config().gpu && engine_.memory().device_direct_eligible(buf))
    engine_.memory().note_device_write(buf);
  else
    engine_.memory().note_host_write(buf);

  // Modeled wait until the data is available: the paper's "MPI waiting
  // caused by load imbalance".
  const double t0 = ledger.now();
  const double waited = ledger.wait_until(msg.available_at, TimeCategory::Mpi);
  if (waited > 0.0 && engine_.tracer().enabled())
    engine_.tracer().record(t0, ledger.now(), trace::Lane::MpiWait,
                            "wait<-" + std::to_string(src));

  if (msg.staged_through_host) {
    // The payload landed in host memory; mark the receive buffer as
    // host-resident so the unpack kernel pays the page-in (UM only).
    engine_.memory().on_host_access(
        buf, static_cast<i64>(data.size() * sizeof(real)),
        TimeCategory::Mpi);
  }
}

void Comm::isend(int dst, int tag, std::span<const real> data,
                 gpusim::ArrayId buf) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("Comm::isend dst");
  engine_.break_fusion();
  auto& ledger = engine_.ledger();
  const i64 bytes = static_cast<i64>(data.size() * sizeof(real));

  bool staged = false;
  const double t0 = ledger.now();
  const double cost = transfer_cost(bytes, buf, dst, staged);
  if (engine_.config().gpu && engine_.memory().device_direct_eligible(buf))
    engine_.memory().note_device_read(buf);
  else
    engine_.memory().note_host_read(buf);

  double available_at = 0.0;
  if (!staged) {
    // Manual P2P or CPU path: the copy engine moves the bytes while compute
    // keeps running. The compute clock pays only the posting latency; the
    // transfer itself lands on the copy stream and is accounted as hidden
    // MPI time (it becomes exposed again only if a wait() catches up to it).
    ledger.advance(engine_.cost().device().p2p_latency_s, TimeCategory::Mpi);
    available_at = ledger.copy_enqueue(cost);
    ledger.note_hidden_mpi(cost);
    if (engine_.tracer().enabled())
      engine_.tracer().record(available_at - cost, available_at,
                              trace::Lane::AsyncCopy,
                              "isend->" + std::to_string(dst));
  } else if (engine_.memory().staging_overlap_eligible(buf)) {
    // Pinned (preferred-host-advised) UM staging buffer with no device
    // residency: there is nothing to fault out, so the copy engine can
    // stream the message while compute keeps running — the same overlap
    // the manual P2P path gets, paid at the host-link rate. This is the
    // um_hints mechanism that recovers the hidden-MPI gap of Fig. 4.
    ledger.advance(engine_.cost().device().p2p_latency_s, TimeCategory::Mpi);
    available_at = ledger.copy_enqueue(cost);
    ledger.note_hidden_mpi(cost);
    if (engine_.tracer().enabled())
      engine_.tracer().record(available_at - cost, available_at,
                              trace::Lane::AsyncCopy,
                              "isend->" + std::to_string(dst));
  } else {
    // Unified memory without hints cannot overlap: MPI faults the pages
    // to the host (already charged by transfer_cost) and the staged copy
    // serializes with compute, exactly like a blocking send — the Fig. 4
    // mechanism.
    ledger.advance(cost, TimeCategory::Mpi);
    available_at = ledger.now();
    if (engine_.tracer().enabled())
      engine_.tracer().record(t0, ledger.now(), trace::Lane::Migration,
                              "isend->" + std::to_string(dst));
  }

  Message msg;
  msg.payload.assign(data.begin(), data.end());
  msg.available_at = available_at;
  msg.staged_through_host = staged;

  auto& box = *world_.mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queues[{rank_, tag}].push(std::move(msg));
  }
  box.cv.notify_all();
}

Request Comm::irecv(int src, int tag, std::span<real> data,
                    gpusim::ArrayId buf) {
  if (src < 0 || src >= size()) throw std::out_of_range("Comm::irecv src");
  Request req;
  req.src = src;
  req.tag = tag;
  req.data = data;
  req.buf = buf;
  req.active = true;
  return req;
}

void Comm::wait(Request& req) {
  if (!req.active) return;
  engine_.break_fusion();
  auto& ledger = engine_.ledger();

  Message msg;
  {
    auto& box = *world_.mailboxes_[static_cast<std::size_t>(rank_)];
    std::unique_lock<std::mutex> lock(box.mutex);
    auto& q = box.queues[{req.src, req.tag}];
    box.cv.wait(lock, [&] { return !q.empty(); });
    msg = std::move(q.front());
    q.pop();
  }
  if (msg.payload.size() != req.data.size())
    throw std::logic_error("Comm::wait: size mismatch");
  std::copy(msg.payload.begin(), msg.payload.end(), req.data.begin());
  if (engine_.config().gpu &&
      engine_.memory().device_direct_eligible(req.buf))
    engine_.memory().note_device_write(req.buf);
  else
    engine_.memory().note_host_write(req.buf);

  const double t0 = ledger.now();
  const double waited = ledger.wait_until(msg.available_at, TimeCategory::Mpi);
  if (waited > 0.0 && engine_.tracer().enabled())
    engine_.tracer().record(t0, ledger.now(), trace::Lane::MpiWait,
                            "wait<-" + std::to_string(req.src));

  if (msg.staged_through_host) {
    engine_.memory().on_host_access(
        req.buf, static_cast<i64>(req.data.size() * sizeof(real)),
        TimeCategory::Mpi);
  }
  req.active = false;
}

double Comm::allreduce_sum(double v) {
  engine_.break_fusion();
  const auto& dev = engine_.cost().device();
  const double latency =
      std::ceil(std::log2(std::max(2, size()))) * dev.p2p_latency_s + 3.0e-6;
  auto [result, sync_clock] =
      world_.collective(rank_, v, engine_.ledger().now(), false, latency);
  engine_.ledger().wait_until(sync_clock, TimeCategory::Mpi);
  return result;
}

double Comm::allreduce_max(double v) {
  engine_.break_fusion();
  const auto& dev = engine_.cost().device();
  const double latency =
      std::ceil(std::log2(std::max(2, size()))) * dev.p2p_latency_s + 3.0e-6;
  auto [result, sync_clock] =
      world_.collective(rank_, v, engine_.ledger().now(), true, latency);
  engine_.ledger().wait_until(sync_clock, TimeCategory::Mpi);
  return result;
}

void Comm::barrier() {
  engine_.break_fusion();
  const auto& dev = engine_.cost().device();
  const double latency =
      std::ceil(std::log2(std::max(2, size()))) * dev.p2p_latency_s;
  auto [result, sync_clock] =
      world_.collective(rank_, 0.0, engine_.ledger().now(), true, latency);
  (void)result;
  engine_.ledger().wait_until(sync_clock, TimeCategory::Mpi);
}

}  // namespace simas::mpisim
