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
  for (auto& box : mailboxes_) box->queues.clear();
  coll_.arrived = 0;
  failed_ = false;
  first_error_ = nullptr;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (...) {
        fail(std::current_exception());
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error_) std::rethrow_exception(first_error_);
}

void World::fail(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::move(error);
  }
  failed_ = true;
  // Notify under each waiter's mutex: a waiter that has just tested its
  // predicate is then either already blocked or sees failed_.
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(coll_.mutex);
  coll_.cv.notify_all();
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
    coll_.cv.wait(lock, [&] { return coll_.phase != my_phase || failed_; });
    if (coll_.phase == my_phase)
      throw WorldAborted("mpisim: collective abandoned, a peer rank failed");
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
  post(dst, tag, data, buf, /*overlap=*/false);
}

void Comm::isend(int dst, int tag, std::span<const real> data,
                 gpusim::ArrayId buf) {
  post(dst, tag, data, buf, /*overlap=*/true);
}

void Comm::post(int dst, int tag, std::span<const real> data,
                gpusim::ArrayId buf, bool overlap) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("Comm::send dst");
  engine_.break_fusion();
  auto& ledger = engine_.ledger();
  auto& mem = engine_.memory();
  const i64 bytes = static_cast<i64>(data.size() * sizeof(real));

  bool staged = false;
  double start = ledger.now();  // of the traced transfer interval
  const double cost = transfer_cost(bytes, buf, dst, staged);
  // Tell the validator which side of the fence MPI reads the buffer from:
  // CUDA-aware sends read the device copy, everything else reads host
  // memory (stale-copy hazards differ).
  if (engine_.config().gpu && mem.device_direct_eligible(buf))
    mem.note_device_read(buf);
  else
    mem.note_host_read(buf);

  double available_at = 0.0;
  trace::Lane lane = staged ? trace::Lane::Migration : trace::Lane::Transfer;
  if (overlap && (!staged || mem.staging_overlap_eligible(buf))) {
    // Manual P2P, CPU, or a pinned (preferred-host-advised) UM staging
    // buffer with nothing to fault out: the copy engine moves the bytes
    // while compute keeps running. The compute clock pays only the posting
    // latency; the transfer lands on the copy stream and is accounted as
    // hidden MPI time (exposed again only if a wait() catches up to it).
    // The pinned case is the um_hints mechanism that recovers the
    // hidden-MPI gap of Fig. 4.
    ledger.advance(engine_.cost().device().p2p_latency_s, TimeCategory::Mpi);
    available_at = ledger.copy_enqueue(cost);
    ledger.note_hidden_mpi(cost);
    start = available_at - cost;
    lane = trace::Lane::AsyncCopy;
  } else {
    // Blocking sends, and UM without hints: MPI faults the pages to the
    // host (already charged by transfer_cost) and the staged copy
    // serializes with compute — the Fig. 4 mechanism.
    ledger.advance(cost, TimeCategory::Mpi);
    available_at = ledger.now();
  }
  if (engine_.tracer().enabled())
    engine_.tracer().record(
        start, available_at, lane,
        (overlap ? "isend->" : "send->") + std::to_string(dst));

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

void Comm::recv(int src, int tag, std::span<real> data, gpusim::ArrayId buf) {
  Request req = irecv(src, tag, data, buf);
  wait(req);
}

Request Comm::irecv(int src, int tag, std::span<real> data,
                    gpusim::ArrayId buf) {
  if (src < 0 || src >= size()) throw std::out_of_range("Comm::irecv src");
  return Request{src, tag, data, buf, /*active=*/true};
}

void Comm::wait(Request& req) {
  if (!req.active) return;
  engine_.break_fusion();
  auto& ledger = engine_.ledger();
  auto& mem = engine_.memory();

  Message msg;
  {
    auto& box = *world_.mailboxes_[static_cast<std::size_t>(rank_)];
    std::unique_lock<std::mutex> lock(box.mutex);
    auto& q = box.queues[{req.src, req.tag}];
    box.cv.wait(lock, [&] { return !q.empty() || world_.failed_; });
    if (q.empty())
      throw WorldAborted("mpisim: receive from rank " +
                         std::to_string(req.src) +
                         " abandoned, a peer rank failed");
    msg = std::move(q.front());
    q.pop();
  }
  if (msg.payload.size() != req.data.size())
    throw std::logic_error("Comm::wait: size mismatch");
  std::copy(msg.payload.begin(), msg.payload.end(), req.data.begin());
  // The delivered payload lands on the device for CUDA-aware receives and
  // in host memory otherwise (the unpack kernel's input side).
  if (engine_.config().gpu && mem.device_direct_eligible(req.buf))
    mem.note_device_write(req.buf);
  else
    mem.note_host_write(req.buf);

  // Modeled wait until the data is available: the paper's "MPI waiting
  // caused by load imbalance".
  const double t0 = ledger.now();
  const double waited = ledger.wait_until(msg.available_at, TimeCategory::Mpi);
  if (waited > 0.0 && engine_.tracer().enabled())
    engine_.tracer().record(t0, ledger.now(), trace::Lane::MpiWait,
                            "wait<-" + std::to_string(req.src));

  if (msg.staged_through_host) {
    // The payload landed in host memory; mark the receive buffer as
    // host-resident so the unpack kernel pays the page-in (UM only).
    mem.on_host_access(req.buf,
                       static_cast<i64>(req.data.size() * sizeof(real)),
                       TimeCategory::Mpi);
  }
  req.active = false;
}

double Comm::collective(double v, bool take_max, double extra_latency) {
  engine_.break_fusion();
  const double latency = std::ceil(std::log2(std::max(2, size()))) *
                             engine_.cost().device().p2p_latency_s +
                         extra_latency;
  auto [result, sync_clock] =
      world_.collective(rank_, v, engine_.ledger().now(), take_max, latency);
  engine_.ledger().wait_until(sync_clock, TimeCategory::Mpi);
  return result;
}

double Comm::allreduce_sum(double v) { return collective(v, false, 3.0e-6); }

double Comm::allreduce_max(double v) { return collective(v, true, 3.0e-6); }

void Comm::barrier() { (void)collective(0.0, true, 0.0); }

}  // namespace simas::mpisim
