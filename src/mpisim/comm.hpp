#pragma once
// In-process MPI simulator.
//
// A World owns shared mailboxes and collective state for `nranks` ranks;
// World::run spawns one thread per rank and executes the caller's rank
// function. Messages are *really* passed between ranks (payloads are
// copied), so decomposed solver runs are genuinely parallel and genuinely
// exchange data — only the *transfer time* is modeled.
//
// Each point-to-point step is written once. `send` and `isend` share one
// post path that differs only in whether the transfer may overlap; `recv`
// is `irecv` + `wait`; `allreduce_sum`, `allreduce_max` and `barrier`
// share one collective.
//
// Modeled-time semantics (per-rank ClockLedger):
//  * send: the sender pays the transfer on its own clock (MPI category) and
//    stamps the message with the modeled time at which it is available
//    (isend moves an overlappable transfer to the copy stream instead).
//  * wait (and so recv): the receiver waits (modeled) until the message is
//    available; the wait interval is MPI "load imbalance" time — the
//    paper's definition of MPI time includes exactly this.
//  * transfer path depends on the sender's memory mode, reproducing the
//    paper's Fig. 4 mechanism: manual + GPU -> NVLink peer-to-peer;
//    unified + GPU -> device pages migrate to the host, the message crosses
//    host memory, and the receiver's pages migrate back on next touch;
//    CPU -> interconnect.
//  * collectives synchronize every participant's clock to the max arrival
//    plus a tree latency.
//
// Abort rule: a rank function that throws fails the whole World. Peers
// blocked in (or later entering) a receive wait or a collective with
// nothing to deliver stop waiting and throw WorldAborted; World::run joins
// every rank and rethrows the originating exception.

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <stdexcept>
#include <vector>

#include "gpusim/memory_manager.hpp"
#include "par/engine.hpp"
#include "util/types.hpp"

namespace simas::mpisim {

struct Message {
  std::vector<real> payload;
  double available_at = 0.0;  ///< modeled time the data is ready at the dest
  bool staged_through_host = false;  ///< UM path: receiver must page back in
};

/// Thrown by a receive wait or a collective that can never complete
/// because another rank of the same World::run has already thrown.
class WorldAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class World;

/// Handle for a posted nonblocking receive (Comm::irecv). Completed by
/// Comm::wait; trivially movable, inactive after completion.
struct Request {
  int src = -1;
  int tag = 0;
  std::span<real> data;
  gpusim::ArrayId buf{};
  bool active = false;
};

/// Per-rank communicator handle. Construct inside the rank function with the
/// rank's Engine; not copyable, lives on the rank thread's stack.
class Comm {
 public:
  Comm(World& world, int rank, par::Engine& engine);

  int rank() const { return rank_; }
  int size() const;

  /// Buffered (non-blocking-buffer) send of `data`. `buf` is the registered
  /// array backing the send buffer (drives the path decision and unified-
  /// memory staging costs). Safe to call before the matching recv is posted.
  void send(int dst, int tag, std::span<const real> data,
            gpusim::ArrayId buf);

  /// Blocking receive into `data` (sizes must match the sent payload):
  /// irecv + wait.
  void recv(int src, int tag, std::span<real> data, gpusim::ArrayId buf);

  /// Nonblocking send: for manual-memory GPU buffers (P2P eligible) and CPU
  /// ranks, the transfer runs on the rank's copy stream and overlaps the
  /// compute clock, which pays only the posting latency; the hidden transfer
  /// time is accounted via ClockLedger::note_hidden_mpi. Unified-memory
  /// buffers normally cannot overlap — MPI must fault the pages to the
  /// host, which serializes with compute exactly like a blocking send (the
  /// paper's Fig. 4 mechanism). Exception: a staging buffer advised
  /// preferred-host with no device-resident pages (um_hints) is already
  /// pinned host-side, so the copy engine streams it like the manual path.
  void isend(int dst, int tag, std::span<const real> data,
             gpusim::ArrayId buf);

  /// Post a nonblocking receive. The payload is delivered by wait().
  Request irecv(int src, int tag, std::span<real> data, gpusim::ArrayId buf);

  /// Complete a posted irecv: blocks (modeled: waits until the matching
  /// message's available_at) and copies the payload into the request's span.
  /// Throws WorldAborted if no message is queued and another rank failed.
  void wait(Request& req);

  double allreduce_sum(double v);
  double allreduce_max(double v);
  void barrier();

  par::Engine& engine() { return engine_; }

 private:
  double transfer_cost(i64 bytes, gpusim::ArrayId buf, int dst, bool& staged);
  /// The one send body. `overlap` = isend: the transfer goes to the copy
  /// stream unless it is a UM staging copy that must serialize.
  void post(int dst, int tag, std::span<const real> data, gpusim::ArrayId buf,
            bool overlap);
  /// The one collective body: reduce `v` (max or sum) across ranks and
  /// sync this rank's clock to the slowest arrival plus a tree latency of
  /// ceil(log2 nranks) P2P hops + `extra_latency`.
  double collective(double v, bool take_max, double extra_latency);

  World& world_;
  int rank_;
  par::Engine& engine_;
};

class World {
 public:
  explicit World(int nranks);
  ~World();

  int nranks() const { return nranks_; }

  /// Run fn(rank) on nranks threads (rank 0..nranks-1) and join them all.
  /// If any rank throws, its peers are woken (see the abort rule above) and
  /// the first exception thrown is rethrown once every rank has returned.
  /// Mailboxes and collective state are reset on entry, so a World stays
  /// usable after a failed run.
  void run(const std::function<void(int)>& fn);

 private:
  friend class Comm;

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<std::pair<int, int>, std::queue<Message>> queues;  // (src,tag)
  };

  struct Collective {
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    u64 phase = 0;
    std::vector<double> values;
    std::vector<double> clocks;
    double result = 0.0;
    double sync_clock = 0.0;
  };

  /// op: true = max, false = sum (deterministic rank-order evaluation).
  std::pair<double, double> collective(int rank, double value, double clock,
                                       bool take_max, double latency);

  /// Record `error` (first one wins), mark the world failed and wake every
  /// blocked receive and collective.
  void fail(std::exception_ptr error);

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  Collective coll_;
  std::atomic<bool> failed_{false};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace simas::mpisim
