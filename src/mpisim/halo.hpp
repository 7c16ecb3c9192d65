#pragma once
// Halo exchange for radially decomposed fields, plus the periodic φ wrap.
//
// Both operations move data through registered MPI buffers so the simulator
// reproduces the paper's transfer-path behaviour:
//   * manual memory: buffers are device-resident -> P2P (CUDA-aware MPI);
//   * unified memory: the MPI layer touches the buffer from the host ->
//     pages migrate device->host on send and host->device on unpack (the
//     Fig. 4 slowdown mechanism).
// The φ wrap is communicated even on a single rank (MAS exchanges periodic
// boundaries through MPI), which is why the paper's Fig. 3 shows a
// non-trivial "MPI" fraction even for 1-GPU runs.
//
// Pack/unpack kernels run under the MPI time category: the paper counts
// "buffer initialization/loading/unloading" as MPI time.
//
// The radial exchange is written once, in two halves (post_r: pack, post,
// count; complete_r: wait, unpack). exchange_r runs both back to back with
// blocking sends; begin_exchange_r / finish_exchange_r split them around
// independent kernels, with the sends on the copy stream.

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "field/field.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/decomposition.hpp"
#include "telemetry/metrics.hpp"

namespace simas::mpisim {

class HaloExchanger {
 public:
  /// `nloc` = owned radial cells on this rank; nt, np = full angular dims.
  /// Fields passed to the exchange calls must have exactly these interior
  /// dims (plus >= 1 ghost layer). `max_fields` bounds how many fields one
  /// exchange can carry.
  HaloExchanger(par::Engine& engine, Comm& comm, const Slab& slab, idx nloc,
                idx nt, idx np, int max_fields = 12);
  /// Ends the buffers' device data regions (balances the constructor's
  /// enter_data calls; runs after any timing capture).
  ~HaloExchanger();

  /// Exchange one radial ghost layer with both neighbours (if any):
  /// both halves of the radial exchange back to back, on the synchronous
  /// buffers with blocking sends.
  void exchange_r(const std::vector<field::Field*>& fields);

  /// Periodic wrap of one φ ghost layer (self-exchange through MPI).
  void wrap_phi(const std::vector<field::Field*>& fields);

  // ---- Overlapped exchange (requires EngineConfig::overlap_halo) ----
  /// Post an overlapped radial exchange on a free async slot: the first
  /// half of exchange_r, with the sends on the rank's copy stream
  /// (Comm::isend). Interior kernels may run between begin and finish;
  /// the ghost planes of the exchanged fields must not be touched until
  /// finish (the validator flags such reads as InflightGhostRead). Returns
  /// a handle; at most kAsyncSlots exchanges may be in flight.
  int begin_exchange_r(const std::vector<field::Field*>& fields);
  /// Complete a posted exchange: the second half of exchange_r.
  void finish_exchange_r(int handle);

  /// Logical bytes moved through MPI so far (run scale, sum of payloads):
  /// fields x boundary planes x plane elements x sizeof(real), counted
  /// once per send on the sending rank (the wrap_phi self-exchange counts
  /// once, like any other send). Stored in the engine's metrics registry
  /// as halo.bytes_sent_r / halo.bytes_sent_phi; these accessors read the
  /// registry values back.
  i64 bytes_sent() const {
    return bytes_sent_r_.value() + bytes_sent_phi_.value();
  }
  i64 bytes_sent_r() const { return bytes_sent_r_.value(); }   ///< radial
  i64 bytes_sent_phi() const { return bytes_sent_phi_.value(); } ///< φ-wrap

  static constexpr int kAsyncSlots = 2;

 private:
  /// One radial exchange's staging buffers: send/recv x lo/hi, each sized
  /// for max_fields planes of the largest staggered field; layout
  /// (fastest..slowest) = (θ, φ, field). Registered, entered, exited and
  /// advised in send_lo, send_hi, recv_lo, recv_hi order.
  struct BufferSet {
    BufferSet(par::Engine& engine, const std::string& suffix, idx nt, idx np,
              int max_fields);
    void enter_data();
    void exit_data();
    /// Pin every buffer host-side (mem_advise; a no-op off unified GPU).
    void advise_host(par::Engine& engine);
    field::Field send_lo, send_hi, recv_lo, recv_hi;
  };

  struct AsyncSlot {
    std::optional<BufferSet> bufs;
    std::vector<field::Field*> fields;
    Request req_lo, req_hi;
    bool active = false;
  };

  /// Pack the boundary planes into bufs.send_lo/hi.
  void pack_r(const std::vector<field::Field*>& fields, BufferSet& bufs);
  /// Unpack bufs.recv_lo/hi into the radial ghost layers.
  void unpack_r(const std::vector<field::Field*>& fields, BufferSet& bufs);
  /// First half of every radial exchange: pack, prefetch the receive
  /// buffers (um_hints), post both sides' sends (isend when `overlap`)
  /// and receives, count the bytes, and (overlapped only) mark the ghost
  /// columns in flight. `tag_lo` travels to the rank below, `tag_hi` above.
  void post_r(const std::vector<field::Field*>& fields, BufferSet& bufs,
              int tag_lo, int tag_hi, bool overlap, Request& req_lo,
              Request& req_hi);
  /// Second half: wait on both neighbours, clear the in-flight marks
  /// (overlapped only), unpack, break fusion.
  void complete_r(const std::vector<field::Field*>& fields, BufferSet& bufs,
                  bool overlap, Request& req_lo, Request& req_hi);

  par::Engine& engine_;
  Comm& comm_;
  Slab slab_;
  idx nloc_, nt_, np_;
  int max_fields_;
  // Synchronous radial buffers, then the φ-wrap buffer, whose layout is
  // (r, θ, 2 x field).
  BufferSet sync_;
  field::Field phi_buf_;
  // Overlapped-exchange buffers, allocated only under overlap_halo so the
  // synchronous baseline's data-region accounting is untouched. Each slot
  // has its own buffers and tags, so a concurrent synchronous exchange (or
  // a second overlapped one) cannot collide in the (src, tag) mailboxes.
  std::array<AsyncSlot, kAsyncSlots> slots_;
  // Byte totals live in the engine's telemetry registry (hot-path handles,
  // bound in the constructor); an exchange adds through them directly.
  telemetry::Counter bytes_sent_r_;
  telemetry::Counter bytes_sent_phi_;
};

}  // namespace simas::mpisim
