// Pluggable halo-exchange backends.
//
// An ExchangeBackend moves every HaloPlan's plan-ordered plane of
// cell_size-double DOF tensors from source shards into destination halo
// blocks: the in-process backend by a zero-copy gather between shards of
// one process, the MPI backend additionally by MPI_Isend/MPI_Irecv for the
// links that cross a rank boundary.
//
// The protocol is dependency-driven, per shard and per phase. One step is
// bracketed by sched_begin_step / sched_end_step; in between the driving
// scheduler (ShardedSolver::step) tells the backend, shard by shard, when
// outgoing bytes become final (sched_capture: the shard completed the
// previous phase) and when a shard is ready to receive (sched_open: it
// finished reading the previous phase's halos), and asks which shards'
// halos have fully arrived (sched_delivered). The backend moves bytes as
// early as the protocol allows: a capture whose receiver has already
// opened delivers immediately (zero-copy in-process; an eager MPI_Isend
// across ranks), otherwise the face plane is packed into a staging buffer
// at capture time — the source keeps computing into the same field, so the
// bytes of "phase start" must be taken right then. Delivery into a halo
// block happens only after the receiver opened the phase (it may still be
// reading the previous phase's halos), which makes the reordering
// WAR-free; per (link, channel) transfers are produced and consumed in
// phase order, so matching is unambiguous (MPI's non-overtaking rule pairs
// same-tag messages in order).
//
// Whatever the backend, the bytes delivered into a halo slot are exactly
// the source cell's tensor at the start of the phase, so sharded stepping
// stays bitwise-identical to the monolithic path for every backend,
// decomposition and thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exastp/mesh/partition.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {

/// One logical field of a (possibly multi-field) exchange.
/// `shard_fields[s]` is the base of shard s's DOF array (owned cells
/// first, halo blocks appended) for every shard materialized in this
/// process, nullptr for the others. `channel` is a small non-negative id
/// namespacing the transfer (the MPI tag space), so several fields — the
/// LTS corrector reads qavg, qavg_half and qavg_sum halos — move in the
/// same phase without mixing bytes. Channels within one phase must be
/// distinct.
struct ExchangeField {
  std::vector<double*> shard_fields;
  int channel = 0;
};

/// Channel ids stay below this bound (keeps MPI tags small and valid).
inline constexpr int kMaxExchangeChannels = 64;

class ExchangeBackend {
 public:
  virtual ~ExchangeBackend() = default;

  /// Registry-style key: "inprocess" or "mpi".
  virtual std::string name() const = 0;

  /// Starts a step. `fields_by_phase[phase]` is that phase's halo fields,
  /// one ExchangeField per channel (empty = the phase exchanges nothing).
  /// The in-process backend needs all shard entries, the MPI backend
  /// exactly this rank's. The vector must outlive the step. Resets
  /// per-link state.
  virtual void sched_begin_step(
      const std::vector<std::vector<ExchangeField>>& fields_by_phase) = 0;
  /// Source-side: shard `shard` completed phase `phase - 1` (or the
  /// previous step, for phase 0), so its outgoing planes for `phase` are
  /// final — deliver or stage them now. Call once per (shard, phase), in
  /// ascending phase order per shard.
  ///
  /// This and sched_open are non-virtual so one exchange_post telemetry
  /// span times the transfer work of every backend uniformly; backends
  /// implement do_sched_capture / do_sched_open.
  void sched_capture(int shard, int phase) {
    ScopedSpan span(SpanId::kExchangePost);
    do_sched_capture(shard, phase);
  }
  /// Receiver-side: shard `shard` finished reading phase `phase - 1`
  /// halos, so `phase` deliveries may now land in its halo blocks. Call
  /// once per (shard, phase), in ascending phase order per shard.
  void sched_open(int shard, int phase) {
    ScopedSpan span(SpanId::kExchangePost);
    do_sched_open(shard, phase);
  }
  /// True once every halo slot `shard` reads in `phase` holds its
  /// neighbour's bytes (trivially true for non-exchanging phases). The
  /// shard's boundary sweep for the phase may then run.
  virtual bool sched_delivered(int shard, int phase) const = 0;
  /// True while some opened (shard, phase) still waits on arrivals — the
  /// scheduler's "communication in flight" predicate for the overlap
  /// accounting.
  virtual bool sched_any_pending() const = 0;
  /// Progresses in-flight transfers (MPI_Testsome-style). `block` waits
  /// until at least one delivery lands — only legal when some opened
  /// shard is undelivered (a blocking poll with nothing in flight is a
  /// scheduler bug and fails loudly).
  virtual void sched_poll(bool block) = 0;
  /// Finishes the step: drains outstanding sends and verifies every
  /// exchanging (shard, phase) was opened and delivered.
  virtual void sched_end_step() = 0;

  /// Halo bytes delivered into this process's shards per exchange (the
  /// logical traffic; identical for every backend on a local run).
  std::size_t payload_bytes_per_exchange() const { return payload_bytes_; }
  /// Bytes memcpy'd per exchange when every plane delivers directly. The
  /// zero-copy in-process gather copies each source plane straight into
  /// the peer's halo block, so this equals the payload (a plane staged
  /// because its receiver had not opened yet costs one extra pack copy);
  /// the MPI backend only copies on the send side (receives land directly
  /// in the halo block).
  std::size_t copied_bytes_per_exchange() const { return copied_bytes_; }

 protected:
  virtual void do_sched_capture(int shard, int phase) = 0;
  virtual void do_sched_open(int shard, int phase) = 0;

  std::size_t payload_bytes_ = 0;
  std::size_t copied_bytes_ = 0;
};

/// Builds the backend named by the `backend=` config key ("inprocess" |
/// "mpi") over `partition` with `cell_size` doubles per cell DOF tensor.
/// "mpi" requires a -DEXASTP_WITH_MPI=ON build and an initialized MPI
/// launch with one rank per shard; violations fail with a clear message.
std::unique_ptr<ExchangeBackend> make_exchange_backend(
    const std::string& backend, const Partition& partition,
    std::size_t cell_size);

}  // namespace exastp
