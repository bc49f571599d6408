#include "exastp/solver/mpi_exchange.h"

#include "exastp/common/check.h"

#if defined(EXASTP_WITH_MPI)

#include <mpi.h>

#include <cstring>
#include <limits>
#include <utility>

#include "exastp/common/aligned.h"
#include "exastp/common/mpi_runtime.h"
#include "exastp/solver/halo_exchange.h"

namespace exastp {
namespace {

/// Hybrid exchange: rank r materializes every shard of
/// Partition::shards_of_rank(r). Links whose two endpoints live on this
/// rank move through the zero-copy LocalLinkSet gather; only links that
/// actually cross a rank boundary become MPI messages.
///
/// Tag scheme: tag = (channel * num_shards + dst_shard) * 6 + (dir*2+side).
/// A given (dst_shard, dir, side) face has exactly one source shard, so a
/// tag uniquely names a link per channel even when one rank pair carries
/// several shard pairs; the ctor checks the widened space against
/// MPI_TAG_UB. One (link, channel) tag carries one message per
/// exchanging phase — MPI's non-overtaking rule pairs the
/// same-tag sequence in phase order on both sides.
class HybridExchangeBackend final : public ExchangeBackend {
 public:
  HybridExchangeBackend(const Partition& partition, std::size_t cell_size)
      : cell_size_(cell_size),
        rank_(MpiRuntime::rank()),
        num_shards_(partition.num_shards()),
        local_(partition, cell_size, /*only_rank=*/MpiRuntime::rank()) {
    EXASTP_CHECK_MSG(cell_size_ > 0, "halo exchange needs a cell size");
    EXASTP_CHECK_MSG(MpiRuntime::initialized(),
                     "the mpi exchange backend needs an initialized MPI "
                     "launch (mpirun)");
    EXASTP_CHECK_MSG(
        partition.num_ranks() == MpiRuntime::size(),
        "the mpi exchange backend needs the partition's rank map to match "
        "the MPI launch: " + std::to_string(partition.num_ranks()) +
            " rank group(s) vs " + std::to_string(MpiRuntime::size()) +
            " MPI rank(s)");

    int flag = 0;
    int* tag_ub_ptr = nullptr;
    MPI_Comm_get_attr(MPI_COMM_WORLD, MPI_TAG_UB, &tag_ub_ptr, &flag);
    const long tag_ub = flag ? static_cast<long>(*tag_ub_ptr) : 32767L;
    EXASTP_CHECK_MSG(
        static_cast<long>(kMaxExchangeChannels) * num_shards_ * 6 - 1 <=
            tag_ub,
        "the shard count overflows the MPI tag space of this "
        "implementation — use fewer shards");

    // Receives: plans of this rank's shards sourced from another rank,
    // landing directly in the halo block (contiguous and plan-ordered),
    // so there is no unpack copy.
    for (const int s : partition.shards_of_rank(rank_)) {
      for (const HaloPlan& plan : partition.subdomain(s).halos) {
        if (partition.rank_of(plan.src_shard) == rank_) continue;
        RecvOp op;
        op.peer = partition.rank_of(plan.src_shard);
        op.dst_shard = s;
        op.face = plan.dir * 2 + plan.side;
        op.offset = static_cast<std::size_t>(plan.dst_begin) * cell_size_;
        op.count = plan.src_cells.size() * cell_size_;
        // MPI-3 counts are int; a face plane that overflows one must fail
        // loudly, not wrap into a truncated transfer.
        EXASTP_CHECK_MSG(op.count <= static_cast<std::size_t>(
                                         std::numeric_limits<int>::max()),
                         "halo face exceeds the MPI int count limit");
        recvs_.push_back(op);
      }
    }

    // Sends: every remote shard's plan naming one of this rank's shards as
    // the source. Sender and receiver walk the same Partition, so both
    // derive the same (dst_shard, face) tag.
    for (int s = 0; s < num_shards_; ++s) {
      if (partition.rank_of(s) == rank_) continue;
      for (const HaloPlan& plan : partition.subdomain(s).halos) {
        if (partition.rank_of(plan.src_shard) != rank_) continue;
        SendOp op;
        op.peer = partition.rank_of(s);
        op.src_shard = plan.src_shard;
        op.dst_shard = s;
        op.face = plan.dir * 2 + plan.side;
        op.cells = plan.src_cells;
        const std::size_t doubles = plan.src_cells.size() * cell_size_;
        EXASTP_CHECK_MSG(doubles <= static_cast<std::size_t>(
                                        std::numeric_limits<int>::max()),
                         "halo face exceeds the MPI int count limit");
        copied_bytes_ += doubles * sizeof(double);
        sends_.push_back(std::move(op));
      }
    }

    payload_bytes_ = local_.payload_bytes();
    for (const RecvOp& op : recvs_)
      payload_bytes_ += op.count * sizeof(double);
    copied_bytes_ += local_.payload_bytes();
  }

  std::string name() const override { return "mpi"; }

  void sched_begin_step(
      const std::vector<std::vector<ExchangeField>>& fields) override {
    EXASTP_CHECK_MSG(fields_ == nullptr,
                     "a scheduled step is already in progress");
    fields_ = &fields;
    phases_ = static_cast<int>(fields.size());
    local_.begin_step(fields, /*latency_ns=*/0);
    const std::size_t shard_states = static_cast<std::size_t>(num_shards_) *
                                     static_cast<std::size_t>(phases_);
    remote_pending_.assign(shard_states, 0);
    opened_.assign(shard_states, 0);
    for (int p = 0; p < phases_; ++p) {
      if (fields[static_cast<std::size_t>(p)].empty()) continue;
      const int nf = static_cast<int>(fields[static_cast<std::size_t>(p)].size());
      for (const RecvOp& op : recvs_)
        remote_pending_[state_index(op.dst_shard, p)] += nf;
    }
    recv_requests_.clear();
    recv_meta_.clear();
    send_requests_.clear();
    sched_buffers_.clear();
  }

  bool sched_delivered(int shard, int phase) const override {
    if (phase_fields(phase).empty()) return true;
    return local_.delivered(shard, phase) &&
           remote_pending_[state_index(shard, phase)] == 0;
  }

  bool sched_any_pending() const override {
    if (local_.any_pending()) return true;
    for (std::size_t i = 0; i < remote_pending_.size(); ++i)
      if (opened_[i] != 0 && remote_pending_[i] > 0) return true;
    return false;
  }

  void sched_poll(bool block) override {
    // Opportunistically retire completed sends so their buffers can be
    // reasoned about (the actual frees happen at end_step).
    test_some(send_requests_, /*meta=*/nullptr, /*block=*/false);
    const bool progressed =
        test_some(recv_requests_, &recv_meta_, /*block=*/false);
    if (!block || progressed) return;
    EXASTP_CHECK_MSG(
        test_some(recv_requests_, &recv_meta_, /*block=*/true),
        "scheduled exchange deadlock: blocking poll with nothing in flight");
  }

  void sched_end_step() override {
    MPI_Waitall(static_cast<int>(send_requests_.size()),
                send_requests_.data(), MPI_STATUSES_IGNORE);
    local_.end_step();
    for (std::size_t i = 0; i < remote_pending_.size(); ++i)
      EXASTP_CHECK_MSG(remote_pending_[i] == 0,
                       "scheduled step ended with undelivered halos");
    fields_ = nullptr;
    recv_requests_.clear();
    recv_meta_.clear();
    send_requests_.clear();
    sched_buffers_.clear();
  }

 protected:
  void do_sched_open(int shard, int phase) override {
    local_.open(shard, phase);
    opened_[state_index(shard, phase)] = 1;
    const std::vector<ExchangeField>& fields = phase_fields(phase);
    if (fields.empty()) return;
    for (const RecvOp& op : recvs_) {
      if (op.dst_shard != shard) continue;
      for (const ExchangeField& field : fields) {
        double* dst = shard_field(field, op.dst_shard);
        MPI_Request request;
        MPI_Irecv(dst + op.offset, static_cast<int>(op.count), MPI_DOUBLE,
                  op.peer, tag_of(field.channel, op.dst_shard, op.face),
                  MPI_COMM_WORLD, &request);
        recv_requests_.push_back(request);
        recv_meta_.push_back(state_index(shard, phase));
      }
    }
  }

  void do_sched_capture(int shard, int phase) override {
    local_.capture(shard, phase);
    const std::vector<ExchangeField>& fields = phase_fields(phase);
    if (fields.empty()) return;
    // Eager sends: the bytes must leave now — the source shard keeps
    // computing into the same field — so each plane is packed into a
    // per-capture buffer that stays live until sched_end_step.
    for (const SendOp& op : sends_) {
      if (op.src_shard != shard) continue;
      for (const ExchangeField& field : fields) {
        sched_buffers_.emplace_back();
        AlignedVector& buffer = sched_buffers_.back();
        pack(op, field, buffer);
        MPI_Request request;
        MPI_Isend(buffer.data(), static_cast<int>(buffer.size()), MPI_DOUBLE,
                  op.peer, tag_of(field.channel, op.dst_shard, op.face),
                  MPI_COMM_WORLD, &request);
        send_requests_.push_back(request);
      }
    }
  }

 private:
  struct RecvOp {
    int peer = -1;
    int dst_shard = -1;
    int face = 0;            ///< dir * 2 + side of the receiving face
    std::size_t offset = 0;  ///< doubles into the destination shard's field
    std::size_t count = 0;   ///< doubles received
  };
  struct SendOp {
    int peer = -1;
    int src_shard = -1;
    int dst_shard = -1;
    int face = 0;
    std::vector<int> cells;  ///< pack order = the receiver's halo order
  };

  int tag_of(int channel, int dst_shard, int face) const {
    return (channel * num_shards_ + dst_shard) * 6 + face;
  }
  std::size_t state_index(int shard, int phase) const {
    return static_cast<std::size_t>(shard) * static_cast<std::size_t>(phases_) +
           static_cast<std::size_t>(phase);
  }
  const std::vector<ExchangeField>& phase_fields(int phase) const {
    EXASTP_CHECK_MSG(fields_ != nullptr, "no scheduled step in progress");
    return (*fields_)[static_cast<std::size_t>(phase)];
  }
  static double* shard_field(const ExchangeField& field, int shard) {
    EXASTP_CHECK(shard >= 0 &&
                 shard < static_cast<int>(field.shard_fields.size()));
    double* data = field.shard_fields[static_cast<std::size_t>(shard)];
    EXASTP_CHECK_MSG(data != nullptr,
                     "the mpi backend needs this rank's shard fields");
    return data;
  }
  void pack(const SendOp& op, const ExchangeField& field,
            AlignedVector& buffer) const {
    const double* src = shard_field(field, op.src_shard);
    buffer.resize(op.cells.size() * cell_size_);
    double* out = buffer.data();
    for (const int cell : op.cells) {
      std::memcpy(out, src + static_cast<std::size_t>(cell) * cell_size_,
                  cell_size_ * sizeof(double));
      out += cell_size_;
    }
  }

  /// Testsome / Waitsome over `requests`; completed entries turn into
  /// MPI_REQUEST_NULL in place, and when `meta` is given the matching
  /// remote_pending_ slots are decremented. Returns whether any request
  /// completed (false when none are active).
  bool test_some(std::vector<MPI_Request>& requests,
                 const std::vector<std::size_t>* meta, bool block) {
    if (requests.empty()) return false;
    indices_.resize(requests.size());
    int outcount = 0;
    if (block) {
      MPI_Waitsome(static_cast<int>(requests.size()), requests.data(),
                   &outcount, indices_.data(), MPI_STATUSES_IGNORE);
    } else {
      MPI_Testsome(static_cast<int>(requests.size()), requests.data(),
                   &outcount, indices_.data(), MPI_STATUSES_IGNORE);
    }
    if (outcount == MPI_UNDEFINED || outcount <= 0) return false;
    if (meta != nullptr)
      for (int i = 0; i < outcount; ++i)
        --remote_pending_[(*meta)[static_cast<std::size_t>(
            indices_[static_cast<std::size_t>(i)])]];
    return true;
  }

  std::size_t cell_size_ = 0;
  int rank_ = 0;
  int num_shards_ = 0;
  LocalLinkSet local_;
  std::vector<RecvOp> recvs_;
  std::vector<SendOp> sends_;

  // Per-step state.
  const std::vector<std::vector<ExchangeField>>* fields_ = nullptr;
  int phases_ = 0;
  std::vector<int> remote_pending_;  ///< (shard, phase) -> recvs outstanding
  std::vector<char> opened_;
  std::vector<MPI_Request> recv_requests_;
  std::vector<std::size_t> recv_meta_;  ///< request -> (shard, phase) slot
  std::vector<MPI_Request> send_requests_;
  std::vector<AlignedVector> sched_buffers_;  ///< live until end_step
  std::vector<int> indices_;
};

}  // namespace

std::unique_ptr<ExchangeBackend> make_mpi_exchange(const Partition& partition,
                                                   std::size_t cell_size) {
  return std::make_unique<HybridExchangeBackend>(partition, cell_size);
}

}  // namespace exastp

#else  // !EXASTP_WITH_MPI

namespace exastp {

std::unique_ptr<ExchangeBackend> make_mpi_exchange(
    const Partition& /*partition*/, std::size_t /*cell_size*/) {
  EXASTP_FAIL(
      "this build has no MPI support — reconfigure with "
      "-DEXASTP_WITH_MPI=ON to use backend=mpi");
}

}  // namespace exastp

#endif
