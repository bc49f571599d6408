#include "exastp/solver/sharded_solver.h"

#include <algorithm>
#include <utility>

#include "exastp/common/check.h"
#include "exastp/common/mpi_runtime.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {

ShardedSolver::ShardedSolver(
    Partition partition,
    const std::function<std::unique_ptr<SolverBase>(const Grid&)>& make_shard,
    const std::string& backend)
    : partition_(std::move(partition)),
      global_grid_(partition_.global_spec()),
      distributed_(backend == "mpi"),
      rank_(distributed_ ? MpiRuntime::rank() : 0) {
  EXASTP_CHECK_MSG(make_shard != nullptr, "sharded solver needs a factory");
  if (distributed_) {
    EXASTP_CHECK_MSG(MpiRuntime::initialized(),
                     "backend=mpi needs an MPI launch (mpirun); exastp_run "
                     "initializes MPI when built with -DEXASTP_WITH_MPI=ON");
    // A partition without an explicit rank map (every shard on rank 0)
    // auto-groups one rank block per MPI rank; assign_ranks fails with a
    // clear message when the launch provides more ranks than shards. An
    // explicit map must match the launch exactly.
    if (partition_.num_ranks() == 1 && MpiRuntime::size() > 1)
      partition_.assign_ranks(MpiRuntime::size());
    EXASTP_CHECK_MSG(
        partition_.num_ranks() == MpiRuntime::size(),
        "backend=mpi: the partition groups its " +
            std::to_string(partition_.num_shards()) + " shard(s) onto " +
            std::to_string(partition_.num_ranks()) +
            " rank(s) but the launch provides " +
            std::to_string(MpiRuntime::size()) + " — launch with mpirun -np " +
            std::to_string(partition_.num_ranks()) +
            " or regroup with shards_per_rank=");
  }

  shards_.resize(static_cast<std::size_t>(partition_.num_shards()));
  primary_ = -1;
  for (int s = 0; s < partition_.num_shards(); ++s) {
    if (!shard_is_local(s)) continue;
    if (primary_ < 0) primary_ = s;
    std::unique_ptr<SolverBase> shard =
        make_shard(partition_.subdomain(s).grid);
    EXASTP_CHECK_MSG(shard != nullptr, "shard factory returned null");
    shards_[static_cast<std::size_t>(s)] = std::move(shard);
  }
  EXASTP_CHECK_MSG(primary_ >= 0, "no shard is resident on this rank");
  const int phases = primary().num_step_phases();
  for (const auto& shard : shards_) {
    if (shard == nullptr) continue;
    EXASTP_CHECK_MSG(shard->layout().size() == primary().layout().size() &&
                         shard->stepper_name() == primary().stepper_name() &&
                         shard->num_step_phases() == phases,
                     "all shards must share layout and stepper");
  }
  exchange_ =
      make_exchange_backend(backend, partition_, primary().layout().size());
}

int ShardedSolver::num_ranks() const {
  return distributed_ ? partition_.num_ranks() : 1;
}

void ShardedSolver::set_exchange_backend(
    std::unique_ptr<ExchangeBackend> backend) {
  EXASTP_CHECK_MSG(backend != nullptr, "exchange backend must not be null");
  exchange_ = std::move(backend);
}

void ShardedSolver::set_initial_condition(const InitialCondition& init) {
  // Each local shard evaluates the condition at its own nodes; the views
  // compute node positions in global coordinates, so the assembled field
  // is bitwise-identical to the monolithic initialization.
  for (auto& shard : shards_)
    if (shard != nullptr) shard->set_initial_condition(init);
}

void ShardedSolver::add_point_source(const MeshPointSource& source) {
  const int owner = partition_.owner_of(global_grid_.locate(source.position));
  if (!shard_is_local(owner)) return;  // the owning rank adds it
  shards_[static_cast<std::size_t>(owner)]->add_point_source(source);
}

void ShardedSolver::set_thread_team(const ParallelFor& team) {
  SolverBase::set_thread_team(team);  // the engine-facing team (norms &c.)
  // ParallelFor copies share one pool, so every shard reuses this team
  // instead of spawning shards x threads idle workers.
  for (auto& shard : shards_)
    if (shard != nullptr) shard->set_thread_team(team);
}

double ShardedSolver::stable_dt(double cfl) const {
  double dt = 0.0;
  bool first = true;
  for (const auto& shard : shards_) {
    if (shard == nullptr) continue;
    const double shard_dt = shard->stable_dt(cfl);
    dt = first ? shard_dt : std::min(dt, shard_dt);
    first = false;
  }
  // Exact min across ranks: every rank computes the identical dt, keeping
  // the distributed time loop in lockstep (a no-op for local runs).
  if (distributed_) dt = MpiRuntime::min_across_ranks(dt);
  return dt;
}

std::vector<ExchangeField> ShardedSolver::phase_exchange_fields(
    int phase) const {
  // Collect every local shard's halo fields for the phase. All shards run
  // the same stepper over the same configuration, so their field lists
  // must agree structurally (count and channels); the fields of one
  // channel assemble into one ExchangeField.
  std::vector<ExchangeField> exchange_fields;
  bool first_local = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s] == nullptr) continue;
    const std::vector<PhaseHaloField> shard_fields =
        shards_[s]->step_phase_halo_fields(phase);
    if (first_local) {
      exchange_fields.resize(shard_fields.size());
      for (std::size_t f = 0; f < shard_fields.size(); ++f) {
        exchange_fields[f].channel = shard_fields[f].channel;
        exchange_fields[f].shard_fields.assign(shards_.size(), nullptr);
      }
      first_local = false;
    } else {
      EXASTP_CHECK_MSG(shard_fields.size() == exchange_fields.size(),
                       "shards disagree on the phase's halo fields");
    }
    for (std::size_t f = 0; f < shard_fields.size(); ++f) {
      EXASTP_CHECK_MSG(
          shard_fields[f].channel == exchange_fields[f].channel,
          "shards disagree on the phase's halo channels");
      EXASTP_CHECK_MSG(shard_fields[f].data != nullptr,
                       "halo field without storage");
      exchange_fields[f].shard_fields[s] = shard_fields[f].data;
    }
  }
  return exchange_fields;
}

void ShardedSolver::step(double dt) {
  // The shards' phase sweeps run without step_phase's dt guard.
  EXASTP_CHECK_MSG(dt > 0.0, "dt must be positive");
  const int phases = num_step_phases();
  // The whole step's exchange plan is known up front: a phase's halo
  // fields are a pure function of the phase (stable preallocated
  // pointers), so every phase's field list assembles before any sweep
  // runs and outlives the scheduled step.
  std::vector<std::vector<ExchangeField>> fields_by_phase(
      static_cast<std::size_t>(phases));
  for (int p = 0; p < phases; ++p)
    fields_by_phase[static_cast<std::size_t>(p)] = phase_exchange_fields(p);

  std::vector<int> local;
  for (int s = 0; s < num_shards(); ++s)
    if (shard_is_local(s)) local.push_back(s);

  // Per-shard progress: the next phase to run and whether its interior
  // sweep already ran. The per-shard order is interior -> (halos
  // delivered) -> boundary -> advance; when a shard completes a phase it
  // immediately opens the next phase for receiving and captures its
  // outgoing planes, so the next phase's traffic pipelines behind other
  // shards' compute.
  struct ShardProgress {
    int phase = 0;
    bool interior_done = false;
  };
  std::vector<ShardProgress> progress(local.size());

  exchange_->sched_begin_step(fields_by_phase);
  // Open before capture so intra-rank phase-0 planes deliver zero-copy
  // (a capture whose receiver is already open skips the staging buffer).
  for (const int s : local) exchange_->sched_open(s, 0);
  for (const int s : local) exchange_->sched_capture(s, 0);

  TelemetryRegistry* reg = TelemetryScope::current();
  const bool timing = reg != nullptr && reg->spans_enabled();
  std::int64_t tasks = 0;
  std::int64_t ready_depth_sum = 0;
  std::int64_t blocked_polls = 0;

  std::size_t remaining = local.size();
  while (remaining > 0) {
    // Progress in-flight deliveries without blocking, then pick a task.
    exchange_->sched_poll(/*block=*/false);

    // Boundary sweeps first (they retire phases and release the shard's
    // next captures — the scheduler's critical path), lowest phase then
    // lowest shard id for determinism; interior sweeps fill the rest.
    int ready = 0;
    int pick = -1;
    bool pick_boundary = false;
    for (std::size_t i = 0; i < local.size(); ++i) {
      const ShardProgress& p = progress[i];
      if (p.phase >= phases) continue;
      if (!p.interior_done) {
        ++ready;
        if (pick < 0) pick = static_cast<int>(i);
      } else if (exchange_->sched_delivered(local[i], p.phase)) {
        ++ready;
        if (!pick_boundary ||
            p.phase < progress[static_cast<std::size_t>(pick)].phase) {
          pick = static_cast<int>(i);
          pick_boundary = true;
        }
      }
    }

    if (pick < 0) {
      // Every unfinished shard waits on halo arrivals: block in the
      // backend's progress engine. The span's arg is the number of
      // stalled shards — all of them, by construction of this branch.
      ++blocked_polls;
      ScopedSpan span(SpanId::kSchedWait,
                      /*arg=*/static_cast<std::int64_t>(remaining));
      exchange_->sched_poll(/*block=*/true);
      continue;
    }

    ++tasks;
    ready_depth_sum += ready;
    ShardProgress& p = progress[static_cast<std::size_t>(pick)];
    const int s = local[static_cast<std::size_t>(pick)];
    // Task time spent while arrivals are outstanding is communication
    // hidden behind compute (the overlap_compute aggregate). Per-shard
    // spans land on the shard's synthetic trace track and feed the
    // imbalance statistic.
    const bool pending = exchange_->sched_any_pending();
    const std::int64_t t0 = timing ? reg->now_ns() : 0;
    if (!p.interior_done) {
      {
        ScopedSpan span(SpanId::kShardInterior, /*arg=*/p.phase,
                        /*track=*/s);
        shards_[static_cast<std::size_t>(s)]->step_phase_interior(p.phase,
                                                                  dt);
      }
      p.interior_done = true;
    } else {
      {
        ScopedSpan span(SpanId::kShardBoundary, /*arg=*/p.phase,
                        /*track=*/s);
        shards_[static_cast<std::size_t>(s)]->step_phase_boundary(p.phase,
                                                                  dt);
      }
      ++p.phase;
      p.interior_done = false;
      if (p.phase < phases) {
        // The shard finished reading the previous phase's halos and its
        // outgoing planes are final: receive window opens, sends fly.
        exchange_->sched_open(s, p.phase);
        exchange_->sched_capture(s, p.phase);
      } else {
        --remaining;
      }
    }
    if (timing && pending)
      reg->add_duration(SpanId::kOverlapCompute, reg->now_ns() - t0);
  }
  exchange_->sched_end_step();

  if (reg != nullptr) {
    reg->add_counter("sched_tasks", static_cast<double>(tasks));
    reg->add_counter("sched_ready_depth_sum",
                     static_cast<double>(ready_depth_sum));
    reg->add_counter("sched_blocked_polls",
                     static_cast<double>(blocked_polls));
  }
}

void ShardedSolver::enable_lts(const std::vector<int>& cluster_of_cell,
                               int num_clusters) {
  EXASTP_CHECK_MSG(static_cast<int>(cluster_of_cell.size()) ==
                       global_grid_.num_cells(),
                   "the sharded solver's lts cluster assignment is indexed "
                   "by global cells");
  for (int s = 0; s < num_shards(); ++s) {
    if (!shard_is_local(s)) continue;
    const Subdomain& sub = partition_.subdomain(s);
    const Grid& g = sub.grid;
    std::vector<int> local(
        static_cast<std::size_t>(g.num_cells() + g.num_halo_cells()), 0);
    for (int lc = 0; lc < g.num_cells(); ++lc)
      local[static_cast<std::size_t>(lc)] =
          cluster_of_cell[static_cast<std::size_t>(
              partition_.global_cell(s, lc))];
    // Halo slots: the plan names the source shard's local cells in slot
    // order, so each slot's cluster resolves through the same global map
    // the owning shard uses — no communication, no disagreement.
    for (const HaloPlan& plan : sub.halos) {
      for (std::size_t i = 0; i < plan.src_cells.size(); ++i)
        local[static_cast<std::size_t>(plan.dst_begin) + i] =
            cluster_of_cell[static_cast<std::size_t>(
                partition_.global_cell(plan.src_shard, plan.src_cells[i]))];
    }
    shards_[static_cast<std::size_t>(s)]->enable_lts(local, num_clusters);
  }
}

std::vector<SolverBase::LtsClusterStats> ShardedSolver::lts_cluster_stats()
    const {
  std::vector<LtsClusterStats> total;
  for (const auto& shard : shards_) {
    if (shard == nullptr) continue;
    const std::vector<LtsClusterStats> stats = shard->lts_cluster_stats();
    if (total.empty()) total.resize(stats.size());
    EXASTP_CHECK_MSG(stats.size() == total.size(),
                     "shards disagree on the lts cluster count");
    for (std::size_t k = 0; k < stats.size(); ++k) {
      total[k].cells += stats[k].cells;
      total[k].cell_substeps += stats[k].cell_substeps;
      total[k].ns += stats[k].ns;
    }
  }
  return total;
}

const double* ShardedSolver::cell_dofs(int cell) const {
  const int owner = partition_.owner_of(cell);
  EXASTP_CHECK_MSG(shard_is_local(owner),
                   "cell " + std::to_string(cell) + " is owned by shard " +
                       std::to_string(owner) + " on rank " +
                       std::to_string(partition_.rank_of(owner)) +
                       ", not resident on rank " + std::to_string(rank_));
  return shards_[static_cast<std::size_t>(owner)]->cell_dofs(
      partition_.local_cell(owner, cell));
}

std::array<double, 3> ShardedSolver::node_position(int cell, int k1, int k2,
                                                   int k3) const {
  const int owner = partition_.owner_of(cell);
  EXASTP_CHECK_MSG(shard_is_local(owner),
                   "cell " + std::to_string(cell) + " is owned by shard " +
                       std::to_string(owner) + " on rank " +
                       std::to_string(partition_.rank_of(owner)) +
                       ", not resident on rank " + std::to_string(rank_));
  return shards_[static_cast<std::size_t>(owner)]->node_position(
      partition_.local_cell(owner, cell), k1, k2, k3);
}

const SolverBase& ShardedSolver::shard(int s) const {
  EXASTP_CHECK(s >= 0 && s < num_shards());
  EXASTP_CHECK_MSG(shard_is_local(s),
                   "shard " + std::to_string(s) + " is not resident on rank " +
                       std::to_string(rank_));
  return *shards_[static_cast<std::size_t>(s)];
}

}  // namespace exastp
