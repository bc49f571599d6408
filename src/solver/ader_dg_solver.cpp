#include "exastp/solver/ader_dg_solver.h"

#include <chrono>
#include <cstring>

#include "exastp/common/check.h"
#include "exastp/common/taylor.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {

AderDgSolver::AderDgSolver(std::shared_ptr<const PdeRuntime> pde,
                           StpKernel kernel, const GridSpec& grid_spec,
                           NodeFamily family)
    : AderDgSolver(std::move(pde), std::move(kernel), Grid(grid_spec),
                   family) {}

AderDgSolver::AderDgSolver(std::shared_ptr<const PdeRuntime> pde,
                           StpKernel kernel, const Grid& grid,
                           NodeFamily family)
    : DgSolver(std::move(pde), grid, kernel.layout(), family),
      kernel_(std::move(kernel)) {
  EXASTP_CHECK_MSG(pde_ != nullptr && kernel_, "solver needs pde and kernel");
  EXASTP_CHECK_MSG(pde_->info().quants == layout_.m,
                   "kernel layout does not match the PDE");
  // Halo slots extend every buffer like q_, so the corrector's neighbour
  // accessor is one base pointer for owned and exchanged cells alike; only
  // qavg's halo is ever filled (step_phase_halo_fields; under LTS also
  // qavg_half's and qavg_sum's), the others stay zero.
  qnew_.assign(q_.size(), 0.0);
  qavg_.assign(q_.size(), 0.0);
  rebuild_scratch();
}

void AderDgSolver::set_thread_team(const ParallelFor& team) {
  // Validate before touching par_/scratch_, so a throw leaves the solver
  // in its previous, consistent configuration.
  EXASTP_CHECK_MSG(team.num_threads() == 1 || kernel_.can_fork(),
                   "multi-threaded stepping needs a forkable kernel "
                   "(built via make_stp_kernel)");
  SolverBase::set_thread_team(team);
  rebuild_scratch();
}

void AderDgSolver::rebuild_scratch() {
  scratch_.clear();
  scratch_.reserve(static_cast<std::size_t>(num_threads()));
  for (int tid = 0; tid < num_threads(); ++tid) {
    ThreadScratch ts;
    // Thread 0 is the caller and may share the primary kernel's workspace;
    // every other thread gets an independent clone.
    ts.kernel = tid == 0 ? kernel_ : kernel_.fork();
    ts.favg0.assign(cell_size_, 0.0);
    ts.favg1.assign(cell_size_, 0.0);
    ts.favg2.assign(cell_size_, 0.0);
    ts.nb_state.assign(cell_size_, 0.0);
    ts.faces.resize(face_layout_);
    scratch_.push_back(std::move(ts));
  }
}

void AderDgSolver::predict_cell(
    ThreadScratch& ts, int c, double dt, double t,
    const std::array<double, 3>& inv_dx,
    const std::array<double, kMaxOrder>& integral_coeff, bool sum_reset) {
  const double* qc = cell_dofs(c);
  double* qavg_c = qavg_.data() + static_cast<std::size_t>(c) * cell_size_;
  double* qnew_c = qnew_.data() + static_cast<std::size_t>(c) * cell_size_;

  std::memcpy(qnew_c, qc, cell_size_ * sizeof(double));

  // favg goes straight into the volume update, so three temporaries per
  // thread suffice.
  ts.favg0.assign(cell_size_, 0.0);
  ts.favg1.assign(cell_size_, 0.0);
  ts.favg2.assign(cell_size_, 0.0);

  SourceTerm src;
  const SourceTerm* src_ptr = nullptr;
  for (const auto& prepared : sources_) {
    if (prepared.cell != c) continue;
    src.psi = prepared.psi.data();
    src.quantity = prepared.source.quantity;
    for (int o = 0; o <= layout_.n; ++o)
      src.dt_derivatives[o] = prepared.source.wavelet->derivative(t, o);
    src_ptr = &src;
    break;  // one source per cell supported; add_point_source validates
  }

  StpOutputs out{qavg_c, {ts.favg0.data(), ts.favg1.data(), ts.favg2.data()}};
  ts.kernel.run(qc, dt, inv_dx, src_ptr, out);

  for (const double* f : {ts.favg0.data(), ts.favg1.data(), ts.favg2.data()})
    for (std::size_t i = 0; i < cell_size_; ++i) qnew_c[i] += dt * f[i];
  FlopCounter::instance().add(WidthClass::k128, 6ull * cell_size_);

  if (src_ptr != nullptr) {
    // Direct time integral of the source: qnew += psi * int s dt.
    double integral = 0.0;
    for (int o = 0; o < layout_.n; ++o)
      integral += src.dt_derivatives[o] * integral_coeff[o];
    const int n = layout_.n;
    for (int k3 = 0; k3 < n; ++k3)
      for (int k2 = 0; k2 < n; ++k2)
        for (int k1 = 0; k1 < n; ++k1)
          qnew_c[layout_.idx(k3, k2, k1, src.quantity)] +=
              src.psi[(static_cast<std::size_t>(k3) * n + k2) * n + k1] *
              integral;
  }

  if (!lts_enabled_) return;

  if (needs_sum_[static_cast<std::size_t>(c)] != 0) {
    // A coarser face neighbour averages this cell's two sub-averages over
    // its full interval; fold qavg into the running window sum.
    double* sum_c =
        qavg_sum_.data() + static_cast<std::size_t>(c) * cell_size_;
    if (sum_reset)
      std::memcpy(sum_c, qavg_c, cell_size_ * sizeof(double));
    else
      for (std::size_t i = 0; i < cell_size_; ++i) sum_c[i] += qavg_c[i];
  }

  if (needs_half_[static_cast<std::size_t>(c)] != 0) {
    // A finer face neighbour substeps inside this cell's interval: rerun
    // the predictor over [t, t + dt/2] into qavg_half (the kernel
    // overwrites its outputs, so the favg scratch is simply discarded;
    // the same Taylor expansion point means the same source derivatives).
    double* half_c =
        qavg_half_.data() + static_cast<std::size_t>(c) * cell_size_;
    StpOutputs half_out{
        half_c, {ts.favg0.data(), ts.favg1.data(), ts.favg2.data()}};
    ts.kernel.run(qc, 0.5 * dt, inv_dx, src_ptr, half_out);
  }
}

void AderDgSolver::step_phase_interior(int phase, double dt) {
  if (lts_enabled_) {
    EXASTP_CHECK(phase >= 0 && phase < 2 * macro_substeps_);
    const int s = phase / 2;
    const double dt_fine = dt / macro_substeps_;
    if (phase % 2 == 0) {
      // Predict fine substep s: every cluster whose step starts here
      // (s aligned to its 2^k stride) expands at t = time_ + s dt_fine.
      ScopedSpan span(SpanId::kPredict);
      const auto inv_dx = grid_.inv_dx();
      for (int k = 0; k < num_clusters_; ++k) {
        if (s % (1 << k) != 0) continue;
        predict_cluster(k, s, dt_fine * (1 << k), time_ + s * dt_fine,
                        inv_dx);
      }
      return;
    }
    // Correct fine substep s, interior sweep: the clusters completing
    // their step here read only owned qavg-family tensors.
    ScopedSpan span(SpanId::kCorrectInterior);
    for (int k = 0; k < num_clusters_; ++k) {
      if ((s + 1) % (1 << k) != 0) continue;
      correct_cluster(k, s, dt_fine * (1 << k), cluster_interior_[k]);
    }
    return;
  }

  EXASTP_CHECK(phase == 0 || phase == 1);
  if (phase == 0) {
    ScopedSpan span(SpanId::kPredict);
    const auto inv_dx = grid_.inv_dx();
    const auto integral_coeff = taylor_coefficients(dt, layout_.n);
    // Predictor + volume update: embarrassingly cell-parallel — qavg_c and
    // qnew_c belong to the traversed cell, each thread runs its own kernel
    // clone and favg scratch. No neighbour reads, so the phase is all
    // interior.
    par_.run(grid_.num_cells(), 1, [&](int tid, long begin, long end) {
      ThreadScratch& ts = scratch_[static_cast<std::size_t>(tid)];
      for (long c = begin; c < end; ++c)
        predict_cell(ts, static_cast<int>(c), dt, time_, inv_dx,
                     integral_coeff, false);
    });
    return;
  }

  // Corrector over the interior set: these cells read only owned qavg
  // tensors, so the sweep runs while the halo exchange is in flight.
  ScopedSpan span(SpanId::kCorrectInterior);
  apply_corrector(dt, interior_cells_);
}

void AderDgSolver::step_phase_boundary(int phase, double dt) {
  if (lts_enabled_) {
    EXASTP_CHECK(phase >= 0 && phase < 2 * macro_substeps_);
    if (phase % 2 == 0) return;
    const int s = phase / 2;
    const double dt_fine = dt / macro_substeps_;
    ScopedSpan span(SpanId::kCorrectBoundary);
    for (int k = 0; k < num_clusters_; ++k) {
      if ((s + 1) % (1 << k) != 0) continue;
      correct_cluster(k, s, dt_fine * (1 << k), cluster_boundary_[k]);
    }
    if (s == macro_substeps_ - 1) {
      // Every cluster completes at the last fine substep, so every owned
      // cell's qnew is fresh — the whole-buffer swap and finite check of
      // the global path apply verbatim (K == 1 IS the global path).
      q_.swap(qnew_);
      time_ += dt;
      check_finite();
      return;
    }
    // Intermediate advance: only the completing clusters' cells move to
    // their substepped state; everyone else keeps stepping from q.
    for (int k = 0; k < num_clusters_; ++k) {
      if ((s + 1) % (1 << k) != 0) continue;
      const std::vector<int>& cells = cluster_cells_[k];
      par_.run(static_cast<long>(cells.size()), 1,
               [&](int /*tid*/, long begin, long end) {
                 for (long i = begin; i < end; ++i) {
                   const std::size_t off =
                       static_cast<std::size_t>(
                           cells[static_cast<std::size_t>(i)]) *
                       cell_size_;
                   std::memcpy(q_.data() + off, qnew_.data() + off,
                               cell_size_ * sizeof(double));
                 }
               });
    }
    return;
  }

  EXASTP_CHECK(phase == 0 || phase == 1);
  if (phase == 0) return;

  // Runs after qavg halos are valid (the monolithic grid has none, and its
  // boundary set is empty): boundary corrector, buffer swap, time advance.
  ScopedSpan span(SpanId::kCorrectBoundary);
  apply_corrector(dt, boundary_cells_);
  q_.swap(qnew_);
  time_ += dt;
  check_finite();
}

void AderDgSolver::correct_cell(ThreadScratch& ts, int c, double dt, int s) {
  const auto inv_dx = grid_.inv_dx();
  double* qnew_c = qnew_.data() + static_cast<std::size_t>(c) * cell_size_;
  if (!lts_enabled_ || num_clusters_ == 1) {
    const auto qavg_of = [this](int cell) -> const double* {
      return qavg_.data() + static_cast<std::size_t>(cell) * cell_size_;
    };
    for (int dir = 0; dir < 3; ++dir)
      for (int side = 0; side < 2; ++side)
        apply_own_face(*pde_, grid_, layout_, basis_, vars_, c, dir, side,
                       dt * inv_dx[dir], qavg_of, ts.faces, qnew_c);
    return;
  }

  // Cross-cluster neighbour states, derived on the fly from the CK/Taylor
  // identity avg[dt/2, dt] = 2 avg[0, dt] - avg[0, dt/2]. The own cell is
  // always same-cluster (direct pointer), so one scratch tensor per
  // thread suffices — each face consumes it before the next face derives
  // a new one. Parameter rows survive every derivation (2p - p = p,
  // 0.5 (p + p) = p), so face solves see valid materials.
  const int k = cluster_[static_cast<std::size_t>(c)];
  double* tmp = ts.nb_state.data();
  const auto state_of = [this, k, s, tmp](int cell) -> const double* {
    const std::size_t off = static_cast<std::size_t>(cell) * cell_size_;
    const double* avg = qavg_.data() + off;
    const int nk = cluster_[static_cast<std::size_t>(cell)];
    if (nk == k) return avg;
    if (nk > k) {
      // Coarser neighbour: its interval spans two of my steps; my local
      // substep parity says which half I am in.
      const double* half = qavg_half_.data() + off;
      if (((s >> k) & 1) == 0) return half;
      for (std::size_t i = 0; i < cell_size_; ++i)
        tmp[i] = 2.0 * avg[i] - half[i];
      return tmp;
    }
    // Finer neighbour: mean of its two sub-averages over my interval.
    const double* sum = qavg_sum_.data() + off;
    for (std::size_t i = 0; i < cell_size_; ++i) tmp[i] = 0.5 * sum[i];
    return tmp;
  };
  for (int dir = 0; dir < 3; ++dir)
    for (int side = 0; side < 2; ++side)
      apply_own_face(*pde_, grid_, layout_, basis_, vars_, c, dir, side,
                     dt * inv_dx[dir], state_of, ts.faces, qnew_c);
}

void AderDgSolver::apply_corrector(double dt, const std::vector<int>& cells) {
  // Cell-parallel surface sweep over one classification set: each cell
  // applies the lift from its own six faces to itself only (interior
  // Riemann solves are recomputed once per side — identical bits, no write
  // races), so the interior/boundary split never changes any cell's bits.
  par_.run(static_cast<long>(cells.size()), 1,
           [&](int tid, long begin, long end) {
             ThreadScratch& ts = scratch_[static_cast<std::size_t>(tid)];
             for (long i = begin; i < end; ++i)
               correct_cell(ts, cells[static_cast<std::size_t>(i)], dt, 0);
           });
}

void AderDgSolver::predict_cluster(int k, int s, double dt_k, double t,
                                   const std::array<double, 3>& inv_dx) {
  ScopedSpan span(SpanId::kLtsCluster, /*arg=*/k);
  const auto t0 = std::chrono::steady_clock::now();
  const auto integral_coeff = taylor_coefficients(dt_k, layout_.n);
  // A new sum window opens on every even local substep (the start of the
  // coarser neighbour's interval).
  const bool sum_reset = ((s >> k) & 1) == 0;
  const std::vector<int>& cells = cluster_cells_[static_cast<std::size_t>(k)];
  par_.run(static_cast<long>(cells.size()), 1,
           [&](int tid, long begin, long end) {
             ThreadScratch& ts = scratch_[static_cast<std::size_t>(tid)];
             for (long i = begin; i < end; ++i)
               predict_cell(ts, cells[static_cast<std::size_t>(i)], dt_k, t,
                            inv_dx, integral_coeff, sum_reset);
           });
  cluster_ns_[static_cast<std::size_t>(k)] +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  cluster_cell_substeps_[static_cast<std::size_t>(k)] +=
      static_cast<long long>(cells.size());
}

void AderDgSolver::correct_cluster(int k, int s, double dt_k,
                                   const std::vector<int>& cells) {
  ScopedSpan span(SpanId::kLtsCluster, /*arg=*/k);
  const auto t0 = std::chrono::steady_clock::now();
  par_.run(static_cast<long>(cells.size()), 1,
           [&](int tid, long begin, long end) {
             ThreadScratch& ts = scratch_[static_cast<std::size_t>(tid)];
             for (long i = begin; i < end; ++i)
               correct_cell(ts, cells[static_cast<std::size_t>(i)], dt_k, s);
           });
  cluster_ns_[static_cast<std::size_t>(k)] +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
}

void AderDgSolver::enable_lts(const std::vector<int>& cluster_of_cell,
                              int num_clusters) {
  const int total = grid_.num_cells() + grid_.num_halo_cells();
  EXASTP_CHECK_MSG(num_clusters >= 1, "lts needs at least one cluster");
  EXASTP_CHECK_MSG(
      static_cast<int>(cluster_of_cell.size()) == total,
      "lts cluster assignment must cover owned + halo cells");
  for (const int k : cluster_of_cell)
    EXASTP_CHECK_MSG(k >= 0 && k < num_clusters,
                     "lts cluster assignment out of range");
  // The CK/Taylor coupling covers exactly one rate level per face; the
  // engine's binning normalizes to this invariant, re-checked here so a
  // hand-built assignment cannot silently desynchronize.
  for (int c = 0; c < grid_.num_cells(); ++c) {
    for (int dir = 0; dir < 3; ++dir) {
      for (int side = 0; side < 2; ++side) {
        const NeighborRef nb = grid_.neighbor(c, dir, side);
        if (nb.boundary) continue;
        const int diff = cluster_of_cell[static_cast<std::size_t>(c)] -
                         cluster_of_cell[static_cast<std::size_t>(nb.cell)];
        EXASTP_CHECK_MSG(diff >= -1 && diff <= 1,
                         "lts face neighbours must be at most one rate "
                         "cluster apart");
      }
    }
  }

  cluster_ = cluster_of_cell;
  num_clusters_ = num_clusters;
  macro_substeps_ = 1 << (num_clusters - 1);
  lts_enabled_ = true;

  // Per-cluster sweep lists, filtered from the global orders so the
  // K == 1 degenerate case walks exactly the global sweeps.
  cluster_cells_.assign(static_cast<std::size_t>(num_clusters), {});
  for (int c = 0; c < grid_.num_cells(); ++c)
    cluster_cells_[static_cast<std::size_t>(cluster_[c])].push_back(c);
  cluster_interior_.assign(static_cast<std::size_t>(num_clusters), {});
  for (const int c : interior_cells_)
    cluster_interior_[static_cast<std::size_t>(cluster_[c])].push_back(c);
  cluster_boundary_.assign(static_cast<std::size_t>(num_clusters), {});
  for (const int c : boundary_cells_)
    cluster_boundary_[static_cast<std::size_t>(cluster_[c])].push_back(c);

  // Production flags: which owned cells must publish the extra
  // time-averages. Halo neighbours count — the reader may live on
  // another shard, and the exchange moves whatever this shard produced.
  needs_half_.assign(static_cast<std::size_t>(total), 0);
  needs_sum_.assign(static_cast<std::size_t>(total), 0);
  for (int c = 0; c < grid_.num_cells(); ++c) {
    for (int dir = 0; dir < 3; ++dir) {
      for (int side = 0; side < 2; ++side) {
        const NeighborRef nb = grid_.neighbor(c, dir, side);
        if (nb.boundary) continue;
        const int nk = cluster_[static_cast<std::size_t>(nb.cell)];
        const int k = cluster_[static_cast<std::size_t>(c)];
        if (nk < k) needs_half_[static_cast<std::size_t>(c)] = 1;
        if (nk > k) needs_sum_[static_cast<std::size_t>(c)] = 1;
      }
    }
  }

  if (num_clusters_ > 1) {
    const std::size_t size = static_cast<std::size_t>(total) * cell_size_;
    qavg_half_.assign(size, 0.0);
    qavg_sum_.assign(size, 0.0);
  }
  cluster_ns_.assign(static_cast<std::size_t>(num_clusters), 0);
  cluster_cell_substeps_.assign(static_cast<std::size_t>(num_clusters), 0);
}

std::vector<SolverBase::LtsClusterStats> AderDgSolver::lts_cluster_stats()
    const {
  if (!lts_enabled_) return {};
  std::vector<LtsClusterStats> stats(
      static_cast<std::size_t>(num_clusters_));
  for (int k = 0; k < num_clusters_; ++k) {
    LtsClusterStats& st = stats[static_cast<std::size_t>(k)];
    st.cells = static_cast<int>(
        cluster_cells_[static_cast<std::size_t>(k)].size());
    st.cell_substeps = cluster_cell_substeps_[static_cast<std::size_t>(k)];
    st.ns = cluster_ns_[static_cast<std::size_t>(k)];
  }
  return stats;
}

std::vector<SolverBase::PhaseHaloField> AderDgSolver::step_phase_halo_fields(
    int phase) {
  const bool correct = lts_enabled_ ? phase % 2 == 1 : phase == 1;
  if (!correct) return {};
  std::vector<PhaseHaloField> fields{PhaseHaloField{qavg_.data(), 0}};
  if (num_clusters_ > 1) {
    // Over-exchange by design: not every correct phase reads every
    // buffer, but a fixed field set keeps all shards' exchanges structurally
    // agreed without any cross-shard negotiation.
    fields.push_back(PhaseHaloField{qavg_half_.data(), 1});
    fields.push_back(PhaseHaloField{qavg_sum_.data(), 2});
  }
  return fields;
}

}  // namespace exastp
