// ADER-DG predictor-corrector time stepping (paper Sec. II, eq. (5)).
//
// One time step = one amortized mesh traversal:
//   1. per cell: STP kernel -> time-averaged state qavg and volume
//      fluctuations favg[d]; volume update qnew = q + dt sum_d favg[d]
//      (+ the direct time-integral of any point source);
//   2. per cell: for each of its six faces, project both sides' qavg,
//      solve the Rusanov Riemann problem (linear in its inputs) and apply
//      the strong-form surface lift to this cell only; boundary faces
//      build a ghost state from the boundary condition;
//   3. swap buffers, advance time, verify the solution stayed finite.
//
// Both mesh traversals are cell-parallel, each thread running a forked
// kernel clone (thread determinism: dg_solver.h).
//
// DOF storage is one contiguous aligned block in the *kernel's* AoS layout
// (padded for the optimized variants), so the engine exercises exactly the
// data layout the paper optimizes.
#pragma once

#include <memory>
#include <vector>

#include "exastp/kernels/face.h"
#include "exastp/kernels/stp_common.h"
#include "exastp/solver/dg_solver.h"

namespace exastp {

class AderDgSolver final : public DgSolver {
 public:
  /// `pde` is the runtime view used for face terms and boundary conditions;
  /// `kernel` must have been built for the same PDE (same quantity count).
  AderDgSolver(std::shared_ptr<const PdeRuntime> pde, StpKernel kernel,
               const GridSpec& grid_spec,
               NodeFamily family = NodeFamily::kGaussLegendre);
  /// Same, over an arbitrary (possibly partitioned) grid view: qavg grows
  /// a halo ring the corrector reads for off-shard neighbours.
  AderDgSolver(std::shared_ptr<const PdeRuntime> pde, StpKernel kernel,
               const Grid& grid, NodeFamily family = NodeFamily::kGaussLegendre);

  std::string stepper_name() const override { return "ader"; }

  /// Rebuilds the per-thread kernel clones and face scratch; teams > 1
  /// thread require a kernel built through make_stp_kernel (forkable).
  void set_thread_team(const ParallelFor& team) override;

  // ---- Clustered local time stepping ----------------------------------
  // enable_lts switches the stepper to the clustered schedule: cluster k
  // steps with dt_k = dt_fine * 2^k, one macro step = 2^(K-1) fine
  // substeps; step(dt) then advances one MACRO step (the coarsest
  // cluster's dt). Cross-cluster faces use the CK/Taylor identity
  //   avg[dt/2, dt] = 2 avg[0, dt] - avg[0, dt/2]
  // so a coarse cell runs its predictor twice (dt -> qavg, dt/2 ->
  // qavg_half) when it has a finer face neighbour, and a fine cell
  // accumulates qavg_sum over its two substeps when it has a coarser one
  // (the coarse corrector reads 0.5 * qavg_sum). The Rusanov flux is
  // linear in its inputs, so both sides of a cluster boundary see the
  // same time-integrated flux up to FP reassociation. K == 1 reproduces
  // global stepping bitwise (docs/lts.md).
  void enable_lts(const std::vector<int>& cluster_of_cell,
                  int num_clusters) override;
  int lts_num_clusters() const override { return num_clusters_; }
  std::vector<LtsClusterStats> lts_cluster_stats() const override;
  /// stable * 2^(K-1): one macro step spans the coarsest cluster.
  double plan_step(double stable) const override {
    return lts_enabled_ ? stable * macro_substeps_ : stable;
  }

  /// Sharded stepping: phase 0 = element-local predictor + volume update,
  /// phase 1 = surface corrector + buffer swap + time advance. The
  /// corrector reads neighbour qavg tensors, so its halo field is qavg —
  /// and its sweep splits into an interior sweep (cells with no halo
  /// neighbour, runnable while the qavg exchange is in flight) and the
  /// boundary remainder once qavg is delivered. The predictor reads no
  /// neighbour data, so phase 0 is all interior.
  ///
  /// Under clustered LTS the protocol generalizes to 2 * 2^(K-1) phases:
  /// phase 2s = predict fine substep s (clusters aligned at s, interior-
  /// only), phase 2s+1 = correct the clusters completing at s. Correct
  /// phases read up to three halo fields (qavg / qavg_half / qavg_sum on
  /// channels 0/1/2); the final substep swaps buffers and advances time
  /// exactly like the global path.
  int num_step_phases() const override {
    return lts_enabled_ ? 2 * macro_substeps_ : 2;
  }
  void step_phase_interior(int phase, double dt) override;
  void step_phase_boundary(int phase, double dt) override;
  std::vector<PhaseHaloField> step_phase_halo_fields(int phase) override;

 private:
  /// Everything one worker thread mutates outside its q/qnew/qavg slices:
  /// a kernel clone with its own workspace plus aligned face scratch.
  struct ThreadScratch {
    StpKernel kernel;
    AlignedVector favg0, favg1, favg2;  // volume-update temporaries
    AlignedVector nb_state;  // derived cross-cluster neighbour state (LTS)
    FaceWorkspace faces;
  };

  void rebuild_scratch();
  /// One predictor + volume update at expansion time t. Under LTS the
  /// cell may additionally run the kernel with dt/2 into qavg_half (finer
  /// face neighbour) and fold qavg into qavg_sum (coarser face
  /// neighbour); `sum_reset` starts a fresh sum window.
  void predict_cell(ThreadScratch& ts, int c, double dt, double t,
                    const std::array<double, 3>& inv_dx,
                    const std::array<double, kMaxOrder>& integral_coeff,
                    bool sum_reset);
  /// Surface lift for one cell; `s` is the fine substep index (for the
  /// cross-cluster neighbour-state selection; ignored off LTS).
  void correct_cell(ThreadScratch& ts, int c, double dt, int s);
  /// Surface sweep over one cell list (the interior or boundary set).
  void apply_corrector(double dt, const std::vector<int>& cells);
  /// Timed predictor sweep over cluster k at fine substep s.
  void predict_cluster(int k, int s, double dt_k, double t,
                       const std::array<double, 3>& inv_dx);
  /// Timed corrector sweep over one of cluster k's cell lists.
  void correct_cluster(int k, int s, double dt_k,
                       const std::vector<int>& cells);

  StpKernel kernel_;
  AlignedVector qnew_, qavg_;
  std::vector<ThreadScratch> scratch_;  ///< one slot per thread

  // ---- Clustered-LTS state (inert until enable_lts) -------------------
  bool lts_enabled_ = false;
  int num_clusters_ = 1;
  int macro_substeps_ = 1;  ///< 2^(K-1) fine substeps per macro step
  std::vector<int> cluster_;  ///< rate cluster per owned + halo cell
  /// Production flags per owned cell: needs_half = has a finer face
  /// neighbour (run the dt/2 predictor), needs_sum = has a coarser one
  /// (accumulate qavg over the sum window).
  std::vector<char> needs_half_, needs_sum_;
  /// Per-cluster owned-cell lists (all / interior / boundary), in the
  /// same relative order as the global sweeps so K == 1 reproduces them.
  std::vector<std::vector<int>> cluster_cells_, cluster_interior_,
      cluster_boundary_;
  /// Extra time-average buffers, halo-extended like qavg_ (exchange
  /// channels 1 and 2); allocated only for K > 1.
  AlignedVector qavg_half_, qavg_sum_;
  /// Measured per-cluster cost: wall ns inside the cluster's sweeps and
  /// cell-substeps executed (the balance table's denominator).
  std::vector<long long> cluster_ns_, cluster_cell_substeps_;
};

}  // namespace exastp
