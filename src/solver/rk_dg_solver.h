// Runge-Kutta DG baseline solver.
//
// The paper motivates ADER-DG by its advantages over the more widespread
// RK-DG approach (Sec. I, citing [5]): one element-local predictor plus one
// corrector per step versus one full mesh-wide operator evaluation per RK
// stage. This classical RK4-DG solver provides the measurable baseline for
// that claim (bench_ablation_rkdg): same spatial discretization (nodal DG,
// collocation derivative, Rusanov fluxes, strong-form lift), same mesh and
// PDE interface, classical fourth-order Runge-Kutta in time.
//
// The stage operator is one fused cell-parallel traversal: a cell's volume
// terms, the lift from its own six faces and any point-source injection,
// writing only that cell's rhs slice (thread determinism: dg_solver.h).
// The RK axpy sweeps are chunked at vector-width granularity, so they too
// are bitwise-identical for any thread count.
#pragma once

#include <memory>
#include <vector>

#include "exastp/kernels/face.h"
#include "exastp/solver/dg_solver.h"

namespace exastp {

class RkDgSolver final : public DgSolver {
 public:
  RkDgSolver(std::shared_ptr<const PdeRuntime> pde, int order, Isa isa,
             const GridSpec& grid_spec,
             NodeFamily family = NodeFamily::kGaussLegendre);
  /// Same, over an arbitrary (possibly partitioned) grid view: the state
  /// buffers grow a halo ring the stage operator reads for off-shard
  /// neighbours.
  RkDgSolver(std::shared_ptr<const PdeRuntime> pde, int order, Isa isa,
             const Grid& grid, NodeFamily family = NodeFamily::kGaussLegendre);

  std::string stepper_name() const override { return "rk4"; }

  /// Rebuilds the per-thread operator scratch.
  void set_thread_team(const ParallelFor& team) override;

  /// One classical RK4 step = four evaluations of the semi-discrete DG
  /// operator, one per phase; stable_dt is DgSolver's, the same bound as
  /// the ADER solver for an apples-to-apples time-to-solution comparison.
  /// Point sources add psi * s(t) to the rhs at every stage time, so the
  /// RK4 tableau integrates the time-dependent source to fourth order.
  ///
  /// Sharded stepping: one phase per RK stage. Every stage operator reads
  /// neighbour tensors of its input state — q for the first stage, the
  /// stage buffer afterwards — so each phase names that array as its halo
  /// field. The operator traversal splits into an interior sweep (no halo
  /// neighbours, runs while the exchange is in flight) and the boundary
  /// remainder plus the element-wise stage sweeps once the halo is delivered.
  int num_step_phases() const override { return 4; }
  void step_phase_interior(int phase, double dt) override;
  void step_phase_boundary(int phase, double dt) override;
  std::vector<PhaseHaloField> step_phase_halo_fields(int phase) override {
    return {PhaseHaloField{phase == 0 ? q_.data() : stage_.data(), 0}};
  }

  /// Number of semi-discrete operator evaluations so far (4 per step).
  long operator_evaluations() const { return operator_evals_; }

 private:
  /// Per-thread scratch of the fused volume + surface cell traversal.
  struct ThreadScratch {
    AlignedVector flux, gradq;  // per-cell volume scratch
    FaceWorkspace faces;
    std::vector<double> ncp_tmp;
  };

  void rebuild_scratch();
  /// rhs = L(state) at time t over one cell list (the interior or
  /// boundary classification set): volume derivative terms, surface
  /// corrections and point-source injection, writing only the listed
  /// cells' rhs slices.
  void evaluate_operator(const AlignedVector& state, double t,
                         AlignedVector& rhs, const std::vector<int>& cells);
  void operator_cell(ThreadScratch& ts, const AlignedVector& state, double t,
                     int c, AlignedVector& rhs);
  /// Input state and evaluation time of one RK stage.
  const AlignedVector& stage_state(int phase) const {
    return phase == 0 ? q_ : stage_;
  }
  double stage_time(int phase, double dt) const {
    return phase == 0 ? time_ : (phase == 3 ? time_ + dt : time_ + 0.5 * dt);
  }

  Isa isa_;
  AlignedVector stage_, rhs_, accum_;
  std::vector<ThreadScratch> scratch_;  ///< one slot per thread
  long operator_evals_ = 0;
};

}  // namespace exastp
