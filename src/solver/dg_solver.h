// Shared base of the two DG time steppers.
//
// AderDgSolver (the paper's predictor-corrector) and RkDgSolver (the RK4
// baseline it is measured against) run on the same spatial
// discretization: nodal DG on a uniform (possibly partitioned) grid,
// collocation derivatives, Rusanov fluxes and the strong-form lift. This
// class owns what that discretization fixes — the halo-extended solution
// buffer in the kernel's padded AoS layout, the interior/boundary cell
// split, the prepared point sources and the per-cell wave-speed cache —
// and implements once everything that does not depend on the time
// integrator: the accessors, the initial condition, the CFL bound, the
// finite check and the phase driver (step = phases 0..P-1, each phase =
// interior sweep then boundary sweep).
//
// Thread determinism. Every mesh traversal of either stepper is
// cell-parallel (ParallelFor): each write belongs to the traversed cell and
// each thread owns its scratch (kernel clone, face workspace). An interior
// face is visited from both adjacent cells, which recomputes its Riemann
// solve once per side — the same fstar bits from identical inputs — so the
// updates need no face ownership and no coloring. Reductions (the wave-
// speed max, the finite check) commute exactly. Results are therefore
// bitwise-identical for any thread count.
#pragma once

#include <memory>
#include <vector>

#include "exastp/basis/basis_tables.h"
#include "exastp/common/aligned.h"
#include "exastp/kernels/face.h"
#include "exastp/mesh/grid.h"
#include "exastp/pde/pde_base.h"
#include "exastp/solver/solver_base.h"

namespace exastp {

class DgSolver : public SolverBase {
 public:
  const Grid& grid() const override { return grid_; }
  const AosLayout& layout() const override { return layout_; }
  const BasisTables& basis() const override { return basis_; }
  double time() const override { return time_; }
  int order() const override { return basis_.n; }
  int evolved_quantities() const override { return vars_; }

  /// Fills every owned cell's nodes, zeroes the layout padding, resets
  /// the time and invalidates the wave-speed cache.
  void set_initial_condition(const InitialCondition& init) override;

  /// Locates the source's cell and projects the delta onto its basis; the
  /// steppers inject it in their own time integration.
  void add_point_source(const MeshPointSource& source) override;
  bool supports_point_sources() const override { return true; }

  /// CFL-limited stable time step, h / (c (2N - 1)) per dimension. The
  /// per-cell maximum wave speed is cached on first use: every registered
  /// PDE's speed depends only on material parameter rows, which are
  /// constant in time (zero flux), so recomputing the eigenvalue sweep
  /// each step is pure waste. set_initial_condition invalidates the cache.
  double stable_dt(double cfl = 0.4) const override;

  /// Runs phases 0..num_step_phases()-1. Throws std::invalid_argument for
  /// dt <= 0 and std::runtime_error if the solution leaves the finite
  /// range (blow-up detection).
  void step(double dt) override;
  /// step_phase_interior then step_phase_boundary.
  void step_phase(int phase, double dt) override;

  /// Read-only view of a cell's padded AoS DOFs.
  const double* cell_dofs(int cell) const override {
    return q_.data() + static_cast<std::size_t>(cell) * cell_size_;
  }
  /// Physical position of a quadrature node of a cell.
  std::array<double, 3> node_position(int cell, int k1, int k2,
                                      int k3) const override;

 protected:
  /// `layout` is the engine-facing AoS layout of the DOF storage; the
  /// basis is built for its order. q_ spans owned + halo cells so the face
  /// accessors read owned and exchanged neighbours through one pointer.
  DgSolver(std::shared_ptr<const PdeRuntime> pde, const Grid& grid,
           const AosLayout& layout, NodeFamily family);

  /// Throws std::runtime_error naming stepper_name() if any owned DOF is
  /// not finite.
  void check_finite() const;

  /// A point source located on the mesh and projected onto the nodal basis
  /// of its cell.
  struct PreparedSource {
    int cell = -1;
    MeshPointSource source;
    AlignedVector psi;
  };

  std::shared_ptr<const PdeRuntime> pde_;
  Grid grid_;
  const BasisTables& basis_;
  AosLayout layout_;
  FaceLayout face_layout_;
  std::size_t cell_size_;
  int vars_ = 0;  ///< evolved quantities (parameters excluded)

  AlignedVector q_;  ///< solution, owned + halo cells
  /// Interior/boundary split of the neighbour-reading sweeps
  /// (mesh/partition.h); boundary is empty for whole-domain grids, so the
  /// monolithic path is one full interior sweep.
  std::vector<int> interior_cells_, boundary_cells_;
  std::vector<PreparedSource> sources_;
  double time_ = 0.0;

 private:
  /// Per-cell max wave speed over nodes and directions; parameter-only,
  /// so it survives until the next set_initial_condition.
  mutable std::vector<double> wave_speed_cache_;
};

}  // namespace exastp
