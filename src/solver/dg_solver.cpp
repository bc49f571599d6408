#include "exastp/solver/dg_solver.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "exastp/common/check.h"
#include "exastp/mesh/partition.h"

namespace exastp {

DgSolver::DgSolver(std::shared_ptr<const PdeRuntime> pde, const Grid& grid,
                   const AosLayout& layout, NodeFamily family)
    : pde_(std::move(pde)),
      grid_(grid),
      basis_(basis_tables(layout.n, family)),
      layout_(layout),
      face_layout_(layout_),
      cell_size_(layout_.size()),
      vars_(pde_ ? pde_->info().vars : 0) {
  q_.assign(static_cast<std::size_t>(grid_.num_cells() +
                                     grid_.num_halo_cells()) *
                cell_size_,
            0.0);
  CellClassification cells = classify_cells(grid_);
  interior_cells_ = std::move(cells.interior);
  boundary_cells_ = std::move(cells.boundary);
}

void DgSolver::set_initial_condition(const InitialCondition& init) {
  const int n = layout_.n;
  std::vector<double> node(layout_.m);
  for (int c = 0; c < grid_.num_cells(); ++c) {
    double* cell = q_.data() + static_cast<std::size_t>(c) * cell_size_;
    for (int k3 = 0; k3 < n; ++k3)
      for (int k2 = 0; k2 < n; ++k2)
        for (int k1 = 0; k1 < n; ++k1) {
          init(node_position(c, k1, k2, k3), node.data());
          double* dst = cell + layout_.idx(k3, k2, k1, 0);
          std::memcpy(dst, node.data(), layout_.m * sizeof(double));
          for (int s = layout_.m; s < layout_.m_pad; ++s) dst[s] = 0.0;
        }
  }
  time_ = 0.0;
  // Material parameters may have changed; the wave-speed cache rebuilds
  // on the next stable_dt call.
  wave_speed_cache_.clear();
}

void DgSolver::add_point_source(const MeshPointSource& source) {
  EXASTP_CHECK_MSG(source.wavelet != nullptr, "source needs a wavelet");
  EXASTP_CHECK_MSG(source.quantity >= 0 && source.quantity < vars_,
                   "source quantity must be an evolved variable");
  PreparedSource prepared;
  std::array<double, 3> xi{};
  prepared.cell = grid_.locate(source.position, &xi);
  for (const auto& existing : sources_)
    EXASTP_CHECK_MSG(existing.cell != prepared.cell,
                     "only one point source per cell is supported");
  prepared.source = source;
  prepared.psi = project_point_source(basis_, xi, grid_.cell_volume());
  sources_.push_back(std::move(prepared));
}

std::array<double, 3> DgSolver::node_position(int cell, int k1, int k2,
                                              int k3) const {
  const auto o = grid_.cell_origin(cell);
  return {o[0] + grid_.dx(0) * basis_.nodes[k1],
          o[1] + grid_.dx(1) * basis_.nodes[k2],
          o[2] + grid_.dx(2) * basis_.nodes[k3]};
}

double DgSolver::stable_dt(double cfl) const {
  const int n = layout_.n;
  if (wave_speed_cache_.empty()) {
    // Per-cell maxima, computed once per initial condition. max commutes
    // exactly, so the cached values — and the reduction below — stay
    // bitwise-independent of the thread count.
    const std::size_t nodes = static_cast<std::size_t>(n) * n * n;
    wave_speed_cache_.assign(static_cast<std::size_t>(grid_.num_cells()),
                             0.0);
    par_.run(grid_.num_cells(), 1, [&](int /*tid*/, long begin, long end) {
      for (long c = begin; c < end; ++c) {
        const double* cell = cell_dofs(static_cast<int>(c));
        double cell_max = 0.0;
        for (std::size_t k = 0; k < nodes; ++k)
          for (int d = 0; d < 3; ++d)
            cell_max = std::max(
                cell_max, pde_->max_wave_speed(cell + k * layout_.m_pad, d));
        wave_speed_cache_[static_cast<std::size_t>(c)] = cell_max;
      }
    });
  }
  double smax = 1e-300;
  for (double s : wave_speed_cache_) smax = std::max(smax, s);
  const double hmin = std::min({grid_.dx(0), grid_.dx(1), grid_.dx(2)});
  // Standard explicit-DG CFL bound ~ h / (c (2N - 1)) per dimension.
  return cfl * hmin / (smax * (2.0 * n - 1.0) * 3.0);
}

void DgSolver::step(double dt) {
  for (int phase = 0; phase < num_step_phases(); ++phase)
    step_phase(phase, dt);
}

void DgSolver::step_phase(int phase, double dt) {
  EXASTP_CHECK_MSG(dt > 0.0, "dt must be positive");
  step_phase_interior(phase, dt);
  step_phase_boundary(phase, dt);
}

void DgSolver::check_finite() const {
  // Per-chunk verdicts with early exit; "any non-finite" commutes, so the
  // outcome is thread-count-independent.
  std::vector<char> bad(static_cast<std::size_t>(par_.num_threads()), 0);
  par_.run(grid_.num_cells(), 1, [&](int tid, long begin, long end) {
    for (long c = begin; c < end; ++c) {
      const double* cell = cell_dofs(static_cast<int>(c));
      for (std::size_t i = 0; i < cell_size_; ++i) {
        if (!std::isfinite(cell[i])) {
          bad[static_cast<std::size_t>(tid)] = 1;
          return;
        }
      }
    }
  });
  for (char b : bad) {
    if (b != 0)
      throw std::runtime_error(stepper_name() +
                               " stepper: solution became non-finite (CFL "
                               "violation or unstable setup)");
  }
}

}  // namespace exastp
