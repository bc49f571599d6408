// Integration tests for the full ADER-DG solver: exact transport, plane
// waves, convergence orders, conservation, boundary conditions, point
// sources, blow-up detection, cross-variant trajectory equality and the
// CFL bound the ADER and RK4 steppers share.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "exastp/kernels/registry.h"
#include "exastp/pde/acoustic.h"
#include "exastp/pde/advection.h"
#include "exastp/pde/elastic.h"
#include "exastp/solver/ader_dg_solver.h"
#include "exastp/solver/norms.h"
#include "exastp/solver/output.h"
#include "exastp/solver/rk_dg_solver.h"

namespace exastp {
namespace {

constexpr double kPi = std::numbers::pi;

template <class Pde>
AderDgSolver make_solver(Pde pde, StpVariant variant, int order,
                         const GridSpec& spec) {
  auto runtime = std::make_shared<PdeAdapter<Pde>>(pde);
  StpKernel kernel = make_stp_kernel(pde, variant, order, host_best_isa());
  return AderDgSolver(runtime, std::move(kernel), spec);
}

GridSpec unit_cube(int cells) {
  GridSpec s;
  s.cells = {cells, cells, cells};
  s.origin = {0.0, 0.0, 0.0};
  s.extent = {1.0, 1.0, 1.0};
  return s;
}

// Smooth periodic profile advected diagonally.
void advection_ic(const std::array<double, 3>& x, double* q) {
  const double v = std::sin(2.0 * kPi * x[0]) * std::cos(2.0 * kPi * x[1]) +
                   0.3 * std::sin(2.0 * kPi * x[2]);
  for (int s = 0; s < AdvectionPde::kQuants; ++s) q[s] = (s + 1) * v;
}

double advection_exact(const AdvectionPde& pde,
                       const std::array<double, 3>& x, double t, int s) {
  std::array<double, 3> y{x[0] - pde.velocity[0] * t,
                          x[1] - pde.velocity[1] * t,
                          x[2] - pde.velocity[2] * t};
  const double v = std::sin(2.0 * kPi * y[0]) * std::cos(2.0 * kPi * y[1]) +
                   0.3 * std::sin(2.0 * kPi * y[2]);
  return (s + 1) * v;
}

TEST(SolverAdvection, TransportsProfileAccurately) {
  AdvectionPde pde;
  auto solver = make_solver(pde, StpVariant::kSplitCk, 5, unit_cube(3));
  solver.set_initial_condition(advection_ic);
  solver.run_until(0.1);
  const double err = l2_error(
      solver, 0,
      [&](const std::array<double, 3>& x, double t) {
        return advection_exact(pde, x, t, 0);
      });
  EXPECT_LT(err, 5e-4) << "order-5 transport error too large";
}

TEST(SolverAdvection, ConservesMassOnPeriodicMesh) {
  AdvectionPde pde;
  auto solver = make_solver(pde, StpVariant::kLog, 4, unit_cube(3));
  solver.set_initial_condition(advection_ic);
  const double before = integral(solver, 1);
  solver.run_until(0.05);
  const double after = integral(solver, 1);
  EXPECT_NEAR(after, before, 1e-11);
}

class ConvergenceP : public ::testing::TestWithParam<int> {};

TEST_P(ConvergenceP, RefinementShowsDesignOrder) {
  // Order N (N nodes/dim) should converge at O(h^N). A 1-D column keeps the
  // runtime low and the asymptotic regime reachable; we accept anything
  // safely above N - 0.7 on one refinement step.
  const int order = GetParam();
  AdvectionPde pde;
  pde.velocity = {1.0, 0.0, 0.0};
  const double t_end = 0.1;
  double errs[2];
  int meshes[2] = {4, 8};
  for (int i = 0; i < 2; ++i) {
    GridSpec spec;
    spec.cells = {meshes[i], 1, 1};
    auto solver = make_solver(pde, StpVariant::kSplitCk, order, spec);
    solver.set_initial_condition(
        [](const std::array<double, 3>& x, double* q) {
          const double v = std::sin(2.0 * kPi * x[0]);
          for (int s = 0; s < AdvectionPde::kQuants; ++s) q[s] = v;
        });
    solver.run_until(t_end);
    errs[i] = l2_error(solver, 0,
                       [&](const std::array<double, 3>& x, double t) {
                         return std::sin(2.0 * kPi * (x[0] - t));
                       });
  }
  const double rate = std::log2(errs[0] / errs[1]);
  EXPECT_GT(rate, order - 0.7)
      << "errors " << errs[0] << " -> " << errs[1];
}

INSTANTIATE_TEST_SUITE_P(Orders, ConvergenceP, ::testing::Values(2, 3, 4));

TEST(SolverAcoustic, PlaneWaveMatchesDispersionRelation) {
  // p = sin(k.x - w t), v = khat/(rho c) p, w = c |k|: exact solution of the
  // acoustic system on the periodic unit cube.
  AcousticPde pde;
  const double rho = 1.0, c = 1.0;
  const double k = 2.0 * kPi;
  auto solver = make_solver(pde, StpVariant::kAosoaSplitCk, 5, unit_cube(3));
  solver.set_initial_condition(
      [&](const std::array<double, 3>& x, double* q) {
        const double p = std::sin(k * x[0]);
        q[AcousticPde::kP] = p;
        q[AcousticPde::kVx] = p / (rho * c);
        q[AcousticPde::kVx + 1] = 0.0;
        q[AcousticPde::kVx + 2] = 0.0;
        q[AcousticPde::kRho] = rho;
        q[AcousticPde::kC] = c;
      });
  solver.run_until(0.1);
  const double w = c * k;
  const double err = l2_error(
      solver, AcousticPde::kP,
      [&](const std::array<double, 3>& x, double t) {
        return std::sin(k * x[0] - w * t);
      });
  EXPECT_LT(err, 5e-4);
}

TEST(SolverAcoustic, WallBoundaryKeepsEnergyBounded) {
  AcousticPde pde;
  GridSpec spec = unit_cube(2);
  spec.boundary = {BoundaryKind::kWall, BoundaryKind::kWall,
                   BoundaryKind::kWall};
  auto solver = make_solver(pde, StpVariant::kSplitCk, 4, spec);
  solver.set_initial_condition(
      [&](const std::array<double, 3>& x, double* q) {
        const double r2 = (x[0] - 0.5) * (x[0] - 0.5) +
                          (x[1] - 0.5) * (x[1] - 0.5) +
                          (x[2] - 0.5) * (x[2] - 0.5);
        q[AcousticPde::kP] = std::exp(-40.0 * r2);
        q[1] = q[2] = q[3] = 0.0;
        q[AcousticPde::kRho] = 1.0;
        q[AcousticPde::kC] = 1.0;
      });
  auto energy = [&] {
    double e = 0.0;
    for (int s = 0; s < 4; ++s) {
      // Crude quadratic functional via L2 norm against zero.
      const double n = l2_error(
          solver, s, [](const std::array<double, 3>&, double) { return 0.0; });
      e += n * n;
    }
    return e;
  };
  const double e0 = energy();
  solver.run_until(0.2);
  EXPECT_LT(energy(), 1.5 * e0) << "reflecting box must not gain energy";
}

TEST(SolverAcoustic, OutflowDrainsPulse) {
  AcousticPde pde;
  GridSpec spec = unit_cube(2);
  spec.boundary = {BoundaryKind::kOutflow, BoundaryKind::kOutflow,
                   BoundaryKind::kOutflow};
  auto solver = make_solver(pde, StpVariant::kSplitCk, 4, spec);
  solver.set_initial_condition(
      [&](const std::array<double, 3>& x, double* q) {
        const double r2 = (x[0] - 0.5) * (x[0] - 0.5) +
                          (x[1] - 0.5) * (x[1] - 0.5) +
                          (x[2] - 0.5) * (x[2] - 0.5);
        q[AcousticPde::kP] = std::exp(-40.0 * r2);
        q[1] = q[2] = q[3] = 0.0;
        q[AcousticPde::kRho] = 1.0;
        q[AcousticPde::kC] = 1.0;
      });
  const double p0 = l2_error(
      solver, 0, [](const std::array<double, 3>&, double) { return 0.0; });
  solver.run_until(1.2);  // pulse leaves the unit box at c = 1
  const double p1 = l2_error(
      solver, 0, [](const std::array<double, 3>&, double) { return 0.0; });
  EXPECT_LT(p1, 0.35 * p0) << "pulse should mostly radiate away";
}

TEST(SolverVariants, OneStepTrajectoriesAgree) {
  AcousticPde pde;
  const int order = 4;
  std::vector<std::vector<double>> states;
  for (StpVariant v : kAllVariants) {
    auto solver = make_solver(pde, v, order, unit_cube(2));
    solver.set_initial_condition(
        [&](const std::array<double, 3>& x, double* q) {
          q[0] = std::sin(2.0 * kPi * x[0]) + std::cos(2.0 * kPi * x[2]);
          q[1] = 0.1;
          q[2] = -0.2;
          q[3] = 0.05;
          q[AcousticPde::kRho] = 1.0;
          q[AcousticPde::kC] = 2.0;
        });
    solver.step(1e-3);
    solver.step(1e-3);
    // Collect unpadded nodal values of quantity 0..3 of every cell.
    std::vector<double> snapshot;
    const auto& layout = solver.layout();
    for (int c = 0; c < solver.grid().num_cells(); ++c) {
      const double* qc = solver.cell_dofs(c);
      for (int k3 = 0; k3 < order; ++k3)
        for (int k2 = 0; k2 < order; ++k2)
          for (int k1 = 0; k1 < order; ++k1)
            for (int s = 0; s < 4; ++s)
              snapshot.push_back(qc[layout.idx(k3, k2, k1, s)]);
    }
    states.push_back(std::move(snapshot));
  }
  for (std::size_t v = 1; v < states.size(); ++v) {
    ASSERT_EQ(states[v].size(), states[0].size());
    for (std::size_t i = 0; i < states[0].size(); ++i)
      ASSERT_NEAR(states[v][i], states[0][i], 1e-10)
          << "variant " << v << " diverged at " << i;
  }
}

TEST(SolverSource, PointSourceInjectsEnergy) {
  AcousticPde pde;
  // Odd cell count puts the source at the centre of the middle cell, so the
  // response must be mirror-symmetric.
  auto solver = make_solver(pde, StpVariant::kSplitCk, 4, unit_cube(3));
  solver.set_initial_condition(
      [](const std::array<double, 3>&, double* q) {
        q[0] = q[1] = q[2] = q[3] = 0.0;
        q[AcousticPde::kRho] = 1.0;
        q[AcousticPde::kC] = 1.0;
      });
  MeshPointSource src;
  src.position = {0.5, 0.5, 0.5};
  src.quantity = AcousticPde::kP;
  src.wavelet = std::make_shared<RickerWavelet>(4.0, 0.25);
  solver.add_point_source(src);
  solver.run_until(0.3);
  const double p = l2_error(
      solver, 0, [](const std::array<double, 3>&, double) { return 0.0; });
  EXPECT_GT(p, 1e-4) << "source produced no field";
  // The pressure field stays finite and roughly symmetric: sample two
  // mirror points.
  const double a = solver.sample({0.25, 0.5, 0.5}, 0);
  const double b = solver.sample({0.75, 0.5, 0.5}, 0);
  EXPECT_NEAR(a, b, 1e-6 + 0.05 * std::abs(a));
}

TEST(SolverSource, RejectsDuplicateSourceCellsAndBadQuantity) {
  AcousticPde pde;
  auto solver = make_solver(pde, StpVariant::kGeneric, 3, unit_cube(2));
  MeshPointSource src;
  src.position = {0.3, 0.3, 0.3};
  src.quantity = 0;
  src.wavelet = std::make_shared<RickerWavelet>(2.0, 0.1);
  solver.add_point_source(src);
  EXPECT_THROW(solver.add_point_source(src), std::invalid_argument);
  MeshPointSource bad = src;
  bad.position = {0.8, 0.8, 0.8};
  bad.quantity = AcousticPde::kRho;  // parameters cannot receive sources
  EXPECT_THROW(solver.add_point_source(bad), std::invalid_argument);
}

TEST(SolverRobustness, BlowUpIsDetected) {
  AdvectionPde pde;
  auto solver = make_solver(pde, StpVariant::kLog, 4, unit_cube(2));
  solver.set_initial_condition(advection_ic);
  // A grossly unstable step: 1000x the CFL limit.
  const double dt = 1000.0 * solver.stable_dt();
  EXPECT_THROW(
      {
        for (int i = 0; i < 50; ++i) solver.step(dt);
      },
      std::runtime_error);
}

TEST(SolverRobustness, RejectsNonPositiveDt) {
  AdvectionPde pde;
  auto solver = make_solver(pde, StpVariant::kGeneric, 3, unit_cube(2));
  EXPECT_THROW(solver.step(0.0), std::invalid_argument);
  EXPECT_THROW(solver.step(-0.1), std::invalid_argument);
}

TEST(SolverSampling, ReproducesInitialConditionPointwise) {
  AdvectionPde pde;
  auto solver = make_solver(pde, StpVariant::kGeneric, 5, unit_cube(2));
  solver.set_initial_condition(advection_ic);
  for (auto& x : std::vector<std::array<double, 3>>{
           {0.1, 0.2, 0.3}, {0.5, 0.5, 0.5}, {0.9, 0.05, 0.61}}) {
    double node[AdvectionPde::kQuants];
    advection_ic(x, node);
    // Order-5 interpolation of a smooth profile on a half-size cell: allow
    // interpolation error.
    EXPECT_NEAR(solver.sample(x, 2), node[2], 1.5e-2);
  }
}

TEST(SolverDt, ScalesInverselyWithWaveSpeedAndOrder) {
  // Both steppers share one CFL bound (DgSolver::stable_dt). Each solver
  // is re-initialized from c = 1 to c = 2, so a stale wave-speed cache
  // would show as an unchanged dt.
  AcousticPde pde;
  auto runtime = std::make_shared<PdeAdapter<AcousticPde>>(pde);
  const auto medium = [](double c) {
    return [c](const std::array<double, 3>&, double* q) {
      q[0] = q[1] = q[2] = q[3] = 0.0;
      q[AcousticPde::kRho] = 1.0;
      q[AcousticPde::kC] = c;
    };
  };
  // dt at c = 1, then at c = 2 on the same solver.
  const auto dt_pair = [&](SolverBase& solver) {
    solver.set_initial_condition(medium(1.0));
    const double slow = solver.stable_dt();
    solver.set_initial_condition(medium(2.0));
    return std::array<double, 2>{slow, solver.stable_dt()};
  };
  std::vector<double> slow_by_order;
  for (const int order : {3, 4, 6}) {
    AderDgSolver ader =
        make_solver(pde, StpVariant::kGeneric, order, unit_cube(2));
    RkDgSolver rk(runtime, order, host_best_isa(), unit_cube(2));
    const std::array<double, 2> ader_dt = dt_pair(ader);
    const std::array<double, 2> rk_dt = dt_pair(rk);
    EXPECT_NEAR(ader_dt[0] / ader_dt[1], 2.0, 1e-10) << "order " << order;
    EXPECT_EQ(ader_dt, rk_dt) << "order " << order;
    slow_by_order.push_back(ader_dt[0]);
  }
  EXPECT_GT(slow_by_order.front(), slow_by_order.back());
}

}  // namespace
}  // namespace exastp
