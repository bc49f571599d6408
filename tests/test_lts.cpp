// Clustered local time stepping (docs/lts.md).
//
// Under test:
//   * the lts= / lts_clusters= / balance= config keys: parsing,
//     validation, canonical-string membership (the schedule keys split the
//     memoization key, the balance table path does not),
//   * rate-cluster binning from local wave speeds: the floor(log2) rule,
//     the cluster cap, the +-1 face-neighbour smoothing and the level
//     compaction of compute_lts_clusters,
//   * AderDgSolver::enable_lts input validation (coverage, range, the +-1
//     face invariant a hand-built assignment could violate),
//   * the one-cluster degenerate case: lts=on with a single cluster is
//     bitwise-identical to lts=off across the full threads x shards
//     acceptance matrix (carries the threaded+sharded labels),
//   * multi-cluster accuracy: a forced three-cluster schedule on the
//     analytic acoustic plane wave stays within a fraction of the
//     discretization error of the matching global run,
//   * multi-cluster decomposition invariance: the heterogeneous LOH1
//     stiff-layer clustering produces bitwise-identical results for every
//     tested threads x shards combination,
//   * weighted partitioning: Partition::weighted_split_sizes reproduces the
//     unweighted split for uniform weights and shifts cuts toward heavy
//     planes otherwise,
//   * the BalanceTable: substep-count weighting, measured-cost overrides,
//     text and file round trips (the balance=PATH format).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exastp/engine/lts_clusters.h"
#include "exastp/engine/pde_registry.h"
#include "exastp/engine/simulation.h"
#include "exastp/mesh/balance_table.h"
#include "exastp/mesh/partition.h"
#include "exastp/pde/acoustic.h"
#include "exastp/solver/ader_dg_solver.h"

namespace exastp {
namespace {

// ---------------------------------------------------------------------------
// Config keys.

TEST(LtsConfig, KeysParseAndValidate) {
  SimulationConfig config = parse_simulation_args(
      {"scenario=planewave", "lts=on", "lts_clusters=3", "balance=bal.txt"});
  EXPECT_TRUE(config.lts);
  EXPECT_EQ(config.lts_clusters, 3);
  EXPECT_EQ(config.balance, "bal.txt");

  config = parse_simulation_args({"scenario=planewave", "lts=off",
                                  "lts_clusters=auto"});
  EXPECT_FALSE(config.lts);
  EXPECT_EQ(config.lts_clusters, 0);

  EXPECT_THROW(parse_simulation_args({"lts=yes"}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"lts_clusters=0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"lts_rate=3"}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"balance="}), std::invalid_argument);
}

TEST(LtsConfig, CanonicalStringCarriesScheduleNotBalance) {
  SimulationConfig off = parse_simulation_args({"scenario=planewave"});
  SimulationConfig on = parse_simulation_args(
      {"scenario=planewave", "lts=on", "lts_clusters=2"});
  EXPECT_NE(canonical_config_string(off), canonical_config_string(on));
  EXPECT_NE(canonical_config_string(on).find("|lts=on|"), std::string::npos);

  // balance= is pure performance state (every decomposition is bitwise
  // identical), so it must not split the memoization key.
  SimulationConfig balanced = on;
  balanced.balance = "some_table.txt";
  EXPECT_EQ(canonical_config_string(on), canonical_config_string(balanced));
}

TEST(LtsConfig, RejectsRk4) {
  EXPECT_THROW(Simulation::from_args({"scenario=planewave", "stepper=rk4",
                                      "lts=on", "order=3", "t_end=0.01"}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Rate-cluster binning.

/// Acoustic initial condition with a piecewise-constant sound speed:
/// `fast` where x < split, `slow` elsewhere.
InitialCondition two_speed_init(double split, double fast, double slow) {
  return [split, fast, slow](const std::array<double, 3>& x, double* q) {
    for (int s = 0; s < AcousticPde::kQuants; ++s) q[s] = 0.0;
    q[AcousticPde::kRho] = 1.0;
    q[AcousticPde::kC] = x[0] < split ? fast : slow;
  };
}

TEST(LtsClusters, BinsBySpeedAndSmoothsFaceGaps) {
  GridSpec spec;
  spec.cells = {8, 2, 2};
  spec.extent = {8.0, 2.0, 2.0};
  const auto pde = find_pde("acoustic")->runtime();
  // Speed ratio 4 puts the slow half at floor(log2(4)) = 2; the smoothing
  // pass must lower the slow cells that touch the fast band (directly at
  // x = 2 and through the periodic wrap at x = 7) to level 1.
  const LtsClustering clustering = compute_lts_clusters(
      spec, *pde, two_speed_init(2.0, 4.0, 1.0), 3,
      NodeFamily::kGaussLegendre, 0);
  EXPECT_EQ(clustering.num_clusters, 3);
  const Grid grid(spec);
  const int expected_by_x[8] = {0, 0, 1, 2, 2, 2, 2, 1};
  for (int c = 0; c < grid.num_cells(); ++c) {
    EXPECT_EQ(clustering.cluster[c], expected_by_x[grid.coords(c)[0]])
        << "cell " << c;
    EXPECT_DOUBLE_EQ(clustering.cell_speed[c],
                     grid.coords(c)[0] < 2 ? 4.0 : 1.0);
  }
}

TEST(LtsClusters, CapLimitsLevelsAndUniformCollapses) {
  GridSpec spec;
  spec.cells = {8, 2, 2};
  spec.extent = {8.0, 2.0, 2.0};
  const auto pde = find_pde("acoustic")->runtime();
  const LtsClustering capped = compute_lts_clusters(
      spec, *pde, two_speed_init(2.0, 4.0, 1.0), 3,
      NodeFamily::kGaussLegendre, 2);
  EXPECT_EQ(capped.num_clusters, 2);
  for (const int k : capped.cluster) EXPECT_LE(k, 1);

  const LtsClustering uniform = compute_lts_clusters(
      spec, *pde, two_speed_init(2.0, 3.0, 3.0), 3,
      NodeFamily::kGaussLegendre, 0);
  EXPECT_EQ(uniform.num_clusters, 1);
  for (const int k : uniform.cluster) EXPECT_EQ(k, 0);

  // A speed ratio below the rate (2) cannot justify a second cluster.
  const LtsClustering mild = compute_lts_clusters(
      spec, *pde, two_speed_init(2.0, 3.0, 1.7), 3,
      NodeFamily::kGaussLegendre, 0);
  EXPECT_EQ(mild.num_clusters, 1);
}

TEST(LtsClusters, CompactionRemovesEmptyLevels) {
  GridSpec spec;
  spec.cells = {12, 2, 2};
  spec.extent = {12.0, 2.0, 2.0};
  const auto pde = find_pde("acoustic")->runtime();
  // Ratio 8 = three raw levels (0 and 3) with 1..2 only created by the
  // smoothing ramp; the result must still be a contiguous 0..K-1 range.
  const LtsClustering clustering = compute_lts_clusters(
      spec, *pde, two_speed_init(3.0, 8.0, 1.0), 3,
      NodeFamily::kGaussLegendre, 0);
  std::vector<int> seen(static_cast<std::size_t>(clustering.num_clusters), 0);
  for (const int k : clustering.cluster) {
    ASSERT_GE(k, 0);
    ASSERT_LT(k, clustering.num_clusters);
    seen[static_cast<std::size_t>(k)] = 1;
  }
  for (const int used : seen) EXPECT_EQ(used, 1);
}

// ---------------------------------------------------------------------------
// enable_lts validation.

TEST(LtsSolver, EnableLtsRejectsBadAssignments) {
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "order=3", "cells=4x4x4", "t_end=0.05"});
  const int cells = sim.solver().grid().num_cells();
  EXPECT_THROW(sim.solver().enable_lts(std::vector<int>(cells - 1, 0), 1),
               std::invalid_argument);
  EXPECT_THROW(sim.solver().enable_lts(std::vector<int>(cells, 1), 1),
               std::invalid_argument);
  // A 0 -> 2 face jump violates the +-1 invariant the Taylor coupling
  // assumes.
  std::vector<int> jump(static_cast<std::size_t>(cells), 0);
  jump[1] = 2;
  EXPECT_THROW(sim.solver().enable_lts(jump, 3), std::invalid_argument);
}

TEST(LtsSolver, Rk4SolverRejectsEnableLts) {
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "stepper=rk4", "order=3", "cells=4x4x4",
       "t_end=0.05"});
  const int cells = sim.solver().grid().num_cells();
  EXPECT_THROW(sim.solver().enable_lts(std::vector<int>(cells, 0), 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// One-cluster bitwise equivalence: lts=on with a single cluster must run
// the byte-for-byte global schedule for every threads x shards combination.

double max_dof_difference(const SolverBase& a, const SolverBase& b) {
  EXPECT_EQ(a.grid().num_cells(), b.grid().num_cells());
  EXPECT_EQ(a.layout().size(), b.layout().size());
  double worst = 0.0;
  for (int c = 0; c < a.grid().num_cells(); ++c) {
    const double* qa = a.cell_dofs(c);
    const double* qb = b.cell_dofs(c);
    for (std::size_t i = 0; i < a.layout().size(); ++i)
      worst = std::max(worst, std::abs(qa[i] - qb[i]));
  }
  return worst;
}

Simulation run_with(const std::vector<std::string>& args,
                    const std::vector<std::string>& extra) {
  std::vector<std::string> full = args;
  full.insert(full.end(), extra.begin(), extra.end());
  Simulation sim = Simulation::from_args(full);
  sim.run();
  return sim;
}

TEST(LtsSolver, OneClusterBitwiseMatchesGlobalStepping) {
  const std::vector<std::string> base{"scenario=planewave", "order=4",
                                      "cells=4x4x2", "t_end=0.1"};
  Simulation global = run_with(base, {"shards=1", "threads=1"});
  EXPECT_EQ(global.solver().lts_num_clusters(), 1);
  for (const char* shards : {"1", "2x2x1"}) {
    for (const int threads : {1, 4}) {
      Simulation lts = run_with(
          base, {"lts=on", "lts_clusters=1", std::string("shards=") + shards,
                 "threads=" + std::to_string(threads)});
      EXPECT_EQ(lts.solver().lts_num_clusters(), 1);
      EXPECT_EQ(lts.solver().time(), global.solver().time());
      EXPECT_EQ(max_dof_difference(global.solver(), lts.solver()), 0.0)
          << "lts=on shards=" << shards << " threads=" << threads
          << " diverged from the global-stepping run";
      EXPECT_EQ(lts.l2_error(), global.l2_error())
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-cluster accuracy on the analytic plane wave.

TEST(LtsSolver, ForcedMultiClusterTracksGlobalOnPlaneWave) {
  // The plane wave is homogeneous, so the schedule is forced by hand:
  // x-bands 0|1|2|2|2|2|1|0 satisfy the +-1 invariant (including the
  // periodic wrap). The coarsest cluster quadruples its dt, so both runs
  // use cfl/4 — the LTS run's cluster-0 dt then equals the global run's
  // dt and the only difference is the coarse clusters' time resolution.
  const std::vector<std::string> base{"scenario=planewave", "order=3",
                                      "cells=8x4x4", "t_end=0.1",
                                      "cfl=0.1"};
  Simulation global = run_with(base, {});

  Simulation lts = Simulation::from_args(base);
  const Grid& grid = lts.solver().grid();
  const int band_by_x[8] = {0, 1, 2, 2, 2, 2, 1, 0};
  std::vector<int> assignment(static_cast<std::size_t>(grid.num_cells()));
  for (int c = 0; c < grid.num_cells(); ++c)
    assignment[static_cast<std::size_t>(c)] = band_by_x[grid.coords(c)[0]];
  lts.solver().enable_lts(assignment, 3);
  lts.run();

  EXPECT_EQ(lts.solver().lts_num_clusters(), 3);
  const auto stats = lts.solver().lts_cluster_stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].cells, 2 * 16);
  EXPECT_EQ(stats[1].cells, 2 * 16);
  EXPECT_EQ(stats[2].cells, 4 * 16);
  // Per macro step a cluster-k cell runs 2^(K-1-k) substeps: the per-cell
  // substep counts must reflect the 4:2:1 schedule exactly.
  const long long per_cell0 = stats[0].cell_substeps / stats[0].cells;
  const long long per_cell1 = stats[1].cell_substeps / stats[1].cells;
  const long long per_cell2 = stats[2].cell_substeps / stats[2].cells;
  EXPECT_EQ(per_cell0, 4 * per_cell2);
  EXPECT_EQ(per_cell1, 2 * per_cell2);
  EXPECT_EQ(stats[0].cell_substeps % stats[0].cells, 0);

  // Both runs land on t_end via the tail clamp; the clamp computes
  // t + (t_end - t) from different step histories, so the final times
  // agree to the run loop's landing tolerance, not bitwise.
  EXPECT_NEAR(lts.solver().time(), global.solver().time(), 1e-13);
  // The Taylor-recombined coupling keeps the LTS run within the
  // discretization error (~1e-3 L2 here, unit-amplitude wave); the runs
  // must differ (the schedule is not the global one) but only at
  // coupling-error scale, well below the solution amplitude.
  const double diff = max_dof_difference(global.solver(), lts.solver());
  EXPECT_GT(diff, 0.0);
  EXPECT_LT(diff, global.l2_error());
  EXPECT_NEAR(lts.l2_error(), global.l2_error(),
              0.1 * global.l2_error());
}

// ---------------------------------------------------------------------------
// Multi-cluster decomposition invariance on the heterogeneous stiff layer.

TEST(LtsSolver, MultiClusterShardThreadBitwiseInvariance) {
  // LOH1 with a softened layer: speed contrast 6.0/1.5 = 4 bins the layer
  // two levels below the halfspace, so the engine derives a genuine
  // multi-cluster schedule — the invariance below then covers the
  // channel-tagged halo exchange of qavg, qavg_half and qavg_sum.
  const std::vector<std::string> base{
      "scenario=loh1",           "order=3",
      "cells=6x6x6",             "t_end=0.15",
      "lts=on",                  "scenario.layer_cp=1.5",
      "scenario.layer_cs=0.75"};
  Simulation mono = run_with(base, {"shards=1", "threads=1"});
  EXPECT_GT(mono.solver().lts_num_clusters(), 1);
  const std::vector<std::pair<std::string, int>> cases{
      {"1", 4}, {"2x2x1", 1}, {"2x2x1", 4}};
  for (const auto& [shards, threads] : cases) {
    Simulation other = run_with(
        base, {"shards=" + shards, "threads=" + std::to_string(threads)});
    EXPECT_EQ(other.solver().lts_num_clusters(),
              mono.solver().lts_num_clusters());
    EXPECT_EQ(mono.solver().time(), other.solver().time());
    EXPECT_EQ(max_dof_difference(mono.solver(), other.solver()), 0.0)
        << "shards=" << shards << " threads=" << threads
        << " diverged from the monolithic multi-cluster run";
  }
}

// ---------------------------------------------------------------------------
// Weighted partitioning.

TEST(WeightedPartition, UniformWeightsReproduceUnweightedSplit) {
  for (const auto& [n, k] : std::vector<std::pair<int, int>>{
           {5, 2}, {7, 3}, {8, 4}, {9, 2}, {12, 5}}) {
    const std::vector<double> uniform(static_cast<std::size_t>(n), 1.0);
    EXPECT_EQ(Partition::weighted_split_sizes(uniform, k),
              Partition::split_sizes(n, k))
        << n << " cells over " << k << " blocks";
  }
}

TEST(WeightedPartition, CutsShiftTowardHeavyPlanes) {
  // Six planes, the first two 4x heavier: {2,4} is the unique min-max
  // split (heaviest block 8; every other cut point gives >= 9), so the
  // cuts must shift toward the heavy planes instead of halving the count.
  const std::vector<double> weights{4.0, 4.0, 1.0, 1.0, 1.0, 1.0};
  const std::vector<int> sizes = Partition::weighted_split_sizes(weights, 2);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 2);
  EXPECT_EQ(sizes[1], 4);

  // Degenerate inputs throw rather than producing empty blocks.
  EXPECT_THROW(Partition::weighted_split_sizes({1.0}, 2),
               std::invalid_argument);
}

TEST(WeightedPartition, WeightedConstructorBalancesMeasuredWork) {
  GridSpec spec;
  spec.cells = {8, 2, 2};
  spec.extent = {8.0, 2.0, 2.0};
  // x < 2 runs 4x substeps: per-cell weights 4,4,1,1,1,1,1,1 along x. The
  // balanced 2-shard split cuts at x = 2 (8 vs 6) instead of 4 vs 4 cells.
  const Grid grid(spec);
  std::vector<double> weights(static_cast<std::size_t>(grid.num_cells()));
  for (int c = 0; c < grid.num_cells(); ++c)
    weights[static_cast<std::size_t>(c)] = grid.coords(c)[0] < 2 ? 4.0 : 1.0;
  const Partition weighted(spec, {2, 1, 1}, weights);
  EXPECT_EQ(weighted.subdomain(0).size[0], 2);
  EXPECT_EQ(weighted.subdomain(1).size[0], 6);
  // An empty weight vector is the unweighted split.
  const Partition plain(spec, {2, 1, 1}, {});
  EXPECT_EQ(plain.subdomain(0).size[0], 4);
  EXPECT_EQ(plain.subdomain(1).size[0], 4);
  // Every global cell still has exactly one owner under ragged weighting.
  for (int g = 0; g < grid.num_cells(); ++g) {
    const int owner = weighted.owner_of(g);
    EXPECT_EQ(weighted.global_cell(owner, weighted.local_cell(owner, g)), g);
  }
}

// ---------------------------------------------------------------------------
// BalanceTable.

TEST(BalanceTable, CellWeightsUseSubstepCountsAndMeasuredCosts) {
  BalanceTable table;
  // No measurements: pure substep-count model, 2^(K-1-k) per cell.
  const std::vector<int> assignment{0, 1, 1, 2};
  std::vector<double> weights = table.cell_weights("elastic", 4, assignment, 3);
  EXPECT_EQ(weights, (std::vector<double>{4.0, 2.0, 2.0, 1.0}));
  // Measured costs scale the substep counts per cluster.
  table.set("elastic", 4, 0, 100.0);
  table.set("elastic", 4, 1, 150.0);
  weights = table.cell_weights("elastic", 4, assignment, 3);
  EXPECT_EQ(weights, (std::vector<double>{400.0, 300.0, 300.0, 1.0}));
  // Other keys keep the default cost 1.
  EXPECT_DOUBLE_EQ(table.cost("elastic", 5, 0), 1.0);
  EXPECT_TRUE(table.has("elastic", 4, 1));
  EXPECT_FALSE(table.has("acoustic", 4, 1));
}

TEST(BalanceTable, TextAndFileRoundTrip) {
  BalanceTable table;
  table.set("elastic", 6, 0, 123.5);
  table.set("acoustic", 3, 2, 42.0);
  const std::string text = table.serialize();
  EXPECT_NE(text.find("elastic 6 0 123.5"), std::string::npos) << text;
  EXPECT_NE(text.find("acoustic 3 2 42"), std::string::npos) << text;

  BalanceTable merged;
  merged.merge_text("# comment\n\n" + text);
  EXPECT_DOUBLE_EQ(merged.cost("elastic", 6, 0), 123.5);
  EXPECT_DOUBLE_EQ(merged.cost("acoustic", 3, 2), 42.0);
  EXPECT_THROW(merged.merge_text("elastic 6 0"), std::invalid_argument);

  const std::string path = "test_lts_balance.txt";
  table.save_file(path);
  BalanceTable loaded;
  EXPECT_FALSE(loaded.load_file("test_lts_no_such_file.txt"));
  EXPECT_TRUE(loaded.load_file(path));
  EXPECT_EQ(loaded.serialize(), table.serialize());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace exastp
