// Over-decomposed execution: the Partition rank map, the shards_per_rank=
// config key, and the dependency-driven scheduler's bitwise equivalence to
// the monolithic run across the over-decomposition matrix.
//
// The contract under test (solver/sharded_solver.h): the scheduler
// reorders WHEN sweeps run and when halo bytes move — per-shard phase
// pipelining, eager captures, latency-delayed deliveries — but never WHAT
// they compute, so for every {threads} x {shards_per_rank} x {lts}
// combination the field state is bitwise-identical to the monolithic run.
// These tests carry the `threaded` and `sharded` ctest labels the TSan CI
// job runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exastp/common/simd.h"
#include "exastp/engine/pde_registry.h"
#include "exastp/engine/scenario_registry.h"
#include "exastp/engine/simulation.h"
#include "exastp/engine/simulation_config.h"
#include "exastp/mesh/partition.h"
#include "exastp/solver/ader_dg_solver.h"
#include "exastp/solver/halo_exchange.h"
#include "exastp/solver/sharded_solver.h"
#include "exastp/telemetry/telemetry.h"

namespace exastp {
namespace {

/// Largest absolute DOF difference over global cells; 0.0 means
/// bitwise-identical (all test states are finite).
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

// ---- The Partition rank map --------------------------------------------

GridSpec z_column_spec(int nz) {
  GridSpec spec;
  spec.cells = {2, 2, nz};
  return spec;
}

TEST(RankMap, FreshPartitionMapsEveryShardToRankZero) {
  Partition partition(z_column_spec(4), {1, 1, 4});
  EXPECT_EQ(partition.num_ranks(), 1);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(partition.rank_of(s), 0);
  EXPECT_EQ(partition.shards_of_rank(0).size(), 4u);
}

TEST(RankMap, CountSplitIsContiguousAndRagged) {
  // 5 shards on 2 ranks: the first rank takes the extra shard ({3, 2}).
  Partition partition(z_column_spec(5), {1, 1, 5});
  partition.assign_ranks(2);
  EXPECT_EQ(partition.num_ranks(), 2);
  EXPECT_EQ(partition.shards_of_rank(0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(partition.shards_of_rank(1), (std::vector<int>{3, 4}));
  for (int s = 0; s < 5; ++s)
    EXPECT_EQ(partition.rank_of(s), s < 3 ? 0 : 1) << "shard " << s;

  // 5 shards on 3 ranks: {2, 2, 1}.
  Partition three(z_column_spec(5), {1, 1, 5});
  three.assign_ranks(3);
  EXPECT_EQ(three.shards_of_rank(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(three.shards_of_rank(1), (std::vector<int>{2, 3}));
  EXPECT_EQ(three.shards_of_rank(2), (std::vector<int>{4}));
}

TEST(RankMap, WeightedGroupingBalancesMeasuredCost) {
  // Shard 0 carries 4x the cost: the min-max grouping isolates it instead
  // of count-splitting {3, 2} (heaviest rank 6 vs 4).
  Partition partition(z_column_spec(5), {1, 1, 5});
  partition.assign_ranks(2, {4.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(partition.shards_of_rank(0), (std::vector<int>{0}));
  EXPECT_EQ(partition.shards_of_rank(1), (std::vector<int>{1, 2, 3, 4}));
}

TEST(RankMap, MoreRanksThanShardsFails) {
  Partition partition(z_column_spec(2), {1, 1, 2});
  try {
    partition.assign_ranks(3);
    FAIL() << "assign_ranks(3) on 2 shards should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at least one shard per rank"),
              std::string::npos)
        << e.what();
  }
}

// ---- The shards_per_rank= key -------------------------------------------

TEST(OversubConfig, ShardsPerRankParsesAndResolvesLocally) {
  const SimulationConfig config =
      parse_simulation_args({"scenario=planewave", "cells=8x8x8",
                             "shards=auto", "shards_per_rank=2"});
  EXPECT_EQ(config.shards_per_rank, 2);
  // Without MPI, shards=auto resolves to shards_per_rank shards.
  const std::array<int, 3> grid = resolve_shard_grid(config);
  EXPECT_EQ(grid[0] * grid[1] * grid[2], 2);

  EXPECT_EQ(parse_simulation_args({"shards_per_rank=auto"}).shards_per_rank,
            0);

  EXPECT_THROW(parse_simulation_args({"shards_per_rank=0"}),
               std::invalid_argument);
  // The sharded step has one schedule; schedule= is not a config key.
  EXPECT_THROW(parse_simulation_args({"schedule=lockstep"}),
               std::invalid_argument);
}

TEST(OversubConfig, CanonicalStringKeysTopology) {
  const SimulationConfig config =
      parse_simulation_args({"scenario=planewave", "shards_per_rank=2"});
  // shards_per_rank changes the resolved decomposition under shards=auto,
  // so it keys the memo cache.
  EXPECT_NE(canonical_config_string(config).find("shards_per_rank=2"),
            std::string::npos);

  SimulationConfig other = config;
  other.shards_per_rank = 4;
  EXPECT_NE(canonical_config_string(config), canonical_config_string(other));
}

// ---- The scheduler equivalence matrix ----------------------------------

/// shards_per_rank x threads, all bitwise-equal to the monolithic serial
/// run.
void expect_oversub_invariant(const std::vector<std::string>& args,
                              const std::vector<int>& shards_per_rank) {
  Simulation mono = run_with(args, {"shards=1", "threads=1"});
  EXPECT_EQ(mono.solver().num_shards(), 1);
  for (int spr : shards_per_rank) {
    for (int threads : {1, 4}) {
      Simulation sharded = run_with(
          args, {"shards=auto", "shards_per_rank=" + std::to_string(spr),
                 "threads=" + std::to_string(threads)});
      EXPECT_EQ(sharded.solver().num_shards(), spr);
      EXPECT_EQ(mono.solver().time(), sharded.solver().time());
      EXPECT_EQ(max_dof_difference(mono.solver(), sharded.solver()), 0.0)
          << "shards_per_rank=" << spr << " threads=" << threads
          << " diverged from the monolithic run";
      if (mono.has_exact_solution()) {
        EXPECT_EQ(mono.l2_error(), sharded.l2_error())
            << "shards_per_rank=" << spr << " threads=" << threads;
      }
    }
  }
}

TEST(OversubSchedule, MatchesMonolithic) {
  expect_oversub_invariant({"scenario=planewave", "order=3", "cells=5x4x3",
                            "t_end=0.08"},
                           {2, 4});
}

TEST(OversubSchedule, MatchesUnderMultiClusterLts) {
  // The softened LOH1 layer derives a genuine multi-cluster schedule, so
  // the scheduler pipelines the channel-tagged qavg / qavg_half /
  // qavg_sum exchanges across 2^(K-1) macro substeps.
  const std::vector<std::string> base{
      "scenario=loh1",           "order=3",
      "cells=6x6x6",             "t_end=0.15",
      "lts=on",                  "scenario.layer_cp=1.5",
      "scenario.layer_cs=0.75"};
  Simulation mono = run_with(base, {"shards=1", "threads=1"});
  EXPECT_GT(mono.solver().lts_num_clusters(), 1);
  const std::vector<std::pair<int, int>> cases{{2, 1}, {2, 4}, {4, 1}};
  for (const auto& [spr, threads] : cases) {
    Simulation sharded = run_with(
        base, {"shards=auto", "shards_per_rank=" + std::to_string(spr),
               "threads=" + std::to_string(threads)});
    EXPECT_EQ(sharded.solver().lts_num_clusters(),
              mono.solver().lts_num_clusters());
    EXPECT_EQ(mono.solver().time(), sharded.solver().time());
    EXPECT_EQ(max_dof_difference(mono.solver(), sharded.solver()), 0.0)
        << "shards_per_rank=" << spr << " threads=" << threads
        << " diverged from the monolithic multi-cluster run";
  }
}

// ---- Latency-injected reordering ---------------------------------------

/// A simulated cross-rank wire delay genuinely reorders the schedule —
/// captures stage eagerly, deliveries mature on deadlines, blocked polls
/// sleep — and the result must still match the zero-latency run bit for
/// bit.
TEST(OversubSchedule, SimulatedLatencyReorderingStaysBitwise) {
  SimulationConfig config = parse_simulation_args(
      {"scenario=planewave", "order=3", "cells=4x4x8"});
  config.pde = find_scenario(config.scenario)->default_pde();
  const std::shared_ptr<const KernelFactory> pde = find_pde(config.pde);
  const InitialCondition init =
      find_scenario(config.scenario)->initial_condition(pde, config);
  const auto make_shard =
      [&](const Grid& grid) -> std::unique_ptr<SolverBase> {
    return std::make_unique<AderDgSolver>(
        pde->runtime(),
        pde->make_kernel(StpVariant::kAosoaSplitCk, config.order,
                         host_best_isa()),
        grid);
  };
  const auto make_solver = [&]() {
    Partition partition(config.grid, {1, 1, 4});
    partition.assign_ranks(2);  // shards 1|2 sit on the virtual rank cut
    auto solver = std::make_unique<ShardedSolver>(std::move(partition),
                                                  make_shard, "inprocess");
    solver->set_initial_condition(init);
    return solver;
  };

  auto prompt = make_solver();
  auto delayed = make_solver();
  delayed->set_exchange_backend(std::make_unique<InProcessExchange>(
      delayed->partition(), delayed->layout().size(),
      /*simulated_cross_rank_latency_seconds=*/2e-3));

  const double dt = prompt->stable_dt();
  for (int step = 0; step < 3; ++step) {
    prompt->step(dt);
    delayed->step(dt);
  }
  EXPECT_EQ(max_dof_difference(*prompt, *delayed), 0.0)
      << "latency-delayed deliveries changed the bits";
}

// ---- Scheduler telemetry ------------------------------------------------

TEST(OversubTelemetry, SchedulerReportsTaskAndPollCounters) {
  TelemetryRegistry registry(/*spans_enabled=*/true);
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "order=3", "cells=4x4x4", "shards=auto",
       "shards_per_rank=4"});
  // Drive the solver directly under our own scope (Simulation::run
  // installs the run's own registry).
  const double dt = sim.solver().plan_step(sim.solver().stable_dt());
  {
    TelemetryScope scope(&registry);
    for (int i = 0; i < 3; ++i) sim.solver().step(dt);
  }
  const auto named = registry.named_values();
  ASSERT_EQ(named.count("sched_tasks"), 1u);
  ASSERT_EQ(named.count("sched_ready_depth_sum"), 1u);
  ASSERT_EQ(named.count("sched_blocked_polls"), 1u);
  // Every step runs one interior + one boundary task per shard per phase.
  EXPECT_GT(named.at("sched_tasks"), 0.0);
  // Each pick observed at least the task it picked.
  EXPECT_GE(named.at("sched_ready_depth_sum"), named.at("sched_tasks"));
  EXPECT_GE(named.at("sched_blocked_polls"), 0.0);
}

// ---- VTK series part ids under over-decomposition -----------------------

TEST(OversubVtk, SeriesPartIdsAreDistinctAndStablePerShard) {
  const std::string base = "/tmp/exastp_oversub_series";
  Simulation sim = run_with(
      {"scenario=planewave", "order=3", "cells=4x4x4", "t_end=0.06",
       "output.interval=0.03"},
      {"shards=auto", "shards_per_rank=4", "output.series=" + base});
  const auto* composite =
      dynamic_cast<const ShardedSolver*>(&sim.solver());
  ASSERT_NE(composite, nullptr);
  ASSERT_EQ(composite->num_shards(), 4);

  std::ifstream index(base + ".pvd");
  ASSERT_TRUE(index.good());
  std::stringstream ss;
  ss << index.rdbuf();
  const std::string pvd = ss.str();

  // Count snapshots from part 0's entries, then require every shard's
  // part id to appear exactly once per snapshot — distinct ids, stable
  // across the series (ParaView matches pieces to parts by that id).
  const auto count = [&pvd](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = pvd.find(needle); at != std::string::npos;
         at = pvd.find(needle, at + 1))
      ++n;
    return n;
  };
  const std::size_t snapshots = count("part=\"0\"");
  EXPECT_GE(snapshots, 2u);
  for (int p = 1; p < 4; ++p)
    EXPECT_EQ(count("part=\"" + std::to_string(p) + "\""), snapshots)
        << "part " << p;
  EXPECT_EQ(count("part=\"4\""), 0u);

  // Each indexed piece file exists and is named by its shard id.
  for (std::size_t i = 0; i < snapshots; ++i)
    for (int p = 0; p < 4; ++p) {
      char suffix[48];
      std::snprintf(suffix, sizeof(suffix), "_%04zu_p%02d.vtk", i, p);
      EXPECT_NE(pvd.find(suffix), std::string::npos) << suffix;
      EXPECT_TRUE(std::ifstream(base + suffix).good()) << base + suffix;
    }

  // Cleanup (best effort).
  for (int i = 0; i < 8; ++i)
    for (int p = 0; p < 4; ++p) {
      char suffix[24];
      std::snprintf(suffix, sizeof(suffix), "_%04d_p%02d.vtk", i, p);
      std::remove((base + suffix).c_str());
    }
  std::remove((base + ".pvd").c_str());
}

}  // namespace
}  // namespace exastp
