// Tests for the src/engine layer: PDE/scenario registries, config parsing
// and the Simulation façade. The matrix test guards the type-erased path
// (string -> KernelFactory -> StpKernel) against the templated one: every
// registered PDE must run under every kernel variant and agree with the
// generic reference kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <vector>

#include "exastp/engine/simulation.h"
#include "exastp/kernels/registry.h"
#include "exastp/pde/elastic.h"
#include "exastp/solver/rk_dg_solver.h"
#include "exastp/solver/sharded_solver.h"

namespace exastp {
namespace {

TEST(PdeRegistry, ListsTheBuiltinPdes) {
  for (const char* name :
       {"acoustic", "advection", "elastic", "maxwell", "curvilinear_elastic"})
    EXPECT_TRUE(PdeRegistry::instance().contains(name)) << name;
}

TEST(PdeRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    find_pde("no_such_pde");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("acoustic"), std::string::npos);
  }
}

TEST(PdeRegistry, RejectsDuplicateRegistration) {
  auto acoustic = find_pde("acoustic");
  EXPECT_THROW(PdeRegistry::instance().add(acoustic), std::invalid_argument);
}

TEST(PdeRegistry, FactoryInfoMatchesRuntime) {
  for (const std::string& name : PdeRegistry::instance().names()) {
    auto factory = find_pde(name);
    EXPECT_EQ(factory->name(), name);
    EXPECT_EQ(factory->info().quants, factory->runtime()->info().quants);
    EXPECT_EQ(factory->info().name, name);
  }
}

TEST(ScenarioRegistry, ListsTheBuiltinScenarios) {
  for (const char* name : {"planewave", "loh1", "maxwell_cavity", "gaussian"})
    EXPECT_TRUE(ScenarioRegistry::instance().contains(name)) << name;
}

TEST(ScenarioRegistry, UnknownNameThrows) {
  EXPECT_THROW(find_scenario("no_such_scenario"), std::invalid_argument);
}

TEST(ConfigParse, KeyValuePairsOverrideScenarioDefaults) {
  const SimulationConfig config = parse_simulation_args(
      {"scenario=planewave", "order=6", "cells=4x2x1", "t_end=0.5",
       "variant=log", "stepper=rk4", "bc=outflow,periodic,wall",
       "extent=2,1,1", "cfl=0.3"});
  EXPECT_EQ(config.scenario, "planewave");
  EXPECT_EQ(config.order, 6);
  EXPECT_EQ(config.grid.cells, (std::array<int, 3>{4, 2, 1}));
  EXPECT_DOUBLE_EQ(config.t_end, 0.5);
  EXPECT_EQ(config.variant, StpVariant::kLog);
  EXPECT_EQ(config.stepper, "rk4");
  EXPECT_EQ(config.grid.boundary[0], BoundaryKind::kOutflow);
  EXPECT_EQ(config.grid.boundary[2], BoundaryKind::kWall);
  EXPECT_DOUBLE_EQ(config.grid.extent[0], 2.0);
  EXPECT_DOUBLE_EQ(config.cfl, 0.3);
}

TEST(ConfigParse, ScenarioDefaultsApplyWithoutOverrides) {
  const SimulationConfig config = parse_simulation_args({"scenario=loh1"});
  EXPECT_EQ(config.grid.cells, (std::array<int, 3>{4, 4, 4}));
  EXPECT_DOUBLE_EQ(config.grid.extent[2], 8.0);
  EXPECT_EQ(config.grid.boundary[2], BoundaryKind::kWall);
  EXPECT_DOUBLE_EQ(config.t_end, 2.0);
}

TEST(ConfigParse, ShorthandsExpandToCubes) {
  const SimulationConfig config =
      parse_simulation_args({"cells=5", "extent=2.0", "bc=wall"});
  EXPECT_EQ(config.grid.cells, (std::array<int, 3>{5, 5, 5}));
  EXPECT_DOUBLE_EQ(config.grid.extent[1], 2.0);
  EXPECT_EQ(config.grid.boundary[1], BoundaryKind::kWall);
}

TEST(ConfigParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_simulation_args({"no_equals_sign"}),
               std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"unknown_key=1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"order=abc"}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"cells=1x2"}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"bc=open"}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"scenario=nope"}),
               std::invalid_argument);
}

TEST(ConfigParse, DuplicateKeyIsAHardErrorNamingTheKey) {
  try {
    parse_simulation_args({"scenario=planewave", "order=3", "order=4"});
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate config key \"order\""),
              std::string::npos)
        << e.what();
  }
  // Also for dotted keys — no silent last-one-wins anywhere.
  EXPECT_THROW(parse_simulation_args({"scenario=loh1", "scenario.half_cs=4",
                                      "scenario.half_cs=5"}),
               std::invalid_argument);
  // And through an alias: csv=/vtk= name the same field as output.csv=/
  // output.vtk=, so giving both spellings is the same duplicate.
  for (const auto& [alias, full] :
       {std::pair<std::string, std::string>{"csv", "output.csv"},
        {"vtk", "output.vtk"}}) {
    try {
      parse_simulation_args({alias + "=a", full + "=b"});
      FAIL() << "expected a throw for " << alias << "= + " << full << "=";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate config key \"" + full +
                                           "\""),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// The config-key table's `neutral` flags, checked: every config_keys() row
// has a probe below, so a new key cannot skip classification. A non-neutral
// row must split the memoization key; a neutral row must not, and a small
// run with its value flipped must leave the fields and receiver samples
// byte-identical.

const std::vector<std::string> kProbeBase = {
    "scenario=planewave", "order=3", "cells=2x2x2", "t_end=0.02",
    "threads=1", "receivers=0.3,0.4,0.5;0.7,0.2,0.6"};

// Stiff-layer LOH1 with LTS on 2 shards split along the layered z axis:
// the balance table below reweights the clusters, so the balanced run
// actually cuts the mesh somewhere else.
const std::vector<std::string> kBalanceBase = {
    "scenario=loh1",         "order=3",
    "cells=4x4x6",           "t_end=0.05",
    "threads=1",             "lts=on",
    "shards=1x1x2",          "scenario.layer_cp=1.5",
    "scenario.layer_cs=0.75", "receivers=4.1,4.1,3.1;3.4,4.4,2.6"};
const char* const kBalanceTable = "test_engine_balance.txt";
const char* const kAutotuneTable = "test_engine_autotune.txt";

struct KeyProbe {
  KeyProbe(std::string a, std::vector<std::string> b = kProbeBase,
           std::function<void(SimulationConfig&)> e = nullptr)
      : arg(std::move(a)), base(std::move(b)), edit(std::move(e)) {}
  std::string arg;  ///< the flipped "key=value", replacing any base pair
  std::vector<std::string> base;
  /// Stands in for `arg` when the parser accepts only the default value.
  std::function<void(SimulationConfig&)> edit;
};

const std::map<std::string, KeyProbe>& key_probes() {
  static const std::map<std::string, KeyProbe> probes = {
      {"scenario", {"scenario=gaussian"}},
      {"pde", {"pde=elastic"}},
      {"stepper", {"stepper=rk4"}},
      {"variant", {"variant=generic"}},
      {"isa", {"isa=scalar"}},
      {"order", {"order=4"}},
      {"family", {"family=lobatto"}},
      {"precision", {"precision=fp32"}},
      {"threads", {"threads=3"}},
      {"shards", {"shards=2"}},
      {"shards_per_rank", {"shards_per_rank=2"}},
      {"backend", {"backend=mpi"}},
      {"autotune", {std::string("autotune=") + kAutotuneTable}},
      {"lts", {"lts=on"}},
      {"lts_clusters", {"lts_clusters=2"}},
      {"balance", {std::string("balance=") + kBalanceTable, kBalanceBase}},
      {"cells", {"cells=3x2x2"}},
      {"extent", {"extent=2"}},
      {"origin", {"origin=0.5,0,0"}},
      {"bc", {"bc=outflow"}},
      {"t_end", {"t_end=0.03"}},
      {"cfl", {"cfl=0.3"}},
      {"output.csv", {"output.csv=probe.csv"}},
      {"csv", {"csv=probe.csv"}},
      {"output.vtk", {"output.vtk=probe.vtk"}},
      {"vtk", {"vtk=probe.vtk"}},
      {"receivers", {"receivers=0.5,0.5,0.5"}},
      {"output.receivers_csv", {"output.receivers_csv=probe.csv"}},
      {"output.receivers_bin", {"output.receivers_bin=probe.bin"}},
      {"output.quantities", {"output.quantities=0"}},
      {"output.series", {"output.series=probe"}},
      {"output.interval", {"output.interval=0.01"}},
      {"trace", {"trace=probe.json"}},
      {"metrics", {"metrics=probe.csv"}},
      {"metrics_interval", {"metrics_interval=2"}},
      {"progress", {"progress=stderr"}},
      {"scenario.*", {"scenario.kx=2"}},
      // Driver-only keys: parse_simulation_args must reject them.
      {"sweep", {"sweep=order:3,4"}},
      {"batch", {"batch=jobs.txt"}},
      {"jobs", {"jobs=2"}},
      {"gallery", {"gallery=csv"}},
  };
  return probes;
}

/// `base` with `arg` replacing the pair of the same key (if any).
std::vector<std::string> with_arg(std::vector<std::string> base,
                                  const std::string& arg) {
  if (arg.empty()) return base;
  const std::string key = arg.substr(0, arg.find('=') + 1);
  std::erase_if(base,
                [&](const std::string& a) { return a.rfind(key, 0) == 0; });
  base.push_back(arg);
  return base;
}

/// Final DOFs of every cell, then every receiver sample time and value.
std::vector<double> run_bytes(Simulation& sim) {
  sim.run();
  const SolverBase& solver = sim.solver();
  std::vector<double> out;
  for (int c = 0; c < solver.grid().num_cells(); ++c)
    out.insert(out.end(), solver.cell_dofs(c),
               solver.cell_dofs(c) + solver.layout().size());
  const ReceiverNetwork& receivers = *sim.receivers();
  out.insert(out.end(), receivers.times().begin(), receivers.times().end());
  for (std::size_t s = 0; s < receivers.num_samples(); ++s)
    for (std::size_t r = 0; r < receivers.num_receivers(); ++r)
      for (std::size_t q = 0; q < receivers.quantities().size(); ++q)
        out.push_back(receivers.value(s, r, q));
  return out;
}

/// z extent of shard 0 — where a 1x1x2 split cuts the mesh.
int first_shard_depth(const Simulation& sim) {
  const auto* sharded = dynamic_cast<const ShardedSolver*>(&sim.solver());
  return sharded == nullptr ? -1 : sharded->partition().subdomain(0).size[2];
}

TEST(ConfigKeys, NeutralFlagsHoldForEveryRow) {
  // The soft layer's cluster (1, half the halfspace's rate) measured 50x
  // costlier per substep: shard 0, which holds the layer, must shrink.
  std::ofstream(kBalanceTable) << "elastic 3 1 50\n";
  std::remove(kAutotuneTable);

  const auto& probes = key_probes();
  for (const auto& [name, probe] : probes) {
    EXPECT_TRUE(std::any_of(config_keys().begin(), config_keys().end(),
                            [&](const ConfigKey& row) {
                              return row.name == name;
                            }))
        << "stale probe for " << name;
  }
  for (const ConfigKey& row : config_keys()) {
    SCOPED_TRACE(row.name);
    const auto it = probes.find(row.name);
    ASSERT_NE(it, probes.end())
        << "config key \"" << row.name
        << "\" has no probe: decide whether it is neutral and add one";
    const KeyProbe& probe = it->second;
    if (!row.apply && row.alias_of.empty()) {
      EXPECT_THROW(parse_simulation_args(with_arg(probe.base, probe.arg)),
                   std::invalid_argument);
      continue;
    }
    const SimulationConfig base = parse_simulation_args(probe.base);
    SimulationConfig flipped =
        parse_simulation_args(with_arg(probe.base, probe.arg));
    if (probe.edit) probe.edit(flipped);
    if (!row.neutral) {
      EXPECT_NE(canonical_config_string(base),
                canonical_config_string(flipped));
      continue;
    }
    EXPECT_EQ(canonical_config_string(base), canonical_config_string(flipped));
    Simulation a = Simulation::from_config(base);
    Simulation b = Simulation::from_config(flipped);
    if (row.name == "balance") {
      EXPECT_NE(first_shard_depth(a), first_shard_depth(b))
          << "the balance table did not move the shard cut";
    }
    const std::vector<double> bytes_a = run_bytes(a);
    const std::vector<double> bytes_b = run_bytes(b);
    ASSERT_EQ(bytes_a.size(), bytes_b.size());
    EXPECT_EQ(std::memcmp(bytes_a.data(), bytes_b.data(),
                          bytes_a.size() * sizeof(double)),
              0);
  }
  std::remove(kBalanceTable);
  std::remove(kAutotuneTable);
}

TEST(ConfigParse, StreamingOutputAndReceiverKeys) {
  const SimulationConfig config = parse_simulation_args(
      {"receivers=0.5,0.5,0.5;0.1,0.2,0.3", "output.receivers_csv=a.csv",
       "output.receivers_bin=a.bin", "output.series=snap",
       "output.interval=0.25", "output.quantities=0,3", "output.csv=n.csv",
       "output.vtk=n.vtk"});
  ASSERT_EQ(config.receivers.size(), 2u);
  EXPECT_EQ(config.receivers[1], (std::array<double, 3>{0.1, 0.2, 0.3}));
  EXPECT_EQ(config.output.receivers_csv, "a.csv");
  EXPECT_EQ(config.output.receivers_bin, "a.bin");
  EXPECT_EQ(config.output.series, "snap");
  EXPECT_DOUBLE_EQ(config.output.interval, 0.25);
  EXPECT_EQ(config.output.quantities, (std::vector<int>{0, 3}));
  EXPECT_EQ(config.output.csv, "n.csv");  // output.csv aliases csv
  EXPECT_EQ(config.output.vtk, "n.vtk");
  EXPECT_THROW(parse_simulation_args({"receivers="}), std::invalid_argument);
  EXPECT_THROW(parse_simulation_args({"receivers=0.5,0.5"}),
               std::invalid_argument);
  // Quantity lists split on ',' only — the 'x' shorthand is for triples.
  EXPECT_THROW(parse_simulation_args({"output.quantities=0x3"}),
               std::invalid_argument);
}

TEST(ConfigParse, ScenarioParamsPassThroughWithPrefixStripped) {
  const SimulationConfig config = parse_simulation_args(
      {"scenario=loh1", "scenario.layer_rho=3.5", "scenario.half_cs=4.0"});
  ASSERT_EQ(config.scenario_params.size(), 2u);
  EXPECT_EQ(config.scenario_params.at("layer_rho"), "3.5");
  EXPECT_DOUBLE_EQ(scenario_param(config, "layer_rho", 0.0), 3.5);
  EXPECT_DOUBLE_EQ(scenario_param(config, "absent", 7.0), 7.0);
  EXPECT_THROW(parse_simulation_args({"scenario.=1"}),
               std::invalid_argument);
}

TEST(Facade, UnknownScenarioParamThrowsWithKnownKeys) {
  SimulationConfig config = parse_simulation_args(
      {"scenario=loh1", "scenario.layer_rho=3.5"});
  config.scenario_params["bogus"] = "1";
  try {
    Simulation::from_config(std::move(config));
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("layer_rho"), std::string::npos);
  }
}

TEST(Facade, PlanewaveWavenumberParamsKeepTheExactSolution) {
  // A diagonal (kx, ky) = (1, 1) wave is still exact on the periodic unit
  // box: the parameterized initial condition and exact solution must stay
  // consistent with each other.
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "order=5", "cells=3x3x3", "t_end=0.1",
       "scenario.kx=1", "scenario.ky=1"});
  sim.run();
  EXPECT_LT(sim.l2_error(), 5e-3);
  EXPECT_THROW(Simulation::from_args({"scenario=planewave", "scenario.kx=0",
                                      "scenario.ky=0", "scenario.kz=0"}),
               std::invalid_argument);
}

TEST(Facade, Loh1MaterialParamsChangeTheMedium) {
  // Doubling the halfspace density must show up in the initialized
  // parameter field below the interface (rho is quantity kRho).
  Simulation stock = Simulation::from_args({"scenario=loh1", "order=3"});
  Simulation dense = Simulation::from_args(
      {"scenario=loh1", "order=3", "scenario.half_rho=5.4"});
  const std::array<double, 3> below{4.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(stock.solver().sample(below, ElasticPde::kRho), 2.7);
  EXPECT_DOUBLE_EQ(dense.solver().sample(below, ElasticPde::kRho), 5.4);
}

TEST(Facade, GaussianSigmaParamShapesThePulse) {
  Simulation wide = Simulation::from_args(
      {"scenario=gaussian", "cells=2x2x2", "scenario.sigma=0.4"});
  Simulation narrow = Simulation::from_args(
      {"scenario=gaussian", "cells=2x2x2", "scenario.sigma=0.05"});
  const std::array<double, 3> off_center{0.75, 0.5, 0.5};
  EXPECT_GT(wide.solver().sample(off_center, 0),
            narrow.solver().sample(off_center, 0) + 0.5);
}

TEST(VariantNames, ParseAndNameAreInverse) {
  int count = 0;
  for (StpVariant v : kAllVariants) {
    EXPECT_EQ(parse_variant(variant_name(v)), v) << variant_name(v);
    ++count;
  }
  EXPECT_EQ(count, 5) << "kAllVariants must cover every dispatched variant";
  EXPECT_THROW(parse_variant("nope"), std::invalid_argument);
}

/// Unpadded nodal snapshot of every quantity in every cell.
std::vector<double> snapshot(const SolverBase& solver) {
  const AosLayout& layout = solver.layout();
  std::vector<double> values;
  for (int c = 0; c < solver.grid().num_cells(); ++c) {
    const double* qc = solver.cell_dofs(c);
    for (int k3 = 0; k3 < layout.n; ++k3)
      for (int k2 = 0; k2 < layout.n; ++k2)
        for (int k1 = 0; k1 < layout.n; ++k1)
          for (int s = 0; s < layout.m; ++s)
            values.push_back(qc[layout.idx(k3, k2, k1, s)]);
  }
  return values;
}

// The issue's registry guard: every registered PDE name x every kernel
// variant builds through the string-keyed path, takes a step, stays finite,
// and the optimized variants agree with the generic reference kernel.
TEST(EngineMatrix, EveryPdeRunsEveryVariantAndMatchesGeneric) {
  for (const std::string& pde_name : PdeRegistry::instance().names()) {
    std::vector<double> reference;
    for (StpVariant v : kAllVariants) {
      SimulationConfig config;
      config.scenario = "gaussian";
      config.pde = pde_name;
      config.variant = v;
      config.order = 3;
      config.grid.cells = {2, 2, 2};
      Simulation sim = Simulation::from_config(std::move(config));
      sim.solver().step(1e-3);
      sim.solver().step(1e-3);

      const std::vector<double> state = snapshot(sim.solver());
      for (double value : state) ASSERT_TRUE(std::isfinite(value))
          << pde_name << " " << variant_name(v);
      if (v == StpVariant::kGeneric) {
        reference = state;
        continue;
      }
      ASSERT_EQ(state.size(), reference.size());
      for (std::size_t i = 0; i < state.size(); ++i)
        ASSERT_NEAR(state[i], reference[i], 1e-9)
            << pde_name << " " << variant_name(v) << " node " << i;
    }
  }
}

TEST(Facade, PlanewaveMeetsTheAccuracyBudget) {
  Simulation sim = Simulation::from_args(
      {"pde=acoustic", "scenario=planewave", "variant=aosoa_splitck",
       "order=5", "cells=3x3x3", "t_end=0.25"});
  sim.run();
  EXPECT_LT(sim.l2_error(), 1e-3);
  EXPECT_NEAR(sim.solver().sample({0.5, 0.5, 0.5}, 0), 1.0, 1e-2);
}

TEST(Facade, RkStepperRunsTheSameScenario) {
  Simulation sim = Simulation::from_args(
      {"scenario=planewave", "stepper=rk4", "order=3", "t_end=0.1"});
  EXPECT_EQ(sim.solver().stepper_name(), "rk4");
  const int steps = sim.run();
  EXPECT_GT(steps, 0);
  EXPECT_LT(sim.l2_error(), 0.05);
}

TEST(Facade, RkStepperAcceptsPointSourceScenarios) {
  // LOH1 needs a point source; the RK baseline injects it per stage now.
  Simulation sim = Simulation::from_args(
      {"scenario=loh1", "stepper=rk4", "cells=4x4x4", "order=3",
       "t_end=0.4"});
  EXPECT_TRUE(sim.solver().supports_point_sources());
  sim.run();
  // The Ricker source must have injected a signal into its cell.
  const double vz = sim.solver().sample({4.5, 4.5, 2.5}, ElasticPde::kVz);
  EXPECT_TRUE(std::isfinite(vz));
  EXPECT_NE(vz, 0.0);
}

TEST(Facade, MaxwellCavityTracksTheExactStandingMode) {
  Simulation sim = Simulation::from_args(
      {"scenario=maxwell_cavity", "order=3", "t_end=0.4"});
  sim.run();
  EXPECT_TRUE(sim.has_exact_solution());
  EXPECT_LT(sim.l2_error(), 2e-2);
}

TEST(Facade, GaussianAdvectionHasAnExactTranslate) {
  Simulation sim = Simulation::from_args(
      {"scenario=gaussian", "order=4", "cells=4x4x4", "t_end=0.2"});
  EXPECT_EQ(sim.pde().name(), "advection");
  sim.run();
  EXPECT_LT(sim.l2_error(), 5e-3);
}

TEST(Facade, BothSteppersSampleIdenticallyThroughTheBase) {
  // Same scenario, same nodal initial condition -> the shared
  // SolverBase::sample must return bit-identical values at t = 0.
  Simulation ader = Simulation::from_args(
      {"scenario=gaussian", "pde=acoustic", "order=4", "cells=2x2x2"});
  Simulation rk = Simulation::from_args(
      {"scenario=gaussian", "pde=acoustic", "order=4", "cells=2x2x2",
       "stepper=rk4"});
  for (const std::array<double, 3>& x :
       {std::array<double, 3>{0.5, 0.5, 0.5}, {0.3, 0.3, 0.3},
        {0.8, 0.1, 0.6}}) {
    const double a = ader.solver().sample(x, 0);
    EXPECT_TRUE(std::isfinite(a));
    EXPECT_DOUBLE_EQ(a, rk.solver().sample(x, 0));
  }
}

TEST(Facade, UnsupportedIsaThrows) {
  SimulationConfig config;
  config.isa = "bogus";
  EXPECT_THROW(Simulation::from_config(std::move(config)),
               std::invalid_argument);
}

}  // namespace
}  // namespace exastp
