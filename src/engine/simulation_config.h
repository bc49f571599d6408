// Declarative run description consumed by the Simulation façade.
//
// Everything a workload needs — PDE, scenario, kernel variant, ISA, order,
// grid, boundaries, end time, outputs — in one plain struct, so new
// workloads are a config (or a key=value command line, see
// parse_simulation_args) instead of a recompiled driver.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exastp/kernels/stp_common.h"
#include "exastp/mesh/grid.h"
#include "exastp/quadrature/quadrature.h"

namespace exastp {

struct OutputConfig {
  std::string csv;  ///< nodal-values CSV path after the run; empty = none
  std::string vtk;  ///< cell-average VTK path after the run; empty = none

  // Streaming outputs, produced incrementally from the time loop by the
  // observer subsystem (src/io/, attached via ObserverRegistry).
  /// Base path of an interval-spaced VTK snapshot series plus its
  /// .pvd-style index (<base>_NNNN.vtk, <base>.pvd); empty = none.
  std::string series;
  /// Simulation-time spacing of series snapshots; <= 0 = every step.
  double interval = 0.0;
  /// Appending per-step receiver CSV / binary record stream; empty = none.
  std::string receivers_csv;
  std::string receivers_bin;
  /// Quantity indices receivers sample; empty = all evolved quantities.
  std::vector<int> quantities;
};

/// Runtime observability (src/telemetry/, docs/observability.md). All of it
/// is read-only instrumentation: enabling any key changes no simulation
/// bytes, only what gets measured and written beside the run.
struct TelemetryConfig {
  /// Chrome trace-event JSON (Perfetto-loadable) span timeline written
  /// after the run; empty = spans off. Distributed runs write per-rank
  /// `<trace>.r<K>.part` streams merged by rank 0.
  std::string trace;
  /// Per-step metrics stream (CSV, or JSONL when the path ends ".jsonl"),
  /// appended every `metrics_interval` steps; empty = none. Rank 0 writes
  /// `metrics`; other ranks write `<metrics>.r<K>.part`.
  std::string metrics;
  /// Steps between metrics rows; >= 1.
  int metrics_interval = 1;
  /// "stderr" enables the rank-0 progress heartbeat; empty = off.
  std::string progress;
};

struct SimulationConfig {
  std::string scenario = "gaussian";
  /// PDE registry key; empty picks the scenario's default PDE.
  std::string pde;
  /// Time stepper: "ader" (paper scheme) or "rk4" (baseline).
  std::string stepper = "ader";
  StpVariant variant = StpVariant::kAosoaSplitCk;
  /// "auto" resolves to host_best_isa(); otherwise "scalar"/"avx2"/"avx512".
  std::string isa = "auto";
  int order = 4;
  NodeFamily family = NodeFamily::kGaussLegendre;
  /// Thread count of the stepper hot loops; 0 (or any value < 1) means
  /// "auto" = hardware concurrency. Results are bitwise-identical for
  /// every thread count (see README "Threading").
  int threads = 0;
  /// Domain decomposition: "AxBxC" shard block grid, a total shard count
  /// to factor onto the mesh, or "auto" (factor the resolved thread
  /// count — or the MPI launch size under backend=mpi). Resolved by
  /// resolve_shard_grid; results are bitwise-identical for every
  /// decomposition (see README "Sharding").
  std::string shards = "1";
  /// Halo exchange backend: "inprocess" (every shard in this process, the
  /// default) or "mpi" (one rank per shard, -DEXASTP_WITH_MPI=ON builds
  /// under mpirun; see README "Distributed execution (MPI)"). Results are
  /// bitwise-identical across backends.
  std::string backend = "inprocess";
  /// Over-decomposition: shards per MPI rank. 0 ("auto", the default)
  /// keeps the historical behaviour — one shard per rank under
  /// backend=mpi, and the resolved decomposition unchanged locally. N >= 1
  /// makes shards=auto resolve to ranks * N shards and requires an
  /// explicit shards= total to equal ranks * N; the partition's rank map
  /// then groups N consecutive shards per rank (weighted by measured cost
  /// when a balance table is loaded). Locally (backend=inprocess) N >= 1
  /// simply makes shards=auto resolve to N shards, so one config exercises
  /// the same decomposition with and without MPI. Results are
  /// bitwise-identical for every grouping.
  int shards_per_rank = 0;
  /// Kernel storage precision: kF64 (default) runs the paper's double
  /// kernels; kF32 stores the predictor's DOF/flux/derivative tensors in
  /// float inside the kernel (half the bytes through the memory-bound GEMM
  /// chains) while the kernel boundary, the solver state and every
  /// reduction (stable_dt, norms, energy) stay double. fp32 requires
  /// stepper=ader and a SplitCK-family variant (splitck | aosoa_splitck);
  /// accuracy bounds per order are documented in docs/precision.md.
  Precision precision = Precision::kF64;
  /// Path of a fused-block autotune table (kernels/fusion_autotune.h):
  /// loaded before kernels are built, the entry for this run's
  /// (pde, order, isa, precision) is measured if missing, and the table is
  /// saved back. Empty = use the built-in footprint heuristic. Block sizes
  /// are bitwise- and FLOP-neutral, so this key is pure performance state
  /// and excluded from the canonical config string.
  std::string autotune;

  /// Clustered local time stepping (docs/lts.md): "on" bins cells into
  /// powers-of-two rate clusters from their local wave speeds and steps
  /// each cluster at its own dt; "off" (default) is global stepping.
  /// Requires stepper=ader. lts=on with one resulting cluster is
  /// bitwise-identical to lts=off, so these keys join the canonical
  /// string only through the schedule they actually select.
  bool lts = false;
  /// Cap on the number of rate clusters: "auto" (0) lets the wave-speed
  /// spread decide, an integer N >= 1 caps the binning at N clusters.
  int lts_clusters = 0;
  /// Path of a measured-cost balance table (mesh/balance_table.h): loaded
  /// before partitioning so shard splits weight cells by measured per-
  /// cluster cost, updated with this run's measurements and saved back.
  /// Empty = substep-count weighting only. Like autotune, pure
  /// performance state — every decomposition is bitwise-identical — so
  /// it is excluded from the canonical config string.
  std::string balance;

  GridSpec grid;
  double t_end = 0.5;
  double cfl = 0.4;
  OutputConfig output;
  TelemetryConfig telemetry;

  /// Receiver probe positions sampled after every step when non-empty
  /// (the façade builds a ReceiverNetwork observer from them).
  std::vector<std::array<double, 3>> receivers;

  /// Generic scenario parameter passthrough: "scenario.<key>=value" CLI
  /// pairs land here with the "scenario." prefix stripped, and scenario
  /// factories read them (e.g. loh1 materials, planewave wavenumber).
  /// Keys a scenario does not declare (Scenario::param_keys) are rejected
  /// by Simulation::from_config.
  std::map<std::string, std::string> scenario_params;
};

/// Typed accessors for scenario_params: the stored string parsed as a
/// double/int, or `fallback` when the key is absent. Malformed values throw.
double scenario_param(const SimulationConfig& config, const std::string& key,
                      double fallback);
int scenario_param_int(const SimulationConfig& config, const std::string& key,
                       int fallback);

/// Deterministic one-line serialization of the config: `|name=value` for
/// every config_keys() row that is neither neutral nor an alias (doubles
/// printed round-trip exactly), then the scenario parameters in key order.
/// The memoization key of the ensemble service
/// (src/service/simulation_pool.h): two configs with equal canonical
/// strings produce bitwise-identical results.
std::string canonical_config_string(const SimulationConfig& config);

/// Resolves config.shards against the grid, thread count and rank count
/// into the effective shard block grid: "AxBxC" is taken literally (each
/// dimension needs at least one cell per shard), a plain total and "auto"
/// (= ranks x shards_per_rank under backend=mpi; otherwise shards_per_rank
/// when given, else the resolved thread count) are factored onto the mesh by
/// Partition::factor — so the effective topology can be smaller than a
/// requested total when the mesh cannot be split that finely; the runner's
/// summary line prints what was actually used.
std::array<int, 3> resolve_shard_grid(const SimulationConfig& config);

/// Applies the scenario's recommended grid/boundaries/end time to `config`
/// (looked up by config.scenario), and its default PDE when config.pde is
/// empty — so configs that differ only in spelling the default PDE out
/// share one canonical string. parse_simulation_args calls this before
/// applying explicit key=value overrides; call it yourself when building a
/// SimulationConfig by hand and you want the scenario defaults.
void apply_scenario_defaults(SimulationConfig& config);

/// Parses "key=value" arguments into a config. The scenario is resolved
/// first and its defaults applied (including the scenario's PDE when
/// `pde=` is absent), then the remaining pairs override them, so e.g.
/// {"scenario=loh1", "cells=8x8x8"} refines the stock LOH1 box. The
/// accepted keys are the config_keys() rows that have an `apply`; unknown
/// keys throw. A key given twice — directly or through an alias — is a
/// hard error naming the key: a duplicate in a hand-written batch line is
/// almost always a typo, and silently letting the later pair win would run
/// a config the user did not ask for.
SimulationConfig parse_simulation_args(const std::vector<std::string>& args);

/// One config key, declared once: parse_simulation_args, simulation_usage,
/// canonical_config_string and the docs check (tests/test_docs.cpp) all
/// derive from the config_keys() rows.
struct ConfigKey {
  /// Key name; a trailing '*' declares a prefix family ("scenario.*"
  /// matches every "scenario.<key>").
  std::string name;
  std::string arg;   ///< usage metavariable: the "N" of "order=N"
  std::string help;  ///< usage text; each '\n' starts a continuation line
  /// Bitwise-neutral: results are identical for every value, so the key
  /// stays out of canonical_config_string (tests/test_engine.cpp runs each
  /// neutral key both ways to check that).
  bool neutral = false;
  /// Parses `value` (given under `key`) into the config. Empty for alias
  /// rows, which parse through their target, and for the driver-only keys
  /// exastp_run peels off before config parsing (sweep, batch, jobs,
  /// gallery), which parse_simulation_args rejects.
  std::function<void(SimulationConfig&, const std::string& key,
                     const std::string& value)>
      apply;
  /// The canonical-string text of the row's field; empty for neutral
  /// rows, alias rows, the scenario.* family (appended as a map) and the
  /// driver-only keys.
  std::function<std::string(const SimulationConfig&)> canonical;
  /// Target row name when this key is an alternative spelling of another.
  std::string alias_of;
};

/// Every config key in usage order, with the driver-only keys last.
const std::vector<ConfigKey>& config_keys();

/// Usage text for CLI drivers: one line (plus continuations) per
/// config_keys() row.
std::string simulation_usage();

/// Strict integer parse shared by the config keys and the exastp_run
/// driver: the whole of `value` must be an integer; otherwise throws
/// std::invalid_argument naming `key`.
int parse_int(const std::string& key, const std::string& value);

}  // namespace exastp
