#include "exastp/engine/simulation_config.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "exastp/common/check.h"
#include "exastp/common/mpi_runtime.h"
#include "exastp/common/parallel.h"
#include "exastp/engine/scenario_registry.h"
#include "exastp/kernels/registry.h"
#include "exastp/mesh/partition.h"

namespace exastp {
namespace {

/// Splits "a=b" into {a, b}; throws on malformed pairs.
std::pair<std::string, std::string> split_pair(const std::string& arg) {
  const auto eq = arg.find('=');
  EXASTP_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "expected key=value, got \"" + arg + "\"");
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

/// Splits on any character in `delims`. The ",x" default serves the
/// dimension triples, where both "4x4x4" and "4,4,4" are accepted; keys
/// with their own separators (quantity lists, receiver triples) pass an
/// explicit delimiter so stray 'x's fail loudly.
std::vector<std::string> split_list(const std::string& value,
                                    const char* delims = ",x") {
  std::vector<std::string> parts;
  std::string current;
  for (char c : value) {
    if (std::strchr(delims, c) != nullptr) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    EXASTP_CHECK_MSG(used == value.size(), key + "=" + value);
    return v;
  } catch (const std::logic_error&) {
    EXASTP_FAIL("expected a number for " + key + ", got \"" + value + "\"");
  }
}

const char* const kBoundaryNames[] = {"periodic", "outflow", "wall"};

BoundaryKind parse_boundary(const std::string& name) {
  for (int k = 0; k < 3; ++k)
    if (name == kBoundaryNames[k]) return static_cast<BoundaryKind>(k);
  EXASTP_FAIL("unknown boundary kind \"" + name +
              "\" (periodic|outflow|wall)");
}

NodeFamily parse_family(const std::string& name) {
  if (name == "gl" || name == "legendre") return NodeFamily::kGaussLegendre;
  if (name == "lobatto") return NodeFamily::kGaussLobatto;
  EXASTP_FAIL("unknown node family \"" + name + "\" (gl|lobatto)");
}

// ---- Canonical text of each field type ----------------------------------
//
// A row's memo-key text is canon(field): overloads pick the format from
// the field's type, so rows need no formatter of their own.

std::string canon(const std::string& v) { return v; }
std::string canon(int v) { return std::to_string(v); }
std::string canon(bool on) { return on ? "on" : "off"; }
std::string canon(StpVariant v) { return variant_name(v); }
std::string canon(Precision p) { return precision_name(p); }
std::string canon(BoundaryKind k) {
  return kBoundaryNames[static_cast<int>(k)];
}
std::string canon(NodeFamily f) {
  return f == NodeFamily::kGaussLegendre ? "gl" : "lobatto";
}
/// Round-trip-exact double text (%.17g re-reads to the same bits), so the
/// canonical string distinguishes exactly the configs that differ.
std::string canon(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <class Items>
std::string join(const Items& items, const char* sep);

std::string canon(const std::array<int, 3>& cells) { return join(cells, "x"); }
template <class T>
std::string canon(const std::array<T, 3>& v) { return join(v, ","); }
std::string canon(const std::vector<int>& v) { return join(v, ","); }
std::string canon(const std::vector<std::array<double, 3>>& v) {
  return join(v, ";");
}

template <class Items>
std::string join(const Items& items, const char* sep) {
  std::string out;
  const char* lead = "";
  for (const auto& item : items) {
    out += lead;
    out += canon(item);
    lead = sep;
  }
  return out;
}

// ---- Value parsers: (key, value) -> field value --------------------------

/// Calls a value parser that takes either (key, value) or just (value).
template <class Parse>
auto parse_value(const Parse& parse, const std::string& key,
                 const std::string& value) {
  if constexpr (std::is_invocable_v<const Parse&, const std::string&,
                                    const std::string&>) {
    return parse(key, value);
  } else {
    return parse(value);
  }
}

std::string any_text(const std::string& value) { return value; }

std::string a_path(const std::string& key, const std::string& value) {
  EXASTP_CHECK_MSG(!value.empty(), key + "= needs a path");
  return value;
}

int count(const std::string& key, const std::string& value) {
  const int v = parse_int(key, value);
  EXASTP_CHECK_MSG(v >= 1, key + "=" + value + " must be >= 1");
  return v;
}

/// "auto" (stored as 0) or a count >= 1.
int auto_count(const std::string& key, const std::string& value) {
  return value == "auto" ? 0 : count(key, value);
}

/// A string restricted to the '|'-separated `choices`.
auto one_of(std::string choices) {
  return [choices](const std::string& key, const std::string& value) {
    const auto options = split_list(choices, "|");
    EXASTP_CHECK_MSG(
        std::find(options.begin(), options.end(), value) != options.end(),
        key + "=" + value + " (" + choices + ")");
    return value;
  };
}

bool on_off(const std::string& key, const std::string& value) {
  return one_of("on|off")(key, value) == "on";
}

/// "v" (a cube) or three parts, "a,b,c" or "axbxc".
template <class Parse>
auto triple(Parse parse) {
  return [parse](const std::string& key, const std::string& value) {
    const auto parts = split_list(value);
    EXASTP_CHECK_MSG(parts.size() == 1 || parts.size() == 3,
                     key + "=" + value + " (one value or three)");
    const auto at = [&](std::size_t d) {
      return parse_value(parse, key, parts[d % parts.size()]);
    };
    return std::array{at(0), at(1), at(2)};
  };
}

template <class Parse>
auto list(const char* delims, Parse parse) {
  return [delims, parse](const std::string& key, const std::string& value) {
    std::vector<decltype(parse_value(parse, key, value))> items;
    for (const std::string& part : split_list(value, delims))
      items.push_back(parse_value(parse, key, part));
    return items;
  };
}

// ---- Row builders -------------------------------------------------------

/// A row's field as a generic accessor: one lambda serves the parser
/// (mutable config) and the canonical formatter (const config).
#define FIELD(member) [](auto& c) -> auto& { return c.member; }

template <class Get, class Parse>
ConfigKey row(std::string name, std::string arg, std::string help, Get get,
              Parse parse) {
  return {std::move(name), std::move(arg), std::move(help), false,
          [get, parse](SimulationConfig& c, const std::string& key,
                       const std::string& value) {
            get(c) = parse_value(parse, key, value);
          },
          [get](const SimulationConfig& c) { return canon(get(c)); },
          {}};
}

/// Marks a row bitwise-neutral: results are identical for every value, so
/// it stays out of the memoization key.
ConfigKey neutral(ConfigKey key) {
  key.neutral = true;
  key.canonical = nullptr;
  return key;
}

ConfigKey alias(std::string name, std::string target) {
  return {std::move(name), "PATH", "", false, {}, {}, std::move(target)};
}

/// A driver-only key: exastp_run peels it off before config parsing, so it
/// has no apply and parse_simulation_args rejects it.
ConfigKey driver(std::string name, std::string arg, std::string help) {
  return {std::move(name), std::move(arg), "(exastp_run) " + help, false,
          {}, {}, {}};
}

/// Keys referred to outside their own row.
constexpr const char* kScenarioKey = "scenario";
constexpr const char* kShardsKey = "shards";
constexpr const char* kOutputCsv = "output.csv";
constexpr const char* kOutputVtk = "output.vtk";

/// Usage column where a key's description starts.
constexpr std::size_t kHelpColumn = 18;

bool is_family(const ConfigKey& key) { return key.name.back() == '*'; }

/// The row `key` names, following an alias to its target; nullptr if none.
const ConfigKey* find_config_key(const std::string& key) {
  for (const ConfigKey& row : config_keys()) {
    const std::size_t stem = row.name.size() - 1;
    const bool match =
        is_family(row)
            ? key.size() > stem && key.compare(0, stem, row.name, 0, stem) == 0
            : key == row.name;
    if (match)
      return row.alias_of.empty() ? &row : find_config_key(row.alias_of);
  }
  return nullptr;
}

}  // namespace

int parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(value, &used);
    EXASTP_CHECK_MSG(used == value.size(), key + "=" + value);
    return v;
  } catch (const std::logic_error&) {
    EXASTP_FAIL("expected an integer for " + key + ", got \"" + value + "\"");
  }
}

const std::vector<ConfigKey>& config_keys() {
  static const std::vector<ConfigKey> keys = {
      row(kScenarioKey, "NAME",
          "initial condition + defaults (see registry; default gaussian)",
          FIELD(scenario), any_text),
      row("pde", "NAME", "PDE registry key (default: the scenario's PDE)",
          FIELD(pde), any_text),
      row("stepper", "KIND", "ader | rk4 (default ader)", FIELD(stepper),
          any_text),
      row("variant", "NAME",
          "generic | log | splitck | aosoa_splitck | soa_uf_splitck",
          FIELD(variant), parse_variant),
      row("isa", "NAME", "auto | scalar | avx2 | avx512 (default auto)",
          FIELD(isa), any_text),
      row("order", "N", "nodes per dimension (default 4)", FIELD(order),
          parse_int),
      row("family", "NAME", "gl | lobatto quadrature nodes (default gl)",
          FIELD(family), parse_family),
      row("precision", "NAME",
          "fp64 (default) | fp32 kernel storage precision; fp32 needs\n"
          "stepper=ader and variant=splitck|aosoa_splitck\n"
          "(see docs/precision.md)",
          FIELD(precision), parse_precision),
      neutral(row("threads", "N",
                  "stepper threads; auto (default) = hardware concurrency",
                  FIELD(threads),
                  [](const std::string& key, const std::string& value) {
                    return value == "auto" ? 0 : parse_int(key, value);
                  })),
      // Validated against the grid later (resolve_shard_grid); here only
      // the shape is checked so typos fail at parse time.
      row(kShardsKey, "AxBxC",
          "mesh shard block grid (or a total count to factor, or auto);\n"
          "results are bitwise-identical for every decomposition",
          FIELD(shards),
          [](const std::string& key, const std::string& value) {
            if (value != "auto") triple(count)(key, value);
            return value;
          }),
      row("shards_per_rank", "N",
          "over-decomposition: auto (default, one shard per rank under\n"
          "backend=mpi) or N >= 1 shards per rank (bitwise-identical)",
          FIELD(shards_per_rank), auto_count),
      row("backend", "KIND",
          "halo exchange: inprocess (default) | mpi (multi-shard ranks,\n"
          "-DEXASTP_WITH_MPI=ON builds under mpirun)",
          FIELD(backend), one_of("inprocess|mpi")),
      neutral(row("autotune", "PATH",
                  "fused-block autotune table: load, measure missing "
                  "entries,\nsave back (bitwise-neutral; see "
                  "docs/precision.md)",
                  FIELD(autotune), a_path)),
      row("lts", "on|off",
          "clustered local time stepping (default off); bins cells into\n"
          "powers-of-two rate clusters by local wave speed; needs\n"
          "stepper=ader (see docs/lts.md)",
          FIELD(lts), on_off),
      row("lts_clusters", "N",
          "cluster cap: auto (default, wave-speed spread decides)\n"
          "or N >= 1",
          FIELD(lts_clusters), auto_count),
      neutral(row("balance", "PATH",
                  "measured-cost balance table: weight shard splits by "
                  "measured\nper-cluster cost, update with this run, save "
                  "back\n(bitwise-neutral)",
                  FIELD(balance), a_path)),
      row("cells", "AxBxC", "mesh cells per dimension (or one int for a cube)",
          FIELD(grid.cells), triple(parse_int)),
      row("extent", "X,Y,Z", "domain size (or one number for a cube)",
          FIELD(grid.extent), triple(parse_double)),
      row("origin", "X,Y,Z", "domain lower corner", FIELD(grid.origin),
          triple(parse_double)),
      row("bc", "KIND[,KIND,KIND]", "periodic | outflow | wall per dimension",
          FIELD(grid.boundary), triple(parse_boundary)),
      row("t_end", "T", "end time", FIELD(t_end), parse_double),
      row("cfl", "C", "CFL factor (default 0.4)", FIELD(cfl), parse_double),
      row(kOutputCsv, "PATH", "write nodal values CSV after the run",
          FIELD(output.csv), any_text),
      alias("csv", kOutputCsv),
      row(kOutputVtk, "PATH", "write cell-average VTK after the run",
          FIELD(output.vtk), any_text),
      alias("vtk", kOutputVtk),
      row("receivers", "X,Y,Z[;X,Y,Z...]", "probe points sampled every step",
          FIELD(receivers), list(";", triple(parse_double))),
      row("output.receivers_csv", "PATH", "stream receiver samples as CSV",
          FIELD(output.receivers_csv), any_text),
      row("output.receivers_bin", "PATH",
          "stream receiver samples as a binary record stream",
          FIELD(output.receivers_bin), any_text),
      row("output.quantities", "A,B,...",
          "quantity indices receivers sample\n(default: all evolved)",
          FIELD(output.quantities), list(",", parse_int)),
      row("output.series", "BASE",
          "incremental VTK snapshot series (BASE_NNNN.vtk + BASE.pvd)",
          FIELD(output.series), any_text),
      row("output.interval", "T",
          "series snapshot spacing (default: every step)",
          FIELD(output.interval), parse_double),
      row("trace", "PATH",
          "write a Chrome trace-event JSON span timeline after the run\n"
          "(Perfetto-loadable; see docs/observability.md)",
          FIELD(telemetry.trace), a_path),
      row("metrics", "PATH",
          "stream per-step metrics (CSV, or JSONL for .jsonl paths)",
          FIELD(telemetry.metrics), a_path),
      row("metrics_interval", "N", "steps between metrics rows (default 1)",
          FIELD(telemetry.metrics_interval), count),
      neutral(row("progress", "stderr",
                  "rank-0 progress heartbeat (~1 Hz) on stderr",
                  FIELD(telemetry.progress), one_of("stderr"))),
      // canonical_config_string appends the whole passthrough map.
      {"scenario.*", "KEY=VALUE",
       "scenario parameter passthrough (e.g. scenario.layer_rho\n"
       "for loh1, scenario.kx for planewave; see the scenario's\n"
       "declared keys)",
       false,
       [](SimulationConfig& c, const std::string& key,
          const std::string& value) {
         c.scenario_params[key.substr(key.find('.') + 1)] = value;
       },
       {},
       {}},
      driver("sweep", "KEY:V1,V2,...",
             "run once per value, streaming a summary CSV\n"
             "(any key above sweeps, e.g. sweep=shards:1,2,4)"),
      driver("batch", "FILE",
             "ensemble mode: run every line of FILE (one\n"
             "key=value config per line, # comments) as a pool job;\n"
             "remaining args are batch-wide defaults"),
      driver("jobs", "N", "concurrent simulations for batch= (default 1)"),
      driver("gallery", "KIND[:PATH]",
             "batch result sink: csv | jsonl | bin | dir\n"
             "(repeatable; csv/jsonl stream to stdout without a PATH)"),
  };
  return keys;
}

#undef FIELD

double scenario_param(const SimulationConfig& config, const std::string& key,
                      double fallback) {
  const auto it = config.scenario_params.find(key);
  if (it == config.scenario_params.end()) return fallback;
  return parse_double("scenario." + key, it->second);
}

int scenario_param_int(const SimulationConfig& config, const std::string& key,
                       int fallback) {
  const auto it = config.scenario_params.find(key);
  if (it == config.scenario_params.end()) return fallback;
  return parse_int("scenario." + key, it->second);
}

std::string canonical_config_string(const SimulationConfig& config) {
  std::string key;
  for (const ConfigKey& row : config_keys())
    if (row.canonical) key += "|" + row.name + "=" + row.canonical(config);
  // std::map iterates in key order, so the passthrough block is canonical.
  for (const auto& [param, value] : config.scenario_params)
    key += "|scenario." + param + "=" + value;
  return key;
}

std::array<int, 3> resolve_shard_grid(const SimulationConfig& config) {
  if (config.shards == "auto") {
    // Distributed runs factor shards_per_rank shards per MPI rank (one
    // without the key — the historical rank-per-shard shape); local runs
    // factor shards_per_rank directly when given (so one config exercises
    // the same decomposition with and without MPI), else the thread count.
    const int per_rank = std::max(config.shards_per_rank, 1);
    const int total =
        config.backend == "mpi"
            ? MpiRuntime::size() * per_rank
            : (config.shards_per_rank > 0 ? per_rank
                                          : resolve_threads(config.threads));
    return Partition::factor(total, config.grid.cells);
  }
  if (split_list(config.shards).size() == 1)
    return Partition::factor(count(kShardsKey, config.shards),
                             config.grid.cells);
  const std::array<int, 3> shards = triple(count)(kShardsKey, config.shards);
  for (int d = 0; d < 3; ++d)
    EXASTP_CHECK_MSG(shards[d] <= config.grid.cells[d],
                     "shards=" + config.shards +
                         " needs at least one cell per shard per dimension");
  return shards;
}

void apply_scenario_defaults(SimulationConfig& config) {
  const Scenario& scenario =
      *ScenarioRegistry::instance().find(config.scenario);
  scenario.configure(config);
  if (config.pde.empty()) config.pde = scenario.default_pde();
}

SimulationConfig parse_simulation_args(const std::vector<std::string>& args) {
  // One pass resolves every key to its row (aliases to their target) and
  // rejects unknown and duplicate keys. The scenario decides the default
  // grid/boundaries/t_end/pde, so it is applied in the same pass, before
  // the remaining pairs override those defaults.
  struct Pair {
    const ConfigKey* row;
    std::string key, value;
  };
  SimulationConfig config;
  std::vector<Pair> pairs;
  std::map<std::string, std::string> seen;  // resolved name -> key as given
  for (const std::string& arg : args) {
    auto [key, value] = split_pair(arg);
    const ConfigKey* row = find_config_key(key);
    EXASTP_CHECK_MSG(row != nullptr && row->apply,
                     "unknown config key \"" + key + "\"\n" +
                         simulation_usage());
    const std::string& name = is_family(*row) ? key : row->name;
    const auto [it, fresh] = seen.emplace(name, key);
    EXASTP_CHECK_MSG(fresh, "duplicate config key \"" + name + "\"" +
                                (it->second != key || name != key
                                     ? " (as \"" + it->second + "\" and \"" +
                                           key + "\")"
                                     : ""));
    if (row->name == kScenarioKey) row->apply(config, key, value);
    pairs.push_back({row, std::move(key), std::move(value)});
  }
  apply_scenario_defaults(config);
  for (const Pair& pair : pairs) pair.row->apply(config, pair.key, pair.value);
  return config;
}

std::string simulation_usage() {
  std::string usage = "usage: key=value ...\n";
  for (const ConfigKey& row : config_keys()) {
    std::string line =
        "  " +
        (is_family(row) ? row.name.substr(0, row.name.size() - 1)
                        : row.name + "=") +
        row.arg;
    line.resize(std::max(line.size() + 2, kHelpColumn), ' ');
    for (char c : row.alias_of.empty() ? row.help
                                       : "alias of " + row.alias_of + "=") {
      line += c;
      if (c == '\n') line.append(kHelpColumn, ' ');
    }
    usage += line + "\n";
  }
  return usage;
}

}  // namespace exastp
