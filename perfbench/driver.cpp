// perfbench driver: runs one benchmark workload against the exastp library
// and prints its raw measurements as one JSON document on stdout.
//
// The Python front end (run.py) builds this program, generates the
// workload's inputs from the seed, starts one driver process per workload
// and turns the raw samples printed here into the benchmark's metrics.
// Everything is timed from outside the library, through its public API:
//
//   mode=solver  repeated episodes of one configuration. An episode is
//                Simulation::from_config (the set-up sample) plus run() to
//                the configured t_end, with a ReceiverNetwork and a
//                step-clock observer attached. After each episode the
//                final-state norms and receiver traces are summarised for
//                the reference check.
//   mode=pool    repeated closed batches of generated config lines through
//                one SimulationPool each. A step-clock observer is
//                registered with the ObserverRegistry so every executed
//                job reports its step times and run window.
//
// trace=1 adds the per-layer probes: GEMM shapes, the STP kernel over the
// workload's cell states, a traced episode or batch (spans recorded here,
// around public calls, kept in memory and written to trace_file), the
// program's own span aggregates read through TelemetryRegistry, and a
// serial baseline.
//
//   perfbench_driver mode=solver|pool trace=0|1 seconds=S [key=value ...]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exastp/common/aligned.h"
#include "exastp/common/parallel.h"
#include "exastp/common/simd.h"
#include "exastp/engine/kernel_cache.h"
#include "exastp/engine/observer_registry.h"
#include "exastp/engine/simulation.h"
#include "exastp/engine/simulation_config.h"
#include "exastp/gemm/gemm.h"
#include "exastp/io/receiver_network.h"
#include "exastp/perf/flop_count.h"
#include "exastp/perf/peak.h"
#include "exastp/service/job_queue.h"
#include "exastp/service/simulation_pool.h"
#include "exastp/solver/sharded_solver.h"
#include "exastp/telemetry/telemetry.h"

using namespace exastp;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- minimal JSON writer ---------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? "," : "") + json_number(v[i]);
  return out + "]";
}

/// Ordered key -> already-encoded JSON value.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, const std::string& encoded) {
    fields_.emplace_back(key, encoded);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return set(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return set(key, json_string(v));
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      out += (i ? "," : "") + json_string(fields_[i].first) + ":" +
             fields_[i].second;
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- command line ----------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos)
        throw std::invalid_argument("expected key=value, got " + arg);
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) throw std::invalid_argument("missing " + key + "=");
    return it->second;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> kv_;
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

std::vector<std::array<double, 3>> parse_points(const std::string& s) {
  std::vector<std::array<double, 3>> points;
  for (const std::string& triple : split(s, ';')) {
    const std::vector<std::string> xyz = split(triple, ',');
    if (xyz.size() != 3)
      throw std::invalid_argument("receiver needs x,y,z: " + triple);
    points.push_back({std::stod(xyz[0]), std::stod(xyz[1]),
                      std::stod(xyz[2])});
  }
  return points;
}

// ---- spans -----------------------------------------------------------------

/// The benchmark's own trace: spans around calls into the library's public
/// functions, kept in memory and written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    int run = 0;
  };

  int open(const std::string& name, int parent, int run) {
    spans_.push_back({name, now_s(), 0.0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) { spans_[static_cast<std::size_t>(span)].t1 = now_s(); }
  void set_window(int span, double t0, double t1) {
    spans_[static_cast<std::size_t>(span)].t0 = t0;
    spans_[static_cast<std::size_t>(span)].t1 = t1;
  }
  int add(const std::string& name, double t0, double t1, int parent,
          int run) {
    spans_.push_back({name, t0, t1, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Total duration and self time (duration minus the children's
  /// durations) per span name, in milliseconds.
  std::map<std::string, std::pair<double, double>> totals_ms() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_s[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = spans_[i].t1 - spans_[i].t0;
      out[spans_[i].name].first += 1e3 * d;
      out[spans_[i].name].second += 1e3 * (d - child_s[i]);
    }
    return out;
  }

  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(1e3 * (s.t1 - s.t0));
    return out;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << JsonObject()
                 .num("id", static_cast<double>(i))
                 .str("name", s.name)
                 .num("start_s", s.t0)
                 .num("end_s", s.t1)
                 .num("parent", s.parent)
                 .num("run", s.run)
                 .dump()
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const std::string& name, int parent, int run)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, parent, run) : -1) {}
  ~SpanGuard() {
    if (tracer_) tracer_->close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---- observers -------------------------------------------------------------

/// Program span aggregates a step clock snapshots at the end of a run.
constexpr std::array<SpanId, 11> kAggregateIds = {
    SpanId::kStableDt,        SpanId::kPredict,
    SpanId::kCorrectInterior, SpanId::kCorrectBoundary,
    SpanId::kRkStageInterior, SpanId::kRkStageBoundary,
    SpanId::kExchangePost,    SpanId::kExchangeWait,
    SpanId::kSchedWait,       SpanId::kSetupSolver,
    SpanId::kSetupInit};

/// Times every step of a run from on_step to on_step (stable_dt + step +
/// the observers attached before it), and the run window. At on_finish it
/// snapshots the run's telemetry registry, which Simulation::run installs
/// on the driving thread.
class StepClock final : public Observer {
 public:
  explicit StepClock(std::string key = "") : key_(std::move(key)) {}

  void on_start(const SolverBase& /*solver*/) override {
    start_ = last_ = now_s();
  }
  void on_step(const SolverBase& /*solver*/, int /*step*/) override {
    const double t = now_s();
    steps_.push_back({last_, t});
    last_ = t;
  }
  void on_finish(const SolverBase& solver) override {
    finish_ = now_s();
    cells_ = solver.grid().num_cells();
    const int n = solver.order();
    dofs_per_cell_ = static_cast<double>(n) * n * n *
                     solver.evolved_quantities();
    for (const SolverBase::LtsClusterStats& k : solver.lts_cluster_stats())
      lts_substeps_ += k.cell_substeps;
    if (const TelemetryRegistry* reg = TelemetryScope::current()) {
      for (const SpanId id : kAggregateIds)
        aggregates_ms_[span_name(id)] = 1e-6 * reg->aggregate(id).total_ns;
      counters_ = reg->named_values();
    }
  }

  const std::string& key() const { return key_; }
  double run_seconds() const { return finish_ - start_; }
  const std::vector<std::pair<double, double>>& steps() const {
    return steps_;
  }
  /// Cell-substeps advanced: LTS counts per cluster, global stepping
  /// cells x steps.
  double cell_substeps() const {
    return lts_substeps_ > 0
               ? static_cast<double>(lts_substeps_)
               : static_cast<double>(cells_) *
                     static_cast<double>(steps_.size());
  }
  double dofs_per_cell() const { return dofs_per_cell_; }
  double aggregate_ms(const std::string& name) const {
    const auto it = aggregates_ms_.find(name);
    return it == aggregates_ms_.end() ? 0.0 : it->second;
  }
  double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

 private:
  std::string key_;
  double start_ = 0.0;
  double last_ = 0.0;
  double finish_ = 0.0;
  std::vector<std::pair<double, double>> steps_;
  int cells_ = 0;
  double dofs_per_cell_ = 0.0;
  long long lts_substeps_ = 0;
  std::map<std::string, double> aggregates_ms_;
  std::map<std::string, double> counters_;
};

/// Forwards every hook to the wrapped observer and times its on_step.
class TimedObserver final : public Observer {
 public:
  explicit TimedObserver(std::shared_ptr<Observer> inner)
      : inner_(std::move(inner)) {}
  void on_start(const SolverBase& solver) override { inner_->on_start(solver); }
  void on_step(const SolverBase& solver, int step) override {
    const double t0 = now_s();
    inner_->on_step(solver, step);
    seconds_ += now_s() - t0;
    ++calls_;
  }
  void on_finish(const SolverBase& solver) override {
    inner_->on_finish(solver);
  }
  double seconds() const { return seconds_; }
  long calls() const { return calls_; }

 private:
  std::shared_ptr<Observer> inner_;
  double seconds_ = 0.0;
  long calls_ = 0;
};

/// Config key a pool job's step clock is matched to its JobResult by:
/// the canonical string without the telemetry and output paths the pool
/// or the traced run rewrite per job.
std::string job_key(SimulationConfig config) {
  if (config.pde.empty())
    config.pde = find_scenario(config.scenario)->default_pde();
  config.telemetry = TelemetryConfig{};
  config.output = OutputConfig{};
  return canonical_config_string(config);
}

/// Collects a StepClock from every Simulation the process builds; pool
/// jobs build theirs on worker threads, so registration is locked.
class ClockCollector final : public ObserverFactory {
 public:
  const std::string& name() const override { return name_; }
  std::shared_ptr<Observer> make(const SimulationConfig& config,
                                 const KernelFactory& /*pde*/) const override {
    auto clock = std::make_shared<StepClock>(job_key(config));
    std::lock_guard<std::mutex> lock(mutex_);
    clocks_.push_back(clock);
    return clock;
  }
  std::vector<std::shared_ptr<StepClock>> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(clocks_, {});
  }

 private:
  // Sorts after the built-in observers, so the clock fires last.
  std::string name_ = "zz_perfbench_step_clock";
  mutable std::mutex mutex_;
  mutable std::vector<std::shared_ptr<StepClock>> clocks_;
};

// ---- library probes ----------------------------------------------------------

/// Per evolved quantity: sqrt of the sum of squares of every nodal value.
std::vector<double> state_norms(const SolverBase& solver) {
  const AosLayout& layout = solver.layout();
  const int vars = solver.evolved_quantities();
  const std::size_t nodes =
      static_cast<std::size_t>(layout.n) * layout.n * layout.n;
  std::vector<double> sums(static_cast<std::size_t>(vars), 0.0);
  for (int c = 0; c < solver.grid().num_cells(); ++c) {
    const double* q = solver.cell_dofs(c);
    for (std::size_t k = 0; k < nodes; ++k)
      for (int v = 0; v < vars; ++v) {
        const double x = q[k * layout.m_pad + v];
        sums[static_cast<std::size_t>(v)] += x * x;
      }
  }
  for (double& s : sums) s = std::sqrt(s);
  return sums;
}

/// Per receiver: one [l2 of the trace, last value] pair per quantity.
std::string receiver_summary(const ReceiverNetwork& net) {
  std::string out = "[";
  for (std::size_t r = 0; r < net.num_receivers(); ++r) {
    std::vector<double> row;
    for (std::size_t q = 0; q < net.quantities().size(); ++q) {
      const std::vector<double> trace = net.trace(r, q);
      double sum = 0.0;
      for (const double v : trace) sum += v * v;
      row.push_back(std::sqrt(sum));
      row.push_back(trace.empty() ? 0.0 : trace.back());
    }
    out += (r ? "," : "") + json_array(row);
  }
  return out + "]";
}

/// gemm_acc on one shape, timed over repeated calls: median GFLOP/s of
/// five trials of roughly 40 ms each.
double time_gemm(Isa isa, int m, int n, int k) {
  AlignedVectorT<double> a(static_cast<std::size_t>(m) * k);
  AlignedVectorT<double> b(static_cast<std::size_t>(k) * n);
  AlignedVectorT<double> c(static_cast<std::size_t>(m) * n, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 1e-3 * (i % 17);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1e-3 * (i % 13);
  const double flops_per_call = 2.0 * m * n * k;
  std::vector<double> trials;
  for (int trial = 0; trial < 5; ++trial) {
    long calls = 0;
    const double t0 = now_s();
    double t = t0;
    do {
      for (int i = 0; i < 256; ++i)
        gemm_acc(isa, m, n, k, a.data(), k, b.data(), n, c.data(), n);
      calls += 256;
      t = now_s();
    } while (t - t0 < 0.04);
    trials.push_back(flops_per_call * calls / (t - t0) / 1e9);
  }
  if (!std::isfinite(c[0])) throw std::runtime_error("gemm produced NaN");
  return median(trials);
}

struct StpProbe {
  double us_per_call = 0.0;
  double flops_per_call = 0.0;
  double workspace_bytes = 0.0;
};

/// StpKernel::run round-robin over the simulation's cell states (in a
/// seeded order), single-threaded: median of five ~60 ms trials.
StpProbe time_stp(const Simulation& sim, std::uint64_t seed) {
  const SimulationConfig& cfg = sim.config();
  const StpKernel kernel = cached_stp_kernel(
      sim.pde(), cfg.variant, cfg.order, sim.isa(), cfg.family, cfg.precision);
  const AosLayout& layout = kernel.layout();
  AlignedVectorT<double> qavg(layout.size());
  std::array<AlignedVectorT<double>, 3> favg;
  for (auto& f : favg) f.assign(layout.size(), 0.0);
  StpOutputs out;
  out.qavg = qavg.data();
  for (int d = 0; d < 3; ++d) out.favg[d] = favg[d].data();

  const SolverBase& solver = sim.solver();
  std::vector<int> cells(static_cast<std::size_t>(solver.grid().num_cells()));
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = static_cast<int>(i);
  std::mt19937_64 rng(seed);
  std::shuffle(cells.begin(), cells.end(), rng);
  const double dt = solver.stable_dt(cfg.cfl);
  const std::array<double, 3> inv_dx = solver.grid().inv_dx();

  StpProbe probe;
  probe.workspace_bytes = static_cast<double>(kernel.workspace_bytes());
  const std::uint64_t before = FlopCounter::instance().total();
  kernel.run(solver.cell_dofs(cells[0]), dt, inv_dx, nullptr, out);
  probe.flops_per_call =
      static_cast<double>(FlopCounter::instance().total() - before);

  std::vector<double> trials;
  std::size_t next = 0;
  for (int trial = 0; trial < 5; ++trial) {
    long calls = 0;
    const double t0 = now_s();
    double t = t0;
    do {
      kernel.run(solver.cell_dofs(cells[next]), dt, inv_dx, nullptr, out);
      next = (next + 1) % cells.size();
      ++calls;
      t = now_s();
    } while (t - t0 < 0.06);
    trials.push_back(1e6 * (t - t0) / static_cast<double>(calls));
  }
  if (!std::isfinite(qavg[0])) throw std::runtime_error("stp produced NaN");
  probe.us_per_call = median(trials);
  return probe;
}

/// Median wall time of `steps` direct step() calls at the config's thread
/// count (the serial-baseline comparison runs this at threads=1 too).
double step_median_ms(SimulationConfig config, int threads, int steps) {
  config.threads = threads;
  config.telemetry = TelemetryConfig{};
  Simulation sim = Simulation::from_config(config);
  SolverBase& solver = sim.solver();
  TelemetryScope scope(&sim.telemetry());
  std::vector<double> ms;
  for (int i = 0; i < steps; ++i) {
    const double t0 = now_s();
    solver.step(solver.plan_step(solver.stable_dt(config.cfl)));
    ms.push_back(1e3 * (now_s() - t0));
  }
  return median(ms);
}

JsonObject gemm_probe(Isa isa, double peak) {
  JsonObject out;
  const std::array<std::array<int, 3>, 3> shapes = {
      {{8, 24, 8}, {8, 192, 8}, {21, 8, 8}}};
  for (const auto& s : shapes) {
    const std::string name = "gemm." + std::to_string(s[0]) + "x" +
                             std::to_string(s[1]) + "x" +
                             std::to_string(s[2]);
    const double gflops = time_gemm(isa, s[0], s[1], s[2]);
    out.num(name + ".gflops", gflops).num(name + ".pct_peak",
                                          100.0 * gflops / peak);
  }
  return out;
}

JsonObject stp_json(const StpProbe& stp, double peak) {
  const double gflops = stp.flops_per_call / stp.us_per_call / 1e3;
  return JsonObject()
      .num("us_per_call", stp.us_per_call)
      .num("gflops", gflops)
      .num("pct_peak", 100.0 * gflops / peak)
      .num("flops_per_call", stp.flops_per_call)
      .num("workspace_bytes", stp.workspace_bytes);
}

// ---- solver workloads ----------------------------------------------------------

struct Episode {
  double setup_s = 0.0;
  double run_s = 0.0;
  int steps = 0;
  double cell_substeps = 0.0;
  double dofs_per_cell = 0.0;
  std::string error;
  std::vector<double> norms;
  std::string receivers = "[]";
  std::vector<double> step_ms;
};

std::string episode_json(const Episode& e) {
  return JsonObject()
      .num("setup_s", e.setup_s)
      .num("run_s", e.run_s)
      .num("steps", e.steps)
      .num("cell_substeps", e.cell_substeps)
      .num("dofs_per_cell", e.dofs_per_cell)
      .str("error", e.error)
      .set("norms", json_array(e.norms))
      .set("receivers", e.receivers)
      .dump();
}

/// One untraced episode: from_config + run() with receivers and a clock.
Episode run_episode(const SimulationConfig& config,
                    const std::vector<std::array<double, 3>>& receivers) {
  Episode e;
  try {
    const double t0 = now_s();
    Simulation sim = Simulation::from_config(config);
    e.setup_s = now_s() - t0;
    auto net = std::make_shared<ReceiverNetwork>();
    net->add_receivers(receivers);
    auto clock = std::make_shared<StepClock>();
    sim.add_observer(net);
    sim.add_observer(clock);
    const double t1 = now_s();
    e.steps = sim.run();
    e.run_s = now_s() - t1;
    e.cell_substeps = clock->cell_substeps();
    e.dofs_per_cell = clock->dofs_per_cell();
    for (const auto& [a, b] : clock->steps()) e.step_ms.push_back(1e3 * (b - a));
    e.norms = state_norms(sim.solver());
    e.receivers = receiver_summary(*net);
  } catch (const std::exception& ex) {
    e.error = ex.what();
  }
  return e;
}

/// Step-time breakdown of one traced episode, in ms summed over the run.
struct Breakdown {
  double steps = 0.0;
  double step_ms = 0.0;
  double stable_dt_ms = 0.0;
  double predict_ms = 0.0;
  double correct_ms = 0.0;
  double rk_stage_ms = 0.0;
  double exchange_post_ms = 0.0;
  double exchange_wait_ms = 0.0;
  double sched_wait_ms = 0.0;
  double receivers_ms = 0.0;

  std::string json() const {
    return JsonObject()
        .num("steps", steps)
        .num("step_ms", step_ms)
        .num("stable_dt_ms", stable_dt_ms)
        .num("predict_ms", predict_ms)
        .num("correct_ms", correct_ms)
        .num("rk_stage_ms", rk_stage_ms)
        .num("exchange_post_ms", exchange_post_ms)
        .num("exchange_wait_ms", exchange_wait_ms)
        .num("sched_wait_ms", sched_wait_ms)
        .num("receivers_ms", receivers_ms)
        .dump();
  }
};

double ns_to_ms(std::int64_t ns) { return 1e-6 * static_cast<double>(ns); }

/// The traced episode. Monolithic runs are driven phase by phase through
/// num_step_phases/step_phase (even phases predict, odd phases correct),
/// each call inside a benchmark span. Sharded runs go through run(); their
/// phase times come from the program's own span aggregates.
JsonObject traced_episode(SimulationConfig config,
                          const std::vector<std::array<double, 3>>& receivers,
                          const std::string& tmp_dir, Tracer& tracer,
                          int run_id, Episode& e) {
  // Any telemetry output turns the program's spans on; an interval longer
  // than any run keeps the metrics stream to its header.
  config.telemetry.metrics = tmp_dir + "/traced_metrics.csv";
  config.telemetry.metrics_interval = 1 << 30;

  const KernelCacheStats cache0 = kernel_cache_stats();
  const int root = tracer.open("episode", -1, run_id);
  const double cpu0 = cpu_seconds();
  const double w0 = now_s();
  std::unique_ptr<Simulation> sim_ptr;
  {
    SpanGuard span(&tracer, "engine.from_config", root, run_id);
    sim_ptr = std::make_unique<Simulation>(Simulation::from_config(config));
  }
  Simulation& sim = *sim_ptr;
  e.setup_s = now_s() - w0;
  const KernelCacheStats cache1 = kernel_cache_stats();
  SolverBase& solver = sim.solver();
  const TelemetryRegistry& reg = sim.telemetry();

  auto net = std::make_shared<ReceiverNetwork>();
  net->add_receivers(receivers);
  auto timed_net = std::make_shared<TimedObserver>(net);
  Breakdown bd;
  const std::uint64_t flops0 = reg.flops().total();
  const bool sharded = solver.num_shards() > 1;
  const int run_span = tracer.open("solver.run", root, run_id);
  const double t_run0 = now_s();
  if (!sharded) {
    TelemetryScope scope(&sim.telemetry());
    timed_net->on_start(solver);
    int step = 0;
    while (solver.time() < config.t_end - 1e-14) {
      SpanGuard step_span(&tracer, "step", run_span, run_id);
      double dt = 0.0;
      {
        SpanGuard span(&tracer, "solver.stable_dt", step_span.id(), run_id);
        dt = solver.plan_step(solver.stable_dt(config.cfl));
      }
      if (solver.time() + dt > config.t_end) dt = config.t_end - solver.time();
      for (int p = 0; p < solver.num_step_phases(); ++p) {
        SpanGuard span(&tracer, p % 2 == 0 ? "solver.predict" : "solver.correct",
                       step_span.id(), run_id);
        solver.step_phase(p, dt);
      }
      SpanGuard span(&tracer, "io.receivers", step_span.id(), run_id);
      timed_net->on_step(solver, ++step);
    }
    timed_net->on_finish(solver);
    e.steps = step;
  } else {
    auto clock = std::make_shared<StepClock>();
    sim.add_observer(timed_net);
    sim.add_observer(clock);
    e.steps = sim.run();
    for (const auto& [a, b] : clock->steps())
      tracer.add("step", a, b, run_span, run_id);
  }
  const double t_run1 = now_s();
  tracer.close(run_span);
  tracer.close(root);
  e.run_s = t_run1 - t_run0;
  const double wall = now_s() - w0;
  const double cpu = cpu_seconds() - cpu0;

  // Step breakdown: benchmark spans on the monolithic path, program span
  // aggregates on the sharded path (they sum the driving thread's phases).
  const auto totals = tracer.totals_ms();
  const auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.first;
  };
  bd.steps = e.steps;
  bd.step_ms = total("step");
  bd.receivers_ms = 1e3 * timed_net->seconds();
  if (!sharded) {
    bd.stable_dt_ms = total("solver.stable_dt");
    bd.predict_ms = total("solver.predict");
    bd.correct_ms = total("solver.correct");
  } else {
    bd.stable_dt_ms = ns_to_ms(reg.aggregate(SpanId::kStableDt).total_ns);
    bd.predict_ms = ns_to_ms(reg.aggregate(SpanId::kPredict).total_ns);
    bd.correct_ms = ns_to_ms(reg.aggregate(SpanId::kCorrectInterior).total_ns +
                             reg.aggregate(SpanId::kCorrectBoundary).total_ns);
    bd.rk_stage_ms = ns_to_ms(reg.aggregate(SpanId::kRkStageInterior).total_ns +
                              reg.aggregate(SpanId::kRkStageBoundary).total_ns);
    bd.exchange_post_ms = ns_to_ms(reg.aggregate(SpanId::kExchangePost).total_ns);
    bd.exchange_wait_ms = ns_to_ms(reg.aggregate(SpanId::kExchangeWait).total_ns);
    bd.sched_wait_ms = ns_to_ms(reg.aggregate(SpanId::kSchedWait).total_ns);
  }
  // Shard imbalance, halo bytes and scheduler counters.
  double imbalance = 1.0;
  double halo_bytes_per_step = 0.0;
  if (sharded) {
    double max_ns = 0.0;
    double sum_ns = 0.0;
    for (int s = 0; s < solver.num_shards(); ++s) {
      const double ns = static_cast<double>(reg.shard_ns(s));
      max_ns = std::max(max_ns, ns);
      sum_ns += ns;
    }
    if (sum_ns > 0.0) imbalance = max_ns / (sum_ns / solver.num_shards());
    const auto& sharded_solver = dynamic_cast<const ShardedSolver&>(solver);
    // step_phase_halo_fields is a non-const query on SolverBase; the shard
    // sub-solver is a mutable object owned by the composite.
    auto& shard0 = const_cast<SolverBase&>(sharded_solver.shard(0));
    std::size_t fields = 0;
    for (int p = 0; p < shard0.num_step_phases(); ++p)
      fields += shard0.step_phase_halo_fields(p).size();
    halo_bytes_per_step =
        static_cast<double>(
            sharded_solver.exchange_backend().payload_bytes_per_exchange()) *
        static_cast<double>(fields);
  }
  const std::map<std::string, double> counters = reg.named_values();
  const auto counter = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  double substeps = 0.0;
  for (const SolverBase::LtsClusterStats& k : solver.lts_cluster_stats())
    substeps += static_cast<double>(k.cell_substeps);
  if (substeps == 0.0)
    substeps = static_cast<double>(solver.grid().num_cells()) * e.steps;
  e.cell_substeps = substeps;
  const int n = solver.order();
  e.dofs_per_cell = static_cast<double>(n) * n * n * solver.evolved_quantities();
  e.norms = state_norms(solver);
  e.receivers = receiver_summary(*net);

  const double steps = std::max(1, e.steps);
  const double run_flops = static_cast<double>(reg.flops().total() - flops0);
  return JsonObject()
      .set("breakdown", bd.json())
      .num("setup_solver_ms", ns_to_ms(reg.aggregate(SpanId::kSetupSolver).total_ns))
      .num("setup_init_ms", ns_to_ms(reg.aggregate(SpanId::kSetupInit).total_ns))
      .num("setup_cache_hits", static_cast<double>(cache1.hits - cache0.hits))
      .num("setup_cache_misses",
           static_cast<double>(cache1.misses - cache0.misses))
      .num("shard_imbalance", imbalance)
      .num("halo_bytes_per_step", halo_bytes_per_step)
      .num("sched_tasks_per_step", counter("sched_tasks") / steps)
      .num("sched_blocked_polls_per_step", counter("sched_blocked_polls") / steps)
      .num("lts_clusters", solver.lts_num_clusters())
      .num("cell_substeps_per_step", substeps / steps)
      .num("receivers_us_per_step", 1e6 * timed_net->seconds() /
                                        std::max<long>(1, timed_net->calls()))
      .num("run_gflop_per_s", run_flops / e.run_s / 1e9)
      .num("cpu_util", cpu / (wall * solver.num_threads()))
      .num("threads", solver.num_threads());
}

int solver_mode(const Args& args) {
  const bool trace = args.get("trace", "0") == "1";
  const double seconds = args.num("seconds", 10.0);
  const double max_seconds = args.num("max_seconds", 3.0 * seconds);
  const int min_steps = static_cast<int>(args.num("min_steps", 110));
  const int min_episodes = static_cast<int>(args.num("min_episodes", 3));
  const SimulationConfig config =
      parse_simulation_args(split(args.need("config"), ' '));
  const auto receivers = parse_points(args.get("receivers", ""));

  const double peak = available_peak_gflops();
  JsonObject out;
  out.str("mode", "solver")
      .str("isa", isa_name(host_best_isa()))
      .num("hardware_threads", hardware_threads())
      .num("peak_gflops_core", peak);

  // The first episode warms the process (kernel prototype cache, thread
  // team, first-touch pages); it is checked but not timed.
  const KernelCacheStats cache0 = kernel_cache_stats();
  const Episode warmup = run_episode(config, receivers);
  out.num("warmup_peak_rss_mib", peak_rss_mib());
  std::vector<Episode> episodes;
  const double t0 = now_s();
  const int wanted = trace ? 1 : min_episodes;
  int step_samples = 0;
  while (warmup.error.empty()) {
    episodes.push_back(run_episode(config, receivers));
    step_samples += static_cast<int>(episodes.back().step_ms.size());
    const double elapsed = now_s() - t0;
    if (!episodes.back().error.empty()) break;
    if (trace && static_cast<int>(episodes.size()) >= wanted) break;
    if (elapsed >= max_seconds) break;
    if (elapsed >= seconds && step_samples >= min_steps &&
        static_cast<int>(episodes.size()) >= wanted)
      break;
  }
  const double elapsed = now_s() - t0;
  std::string eps = "[";
  std::vector<double> step_ms;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    eps += (i ? "," : "") + episode_json(episodes[i]);
    step_ms.insert(step_ms.end(), episodes[i].step_ms.begin(),
                   episodes[i].step_ms.end());
  }
  out.set("warmup_episode", episode_json(warmup))
      .set("episodes", eps + "]")
      .set("step_ms", json_array(step_ms))
      .num("elapsed_s", elapsed);

  if (trace) {
    Tracer tracer;
    const std::string tmp_dir = args.need("tmp_dir");
    Episode traced;
    JsonObject layers;
    try {
      layers = traced_episode(config, receivers, tmp_dir, tracer, 1, traced);
    } catch (const std::exception& ex) {
      traced.error = ex.what();
    }
    const KernelCacheStats cache1 = kernel_cache_stats();
    for (const auto& [name, ms] : tracer.totals_ms())
      layers.num("self_ms." + name, ms.second);
    out.set("traced_episode", episode_json(traced))
        .set("traced_step_ms", json_array(tracer.durations_ms("step")))
        .set("layers", layers.dump());
    tracer.write(args.get("trace_file", ""));
    out.num("engine_cache_hits", static_cast<double>(cache1.hits - cache0.hits))
        .num("engine_cache_misses",
             static_cast<double>(cache1.misses - cache0.misses));

    const int threads = config.threads > 0 ? config.threads : hardware_threads();
    const double par_ms = step_median_ms(config, threads, 4);
    const double ser_ms = step_median_ms(config, 1, 4);
    out.num("serial_step_ms", ser_ms).num("parallel_step_ms", par_ms);

    Simulation probe = Simulation::from_config([&] {
      SimulationConfig c = config;
      c.telemetry = TelemetryConfig{};
      return c;
    }());
    out.set("stp", stp_json(time_stp(probe, static_cast<std::uint64_t>(
                                                args.num("seed", 0))),
                            peak)
                       .dump());
    out.set("gemm", gemm_probe(host_best_isa(), peak).dump());
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}


// ---- pool workload -------------------------------------------------------------

struct Batch {
  double wall_s = 0.0;
  std::vector<JobResult> results;
  std::map<std::string, std::shared_ptr<StepClock>> clocks;  ///< by job_key
  int runs_executed = 0;
};

Batch run_batch(const std::vector<std::vector<std::string>>& lines, int jobs,
                const std::vector<std::string>& base_args,
                ClockCollector& collector) {
  PoolOptions options;
  options.jobs = jobs;
  options.memoize = true;
  options.base_args = base_args;
  SimulationPool pool(options);
  for (const std::vector<std::string>& line : lines) pool.submit(line);
  collector.take();
  Batch batch;
  const double t0 = now_s();
  batch.results = pool.run();
  batch.wall_s = now_s() - t0;
  batch.runs_executed = pool.runs_executed();
  for (std::shared_ptr<StepClock>& clock : collector.take())
    batch.clocks[clock->key()] = std::move(clock);
  return batch;
}

std::string batch_json(const Batch& batch) {
  std::string jobs = "[";
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    const JobResult& r = batch.results[i];
    JsonObject job;
    job.str("label", r.label)
        .str("status", job_status_name(r.status))
        .str("error", r.error)
        .num("seconds", r.seconds)
        .set("from_cache", r.from_cache ? "true" : "false")
        .num("steps", r.steps)
        .num("t", r.t)
        .num("l2_error", r.l2_error)
        .num("flops", static_cast<double>(r.flops));
    if (!r.from_cache && r.status == JobStatus::kDone) {
      const auto it = batch.clocks.find(
          job_key(parse_simulation_args(split(r.label, ' '))));
      if (it != batch.clocks.end()) {
        const StepClock& clock = *it->second;
        std::vector<double> step_ms;
        for (const auto& [a, b] : clock.steps()) step_ms.push_back(1e3 * (b - a));
        job.num("run_s", clock.run_seconds())
            .num("cell_substeps", clock.cell_substeps())
            .num("dofs_per_cell", clock.dofs_per_cell())
            .set("step_ms", json_array(step_ms));
      }
    }
    jobs += (i ? "," : "") + job.dump();
  }
  return JsonObject()
      .num("wall_s", batch.wall_s)
      .num("runs_executed", batch.runs_executed)
      .set("jobs", jobs + "]")
      .dump();
}

/// Per-layer view of one traced batch: the step breakdown summed over the
/// executed jobs' own registries, plus spans for the batch, each job's
/// set-up window and run window, and each step.
JsonObject traced_batch_layers(const Batch& batch, int jobs, double cpu_s,
                               Tracer& tracer, int run_id) {
  const int root = tracer.open("service.pool_run", -1, run_id);
  Breakdown bd;
  std::vector<double> setup_solver, setup_init;
  double flops = 0.0, job_seconds = 0.0, substeps = 0.0, tasks = 0.0,
         polls = 0.0;
  double first = 1e300, last = 0.0;
  for (const JobResult& r : batch.results) {
    flops += static_cast<double>(r.from_cache ? 0 : r.flops);
    if (r.from_cache || r.status != JobStatus::kDone) continue;
    job_seconds += r.seconds;
    const auto it = batch.clocks.find(
        job_key(parse_simulation_args(split(r.label, ' '))));
    if (it == batch.clocks.end()) continue;
    const StepClock& clock = *it->second;
    const double start = clock.steps().empty() ? 0.0 : clock.steps().front().first;
    const double setup_s = r.seconds - clock.run_seconds();
    first = std::min(first, start - setup_s);
    const int job = tracer.add("job", start - setup_s, start + clock.run_seconds(),
                               root, run_id);
    tracer.add("engine.from_config", start - setup_s, start, job, run_id);
    const int run = tracer.add("solver.run", start, start + clock.run_seconds(),
                               job, run_id);
    for (const auto& [a, b] : clock.steps()) {
      tracer.add("step", a, b, run, run_id);
      last = std::max(last, b);
    }
    bd.steps += static_cast<double>(clock.steps().size());
    for (const auto& [a, b] : clock.steps()) bd.step_ms += 1e3 * (b - a);
    bd.stable_dt_ms += clock.aggregate_ms("stable_dt");
    bd.predict_ms += clock.aggregate_ms("predict");
    bd.correct_ms += clock.aggregate_ms("correct_interior") +
                     clock.aggregate_ms("correct_boundary");
    bd.rk_stage_ms += clock.aggregate_ms("rk_stage_interior") +
                      clock.aggregate_ms("rk_stage_boundary");
    bd.exchange_post_ms += clock.aggregate_ms("exchange_post");
    bd.exchange_wait_ms += clock.aggregate_ms("exchange_wait");
    bd.sched_wait_ms += clock.aggregate_ms("sched_wait");
    setup_solver.push_back(clock.aggregate_ms("setup_solver"));
    setup_init.push_back(clock.aggregate_ms("setup_init"));
    substeps += clock.cell_substeps();
    tasks += clock.counter("sched_tasks");
    polls += clock.counter("sched_blocked_polls");
  }
  tracer.set_window(root, first, last);
  const double steps = std::max(1.0, bd.steps);
  return JsonObject()
      .set("breakdown", bd.json())
      .num("setup_solver_ms", median(setup_solver))
      .num("setup_init_ms", median(setup_init))
      .num("shard_imbalance", 1.0)
      .num("halo_bytes_per_step", 0.0)
      .num("sched_tasks_per_step", tasks / steps)
      .num("sched_blocked_polls_per_step", polls / steps)
      .num("lts_clusters", 1.0)
      .num("cell_substeps_per_step", substeps / steps)
      .num("receivers_us_per_step", 0.0)
      .num("run_gflop_per_s", flops / batch.wall_s / 1e9)
      .num("cpu_util", cpu_s / (batch.wall_s * jobs))
      .num("threads", jobs)
      .num("worker_busy", job_seconds / (jobs * batch.wall_s));
}

int pool_mode(const Args& args) {
  const bool trace = args.get("trace", "0") == "1";
  const double seconds = args.num("seconds", 10.0);
  const double max_seconds = args.num("max_seconds", 3.0 * seconds);
  const int min_batches = static_cast<int>(args.num("min_batches", 3));
  const int jobs = static_cast<int>(args.num("jobs", 4));
  const std::vector<std::vector<std::string>> lines =
      parse_batch_file(args.need("batch"));

  const double peak = available_peak_gflops();
  auto collector = std::make_shared<ClockCollector>();
  ObserverRegistry::instance().add(collector);
  JsonObject out;
  out.str("mode", "pool")
      .str("isa", isa_name(host_best_isa()))
      .num("hardware_threads", hardware_threads())
      .num("peak_gflops_core", peak);

  // The first batch warms the process and the kernel prototype cache; it
  // is checked but not timed.
  const KernelCacheStats cache0 = kernel_cache_stats();
  const Batch warmup = run_batch(lines, jobs, {}, *collector);
  out.num("warmup_peak_rss_mib", peak_rss_mib());
  std::vector<Batch> batches;
  const double t0 = now_s();
  while (true) {
    batches.push_back(run_batch(lines, jobs, {}, *collector));
    const double elapsed = now_s() - t0;
    if (trace) break;
    if (elapsed >= max_seconds) break;
    if (elapsed >= seconds && static_cast<int>(batches.size()) >= min_batches)
      break;
  }
  std::string bs = "[";
  for (std::size_t i = 0; i < batches.size(); ++i)
    bs += (i ? "," : "") + batch_json(batches[i]);
  out.set("warmup_batch", batch_json(warmup))
      .set("batches", bs + "]")
      .num("elapsed_s", now_s() - t0);

  if (trace) {
    Tracer tracer;
    const std::string tmp_dir = args.need("tmp_dir");
    const double cpu0 = cpu_seconds();
    const Batch traced = run_batch(
        lines, jobs,
        {"metrics=" + tmp_dir + "/pool_metrics.csv",
         "metrics_interval=" + std::to_string(1 << 30)},
        *collector);
    JsonObject layers = traced_batch_layers(traced, jobs, cpu_seconds() - cpu0,
                                            tracer, 1);
    const KernelCacheStats cache1 = kernel_cache_stats();
    for (const auto& [name, ms] : tracer.totals_ms())
      layers.num("self_ms." + name, ms.second);
    out.set("traced_batch", batch_json(traced))
        .set("traced_step_ms", json_array(tracer.durations_ms("step")))
        .set("layers", layers.dump())
        .num("engine_cache_hits", static_cast<double>(cache1.hits - cache0.hits))
        .num("engine_cache_misses",
             static_cast<double>(cache1.misses - cache0.misses));
    tracer.write(args.get("trace_file", ""));

    // Serial baseline: the same batch on one worker.
    const Batch serial = run_batch(lines, 1, {}, *collector);
    out.num("serial_wall_s", serial.wall_s)
        .num("parallel_wall_s", batches.front().wall_s);

    // Layer probes on the batch's first job.
    Simulation probe = Simulation::from_args(lines.front());
    collector->take();
    out.set("stp", stp_json(time_stp(probe, static_cast<std::uint64_t>(
                                                args.num("seed", 0))),
                            peak)
                       .dump());
    out.set("gemm", gemm_probe(host_best_isa(), peak).dump());
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    const std::string mode = args.need("mode");
    if (mode == "solver") return solver_mode(args);
    if (mode == "pool") return pool_mode(args);
    throw std::invalid_argument("unknown mode " + mode);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_driver: %s\n", ex.what());
    return 2;
  }
}
