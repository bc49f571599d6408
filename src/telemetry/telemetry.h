// Runtime observability core: phase-attributed span timers, per-thread
// event rings, and a per-run registry of aggregates, counters and gauges.
//
// The perf/ layer models what the kernels *should* cost; this layer
// measures where a running simulation's wall time actually goes — predict
// vs correct vs halo wait, per shard and per thread — in the
// SeisSol/ExaHyPE tradition of phase-instrumented ADER-DG production runs.
// Three pieces:
//
//   TelemetryRegistry  one instance per run (the Simulation façade owns
//                      one per job). Holds per-thread SpanEvent rings,
//                      lock-free per-SpanId duration aggregates, a
//                      per-shard time array for imbalance, named
//                      counters/gauges (cold path, mutex), and the run's
//                      own FlopCounter (see TelemetryScope).
//   ScopedSpan         RAII timer. Reads the thread's current registry
//                      from a thread_local — when no registry is
//                      installed, or spans are disabled, the constructor
//                      is one TLS load and a branch: no clock read, no
//                      allocation, no lock. When enabled it records
//                      [t0, t1) into the calling thread's ring (single
//                      writer, never locked) and bumps the aggregate with
//                      relaxed atomics.
//   TelemetryScope     installs a registry as the thread's current one
//                      and routes FlopCounter::instance() to the
//                      registry's counter, so concurrent pool jobs no
//                      longer double-count each other's FLOPs.
//                      TelemetryEnv::capture() snapshots the installation
//                      for re-installation on worker threads (ParallelFor
//                      propagates it into every parallel region).
//
// Determinism: telemetry only reads the monotonic clock and writes to its
// own buffers and files — it never touches solver state, so enabling it
// changes no simulation bytes (guarded by tests/test_telemetry.cpp).
//
// Compile-time kill switch: defining EXASTP_DISABLE_TELEMETRY turns
// ScopedSpan and the capture/install hooks into empty inline no-ops.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exastp/perf/flop_count.h"

namespace exastp {

/// The span taxonomy (docs/observability.md). Fixed at compile time so the
/// hot path indexes a flat array instead of hashing names.
enum class SpanId : std::int32_t {
  kStep = 0,          ///< one step(dt) inside run_until
  kStableDt,          ///< the CFL reduction before each step
  kObservers,         ///< the attached observers' on_step hooks
  kPredict,           ///< ADER space-time predictor sweep (phase 0)
  kCorrectInterior,   ///< ADER corrector over the interior cell set
  kCorrectBoundary,   ///< ADER corrector over the boundary set + advance
  kRkStageInterior,   ///< RK4 stage operator, interior set (arg = stage)
  kRkStageBoundary,   ///< RK4 stage operator, boundary set + axpy sweeps
  kExchangePost,      ///< ExchangeBackend capture/open (pack, send, gather)
  kExchangeWait,      ///< not recorded (unhidden wait is kSchedWait); the
                      ///< id and its name stay for downstream consumers
  kShardInterior,     ///< one shard's interior sweep (track = shard)
  kShardBoundary,     ///< one shard's boundary sweep (track = shard)
  kOverlapCompute,    ///< sweep compute while halo arrivals were pending
  kParallelRegion,    ///< one thread's share of a ParallelFor::run
  kSetupTune,         ///< from_config: fused-block autotune measurement
  kSetupSolver,       ///< from_config: kernel + solver construction
  kSetupInit,         ///< from_config: initial condition + sources
  kJob,               ///< one SimulationPool job (arg = job id)
  kLtsCluster,        ///< one LTS cluster's sweep (arg = cluster)
  kSchedWait,         ///< scheduler blocked on arrivals (arg = stalled shards)
  kNumSpanIds
};

inline constexpr int kNumSpanIds = static_cast<int>(SpanId::kNumSpanIds);

/// Stable lower_snake name of a span id ("predict", "sched_wait", ...) —
/// the `name` field of trace events and the summary-table row label.
const char* span_name(SpanId id);

/// One completed span, 32 bytes. Times are ns on the steady clock relative
/// to the owning registry's epoch.
struct SpanEvent {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int32_t id = 0;     ///< SpanId
  std::int32_t track = -1; ///< -1 = the emitting thread; >= 0 = shard track
  std::int64_t arg = -1;   ///< phase / stage / job id; -1 = none
};

/// Fixed-capacity single-writer ring of SpanEvents. Exactly one thread
/// pushes (the owner); readers snapshot after the run, once the producing
/// threads have been joined or synchronized (the registry's export path).
/// When full, the oldest events are overwritten — the trace keeps the tail
/// of the run — and `dropped()` counts the overwritten events.
class ThreadRing {
 public:
  explicit ThreadRing(std::size_t capacity, int thread_index);

  void push(const SpanEvent& event) {
    events_[head_ % events_.size()] = event;
    ++head_;
  }

  /// Events in push order (oldest surviving first). Call only quiescent.
  std::vector<SpanEvent> snapshot() const;

  std::uint64_t dropped() const {
    return head_ > events_.size() ? head_ - events_.size() : 0;
  }
  std::size_t size() const {
    return head_ < events_.size() ? head_ : events_.size();
  }
  /// Registration order within the registry: 0 is the first thread that
  /// emitted a span (usually the main thread). The trace's per-thread tid.
  int thread_index() const { return thread_index_; }

 private:
  std::vector<SpanEvent> events_;
  std::size_t head_ = 0;
  int thread_index_ = 0;
};

/// Per-SpanId totals, accumulated lock-free from every thread.
struct SpanAggregate {
  std::int64_t total_ns = 0;
  std::int64_t count = 0;
};

/// Shard slots tracked for the imbalance statistics. Decompositions beyond
/// this are still correct — the overflow shards just do not contribute to
/// the min/mean/max.
inline constexpr int kMaxShardTracks = 256;

class TelemetryRegistry {
 public:
  /// `spans_enabled` gates every clock read: a registry created with it
  /// false still scopes FLOP accounting (TelemetryScope) but records no
  /// spans. `ring_capacity` is events per thread (tests shrink it to
  /// exercise wraparound).
  explicit TelemetryRegistry(bool spans_enabled,
                             std::size_t ring_capacity = std::size_t{1} << 15);

  TelemetryRegistry(const TelemetryRegistry&) = delete;
  TelemetryRegistry& operator=(const TelemetryRegistry&) = delete;

  bool spans_enabled() const { return spans_enabled_; }

  /// ns since this registry's construction on the steady clock.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records one completed span: pushes it into the calling thread's ring,
  /// bumps the SpanId aggregate, and — when `track` names a shard — adds
  /// the duration to that shard's time (the imbalance statistic).
  void record(SpanId id, int track, std::int64_t arg, std::int64_t t0_ns,
              std::int64_t t1_ns);

  /// Aggregate-only accounting for durations that are not trace spans
  /// (kOverlapCompute: the sweep time hidden behind in-flight halos).
  void add_duration(SpanId id, std::int64_t ns) {
    agg_ns_[static_cast<int>(id)].fetch_add(ns, std::memory_order_relaxed);
    agg_count_[static_cast<int>(id)].fetch_add(1, std::memory_order_relaxed);
  }

  SpanAggregate aggregate(SpanId id) const {
    return {agg_ns_[static_cast<int>(id)].load(std::memory_order_relaxed),
            agg_count_[static_cast<int>(id)].load(std::memory_order_relaxed)};
  }

  /// Cumulative ns shard `s` spent in its interior+boundary sweeps.
  std::int64_t shard_ns(int s) const {
    return s >= 0 && s < kMaxShardTracks
               ? shard_ns_[static_cast<std::size_t>(s)].load(
                     std::memory_order_relaxed)
               : 0;
  }

  /// The run's own FLOP counter; TelemetryScope routes
  /// FlopCounter::instance() here while installed.
  FlopCounter& flops() { return flops_; }
  const FlopCounter& flops() const { return flops_; }

  // Named counters/gauges — cold path (setup bookkeeping, end-of-run
  // summaries), mutex-guarded.
  void add_counter(const std::string& name, double delta);
  void set_gauge(const std::string& name, double value);
  /// A merged name -> value view of counters and gauges, in name order.
  std::map<std::string, double> named_values() const;

  /// Every thread ring registered so far, for export. Call quiescent (the
  /// producing threads joined or synchronized); entries are in thread
  /// registration order.
  std::vector<const ThreadRing*> rings() const;

 private:
  friend class ScopedSpan;
  /// The calling thread's ring, registering it on first use. The fast path
  /// is two thread_local reads (see telemetry.cpp).
  ThreadRing& ring_for_this_thread();

  bool spans_enabled_ = false;
  std::size_t ring_capacity_;
  std::uint64_t serial_;  ///< process-unique, keys the thread_local cache
  std::chrono::steady_clock::time_point epoch_;
  std::array<std::atomic<std::int64_t>, kNumSpanIds> agg_ns_{};
  std::array<std::atomic<std::int64_t>, kNumSpanIds> agg_count_{};
  std::array<std::atomic<std::int64_t>, kMaxShardTracks> shard_ns_{};
  FlopCounter flops_;
  mutable std::mutex rings_mutex_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
  mutable std::mutex named_mutex_;
  std::map<std::string, double> named_;
};

namespace detail {
/// The thread's installed registry (TelemetryScope); null outside a scope.
TelemetryRegistry*& current_telemetry();
}  // namespace detail

#ifndef EXASTP_DISABLE_TELEMETRY

/// RAII span timer. Constructed on the hot path of every step phase, so
/// the disabled path must stay trivial: one TLS load and one branch.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanId id, std::int64_t arg = -1, int track = -1)
      : id_(id), track_(track), arg_(arg) {
    TelemetryRegistry* reg = detail::current_telemetry();
    reg_ = (reg != nullptr && reg->spans_enabled()) ? reg : nullptr;
    if (reg_ != nullptr) t0_ns_ = reg_->now_ns();
  }
  ~ScopedSpan() {
    if (reg_ != nullptr)
      reg_->record(id_, track_, arg_, t0_ns_, reg_->now_ns());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TelemetryRegistry* reg_ = nullptr;
  std::int64_t t0_ns_ = 0;
  SpanId id_;
  int track_;
  std::int64_t arg_;
};

/// Installs `registry` as the calling thread's current one and routes
/// FlopCounter::instance() to registry->flops() for the scope's lifetime
/// (restoring both on destruction, so scopes nest). Passing null is a
/// no-op scope — callers need no branches.
class TelemetryScope {
 public:
  explicit TelemetryScope(TelemetryRegistry* registry)
      : prev_reg_(detail::current_telemetry()),
        prev_flops_(FlopCounter::thread_instance()) {
    if (registry != nullptr) {
      detail::current_telemetry() = registry;
      FlopCounter::thread_instance() = &registry->flops();
    }
  }
  ~TelemetryScope() {
    detail::current_telemetry() = prev_reg_;
    FlopCounter::thread_instance() = prev_flops_;
  }

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  /// The calling thread's installed registry, or null.
  static TelemetryRegistry* current() { return detail::current_telemetry(); }

 private:
  TelemetryRegistry* prev_reg_;
  FlopCounter* prev_flops_;
};

/// Snapshot of a thread's telemetry installation (registry + FLOP routing),
/// for handing to worker threads: ParallelFor captures the caller's
/// environment once per run() and installs it inside every chunk body, so
/// spans and FLOPs from OpenMP/pool workers land in the job that spawned
/// them — not in whatever a pooled worker thread ran last.
class TelemetryEnv {
 public:
  static TelemetryEnv capture() {
    TelemetryEnv env;
    env.reg_ = detail::current_telemetry();
    env.flops_ = FlopCounter::thread_instance();
    return env;
  }

  class Install {
   public:
    explicit Install(const TelemetryEnv& env)
        : prev_reg_(detail::current_telemetry()),
          prev_flops_(FlopCounter::thread_instance()) {
      detail::current_telemetry() = env.reg_;
      FlopCounter::thread_instance() = env.flops_;
    }
    ~Install() {
      detail::current_telemetry() = prev_reg_;
      FlopCounter::thread_instance() = prev_flops_;
    }
    Install(const Install&) = delete;
    Install& operator=(const Install&) = delete;

   private:
    TelemetryRegistry* prev_reg_;
    FlopCounter* prev_flops_;
  };

 private:
  TelemetryRegistry* reg_ = nullptr;
  FlopCounter* flops_ = nullptr;
};

#else  // EXASTP_DISABLE_TELEMETRY

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanId, std::int64_t = -1, int = -1) {}
};

class TelemetryScope {
 public:
  explicit TelemetryScope(TelemetryRegistry*) {}
  static TelemetryRegistry* current() { return nullptr; }
};

class TelemetryEnv {
 public:
  static TelemetryEnv capture() { return {}; }
  class Install {
   public:
    explicit Install(const TelemetryEnv&) {}
  };
};

#endif  // EXASTP_DISABLE_TELEMETRY

/// Human-readable end-of-run table: phase wall-time shares of the stepped
/// time, per-shard imbalance and overlap efficiency, FLOP throughput, and
/// the named counters. Empty when the registry recorded no steps (spans
/// disabled or run_until never ran) — callers print it only when
/// non-empty. `seconds` is the measured wall time of the run when the
/// caller has one (< 0 = derive from the step aggregate).
std::string telemetry_summary_table(const TelemetryRegistry& registry,
                                    double seconds = -1.0);

}  // namespace exastp
