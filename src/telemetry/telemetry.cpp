#include "exastp/telemetry/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "exastp/common/check.h"

namespace exastp {

const char* span_name(SpanId id) {
  switch (id) {
    case SpanId::kStep: return "step";
    case SpanId::kStableDt: return "stable_dt";
    case SpanId::kObservers: return "observers";
    case SpanId::kPredict: return "predict";
    case SpanId::kCorrectInterior: return "correct_interior";
    case SpanId::kCorrectBoundary: return "correct_boundary";
    case SpanId::kRkStageInterior: return "rk_stage_interior";
    case SpanId::kRkStageBoundary: return "rk_stage_boundary";
    case SpanId::kExchangePost: return "exchange_post";
    case SpanId::kExchangeWait: return "exchange_wait";
    case SpanId::kShardInterior: return "shard_interior";
    case SpanId::kShardBoundary: return "shard_boundary";
    case SpanId::kOverlapCompute: return "overlap_compute";
    case SpanId::kParallelRegion: return "parallel_region";
    case SpanId::kSetupTune: return "setup_tune";
    case SpanId::kSetupSolver: return "setup_solver";
    case SpanId::kSetupInit: return "setup_init";
    case SpanId::kJob: return "job";
    case SpanId::kLtsCluster: return "lts_cluster";
    case SpanId::kSchedWait: return "sched_wait";
    case SpanId::kNumSpanIds: break;
  }
  EXASTP_FAIL("unknown span id");
}

ThreadRing::ThreadRing(std::size_t capacity, int thread_index)
    : events_(std::max<std::size_t>(capacity, 1)),
      thread_index_(thread_index) {}

std::vector<SpanEvent> ThreadRing::snapshot() const {
  std::vector<SpanEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::size_t cap = events_.size();
  const std::size_t first = head_ > cap ? head_ - cap : 0;
  for (std::size_t i = first; i < head_; ++i) out.push_back(events_[i % cap]);
  return out;
}

namespace detail {

TelemetryRegistry*& current_telemetry() {
  static thread_local TelemetryRegistry* current = nullptr;
  return current;
}

namespace {
/// Process-unique registry serials; 0 is reserved for "no registry", so a
/// fresh thread_local cache never aliases a real one.
std::atomic<std::uint64_t> next_serial{1};
}  // namespace

}  // namespace detail

TelemetryRegistry::TelemetryRegistry(bool spans_enabled,
                                     std::size_t ring_capacity)
    : spans_enabled_(spans_enabled),
      ring_capacity_(ring_capacity),
      serial_(detail::next_serial.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

ThreadRing& TelemetryRegistry::ring_for_this_thread() {
  // Cache keyed by the registry serial: a pooled worker thread that moves
  // to a new job's registry re-registers there on its first span; the
  // common case (same registry as last time) is two thread_local reads.
  // The serial — not the pointer — keys the cache, so a registry allocated
  // at a destroyed one's address cannot inherit its stale ring.
  static thread_local std::uint64_t cached_serial = 0;
  static thread_local ThreadRing* cached_ring = nullptr;
  if (cached_serial == serial_ && cached_ring != nullptr) return *cached_ring;
  std::lock_guard<std::mutex> lock(rings_mutex_);
  rings_.push_back(std::make_unique<ThreadRing>(
      ring_capacity_, static_cast<int>(rings_.size())));
  cached_ring = rings_.back().get();
  cached_serial = serial_;
  return *cached_ring;
}

void TelemetryRegistry::record(SpanId id, int track, std::int64_t arg,
                               std::int64_t t0_ns, std::int64_t t1_ns) {
  SpanEvent event;
  event.t0_ns = t0_ns;
  event.t1_ns = t1_ns;
  event.id = static_cast<std::int32_t>(id);
  event.track = track;
  event.arg = arg;
  ring_for_this_thread().push(event);
  const std::int64_t ns = t1_ns - t0_ns;
  agg_ns_[static_cast<int>(id)].fetch_add(ns, std::memory_order_relaxed);
  agg_count_[static_cast<int>(id)].fetch_add(1, std::memory_order_relaxed);
  if (track >= 0 && track < kMaxShardTracks)
    shard_ns_[static_cast<std::size_t>(track)].fetch_add(
        ns, std::memory_order_relaxed);
}

void TelemetryRegistry::add_counter(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(named_mutex_);
  named_[name] += delta;
}

void TelemetryRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(named_mutex_);
  named_[name] = value;
}

std::map<std::string, double> TelemetryRegistry::named_values() const {
  std::lock_guard<std::mutex> lock(named_mutex_);
  return named_;
}

std::vector<const ThreadRing*> TelemetryRegistry::rings() const {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  std::vector<const ThreadRing*> out;
  out.reserve(rings_.size());
  for (const auto& ring : rings_) out.push_back(ring.get());
  return out;
}

namespace {

std::string seconds_text(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", s);
  return buf;
}

std::string percent_text(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", 100.0 * fraction);
  return buf;
}

}  // namespace

std::string telemetry_summary_table(const TelemetryRegistry& registry,
                                    double seconds) {
  const SpanAggregate steps = registry.aggregate(SpanId::kStep);
  if (steps.count == 0) return "";
  const double step_s = static_cast<double>(steps.total_ns) * 1e-9;
  const double wall_s = seconds >= 0.0 ? seconds : step_s;

  std::ostringstream os;
  os << "telemetry: " << steps.count << " steps in " << seconds_text(step_s)
     << " s stepped time (" << seconds_text(step_s / steps.count)
     << " s/step)\n";
  os << "  phase               total_s   share    count\n";
  // Shares are of the stepped time; the phases listed are the disjoint
  // per-stepper sweeps (sharded wrappers and the overlap aggregate are
  // reported separately below, so nothing is double-counted).
  const SpanId phases[] = {SpanId::kPredict,         SpanId::kCorrectInterior,
                           SpanId::kCorrectBoundary, SpanId::kRkStageInterior,
                           SpanId::kRkStageBoundary, SpanId::kExchangePost,
                           SpanId::kSchedWait,       SpanId::kStableDt,
                           SpanId::kObservers};
  for (SpanId id : phases) {
    const SpanAggregate agg = registry.aggregate(id);
    if (agg.count == 0) continue;
    const double s = static_cast<double>(agg.total_ns) * 1e-9;
    char line[128];
    std::snprintf(line, sizeof(line), "  %-18s %9.4f  %s %8lld\n",
                  span_name(id), s,
                  percent_text(step_s > 0.0 ? s / step_s : 0.0).c_str(),
                  static_cast<long long>(agg.count));
    os << line;
  }

  // Overlap efficiency: how much of the halo exchange hid behind compute.
  // hidden = sweep time while halo arrivals were pending; the unhidden
  // remainder showed up as blocked sched_wait polls.
  const SpanAggregate overlap = registry.aggregate(SpanId::kOverlapCompute);
  const SpanAggregate wait = registry.aggregate(SpanId::kSchedWait);
  if (overlap.count > 0) {
    const double hidden = static_cast<double>(overlap.total_ns) * 1e-9;
    const double unhidden = static_cast<double>(wait.total_ns) * 1e-9;
    const double total = hidden + unhidden;
    os << "  overlap efficiency " << percent_text(total > 0.0 ? hidden / total
                                                              : 0.0)
       << " (" << seconds_text(hidden) << " s of compute hid "
       << seconds_text(unhidden) << " s of residual wait)\n";
  }

  // Per-shard imbalance over the interior+boundary sweep times.
  std::int64_t s_min = 0, s_max = 0, s_sum = 0;
  int shards = 0;
  for (int s = 0; s < kMaxShardTracks; ++s) {
    const std::int64_t ns = registry.shard_ns(s);
    if (ns == 0) continue;
    s_min = shards == 0 ? ns : std::min(s_min, ns);
    s_max = std::max(s_max, ns);
    s_sum += ns;
    ++shards;
  }
  if (shards > 1) {
    const double mean = static_cast<double>(s_sum) / shards;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  shard time min/mean/max = %.4f/%.4f/%.4f s over %d "
                  "shards (imbalance %.2f)\n",
                  static_cast<double>(s_min) * 1e-9, mean * 1e-9,
                  static_cast<double>(s_max) * 1e-9, shards,
                  mean > 0.0 ? static_cast<double>(s_max) / mean : 0.0);
    os << line;
  }

  const std::uint64_t flops = registry.flops().total();
  if (flops > 0 && wall_s > 0.0) {
    char line[96];
    std::snprintf(line, sizeof(line), "  flops %.3e (%.2f GFLOP/s)\n",
                  static_cast<double>(flops),
                  static_cast<double>(flops) / wall_s * 1e-9);
    os << line;
  }

  for (const auto& [name, value] : registry.named_values()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %s = %g\n", name.c_str(), value);
    os << line;
  }
  return os.str();
}

}  // namespace exastp
