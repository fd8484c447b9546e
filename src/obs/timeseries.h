#ifndef DFLOW_OBS_TIMESERIES_H_
#define DFLOW_OBS_TIMESERIES_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"

namespace dflow::obs {

class EventLog;

// Fleet health verdict, ordered by badness. The numeric value doubles as
// the dflow_health_status gauge and the on-wire status byte.
enum class HealthStatus : uint8_t {
  kOk = 0,
  kDegraded = 1,
  kCritical = 2,
};

const char* ToString(HealthStatus status);

// The counters/gauges the collector differences each interval. Everything
// is a closure over state the owner already maintains (same philosophy as
// MetricsRegistry registration): the collector holds no references into
// the server beyond these. Closures that do not apply (e.g. slots_total on
// a plain server) are left null and read as zero.
struct HealthSources {
  std::function<int64_t()> requests_total;       // completed requests
  std::function<int64_t()> failovers_total;      // router only
  std::function<int64_t()> cache_hits_total;
  std::function<int64_t()> cache_misses_total;
  std::function<int64_t()> advisor_explores_total;
  // Wall-latency histogram snapshot; p95 is computed from bucket deltas
  // between consecutive snapshots, so it reflects the interval, not the
  // process lifetime. Null when the owner has no latency histogram.
  std::function<Histogram::Snapshot()> wall_latency;
  // Instantaneous queue occupancy across shards.
  std::function<std::vector<uint64_t>()> queue_depths;
  uint64_t queue_capacity = 0;  // per-shard bound; 0 = unbounded
  // Router topology: slots with zero live replicas make status critical.
  std::function<int64_t()> slots_total;
  std::function<int64_t()> slots_down;
};

struct HealthOptions {
  // Snapshot cadence in seconds; <= 0 disables the collector thread
  // entirely (SampleOnce still works for tests and STATS serving).
  double interval_s = 1.0;
  // Samples retained in the ring (default: 2 minutes at 1s cadence).
  size_t ring_capacity = 120;
  // SLO bound for the p95 watermark rule; <= 0 disables the rule.
  double slo_ms = 0;
  // Queue watermark: sustained max-shard utilization above `degraded`
  // degrades, above `critical` is critical. Utilization is depth/capacity
  // (skipped when capacity is unbounded).
  double queue_degraded_utilization = 0.75;
  double queue_critical_utilization = 0.95;
  // A watermark must hold for this many consecutive samples before the
  // status moves (and must be clean this many samples before it recovers)
  // — one bad scrape is noise, three in a row is weather.
  int sustain_samples = 3;
};

// One interval snapshot: rates differenced from the monotonic sources,
// plus the status verdict at sample time.
struct HealthSample {
  int64_t wall_ms = 0;       // unix wall clock at sample time
  double interval_s = 0;     // measured (not configured) interval
  double requests_per_s = 0;
  double failovers_per_s = 0;
  double cache_hit_rate = 0;   // of lookups this interval; 0 when none
  double p95_wall_ms = 0;      // from histogram bucket deltas; 0 when idle
  uint64_t queue_depth_max = 0;
  double queue_utilization = 0;  // max-shard depth / capacity
  HealthStatus status = HealthStatus::kOk;

  friend bool operator==(const HealthSample&, const HealthSample&) = default;
};

// Differences monotonic sources into a rate ring on a fixed cadence and
// runs the watermark rules: sustained queue pressure, p95 over the SLO,
// backend flapping (new death/failover/mismatch events in the recent
// window), and dead replica slots. Status transitions and watermark
// breaches are emitted into the journal; the current status is exported as
// the dflow_health_status gauge.
//
// The collector thread is the only writer; SampleOnce() is public so tests
// can drive the exact same math against scripted sources without threads.
class HealthCollector {
 public:
  HealthCollector(HealthOptions options, HealthSources sources,
                  EventLog* journal = nullptr);
  ~HealthCollector();
  HealthCollector(const HealthCollector&) = delete;
  HealthCollector& operator=(const HealthCollector&) = delete;

  // Starts/stops the collector thread (no-ops when interval_s <= 0).
  void Start();
  void Stop();

  // Takes one snapshot now, as if the interval `interval_s` had elapsed
  // since the previous one. Runs the watermark rules and pushes the sample
  // into the ring. Thread-safe, but meant for the collector thread and for
  // scripted tests.
  HealthSample SampleOnce(double interval_s);

  // Newest `max` samples, oldest first.
  std::vector<HealthSample> Recent(size_t max) const;

  HealthStatus status() const {
    return static_cast<HealthStatus>(
        status_.load(std::memory_order_relaxed));
  }
  int64_t samples_taken() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }

  // Registers the dflow_health_status gauge (0 ok / 1 degraded /
  // 2 critical).
  void RegisterMetrics(MetricsRegistry* registry);

  const HealthOptions& options() const { return options_; }

  // Pure rate/percentile helpers, exposed for unit tests.
  // p95 from the count delta between two snapshots of the same histogram:
  // linear interpolation within the bucket holding the 95th percentile of
  // the *new* observations. Returns 0 when nothing landed in between.
  static double P95FromDelta(const Histogram::Snapshot& prev,
                             const Histogram::Snapshot& cur);

 private:
  void Loop();

  const HealthOptions options_;
  const HealthSources sources_;
  EventLog* const journal_;

  // Previous-cycle readings (collector thread / SampleOnce callers only,
  // guarded by sample_mu_).
  std::mutex sample_mu_;
  int64_t prev_requests_ = 0;
  int64_t prev_failovers_ = 0;
  int64_t prev_cache_hits_ = 0;
  int64_t prev_cache_misses_ = 0;
  int64_t prev_explores_ = 0;
  int64_t prev_flap_events_ = 0;
  Histogram::Snapshot prev_latency_;
  bool have_prev_ = false;
  int breach_streak_ = 0;
  int clean_streak_ = 0;

  std::atomic<uint8_t> status_{0};
  std::atomic<int64_t> samples_taken_{0};

  mutable std::mutex ring_mu_;
  std::deque<HealthSample> ring_;

  std::mutex thread_mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace dflow::obs

#endif  // DFLOW_OBS_TIMESERIES_H_
