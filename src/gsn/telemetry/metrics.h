#ifndef GSN_TELEMETRY_METRICS_H_
#define GSN_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gsn/util/clock.h"

namespace gsn::telemetry {

/// Label set of one time series, e.g. {{"sensor","room1"}}. Kept sorted
/// by key inside the registry so label order never creates duplicate
/// series.
using Labels = std::vector<std::pair<std::string, std::string>>;

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonically increasing counter. Increment is a single relaxed
/// atomic add — cheap enough for per-tuple hot paths (the registry hands
/// out shared_ptrs, so the lookup cost is paid once at wiring time, not
/// per tuple).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  /// Counters are monotonic in exposition; Reset exists for the legacy
  /// ResetJoinCounters-style test hooks that zero between cases.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written value (queue depths, deployed-sensor counts, the most
/// recent pipeline latency). Relaxed atomics; writers race benignly.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed histogram for non-negative integer samples (latencies
/// in microseconds, sizes in bytes). Bucket b holds values whose bit
/// width is b: bucket 0 = {0}, bucket b = [2^(b-1), 2^b). Observe is a
/// handful of relaxed atomic ops; quantiles are read out of a snapshot
/// with linear interpolation inside the winning bucket, so they are
/// exact to within one power of two (tightened by the exact max).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t value);

  /// Inclusive upper bound of bucket `b` (2^b - 1); used by exposition.
  static int64_t BucketUpperBound(int b);

  /// A consistent-enough copy for readout. Concurrent Observes may tear
  /// count vs sum by a sample or two; quantile readouts are estimates
  /// by construction and tolerate that.
  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t max = 0;
    std::array<int64_t, kNumBuckets> buckets{};

    /// q in [0,1]; returns 0 on an empty histogram, the exact max for
    /// the top of the distribution.
    int64_t Quantile(double q) const;
    double Mean() const {
      return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                       : 0.0;
    }
  };
  Snapshot TakeSnapshot() const;

  void Reset();

  /// Adds `other`'s samples into this snapshot (metric-family merges,
  /// e.g. all sensors' pipeline latencies as one distribution).
  static void Merge(Snapshot* into, const Snapshot& other);

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Thread-safe name+labels → metric registry with get-or-create
/// semantics and Prometheus text exposition. Metrics are handed out as
/// shared_ptrs: callers cache them at wiring time and keep incrementing
/// safely even if the series is concurrently unregistered (the series
/// simply stops being exported).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide default registry. Holds process-global series
  /// (the SQL executor's join counters); instrumented components that
  /// get no injected registry create a private one instead, so
  /// per-instance stats views stay per-instance.
  static MetricRegistry* Default();

  /// Get-or-create. `help` is recorded on first registration of `name`.
  /// If `name` already exists with a different metric type, a detached
  /// (unexported) instance is returned so callers never crash; the
  /// mismatch is a programming error surfaced by the exposition missing
  /// the series.
  std::shared_ptr<Counter> GetCounter(const std::string& name,
                                      const Labels& labels = {},
                                      const std::string& help = "");
  std::shared_ptr<Gauge> GetGauge(const std::string& name,
                                  const Labels& labels = {},
                                  const std::string& help = "");
  std::shared_ptr<Histogram> GetHistogram(const std::string& name,
                                          const Labels& labels = {},
                                          const std::string& help = "");

  /// Drops every series carrying label `key`=`value` (per-sensor metric
  /// families at undeploy). Returns how many series were removed.
  int RemoveWithLabel(const std::string& key, const std::string& value);
  /// Drops every series of `name`. Returns how many were removed.
  int RemoveMetric(const std::string& name);
  /// Drops everything (test isolation).
  void Clear();

  size_t NumSeries() const;

  /// Merged snapshot of every histogram series named `name` (empty
  /// snapshot if none). Benches read their figure series through this.
  Histogram::Snapshot SumHistograms(const std::string& name) const;
  /// Sum of every counter series named `name`.
  int64_t SumCounters(const std::string& name) const;

  /// Prometheus text exposition format 0.0.4: # HELP / # TYPE comments,
  /// counters and gauges as bare samples, histograms as cumulative
  /// `_bucket{le=...}` series plus `_sum` and `_count`.
  std::string RenderPrometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;  // sorted by key
    std::shared_ptr<Counter> counter;
    std::shared_ptr<Gauge> gauge;
    std::shared_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind;
    std::string help;
    /// Keyed by the canonical label rendering for cheap lookup.
    std::map<std::string, Series> series;
  };

  Series* GetSeries(const std::string& name, Kind kind, const Labels& labels,
                    const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Monotonic wall clock (std::chrono::steady_clock) behind the Clock
/// interface, for spans that measure real elapsed time even when the
/// surrounding container runs on a VirtualClock (Fig 3 measures real
/// in-container processing cost under virtual stream time).
class SteadyClock : public Clock {
 public:
  Timestamp NowMicros() const override;
  static const SteadyClock* Instance();
};

}  // namespace gsn::telemetry

#endif  // GSN_TELEMETRY_METRICS_H_
