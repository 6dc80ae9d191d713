#include "gsn/telemetry/metrics.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace gsn::telemetry {

namespace {

/// Bit width of `v` (0 for 0): the histogram bucket index.
int BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  int bits = 0;
  uint64_t v = static_cast<uint64_t>(value);
  while (v != 0) {
    v >>= 1;
    ++bits;
  }
  return bits < Histogram::kNumBuckets ? bits : Histogram::kNumBuckets - 1;
}

/// Canonical `{k="v",...}` rendering with label-value escaping; doubles
/// as the series key inside a family.
std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"";
    for (char c : value) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += "\"";
  }
  out += "}";
  return out;
}

/// Like RenderLabels but with an extra `le` label appended (histogram
/// bucket series).
std::string RenderBucketLabels(const Labels& labels, const std::string& le) {
  Labels with_le = labels;
  with_le.emplace_back("le", le);
  return RenderLabels(with_le);
}

/// Prometheus text-format escaping for `# HELP` lines: backslash and
/// line feed only (quotes are legal there, unlike in label values).
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- Histogram

void Histogram::Observe(int64_t value) {
  if (value < 0) value = 0;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::BucketUpperBound(int b) {
  if (b <= 0) return 0;
  if (b >= kNumBuckets - 1) return std::numeric_limits<int64_t>::max();
  return (int64_t{1} << b) - 1;
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  snapshot.max = max_.load(std::memory_order_relaxed);
  for (int b = 0; b < kNumBuckets; ++b) {
    snapshot.buckets[static_cast<size_t>(b)] =
        buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  return snapshot;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

void Histogram::Merge(Snapshot* into, const Snapshot& other) {
  into->count += other.count;
  into->sum += other.sum;
  into->max = std::max(into->max, other.max);
  for (int b = 0; b < kNumBuckets; ++b) {
    into->buckets[static_cast<size_t>(b)] +=
        other.buckets[static_cast<size_t>(b)];
  }
}

int64_t Histogram::Snapshot::Quantile(double q) const {
  if (count <= 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based.
  const double rank = q * static_cast<double>(count);
  int64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const int64_t in_bucket = buckets[static_cast<size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      // Linear interpolation between the bucket bounds by rank
      // position; the top bucket is tightened by the exact max.
      const int64_t lo = b == 0 ? 0 : (int64_t{1} << (b - 1));
      int64_t hi = BucketUpperBound(b);
      hi = std::min(hi, max);
      if (hi <= lo) return hi;
      const double within = (rank - static_cast<double>(cumulative)) /
                            static_cast<double>(in_bucket);
      return lo + static_cast<int64_t>(static_cast<double>(hi - lo) * within);
    }
    cumulative += in_bucket;
  }
  return max;
}

// --------------------------------------------------------------- Registry

MetricRegistry* MetricRegistry::Default() {
  static MetricRegistry* instance = new MetricRegistry();
  return instance;
}

MetricRegistry::Series* MetricRegistry::GetSeries(const std::string& name,
                                                  Kind kind,
                                                  const Labels& labels,
                                                  const std::string& help) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.kind = kind;
    family.help = help;
  } else if (family.kind != kind) {
    return nullptr;  // type mismatch: caller hands out a detached metric
  }
  if (family.help.empty() && !help.empty()) family.help = help;
  Series& series = family.series[RenderLabels(sorted)];
  if (series.labels.empty() && !sorted.empty()) series.labels = sorted;
  return &series;
}

std::shared_ptr<Counter> MetricRegistry::GetCounter(const std::string& name,
                                                    const Labels& labels,
                                                    const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Series* series = GetSeries(name, Kind::kCounter, labels, help);
  if (series == nullptr) return std::make_shared<Counter>();
  if (series->counter == nullptr) series->counter = std::make_shared<Counter>();
  return series->counter;
}

std::shared_ptr<Gauge> MetricRegistry::GetGauge(const std::string& name,
                                                const Labels& labels,
                                                const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Series* series = GetSeries(name, Kind::kGauge, labels, help);
  if (series == nullptr) return std::make_shared<Gauge>();
  if (series->gauge == nullptr) series->gauge = std::make_shared<Gauge>();
  return series->gauge;
}

std::shared_ptr<Histogram> MetricRegistry::GetHistogram(
    const std::string& name, const Labels& labels, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Series* series = GetSeries(name, Kind::kHistogram, labels, help);
  if (series == nullptr) return std::make_shared<Histogram>();
  if (series->histogram == nullptr) {
    series->histogram = std::make_shared<Histogram>();
  }
  return series->histogram;
}

int MetricRegistry::RemoveWithLabel(const std::string& key,
                                    const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  int removed = 0;
  for (auto fit = families_.begin(); fit != families_.end();) {
    Family& family = fit->second;
    for (auto sit = family.series.begin(); sit != family.series.end();) {
      const Labels& labels = sit->second.labels;
      const bool match =
          std::any_of(labels.begin(), labels.end(), [&](const auto& kv) {
            return kv.first == key && kv.second == value;
          });
      if (match) {
        sit = family.series.erase(sit);
        ++removed;
      } else {
        ++sit;
      }
    }
    fit = family.series.empty() ? families_.erase(fit) : std::next(fit);
  }
  return removed;
}

int MetricRegistry::RemoveMetric(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) return 0;
  const int removed = static_cast<int>(it->second.series.size());
  families_.erase(it);
  return removed;
}

void MetricRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  families_.clear();
}

size_t MetricRegistry::NumSeries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [name, family] : families_) n += family.series.size();
  return n;
}

Histogram::Snapshot MetricRegistry::SumHistograms(
    const std::string& name) const {
  Histogram::Snapshot merged;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kHistogram) {
    return merged;
  }
  for (const auto& [key, series] : it->second.series) {
    if (series.histogram != nullptr) {
      Histogram::Merge(&merged, series.histogram->TakeSnapshot());
    }
  }
  return merged;
}

int64_t MetricRegistry::SumCounters(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kCounter) return 0;
  int64_t sum = 0;
  for (const auto& [key, series] : it->second.series) {
    if (series.counter != nullptr) sum += series.counter->Value();
  }
  return sum;
}

std::string MetricRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + EscapeHelp(family.help) + "\n";
    }
    out += "# TYPE " + name + " ";
    out += family.kind == Kind::kCounter    ? "counter"
           : family.kind == Kind::kGauge    ? "gauge"
                                            : "histogram";
    out += "\n";
    for (const auto& [label_key, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          out += name + label_key + " " +
                 std::to_string(series.counter ? series.counter->Value() : 0) +
                 "\n";
          break;
        case Kind::kGauge:
          out += name + label_key + " " +
                 std::to_string(series.gauge ? series.gauge->Value() : 0) +
                 "\n";
          break;
        case Kind::kHistogram: {
          if (series.histogram == nullptr) break;
          const Histogram::Snapshot snap = series.histogram->TakeSnapshot();
          int64_t cumulative = 0;
          for (int b = 0; b < Histogram::kNumBuckets; ++b) {
            const int64_t in_bucket = snap.buckets[static_cast<size_t>(b)];
            if (in_bucket == 0) continue;  // sparse: only occupied buckets
            cumulative += in_bucket;
            out += name + "_bucket" +
                   RenderBucketLabels(
                       series.labels,
                       std::to_string(Histogram::BucketUpperBound(b))) +
                   " " + std::to_string(cumulative) + "\n";
          }
          out += name + "_bucket" + RenderBucketLabels(series.labels, "+Inf") +
                 " " + std::to_string(snap.count) + "\n";
          out += name + "_sum" + label_key + " " + std::to_string(snap.sum) +
                 "\n";
          out += name + "_count" + label_key + " " +
                 std::to_string(snap.count) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

// ------------------------------------------------------------ SteadyClock

Timestamp SteadyClock::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const SteadyClock* SteadyClock::Instance() {
  static const SteadyClock* instance = new SteadyClock();
  return instance;
}

}  // namespace gsn::telemetry
