#ifndef GSN_TELEMETRY_PROFILER_H_
#define GSN_TELEMETRY_PROFILER_H_

/// Contention and process profiler. Two instruments:
///
///  - TimedMutex: a std::mutex drop-in that, once Instrument()ed,
///    counts acquisitions, counts contended acquisitions, and records
///    the wall time spent blocked into a `gsn_lock_wait_micros{lock=}`
///    histogram. The uncontended fast path is one try_lock plus one
///    relaxed counter increment — no clock read.
///  - ReadProcessStats / build info: process RSS, CPU seconds, and the
///    compiled-in version string for the status surface.
///
/// Both are safe to run permanently in production; the benches quote
/// lock-wait shares from these histograms. Timed code sections use
/// telemetry::Span (tracing.h).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "gsn/telemetry/metrics.h"

namespace gsn::telemetry {

/// std::mutex-compatible (BasicLockable + Lockable) mutex that meters
/// lock waits. Uninstrumented it behaves exactly like std::mutex.
/// Instrument() must be called before the mutex is shared across
/// threads (wiring time, like metric handles).
class TimedMutex {
 public:
  TimedMutex() = default;
  TimedMutex(const TimedMutex&) = delete;
  TimedMutex& operator=(const TimedMutex&) = delete;

  /// Registers `gsn_lock_wait_micros`, `gsn_lock_acquisitions_total`
  /// and `gsn_lock_contended_total`, all labelled {lock=name} (plus
  /// `extra` labels), in `registry`. No-op when registry is null.
  void Instrument(MetricRegistry* registry, const std::string& name,
                  const Labels& extra = {});

  void lock() {
    if (mu_.try_lock()) {
      if (acquisitions_ != nullptr) acquisitions_->Increment();
      return;
    }
    if (wait_micros_ != nullptr) {
      contended_->Increment();
      const int64_t start = SteadyClock::Instance()->NowMicros();
      mu_.lock();
      wait_micros_->Observe(SteadyClock::Instance()->NowMicros() - start);
      acquisitions_->Increment();
      return;
    }
    mu_.lock();
  }
  bool try_lock() {
    const bool ok = mu_.try_lock();
    if (ok && acquisitions_ != nullptr) acquisitions_->Increment();
    return ok;
  }
  void unlock() { mu_.unlock(); }

  /// Point-in-time contention stats (zero until Instrument()).
  const std::string& label() const { return label_; }
  int64_t acquisitions() const {
    return acquisitions_ != nullptr ? acquisitions_->Value() : 0;
  }
  int64_t contended() const {
    return contended_ != nullptr ? contended_->Value() : 0;
  }
  int64_t wait_micros_total() const {
    return wait_micros_ != nullptr ? wait_micros_->TakeSnapshot().sum : 0;
  }

 private:
  std::mutex mu_;
  std::string label_;
  std::shared_ptr<Histogram> wait_micros_;
  std::shared_ptr<Counter> acquisitions_;
  std::shared_ptr<Counter> contended_;
};

/// Process-level resource usage for the status surface and the system
/// wrapper. Fields are 0 where the platform gives no answer.
struct ProcessStats {
  int64_t rss_bytes = 0;
  double cpu_seconds = 0;  // user + system
};
ProcessStats ReadProcessStats();

/// Version baked in at configure time (CMake project version).
std::string BuildVersion();
/// Compiler identification (__VERSION__).
std::string BuildCompiler();

}  // namespace gsn::telemetry

#endif  // GSN_TELEMETRY_PROFILER_H_
