#ifndef GSN_TELEMETRY_TRACING_H_
#define GSN_TELEMETRY_TRACING_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"
#include "gsn/util/trace_context.h"

namespace gsn::telemetry {

/// Propagated trace identity — defined in util so the type layer can
/// carry it on stream elements without depending on telemetry.
using TraceContext = ::gsn::TraceContext;

/// One finished span, as stored and exported. A trace is the set of
/// spans sharing (trace_hi, trace_lo); parent_span_id links them into a
/// tree (0 = root span).
struct SpanRecord {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  std::string sensor;  ///< virtual sensor involved, if any
  std::string node;    ///< container/node id, if known
  Timestamp start_micros = 0;
  int64_t duration_micros = 0;
  bool error = false;

  std::string TraceIdHex() const;
  std::string SpanIdHex() const;
};

/// Bounded, mutex-protected ring buffer of finished spans. When full,
/// the oldest span is evicted and counted in dropped(). Safe to record
/// into from many threads while another thread snapshots (/traces).
class TraceStore {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit TraceStore(size_t capacity = kDefaultCapacity);

  void Record(SpanRecord record);

  /// All buffered spans, oldest first.
  std::vector<SpanRecord> Snapshot() const;
  /// Spans of one trace, oldest first.
  std::vector<SpanRecord> ForTrace(uint64_t trace_hi, uint64_t trace_lo) const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Spans evicted to make room since construction.
  uint64_t dropped() const;
  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<SpanRecord> ring_;
  uint64_t dropped_ = 0;
};

/// Factory for trace contexts plus the store their spans land in.
///
/// Head sampling: the decision is made once, when a trace is rooted
/// (`StartTrace`), by a deterministic coin derived from the trace id
/// (itself derived from the injected seed), and inherited by every
/// child. With sample_rate 0 (the default) `StartTrace` returns an
/// invalid context and tracing costs one atomic load per tuple. With
/// 0 < rate < 1, unsampled traces still get ids so that a span that
/// finishes with an error is recorded regardless of the coin
/// (always-sample-on-error).
///
/// Thread-safe: id generation is an atomic counter mixed through
/// splitmix64, the rate is an atomic, and the store takes its own lock.
class Tracer {
 public:
  struct Options {
    /// Probability a rooted trace is sampled. 0 disables tracing.
    double sample_rate = 0.0;
    /// Ring capacity of the span store.
    size_t capacity = TraceStore::kDefaultCapacity;
    /// Seed for id generation and the sampling coin; fixed seed + a
    /// single-threaded workload = fully reproducible ids.
    uint64_t seed = 0x6773'6e74'7261'6365;  // "gsntrace"
    /// Clock of every Span opened with this tracer: trace timestamps
    /// and durations, and the histogram samples the spans observe.
    /// Null = monotonic SteadyClock.
    const Clock* clock = nullptr;
  };

  Tracer() : Tracer(Options()) {}
  explicit Tracer(const Options& options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Roots a new trace: fresh 128-bit trace id, a root span id, and the
  /// head-sampling decision. Invalid context when sample_rate is 0.
  TraceContext StartTrace();

  /// Continues `parent` with a fresh span id (same trace id and
  /// sampling decision). Invalid context when the parent is invalid.
  TraceContext ChildOf(const TraceContext& parent);

  /// Clamped to [0, 1]; NaN disables sampling.
  void set_sample_rate(double rate);
  double sample_rate() const;

  TraceStore& store() { return store_; }
  const TraceStore& store() const { return store_; }
  const Clock* clock() const { return clock_; }

 private:
  uint64_t NextId();

  TraceStore store_;
  const Clock* const clock_;
  const uint64_t seed_;
  std::atomic<double> sample_rate_;
  std::atomic<uint64_t> counter_{0};
};

/// The one RAII timing scope: a histogram observation and a trace span
/// from the same two clock reads, one at open and one at Stop().
///
/// - With a histogram, Stop() observes the elapsed micros into it on
///   every close, sampled or not.
/// - With a valid trace context, Finish()/destruction records a span
///   into the tracer's store iff the trace is sampled or the span was
///   flagged as an error; its duration is the same elapsed micros.
///   While a sampled span is open it binds the thread-local trace
///   context so GSN_LOG lines carry `trace=<id>` (restored on finish).
/// - The clock is the tracer's (Tracer::clock(), steady unless a test
///   injects one), or SteadyClock for a span without a tracer. A scope
///   with neither a histogram nor a valid context reads no clock.
///
/// Default-constructed spans are inert, as are spans built from a null
/// tracer or an invalid parent and no histogram — instrumentation
/// points need no guards.
class Span {
 public:
  Span() = default;
  /// Histogram-only scope: times into `histogram`, opens no trace span.
  explicit Span(Histogram* histogram);
  /// Roots a new trace (see Tracer::StartTrace).
  Span(Tracer* tracer, std::string_view name, Histogram* histogram = nullptr);
  /// Child span continuing `parent`; its trace half is inert when the
  /// parent is invalid.
  Span(Tracer* tracer, std::string_view name, const TraceContext& parent,
       Histogram* histogram = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;

  void set_sensor(std::string_view sensor);
  void set_node(std::string_view node);
  /// Marks the span failed; error spans are recorded even when the
  /// trace is unsampled.
  void set_error();

  /// This span's context — pass to children / stamp onto elements.
  const TraceContext& context() const { return ctx_; }
  /// True when the span will consider recording (valid context).
  bool active() const { return tracer_ != nullptr && ctx_.valid(); }

  /// Ends the timing: reads the clock, observes the histogram, and
  /// fixes the trace span's duration. Returns the elapsed micros (0 when
  /// nothing was timed or already stopped). Idempotent. The trace span
  /// stays open (thread binding, set_error) until Finish().
  int64_t Stop();
  /// Stops, then ends the trace span (idempotent).
  void Finish();

 private:
  void Open(Tracer* tracer, std::string_view name, TraceContext ctx,
            uint64_t parent_span_id);
  void StartClock(const Tracer* tracer);

  Tracer* tracer_ = nullptr;      // non-null while the trace half is open
  const Clock* clock_ = nullptr;  // non-null while timing
  Histogram* histogram_ = nullptr;
  TraceContext ctx_;
  SpanRecord record_;  // start_micros is the open read for both halves
  TraceContext saved_thread_ctx_;
  bool bound_thread_ = false;
};

/// Parses a 32-char lowercase/uppercase hex trace id. Returns false on
/// malformed input.
bool ParseTraceIdHex(std::string_view hex, uint64_t* trace_hi,
                     uint64_t* trace_lo);

}  // namespace gsn::telemetry

#endif  // GSN_TELEMETRY_TRACING_H_
