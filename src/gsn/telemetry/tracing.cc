#include "gsn/telemetry/tracing.h"

#include <utility>

namespace gsn::telemetry {

namespace {

/// splitmix64 finalizer — cheap, well-distributed, and stateless, so id
/// generation stays lock-free (one fetch_add) under concurrent tracing.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string SpanRecord::TraceIdHex() const {
  TraceContext ctx;
  ctx.trace_hi = trace_hi;
  ctx.trace_lo = trace_lo;
  return ctx.TraceIdHex();
}

std::string SpanRecord::SpanIdHex() const {
  TraceContext ctx;
  ctx.span_id = span_id;
  return ctx.SpanIdHex();
}

// ---------------------------------------------------------------------------
// TraceStore
// ---------------------------------------------------------------------------

TraceStore::TraceStore(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void TraceStore::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(record));
}

std::vector<SpanRecord> TraceStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SpanRecord>(ring_.begin(), ring_.end());
}

std::vector<SpanRecord> TraceStore::ForTrace(uint64_t trace_hi,
                                             uint64_t trace_lo) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const SpanRecord& record : ring_) {
    if (record.trace_hi == trace_hi && record.trace_lo == trace_lo) {
      out.push_back(record);
    }
  }
  return out;
}

size_t TraceStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t TraceStore::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(const Options& options)
    : store_(options.capacity),
      clock_(options.clock != nullptr ? options.clock
                                      : SteadyClock::Instance()),
      seed_(options.seed),
      sample_rate_(options.sample_rate) {}

uint64_t Tracer::NextId() {
  // 0 is reserved for "no id"; Mix64 of distinct inputs collides with 0
  // only for one specific counter value, which we simply skip past.
  uint64_t id = 0;
  while (id == 0) {
    id = Mix64(seed_ ^ counter_.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

TraceContext Tracer::StartTrace() {
  const double rate = sample_rate_.load(std::memory_order_relaxed);
  if (rate <= 0.0) return TraceContext();
  TraceContext ctx;
  ctx.trace_hi = NextId();
  ctx.trace_lo = NextId();
  ctx.span_id = NextId();
  if (rate >= 1.0) {
    ctx.sampled = true;
  } else {
    // Deterministic coin from the trace id: the same trace id always
    // lands on the same side, so the decision is reproducible given the
    // seed and id sequence.
    const double coin =
        static_cast<double>(Mix64(ctx.trace_lo ^ seed_) >> 11) *
        (1.0 / 9007199254740992.0);  // / 2^53
    ctx.sampled = coin < rate;
  }
  return ctx;
}

TraceContext Tracer::ChildOf(const TraceContext& parent) {
  if (!parent.valid()) return TraceContext();
  TraceContext ctx = parent;
  ctx.span_id = NextId();
  return ctx;
}

void Tracer::set_sample_rate(double rate) {
  if (!(rate >= 0.0)) rate = 0.0;  // also NaN
  if (rate > 1.0) rate = 1.0;
  sample_rate_.store(rate, std::memory_order_relaxed);
}

double Tracer::sample_rate() const {
  return sample_rate_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

Span::Span(Histogram* histogram) : histogram_(histogram) {
  StartClock(nullptr);
}

Span::Span(Tracer* tracer, std::string_view name, Histogram* histogram)
    : histogram_(histogram) {
  if (tracer != nullptr) {
    const TraceContext ctx = tracer->StartTrace();
    if (ctx.valid()) Open(tracer, name, ctx, /*parent_span_id=*/0);
  }
  StartClock(tracer);
}

Span::Span(Tracer* tracer, std::string_view name, const TraceContext& parent,
           Histogram* histogram)
    : histogram_(histogram) {
  if (tracer != nullptr && parent.valid()) {
    Open(tracer, name, tracer->ChildOf(parent), parent.span_id);
  }
  StartClock(tracer);
}

void Span::Open(Tracer* tracer, std::string_view name, TraceContext ctx,
                uint64_t parent_span_id) {
  tracer_ = tracer;
  ctx_ = ctx;
  record_.trace_hi = ctx.trace_hi;
  record_.trace_lo = ctx.trace_lo;
  record_.span_id = ctx.span_id;
  record_.parent_span_id = parent_span_id;
  record_.name.assign(name.data(), name.size());
  if (ctx_.sampled) {
    saved_thread_ctx_ = ThreadTraceContext();
    SetThreadTraceContext(ctx_);
    bound_thread_ = true;
  }
}

void Span::StartClock(const Tracer* tracer) {
  if (histogram_ == nullptr && tracer_ == nullptr) return;  // nothing to time
  clock_ = tracer != nullptr ? tracer->clock() : SteadyClock::Instance();
  record_.start_micros = clock_->NowMicros();
}

Span::~Span() { Finish(); }

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      clock_(other.clock_),
      histogram_(other.histogram_),
      ctx_(other.ctx_),
      record_(std::move(other.record_)),
      saved_thread_ctx_(other.saved_thread_ctx_),
      bound_thread_(other.bound_thread_) {
  other.tracer_ = nullptr;
  other.clock_ = nullptr;
  other.bound_thread_ = false;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    Finish();
    tracer_ = other.tracer_;
    clock_ = other.clock_;
    histogram_ = other.histogram_;
    ctx_ = other.ctx_;
    record_ = std::move(other.record_);
    saved_thread_ctx_ = other.saved_thread_ctx_;
    bound_thread_ = other.bound_thread_;
    other.tracer_ = nullptr;
    other.clock_ = nullptr;
    other.bound_thread_ = false;
  }
  return *this;
}

void Span::set_sensor(std::string_view sensor) {
  if (tracer_ != nullptr) record_.sensor.assign(sensor.data(), sensor.size());
}

void Span::set_node(std::string_view node) {
  if (tracer_ != nullptr) record_.node.assign(node.data(), node.size());
}

void Span::set_error() {
  if (tracer_ != nullptr) record_.error = true;
}

int64_t Span::Stop() {
  if (clock_ == nullptr) return 0;
  const int64_t elapsed = clock_->NowMicros() - record_.start_micros;
  clock_ = nullptr;
  record_.duration_micros = elapsed;
  if (histogram_ != nullptr) histogram_->Observe(elapsed);
  return elapsed;
}

void Span::Finish() {
  Stop();
  if (tracer_ == nullptr) return;
  if (bound_thread_) {
    if (saved_thread_ctx_.valid()) {
      SetThreadTraceContext(saved_thread_ctx_);
    } else {
      ClearThreadTraceContext();
    }
    bound_thread_ = false;
  }
  if (ctx_.sampled || record_.error) {
    tracer_->store().Record(std::move(record_));
  }
  tracer_ = nullptr;
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

bool ParseTraceIdHex(std::string_view hex, uint64_t* trace_hi,
                     uint64_t* trace_lo) {
  if (hex.size() != 32) return false;
  uint64_t parts[2] = {0, 0};
  for (int half = 0; half < 2; ++half) {
    for (int i = 0; i < 16; ++i) {
      const char c = hex[static_cast<size_t>(half * 16 + i)];
      uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<uint64_t>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<uint64_t>(c - 'A') + 10;
      } else {
        return false;
      }
      parts[half] = (parts[half] << 4) | digit;
    }
  }
  *trace_hi = parts[0];
  *trace_lo = parts[1];
  return true;
}

}  // namespace gsn::telemetry
