// Shared pieces of the end-to-end benchmark: the bench clock,
// seeded reading feeds with their wrapper and open-loop generator, the
// notification sinks that stamp reading freshness, the closed-loop HTTP
// query client, and small statistics/reporting helpers.
//
// Everything here drives the container from outside, through its public
// API: a registered wrapper, a "*" notification subscription, and timed
// calls into Deploy/Checkpoint/Query/WebInterface/EpollTransport.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"

namespace perfbench {

using gsn::Timestamp;
using gsn::kMicrosPerMilli;
using gsn::kMicrosPerSecond;

/// Origin of the bench clock. Preloaded history sits just before it and
/// live readings after it, so timestamps in query texts depend on the
/// seed alone, never on the wall clock.
constexpr Timestamp kEpoch = 1'700'000'000'000'000;
/// Sequence numbers of readings offered while setting up (they prove
/// the path delivers) and during the measured phase. Fixed bases keep
/// seq-range query texts independent of how long set-up took.
constexpr int64_t kWarmupSeqBase = 100'000;
constexpr int64_t kMeasuredSeqBase = 1'000'000;
/// Tracing toggles per block of the measured phase (odd blocks traced),
/// so one traced run also yields the untraced cost it is compared with.
constexpr Timestamp kTraceBlock = kMicrosPerSecond;

/// Monotonic clock shared by the benchmark and every container it builds:
/// steady time since process start, offset by kEpoch.
class BenchClock : public gsn::Clock {
 public:
  Timestamp NowMicros() const override;
  static const std::shared_ptr<BenchClock>& Shared();
};
Timestamp Now();
void SleepUntil(Timestamp t);

/// splitmix64: the one source of every seeded choice in the benchmark.
uint64_t Mix(uint64_t x);
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return state_ = Mix(state_); }
  /// Uniform in [0, n).
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % static_cast<uint64_t>(n)); }
  double Unit() { return static_cast<double>(Next() >> 11) / 9007199254740992.0; }

 private:
  uint64_t state_;
};

/// A reading's value: a multiple of 0.25 in [0, 100), so sums over any
/// subset are exact in double and the benchmark can check aggregates bit
/// for bit.
double ReadingValue(uint64_t seed, int feed, int64_t seq);

/// State of the measured phase, shared by generator, wrappers and sinks.
struct Phase {
  std::atomic<Timestamp> measure_start{0};  // 0 while setting up
  bool trace = false;
  /// True when the reading due at `due` falls in a traced block.
  bool Traced(Timestamp due) const;
};

/// One device: a sensor fed by the generator at a fixed rate. The
/// wrapper hands over readings; sinks record when outputs carrying them
/// were notified.
struct Feed {
  // Configuration (immutable once the generator starts).
  int index = 0;
  std::string sensor;  // sensor the readings enter
  Timestamp period = 0;
  Timestamp phase_offset = 0;  // in [0, period)
  size_t payload_bytes = 0;
  std::vector<gsn::Blob> payloads;
  uint64_t seed = 0;
  int64_t measured_count = 0;  // readings offered in the measured phase

  /// Due time of measured reading `seq` (seq >= kMeasuredSeqBase).
  Timestamp Due(const Phase& phase, int64_t seq) const;

  // Generator side.
  int64_t next_seq = kWarmupSeqBase;
  Timestamp next_due = 0;
  int64_t remaining = 0;
  std::atomic<int64_t> last_offered{-1};

  // Wrapper inbox and counters.
  std::mutex inbox_mu;
  std::vector<gsn::StreamElement> inbox;
  std::atomic<int64_t> polls{0};
  std::atomic<int64_t> polled_readings{0};

  // Sinks. `mid` is the producer container in federation, `final` the
  // container whose table users query.
  std::atomic<int64_t> mid_outputs{0};
  std::atomic<int64_t> final_outputs{0};
  std::atomic<int64_t> last_notified{-1};
  std::mutex sample_mu;
  /// (seq, µs) for each measured final output.
  std::vector<std::pair<int64_t, int64_t>> freshness;
  std::vector<Timestamp> polled_at;    // traced stamps, by measured index
  std::vector<Timestamp> mid_at;
  std::vector<Timestamp> final_at;
};

/// Registers the "perfbench" wrapper: `<predicate key="feed" val="i"/>`
/// selects feeds[i]; `Poll` hands over the generator's readings.
void RegisterFeedWrapper(gsn::container::Container* container,
                         std::vector<Feed*> feeds, const Phase* phase);

/// Open-loop reading generator: one thread, readings stamped with their
/// scheduled creation time whether or not the container keeps up.
class Generator {
 public:
  explicit Generator(std::vector<Feed*> feeds);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void Start();
  /// Re-schedules every feed onto the measured phase starting at
  /// `start`; the generator stops after each feed's measured_count.
  void BeginMeasure(Timestamp start);
  void Stop();
  /// µs by which the generator enqueued measured readings after their
  /// due time (valid after Stop).
  const std::vector<int64_t>& late() const { return late_; }

 private:
  void Loop();
  void Emit(Feed* feed, Timestamp now);

  std::vector<Feed*> feeds_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  Timestamp pending_start_ = 0;  // guarded by mu_
  std::vector<int64_t> late_;
  std::thread thread_;
};

/// Role of a container's "*" subscription for one feed's sensor.
enum class SinkRole { kMid, kFinal };
/// Subscribes a "*" CallbackChannel on `container` mapping each sensor
/// name in `sensors` to its feed.
void AttachSink(gsn::container::Container* container,
                std::unordered_map<std::string, Feed*> sensors, SinkRole role,
                const Phase* phase);

// ---------------------------------------------------------------- stats

/// Linear-interpolated quantile of `values` (copied and sorted); 0 when
/// empty.
double Quantile(std::vector<int64_t> values, double q);
double Median(std::vector<double> values);
/// Mean of the values between the first and third quartile.
double InterquartileMean(std::vector<double> values);
/// Samples tagged with the one-second block of the measured phase they
/// belong to. A run's figure is the interquartile mean over windows of
/// consecutive blocks: a burst of outside load moves one window rather
/// than the run, and a load that comes and goes is averaged rather than
/// sampled. Windows hold >= kWindowSamples samples (ten beyond a p99);
/// with fewer than four such windows the run is pooled.
constexpr int64_t kWindowSamples = 1000;
struct Blocked {
  std::vector<std::vector<int64_t>> blocks;
  explicit Blocked(size_t n) : blocks(n) {}
  void Add(int64_t block, int64_t value);
  int64_t Count() const;
  /// Interquartile mean over windows of each window's `q`-quantile.
  double Quantile(double q) const;
  /// Interquartile mean over blocks of samples per block (a rate).
  double PerBlock() const;

 private:
  std::vector<std::vector<int64_t>> Windows() const;
};
double CpuSeconds();  // process user + system
double PeakRssMb();
int64_t DirBytes(const std::string& dir);

/// `later` - `earlier`: the samples observed in between.
gsn::telemetry::Histogram::Snapshot Minus(
    const gsn::telemetry::Histogram::Snapshot& later,
    const gsn::telemetry::Histogram::Snapshot& earlier);

// ---------------------------------------------------------------- HTTP

/// One ad hoc query of the closed loop, with what the benchmark expects.
struct Query {
  enum Class { kDashboard = 0, kHistory = 1, kExport = 2 };
  Class cls = kDashboard;
  std::string sql;
  Feed* feed = nullptr;
  int64_t min_seq = 0;  // dashboard: newest seq notified before sending
  // history: exact expectations when `exact`, else upper bounds.
  bool exact = false;
  int64_t count = 0;
  double sum = 0;
  int64_t seq_lo = 0, seq_hi = 0;  // export: seq range [lo, hi)
};

std::string UrlEncode(const std::string& text);

/// Closed loop over `connections` keep-alive sockets from one thread:
/// each connection sends its next query only after the previous reply.
/// `next(conn)` yields the next query; `done` receives each reply.
struct HttpReply {
  int status = 0;
  std::string body;
  Timestamp latency = 0;
};
/// Returns false if a connection could not be opened or broke.
bool RunHttpClosedLoop(
    uint16_t port, int connections, Timestamp deadline,
    const std::function<Query(int conn)>& next,
    const std::function<void(int conn, Query&, const HttpReply&)>& done);

/// Minimal readers for the web interface's flat JSON rows.
bool JsonNumber(const std::string& body, const std::string& key, double* out,
                size_t from = 0);

// ---------------------------------------------------------------- report

/// Collects metrics, prints one human line each (name, value, unit,
/// sample count) and renders the final JSON object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1);
  /// Metrics printed for reference but not part of the result object.
  void Note(const std::string& name, double value, const std::string& unit,
            int64_t samples = -1);
  std::string Json(bool correct, int64_t attempted, int64_t failed,
                   const std::vector<std::string>& keep) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
