#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench.h"
#include "gsn/container/notification.h"
#include "gsn/wrappers/wrapper.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point& Origin() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return origin;
}

std::chrono::steady_clock::time_point ToSteady(Timestamp t) {
  return Origin() + std::chrono::microseconds(t - kEpoch);
}

}  // namespace

// ---------------------------------------------------------------- clock

Timestamp BenchClock::NowMicros() const { return Now(); }

const std::shared_ptr<BenchClock>& BenchClock::Shared() {
  static const std::shared_ptr<BenchClock> clock =
      std::make_shared<BenchClock>();
  return clock;
}

Timestamp Now() {
  return kEpoch + std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - Origin())
                      .count();
}

void SleepUntil(Timestamp t) { std::this_thread::sleep_until(ToSteady(t)); }

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double ReadingValue(uint64_t seed, int feed, int64_t seq) {
  const uint64_t h = Mix(seed ^ Mix(static_cast<uint64_t>(feed) * 1000003ULL +
                                    static_cast<uint64_t>(seq)));
  return static_cast<double>(h % 400) / 4.0;
}

bool Phase::Traced(Timestamp due) const {
  const Timestamp start = measure_start.load();
  return trace && start != 0 && due >= start &&
         ((due - start) / kTraceBlock) % 2 == 1;
}

Timestamp Feed::Due(const Phase& phase, int64_t seq) const {
  return phase.measure_start.load() + phase_offset +
         (seq - kMeasuredSeqBase) * period;
}

// ---------------------------------------------------------------- wrapper

namespace {

class FeedWrapper : public gsn::wrappers::Wrapper {
 public:
  FeedWrapper(Feed* feed, const Phase* phase) : feed_(feed), phase_(phase) {
    schema_.AddField("seq", gsn::DataType::kInt);
    schema_.AddField("value", gsn::DataType::kDouble);
    if (feed_->payload_bytes > 0) {
      schema_.AddField("payload", gsn::DataType::kBinary);
    }
  }

  const gsn::Schema& output_schema() const override { return schema_; }
  std::string type_name() const override { return "perfbench"; }

  gsn::Result<std::vector<gsn::StreamElement>> Poll(Timestamp) override {
    std::vector<gsn::StreamElement> out;
    const Timestamp handed = Now();
    {
      std::lock_guard<std::mutex> lock(feed_->inbox_mu);
      out.swap(feed_->inbox);
    }
    feed_->polls.fetch_add(1, std::memory_order_relaxed);
    feed_->polled_readings.fetch_add(static_cast<int64_t>(out.size()),
                                     std::memory_order_relaxed);
    if (phase_->trace && !out.empty()) {
      std::lock_guard<std::mutex> lock(feed_->sample_mu);
      for (const gsn::StreamElement& e : out) {
        const int64_t seq = e.values[0].int_value();
        const int64_t idx = seq - kMeasuredSeqBase;
        if (idx < 0 || idx >= feed_->measured_count) continue;
        if (phase_->Traced(feed_->Due(*phase_, seq))) {
          feed_->polled_at[static_cast<size_t>(idx)] = handed;
        }
      }
    }
    return out;
  }

 private:
  Feed* feed_;
  const Phase* phase_;
  gsn::Schema schema_;
};

}  // namespace

void RegisterFeedWrapper(gsn::container::Container* container,
                         std::vector<Feed*> feeds, const Phase* phase) {
  container->wrapper_registry().Register(
      "perfbench",
      [feeds, phase](const gsn::wrappers::WrapperConfig& config)
          -> gsn::Result<std::unique_ptr<gsn::wrappers::Wrapper>> {
        GSN_ASSIGN_OR_RETURN(int64_t index, config.GetInt("feed", -1));
        if (index < 0 || index >= static_cast<int64_t>(feeds.size())) {
          return gsn::Status::InvalidArgument("perfbench: bad feed index");
        }
        return std::unique_ptr<gsn::wrappers::Wrapper>(
            new FeedWrapper(feeds[static_cast<size_t>(index)], phase));
      });
}

// ---------------------------------------------------------------- generator

Generator::Generator(std::vector<Feed*> feeds) : feeds_(std::move(feeds)) {}

Generator::~Generator() { Stop(); }

void Generator::Start() {
  const Timestamp now = Now();
  for (Feed* f : feeds_) {
    f->next_seq = kWarmupSeqBase;
    f->next_due = now + f->phase_offset;
    f->remaining = -1;  // warm-up: unbounded
  }
  thread_ = std::thread([this] { Loop(); });
}

void Generator::BeginMeasure(Timestamp start) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_start_ = start;
  }
  cv_.notify_all();
}

void Generator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Generator::Emit(Feed* f, Timestamp now) {
  gsn::StreamElement e;
  e.timed = f->next_due;
  e.values.push_back(gsn::Value::Int(f->next_seq));
  e.values.push_back(gsn::Value::Double(ReadingValue(f->seed, f->index, f->next_seq)));
  if (f->payload_bytes > 0) {
    e.values.push_back(gsn::Value::Binary(
        f->payloads[static_cast<size_t>(f->next_seq) % f->payloads.size()]));
  }
  {
    std::lock_guard<std::mutex> lock(f->inbox_mu);
    f->inbox.push_back(std::move(e));
  }
  f->last_offered.store(f->next_seq);
  if (f->remaining > 0) {
    late_.push_back(now - f->next_due);
    --f->remaining;
  }
  ++f->next_seq;
  f->next_due += f->period;
}

void Generator::Loop() {
  bool measuring = false;
  for (;;) {
    Timestamp next = INT64_MAX;
    for (Feed* f : feeds_) {
      if (f->remaining != 0) next = std::min(next, f->next_due);
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto wake = [&] { return stop_ || (!measuring && pending_start_ != 0); };
      if (next == INT64_MAX) {
        cv_.wait(lock, wake);
      } else {
        cv_.wait_until(lock, ToSteady(next), wake);
      }
      if (stop_) return;
      if (!measuring && pending_start_ != 0) {
        measuring = true;
        for (Feed* f : feeds_) {
          f->next_seq = kMeasuredSeqBase;
          f->next_due = pending_start_ + f->phase_offset;
          f->remaining = f->measured_count;
        }
        late_.reserve(static_cast<size_t>(feeds_.size()) * 64);
        continue;
      }
    }
    const Timestamp now = Now();
    for (Feed* f : feeds_) {
      while (f->remaining != 0 && f->next_due <= now) Emit(f, now);
    }
  }
}

// ---------------------------------------------------------------- sinks

void AttachSink(gsn::container::Container* container,
                std::unordered_map<std::string, Feed*> sensors, SinkRole role,
                const Phase* phase) {
  auto on_notify = [sensors = std::move(sensors), role,
                    phase](const gsn::container::Notification& n) {
    const Timestamp at = Now();
    auto it = sensors.find(n.sensor_name);
    if (it == sensors.end() || n.element.values.empty() ||
        !n.element.values[0].is_int()) {
      return;
    }
    Feed* f = it->second;
    const int64_t seq = n.element.values[0].int_value();
    if (role == SinkRole::kMid) {
      f->mid_outputs.fetch_add(1, std::memory_order_relaxed);
    } else {
      f->final_outputs.fetch_add(1, std::memory_order_relaxed);
      int64_t prev = f->last_notified.load();
      while (seq > prev && !f->last_notified.compare_exchange_weak(prev, seq)) {
      }
    }
    const int64_t idx = seq - kMeasuredSeqBase;
    if (idx < 0 || idx >= f->measured_count) return;
    const Timestamp due = f->Due(*phase, seq);
    std::lock_guard<std::mutex> lock(f->sample_mu);
    if (role == SinkRole::kFinal) f->freshness.emplace_back(seq, at - due);
    if (phase->Traced(due)) {
      std::vector<Timestamp>& stamps =
          role == SinkRole::kFinal ? f->final_at : f->mid_at;
      if (stamps[static_cast<size_t>(idx)] == 0) {
        stamps[static_cast<size_t>(idx)] = at;
      }
    }
  };
  (void)container->notification_manager().Subscribe(
      "*", "",
      std::make_shared<gsn::container::CallbackChannel>(std::move(on_notify)));
}

// ---------------------------------------------------------------- stats

double Quantile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1 - frac) +
         static_cast<double>(values[hi]) * frac;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

void Blocked::Add(int64_t block, int64_t value) {
  const int64_t last = static_cast<int64_t>(blocks.size()) - 1;
  blocks[static_cast<size_t>(std::clamp<int64_t>(block, 0, last))].push_back(value);
}

int64_t Blocked::Count() const {
  int64_t n = 0;
  for (const auto& b : blocks) n += static_cast<int64_t>(b.size());
  return n;
}

std::vector<std::vector<int64_t>> Blocked::Windows() const {
  const int64_t per_block = std::max<int64_t>(1, Count() / std::max<int64_t>(1, static_cast<int64_t>(blocks.size())));
  const size_t group = static_cast<size_t>((kWindowSamples + per_block - 1) / per_block);
  std::vector<std::vector<int64_t>> windows;
  for (size_t b = 0; b + group <= blocks.size(); b += group) {
    windows.emplace_back();
    for (size_t k = b; k < b + group; ++k) {
      windows.back().insert(windows.back().end(), blocks[k].begin(), blocks[k].end());
    }
  }
  if (windows.size() < 4) {
    windows.assign(1, {});
    for (const auto& blk : blocks) windows[0].insert(windows[0].end(), blk.begin(), blk.end());
  }
  return windows;
}

double Blocked::Quantile(double q) const {
  std::vector<double> per_window;
  for (const auto& w : Windows()) per_window.push_back(perfbench::Quantile(w, q));
  return InterquartileMean(per_window);
}

double Blocked::PerBlock() const {
  std::vector<double> counts;
  for (const auto& b : blocks) counts.push_back(static_cast<double>(b.size()));
  return InterquartileMean(counts);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const auto size = it->file_size(size_ec);
      if (!size_ec) total += static_cast<int64_t>(size);
    }
  }
  return total;
}

gsn::telemetry::Histogram::Snapshot Minus(
    const gsn::telemetry::Histogram::Snapshot& later,
    const gsn::telemetry::Histogram::Snapshot& earlier) {
  gsn::telemetry::Histogram::Snapshot d = later;
  d.count -= earlier.count;
  d.sum -= earlier.sum;
  for (size_t b = 0; b < d.buckets.size(); ++b) d.buckets[b] -= earlier.buckets[b];
  return d;
}

// ---------------------------------------------------------------- HTTP

std::string UrlEncode(const std::string& text) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : text) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

namespace {

struct Conn {
  int fd = -1;
  bool busy = false;
  Query query;
  Timestamp sent = 0;
  std::string buf;
};

int Dial(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Length of the complete response at the front of `buf`, 0 if more
/// bytes are needed; fills status and body.
size_t ParseResponse(const std::string& buf, HttpReply* reply) {
  const size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  size_t length = 0;
  size_t p = buf.find("Content-Length:");
  if (p == std::string::npos) p = buf.find("content-length:");
  if (p != std::string::npos && p < head_end) {
    length = std::strtoull(buf.c_str() + p + 15, nullptr, 10);
  }
  if (buf.size() < head_end + 4 + length) return 0;
  reply->status = std::atoi(buf.c_str() + buf.find(' ') + 1);
  reply->body = buf.substr(head_end + 4, length);
  return head_end + 4 + length;
}

}  // namespace

bool RunHttpClosedLoop(
    uint16_t port, int connections, Timestamp deadline,
    const std::function<Query(int conn)>& next,
    const std::function<void(int conn, Query&, const HttpReply&)>& done) {
  std::vector<Conn> conns(static_cast<size_t>(connections));
  bool ok = true;
  auto send_next = [&](int i) {
    Conn& c = conns[static_cast<size_t>(i)];
    c.query = next(i);
    const std::string request = "GET /api/v1/query?sql=" + UrlEncode(c.query.sql) +
                                " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
    c.sent = Now();
    c.busy = SendAll(c.fd, request);
    if (!c.busy) ok = false;
  };
  for (int i = 0; i < connections; ++i) {
    conns[static_cast<size_t>(i)].fd = Dial(port);
    if (conns[static_cast<size_t>(i)].fd < 0) ok = false;
  }
  if (ok) {
    for (int i = 0; i < connections; ++i) send_next(i);
  }
  std::vector<pollfd> fds(conns.size());
  char chunk[65536];
  while (ok) {
    int active = 0;
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i].fd, static_cast<short>(conns[i].busy ? POLLIN : 0), 0};
      active += conns[i].busy ? 1 : 0;
    }
    if (active == 0) break;
    if (::poll(fds.data(), fds.size(), 5000) <= 0) {
      ok = false;
      break;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i];
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ok = false;
        break;
      }
      c.buf.append(chunk, static_cast<size_t>(n));
      HttpReply reply;
      const size_t used = ParseResponse(c.buf, &reply);
      if (used == 0) continue;
      reply.latency = Now() - c.sent;
      c.buf.erase(0, used);
      c.busy = false;
      done(static_cast<int>(i), c.query, reply);
      if (Now() < deadline) send_next(static_cast<int>(i));
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  return ok;
}

bool JsonNumber(const std::string& body, const std::string& key, double* out,
                size_t from) {
  const std::string needle = "\"" + key + "\":";
  const size_t p = body.find(needle, from);
  if (p == std::string::npos) return false;
  char* end = nullptr;
  const char* start = body.c_str() + p + needle.size();
  *out = std::strtod(start, &end);
  return end != start;
}

// ---------------------------------------------------------------- report

void Report::Add(const std::string& name, double value, const std::string& unit,
                 int64_t samples) {
  values_[name] = {value, unit};
  Note(name, value, unit, samples);
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit, int64_t samples) {
  if (samples >= 0) {
    std::printf("  %-36s %14.6f %-6s (n=%lld)\n", name.c_str(), value,
                unit.c_str(), static_cast<long long>(samples));
  } else {
    std::printf("  %-36s %14.6f %s\n", name.c_str(), value, unit.c_str());
  }
}

std::string Report::Json(bool correct, int64_t attempted, int64_t failed,
                         const std::vector<std::string>& keep) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : keep) {
    auto it = values_.find(name);
    if (it == values_.end()) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           it->second.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
