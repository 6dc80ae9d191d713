#include "gsn/network/chaos_transport.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "gsn/util/rng.h"

namespace gsn::network {

namespace {

Timestamp SteadyMicros() {
  return telemetry::SteadyClock::Instance()->NowMicros();
}

/// How long a "reorder" decision holds a frame back: long enough that
/// frames sent a few milliseconds later overtake it on loopback.
constexpr Timestamp kReorderHoldMicros = 25 * kMicrosPerMilli;

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t hash, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  return FnvMix(hash, &value, sizeof(value));
}

uint64_t FnvMix(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvMix(hash, bits);
}

uint64_t LinkHash(const std::string& peer, ChaosTransport::Direction dir) {
  uint64_t hash = FnvMix(kFnvBasis, peer.data(), peer.size());
  return FnvMix(hash, static_cast<uint64_t>(dir));
}

/// Inbound deliveries the current thread is inside (UnregisterNode must
/// not wait on its own caller).
thread_local int t_delivering = 0;

/// gsn_chaos_injected_total{fault} labels, indexed by Fault.
constexpr const char* kFaultNames[] = {
    "drop", "dup", "reorder", "delay", "throttle", "partition", "reset",
};

}  // namespace

const char* DirectionName(ChaosTransport::Direction direction) {
  return direction == ChaosTransport::Direction::kIn ? "in" : "out";
}

/// The NetworkNode the inner transport actually delivers to: routes
/// every inbound message through the owner's inbound rules before the
/// real node sees it.
class ChaosTransport::InboundShim : public NetworkNode {
 public:
  InboundShim(ChaosTransport* owner, std::string node_id, NetworkNode* target)
      : owner_(owner), node_id_(std::move(node_id)), target_(target) {}

  void OnMessage(const Message& message) override {
    owner_->OnInboundMessage(node_id_, message);
  }

  NetworkNode* target() const { return target_; }

 private:
  ChaosTransport* const owner_;
  const std::string node_id_;
  NetworkNode* const target_;
};

ChaosTransport::ChaosTransport(Transport* inner)
    : ChaosTransport(inner, Options()) {}

ChaosTransport::ChaosTransport(Transport* inner, Options options)
    : inner_(inner), seed_(options.seed) {
  static_assert(std::size(kFaultNames) == kFaultKinds);
  if (options.metrics == nullptr) return;
  for (int fault = 0; fault < kFaultKinds; ++fault) {
    injected_metrics_[fault] = options.metrics->GetCounter(
        "gsn_chaos_injected_total", {{"fault", kFaultNames[fault]}},
        "Frames affected by injected chaos faults");
  }
}

ChaosTransport::~ChaosTransport() {
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    stopping_ = true;
  }
  sched_cv_.notify_all();
  // Schedule starts no thread once stopping_ is set: scheduler_ is final.
  if (scheduler_.joinable()) scheduler_.join();
}

Status ChaosTransport::RegisterNode(const std::string& node_id,
                                    NetworkNode* node) {
  auto shim = std::make_unique<InboundShim>(this, node_id, node);
  GSN_RETURN_IF_ERROR(inner_->RegisterNode(node_id, shim.get()));
  std::lock_guard<std::mutex> lock(mu_);
  shims_[node_id] = std::move(shim);
  return Status::OK();
}

Status ChaosTransport::UnregisterNode(const std::string& node_id) {
  GSN_RETURN_IF_ERROR(inner_->UnregisterNode(node_id));
  std::unique_lock<std::mutex> lock(mu_);
  shims_.erase(node_id);
  // A held frame may be delivering on the scheduler thread; wait it out
  // so the caller may destroy the node, unless the caller is a delivery.
  if (t_delivering == 0) {
    inbound_done_.wait(lock, [this] { return inbound_in_flight_ == 0; });
  }
  return Status::OK();
}

Status ChaosTransport::Send(Timestamp now, const std::string& from,
                            const std::string& to, const std::string& topic,
                            std::string payload) {
  bool duplicate = false;
  bool reset = false;
  Timestamp wait = 0;
  bool admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    admitted = AdmitFrameLocked(to, Direction::kOut, payload.size(),
                                SteadyMicros(), &duplicate, &reset, &wait);
  }
  if (reset) (void)inner_->ResetPeer(to);
  if (!admitted) return Status::OK();  // lost on the wire: sender can't know
  if (duplicate) {
    Schedule(SteadyMicros() + wait + kMicrosPerMilli,
             [this, now, from, to, topic, payload] {
               (void)inner_->Send(now, from, to, topic, payload);
             });
  }
  if (wait == 0) {
    return inner_->Send(now, from, to, topic, std::move(payload));
  }
  Schedule(SteadyMicros() + wait,
           [this, now, from, to, topic,
            payload = std::move(payload)]() mutable {
             (void)inner_->Send(now, from, to, topic, std::move(payload));
           });
  return Status::OK();
}

Status ChaosTransport::Broadcast(Timestamp now, const std::string& from,
                                 const std::string& topic,
                                 const std::string& payload) {
  return inner_->Broadcast(now, from, topic, payload);
}

void ChaosTransport::OnInboundMessage(const std::string& node_id,
                                      const Message& message) {
  bool duplicate = false;
  bool reset = false;
  Timestamp wait = 0;
  bool admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    admitted =
        AdmitFrameLocked(message.from, Direction::kIn, message.payload.size(),
                         SteadyMicros(), &duplicate, &reset, &wait);
  }
  if (reset) (void)inner_->ResetPeer(message.from);
  if (!admitted) return;
  if (duplicate) {
    Schedule(SteadyMicros() + wait + kMicrosPerMilli,
             [this, node_id, message] { DeliverInbound(node_id, message); });
  }
  if (wait == 0) {
    DeliverInbound(node_id, message);
    return;
  }
  Schedule(SteadyMicros() + wait,
           [this, node_id, message] { DeliverInbound(node_id, message); });
}

void ChaosTransport::DeliverInbound(const std::string& node_id,
                                    const Message& message) {
  NetworkNode* target = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shims_.find(node_id);
    if (it == shims_.end()) return;  // unregistered while frame was held
    target = it->second->target();
    ++inbound_in_flight_;
  }
  ++t_delivering;
  target->OnMessage(message);
  --t_delivering;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inbound_in_flight_;
  }
  inbound_done_.notify_all();
}

void ChaosTransport::SetRule(const std::string& peer, Direction direction,
                             const Rule& rule) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(peer, static_cast<int>(direction));
  if (rule.IsDefault()) {
    links_.erase(key);  // keep the no-rule fast path fast
    return;
  }
  LinkState& link = links_[key];
  link.rule = rule;
}

ChaosTransport::Rule ChaosTransport::GetRule(const std::string& peer,
                                             Direction direction) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = links_.find(std::make_pair(peer, static_cast<int>(direction)));
  return it == links_.end() ? Rule() : it->second.rule;
}

void ChaosTransport::ClearRules(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  if (peer.empty()) {
    links_.clear();
    return;
  }
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->first.first == peer) {
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChaosTransport::Reseed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  for (auto& [key, link] : links_) {
    link.frames = 0;
    link.throttle_free_steady = 0;
  }
}

uint64_t ChaosTransport::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

std::vector<ChaosTransport::RuleEntry> ChaosTransport::Rules() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RuleEntry> out;
  out.reserve(links_.size());
  for (const auto& [key, link] : links_) {
    RuleEntry entry;
    entry.peer = key.first;
    entry.direction = static_cast<Direction>(key.second);
    entry.rule = link.rule;
    entry.frames = link.frames;
    out.push_back(std::move(entry));
  }
  return out;
}

ChaosTransport::Counters ChaosTransport::counters() const {
  Counters out;
  out.dropped = injected_[kDrop].load();
  out.duplicated = injected_[kDup].load();
  out.reordered = injected_[kReorder].load();
  out.delayed = injected_[kDelay].load();
  out.throttled = injected_[kThrottle].load();
  out.partitioned = injected_[kPartition].load();
  out.resets = injected_[kReset].load();
  return out;
}

ChaosTransport::Decision ChaosTransport::DecisionFor(const std::string& peer,
                                                     Direction direction,
                                                     uint64_t frame_index)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = links_.find(std::make_pair(peer, static_cast<int>(direction)));
  const Rule rule = it == links_.end() ? Rule() : it->second.rule;
  return DecideLocked(rule, LinkHash(peer, direction), frame_index);
}

uint64_t ChaosTransport::ScheduleDigest(uint64_t frames_per_link) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t hash = FnvMix(kFnvBasis, seed_);
  for (const auto& [key, link] : links_) {  // map: deterministic order
    hash = FnvMix(hash, key.first.data(), key.first.size());
    hash = FnvMix(hash, static_cast<uint64_t>(key.second));
    hash = FnvMix(hash, link.rule.drop);
    hash = FnvMix(hash, link.rule.dup);
    hash = FnvMix(hash, link.rule.reorder);
    hash = FnvMix(hash, link.rule.reset);
    hash = FnvMix(hash, static_cast<uint64_t>(link.rule.delay_micros));
    hash = FnvMix(hash, static_cast<uint64_t>(link.rule.delay_jitter_micros));
    hash = FnvMix(hash,
                  static_cast<uint64_t>(link.rule.throttle_bytes_per_sec));
    hash = FnvMix(hash, static_cast<uint64_t>(link.rule.partitioned));
    const uint64_t link_hash = LinkHash(
        key.first, static_cast<Direction>(key.second));
    for (uint64_t i = 0; i < frames_per_link; ++i) {
      const Decision d = DecideLocked(link.rule, link_hash, i);
      const uint64_t bits = static_cast<uint64_t>(d.drop) |
                            static_cast<uint64_t>(d.dup) << 1 |
                            static_cast<uint64_t>(d.reorder) << 2 |
                            static_cast<uint64_t>(d.reset) << 3;
      hash = FnvMix(hash, bits);
      hash = FnvMix(hash, static_cast<uint64_t>(d.delay_micros));
    }
  }
  return hash;
}

ChaosTransport::Decision ChaosTransport::DecideLocked(
    const Rule& rule, uint64_t link_hash, uint64_t frame_index) const {
  // One PRNG stream per frame: the decision depends only on (seed,
  // link, frame index), never on interleaving — the determinism
  // contract in the class comment.
  Rng rng(seed_ ^ link_hash ^
          ((frame_index + 1) * 0x9e3779b97f4a7c15ULL));
  Decision d;
  d.drop = rng.NextBool(rule.drop);
  d.dup = rng.NextBool(rule.dup);
  d.reorder = rng.NextBool(rule.reorder);
  d.reset = rng.NextBool(rule.reset);
  if (rule.delay_micros > 0 || rule.delay_jitter_micros > 0) {
    d.delay_micros = rule.delay_micros;
    if (rule.delay_jitter_micros > 0) {
      d.delay_micros += static_cast<Timestamp>(
          rng.NextDouble() * static_cast<double>(rule.delay_jitter_micros));
    }
  }
  return d;
}

bool ChaosTransport::AdmitFrameLocked(const std::string& peer,
                                      Direction direction, size_t bytes,
                                      Timestamp steady_now, bool* duplicate,
                                      bool* reset, Timestamp* wait_micros) {
  auto it = links_.find(std::make_pair(peer, static_cast<int>(direction)));
  if (it == links_.end()) return true;
  LinkState& link = it->second;
  const Rule& rule = link.rule;
  const uint64_t frame_index = link.frames++;
  if (rule.partitioned) {
    CountFault(kPartition);
    return false;
  }
  const Decision d = DecideLocked(rule, LinkHash(peer, direction),
                                  frame_index);
  if (d.reset) {
    *reset = true;
    CountFault(kReset);
    return false;  // the frame rides the torn-down connection
  }
  if (d.drop) {
    CountFault(kDrop);
    return false;
  }
  Timestamp wait = d.delay_micros;
  if (d.delay_micros > 0) CountFault(kDelay);
  if (d.reorder) {
    wait += kReorderHoldMicros;
    CountFault(kReorder);
  }
  if (rule.throttle_bytes_per_sec > 0) {
    const Timestamp cost =
        static_cast<Timestamp>(bytes) * kMicrosPerSecond /
        rule.throttle_bytes_per_sec;
    const Timestamp start = std::max(steady_now, link.throttle_free_steady);
    link.throttle_free_steady = start + cost;
    const Timestamp throttle_wait = start + cost - steady_now;
    if (throttle_wait > 0) {
      wait += throttle_wait;
      CountFault(kThrottle);
    }
  }
  if (d.dup) {
    *duplicate = true;
    CountFault(kDup);
  }
  *wait_micros = wait;
  return true;
}

void ChaosTransport::CountFault(Fault fault) {
  injected_[fault].fetch_add(1);
  if (injected_metrics_[fault] != nullptr) {
    injected_metrics_[fault]->Increment();
  }
}

void ChaosTransport::Schedule(Timestamp due_steady, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (stopping_) return;
    if (!scheduler_.joinable()) {
      scheduler_ = std::thread([this] { SchedulerMain(); });
    }
    scheduled_.push({due_steady, sched_seq_++, std::move(fn)});
  }
  sched_cv_.notify_one();
}

void ChaosTransport::SchedulerMain() {
  std::unique_lock<std::mutex> lock(sched_mu_);
  while (!stopping_) {
    if (scheduled_.empty()) {
      sched_cv_.wait(lock);
      continue;
    }
    const Timestamp now = SteadyMicros();
    const Timestamp due = scheduled_.top().due_steady;
    if (due > now) {
      sched_cv_.wait_for(lock, std::chrono::microseconds(due - now));
      continue;
    }
    // The queue owns the closure; move it out before popping.
    auto fn = std::move(const_cast<ScheduledAction&>(scheduled_.top()).fn);
    scheduled_.pop();
    lock.unlock();
    fn();
    lock.lock();
  }
}

// ----------------------------------------------------- Shared chaos grammar

namespace {

std::vector<std::string> SplitWords(const std::string& text) {
  std::vector<std::string> words;
  std::string word;
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!word.empty()) words.push_back(std::move(word));
      word.clear();
    } else {
      word.push_back(c);
    }
  }
  if (!word.empty()) words.push_back(std::move(word));
  return words;
}

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

bool ParseDouble(const std::string& word, double* out) {
  char* end = nullptr;
  *out = std::strtod(word.c_str(), &end);
  return end != word.c_str() && *end == '\0';
}

bool ParseProbability(const std::string& word, double* out) {
  return ParseDouble(word, out) && *out >= 0.0 && *out <= 1.0;
}

/// Longest delay or jitter a rule takes: a quarter of Timestamp's
/// range, so delay + jitter plus the steady clock they are added to
/// cannot overflow.
constexpr double kMaxHoldMicros =
    static_cast<double>(std::numeric_limits<Timestamp>::max() / 4);

/// Parses a finite, non-negative millisecond count into micros.
bool ParseMillis(const std::string& word, Timestamp* micros) {
  double ms = 0.0;
  if (!ParseDouble(word, &ms) || !std::isfinite(ms) || ms < 0) return false;
  const double us = ms * kMicrosPerMilli;
  if (us > kMaxHoldMicros) return false;
  *micros = static_cast<Timestamp>(us);
  return true;
}

/// Parses an unsigned decimal seed; strtoull alone would take a sign
/// ("-1" wraps to 2^64-1) and saturate on overflow.
bool ParseSeed(const std::string& word, uint64_t* out) {
  if (word.empty() || std::isdigit(static_cast<unsigned char>(word[0])) == 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(word.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

/// Parses a trailing direction word; defaults to both directions.
bool ParseDirections(const std::vector<std::string>& words, size_t index,
                     std::vector<ChaosTransport::Direction>* out) {
  if (index >= words.size()) {
    *out = {ChaosTransport::Direction::kIn, ChaosTransport::Direction::kOut};
    return true;
  }
  const std::string dir = ToLower(words[index]);
  if (dir == "in") {
    *out = {ChaosTransport::Direction::kIn};
  } else if (dir == "out") {
    *out = {ChaosTransport::Direction::kOut};
  } else if (dir == "both") {
    *out = {ChaosTransport::Direction::kIn, ChaosTransport::Direction::kOut};
  } else {
    return false;
  }
  return true;
}

/// Applies `update` to the rule of every (peer, direction) pair named.
template <typename Fn>
void UpdateRules(ChaosTransport* chaos, const std::string& peer,
                 const std::vector<ChaosTransport::Direction>& dirs,
                 Fn update) {
  for (const ChaosTransport::Direction dir : dirs) {
    ChaosTransport::Rule rule = chaos->GetRule(peer, dir);
    update(&rule);
    chaos->SetRule(peer, dir, rule);
  }
}

Result<std::string> ExecuteDecoratorChaos(
    ChaosTransport* chaos, const std::vector<std::string>& words) {
  const Status usage = Status::InvalidArgument(
      "usage: chaos seed <n> | "
      "chaos loss <peer> <p> [in|out|both] | "
      "chaos dup <peer> <p> [dir] | chaos reorder <peer> <p> [dir] | "
      "chaos delay <peer> <ms> [<jitter_ms>] [dir] | "
      "chaos throttle <peer> <bytes_per_sec> [dir] | "
      "chaos partition <peer> | chaos heal [<peer>] | "
      "chaos reset <peer> [<p>]");
  if (words.empty()) return usage;
  const std::string sub = ToLower(words[0]);

  if (sub == "seed" && words.size() == 2) {
    uint64_t seed = 0;
    if (!ParseSeed(words[1], &seed)) {
      return Status::InvalidArgument("chaos seed takes an unsigned integer");
    }
    chaos->Reseed(seed);
    return std::string("reseeded to " + words[1] + "\n");
  }
  if ((sub == "loss" || sub == "dup" || sub == "reorder") &&
      (words.size() == 3 || words.size() == 4)) {
    double p = 0.0;
    if (!ParseProbability(words[2], &p)) {
      return Status::InvalidArgument("chaos " + sub +
                                     " takes a probability between 0 and 1");
    }
    std::vector<ChaosTransport::Direction> dirs;
    if (!ParseDirections(words, 3, &dirs)) return usage;
    UpdateRules(chaos, words[1], dirs, [&](ChaosTransport::Rule* rule) {
      if (sub == "loss") rule->drop = p;
      if (sub == "dup") rule->dup = p;
      if (sub == "reorder") rule->reorder = p;
    });
    return std::string(sub + " " + words[1] + " = " + words[2] + "\n");
  }
  if (sub == "delay" && words.size() >= 3 && words.size() <= 5) {
    Timestamp delay = 0;
    if (!ParseMillis(words[2], &delay)) {
      return Status::InvalidArgument(
          "chaos delay takes a finite delay in milliseconds");
    }
    Timestamp jitter = 0;
    size_t dir_index = 3;
    double number = 0.0;
    if (words.size() >= 4 && ParseDouble(words[3], &number)) {
      if (!ParseMillis(words[3], &jitter)) {
        return Status::InvalidArgument(
            "chaos delay jitter takes a finite millisecond count >= 0");
      }
      dir_index = 4;
    }
    std::vector<ChaosTransport::Direction> dirs;
    if (!ParseDirections(words, dir_index, &dirs)) return usage;
    UpdateRules(chaos, words[1], dirs, [&](ChaosTransport::Rule* rule) {
      rule->delay_micros = delay;
      rule->delay_jitter_micros = jitter;
    });
    return std::string("delay " + words[1] + " = " + words[2] + "ms\n");
  }
  if (sub == "throttle" && (words.size() == 3 || words.size() == 4)) {
    char* end = nullptr;
    const long long rate = std::strtoll(words[2].c_str(), &end, 10);
    if (end == words[2].c_str() || *end != '\0' || rate < 0) {
      return Status::InvalidArgument(
          "chaos throttle takes a byte rate >= 0 (0 clears)");
    }
    std::vector<ChaosTransport::Direction> dirs;
    if (!ParseDirections(words, 3, &dirs)) return usage;
    UpdateRules(chaos, words[1], dirs, [&](ChaosTransport::Rule* rule) {
      rule->throttle_bytes_per_sec = rate;
    });
    return std::string("throttle " + words[1] + " = " + words[2] + " B/s\n");
  }
  if (sub == "partition" && words.size() == 2) {
    UpdateRules(chaos, words[1],
                {ChaosTransport::Direction::kIn,
                 ChaosTransport::Direction::kOut},
                [](ChaosTransport::Rule* rule) { rule->partitioned = true; });
    return std::string("partitioned " + words[1] + "\n");
  }
  if (sub == "heal") {
    if (words.size() == 2) {
      chaos->ClearRules(words[1]);
      return std::string("healed " + words[1] + "\n");
    }
    if (words.size() == 1) {
      chaos->ClearRules();
      return std::string("cleared all chaos rules\n");
    }
    return usage;
  }
  if (sub == "reset" && (words.size() == 2 || words.size() == 3)) {
    if (words.size() == 3) {
      double p = 0.0;
      if (!ParseProbability(words[2], &p)) {
        return Status::InvalidArgument(
            "chaos reset takes a probability between 0 and 1");
      }
      UpdateRules(chaos, words[1],
                  {ChaosTransport::Direction::kIn,
                   ChaosTransport::Direction::kOut},
                  [&](ChaosTransport::Rule* rule) { rule->reset = p; });
      return std::string("reset " + words[1] + " = " + words[2] + "\n");
    }
    const Status status = chaos->ResetPeer(words[1]);
    if (!status.ok()) return status;
    return std::string("reset " + words[1] + "\n");
  }
  return usage;
}

}  // namespace

Result<std::string> ExecuteChaosCommand(Transport* transport,
                                        const std::string& args) {
  if (transport == nullptr) {
    return Status::InvalidArgument(
        "chaos requires a network transport (standalone container has none)");
  }
  if (ChaosTransport* chaos = transport->AsChaos(); chaos != nullptr) {
    return ExecuteDecoratorChaos(chaos, SplitWords(args));
  }
  return Status::InvalidArgument(
      "chaos requires a chaos transport (this container runs on '" +
      transport->transport_name() + "')");
}

}  // namespace gsn::network
