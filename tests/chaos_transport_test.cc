// Tests for the ChaosTransport decorator (docs/CHAOS.md): the
// deterministic per-link fault schedule, each fault semantic (drop,
// dup, reorder, delay, throttle, partition, reset) on both directions,
// the shared chaos command grammar, and the decorator over a real
// EpollTransport link.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gsn/network/chaos_transport.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/clock.h"

namespace gsn::network {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

bool WaitUntil(const std::function<bool()>& predicate,
               milliseconds timeout = milliseconds(5000)) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return predicate();
}

/// Records what crosses the decorator: outbound sends, resets, and the
/// nodes the decorator registered (its inbound shims), so tests can
/// inject inbound deliveries the way a real inner transport would.
class FakeTransport : public Transport {
 public:
  struct Sent {
    std::string from, to, topic, payload;
  };

  Status RegisterNode(const std::string& node_id, NetworkNode* node) override {
    std::lock_guard<std::mutex> lock(mu_);
    nodes_[node_id] = node;
    return Status::OK();
  }
  Status UnregisterNode(const std::string& node_id) override {
    std::lock_guard<std::mutex> lock(mu_);
    nodes_.erase(node_id);
    return Status::OK();
  }
  Status Send(Timestamp, const std::string& from, const std::string& to,
              const std::string& topic, std::string payload) override {
    std::lock_guard<std::mutex> lock(mu_);
    sent_.push_back({from, to, topic, std::move(payload)});
    cv_.notify_all();
    return Status::OK();
  }
  Status Broadcast(Timestamp, const std::string&, const std::string&,
                   const std::string&) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++broadcasts_;
    return Status::OK();
  }
  std::string transport_name() const override { return "fake"; }
  Status ResetPeer(const std::string& peer) override {
    std::lock_guard<std::mutex> lock(mu_);
    resets_.push_back(peer);
    return Status::OK();
  }

  std::vector<Sent> SentMessages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sent_;
  }
  bool WaitForSent(size_t n, milliseconds timeout = milliseconds(5000)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this, n] { return sent_.size() >= n; });
  }
  std::vector<std::string> Resets() const {
    std::lock_guard<std::mutex> lock(mu_);
    return resets_;
  }
  int broadcasts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return broadcasts_;
  }
  /// Delivers into whatever the decorator registered under `node_id`
  /// (the shim), exactly as the inner transport's loop would.
  void Inject(const std::string& node_id, const Message& message) {
    NetworkNode* node = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = nodes_.find(node_id);
      ASSERT_NE(it, nodes_.end());
      node = it->second;
    }
    node->OnMessage(message);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, NetworkNode*> nodes_;
  std::vector<Sent> sent_;
  std::vector<std::string> resets_;
  int broadcasts_ = 0;
};

class RecordingNode : public NetworkNode {
 public:
  void OnMessage(const Message& message) override {
    std::lock_guard<std::mutex> lock(mu_);
    messages_.push_back(message);
    cv_.notify_all();
  }
  std::vector<Message> Messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }
  bool WaitForCount(size_t n, milliseconds timeout = milliseconds(5000)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout,
                        [this, n] { return messages_.size() >= n; });
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Message> messages_;
};

/// Sleeps inside OnMessage, recording entry and exit, so a test can
/// act while a delivery is in flight.
class BlockingNode : public NetworkNode {
 public:
  void OnMessage(const Message&) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entered_ = true;
    }
    cv_.notify_all();
    std::this_thread::sleep_for(milliseconds(50));
    exited_.store(true);
  }
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, milliseconds(5000), [this] { return entered_; });
  }
  bool exited() const { return exited_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  std::atomic<bool> exited_{false};
};

Message Msg(const std::string& from, const std::string& to,
            const std::string& payload) {
  Message m;
  m.from = from;
  m.to = to;
  m.topic = "t";
  m.payload = payload;
  return m;
}

// --------------------------------------------------------- determinism

TEST(ChaosScheduleTest, SameSeedAndRulesGiveIdenticalDecisions) {
  FakeTransport inner_a;
  FakeTransport inner_b;
  ChaosTransport::Options options;
  options.seed = 42;
  ChaosTransport a(&inner_a, options);
  ChaosTransport b(&inner_b, options);

  ChaosTransport::Rule rule;
  rule.drop = 0.3;
  rule.dup = 0.2;
  rule.reorder = 0.1;
  rule.delay_micros = 5 * kMicrosPerMilli;
  rule.delay_jitter_micros = 5 * kMicrosPerMilli;
  a.SetRule("peer", ChaosTransport::Direction::kOut, rule);
  b.SetRule("peer", ChaosTransport::Direction::kOut, rule);

  bool any_fault = false;
  for (uint64_t i = 0; i < 256; ++i) {
    const ChaosTransport::Decision da =
        a.DecisionFor("peer", ChaosTransport::Direction::kOut, i);
    const ChaosTransport::Decision db =
        b.DecisionFor("peer", ChaosTransport::Direction::kOut, i);
    EXPECT_EQ(da.drop, db.drop) << "frame " << i;
    EXPECT_EQ(da.dup, db.dup) << "frame " << i;
    EXPECT_EQ(da.reorder, db.reorder) << "frame " << i;
    EXPECT_EQ(da.delay_micros, db.delay_micros) << "frame " << i;
    any_fault = any_fault || da.drop || da.dup || da.reorder;
  }
  EXPECT_TRUE(any_fault) << "0.3/0.2/0.1 rates over 256 frames hit nothing";
  EXPECT_EQ(a.ScheduleDigest(), b.ScheduleDigest());

  // A different seed is a different schedule.
  b.Reseed(43);
  EXPECT_NE(a.ScheduleDigest(), b.ScheduleDigest());
}

TEST(ChaosScheduleTest, DecisionsIgnoreFrameArrivalInterleaving) {
  // The decision for frame i is a pure function of (seed, link, i):
  // consulting frames out of order or repeatedly changes nothing.
  FakeTransport inner;
  ChaosTransport::Options options;
  options.seed = 7;
  ChaosTransport chaos(&inner, options);
  ChaosTransport::Rule rule;
  rule.drop = 0.5;
  chaos.SetRule("peer", ChaosTransport::Direction::kIn, rule);

  std::vector<bool> forward;
  for (uint64_t i = 0; i < 64; ++i) {
    forward.push_back(
        chaos.DecisionFor("peer", ChaosTransport::Direction::kIn, i).drop);
  }
  for (uint64_t i = 64; i-- > 0;) {
    EXPECT_EQ(
        chaos.DecisionFor("peer", ChaosTransport::Direction::kIn, i).drop,
        forward[i]);
  }
}

TEST(ChaosScheduleTest, ReseedRestartsTheScheduleAndKeepsRules) {
  FakeTransport inner;
  ChaosTransport::Options options;
  options.seed = 1;
  ChaosTransport chaos(&inner, options);
  ChaosTransport::Rule rule;
  rule.drop = 1.0;
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, rule);
  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "x").ok());
  ASSERT_EQ(chaos.Rules().size(), 1u);
  EXPECT_EQ(chaos.Rules()[0].frames, 1u);

  chaos.Reseed(99);
  EXPECT_EQ(chaos.seed(), 99u);
  ASSERT_EQ(chaos.Rules().size(), 1u);
  EXPECT_EQ(chaos.Rules()[0].frames, 0u);  // schedule restarted
  EXPECT_EQ(chaos.Rules()[0].rule.drop, 1.0);  // rules kept
}

// ------------------------------------------------------ fault semantics

TEST(ChaosTransportTest, DropConsumesTheFrameButReportsOk) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  ChaosTransport::Rule rule;
  rule.drop = 1.0;
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, rule);

  // Like real packet loss the sender cannot tell: Send reports OK.
  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "gone").ok());
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_TRUE(inner.SentMessages().empty());
  EXPECT_EQ(chaos.counters().dropped, 1);

  // Other peers are untouched.
  ASSERT_TRUE(chaos.Send(0, "me", "other", "t", "kept").ok());
  ASSERT_TRUE(inner.WaitForSent(1));
  EXPECT_EQ(inner.SentMessages()[0].to, "other");
}

TEST(ChaosTransportTest, PartitionBlocksBothDirectionsUntilHealed) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  RecordingNode node;
  ASSERT_TRUE(chaos.RegisterNode("me", &node).ok());
  ChaosTransport::Rule cut;
  cut.partitioned = true;
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, cut);
  chaos.SetRule("peer", ChaosTransport::Direction::kIn, cut);

  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "out").ok());
  inner.Inject("me", Msg("peer", "me", "in"));
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_TRUE(inner.SentMessages().empty());
  EXPECT_TRUE(node.Messages().empty());
  EXPECT_EQ(chaos.counters().partitioned, 2);

  chaos.ClearRules("peer");
  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "out2").ok());
  inner.Inject("me", Msg("peer", "me", "in2"));
  ASSERT_TRUE(inner.WaitForSent(1));
  ASSERT_TRUE(node.WaitForCount(1));
  EXPECT_EQ(node.Messages()[0].payload, "in2");
  ASSERT_TRUE(chaos.UnregisterNode("me").ok());
}

TEST(ChaosTransportTest, DuplicationDeliversTheFrameTwice) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  ChaosTransport::Rule rule;
  rule.dup = 1.0;
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, rule);
  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "twin").ok());
  ASSERT_TRUE(inner.WaitForSent(2));
  EXPECT_EQ(inner.SentMessages()[0].payload, "twin");
  EXPECT_EQ(inner.SentMessages()[1].payload, "twin");
  EXPECT_EQ(chaos.counters().duplicated, 1);
}

TEST(ChaosTransportTest, DelayHoldsTheFrameThenDelivers) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  ChaosTransport::Rule rule;
  rule.delay_micros = 30 * kMicrosPerMilli;
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, rule);
  const auto before = steady_clock::now();
  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "late").ok());
  ASSERT_TRUE(inner.WaitForSent(1));
  EXPECT_GE(steady_clock::now() - before, milliseconds(25));
  EXPECT_EQ(chaos.counters().delayed, 1);
}

TEST(ChaosTransportTest, ReorderLetsALaterFrameOvertake) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  ChaosTransport::Rule rule;
  rule.reorder = 1.0;
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, rule);
  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "first").ok());
  chaos.ClearRules("peer");  // second frame flows straight through
  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "second").ok());
  ASSERT_TRUE(inner.WaitForSent(2));
  EXPECT_EQ(inner.SentMessages()[0].payload, "second");
  EXPECT_EQ(inner.SentMessages()[1].payload, "first");
  EXPECT_EQ(chaos.counters().reordered, 1);
}

TEST(ChaosTransportTest, ResetDropsTheFrameAndResetsTheInnerLink) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  ChaosTransport::Rule rule;
  rule.reset = 1.0;
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, rule);
  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "cut").ok());
  ASSERT_EQ(inner.Resets().size(), 1u);
  EXPECT_EQ(inner.Resets()[0], "peer");
  EXPECT_TRUE(inner.SentMessages().empty());
  EXPECT_EQ(chaos.counters().resets, 1);
}

TEST(ChaosTransportTest, ThrottleSlowsButDeliversEverything) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  ChaosTransport::Rule rule;
  rule.throttle_bytes_per_sec = 4000;  // ~25ms per 100-byte frame
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, rule);
  const std::string payload(100, 'x');
  const auto before = steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", payload).ok());
  }
  ASSERT_TRUE(inner.WaitForSent(4));
  EXPECT_GE(steady_clock::now() - before, milliseconds(50));
  EXPECT_GE(chaos.counters().throttled, 1);
}

TEST(ChaosTransportTest, InboundRulesGateDeliveriesToTheNode) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  RecordingNode node;
  ASSERT_TRUE(chaos.RegisterNode("me", &node).ok());
  ChaosTransport::Rule rule;
  rule.drop = 1.0;
  chaos.SetRule("remote", ChaosTransport::Direction::kIn, rule);

  inner.Inject("me", Msg("remote", "me", "lost"));
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_TRUE(node.Messages().empty());
  EXPECT_EQ(chaos.counters().dropped, 1);

  // Outbound direction of the same peer is untouched.
  ASSERT_TRUE(chaos.Send(0, "me", "remote", "t", "ok").ok());
  ASSERT_TRUE(inner.WaitForSent(1));

  chaos.ClearRules();
  inner.Inject("me", Msg("remote", "me", "arrives"));
  ASSERT_TRUE(node.WaitForCount(1));
  ASSERT_TRUE(chaos.UnregisterNode("me").ok());
}

TEST(ChaosTransportTest, UnregisterWaitsForAHeldDelivery) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  BlockingNode node;
  ASSERT_TRUE(chaos.RegisterNode("me", &node).ok());
  ChaosTransport::Rule rule;
  rule.delay_micros = 5 * kMicrosPerMilli;
  chaos.SetRule("remote", ChaosTransport::Direction::kIn, rule);

  // The held frame is delivered later, on the scheduler thread. Once
  // UnregisterNode returns the node may be destroyed, so that delivery
  // must have finished.
  inner.Inject("me", Msg("remote", "me", "held"));
  ASSERT_TRUE(node.WaitEntered());
  ASSERT_TRUE(chaos.UnregisterNode("me").ok());
  EXPECT_TRUE(node.exited());
}

TEST(ChaosTransportTest, BroadcastsAndForeignPeersPassThrough) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);
  ChaosTransport::Rule rule;
  rule.drop = 1.0;
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, rule);
  ASSERT_TRUE(chaos.Broadcast(0, "me", "t", "news").ok());
  EXPECT_EQ(inner.broadcasts(), 1);
  EXPECT_EQ(chaos.counters().dropped, 0);
  EXPECT_EQ(chaos.transport_name(), "chaos+fake");
  EXPECT_EQ(chaos.AsChaos(), &chaos);
}

TEST(ChaosTransportTest, InjectedFaultsRegisterInMetrics) {
  telemetry::MetricRegistry registry;
  FakeTransport inner;
  ChaosTransport::Options options;
  options.metrics = &registry;
  ChaosTransport chaos(&inner, options);
  ChaosTransport::Rule rule;
  rule.drop = 1.0;
  chaos.SetRule("peer", ChaosTransport::Direction::kOut, rule);
  ASSERT_TRUE(chaos.Send(0, "me", "peer", "t", "x").ok());
  const std::string exposition = registry.RenderPrometheus();
  EXPECT_NE(exposition.find("gsn_chaos_injected_total{fault=\"drop\"} 1"),
            std::string::npos)
      << exposition;
}

int ThreadCount() {
  return static_cast<int>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

TEST(ChaosTransportTest, OnlyAHeldFrameStartsTheSchedulerThread) {
  // A decorator sits on every simulated node, so one whose rules never
  // hold a frame (drop, partition) must cost no thread.
  FakeTransport inner;
  // Sanitizer runtimes start a helper thread with the process's first
  // thread; start and join one first so the counts see only decorators.
  std::thread([] {}).join();
  const int before = ThreadCount();
  std::vector<std::unique_ptr<ChaosTransport>> decorators;
  ChaosTransport::Rule drop;
  drop.drop = 1.0;
  ChaosTransport::Rule cut;
  cut.partitioned = true;
  for (int i = 0; i < 32; ++i) {
    decorators.push_back(std::make_unique<ChaosTransport>(&inner));
    decorators.back()->SetRule("lossy", ChaosTransport::Direction::kOut, drop);
    decorators.back()->SetRule("cut", ChaosTransport::Direction::kOut, cut);
    ASSERT_TRUE(decorators.back()->Send(0, "me", "lossy", "t", "x").ok());
    ASSERT_TRUE(decorators.back()->Send(0, "me", "cut", "t", "x").ok());
    ASSERT_TRUE(decorators.back()->Send(0, "me", "clear", "t", "x").ok());
  }
  EXPECT_EQ(inner.SentMessages().size(), 32u);  // only the rule-free peer
  EXPECT_EQ(ThreadCount(), before);

  ChaosTransport::Rule delay;
  delay.delay_micros = kMicrosPerMilli;
  decorators[0]->SetRule("slow", ChaosTransport::Direction::kOut, delay);
  ASSERT_TRUE(decorators[0]->Send(0, "me", "slow", "t", "x").ok());
  ASSERT_TRUE(decorators[0]->Send(0, "me", "slow", "t", "y").ok());
  ASSERT_TRUE(inner.WaitForSent(34));
  EXPECT_EQ(ThreadCount(), before + 1);
}

// ------------------------------------------------- shared chaos grammar

TEST(ChaosCommandTest, DecoratorGrammarDrivesRules) {
  FakeTransport inner;
  ChaosTransport chaos(&inner);

  Result<std::string> r = ExecuteChaosCommand(&chaos, "loss peer-b 0.25 out");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "loss peer-b = 0.25\n");
  EXPECT_EQ(chaos.GetRule("peer-b", ChaosTransport::Direction::kOut).drop,
            0.25);
  EXPECT_EQ(chaos.GetRule("peer-b", ChaosTransport::Direction::kIn).drop, 0.0);

  // Default direction is both.
  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "dup peer-b 0.5").ok());
  EXPECT_EQ(chaos.GetRule("peer-b", ChaosTransport::Direction::kIn).dup, 0.5);
  EXPECT_EQ(chaos.GetRule("peer-b", ChaosTransport::Direction::kOut).dup, 0.5);

  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "delay peer-b 15 5 in").ok());
  EXPECT_EQ(chaos.GetRule("peer-b", ChaosTransport::Direction::kIn)
                .delay_micros,
            15 * kMicrosPerMilli);
  EXPECT_EQ(chaos.GetRule("peer-b", ChaosTransport::Direction::kIn)
                .delay_jitter_micros,
            5 * kMicrosPerMilli);

  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "throttle peer-b 1024 out").ok());
  EXPECT_EQ(chaos.GetRule("peer-b", ChaosTransport::Direction::kOut)
                .throttle_bytes_per_sec,
            1024);

  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "partition peer-c").ok());
  EXPECT_TRUE(
      chaos.GetRule("peer-c", ChaosTransport::Direction::kOut).partitioned);

  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "reset peer-b 0.1").ok());
  EXPECT_EQ(chaos.GetRule("peer-b", ChaosTransport::Direction::kOut).reset,
            0.1);

  // Immediate reset (no probability) tears the inner link down now.
  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "reset peer-b").ok());
  ASSERT_EQ(inner.Resets().size(), 1u);
  EXPECT_EQ(inner.Resets()[0], "peer-b");

  r = ExecuteChaosCommand(&chaos, "seed 77");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(chaos.seed(), 77u);

  // The grammar only writes; the read is GET /api/v1/chaos (the console's
  // `chaos status`), so the rules are checked on the decorator itself.
  r = ExecuteChaosCommand(&chaos, "status");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("usage:"), std::string::npos);
  bool peer_b_has_rules = false;
  for (const ChaosTransport::RuleEntry& entry : chaos.Rules()) {
    peer_b_has_rules |= entry.peer == "peer-b";
  }
  EXPECT_TRUE(peer_b_has_rules);

  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "heal peer-b").ok());
  EXPECT_TRUE(
      chaos.GetRule("peer-b", ChaosTransport::Direction::kOut).IsDefault());
  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "heal").ok());
  EXPECT_TRUE(chaos.Rules().empty());

  r = ExecuteChaosCommand(&chaos, "loss peer-b 7");
  EXPECT_FALSE(r.ok());
  r = ExecuteChaosCommand(&chaos, "bogus");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("usage:"), std::string::npos);
}

TEST(ChaosCommandTest, UnsupportedTransportsExplainThemselves) {
  Result<std::string> r = ExecuteChaosCommand(nullptr, "heal");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("standalone"), std::string::npos);

  FakeTransport plain;
  r = ExecuteChaosCommand(&plain, "heal");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("'fake'"), std::string::npos);
}

TEST(ChaosCommandTest, RejectsNonFiniteHoldsAndSignedSeeds) {
  // POST /api/v1/chaos hands this grammar outside input: a delay or
  // jitter that is not a finite count of milliseconds fitting in a
  // Timestamp, or a signed seed, must be refused and store nothing.
  FakeTransport inner;
  ChaosTransport::Options options;
  options.seed = 5;
  ChaosTransport chaos(&inner, options);
  const auto rejected = [&chaos](const std::string& line) {
    const Result<std::string> r = ExecuteChaosCommand(&chaos, line);
    return !r.ok() && r.status().code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejected("delay peer nan"));
  EXPECT_TRUE(rejected("delay peer inf"));
  EXPECT_TRUE(rejected("delay peer -inf"));
  EXPECT_TRUE(rejected("delay peer 1e300"));
  EXPECT_TRUE(rejected("delay peer 5 inf"));
  EXPECT_TRUE(rejected("delay peer 5 nan"));
  EXPECT_TRUE(rejected("delay peer 5 1e300"));
  EXPECT_TRUE(rejected("delay peer 5 -1"));
  EXPECT_TRUE(rejected("seed -1"));
  EXPECT_TRUE(rejected("seed +7"));
  EXPECT_TRUE(rejected("seed 99999999999999999999999"));
  EXPECT_TRUE(chaos.Rules().empty());
  EXPECT_EQ(chaos.seed(), 5u);

  // Large but representable holds and seeds still parse.
  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "delay peer 1e9 0.5 out").ok());
  const ChaosTransport::Rule held =
      chaos.GetRule("peer", ChaosTransport::Direction::kOut);
  EXPECT_EQ(held.delay_micros, 1000000000 * kMicrosPerMilli);
  EXPECT_EQ(held.delay_jitter_micros, 500);
  ASSERT_TRUE(ExecuteChaosCommand(&chaos, "seed 18446744073709551615").ok());
  EXPECT_EQ(chaos.seed(), 18446744073709551615u);
}

// ----------------------------------------- decorator over real sockets

TEST(ChaosOverEpollTest, LossAndHealGateARealTcpLink) {
  EpollTransport inner_a;
  EpollTransport inner_b;
  ASSERT_TRUE(inner_a.Start().ok());
  ASSERT_TRUE(inner_b.Start().ok());
  ASSERT_TRUE(inner_a.ListenPeer(0).ok());
  inner_b.AddPeer("node-a", "127.0.0.1", inner_a.peer_port());

  // Only the sender is wrapped; the receiver runs a bare transport —
  // chaos at either end is enough to break a link.
  ChaosTransport chaos(&inner_b);
  RecordingNode node_a;
  RecordingNode node_b;
  ASSERT_TRUE(inner_a.RegisterNode("node-a", &node_a).ok());
  ASSERT_TRUE(chaos.RegisterNode("node-b", &node_b).ok());

  ChaosTransport::Rule rule;
  rule.drop = 1.0;
  chaos.SetRule("node-a", ChaosTransport::Direction::kOut, rule);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(chaos.Send(0, "node-b", "node-a", "t", "lost").ok());
  }
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_TRUE(node_a.Messages().empty());
  EXPECT_EQ(chaos.counters().dropped, 5);

  chaos.ClearRules();
  ASSERT_TRUE(chaos.Send(0, "node-b", "node-a", "t", "through").ok());
  ASSERT_TRUE(node_a.WaitForCount(1));
  EXPECT_EQ(node_a.Messages()[0].payload, "through");

  // Replies route back through the decorator's inbound shim.
  ASSERT_TRUE(inner_a.Send(0, "node-a", "node-b", "t", "reply").ok());
  ASSERT_TRUE(node_b.WaitForCount(1));
  EXPECT_EQ(node_b.Messages()[0].payload, "reply");

  // A forced reset through the decorator tears the TCP connection down.
  ASSERT_TRUE(chaos.ResetPeer("node-a").ok());
  EXPECT_TRUE(WaitUntil([&] { return inner_b.resets_total() >= 1; }));

  // The link comes back on the next send (lazy redial).
  EXPECT_TRUE(WaitUntil([&] {
    return chaos.Send(0, "node-b", "node-a", "t", "again").ok() &&
           node_a.Messages().size() >= 2;
  }));

  ASSERT_TRUE(chaos.UnregisterNode("node-b").ok());
  inner_a.Stop();
  inner_b.Stop();
}

}  // namespace
}  // namespace gsn::network
