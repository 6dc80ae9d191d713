// Unit tests for the federation-resilience primitives: retry policy,
// circuit breaker, replay buffer, the sequenced receive state machine
// in RemoteStreamWrapper, faults on the simulated network (chaos rules
// over NetworkSimulator), and the typed WrapperConfig accessors they
// are configured through.

#include <gtest/gtest.h>

#include "gsn/network/chaos_transport.h"
#include "gsn/network/circuit_breaker.h"
#include "gsn/network/remote_stream_wrapper.h"
#include "gsn/network/replay_buffer.h"
#include "gsn/network/retry_policy.h"
#include "gsn/network/simulator.h"
#include "gsn/util/rng.h"
#include "gsn/wrappers/wrapper.h"
#include "remote_sink.h"

namespace gsn::network {
namespace {

// ------------------------------------------------------------ RetryPolicy

wrappers::WrapperConfig Config(wrappers::ParamMap params) {
  wrappers::WrapperConfig config;
  config.params = std::move(params);
  return config;
}

TEST(RetryPolicyTest, GrowsExponentiallyAndSaturates) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 1000;
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.BackoffForAttempt(1, nullptr), 100);
  EXPECT_EQ(policy.BackoffForAttempt(2, nullptr), 200);
  EXPECT_EQ(policy.BackoffForAttempt(3, nullptr), 400);
  EXPECT_EQ(policy.BackoffForAttempt(4, nullptr), 800);
  EXPECT_EQ(policy.BackoffForAttempt(5, nullptr), 1000);  // capped
  EXPECT_EQ(policy.BackoffForAttempt(50, nullptr), 1000);
}

TEST(RetryPolicyTest, JitterStaysWithinFraction) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 1000;
  policy.jitter = 0.2;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const Timestamp backoff = policy.BackoffForAttempt(1, &rng);
    EXPECT_GE(backoff, 800);
    EXPECT_LE(backoff, 1200);
  }
}

TEST(RetryPolicyTest, ExhaustedAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_FALSE(policy.Exhausted(2));
  EXPECT_TRUE(policy.Exhausted(3));
  EXPECT_TRUE(policy.Exhausted(4));
}

TEST(RetryPolicyTest, FromConfigOverridesDefaults) {
  auto policy = RetryPolicy::FromConfig(
      Config({{"retry-max-attempts", "5"},
              {"retry-initial-backoff", "250ms"},
              {"retry-max-backoff", "10s"},
              {"retry-multiplier", "3"},
              {"retry-jitter", "0"}}),
      RetryPolicy{});
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_EQ(policy->max_attempts, 5);
  EXPECT_EQ(policy->initial_backoff_micros, 250 * kMicrosPerMilli);
  EXPECT_EQ(policy->max_backoff_micros, 10 * kMicrosPerSecond);
  EXPECT_EQ(policy->multiplier, 3.0);
  EXPECT_EQ(policy->jitter, 0.0);
}

TEST(RetryPolicyTest, FromConfigKeepsDefaultsWhenAbsent) {
  RetryPolicy defaults;
  defaults.max_attempts = 42;
  auto policy = RetryPolicy::FromConfig(Config({}), defaults);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy->max_attempts, 42);
}

TEST(RetryPolicyTest, FromConfigErrorsNameTheKey) {
  auto bad = RetryPolicy::FromConfig(
      Config({{"retry-max-attempts", "zero"}}), RetryPolicy{});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("retry-max-attempts"),
            std::string::npos)
      << bad.status().ToString();

  EXPECT_FALSE(RetryPolicy::FromConfig(Config({{"retry-max-attempts", "0"}}),
                                       RetryPolicy{})
                   .ok());
  EXPECT_FALSE(RetryPolicy::FromConfig(Config({{"retry-jitter", "1.5"}}),
                                       RetryPolicy{})
                   .ok());
  EXPECT_FALSE(RetryPolicy::FromConfig(Config({{"retry-multiplier", "0.5"}}),
                                       RetryPolicy{})
                   .ok());
  // max < initial is inconsistent.
  EXPECT_FALSE(RetryPolicy::FromConfig(
                   Config({{"retry-initial-backoff", "10s"},
                           {"retry-max-backoff", "1s"}}),
                   RetryPolicy{})
                   .ok());
}

// --------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterThresholdFailures) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  config.open_duration_micros = 1000;
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.StateAt(0), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(breaker.RecordFailure(10));
  EXPECT_FALSE(breaker.RecordFailure(20));
  EXPECT_TRUE(breaker.AllowSend(20));
  EXPECT_TRUE(breaker.RecordFailure(30));  // third failure: open edge
  EXPECT_EQ(breaker.StateAt(30), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowSend(30));
  EXPECT_EQ(breaker.opened_total(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(1);
  breaker.RecordFailure(2);
  EXPECT_FALSE(breaker.RecordSuccess());  // already closed: no edge
  breaker.RecordFailure(3);
  breaker.RecordFailure(4);
  EXPECT_EQ(breaker.StateAt(4), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenIsDerivedFromElapsedTime) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration_micros = 1000;
  CircuitBreaker breaker(config);
  ASSERT_TRUE(breaker.RecordFailure(100));
  EXPECT_EQ(breaker.StateAt(500), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowSend(500));
  EXPECT_EQ(breaker.StateAt(1100), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowSend(1100));  // probe round may flow
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRearms) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration_micros = 1000;
  CircuitBreaker breaker(config);
  ASSERT_TRUE(breaker.RecordFailure(0));
  ASSERT_EQ(breaker.StateAt(1000), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.RecordFailure(1000));  // probe failed: re-open edge
  EXPECT_EQ(breaker.StateAt(1500), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.StateAt(2000), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.opened_total(), 2);
}

TEST(CircuitBreakerTest, SuccessClosesFromOpenAndHalfOpen) {
  CircuitBreaker::Config config;
  config.failure_threshold = 1;
  config.open_duration_micros = 1000;
  CircuitBreaker breaker(config);
  ASSERT_TRUE(breaker.RecordFailure(0));
  EXPECT_TRUE(breaker.RecordSuccess());  // recovery edge
  EXPECT_EQ(breaker.StateAt(0), CircuitBreaker::State::kClosed);

  ASSERT_TRUE(breaker.RecordFailure(10));
  ASSERT_EQ(breaker.StateAt(2000), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.RecordSuccess());
  EXPECT_EQ(breaker.StateAt(2000), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, StateNames) {
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kClosed),
               "closed");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kOpen),
               "open");
  EXPECT_STREQ(CircuitBreaker::StateName(CircuitBreaker::State::kHalfOpen),
               "half-open");
}

// ----------------------------------------------------------- ReplayBuffer

TEST(ReplayBufferTest, StoresAndServesBySequence) {
  ReplayBuffer buffer(1024);
  buffer.Put(1, "one");
  buffer.Put(2, "two");
  ASSERT_NE(buffer.Get(1), nullptr);
  EXPECT_EQ(*buffer.Get(1), "one");
  EXPECT_EQ(*buffer.Get(2), "two");
  EXPECT_EQ(buffer.Get(3), nullptr);
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.bytes(), 6u);
  EXPECT_EQ(buffer.oldest_seq(), 1u);
  EXPECT_EQ(buffer.newest_seq(), 2u);
}

TEST(ReplayBufferTest, EvictsOldestWhenOverBudget) {
  ReplayBuffer buffer(10);
  buffer.Put(1, "aaaa");  // 4 bytes
  buffer.Put(2, "bbbb");  // 8 bytes total
  buffer.Put(3, "cccc");  // 12 -> evict seq 1
  EXPECT_EQ(buffer.Get(1), nullptr);
  EXPECT_NE(buffer.Get(2), nullptr);
  EXPECT_NE(buffer.Get(3), nullptr);
  EXPECT_EQ(buffer.evicted_total(), 1);
  EXPECT_LE(buffer.bytes(), 10u);
}

TEST(ReplayBufferTest, NeverEvictsTheOnlyEntry) {
  ReplayBuffer buffer(4);
  buffer.Put(7, std::string(100, 'x'));  // far over budget, kept anyway
  ASSERT_NE(buffer.Get(7), nullptr);
  EXPECT_EQ(buffer.size(), 1u);
}

// ----------------------------------------------- RemoteStreamWrapper dedup

StreamElement Element(int64_t seq) {
  StreamElement e;
  e.timed = seq * 100;
  e.values = {Value::Int(seq)};
  return e;
}

Schema SeqSchema() {
  Schema schema;
  schema.AddField("seq", DataType::kInt);
  return schema;
}

TEST(RemoteStreamWrapperTest, AdmitsInOrder) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  gsn::testing::RemoteSink sink(&wrapper);
  EXPECT_EQ(wrapper.Push(Element(1), 1).admitted, 1);
  EXPECT_EQ(wrapper.Push(Element(2), 2).admitted, 1);
  auto polled = sink.Take();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->size(), 2u);
  EXPECT_EQ(wrapper.admitted_count(), 2);
  EXPECT_EQ(wrapper.expected_sequence(), 3u);
}

TEST(RemoteStreamWrapperTest, ParksOutOfOrderAndDrainsWhenGapFills) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  gsn::testing::RemoteSink sink(&wrapper);
  const auto parked = wrapper.Push(Element(3), 3);
  EXPECT_EQ(parked.admitted, 0);
  EXPECT_TRUE(parked.gap_opened);
  EXPECT_EQ(wrapper.Push(Element(2), 2).admitted, 0);  // still behind 1
  const auto filled = wrapper.Push(Element(1), 1);
  EXPECT_EQ(filled.admitted, 3);  // 1 plus both parked successors
  EXPECT_EQ(wrapper.expected_sequence(), 4u);
  EXPECT_EQ(wrapper.admitted_count(), 3);
}

TEST(RemoteStreamWrapperTest, DropsDuplicates) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  gsn::testing::RemoteSink sink(&wrapper);
  wrapper.Push(Element(1), 1);
  EXPECT_TRUE(wrapper.Push(Element(1), 1).duplicate);
  wrapper.Push(Element(3), 3);  // parked
  EXPECT_TRUE(wrapper.Push(Element(3), 3).duplicate);  // parked dup
  EXPECT_EQ(wrapper.duplicate_count(), 2);
  EXPECT_EQ(wrapper.admitted_count(), 1);
}

TEST(RemoteStreamWrapperTest, MissingRangesFromGapsAndTip) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  gsn::testing::RemoteSink sink(&wrapper);
  wrapper.Push(Element(1), 1);
  wrapper.Push(Element(4), 4);
  wrapper.Push(Element(7), 7);
  auto missing = wrapper.MissingRanges();
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], (SeqRange{2, 3}));
  EXPECT_EQ(missing[1], (SeqRange{5, 6}));

  // A tip announces that sequences up to 10 exist: the tail becomes a
  // gap too.
  wrapper.ObserveTip(10);
  missing = wrapper.MissingRanges();
  ASSERT_EQ(missing.size(), 3u);
  EXPECT_EQ(missing[2], (SeqRange{8, 10}));
  EXPECT_EQ(wrapper.max_seen_sequence(), 10u);

  // A stale tip never lowers the high-water mark.
  wrapper.ObserveTip(5);
  EXPECT_EQ(wrapper.max_seen_sequence(), 10u);
}

TEST(RemoteStreamWrapperTest, MissingRangesRespectsCap) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  gsn::testing::RemoteSink sink(&wrapper);
  for (uint64_t seq = 2; seq <= 20; seq += 2) {
    wrapper.Push(Element(static_cast<int64_t>(seq)), seq);
  }
  EXPECT_EQ(wrapper.MissingRanges(3).size(), 3u);
}

TEST(RemoteStreamWrapperTest, AbandonAdmitsParkedAndCountsAbsent) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  gsn::testing::RemoteSink sink(&wrapper);
  wrapper.Push(Element(1), 1);
  wrapper.Push(Element(3), 3);  // 2 missing
  wrapper.Push(Element(6), 6);  // 4, 5 missing
  // Give up through 5: seq 2, 4, 5 are lost; parked 3 is admitted, and
  // 6 drains behind it.
  EXPECT_EQ(wrapper.AbandonMissingThrough(5), 3);
  EXPECT_EQ(wrapper.abandoned_count(), 3);
  EXPECT_EQ(wrapper.expected_sequence(), 7u);
  auto polled = sink.Take();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->size(), 3u);  // 1, 3, 6
}

TEST(RemoteStreamWrapperTest, RebindResetsSequencingKeepsQueue) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer-a", "sensor");
  gsn::testing::RemoteSink sink(&wrapper);
  wrapper.Push(Element(1), 1);
  wrapper.Push(Element(2), 2);
  wrapper.Push(Element(5), 5);  // parked; lost on rebind
  wrapper.Rebind("peer-b", "sensor-b");
  EXPECT_EQ(wrapper.peer_node(), "peer-b");
  EXPECT_EQ(wrapper.remote_sensor(), "sensor-b");
  EXPECT_EQ(wrapper.expected_sequence(), 1u);
  EXPECT_EQ(wrapper.max_seen_sequence(), 0u);
  // The new producer's sequence space starts from 1 again.
  EXPECT_EQ(wrapper.Push(Element(100), 1).admitted, 1);
  auto polled = sink.Take();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->size(), 3u);  // 1, 2 from before plus the new 1
}

// ------------------------------------- faults on the simulated network

class RecordingNode : public NetworkNode {
 public:
  void OnMessage(const Message& message) override {
    messages.push_back(message);
  }
  std::vector<Message> messages;
};

/// Two nodes on one lossless simulator, each registered through its
/// own ChaosTransport (the Federation wiring): every fault is a rule
/// typed in the chaos grammar on one node, and ScheduleAt times rule
/// changes under virtual time.
class SimulatorFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(chaos_a_.RegisterNode("a", &a_).ok());
    ASSERT_TRUE(chaos_b_.RegisterNode("b", &b_).ok());
  }

  static void Chaos(ChaosTransport& node, const std::string& line) {
    const Result<std::string> result = ExecuteChaosCommand(&node, line);
    ASSERT_TRUE(result.ok()) << line << ": " << result.status().ToString();
  }
  /// `a` and `b` cut each other off, covering both directions and any
  /// frame already in flight.
  void Partition() {
    Chaos(chaos_a_, "partition b");
    Chaos(chaos_b_, "partition a");
  }
  void HealAll() {
    Chaos(chaos_a_, "heal");
    Chaos(chaos_b_, "heal");
  }

  NetworkSimulator sim_{1};
  RecordingNode a_;
  RecordingNode b_;
  ChaosTransport chaos_a_{&sim_};
  ChaosTransport chaos_b_{&sim_};
};

TEST_F(SimulatorFaultTest, PartitionDropsBothDirections) {
  Partition();
  ASSERT_TRUE(chaos_a_.Send(0, "a", "b", "t", "x").ok());
  ASSERT_TRUE(chaos_b_.Send(0, "b", "a", "t", "y").ok());
  sim_.DeliverUntil(kMicrosPerSecond);
  EXPECT_TRUE(a_.messages.empty());
  EXPECT_TRUE(b_.messages.empty());
  EXPECT_EQ(chaos_a_.counters().partitioned, 1);
  EXPECT_EQ(chaos_b_.counters().partitioned, 1);

  HealAll();
  ASSERT_TRUE(chaos_a_.Send(kMicrosPerSecond, "a", "b", "t", "x").ok());
  sim_.DeliverUntil(2 * kMicrosPerSecond);
  EXPECT_EQ(b_.messages.size(), 1u);
}

TEST_F(SimulatorFaultTest, DownNodeNeitherSendsNorReceives) {
  RecordingNode c;
  ChaosTransport chaos_c(&sim_);
  ASSERT_TRUE(chaos_c.RegisterNode("c", &c).ok());
  // "b" crashes: every other node partitions it, and it partitions
  // every peer. Its registration (and its owner's state) survives, so
  // healing models a process restart, not a departure.
  Chaos(chaos_a_, "partition b");
  Chaos(chaos_c, "partition b");
  Chaos(chaos_b_, "partition a");
  Chaos(chaos_b_, "partition c");
  ASSERT_TRUE(chaos_a_.Send(0, "a", "b", "t", "to-down").ok());
  ASSERT_TRUE(chaos_b_.Send(0, "b", "a", "t", "from-down").ok());
  ASSERT_TRUE(chaos_b_.Broadcast(0, "b", "t", "from-down").ok());
  ASSERT_TRUE(chaos_a_.Send(0, "a", "c", "t", "bystander").ok());
  sim_.DeliverUntil(kMicrosPerSecond);
  EXPECT_TRUE(a_.messages.empty());
  EXPECT_TRUE(b_.messages.empty());
  ASSERT_EQ(c.messages.size(), 1u);  // a <-> c is unaffected
  EXPECT_EQ(c.messages[0].payload, "bystander");

  // Restart: registration survived, traffic flows again.
  HealAll();
  Chaos(chaos_c, "heal");
  ASSERT_TRUE(chaos_a_.Send(kMicrosPerSecond, "a", "b", "t", "hello").ok());
  sim_.DeliverUntil(2 * kMicrosPerSecond);
  ASSERT_EQ(b_.messages.size(), 1u);
  EXPECT_EQ(b_.messages[0].payload, "hello");
  ASSERT_TRUE(chaos_c.UnregisterNode("c").ok());
}

TEST_F(SimulatorFaultTest, FaultsActAtDeliveryTimeToo) {
  // A message already in flight when the partition lands is lost, like
  // a cable pull: the receiver's inbound rule drops it on arrival.
  NetworkSimulator::LinkConfig slow;
  slow.base_latency_micros = 10 * kMicrosPerMilli;
  sim_.SetDefaultLink(slow);

  ASSERT_TRUE(chaos_a_.Send(0, "a", "b", "t", "in-flight").ok());
  sim_.ScheduleAt(5 * kMicrosPerMilli, [this] { Partition(); });
  sim_.DeliverUntil(kMicrosPerSecond);
  EXPECT_TRUE(b_.messages.empty());
  EXPECT_EQ(chaos_b_.counters().partitioned, 1);
  EXPECT_EQ(sim_.stats().dropped, 0);  // the simulator itself lost nothing
}

TEST_F(SimulatorFaultTest, ScheduledActionsInterleaveDeterministically) {
  NetworkSimulator::LinkConfig link;
  link.base_latency_micros = 10;
  sim_.SetDefaultLink(link);

  // The heal at 500us runs before the scripted send at 600us (actions
  // fire in time order inside DeliverUntil): the first message dies in
  // the partition, the second gets through.
  Partition();
  ASSERT_TRUE(chaos_a_.Send(100, "a", "b", "t", "first").ok());
  sim_.ScheduleAt(500, [this] { HealAll(); });
  sim_.ScheduleAt(600, [this] {
    ASSERT_TRUE(chaos_a_.Send(600, "a", "b", "t", "second").ok());
  });
  sim_.DeliverUntil(kMicrosPerSecond);
  ASSERT_EQ(b_.messages.size(), 1u);
  EXPECT_EQ(b_.messages[0].payload, "second");
}

TEST_F(SimulatorFaultTest, SetLossIsDirectional) {
  Chaos(chaos_b_, "loss a 1 in");  // a -> b only

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(chaos_a_.Send(i, "a", "b", "t", "gone").ok());
    ASSERT_TRUE(chaos_b_.Send(i, "b", "a", "t", "fine").ok());
  }
  sim_.DeliverUntil(kMicrosPerSecond);
  EXPECT_TRUE(b_.messages.empty());
  EXPECT_EQ(a_.messages.size(), 10u);

  Chaos(chaos_b_, "heal");
  ASSERT_TRUE(chaos_a_.Send(kMicrosPerSecond, "a", "b", "t", "back").ok());
  sim_.DeliverUntil(2 * kMicrosPerSecond);
  EXPECT_EQ(b_.messages.size(), 1u);
}

TEST_F(SimulatorFaultTest, HealLiftsPartitionsAndDownNodes) {
  Partition();
  Chaos(chaos_b_, "loss a 0.5 in");
  HealAll();
  EXPECT_TRUE(chaos_a_.Rules().empty());
  EXPECT_TRUE(chaos_b_.Rules().empty());
  ASSERT_TRUE(chaos_a_.Send(0, "a", "b", "t", "x").ok());
  sim_.DeliverUntil(kMicrosPerSecond);
  EXPECT_EQ(b_.messages.size(), 1u);
}

}  // namespace
}  // namespace gsn::network

// ------------------------------------------------- WrapperConfig accessors

namespace gsn::wrappers {
namespace {

TEST(WrapperConfigTest, GetBoolParsesAndFallsBack) {
  WrapperConfig config;
  config.params = {{"loop", "yes"}, {"bad", "maybe"}};
  auto loop = config.GetBool("loop", false);
  ASSERT_TRUE(loop.ok());
  EXPECT_TRUE(*loop);
  auto absent = config.GetBool("absent", true);
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(*absent);
  auto bad = config.GetBool("bad", false);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("'bad'"), std::string::npos)
      << bad.status().ToString();
}

TEST(WrapperConfigTest, GetDurationParsesUnitsAndNamesKeyOnError) {
  WrapperConfig config;
  config.params = {{"interval", "250ms"},
                   {"timeout", "2"},  // bare integer = seconds
                   {"broken", "fast"}};
  auto interval = config.GetDuration("interval", 0);
  ASSERT_TRUE(interval.ok());
  EXPECT_EQ(*interval, 250 * kMicrosPerMilli);
  auto timeout = config.GetDuration("timeout", 0);
  ASSERT_TRUE(timeout.ok());
  EXPECT_EQ(*timeout, 2 * kMicrosPerSecond);
  auto fallback = config.GetDuration("absent", 123);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, 123);
  auto broken = config.GetDuration("broken", 0);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kParseError);
  EXPECT_NE(broken.status().ToString().find("'broken'"), std::string::npos);
}

}  // namespace
}  // namespace gsn::wrappers
