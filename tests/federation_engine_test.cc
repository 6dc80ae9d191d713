// Protocol tests of the federation engine without a Container: engines
// register through ChaosTransports over one NetworkSimulator under a
// VirtualClock, and the tests drive RemoteStreamWrappers directly, each
// offering into a test sink (docs/FEDERATION.md).

#include "gsn/container/federation_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gsn/network/chaos_transport.h"
#include "gsn/network/simulator.h"
#include "gsn/vsensor/stream_source.h"
#include "remote_sink.h"

namespace gsn::container {
namespace {

using network::ChaosTransport;
using network::RemoteStreamWrapper;

const std::map<std::string, std::string> kCounter = {{"type", "counter"}};

Schema SeqSchema() {
  Schema schema;
  schema.AddField("seq", DataType::kInt);
  return schema;
}

std::vector<StreamElement> Reading(int64_t seq) {
  StreamElement element;
  element.timed = seq * kMicrosPerMilli;
  element.values = {Value::Int(seq)};
  return {element};
}

/// Engines on one virtual-time simulator, each behind its own chaos
/// decorator, sharing one registry (series carry the node label).
class EngineNet {
 public:
  explicit EngineNet(uint64_t seed) : sim_(seed), seed_(seed) {}

  /// Starts `id`'s engine; a second call is a restart: the old engine
  /// unregisters and a fresh one with empty state takes the node id.
  FederationEngine* Start(const std::string& id) {
    Node& node = nodes_[id];
    node.engine.reset();
    if (node.chaos == nullptr) {
      ChaosTransport::Options options;
      options.seed = ++seed_;
      node.chaos = std::make_unique<ChaosTransport>(&sim_, options);
    }
    node.engine = std::make_unique<FederationEngine>(
        id, clock_, ++seed_, node.chaos.get(), "test-key", &metrics_,
        &tracer_);
    return node.engine.get();
  }

  void Chaos(const std::string& id, const std::string& rule) {
    const Result<std::string> applied =
        network::ExecuteChaosCommand(nodes_.at(id).chaos.get(), rule);
    EXPECT_TRUE(applied.ok()) << rule << ": " << applied.status().ToString();
  }

  /// 100 ms of virtual time: due messages, every engine's round, then
  /// the messages that round sent.
  void Step() {
    clock_->Advance(100 * kMicrosPerMilli);
    const Timestamp now = clock_->NowMicros();
    sim_.Pump(now);
    for (auto& [id, node] : nodes_) node.engine->RunRound(now);
    sim_.Pump(now);
  }

  int64_t Counter(const std::string& name, const std::string& node) {
    return metrics_.GetCounter(name, {{"node", node}}, "")->Value();
  }

  int64_t Retries(const std::string& kind, const std::string& node) {
    const telemetry::Labels labels = {{"node", node}, {"kind", kind}};
    const std::string name = "gsn_federation_retries_total";
    return metrics_.GetCounter(name, labels, "")->Value();
  }

  /// Sends one raw protocol message as `from`, delivered on the next
  /// Step: a peer speaking out of turn, or a third node forging.
  void Send(const std::string& from, const std::string& to,
            const std::string& topic, std::string payload) {
    EXPECT_TRUE(nodes_.at(from)
                    .chaos->Send(clock_->NowMicros(), from, to, topic,
                                 std::move(payload))
                    .ok());
  }

 private:
  struct Node {
    std::unique_ptr<ChaosTransport> chaos;  // outlives the engine
    std::unique_ptr<FederationEngine> engine;
  };
  std::shared_ptr<VirtualClock> clock_ = std::make_shared<VirtualClock>();
  network::NetworkSimulator sim_;
  telemetry::MetricRegistry metrics_;
  telemetry::Tracer tracer_;
  uint64_t seed_;
  std::map<std::string, Node> nodes_;  // destroyed before the fabric
};

int64_t SubscribersOf(const FederationEngine& engine,
                      const std::string& sensor) {
  int64_t count = 0;
  for (const FederationEngine::Subscriber& subscriber : engine.Subscribers()) {
    if (subscriber.sensor_name == sensor) ++count;
  }
  return count;
}

/// Appends the seq of every element `sink` took since last time.
void Drain(gsn::testing::RemoteSink& sink, std::vector<int64_t>* seqs) {
  Result<std::vector<StreamElement>> polled = sink.Take();
  ASSERT_TRUE(polled.ok());
  for (const StreamElement& element : *polled) {
    seqs->push_back(element.values[0].int_value());
  }
}

// (a) With 20% loss both ways on the consumer's link, subscribe
// retries, tips and NACK replay still admit every delivered sequence
// exactly once and in order.
TEST(FederationEngineTest, ChaosLossIsRepairedExactlyOnceInOrder) {
  EngineNet net(7);
  FederationEngine* producer = net.Start("p");
  FederationEngine* consumer = net.Start("c");
  producer->Publish("s", kCounter, SeqSchema());
  net.Step();
  ASSERT_EQ(consumer->Discover(kCounter).size(), 1u);
  net.Chaos("c", "loss p 0.2 both");

  std::map<std::string, std::string> address = kCounter;
  address["retry-max-attempts"] = "64";
  auto subscribed = consumer->Subscribe("mirror", "src", address);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status().ToString();
  RemoteStreamWrapper& remote = **subscribed;
  gsn::testing::RemoteSink sink(&remote);
  for (int i = 0; i < 100 && SubscribersOf(*producer, "s") == 0; ++i) {
    net.Step();
  }
  ASSERT_EQ(SubscribersOf(*producer, "s"), 1);

  constexpr int64_t kRows = 200;
  std::vector<int64_t> admitted;
  for (int64_t seq = 1; seq <= kRows; ++seq) {
    producer->Deliver("s", Reading(seq));
    net.Step();
    Drain(sink, &admitted);
  }
  for (int i = 0; i < 600 && static_cast<int64_t>(admitted.size()) < kRows;
       ++i) {
    net.Step();
    Drain(sink, &admitted);
  }

  std::vector<int64_t> expected;
  for (int64_t seq = 1; seq <= kRows; ++seq) expected.push_back(seq);
  EXPECT_EQ(admitted, expected);
  EXPECT_EQ(remote.abandoned_count(), 0);
  EXPECT_GT(net.Counter("gsn_federation_gaps_total", "c"), 0);
  EXPECT_GT(net.Counter("gsn_federation_replays_total", "p"), 0);
}

// (b) Partitioning the bound producer opens its breaker and fails the
// subscription over to an equivalent producer; (d) forgetting the
// consumer's deployment then cancels the rebound subscription.
TEST(FederationEngineTest, PartitionFailsOverAndForgetCancelsTheNewId) {
  EngineNet net(11);
  FederationEngine* first = net.Start("p1");
  FederationEngine* second = net.Start("p2");
  FederationEngine* consumer = net.Start("c");
  first->Publish("s", kCounter, SeqSchema());
  second->Publish("s", kCounter, SeqSchema());
  net.Step();
  ASSERT_EQ(consumer->Discover(kCounter).size(), 2u);
  auto subscribed = consumer->Subscribe("mirror", "src", kCounter);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status().ToString();
  RemoteStreamWrapper& remote = **subscribed;
  gsn::testing::RemoteSink sink(&remote);
  ASSERT_EQ(remote.peer_node(), "p1");

  int64_t seq = 0;
  const auto produce = [&] {
    ++seq;
    first->Deliver("s", Reading(seq));
    second->Deliver("s", Reading(seq));
    net.Step();
  };
  for (int i = 0; i < 20; ++i) produce();
  const int64_t before = remote.admitted_count();
  ASSERT_GT(before, 0);

  net.Chaos("c", "partition p1");
  for (int i = 0; i < 200 && remote.peer_node() != "p2"; ++i) produce();
  ASSERT_EQ(remote.peer_node(), "p2");
  for (int i = 0; i < 20; ++i) produce();
  EXPECT_GT(remote.admitted_count(), before);
  EXPECT_EQ(net.Counter("gsn_federation_failovers_total", "c"), 1);

  ASSERT_EQ(SubscribersOf(*second, "s"), 1);
  consumer->Forget("mirror");
  net.Step();
  EXPECT_EQ(SubscribersOf(*second, "s"), 0);
}

// (c) A restarted producer (a fresh engine under the same node id, its
// sensor republished) answers heartbeats but no longer carries the
// subscription: the silence detector rebinds it under a new id and the
// stream resumes in a fresh sequence space; (d) Forget cancels that id.
TEST(FederationEngineTest, RestartedProducerGetsASilenceRebind) {
  EngineNet net(31);
  FederationEngine* producer = net.Start("p");
  FederationEngine* consumer = net.Start("c");
  producer->Publish("s", kCounter, SeqSchema());
  net.Step();
  auto subscribed = consumer->Subscribe("mirror", "src", kCounter);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status().ToString();
  RemoteStreamWrapper& remote = **subscribed;
  gsn::testing::RemoteSink sink(&remote);
  int64_t seq = 0;
  for (int i = 0; i < 20; ++i) {
    producer->Deliver("s", Reading(++seq));
    net.Step();
  }
  const int64_t before = remote.admitted_count();
  ASSERT_GT(before, 0);

  producer = net.Start("p");
  producer->Publish("s", kCounter, SeqSchema());
  for (int i = 0; i < 300 && remote.admitted_count() <= before + 5; ++i) {
    producer->Deliver("s", Reading(++seq));
    net.Step();
  }
  EXPECT_GT(remote.admitted_count(), before + 5);
  EXPECT_EQ(net.Counter("gsn_federation_resubscribes_total", "c"), 1);
  EXPECT_EQ(remote.duplicate_count(), 0);
  EXPECT_EQ(remote.abandoned_count(), 0);

  ASSERT_EQ(SubscribersOf(*producer, "s"), 1);
  consumer->Forget("mirror");
  net.Step();
  EXPECT_EQ(SubscribersOf(*producer, "s"), 0);
}

// A node speaks only for itself: subscribe, ack, tip, delivery, NACK
// and cancel messages that a third node forges about the p -> c
// subscription change nothing on either end.
TEST(FederationEngineTest, ForgedMessagesFromAThirdNodeChangeNothing) {
  EngineNet net(53);
  FederationEngine* producer = net.Start("p");
  FederationEngine* consumer = net.Start("c");
  net.Start("x");
  producer->Publish("s", kCounter, SeqSchema());
  net.Step();
  auto subscribed = consumer->Subscribe("mirror", "src", kCounter);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status().ToString();
  RemoteStreamWrapper& remote = **subscribed;
  gsn::testing::RemoteSink sink(&remote);
  for (int i = 0; i < 100 && SubscribersOf(*producer, "s") == 0; ++i) {
    net.Step();
  }
  ASSERT_EQ(SubscribersOf(*producer, "s"), 1);
  for (int64_t seq = 1; seq <= 3; ++seq) {
    producer->Deliver("s", Reading(seq));
    net.Step();
  }
  ASSERT_EQ(remote.admitted_count(), 3);
  const std::string id = "c#1";  // the consumer's first subscription

  auto forge = [&net](const char* to, const char* topic, std::string body) {
    net.Send("x", to, topic, std::move(body));
    net.Step();
    net.Step();
  };
  network::SubscribeRequest subscribe;  // names c, sent by x
  subscribe.subscription_id = "c#9";
  subscribe.sensor_name = "s";
  subscribe.subscriber_node = "c";
  forge("p", network::kTopicSubscribe, subscribe.Encode());
  EXPECT_EQ(SubscribersOf(*producer, "s"), 1);
  network::UnsubscribeRequest cancel;
  cancel.subscription_id = id;
  forge("p", network::kTopicUnsubscribe, cancel.Encode());
  EXPECT_EQ(SubscribersOf(*producer, "s"), 1);
  network::NackRequest nack;
  nack.subscription_id = id;
  nack.ranges = {{1, 3}};
  forge("p", network::kTopicStreamNack, nack.Encode());
  EXPECT_EQ(net.Counter("gsn_federation_replays_total", "p"), 0);
  network::StreamTip tip;
  tip.subscription_id = id;
  tip.last_sequence = uint64_t{1} << 28;
  forge("c", network::kTopicStreamTip, tip.Encode());
  EXPECT_EQ(remote.max_seen_sequence(), 3u);
  network::StreamDelivery delivery;  // signed with the shared key
  delivery.subscription_id = id;
  delivery.sensor_name = "s";
  delivery.element = Reading(99).front();
  delivery.signature = IntegrityService("test-key").Sign("s", delivery.element);
  delivery.sequence = 4;
  forge("c", network::kTopicStream, delivery.Encode());
  EXPECT_EQ(remote.received_count(), 3);

  // The real stream still flows, untouched.
  producer->Deliver("s", Reading(4));
  net.Step();
  std::vector<int64_t> admitted;
  Drain(sink, &admitted);
  EXPECT_EQ(admitted, (std::vector<int64_t>{1, 2, 3, 4}));

  // A forged ack must not stop the retries of a subscribe that never
  // reached its producer.
  net.Chaos("c", "partition p");
  auto unacked = consumer->Subscribe("mirror-2", "src", kCounter);
  ASSERT_TRUE(unacked.ok()) << unacked.status().ToString();
  network::SubscribeAck ack;
  ack.subscription_id = "c#2";
  net.Send("x", "c", network::kTopicSubAck, ack.Encode());
  net.Step();
  const int64_t retries = net.Retries("subscribe", "c");
  for (int i = 0; i < 10; ++i) net.Step();
  EXPECT_GT(net.Retries("subscribe", "c"), retries);
  consumer->Forget("mirror-2");
}

// Gap work is proportional to what is stored, not to the sequence
// numbers a peer names: a NACK for 2^30 sequences from the subscriber,
// and a tip from the producer that claims 2^30 (NACKed, then abandoned
// when nothing can be replayed), each keep every round fast.
TEST(FederationEngineTest, HugeNackAndTipFromTheRightfulPeerStayCheap) {
  EngineNet net(59);
  FederationEngine* producer = net.Start("p");
  FederationEngine* consumer = net.Start("c");
  producer->Publish("s", kCounter, SeqSchema());
  net.Step();
  std::map<std::string, std::string> address = kCounter;
  address["retry-max-attempts"] = "2";
  auto subscribed = consumer->Subscribe("mirror", "src", address);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status().ToString();
  RemoteStreamWrapper& remote = **subscribed;
  gsn::testing::RemoteSink sink(&remote);
  for (int i = 0; i < 100 && SubscribersOf(*producer, "s") == 0; ++i) {
    net.Step();
  }
  for (int64_t seq = 1; seq <= 3; ++seq) {
    producer->Deliver("s", Reading(seq));
    net.Step();
  }
  ASSERT_EQ(remote.admitted_count(), 3);
  const auto slowest_step_ms = [&net](int steps) {
    double slowest = 0;
    for (int i = 0; i < steps; ++i) {
      const auto start = std::chrono::steady_clock::now();
      net.Step();
      const std::chrono::duration<double, std::milli> took =
          std::chrono::steady_clock::now() - start;
      slowest = std::max(slowest, took.count());
    }
    return slowest;
  };
  constexpr uint64_t kHuge = uint64_t{1} << 30;

  network::NackRequest nack;
  nack.subscription_id = "c#1";
  nack.ranges = {{1, kHuge}};
  net.Send("c", "p", network::kTopicStreamNack, nack.Encode());
  EXPECT_LT(slowest_step_ms(2), 100.0);
  EXPECT_EQ(net.Counter("gsn_federation_replays_total", "p"), 3);
  EXPECT_EQ(remote.duplicate_count(), 3);

  network::StreamTip tip;
  tip.subscription_id = "c#1";
  tip.last_sequence = kHuge;
  net.Send("p", "c", network::kTopicStreamTip, tip.Encode());
  EXPECT_LT(slowest_step_ms(50), 100.0);
  EXPECT_EQ(remote.abandoned_count(), static_cast<int64_t>(kHuge - 3));
  EXPECT_EQ(remote.expected_sequence(), kHuge + 1);
  EXPECT_EQ(remote.admitted_count(), 3);
}

// A consumer paused past the silence timeout behind a 4-slot block
// queue (its source is not drained) refuses what does not fit. The
// refused sequences stay missing and NACK replay re-sends them as the
// resumed consumer drains, so every sequence is admitted exactly once
// and in order, without a silence rebind.
TEST(FederationAdmissionTest, PausedBlockSourceAdmitsEverySequenceOnceInOrder) {
  EngineNet net(43);
  FederationEngine* producer = net.Start("p");
  FederationEngine* consumer = net.Start("c");
  producer->Publish("s", kCounter, SeqSchema());
  net.Step();
  auto subscribed = consumer->Subscribe("mirror", "src", kCounter);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status().ToString();
  RemoteStreamWrapper* remote = subscribed->get();
  vsensor::StreamSourceSpec spec;
  spec.alias = "src";
  vsensor::StreamSource source(spec, *std::move(subscribed), 1);
  source.ConfigureAdmission("mirror", 4, vsensor::ShedPolicy::kBlock);
  constexpr auto kRefuse = vsensor::StreamSource::WhenBlocked::kRefuse;
  remote->AttachSink([&source](std::vector<StreamElement> run) {
    return source.Offer(std::move(run), kRefuse);
  });
  for (int i = 0; i < 100 && SubscribersOf(*producer, "s") == 0; ++i) {
    net.Step();
  }
  std::vector<int64_t> admitted;
  const auto drain = [&] {
    Result<std::vector<StreamElement>> polled = source.Poll(0);
    ASSERT_TRUE(polled.ok());
    for (const StreamElement& element : *polled) {
      admitted.push_back(element.values[0].int_value());
    }
  };

  constexpr int64_t kRows = 250;
  int64_t seq = 0;
  for (int i = 0; i < 150; ++i) {  // paused for 15 s: 150 deliveries, 4 slots
    producer->Deliver("s", Reading(++seq));
    net.Step();
  }
  EXPECT_EQ(source.queue_depth(), 4u);
  EXPECT_EQ(source.shed_count(), 0);
  while (seq < kRows) {
    producer->Deliver("s", Reading(++seq));
    net.Step();
    drain();
  }
  for (int i = 0; i < 600 && static_cast<int64_t>(admitted.size()) < kRows;
       ++i) {
    net.Step();
    drain();
  }

  std::vector<int64_t> expected;
  for (int64_t n = 1; n <= kRows; ++n) expected.push_back(n);
  EXPECT_EQ(admitted, expected);
  EXPECT_EQ(remote->abandoned_count(), 0);
  EXPECT_GT(net.Counter("gsn_federation_replays_total", "p"), 0);
  EXPECT_EQ(net.Counter("gsn_federation_resubscribes_total", "c"), 0);
}

// A delivery that reaches the wrapper before its source attached the
// sink is refused like a loss: gap repair NACKs it, the replay admits
// it, and exactly once.
TEST(FederationAdmissionTest, DeliveryBeforeTheSinkIsNackedAndAdmittedOnce) {
  EngineNet net(47);
  FederationEngine* producer = net.Start("p");
  FederationEngine* consumer = net.Start("c");
  producer->Publish("s", kCounter, SeqSchema());
  net.Step();
  auto subscribed = consumer->Subscribe("mirror", "src", kCounter);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status().ToString();
  RemoteStreamWrapper& remote = **subscribed;
  for (int i = 0; i < 100 && SubscribersOf(*producer, "s") == 0; ++i) {
    net.Step();
  }
  producer->Deliver("s", Reading(1));
  net.Step();
  EXPECT_EQ(remote.received_count(), 1);
  EXPECT_EQ(remote.admitted_count(), 0);
  ASSERT_EQ(remote.MissingRanges(), (std::vector<network::SeqRange>{{1, 1}}));

  gsn::testing::RemoteSink sink(&remote);
  std::vector<int64_t> admitted;
  for (int i = 0; i < 50 && admitted.empty(); ++i) {
    net.Step();
    Drain(sink, &admitted);
  }
  for (int i = 0; i < 20; ++i) {
    net.Step();
    Drain(sink, &admitted);
  }
  EXPECT_EQ(admitted, (std::vector<int64_t>{1}));
  EXPECT_EQ(remote.admitted_count(), 1);
  EXPECT_GT(net.Counter("gsn_federation_replays_total", "p"), 0);
}

// (e) Without a transport the engine is the local directory replica
// alone: publish and discover work, subscribe refuses, and delivery
// and maintenance rounds never take the engine's lock.
TEST(FederationEngineTest, StandaloneEngineKeepsADirectoryAndNoProtocol) {
  telemetry::MetricRegistry metrics;
  telemetry::Tracer tracer;
  FederationEngine engine("solo", std::make_shared<VirtualClock>(), 1,
                          nullptr, "test-key", &metrics, &tracer);
  engine.Publish("s", kCounter, SeqSchema());
  const std::vector<network::DirectoryEntry> hits = engine.Discover(kCounter);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].node_id, "solo");
  EXPECT_EQ(engine.Subscribe("mirror", "src", kCounter).status().code(),
            StatusCode::kInvalidArgument);

  const int64_t acquisitions = engine.lock().acquisitions();
  engine.Deliver("s", Reading(1));
  engine.RunRound(10 * kMicrosPerSecond);
  EXPECT_EQ(engine.lock().acquisitions(), acquisitions);
  EXPECT_EQ(SubscribersOf(engine, "s"), 0);

  engine.Forget("s");
  EXPECT_TRUE(engine.Discover(kCounter).empty());
}

}  // namespace
}  // namespace gsn::container
