// Protocol tests of the federation engine without a Container: engines
// register through ChaosTransports over one NetworkSimulator under a
// VirtualClock, and the tests drive RemoteStreamWrappers directly
// (docs/FEDERATION.md).

#include "gsn/container/federation_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gsn/network/chaos_transport.h"
#include "gsn/network/simulator.h"

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

/// Appends the seq of every element `remote` admitted since last time.
void Drain(RemoteStreamWrapper& remote, std::vector<int64_t>* seqs) {
  Result<std::vector<StreamElement>> polled = remote.Poll(0);
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
  for (int i = 0; i < 100 && SubscribersOf(*producer, "s") == 0; ++i) {
    net.Step();
  }
  ASSERT_EQ(SubscribersOf(*producer, "s"), 1);

  constexpr int64_t kRows = 200;
  std::vector<int64_t> admitted;
  for (int64_t seq = 1; seq <= kRows; ++seq) {
    producer->Deliver("s", Reading(seq));
    net.Step();
    Drain(remote, &admitted);
  }
  for (int i = 0; i < 600 && static_cast<int64_t>(admitted.size()) < kRows;
       ++i) {
    net.Step();
    Drain(remote, &admitted);
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
