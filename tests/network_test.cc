#include <gtest/gtest.h>

#include "gsn/network/chaos_transport.h"
#include "gsn/network/directory.h"
#include "gsn/network/protocol.h"
#include "gsn/network/remote_stream_wrapper.h"
#include "gsn/network/simulator.h"
#include "remote_sink.h"

namespace gsn::network {
namespace {

/// Records delivered messages.
class RecordingNode : public NetworkNode {
 public:
  void OnMessage(const Message& message) override {
    messages.push_back(message);
  }
  std::vector<Message> messages;
};

// ---------------------------------------------------------------- Simulator

TEST(NetworkSimulatorTest, DeliversAfterLatency) {
  NetworkSimulator net;
  RecordingNode a, b;
  ASSERT_TRUE(net.RegisterNode("a", &a).ok());
  ASSERT_TRUE(net.RegisterNode("b", &b).ok());
  NetworkSimulator::LinkConfig link;
  link.base_latency_micros = 5 * kMicrosPerMilli;
  net.SetDefaultLink(link);

  ASSERT_TRUE(net.Send(0, "a", "b", "test", "hello").ok());
  EXPECT_EQ(net.DeliverUntil(4 * kMicrosPerMilli), 0);
  EXPECT_EQ(net.DeliverUntil(5 * kMicrosPerMilli), 1);
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].payload, "hello");
  EXPECT_EQ(b.messages[0].from, "a");
  EXPECT_EQ(b.messages[0].topic, "test");
}

TEST(NetworkSimulatorTest, UnknownDestinationIsError) {
  NetworkSimulator net;
  RecordingNode a;
  ASSERT_TRUE(net.RegisterNode("a", &a).ok());
  EXPECT_EQ(net.Send(0, "a", "ghost", "t", "x").code(),
            StatusCode::kNotFound);
}

TEST(NetworkSimulatorTest, DuplicateRegistrationRejected) {
  NetworkSimulator net;
  RecordingNode a;
  ASSERT_TRUE(net.RegisterNode("a", &a).ok());
  EXPECT_EQ(net.RegisterNode("a", &a).code(), StatusCode::kAlreadyExists);
}

TEST(NetworkSimulatorTest, DeterministicOrderingAtSameInstant) {
  NetworkSimulator net;
  RecordingNode a, b;
  ASSERT_TRUE(net.RegisterNode("a", &a).ok());
  ASSERT_TRUE(net.RegisterNode("b", &b).ok());
  NetworkSimulator::LinkConfig link;
  link.base_latency_micros = 1;
  net.SetDefaultLink(link);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(net.Send(0, "a", "b", "t", std::to_string(i)).ok());
  }
  net.DeliverUntil(10);
  ASSERT_EQ(b.messages.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(b.messages[static_cast<size_t>(i)].payload, std::to_string(i));
  }
}

TEST(NetworkSimulatorTest, LossDropsSilently) {
  // The simulator is lossless; loss is a rule on the receiving node's
  // chaos decorator.
  NetworkSimulator net(42);
  ChaosTransport::Options options;
  options.seed = 42;
  ChaosTransport chaos_b(&net, options);
  RecordingNode a, b;
  ASSERT_TRUE(net.RegisterNode("a", &a).ok());
  ASSERT_TRUE(chaos_b.RegisterNode("b", &b).ok());
  NetworkSimulator::LinkConfig link;
  link.base_latency_micros = 1;
  net.SetDefaultLink(link);
  ASSERT_TRUE(ExecuteChaosCommand(&chaos_b, "loss a 0.5 in").ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(net.Send(0, "a", "b", "t", "x").ok());
  }
  net.DeliverUntil(kMicrosPerSecond);
  const auto stats = net.stats();
  const int64_t lost = chaos_b.counters().dropped;
  EXPECT_EQ(stats.sent, 1000);
  EXPECT_EQ(stats.dropped, 0);
  EXPECT_NEAR(static_cast<double>(lost), 500.0, 60.0);
  EXPECT_EQ(b.messages.size(), static_cast<size_t>(stats.sent - lost));
}

TEST(NetworkSimulatorTest, JitterStaysWithinBound) {
  NetworkSimulator net(7);
  RecordingNode a, b;
  ASSERT_TRUE(net.RegisterNode("a", &a).ok());
  ASSERT_TRUE(net.RegisterNode("b", &b).ok());
  NetworkSimulator::LinkConfig link;
  link.base_latency_micros = 100;
  link.jitter_micros = 50;
  net.SetDefaultLink(link);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(net.Send(0, "a", "b", "t", "x").ok());
  }
  net.DeliverUntil(kMicrosPerSecond);
  for (const Message& m : b.messages) {
    EXPECT_GE(m.deliver_at, 100);
    EXPECT_LE(m.deliver_at, 150);
  }
}

TEST(NetworkSimulatorTest, BroadcastReachesAllButSender) {
  NetworkSimulator net;
  RecordingNode a, b, c;
  ASSERT_TRUE(net.RegisterNode("a", &a).ok());
  ASSERT_TRUE(net.RegisterNode("b", &b).ok());
  ASSERT_TRUE(net.RegisterNode("c", &c).ok());
  ASSERT_TRUE(net.Broadcast(0, "a", "t", "x").ok());
  net.DeliverUntil(kMicrosPerSecond);
  EXPECT_EQ(a.messages.size(), 0u);
  EXPECT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(c.messages.size(), 1u);
}

TEST(NetworkSimulatorTest, PerLinkOverride) {
  NetworkSimulator net;
  RecordingNode a, b;
  ASSERT_TRUE(net.RegisterNode("a", &a).ok());
  ASSERT_TRUE(net.RegisterNode("b", &b).ok());
  NetworkSimulator::LinkConfig slow;
  slow.base_latency_micros = kMicrosPerSecond;
  net.SetLink("a", "b", slow);
  ASSERT_TRUE(net.Send(0, "a", "b", "t", "x").ok());
  EXPECT_EQ(net.DeliverUntil(kMicrosPerSecond - 1), 0);
  EXPECT_EQ(net.DeliverUntil(kMicrosPerSecond), 1);
}

TEST(NetworkSimulatorTest, DepartedNodeMessagesDropped) {
  NetworkSimulator net;
  RecordingNode a, b;
  ASSERT_TRUE(net.RegisterNode("a", &a).ok());
  ASSERT_TRUE(net.RegisterNode("b", &b).ok());
  ASSERT_TRUE(net.Send(0, "a", "b", "t", "x").ok());
  ASSERT_TRUE(net.UnregisterNode("b").ok());
  EXPECT_EQ(net.DeliverUntil(kMicrosPerSecond), 0);
  EXPECT_EQ(net.stats().dropped, 1);
}

// ---------------------------------------------------------------- Directory

DirectoryEntry MakeEntry(const std::string& sensor, const std::string& node,
                         std::map<std::string, std::string> predicates) {
  DirectoryEntry entry;
  entry.sensor_name = sensor;
  entry.node_id = node;
  entry.predicates = std::move(predicates);
  entry.output_schema.AddField("v", DataType::kInt);
  return entry;
}

TEST(DirectoryTest, PredicateCombinationMatching) {
  DirectoryService dir;
  dir.Upsert(MakeEntry("s1", "n1",
                       {{"type", "temperature"}, {"location", "bc143"}}));
  dir.Upsert(MakeEntry("s2", "n1", {{"type", "camera"}}));
  dir.Upsert(MakeEntry("s3", "n2", {{"type", "temperature"}}));

  // Paper §4: discovery by "any combination of their properties".
  EXPECT_EQ(dir.Discover({{"type", "temperature"}}).size(), 2u);
  EXPECT_EQ(
      dir.Discover({{"type", "temperature"}, {"location", "bc143"}}).size(),
      1u);
  EXPECT_EQ(dir.Discover({{"type", "rfid"}}).size(), 0u);
  EXPECT_EQ(dir.Discover({}).size(), 3u);
  // Implicit keys: sensor and node names.
  EXPECT_EQ(dir.Discover({{"name", "s2"}}).size(), 1u);
  EXPECT_EQ(dir.Discover({{"node", "n1"}}).size(), 2u);
  // Case-insensitive.
  EXPECT_EQ(dir.Discover({{"TYPE", "Temperature"}}).size(), 2u);
}

TEST(DirectoryTest, UpsertReplacesAndRemoveDeletes) {
  DirectoryService dir;
  dir.Upsert(MakeEntry("s1", "n1", {{"type", "a"}}));
  dir.Upsert(MakeEntry("s1", "n1", {{"type", "b"}}));
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.Discover({{"type", "a"}}).size(), 0u);
  EXPECT_EQ(dir.Discover({{"type", "b"}}).size(), 1u);
  dir.Remove("n1", "s1");
  EXPECT_EQ(dir.size(), 0u);
}

TEST(DirectoryTest, RemoveNodeDropsAllItsEntries) {
  DirectoryService dir;
  dir.Upsert(MakeEntry("s1", "n1", {}));
  dir.Upsert(MakeEntry("s2", "n1", {}));
  dir.Upsert(MakeEntry("s3", "n2", {}));
  dir.RemoveNode("n1");
  EXPECT_EQ(dir.size(), 1u);
}

TEST(DirectoryTest, EntryEncodeDecodeRoundTrip) {
  DirectoryEntry entry = MakeEntry(
      "avg-temp", "node-7", {{"type", "temperature"}, {"location", "bc143"}});
  entry.output_schema.AddField("extra", DataType::kBinary);
  Result<DirectoryEntry> decoded = DirectoryEntry::Decode(entry.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sensor_name, entry.sensor_name);
  EXPECT_EQ(decoded->node_id, entry.node_id);
  EXPECT_EQ(decoded->predicates, entry.predicates);
  EXPECT_EQ(decoded->output_schema, entry.output_schema);
}

// ----------------------------------------------------------------- Protocol

TEST(ProtocolTest, SubscribeRoundTrip) {
  SubscribeRequest request;
  request.subscription_id = "n1#42";
  request.sensor_name = "avg-temp";
  request.subscriber_node = "n1";
  auto decoded = SubscribeRequest::Decode(request.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->subscription_id, "n1#42");
  EXPECT_EQ(decoded->sensor_name, "avg-temp");
  EXPECT_EQ(decoded->subscriber_node, "n1");
}

TEST(ProtocolTest, StreamDeliveryRoundTrip) {
  StreamDelivery delivery;
  delivery.subscription_id = "n1#1";
  delivery.sensor_name = "s";
  delivery.signature = "ab12";
  delivery.element.timed = 777;
  delivery.element.values = {Value::Int(5), Value::String("x")};
  auto decoded = StreamDelivery::Decode(delivery.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sensor_name, "s");
  EXPECT_EQ(decoded->signature, "ab12");
  EXPECT_EQ(decoded->element.timed, 777);
  EXPECT_EQ(decoded->element.values[1], Value::String("x"));
}

TEST(ProtocolTest, CorruptPayloadRejected) {
  EXPECT_FALSE(SubscribeRequest::Decode("garbage").ok());
  EXPECT_FALSE(StreamDelivery::Decode("").ok());
  EXPECT_FALSE(DirRemove::Decode("\x01").ok());
}

// --------------------------------------------------------- RemoteWrapper

TEST(RemoteStreamWrapperTest, PushThenPollDrains) {
  Schema schema;
  schema.AddField("v", DataType::kInt);
  RemoteStreamWrapper wrapper(schema, "peer", "sensor");
  gsn::testing::RemoteSink sink(&wrapper);
  StreamElement e;
  e.timed = 1;
  e.values = {Value::Int(9)};
  wrapper.Push(e, 1);
  wrapper.Push(e, 2);
  auto polled = sink.Take();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->size(), 2u);
  EXPECT_EQ(wrapper.received_count(), 2);
  auto again = sink.Take();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
}

}  // namespace
}  // namespace gsn::network
