#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "gsn/container/federation.h"
#include "gsn/container/management_interface.h"
#include "gsn/network/protocol.h"
#include "gsn/network/remote_stream_wrapper.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/wrappers/rfid_wrapper.h"

namespace gsn::container {
namespace {

/// Producer: averaged mote temperature published with discovery
/// metadata, as in the paper's Fig 1.
std::string ProducerDescriptor(const std::string& name,
                               const std::string& location) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata>"
         "  <predicate key=\"type\" val=\"temperature\"/>"
         "  <predicate key=\"location\" val=\"" + location + "\"/>"
         "</metadata>"
         "<output-structure>"
         "  <field name=\"temperature\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1m\">"
         "    <address wrapper=\"mote\">"
         "      <predicate key=\"interval-ms\" val=\"100\"/>"
         "    </address>"
         "    <query>select avg(temperature) from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

/// Consumer on another node: the paper's Fig 1 remote wrapper, resolved
/// by logical addressing (type + location predicates).
std::string ConsumerDescriptor(const std::string& name,
                               const std::string& location) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<output-structure>"
         "  <field name=\"temperature\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src1\" storage-size=\"30s\">"
         "    <address wrapper=\"remote\">"
         "      <predicate key=\"type\" val=\"temperature\"/>"
         "      <predicate key=\"location\" val=\"" + location + "\"/>"
         "    </address>"
         "    <query>select avg(temperature) from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src1</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

TEST(FederationTest, RemoteWrapperStreamsAcrossNodes) {
  Federation fed(21);
  auto producer_node = fed.AddNode("node-a");
  auto consumer_node = fed.AddNode("node-b");
  ASSERT_TRUE(producer_node.ok());
  ASSERT_TRUE(consumer_node.ok());

  ASSERT_TRUE(
      (*producer_node)->Deploy(ProducerDescriptor("bc143-temp", "bc143")).ok());
  // Let the directory publication propagate.
  ASSERT_TRUE(fed.Step(10 * kMicrosPerMilli).ok());

  // node-b discovers node-a's sensor purely by predicates.
  auto hits = (*consumer_node)
                  ->Discover({{"type", "temperature"}, {"location", "bc143"}});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].node_id, "node-a");

  auto consumer =
      (*consumer_node)->Deploy(ConsumerDescriptor("mirror", "bc143"));
  ASSERT_TRUE(consumer.ok()) << consumer.status().ToString();

  ASSERT_TRUE(fed.RunFor(3 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());

  // The consumer's table must contain mirrored averaged temperatures.
  auto result =
      (*consumer_node)->Query("select count(*), avg(temperature) from mirror");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->rows()[0][0].int_value(), 10);
  const double avg = result->rows()[0][1].double_value();
  EXPECT_GT(avg, 0);
  EXPECT_LT(avg, 60);
}

/// A sensor named (and typed) `name` over one `wrapper` source addressed
/// by one predicate. A generator keeps its newest reading; a local chain
/// sums its window, so its output depends on how pushes split into
/// drains.
std::string ChainXml(const std::string& name, const std::string& wrapper,
                     const std::string& key, const std::string& val) {
  const std::string fold = wrapper == "local" ? "sum" : "max";
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata><predicate key=\"type\" val=\"" + name +
         "\"/></metadata>"
         "<output-structure><field name=\"seq\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"3\">"
         "    <address wrapper=\"" + wrapper + "\">"
         "      <predicate key=\"" + key + "\" val=\"" + val + "\"/>"
         "    </address>"
         "    <query>select * from wrapper</query>"
         "  </stream-source>"
         "  <query>select " + fold + "(seq) as seq from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

/// Every (sensor, seq, timed) row that a seeded Federation schedule of
/// local chains stores: six generators, each chained twice, on one node
/// whose default shard count spreads the chains across shards.
std::vector<std::string> ChainedRows(uint64_t seed) {
  Federation fed(seed);
  Container* node = *fed.AddNode("chains");
  std::vector<std::string> names;
  for (int i = 0; i < 6; ++i) {
    const std::string gen = "gen-" + std::to_string(i);
    const std::string chain = "chain-" + std::to_string(i);
    const std::string tail = "tail-" + std::to_string(i);
    const std::string ms = std::to_string(40 + 10 * i);
    const std::string producer = ChainXml(gen, "generator", "interval-ms", ms);
    EXPECT_TRUE(node->Deploy(producer).ok());
    EXPECT_TRUE(node->Deploy(ChainXml(chain, "local", "type", gen)).ok());
    EXPECT_TRUE(node->Deploy(ChainXml(tail, "local", "type", chain)).ok());
    names.insert(names.end(), {chain, tail});
  }
  EXPECT_TRUE(fed.RunFor(10 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  std::vector<std::string> rows;
  for (const std::string& name : names) {
    auto result = node->Query("select seq, timed from \"" + name +
                              "\" order by timed, seq");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    for (const Relation::Row& row : result->rows()) {
      rows.push_back(name + ":" + row[0].ToString() + "@" + row[1].ToString());
    }
  }
  return rows;
}

// The Federation harness drains each node's shards on one worker, in
// index order, so a seeded schedule whose local chains cross shards
// stores the same rows on every run.
TEST(FederationTest, SeededScheduleStoresTheSameRowsOnEveryRun) {
  const std::vector<std::string> first = ChainedRows(29);
  ASSERT_GT(first.size(), 100u);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(ChainedRows(29), first) << "run " << run;
  }
}

TEST(FederationTest, RemoteDeployFailsWithoutMatchingProducer) {
  Federation fed;
  auto node = fed.AddNode("solo");
  ASSERT_TRUE(node.ok());
  auto consumer = (*node)->Deploy(ConsumerDescriptor("mirror", "nowhere"));
  EXPECT_EQ(consumer.status().code(), StatusCode::kUnavailable);
}

TEST(FederationTest, UndeployProducerStopsStreamConsumerKeepsRunning) {
  Federation fed(5);
  auto a = fed.AddNode("a");
  auto b = fed.AddNode("b");
  ASSERT_TRUE((*a)->Deploy(ProducerDescriptor("p", "here")).ok());
  ASSERT_TRUE(fed.Step(10 * kMicrosPerMilli).ok());
  ASSERT_TRUE((*b)->Deploy(ConsumerDescriptor("c", "here")).ok());
  ASSERT_TRUE(fed.RunFor(kMicrosPerSecond, 100 * kMicrosPerMilli).ok());

  auto before = (*b)->Query("select count(*) from c");
  ASSERT_TRUE(before.ok());
  const int64_t count_before = before->rows()[0][0].int_value();
  EXPECT_GT(count_before, 0);

  ASSERT_TRUE((*a)->Undeploy("p").ok());
  ASSERT_TRUE(fed.RunFor(kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  auto after = (*b)->Query("select count(*) from c");
  ASSERT_TRUE(after.ok());
  // At most one in-flight element may still land; then the stream is
  // quiescent.
  const int64_t count_after = after->rows()[0][0].int_value();
  EXPECT_LE(count_after - count_before, 1);
  ASSERT_TRUE(fed.RunFor(kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  auto final_count = (*b)->Query("select count(*) from c");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->rows()[0][0].int_value(), count_after);
  // And the directory no longer lists it anywhere.
  EXPECT_TRUE((*b)->Discover({{"name", "p"}}).empty());
}

TEST(FederationTest, LateJoinerLearnsDirectoryViaAnnounce) {
  Federation fed;
  auto a = fed.AddNode("a");
  ASSERT_TRUE((*a)->Deploy(ProducerDescriptor("p", "x")).ok());
  ASSERT_TRUE(fed.Step(10 * kMicrosPerMilli).ok());

  // b joins after the publish happened; AddNode triggers re-announce.
  auto b = fed.AddNode("b");
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(fed.Step(10 * kMicrosPerMilli).ok());
  EXPECT_EQ((*b)->Discover({{"type", "temperature"}}).size(), 1u);
}

TEST(FederationTest, NodeRemovalIsClean) {
  Federation fed;
  auto a = fed.AddNode("a");
  ASSERT_TRUE(fed.AddNode("b").ok());
  ASSERT_TRUE((*a)->Deploy(ProducerDescriptor("p", "x")).ok());
  ASSERT_TRUE(fed.Step(10 * kMicrosPerMilli).ok());
  ASSERT_TRUE(fed.RemoveNode("a").ok());
  EXPECT_EQ(fed.RemoveNode("a").code(), StatusCode::kNotFound);
  // Remaining node keeps stepping without error.
  ASSERT_TRUE(fed.RunFor(kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  EXPECT_EQ(fed.NodeIds(), std::vector<std::string>{"b"});
}

/// A peer that only sends what a test scripts.
class ScriptedPeer : public network::NetworkNode {
 public:
  void OnMessage(const network::Message&) override {}
};

// Directory entries belong to their node: a peer can neither retract
// nor forge an entry naming another node. A spoofed dir.remove must not
// take a node's own sensor out of its replica (which would break its
// wrapper="local" deploys), nor a third node's; a forged dir.publish
// naming the node must not be stored or re-announced.
TEST(FederationTest, PeersCannotRewriteAnotherNodesDirectoryEntries) {
  ScriptedPeer mallory;  // outlives the federation's simulator
  Federation fed(3);
  auto a = fed.AddNode("a");
  auto b = fed.AddNode("b");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Deploy(ProducerDescriptor("p", "lab")).ok());
  ASSERT_TRUE((*b)->Deploy(ProducerDescriptor("q", "lab")).ok());
  // Past the deploy-time publish rounds, so nothing but the 5 s
  // anti-entropy could restore an entry before the checks below.
  ASSERT_TRUE(fed.RunFor(2 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  ASSERT_EQ((*a)->Discover({{"location", "lab"}}).size(), 2u);

  ASSERT_TRUE(fed.network().RegisterNode("mallory", &mallory).ok());
  network::DirRemove remove_own;
  remove_own.node_id = "a";
  remove_own.sensor_name = "p";
  network::DirRemove remove_peer;
  remove_peer.node_id = "b";
  remove_peer.sensor_name = "q";
  network::DirectoryEntry forged;
  forged.sensor_name = "ghost";
  forged.node_id = "a";
  forged.predicates = {{"location", "lab"}};
  forged.output_schema.AddField("temperature", DataType::kInt);
  const Timestamp now = fed.clock()->NowMicros();
  for (const auto& [topic, payload] :
       {std::pair<std::string, std::string>{network::kTopicDirRemove,
                                            remove_own.Encode()},
        {network::kTopicDirRemove, remove_peer.Encode()},
        {network::kTopicDirPublish, forged.Encode()}}) {
    ASSERT_TRUE(fed.network().Send(now, "mallory", "a", topic, payload).ok());
  }
  ASSERT_TRUE(fed.RunFor(500 * kMicrosPerMilli, 100 * kMicrosPerMilli).ok());

  EXPECT_EQ((*a)->Discover({{"name", "p"}}).size(), 1u);
  EXPECT_EQ((*a)->Discover({{"name", "q"}}).size(), 1u);
  EXPECT_TRUE((*a)->Discover({{"name", "ghost"}}).empty());
  EXPECT_TRUE((*b)->Discover({{"name", "ghost"}}).empty());
  auto local = (*a)->Deploy(
      "<virtual-sensor name=\"p-copy\">"
      "<output-structure>"
      "  <field name=\"temperature\" type=\"integer\"/>"
      "</output-structure>"
      "<input-stream name=\"in\">"
      "  <stream-source alias=\"src\" storage-size=\"1\">"
      "    <address wrapper=\"local\">"
      "      <predicate key=\"name\" val=\"p\"/>"
      "    </address>"
      "    <query>select * from wrapper</query>"
      "  </stream-source>"
      "  <query>select * from src</query>"
      "</input-stream>"
      "</virtual-sensor>");
  EXPECT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_TRUE(fed.network().UnregisterNode("mallory").ok());
}

// A producer acks subscriptions only for sensors it hosts. Once the
// bound producer undeploys its sensor, the consumer's resubscribe goes
// unanswered, its retries run out, and it fails over to the equivalent
// sensor on another node instead of living on the tips of a stream
// that never flows.
TEST(FederationTest, UndeployedProducerFailsOverToEquivalentSensor) {
  Federation fed(17);
  auto a = fed.AddNode("a");
  auto b = fed.AddNode("b");
  auto c = fed.AddNode("c");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE((*a)->Deploy(ProducerDescriptor("temps", "lab")).ok());
  ASSERT_TRUE((*b)->Deploy(ProducerDescriptor("temps", "lab")).ok());
  ASSERT_TRUE(fed.Step(10 * kMicrosPerMilli).ok());
  ASSERT_EQ((*c)->Discover({{"location", "lab"}}).size(), 2u);
  ASSERT_TRUE((*c)->Deploy(ConsumerDescriptor("mirror", "lab")).ok());
  ASSERT_TRUE(fed.RunFor(2 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  const auto* remote = dynamic_cast<const network::RemoteStreamWrapper*>(
      &(*c)->FindSensor("mirror")->FindSource("in", "src1")->wrapper());
  ASSERT_NE(remote, nullptr);
  ASSERT_EQ(remote->peer_node(), "a");
  ASSERT_GT(remote->admitted_count(), 0);

  ASSERT_TRUE((*a)->Undeploy("temps").ok());
  // Rows from b within 45 s of virtual time.
  int64_t at_failover = -1;
  for (int i = 0; i < 450; ++i) {
    ASSERT_TRUE(fed.Step(100 * kMicrosPerMilli).ok());
    if (remote->peer_node() != "b") continue;
    if (at_failover < 0) at_failover = remote->admitted_count();
    if (remote->admitted_count() > at_failover) break;
  }
  EXPECT_EQ(remote->peer_node(), "b");
  EXPECT_GE(at_failover, 0);
  EXPECT_GT(remote->admitted_count(), at_failover);
  EXPECT_EQ((*c)->metrics()
                ->GetCounter("gsn_federation_failovers_total", {{"node", "c"}},
                             "")
                ->Value(),
            1);
}

/// The paper's §6 event scenario: "when the RFID reader recognizes an
/// RFID tag, a picture ... would be returned from the camera network
/// together with the current light intensity and temperature taken
/// from the other networks (notification)". Three networks on two
/// nodes; the event handler queries the other sensors on notification.
TEST(FederationTest, DemoRfidTriggersJoinedSnapshot) {
  Federation fed(9);
  auto hub = fed.AddNode("hub");      // RFID + motes (as in Fig 5)
  auto cams = fed.AddNode("cameras");  // camera network
  ASSERT_TRUE(hub.ok());
  ASSERT_TRUE(cams.ok());

  // Camera network publishes frames.
  ASSERT_TRUE((*cams)
                  ->Deploy(
                      "<virtual-sensor name=\"cam1\">"
                      "<metadata><predicate key=\"type\" val=\"camera\"/>"
                      "</metadata>"
                      "<output-structure>"
                      "  <field name=\"image\" type=\"binary\"/>"
                      "  <field name=\"camera_id\" type=\"integer\"/>"
                      "</output-structure>"
                      "<input-stream name=\"in\">"
                      "  <stream-source alias=\"src\" storage-size=\"5\">"
                      "    <address wrapper=\"camera\">"
                      "      <predicate key=\"interval-ms\" val=\"500\"/>"
                      "      <predicate key=\"image-bytes\" val=\"1024\"/>"
                      "    </address>"
                      "    <query>select image, camera_id from wrapper</query>"
                      "  </stream-source>"
                      "  <query>select * from src</query>"
                      "</input-stream>"
                      "</virtual-sensor>")
                  .ok());

  // Mote network on the hub.
  ASSERT_TRUE((*hub)->Deploy(ProducerDescriptor("motes", "hall")).ok());

  // Camera mirror on the hub via remote wrapper, so the snapshot query
  // can join local tables.
  ASSERT_TRUE(fed.Step(10 * kMicrosPerMilli).ok());
  ASSERT_TRUE((*hub)
                  ->Deploy(
                      "<virtual-sensor name=\"cam-mirror\">"
                      "<output-structure>"
                      "  <field name=\"image\" type=\"binary\"/>"
                      "  <field name=\"camera_id\" type=\"integer\"/>"
                      "</output-structure>"
                      "<input-stream name=\"in\">"
                      "  <stream-source alias=\"src\" storage-size=\"5\">"
                      "    <address wrapper=\"remote\">"
                      "      <predicate key=\"type\" val=\"camera\"/>"
                      "    </address>"
                      "    <query>select * from wrapper</query>"
                      "  </stream-source>"
                      "  <query>select image, camera_id from src</query>"
                      "</input-stream>"
                      "</virtual-sensor>")
                  .ok());

  // RFID reader on the hub; detection forced below.
  ASSERT_TRUE((*hub)
                  ->Deploy(
                      "<virtual-sensor name=\"door-rfid\">"
                      "<output-structure>"
                      "  <field name=\"tag_id\" type=\"string\"/>"
                      "  <field name=\"rssi\" type=\"integer\"/>"
                      "</output-structure>"
                      "<input-stream name=\"in\">"
                      "  <stream-source alias=\"src\" storage-size=\"1\">"
                      "    <address wrapper=\"rfid\">"
                      "      <predicate key=\"interval-ms\" val=\"100\"/>"
                      "      <predicate key=\"detect-probability\" val=\"0\"/>"
                      "    </address>"
                      "    <query>select tag_id, rssi from wrapper</query>"
                      "  </stream-source>"
                      "  <query>select * from src</query>"
                      "</input-stream>"
                      "</virtual-sensor>")
                  .ok());

  // Event handler: on RFID detection, snapshot camera + temperature.
  struct Snapshot {
    std::string tag;
    bool has_image = false;
    double temperature = 0;
  };
  std::vector<Snapshot> snapshots;
  auto sub = (*hub)->notification_manager().Subscribe(
      "door-rfid", "",
      std::make_shared<CallbackChannel>([&](const Notification& n) {
        Snapshot snap;
        snap.tag = n.element.values[0].string_value();
        auto image = (*hub)->Query(
            "select image from \"cam-mirror\" order by timed desc limit 1");
        snap.has_image = image.ok() && !image->empty() &&
                         image->rows()[0][0].is_binary();
        auto temp = (*hub)->Query("select avg(temperature) from motes");
        if (temp.ok() && !temp->empty() && !temp->rows()[0][0].is_null()) {
          snap.temperature = temp->rows()[0][0].double_value();
        }
        snapshots.push_back(snap);
      }));
  ASSERT_TRUE(sub.ok());

  // Warm up: cameras produce frames, motes produce temperatures.
  ASSERT_TRUE(fed.RunFor(2 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());

  // Someone swipes a badge.
  auto* rfid = static_cast<wrappers::RfidWrapper*>(
      (*hub)->FindSensor("door-rfid")->FindSource("in", "src")
          ->mutable_wrapper());
  rfid->InjectDetection("badge-42");
  ASSERT_TRUE(fed.RunFor(300 * kMicrosPerMilli, 100 * kMicrosPerMilli).ok());

  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].tag, "badge-42");
  EXPECT_TRUE(snapshots[0].has_image);
  EXPECT_GT(snapshots[0].temperature, 0);
  EXPECT_LT(snapshots[0].temperature, 60);
}

// One tuple produced on node-a and delivered through wrapper="remote"
// to node-b must form a single trace: rooted at the producer's wrapper
// admission, continued across the simulated network, with ≥ 5 linked
// spans spanning both node labels.
TEST(FederationTest, TraceFollowsTupleAcrossContainers) {
  Federation fed(33);
  fed.tracer().set_sample_rate(1.0);
  auto a = fed.AddNode("node-a");
  auto b = fed.AddNode("node-b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  ASSERT_TRUE((*a)->Deploy(ProducerDescriptor("temps", "lab")).ok());
  ASSERT_TRUE(fed.Step(10 * kMicrosPerMilli).ok());
  ASSERT_TRUE((*b)->Deploy(ConsumerDescriptor("mirror", "lab")).ok());
  ASSERT_TRUE(fed.RunFor(2 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());

  const std::vector<telemetry::SpanRecord> spans =
      fed.tracer().store().Snapshot();
  ASSERT_FALSE(spans.empty());

  // Pick a trace that reached node-b's source admission: its node-a
  // half completed strictly earlier, so the whole chain is recorded.
  uint64_t hi = 0;
  uint64_t lo = 0;
  for (const telemetry::SpanRecord& span : spans) {
    if (span.name == "source.admit" && span.node == "node-b") {
      hi = span.trace_hi;
      lo = span.trace_lo;
      break;
    }
  }
  ASSERT_NE(hi | lo, 0u) << "no trace crossed the network";

  const std::vector<telemetry::SpanRecord> trace =
      fed.tracer().store().ForTrace(hi, lo);
  EXPECT_GE(trace.size(), 5u);

  std::set<std::string> names;
  std::set<std::string> nodes;
  std::set<uint64_t> span_ids;
  int roots = 0;
  for (const telemetry::SpanRecord& span : trace) {
    names.insert(span.name);
    if (!span.node.empty()) nodes.insert(span.node);
    span_ids.insert(span.span_id);
    if (span.parent_span_id == 0) ++roots;
  }
  // Rooted exactly once, at the producing wrapper on node-a.
  EXPECT_EQ(roots, 1);
  EXPECT_TRUE(names.count("wrapper.produce"));
  EXPECT_TRUE(names.count("remote.send"));
  EXPECT_TRUE(names.count("source.admit"));
  EXPECT_TRUE(names.count("vsensor.pipeline"));
  // Both containers contributed spans to the same trace id.
  EXPECT_TRUE(nodes.count("node-a"));
  EXPECT_TRUE(nodes.count("node-b"));
  // Parent/child linkage is closed: every non-root parent is a span of
  // this same trace.
  for (const telemetry::SpanRecord& span : trace) {
    if (span.parent_span_id != 0) {
      EXPECT_TRUE(span_ids.count(span.parent_span_id))
          << span.name << " has a dangling parent";
    }
  }
}

}  // namespace
}  // namespace gsn::container
