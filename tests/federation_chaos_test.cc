// Federation chaos tests: the resilient delivery protocol under
// scripted faults (docs/FEDERATION.md). The headline scenario is the
// one from the issue: 5% loss + a 10-second partition + one peer
// restart, after which every produced element must have been admitted
// exactly once, with the recovery visible in the federation metrics.
//
// Everything runs under virtual time on the in-process simulator, and
// every fault is a rule on a node's ChaosTransport typed in the same
// `chaos` grammar an operator uses on a daemon, so these tests are
// fully deterministic for a given federation seed.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "gsn/container/federation.h"
#include "gsn/container/management_interface.h"
#include "gsn/container/web_interface.h"
#include "gsn/network/chaos_transport.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/network/remote_stream_wrapper.h"
#include "gsn/telemetry/metrics.h"

namespace gsn::container {
namespace {

using gsn::network::ChaosTransport;
using gsn::network::EpollTransport;
using gsn::network::RemoteStreamWrapper;

/// The consumer's view of its remote source, or null at any broken link.
const RemoteStreamWrapper* FindRemote(Container* c, const std::string& name) {
  auto* sensor = c->FindSensor(name);
  if (sensor == nullptr) return nullptr;
  auto* source = sensor->FindSource("in", "src");
  if (source == nullptr) return nullptr;
  return dynamic_cast<const RemoteStreamWrapper*>(&source->wrapper());
}

int64_t CounterValue(Container* c, const std::string& name,
                     const telemetry::Labels& labels) {
  return c->metrics()->GetCounter(name, labels, "")->Value();
}

/// Types `chaos <line>` into `node`'s management interface, as an
/// operator would into a daemon.
void Chaos(Container* node, const std::string& line) {
  const std::string reply = ManagementInterface(node).Execute("chaos " + line);
  EXPECT_EQ(reply.rfind("ERROR", 0), std::string::npos)
      << line << ": " << reply;
}

/// Takes `down` off the network like a crashed daemon: every other
/// node partitions it, and it partitions every peer. Healing those
/// rules restarts it with its state intact.
void Crash(Federation& fed, const std::string& down) {
  for (const std::string& id : fed.NodeIds()) {
    if (id == down) continue;
    Chaos(fed.node(id), "partition " + down);
    Chaos(fed.node(down), "partition " + id);
  }
}

std::string GeneratorProducerXml(const std::string& name,
                                 const std::string& type) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata><predicate key=\"type\" val=\"" + type + "\"/></metadata>"
         "<output-structure>"
         "  <field name=\"seq\" type=\"integer\"/>"
         "  <field name=\"value\" type=\"double\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"generator\">"
         "      <predicate key=\"interval-ms\" val=\"100\"/>"
         "      <predicate key=\"payload-bytes\" val=\"0\"/>"
         "    </address>"
         "    <query>select seq, value from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

std::string RemoteConsumerXml(const std::string& name, const std::string& type,
                              const std::string& schema_fields,
                              const std::string& extra_predicates = "") {
  return "<virtual-sensor name=\"" + name + "\">"
         "<output-structure>" + schema_fields + "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"remote\">"
         "      <predicate key=\"type\" val=\"" + type + "\"/>" +
         extra_predicates +
         "    </address>"
         "    <query>select * from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

/// A finite CSV feed with explicit timestamps: production starts
/// `start` micros after the wrapper's first poll and ends after `rows`
/// elements, so the test can drain to a known final count.
class FederationChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    csv_path_ = std::filesystem::temp_directory_path() /
                ("gsn_chaos_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(csv_path_, ec);
  }

  void WriteCsv(int rows, Timestamp start, Timestamp spacing) {
    std::ofstream out(csv_path_);
    out << "timed,seq\n";
    for (int i = 0; i < rows; ++i) {
      out << (start + static_cast<Timestamp>(i) * spacing) << ","
          << (i + 1) << "\n";
    }
  }

  std::string CsvProducerXml(const std::string& name) const {
    return "<virtual-sensor name=\"" + name + "\">"
           "<metadata><predicate key=\"type\" val=\"chaos\"/></metadata>"
           "<output-structure>"
           "  <field name=\"seq\" type=\"integer\"/>"
           "</output-structure>"
           "<input-stream name=\"in\">"
           "  <stream-source alias=\"src\" storage-size=\"1\">"
           "    <address wrapper=\"csv\">"
           "      <predicate key=\"file\" val=\"" + csv_path_.string() +
           "\"/>"
           "      <predicate key=\"interval\" val=\"100ms\"/>"
           "    </address>"
           "    <query>select seq from wrapper</query>"
           "  </stream-source>"
           "  <query>select * from src</query>"
           "</input-stream>"
           "</virtual-sensor>";
  }

  /// The acceptance scenario up to the end of its faults: `producer`
  /// feeds `rows` CSV elements to a remote mirror on `consumer` while
  /// both links suffer 5% loss, a one-second blackout, a 10s partition,
  /// and a producer crash/restart, scripted as operator `chaos` lines.
  void RunLossPartitionRestart(Federation& fed, Container* producer,
                               Container* consumer, int rows) {
    // Production starts 2s after the producer's first poll: by then the
    // consumer below is subscribed, so every element gets a sequence.
    WriteCsv(rows, 2 * kMicrosPerSecond, 100 * kMicrosPerMilli);
    ASSERT_TRUE(producer->Deploy(CsvProducerXml("feed")).ok());
    for (int i = 0; i < 50 && consumer->Discover({{"type", "chaos"}}).empty();
         ++i) {
      ASSERT_TRUE(fed.Step(100 * kMicrosPerMilli).ok());
    }
    ASSERT_FALSE(consumer->Discover({{"type", "chaos"}}).empty());
    // A generous NACK budget with a tight backoff cap keeps repair fast
    // and guarantees nothing is abandoned while faults are scripted.
    auto mirror = consumer->Deploy(RemoteConsumerXml(
        "mirror", "chaos", "<field name=\"seq\" type=\"integer\"/>",
        "<predicate key=\"retry-max-attempts\" val=\"64\"/>"
        "<predicate key=\"retry-max-backoff\" val=\"1s\"/>"));
    ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();
    ASSERT_TRUE(fed.RunFor(kMicrosPerSecond, 100 * kMicrosPerMilli).ok());

    // Chaos script, relative to "subscription established". Rules sit
    // where the frames arrive, so they also catch broadcasts and frames
    // already in flight; `heal` clears all of a peer's rules, so the 5%
    // loss is typed again after each heal.
    auto& net = fed.network();
    const Timestamp t0 = fed.clock()->NowMicros();
    const auto lossy = [producer, consumer] {
      Chaos(consumer, "loss producer 0.05 in");
      Chaos(producer, "loss consumer 0.05 in");
    };
    const auto heal = [producer, consumer, lossy] {
      Chaos(consumer, "heal producer");
      Chaos(producer, "heal consumer");
      lossy();
    };
    lossy();
    // A one-second asymmetric blackout while live elements are in
    // flight: the arrivals after it land behind a guaranteed gap.
    net.ScheduleAt(t0 + 2 * kMicrosPerSecond,
                   [consumer] { Chaos(consumer, "loss producer 1 in"); });
    net.ScheduleAt(t0 + 3 * kMicrosPerSecond,
                   [consumer] { Chaos(consumer, "loss producer 0.05 in"); });
    net.ScheduleAt(t0 + 4 * kMicrosPerSecond, [producer, consumer] {
      Chaos(producer, "partition consumer");
      Chaos(consumer, "partition producer");
    });
    net.ScheduleAt(t0 + 14 * kMicrosPerSecond, heal);
    net.ScheduleAt(t0 + 15 * kMicrosPerSecond,
                   [&fed] { Crash(fed, "producer"); });
    net.ScheduleAt(t0 + 17 * kMicrosPerSecond, heal);
    ASSERT_TRUE(fed.RunFor(18 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  }

  std::filesystem::path csv_path_;
};

// The issue's acceptance scenario. A finite producer feeds a remote
// consumer while the link suffers 5% loss in both directions, a 10s
// partition, and a producer crash/restart. Once faults clear and the
// federation drains, the consumer must have admitted every element
// exactly once, the breaker must have opened and re-closed, and the
// repair work must show up in the federation counters.
TEST_F(FederationChaosTest, ExactlyOnceUnderLossPartitionAndRestart) {
  constexpr int kRows = 120;
  Federation fed(2026);
  auto producer = fed.AddNode("producer");
  auto consumer = fed.AddNode("consumer");
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE(consumer.ok());
  ASSERT_NO_FATAL_FAILURE(
      RunLossPartitionRestart(fed, *producer, *consumer, kRows));

  // Faults over; let NACK/replay and tips drain the remaining gaps.
  Chaos(*producer, "heal");
  Chaos(*consumer, "heal");
  ASSERT_TRUE(fed.RunFor(20 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());

  // The producer finished its run: all rows are in its local table.
  auto produced = (*producer)->Query("select count(*) from feed");
  ASSERT_TRUE(produced.ok());
  ASSERT_EQ(produced->rows()[0][0], Value::Int(kRows));

  // Exactly-once admission at the consumer's wrapper.
  const RemoteStreamWrapper* remote = FindRemote(*consumer, "mirror");
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->admitted_count(), kRows);
  EXPECT_EQ(remote->abandoned_count(), 0);
  EXPECT_EQ(remote->expected_sequence(), static_cast<uint64_t>(kRows + 1));

  // No duplicates slipped into the pipeline.
  auto got = (*consumer)->Query(
      "select count(*), count(distinct seq) from mirror");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->rows()[0][0], got->rows()[0][1]);

  // The recovery is visible in the federation metrics: gaps were
  // detected, NACK rounds went out, and the producer replayed.
  EXPECT_GT(CounterValue(*consumer, "gsn_federation_gaps_total",
                         {{"node", "consumer"}}),
            0);
  EXPECT_GT(CounterValue(*consumer, "gsn_federation_retries_total",
                         {{"node", "consumer"}, {"kind", "replay"}}),
            0);
  EXPECT_GT(CounterValue(*producer, "gsn_federation_replays_total",
                         {{"node", "producer"}}),
            0);
  // No alternative producer exists, so nothing failed over.
  EXPECT_EQ(CounterValue(*consumer, "gsn_federation_failovers_total",
                         {{"node", "consumer"}}),
            0);

  // The 10s partition opened the consumer's breaker; the post-heal
  // heartbeat closed it again.
  bool saw_producer = false;
  for (const auto& peer : (*consumer)->PeerStatuses()) {
    if (peer.node_id != "producer") continue;
    saw_producer = true;
    EXPECT_EQ(peer.circuit, "closed");
    EXPECT_GE(peer.circuit_opened_total, 1);
  }
  EXPECT_TRUE(saw_producer);

  const ChaosTransport::Counters stats =
      (*consumer)->network()->AsChaos()->counters();
  EXPECT_GT(stats.dropped, 0);
}

// The fault schedule is a function of the federation seed: the same
// scenario run twice draws the same fault decisions on every node and
// forces the same repair work.
TEST_F(FederationChaosTest, FaultScheduleIsSeedDeterministic) {
  struct Outcome {
    std::vector<uint64_t> digests;
    std::vector<ChaosTransport::Counters> counters;
    int64_t gaps = 0;
    int64_t replays = 0;
  };
  const auto run = [this] {
    Outcome out;
    Federation fed(2026);
    auto producer = fed.AddNode("producer");
    auto consumer = fed.AddNode("consumer");
    EXPECT_TRUE(producer.ok() && consumer.ok());
    if (!producer.ok() || !consumer.ok()) return out;
    RunLossPartitionRestart(fed, *producer, *consumer, 120);
    for (Container* node : {*producer, *consumer}) {
      out.digests.push_back(node->network()->AsChaos()->ScheduleDigest());
    }
    Chaos(*producer, "heal");
    Chaos(*consumer, "heal");
    EXPECT_TRUE(fed.RunFor(20 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
    for (Container* node : {*producer, *consumer}) {
      out.counters.push_back(node->network()->AsChaos()->counters());
    }
    out.gaps = CounterValue(*consumer, "gsn_federation_gaps_total",
                            {{"node", "consumer"}});
    out.replays = CounterValue(*producer, "gsn_federation_replays_total",
                               {{"node", "producer"}});
    return out;
  };
  const Outcome first = run();
  const Outcome second = run();
  ASSERT_EQ(first.counters.size(), 2u);
  EXPECT_EQ(first.digests, second.digests);
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.gaps, second.gaps);
  EXPECT_EQ(first.replays, second.replays);
  // The schedule was not trivially empty.
  EXPECT_GT(first.counters[1].dropped, 0);
  EXPECT_GT(first.counters[1].partitioned, 0);
  EXPECT_GT(first.gaps, 0);
}

// Two producers advertise the same predicates. When the one the
// consumer bound to dies for good, the opened breaker triggers a
// failover: the wrapper rebinds to the surviving producer and
// admission resumes under a fresh subscription.
TEST_F(FederationChaosTest, FailsOverToAlternateProducer) {
  Federation fed(11);
  auto alpha = fed.AddNode("alpha");
  auto beta = fed.AddNode("beta");
  auto gamma = fed.AddNode("gamma");
  ASSERT_TRUE(alpha.ok());
  ASSERT_TRUE(beta.ok());
  ASSERT_TRUE(gamma.ok());
  ASSERT_TRUE((*alpha)->Deploy(GeneratorProducerXml("gen-a", "dual")).ok());
  ASSERT_TRUE((*gamma)->Deploy(GeneratorProducerXml("gen-c", "dual")).ok());
  for (int i = 0;
       i < 100 && (*beta)->Discover({{"type", "dual"}}).size() < 2; ++i) {
    ASSERT_TRUE(fed.Step(100 * kMicrosPerMilli).ok());
  }
  ASSERT_EQ((*beta)->Discover({{"type", "dual"}}).size(), 2u);

  ASSERT_TRUE((*beta)
                  ->Deploy(RemoteConsumerXml(
                      "mirror", "dual",
                      "<field name=\"seq\" type=\"integer\"/>"
                      "<field name=\"value\" type=\"double\"/>"))
                  .ok());
  ASSERT_TRUE(fed.RunFor(2 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());

  const RemoteStreamWrapper* remote = FindRemote(*beta, "mirror");
  ASSERT_NE(remote, nullptr);
  const std::string first = remote->peer_node();
  const int64_t admitted_before = remote->admitted_count();
  EXPECT_GT(admitted_before, 0);

  // Kill the bound producer permanently. Silence trips the breaker,
  // and the failover scan finds the other advertisement.
  Crash(fed, first);
  ASSERT_TRUE(fed.RunFor(15 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());

  EXPECT_NE(remote->peer_node(), first);
  EXPECT_GT(remote->admitted_count(), admitted_before);
  EXPECT_EQ(CounterValue(*beta, "gsn_federation_failovers_total",
                         {{"node", "beta"}}),
            1);
}

// The initial subscribe is lost on a fully dead consumer->producer
// link. The retry policy keeps re-sending it (heartbeats still flow
// the other way, so the breaker stays closed), and once the link heals
// the subscription establishes and data flows.
TEST_F(FederationChaosTest, SubscribeRetriesUntilLinkHeals) {
  Federation fed(5);
  auto src = fed.AddNode("src");
  auto sink = fed.AddNode("sink");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(sink.ok());
  ASSERT_TRUE((*src)->Deploy(GeneratorProducerXml("gen", "sr")).ok());
  for (int i = 0; i < 50 && (*sink)->Discover({{"type", "sr"}}).empty();
       ++i) {
    ASSERT_TRUE(fed.Step(100 * kMicrosPerMilli).ok());
  }
  ASSERT_FALSE((*sink)->Discover({{"type", "sr"}}).empty());

  Chaos(*src, "loss sink 1 in");
  ASSERT_TRUE((*sink)
                  ->Deploy(RemoteConsumerXml(
                      "mirror", "sr",
                      "<field name=\"seq\" type=\"integer\"/>"
                      "<field name=\"value\" type=\"double\"/>"))
                  .ok());
  ASSERT_TRUE(
      fed.RunFor(2500 * kMicrosPerMilli, 100 * kMicrosPerMilli).ok());

  const RemoteStreamWrapper* remote = FindRemote(*sink, "mirror");
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->admitted_count(), 0);
  EXPECT_GT(CounterValue(*sink, "gsn_federation_retries_total",
                         {{"node", "sink"}, {"kind", "subscribe"}}),
            0);

  Chaos(*src, "heal");
  ASSERT_TRUE(fed.RunFor(3 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  EXPECT_GT(remote->admitted_count(), 0);
}

// A producer process restart loses its (non-durable) subscriber table
// while the restarted node answers heartbeats immediately — so neither
// the circuit breaker nor gap repair can see anything wrong. Only the
// subscription-silence detector can: once an acked subscription stays
// silent past subscription_silence_timeout against a live peer, the
// consumer rebinds it under a fresh id and admission resumes.
TEST_F(FederationChaosTest, ResubscribesAfterProducerRestart) {
  Federation fed(31);
  auto producer = fed.AddNode("producer");
  auto consumer = fed.AddNode("consumer");
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE(consumer.ok());
  ASSERT_TRUE((*producer)->Deploy(GeneratorProducerXml("gen", "rp")).ok());
  for (int i = 0; i < 50 && (*consumer)->Discover({{"type", "rp"}}).empty();
       ++i) {
    ASSERT_TRUE(fed.Step(100 * kMicrosPerMilli).ok());
  }
  ASSERT_TRUE((*consumer)
                  ->Deploy(RemoteConsumerXml(
                      "mirror", "rp",
                      "<field name=\"seq\" type=\"integer\"/>"
                      "<field name=\"value\" type=\"double\"/>"))
                  .ok());

  // 15 virtual seconds of healthy streaming — longer than the silence
  // timeout, so this also pins that a flowing (tip-carrying) stream
  // never trips the detector spuriously.
  ASSERT_TRUE(fed.RunFor(15 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  const RemoteStreamWrapper* remote = FindRemote(*consumer, "mirror");
  ASSERT_NE(remote, nullptr);
  const int64_t before = remote->admitted_count();
  EXPECT_GT(before, 0);
  EXPECT_EQ(CounterValue(*consumer, "gsn_federation_resubscribes_total",
                         {{"node", "consumer"}}),
            0);

  // Restart: a brand-new container under the same node id.
  ASSERT_TRUE(fed.RemoveNode("producer").ok());
  auto restarted = fed.AddNode("producer");
  ASSERT_TRUE(restarted.ok());
  ASSERT_TRUE((*restarted)->Deploy(GeneratorProducerXml("gen", "rp")).ok());

  ASSERT_TRUE(fed.RunFor(20 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  EXPECT_GT(remote->admitted_count(), before);
  EXPECT_EQ(CounterValue(*consumer, "gsn_federation_resubscribes_total",
                         {{"node", "consumer"}}),
            1);
  // Same producer, fresh sequence space: the restarted stream admits
  // cleanly instead of dedup-ing away below the old cursor.
  EXPECT_EQ(remote->peer_node(), "producer");
  EXPECT_EQ(remote->duplicate_count(), 0);
  EXPECT_EQ(remote->abandoned_count(), 0);
}

// One grammar over HTTP too: on a simulated node's WebInterface,
// POST /api/v1/chaos cuts a link under virtual time and GET lists the
// rule, exactly as on a `gsnd --chaos-seed` daemon.
TEST_F(FederationChaosTest, HttpChaosCutsASimulatedLink) {
  Federation fed(13);
  auto producer = fed.AddNode("producer");
  auto consumer = fed.AddNode("consumer");
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE(consumer.ok());
  ASSERT_TRUE((*producer)->Deploy(GeneratorProducerXml("gen", "web")).ok());
  for (int i = 0; i < 50 && (*consumer)->Discover({{"type", "web"}}).empty();
       ++i) {
    ASSERT_TRUE(fed.Step(100 * kMicrosPerMilli).ok());
  }
  ASSERT_TRUE((*consumer)
                  ->Deploy(RemoteConsumerXml(
                      "mirror", "web",
                      "<field name=\"seq\" type=\"integer\"/>"
                      "<field name=\"value\" type=\"double\"/>"))
                  .ok());
  ASSERT_TRUE(fed.RunFor(2 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  const RemoteStreamWrapper* remote = FindRemote(*consumer, "mirror");
  ASSERT_NE(remote, nullptr);
  ASSERT_GT(remote->admitted_count(), 0);

  WebInterface web(*consumer);
  network::HttpRequest post;
  post.method = "POST";
  post.path = "/api/v1/chaos";
  post.body = "partition producer";
  const network::HttpResponse cut = web.Handle(post);
  ASSERT_EQ(cut.status, 200) << cut.body;
  EXPECT_NE(cut.body.find("\"ok\":true"), std::string::npos) << cut.body;

  network::HttpRequest get;
  get.method = "GET";
  get.path = "/api/v1/chaos";
  const network::HttpResponse listed = web.Handle(get);
  ASSERT_EQ(listed.status, 200) << listed.body;
  EXPECT_NE(listed.body.find("\"peer\":\"producer\""), std::string::npos)
      << listed.body;
  EXPECT_NE(listed.body.find("\"partitioned\":true"), std::string::npos)
      << listed.body;

  // The cut holds under virtual time: nothing more is admitted.
  const int64_t before = remote->admitted_count();
  ASSERT_TRUE(fed.RunFor(3 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
  EXPECT_EQ(remote->admitted_count(), before);
  EXPECT_GT((*consumer)->network()->AsChaos()->counters().partitioned, 0);
}

// ------------------------------------- the same scenario, both transports

// The exactly-once acceptance scenario should not depend on which
// transport carries the frames: the same ChaosTransport rules inject
// the same faults into the virtual-time simulator and into real TCP
// (docs/CHAOS.md). The harness owns the consumer's decorator rules;
// implementations supply just the two containers and the clock.
class ChaosLinkHarness {
 public:
  virtual ~ChaosLinkHarness() = default;
  virtual Container* producer() = 0;
  virtual Container* consumer() = 0;
  /// Advances both nodes by `micros` of virtual time and runs a tick.
  virtual Status Step(Timestamp micros) = 0;

  // In+out rules on the consumer's one decorator gate both directions
  // of the producer<->consumer link.
  void SetLoss(double probability) {  // both directions
    rule_.drop = probability;
    Apply();
  }
  void Partition(bool on) {  // both directions
    rule_.partitioned = on;
    Apply();
  }
  void Heal() {  // clear every fault
    rule_ = ChaosTransport::Rule();
    chaos()->ClearRules();
  }
  /// Forces a connection reset on the producer link; returns false
  /// where the transport has no connections to reset (the simulator).
  bool ResetLink() { return chaos()->ResetPeer("producer").ok(); }
  /// How many faults the fault plane actually injected so far.
  int64_t faults_injected() {
    const ChaosTransport::Counters counters = chaos()->counters();
    return counters.dropped + counters.partitioned + counters.resets;
  }

 private:
  ChaosTransport* chaos() { return consumer()->network()->AsChaos(); }
  void Apply() {
    chaos()->SetRule("producer", ChaosTransport::Direction::kIn, rule_);
    chaos()->SetRule("producer", ChaosTransport::Direction::kOut, rule_);
  }

  ChaosTransport::Rule rule_;
};

/// Virtual-time federation on the in-process NetworkSimulator; each
/// node already registers through its own decorator.
class SimulatorChaosHarness : public ChaosLinkHarness {
 public:
  SimulatorChaosHarness() : fed_(77) {
    auto producer = fed_.AddNode("producer");
    auto consumer = fed_.AddNode("consumer");
    producer_ = producer.ok() ? *producer : nullptr;
    consumer_ = consumer.ok() ? *consumer : nullptr;
  }

  Container* producer() override { return producer_; }
  Container* consumer() override { return consumer_; }
  Status Step(Timestamp micros) override {
    auto stepped = fed_.Step(micros);
    return stepped.ok() ? Status::OK() : stepped.status();
  }

 private:
  Federation fed_;
  Container* producer_ = nullptr;
  Container* consumer_ = nullptr;
};

/// Real TCP between two EpollTransports, with the consumer's side
/// wrapped in ChaosTransport. Containers run on virtual clocks
/// (protocol timers) while sockets deliver immediately, the same split
/// EpollFederationTest uses.
class EpollChaosHarness : public ChaosLinkHarness {
 public:
  EpollChaosHarness() {
    ok_ = net_producer_.Start().ok() && net_consumer_.Start().ok() &&
          net_producer_.ListenPeer(0).ok() && net_consumer_.ListenPeer(0).ok();
    if (!ok_) return;
    net_producer_.AddPeer("consumer", "127.0.0.1", net_consumer_.peer_port());
    net_consumer_.AddPeer("producer", "127.0.0.1", net_producer_.peer_port());
    ChaosTransport::Options chaos_options;
    chaos_options.seed = 77;
    chaos_ = std::make_unique<ChaosTransport>(&net_consumer_, chaos_options);

    clock_producer_ = std::make_shared<VirtualClock>();
    clock_consumer_ = std::make_shared<VirtualClock>();
    Container::Options producer_options;
    producer_options.node_id = "producer";
    producer_options.clock = clock_producer_;
    producer_options.network = &net_producer_;
    producer_ = std::make_unique<Container>(std::move(producer_options));
    Container::Options consumer_options;
    consumer_options.node_id = "consumer";
    consumer_options.clock = clock_consumer_;
    consumer_options.network = chaos_.get();
    consumer_ = std::make_unique<Container>(std::move(consumer_options));
  }

  ~EpollChaosHarness() override {
    if (consumer_ != nullptr) (void)consumer_->Shutdown();
    if (producer_ != nullptr) (void)producer_->Shutdown();
    consumer_.reset();
    producer_.reset();
    chaos_.reset();
    net_consumer_.Stop();
    net_producer_.Stop();
  }

  Container* producer() override { return ok_ ? producer_.get() : nullptr; }
  Container* consumer() override { return ok_ ? consumer_.get() : nullptr; }

  Status Step(Timestamp micros) override {
    clock_producer_->Advance(micros);
    clock_consumer_->Advance(micros);
    auto ticked = producer_->Tick();
    if (!ticked.ok()) return ticked.status();
    ticked = consumer_->Tick();
    if (!ticked.ok()) return ticked.status();
    // Give the sockets (and the chaos scheduler) a beat of real time.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Status::OK();
  }

 private:
  EpollTransport net_producer_;
  EpollTransport net_consumer_;
  std::unique_ptr<ChaosTransport> chaos_;
  std::shared_ptr<VirtualClock> clock_producer_;
  std::shared_ptr<VirtualClock> clock_consumer_;
  std::unique_ptr<Container> producer_;
  std::unique_ptr<Container> consumer_;
  bool ok_ = false;
};

enum class ChaosTransportKind { kSimulator, kChaosOverEpoll };

class FederationChaosTransportTest
    : public ::testing::TestWithParam<ChaosTransportKind> {
 protected:
  std::unique_ptr<ChaosLinkHarness> MakeHarness() const {
    if (GetParam() == ChaosTransportKind::kSimulator) {
      return std::make_unique<SimulatorChaosHarness>();
    }
    return std::make_unique<EpollChaosHarness>();
  }
};

// Loss, then a partition, then (where supported) a forced connection
// reset — and after healing, admission must still be dense and
// exactly-once. One scenario, two transports.
TEST_P(FederationChaosTransportTest, ExactlyOnceSurvivesLossPartitionReset) {
  auto harness = MakeHarness();
  Container* producer = harness->producer();
  Container* consumer = harness->consumer();
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(consumer, nullptr);

  ASSERT_TRUE(producer->Deploy(GeneratorProducerXml("gen", "xonce")).ok());
  for (int i = 0; i < 100 && consumer->Discover({{"type", "xonce"}}).empty();
       ++i) {
    ASSERT_TRUE(harness->Step(100 * kMicrosPerMilli).ok());
  }
  ASSERT_FALSE(consumer->Discover({{"type", "xonce"}}).empty());
  auto mirror = consumer->Deploy(RemoteConsumerXml(
      "mirror", "xonce",
      "<field name=\"seq\" type=\"integer\"/>"
      "<field name=\"value\" type=\"double\"/>",
      "<predicate key=\"retry-max-attempts\" val=\"64\"/>"
      "<predicate key=\"retry-max-backoff\" val=\"1s\"/>"));
  ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();

  const auto admitted = [&]() -> int64_t {
    const RemoteStreamWrapper* remote = FindRemote(consumer, "mirror");
    return remote == nullptr ? 0 : remote->admitted_count();
  };
  for (int i = 0; i < 200 && admitted() < 5; ++i) {
    ASSERT_TRUE(harness->Step(100 * kMicrosPerMilli).ok());
  }
  ASSERT_GE(admitted(), 5) << "stream never warmed up";

  // The fault script: 3s of 25% loss, a 2s partition, then (on real
  // sockets) a forced reset under residual loss.
  harness->SetLoss(0.25);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(harness->Step(100 * kMicrosPerMilli).ok());
  }
  harness->Partition(true);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(harness->Step(100 * kMicrosPerMilli).ok());
  }
  harness->Partition(false);
  const bool reset_supported = harness->ResetLink();
  EXPECT_EQ(reset_supported,
            GetParam() == ChaosTransportKind::kChaosOverEpoll);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(harness->Step(100 * kMicrosPerMilli).ok());
  }
  harness->Heal();

  // Drain: admission must resume past the fault window and the repair
  // protocol must close every gap (expected == admitted + 1 says the
  // wrapper skipped nothing).
  const int64_t before_drain = admitted();
  const RemoteStreamWrapper* remote = FindRemote(consumer, "mirror");
  ASSERT_NE(remote, nullptr);
  // The epoll loop may admit a frame between two reads, so the two
  // counters are read as one consistent pair: admission only grows and
  // moves both together, so an admitted count unchanged across the
  // expected_sequence() read belongs with it.
  const auto sequencing = [remote] {
    for (;;) {
      const int64_t admitted_before = remote->admitted_count();
      const uint64_t expected = remote->expected_sequence();
      if (remote->admitted_count() == admitted_before) {
        return std::make_pair(expected, admitted_before);
      }
    }
  };
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(harness->Step(100 * kMicrosPerMilli).ok());
    const auto [expected, admitted_now] = sequencing();
    if (admitted_now > before_drain + 10 &&
        expected == static_cast<uint64_t>(admitted_now) + 1) {
      break;
    }
  }
  const auto [expected, admitted_now] = sequencing();
  EXPECT_GT(admitted_now, before_drain);
  EXPECT_EQ(remote->abandoned_count(), 0);
  EXPECT_EQ(expected, static_cast<uint64_t>(admitted_now) + 1);

  auto got =
      consumer->Query("select count(*), count(distinct seq) from mirror");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->rows()[0][0], got->rows()[0][1]);

  // The scripted faults really happened: the fault plane counted them.
  EXPECT_GT(harness->faults_injected(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, FederationChaosTransportTest,
    ::testing::Values(ChaosTransportKind::kSimulator,
                      ChaosTransportKind::kChaosOverEpoll),
    [](const ::testing::TestParamInfo<ChaosTransportKind>& info) {
      return info.param == ChaosTransportKind::kSimulator ? "Simulator"
                                                          : "ChaosOverEpoll";
    });

// Undeploy under live traffic: the consumer's event loop keeps pushing
// deliveries into the subscription an undeploy is tearing down. A push
// that found the subscription must be over before the sensor owning the
// wrapper is destroyed (the TSan job runs this test), and the last
// redeploy must stream again, exactly once.
TEST(FederationUndeployTest, RedeployMirrorWhileProducerStreamsOverEpoll) {
  EpollChaosHarness harness;  // no chaos rules: a clean TCP link
  Container* producer = harness.producer();
  Container* consumer = harness.consumer();
  ASSERT_NE(producer, nullptr);
  ASSERT_NE(consumer, nullptr);
  ASSERT_TRUE(producer->Deploy(GeneratorProducerXml("gen", "churn")).ok());
  for (int i = 0; i < 100 && consumer->Discover({{"type", "churn"}}).empty();
       ++i) {
    ASSERT_TRUE(harness.Step(100 * kMicrosPerMilli).ok());
  }
  ASSERT_FALSE(consumer->Discover({{"type", "churn"}}).empty());

  // A second of virtual time per step: ten readings per producer tick,
  // each a delivery on the consumer's loop thread.
  std::atomic<bool> streaming{true};
  std::atomic<int> failed_steps{0};
  std::thread streamer([&] {
    while (streaming.load()) {
      if (!harness.Step(kMicrosPerSecond).ok()) failed_steps.fetch_add(1);
    }
  });
  const std::string mirror_xml = RemoteConsumerXml(
      "mirror", "churn",
      "<field name=\"seq\" type=\"integer\"/>"
      "<field name=\"value\" type=\"double\"/>");
  const auto admitted = [&] {
    const RemoteStreamWrapper* remote = FindRemote(consumer, "mirror");
    return remote == nullptr ? 0 : remote->admitted_count();
  };
  const auto wait_for_rows = [&](int64_t rows) {
    for (int i = 0; i < 2000 && admitted() < rows; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return admitted() >= rows;
  };
  // No ASSERT until the streamer is joined: every exit path must join it.
  bool churned = true;
  int streamed_rounds = 0;
  for (int round = 0; round < 30 && churned; ++round) {
    churned = consumer->Deploy(mirror_xml).ok();
    if (churned && wait_for_rows(1)) ++streamed_rounds;
    churned = churned && consumer->Undeploy("mirror").ok();
  }
  const bool redeployed = churned && consumer->Deploy(mirror_xml).ok();
  const bool final_streams = redeployed && wait_for_rows(20);
  streaming.store(false);
  streamer.join();

  ASSERT_TRUE(churned);
  ASSERT_TRUE(redeployed);
  EXPECT_EQ(failed_steps.load(), 0);
  // Traffic overlapped the undeploys: rows reached the mirror.
  EXPECT_GT(streamed_rounds, 0);
  EXPECT_TRUE(final_streams) << admitted();
  const RemoteStreamWrapper* remote = FindRemote(consumer, "mirror");
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->duplicate_count(), 0);
  EXPECT_EQ(remote->abandoned_count(), 0);
}

}  // namespace
}  // namespace gsn::container
