// Wake rounds (docs/PERFORMANCE.md §7): an element that a
// wrapper="remote" or wrapper="local" source offers into its admission
// queue wakes its consumer, and the next round drains it, before the
// pump's interval has passed. These tests pin what counts as an
// arrival, that wake rounds store exactly the rows interval rounds
// store, that a delivery does not wait for the consumer's next interval
// round, and that a sensor which cannot run does not spin its pump.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/container/local_stream_wrapper.h"
#include "gsn/container/management_interface.h"
#include "gsn/container/realtime_pump.h"
#include "gsn/network/chaos_transport.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/network/remote_stream_wrapper.h"
#include "gsn/network/simulator.h"
#include "remote_sink.h"

namespace gsn::container {
namespace {

using network::EpollTransport;
using network::RemoteStreamWrapper;
using Steady = std::chrono::steady_clock;

constexpr Timestamp kStep = 100 * kMicrosPerMilli;

StreamElement Seq(int64_t seq) {
  StreamElement element;
  element.timed = seq;
  element.values = {Value::Int(seq)};
  return element;
}

Schema SeqSchema() { return Schema({Field{"seq", DataType::kInt}}); }

/// A generator producer: one `seq` every `interval_ms`.
std::string GeneratorXml(const std::string& name, const std::string& type,
                         int interval_ms) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata><predicate key=\"type\" val=\"" + type + "\"/></metadata>"
         "<output-structure><field name=\"seq\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"generator\">"
         "      <predicate key=\"interval-ms\" val=\"" +
         std::to_string(interval_ms) + "\"/>"
         "      <predicate key=\"payload-bytes\" val=\"0\"/>"
         "    </address>"
         "    <query>select seq from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

/// A consumer of the sensor published with `type`, through `wrapper`
/// ("local" or "remote"), whose stream query is `query` over alias src.
std::string ConsumerXml(const std::string& name, const std::string& wrapper,
                        const std::string& type, const std::string& query,
                        const std::string& fields =
                            "<field name=\"seq\" type=\"integer\"/>",
                        const std::string& extra = "") {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata><predicate key=\"type\" val=\"" + name +
         "\"/></metadata>"
         "<output-structure>" + fields + "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"" + wrapper + "\">"
         "      <predicate key=\"type\" val=\"" + type + "\"/>" + extra +
         "    </address>"
         "    <query>select * from wrapper</query>"
         "  </stream-source>"
         "  <query>" + query + "</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

void Chaos(Container* node, const std::string& line) {
  const std::string reply = ManagementInterface(node).Execute("chaos " + line);
  EXPECT_EQ(reply.rfind("ERROR", 0), std::string::npos)
      << line << ": " << reply;
}

/// Every stored (seq, timed) of `table`, in order.
std::vector<std::string> Rows(Container* node, const std::string& table) {
  auto rows = node->Query("select seq, timed from \"" + table +
                          "\" order by timed, seq");
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> out;
  if (!rows.ok()) return out;
  for (const Relation::Row& row : rows->rows()) {
    out.push_back(row[0].ToString() + "@" + row[1].ToString());
  }
  return out;
}

/// Rounds that were not interval rounds: every round is timed in
/// gsn_tick_micros, and only interval rounds run the resilience phase.
int64_t WakeRounds(Container* node) {
  const auto count = [node](const std::string& name,
                            const telemetry::Labels& labels) {
    return node->metrics()->GetHistogram(name, labels)->TakeSnapshot().count;
  };
  return count("gsn_tick_micros", {{"node", node->node_id()}}) -
         count("gsn_tick_phase_micros",
               {{"node", node->node_id()}, {"phase", "resilience"}});
}

/// One round of a pump whose interval never passes here: it drains only
/// the sensors woken since their last drain.
int WakeRound(Container* node) {
  const Result<int> produced = node->Tick(3600 * kMicrosPerSecond);
  EXPECT_TRUE(produced.ok()) << produced.status().ToString();
  return produced.ok() ? *produced : 0;
}

/// The pump's rule between interval rounds: a round at every wake,
/// until none is pending (a chained consumer is woken by the round that
/// drains its producer).
int DrainArrivals(Container* node) {
  const std::atomic<bool> never{false};
  int produced = 0;
  for (int round = 0; round < 16 && node->WaitForArrival(0, never); ++round) {
    produced += WakeRound(node);
  }
  return produced;
}

/// Sensor pipeline drains so far, over every shard.
int64_t Drains(Container* node) {
  return node->metrics()->SumCounters("gsn_shard_ticks_total");
}

// ------------------------------------------------ What counts as an arrival

// A remote source wakes when its wrapper offers a released run into the
// admission queue, so each offer is one wake.
TEST(ArrivalWrapperTest, RemoteWakesOnlyWhenElementsAreReleasedInOrder) {
  RemoteStreamWrapper wrapper(SeqSchema(), "peer", "sensor");
  gsn::testing::RemoteSink sink(&wrapper);
  wrapper.Push(Seq(1), 1);
  EXPECT_EQ(sink.offers(), 1);
  wrapper.Push(Seq(1), 1);  // duplicate
  EXPECT_EQ(sink.offers(), 1);
  wrapper.Push(Seq(3), 3);  // parked behind the gap at 2
  EXPECT_EQ(sink.offers(), 1);
  wrapper.Push(Seq(2), 2);  // releases 2 and 3: one arrival
  EXPECT_EQ(sink.offers(), 2);
  wrapper.Push(Seq(6), 6);  // parked behind 4 and 5
  EXPECT_EQ(sink.offers(), 2);
  EXPECT_EQ(wrapper.AbandonMissingThrough(4), 1);  // 5 still missing
  EXPECT_EQ(sink.offers(), 2);
  EXPECT_EQ(wrapper.AbandonMissingThrough(5), 1);  // releases 6
  EXPECT_EQ(sink.offers(), 3);
  EXPECT_EQ(wrapper.AbandonMissingThrough(6), 0);  // nothing to release
  EXPECT_EQ(sink.offers(), 3);
  auto polled = sink.Take();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->size(), 4u);
}

// A chain offers each producer batch into the consumer's source.
TEST(ArrivalWrapperTest, LocalWakesOnEveryPushAndNonEmptyBatch) {
  int wakes = 0;
  vsensor::StreamSourceSpec spec;
  spec.alias = "src";
  vsensor::StreamSource source(
      spec, std::make_unique<LocalStreamWrapper>(SeqSchema()), 1);
  constexpr auto kDropOldest = vsensor::ShedPolicy::kDropOldest;
  constexpr auto kShed = vsensor::StreamSource::WhenBlocked::kShed;
  const auto wake = [&] { ++wakes; };
  source.ConfigureAdmission("consumer", 16, kDropOldest, nullptr, wake);
  source.Offer({Seq(1)}, kShed);
  EXPECT_EQ(wakes, 1);
  source.Offer({}, kShed);
  EXPECT_EQ(wakes, 1);
  source.Offer({Seq(2), Seq(3)}, kShed);
  EXPECT_EQ(wakes, 2);
  EXPECT_EQ(source.queue_depth(), 3u);
}

// Every other way an element reaches a source between polls wakes it
// too: a quarantine requeue, and a reconnect over a buffered backlog.
TEST(ArrivalWrapperTest, InjectAndReconnectOverABacklogWake) {
  int wakes = 0;
  vsensor::StreamSourceSpec spec;
  spec.alias = "src";
  spec.disconnect_buffer = 4;
  vsensor::StreamSource source(
      spec, std::make_unique<LocalStreamWrapper>(SeqSchema()), 1);
  source.ConfigureAdmission("consumer", 16, vsensor::ShedPolicy::kDropOldest,
                            nullptr, [&] { ++wakes; });
  source.Inject(Seq(1));
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(source.Poll(0)->size(), 1u);
  source.SetConnected(false);
  source.SetConnected(true);  // nothing buffered: nothing to replay
  EXPECT_EQ(wakes, 1);
  source.SetConnected(false);
  source.Offer({Seq(2), Seq(3)}, vsensor::StreamSource::WhenBlocked::kShed);
  EXPECT_EQ(wakes, 2);
  EXPECT_TRUE(source.Poll(0)->empty());  // buffered while disconnected
  source.SetConnected(true);
  EXPECT_EQ(wakes, 3);
  EXPECT_EQ(source.Poll(0)->size(), 2u);
}

// --------------------------------------------------- Wake rounds, exactly

Container::Options OneShard(const std::string& node,
                            std::shared_ptr<Clock> clock) {
  Container::Options options;
  options.node_id = node;
  options.clock = std::move(clock);
  options.seed = 41;
  options.sharding.shards = 1;
  return options;
}

// A wake round drains only what was woken: the consumer that sorts
// before its producer gets the producer's output at once, the producer
// itself is not polled, and a second round finds nothing.
TEST(ArrivalRoundTest, DrainsOnlyWokenSensors) {
  auto clock = std::make_shared<VirtualClock>();
  Container container(OneShard("round", clock));
  ASSERT_TRUE(container.Deploy(GeneratorXml("zz-gen", "gen", 100)).ok());
  ASSERT_TRUE(container
                  .Deploy(ConsumerXml("aa-chain", "local", "gen",
                                      "select * from src"))
                  .ok());
  const std::atomic<bool> never{false};
  for (int i = 0; i < 3; ++i) {
    clock->Advance(kStep);
    ASSERT_TRUE(container.Tick().ok());
  }
  // The producer ran after the consumer in this Tick: one wake waits.
  EXPECT_TRUE(container.WaitForArrival(0, never));
  EXPECT_FALSE(container.WaitForArrival(0, never));
  const size_t produced_before = Rows(&container, "zz-gen").size();
  const size_t chained_before = Rows(&container, "aa-chain").size();
  clock->Advance(kStep);  // the generator is due again, but not woken
  EXPECT_EQ(WakeRound(&container), 1);
  EXPECT_EQ(Rows(&container, "aa-chain").size(), chained_before + 1);
  EXPECT_EQ(Rows(&container, "zz-gen").size(), produced_before);
  EXPECT_EQ(WakeRound(&container), 0);
  EXPECT_EQ(WakeRounds(&container), 2);
}

// A FAILED consumer keeps its wake: after the round that finds it
// FAILED, further pushes signal nothing. A paused one keeps it too, and
// runs in its first round after resume_at.
TEST(ArrivalRoundTest, SensorThatCannotRunStopsSignalling) {
  auto clock = std::make_shared<VirtualClock>();
  Container::Options options = OneShard("failing", clock);
  options.supervision.retry.max_attempts = 2;
  options.supervision.retry.initial_backoff_micros = 10 * kMicrosPerSecond;
  options.supervision.retry.jitter = 0.0;
  Container container(std::move(options));
  ASSERT_TRUE(container.Deploy(GeneratorXml("zz-gen", "gen", 100)).ok());
  ASSERT_TRUE(container
                  .Deploy(ConsumerXml("aa-div", "local", "gen",
                                      "select seq / 0 as seq from src"))
                  .ok());
  const std::atomic<bool> never{false};
  const auto tick = [&] {
    clock->Advance(kStep);
    ASSERT_TRUE(container.Tick().ok());
  };
  const auto state = [&] { return container.GetSensorStatus("aa-div")->state; };
  tick();  // anchors the generator
  tick();  // first output, pushed after the consumer's drain
  ASSERT_TRUE(container.WaitForArrival(0, never));
  EXPECT_EQ(WakeRound(&container), 0);  // fails: paused for 10 s
  ASSERT_EQ(state(), Container::SensorState::kRestarting);
  // Paused: its flag was cleared by the drain that failed; the next
  // push wakes once, and the round leaves it be.
  tick();
  EXPECT_TRUE(container.WaitForArrival(0, never));
  EXPECT_EQ(WakeRound(&container), 0);
  EXPECT_EQ(state(), Container::SensorState::kRestarting);
  EXPECT_FALSE(container.WaitForArrival(0, never));
  // Resumed with its wake kept, it is drained and fails again: FAILED.
  clock->Advance(10 * kMicrosPerSecond);
  ASSERT_TRUE(container.Tick().ok());
  ASSERT_EQ(state(), Container::SensorState::kFailed);
  (void)container.WaitForArrival(0, never);
  WakeRound(&container);
  for (int i = 0; i < 5; ++i) {
    tick();
    EXPECT_FALSE(container.WaitForArrival(0, never)) << i;
  }
}

/// A pull wrapper fed by the test: Feed() queues a `seq` and calls the
/// ready hook, as a serial port or a feed thread learns of data.
class FedWrapper : public wrappers::Wrapper {
 public:
  explicit FedWrapper(std::function<void()> ready)
      : ready_(std::move(ready)) {}
  const Schema& output_schema() const override { return schema_; }
  std::string type_name() const override { return "fed"; }
  Result<std::vector<StreamElement>> Poll(Timestamp) override {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(pending_, {});
  }
  void Feed(int64_t seq) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(Seq(seq));
    }
    ready_();
  }

 private:
  const Schema schema_ = SeqSchema();
  const std::function<void()> ready_;
  std::mutex mu_;
  std::vector<StreamElement> pending_;
};

// A pull sensor is polled by interval rounds, and by a wake round only
// once its wrapper has called the ready hook.
TEST(ArrivalRoundTest, ReadyHookDrainsAPullSensorBeforeItsInterval) {
  auto clock = std::make_shared<VirtualClock>();
  Container container(OneShard("ready", clock));
  FedWrapper* fed = nullptr;
  container.wrapper_registry().Register(
      "fed", [&fed](const wrappers::WrapperConfig& config)
                 -> Result<std::unique_ptr<wrappers::Wrapper>> {
        auto wrapper = std::make_unique<FedWrapper>(config.ready);
        fed = wrapper.get();
        return std::unique_ptr<wrappers::Wrapper>(std::move(wrapper));
      });
  ASSERT_TRUE(
      container.Deploy(ConsumerXml("fed", "fed", "none", "select * from src"))
          .ok());
  ASSERT_NE(fed, nullptr);
  const std::atomic<bool> never{false};
  clock->Advance(kStep);
  ASSERT_TRUE(container.Tick().ok());  // an interval round polls it
  EXPECT_EQ(Drains(&container), 1);
  EXPECT_FALSE(container.WaitForArrival(0, never));
  EXPECT_EQ(WakeRound(&container), 0);  // neither woken nor due
  EXPECT_EQ(Drains(&container), 1);
  fed->Feed(7);
  EXPECT_TRUE(container.WaitForArrival(0, never));
  EXPECT_EQ(WakeRound(&container), 1);
  EXPECT_EQ(Drains(&container), 2);
  EXPECT_EQ(Rows(&container, "fed").size(), 1u);
}

// A sensor whose sources all push runs only when woken: interval rounds
// leave it be.
TEST(ArrivalRoundTest, UnwokenPushOnlySensorIsNotDrainedByIntervalRounds) {
  auto clock = std::make_shared<VirtualClock>();
  Container container(OneShard("idle", clock));
  ASSERT_TRUE(container.Deploy(GeneratorXml("gen", "gen", 100)).ok());
  ASSERT_TRUE(container
                  .Deploy(ConsumerXml("chain", "local", "gen",
                                      "select * from src"))
                  .ok());
  ASSERT_TRUE(container.Undeploy("gen").ok());  // nothing feeds the chain
  const int64_t before = Drains(&container);
  constexpr int kRounds = 10;
  for (int i = 0; i < kRounds; ++i) {
    clock->Advance(kStep);
    ASSERT_TRUE(container.Tick().ok());
  }
  EXPECT_EQ(Drains(&container) - before, 0);
}

/// A local consumer of "gen" whose pipeline divides by zero at seq 3.
std::string PoisonAtThree(const std::string& name) {
  return ConsumerXml(name, "local", "gen",
                     "select seq, 1 / (seq - 3) as inv from src",
                     "<field name=\"seq\" type=\"integer\"/>"
                     "<field name=\"inv\" type=\"integer\"/>");
}

/// Interval rounds until a sensor has quarantined a tuple (and so is
/// paused for its restart backoff).
void TickUntilQuarantined(Container* container, VirtualClock* clock) {
  for (int i = 0; i < 20 && container->quarantine().size() == 0; ++i) {
    clock->Advance(kStep);
    ASSERT_TRUE(container->Tick().ok());
  }
  ASSERT_EQ(container->quarantine().size(), 1u);
}

// A requeued tuple wakes its sensor: a push-only consumer drains it in
// the next round, with no interval deadline.
TEST(ArrivalRoundTest, RequeuedTupleWakesItsPushOnlyConsumer) {
  auto clock = std::make_shared<VirtualClock>();
  Container::Options options = OneShard("requeue", clock);
  options.supervision.retry.initial_backoff_micros = kStep;
  options.supervision.retry.jitter = 0.0;
  Container container(std::move(options));
  ASSERT_TRUE(container.Deploy(GeneratorXml("zz-gen", "gen", 100)).ok());
  ASSERT_TRUE(container.Deploy(PoisonAtThree("aa-poison")).ok());
  TickUntilQuarantined(&container, clock.get());
  ASSERT_TRUE(container.Undeploy("zz-gen").ok());  // no more pushes
  clock->Advance(kMicrosPerSecond);                // past the backoff
  DrainArrivals(&container);
  const std::atomic<bool> never{false};
  ASSERT_FALSE(container.WaitForArrival(0, never));
  const vsensor::StreamSource* source =
      container.FindSensor("aa-poison")->FindSource("in", "src");
  const int64_t admitted = source->admitted_count();
  ASSERT_TRUE(
      container.RequeueQuarantined(container.quarantine().List()[0].id).ok());
  EXPECT_TRUE(container.WaitForArrival(0, never));
  WakeRound(&container);
  EXPECT_EQ(source->admitted_count(), admitted + 1);
}

// A paused push-only consumer woken during its backoff keeps its wake,
// and drains in its first round after resume_at, though nothing has
// signalled since. It sorts after its producer, so every interval round
// offers into it before reaching it: a round that collected it to pump
// and cleared its flag would lose the wake.
TEST(ArrivalRoundTest, PausedPushOnlyConsumerDrainsInItsFirstRoundAfterResume) {
  auto clock = std::make_shared<VirtualClock>();
  Container::Options options = OneShard("resume", clock);
  options.supervision.retry.initial_backoff_micros = 10 * kMicrosPerSecond;
  options.supervision.retry.jitter = 0.0;
  Container container(std::move(options));
  ASSERT_TRUE(container.Deploy(GeneratorXml("aa-gen", "gen", 100)).ok());
  ASSERT_TRUE(container.Deploy(PoisonAtThree("zz-poison")).ok());
  TickUntilQuarantined(&container, clock.get());
  const auto state = [&] {
    return container.GetSensorStatus("zz-poison")->state;
  };
  ASSERT_EQ(state(), Container::SensorState::kRestarting);
  const size_t rows = Rows(&container, "zz-poison").size();
  for (int i = 0; i < 2; ++i) {  // the producer pushes during the backoff
    clock->Advance(kStep);
    ASSERT_TRUE(container.Tick().ok());
  }
  DrainArrivals(&container);
  EXPECT_EQ(Rows(&container, "zz-poison").size(), rows);
  ASSERT_TRUE(container.Undeploy("aa-gen").ok());
  clock->Advance(10 * kMicrosPerSecond);
  const std::atomic<bool> never{false};
  EXPECT_FALSE(container.WaitForArrival(0, never));
  WakeRound(&container);
  EXPECT_EQ(state(), Container::SensorState::kRunning);
  EXPECT_EQ(Rows(&container, "zz-poison").size(), rows + 1);
}

// ------------------------------------------------- Differential: exactness

struct DifferentialRun {
  std::vector<std::string> mirror;
  std::vector<std::string> chain;
  int64_t gaps = 0;
  int64_t abandoned = 0;
  int arrival_outputs = 0;
};

/// A finite CSV feed on `producer`, mirrored over a 20%-lossy chaos link
/// into `mirror` on `consumer`, and chained locally from there into
/// `a-chain` (which sorts before `mirror`). Both nodes are single-shard,
/// so each Tick drains in one fixed order. With `arrivals`, every
/// network pump is followed by wake rounds, as the RealtimePump runs
/// them; without, only Tick() drains.
DifferentialRun RunLossyMirror(bool arrivals, const std::string& csv_path) {
  DifferentialRun run;
  auto clock = std::make_shared<VirtualClock>();
  network::NetworkSimulator net(2026);
  std::vector<std::unique_ptr<network::ChaosTransport>> links;
  std::vector<std::unique_ptr<Container>> nodes;  // destroyed before links
  for (const char* id : {"consumer", "producer"}) {
    network::ChaosTransport::Options chaos_options;
    chaos_options.seed = 7 + links.size();
    links.push_back(
        std::make_unique<network::ChaosTransport>(&net, chaos_options));
    Container::Options options = OneShard(id, clock);
    options.network = links.back().get();
    nodes.push_back(std::make_unique<Container>(std::move(options)));
  }
  Container* consumer = nodes[0].get();
  Container* producer = nodes[1].get();
  const auto pump_arrivals = [&] {
    if (!arrivals) return;
    for (auto& node : nodes) run.arrival_outputs += DrainArrivals(node.get());
  };
  const auto step = [&] {
    clock->Advance(kStep);
    const Timestamp now = clock->NowMicros();
    net.Pump(now);
    pump_arrivals();
    for (auto& node : nodes) EXPECT_TRUE(node->Tick().ok());
    net.Pump(now);
    pump_arrivals();
  };
  const std::string feed =
      "<virtual-sensor name=\"feed\">"
      "<metadata><predicate key=\"type\" val=\"lossy\"/></metadata>"
      "<output-structure><field name=\"seq\" type=\"integer\"/>"
      "</output-structure>"
      "<input-stream name=\"in\">"
      "  <stream-source alias=\"src\" storage-size=\"1\">"
      "    <address wrapper=\"csv\">"
      "      <predicate key=\"file\" val=\"" + csv_path + "\"/>"
      "      <predicate key=\"interval\" val=\"100ms\"/>"
      "    </address>"
      "    <query>select seq from wrapper</query>"
      "  </stream-source>"
      "  <query>select * from src</query>"
      "</input-stream>"
      "</virtual-sensor>";
  EXPECT_TRUE(producer->Deploy(feed).ok());
  for (int i = 0; i < 50 && consumer->Discover({{"type", "lossy"}}).empty();
       ++i) {
    step();
  }
  // One NACK attempt, then the gap is abandoned: both repair paths run.
  EXPECT_TRUE(consumer
                  ->Deploy(ConsumerXml(
                      "mirror", "remote", "lossy", "select * from src",
                      "<field name=\"seq\" type=\"integer\"/>",
                      "<predicate key=\"retry-max-attempts\" val=\"1\"/>"
                      "<predicate key=\"retry-max-backoff\" val=\"200ms\"/>"))
                  .ok());
  EXPECT_TRUE(consumer
                  ->Deploy(ConsumerXml("a-chain", "local", "mirror",
                                       "select * from src"))
                  .ok());
  for (int i = 0; i < 10; ++i) step();
  Chaos(consumer, "loss producer 0.2 in");
  for (int i = 0; i < 150; ++i) step();
  Chaos(consumer, "heal producer");
  for (int i = 0; i < 100; ++i) step();
  run.mirror = Rows(consumer, "mirror");
  run.chain = Rows(consumer, "a-chain");
  run.gaps = consumer->metrics()->SumCounters("gsn_federation_gaps_total");
  run.abandoned =
      consumer->metrics()->SumCounters("gsn_federation_abandoned_total");
  return run;
}

TEST(ArrivalDifferentialTest, LossyRemoteAndLocalChainStoreTheSameRows) {
  const std::string csv_path =
      (std::filesystem::temp_directory_path() /
       ("gsn_arrival_" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    // 120 rows every 100 ms, from 2 s after the producer's first poll.
    std::ofstream out(csv_path);
    out << "timed,seq\n";
    for (int i = 0; i < 120; ++i) {
      out << (2 * kMicrosPerSecond + i * kStep) << "," << (i + 1) << "\n";
    }
  }
  const DifferentialRun interval = RunLossyMirror(false, csv_path);
  const DifferentialRun woken = RunLossyMirror(true, csv_path);
  std::filesystem::remove(csv_path);

  // The same frames were lost, repaired and abandoned in both runs.
  EXPECT_GT(interval.gaps, 0);
  EXPECT_GT(interval.abandoned, 0);
  EXPECT_EQ(woken.gaps, interval.gaps);
  EXPECT_EQ(woken.abandoned, interval.abandoned);
  // Wake rounds did the draining in one run and changed no row.
  EXPECT_EQ(interval.arrival_outputs, 0);
  EXPECT_GT(woken.arrival_outputs, 0);
  ASSERT_FALSE(interval.mirror.empty());
  EXPECT_EQ(woken.mirror, interval.mirror);
  EXPECT_EQ(interval.chain, interval.mirror);
  EXPECT_EQ(woken.chain, interval.chain);
}

// A local chain on one shard whose consumer sorts before its producer:
// interval Ticks deliver each output one round late, wake rounds at
// once, and both store the same rows.
TEST(ArrivalDifferentialTest, LocalChainStoresTheSameRows) {
  const auto run = [](bool arrivals) {
    auto clock = std::make_shared<VirtualClock>();
    Container container(OneShard("chain", clock));
    EXPECT_TRUE(container.Deploy(GeneratorXml("zz-gen", "gen", 30)).ok());
    EXPECT_TRUE(container
                    .Deploy(ConsumerXml("aa-chain", "local", "gen",
                                        "select * from src"))
                    .ok());
    EXPECT_TRUE(container
                    .Deploy(ConsumerXml("ab-chain", "local", "aa-chain",
                                        "select * from src"))
                    .ok());
    for (int i = 0; i < 50; ++i) {
      clock->Advance(kStep);
      EXPECT_TRUE(container.Tick().ok());
      if (arrivals) DrainArrivals(&container);
    }
    // No more pushes; what is queued drains on the last rounds.
    EXPECT_TRUE(container.Undeploy("zz-gen").ok());
    for (int i = 0; i < 2; ++i) EXPECT_TRUE(container.Tick().ok());
    return std::make_pair(Rows(&container, "aa-chain"),
                          Rows(&container, "ab-chain"));
  };
  const auto interval = run(false);
  const auto woken = run(true);
  // 49 outputs: the generator's first poll only anchors its schedule.
  ASSERT_EQ(interval.first.size(), 49u);
  EXPECT_EQ(woken.first, interval.first);
  EXPECT_EQ(woken.second, interval.second);
  EXPECT_EQ(interval.second, interval.first);
}

/// A pull sensor publishing `type`: `source_query` over `wrapper`
/// (given by its address predicates), count window 1.
std::string PullXml(const std::string& name, const std::string& type,
                    const std::string& wrapper, const std::string& predicates,
                    const std::string& source_query) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata><predicate key=\"type\" val=\"" + type + "\"/></metadata>"
         "<output-structure><field name=\"seq\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"" + wrapper + "\">" + predicates +
         "    </address>"
         "    <query>" + source_query + "</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

// Generator, CSV and mote sensors, each chained locally by a consumer
// that sorts before it, on one shard. Tick() alone drains each chain a
// round late; the pump's rule (a round at every wake and at every
// interval deadline) drains it at once, and polls the pull sensors only
// at the deadlines. Both store the same rows.
TEST(ArrivalDifferentialTest, PullSensorsAndTheirChainsStoreTheSameRows) {
  const std::string csv_path =
      (std::filesystem::temp_directory_path() /
       ("gsn_pull_" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out(csv_path);
    out << "timed,seq\n";
    for (int i = 0; i < 60; ++i) {
      out << (kMicrosPerSecond + i * kStep) << "," << (i + 1) << "\n";
    }
  }
  const auto run = [&](bool wakes) {
    auto clock = std::make_shared<VirtualClock>();
    Container container(OneShard("pull", clock));
    const std::pair<const char*, std::string> producers[] = {
        {"gen", PullXml("zz-gen", "gen", "generator",
                        "<predicate key=\"interval-ms\" val=\"30\"/>"
                        "<predicate key=\"payload-bytes\" val=\"0\"/>",
                        "select seq from wrapper")},
        {"csv", PullXml("zz-csv", "csv", "csv",
                        "<predicate key=\"file\" val=\"" + csv_path +
                            "\"/><predicate key=\"interval\" val=\"70ms\"/>",
                        "select seq from wrapper")},
        {"mote", PullXml("zz-mote", "mote", "mote",
                         "<predicate key=\"interval-ms\" val=\"40\"/>",
                         "select temperature as seq from wrapper")},
    };
    for (const auto& [type, xml] : producers) {
      EXPECT_TRUE(container.Deploy(xml).ok()) << type;
      EXPECT_TRUE(container
                      .Deploy(ConsumerXml(std::string("aa-") + type, "local",
                                          type, "select * from src"))
                      .ok())
          << type;
    }
    for (int i = 0; i < 80; ++i) {
      clock->Advance(kStep);
      EXPECT_TRUE(container.Tick().ok());
      if (wakes) DrainArrivals(&container);
    }
    std::map<std::string, std::vector<std::string>> rows;
    for (const auto& [type, xml] : producers) {
      EXPECT_TRUE(container.Undeploy(std::string("zz-") + type).ok());
    }
    EXPECT_TRUE(container.Tick().ok());  // drains the last pushes
    for (const auto& [type, xml] : producers) {
      rows[type] = Rows(&container, std::string("aa-") + type);
    }
    return rows;
  };
  const auto interval = run(false);
  const auto woken = run(true);
  std::filesystem::remove(csv_path);
  for (const auto& [type, chain] : interval) {
    EXPECT_GT(chain.size(), 10u) << type;
    EXPECT_EQ(woken.at(type), chain) << type;
  }
}

// ------------------------------------------------------ Prompt, real time

/// Steady-clock times at which each `seq` reached a sensor's listeners.
class NotifyTimes {
 public:
  void Attach(vsensor::VirtualSensor* sensor) {
    sensor->AddListener(
        [this](const vsensor::VirtualSensor&, const StreamElement& element) {
          const int64_t at = telemetry::SteadyClock::Instance()->NowMicros();
          std::lock_guard<std::mutex> lock(mu_);
          times_.emplace(element.values[0].int_value(), at);
        });
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return times_.size();
  }
  /// Median, over the seqs `earlier` saw, of the time until we first saw
  /// that seq or a later one. A window-1 consumer that drains a batch
  /// outputs only its newest element, so a matched seq alone would hide
  /// the wait of the older ones.
  double MedianLagMs(const NotifyTimes& earlier) const {
    std::vector<int64_t> lags;
    std::lock_guard<std::mutex> lock(mu_);
    std::lock_guard<std::mutex> other_lock(earlier.mu_);
    for (const auto& [seq, at] : earlier.times_) {
      auto it = times_.lower_bound(seq);
      if (it != times_.end()) lags.push_back(it->second - at);
    }
    if (lags.empty()) return 1e9;
    std::sort(lags.begin(), lags.end());
    return static_cast<double>(lags[lags.size() / 2]) / kMicrosPerMilli;
  }

 private:
  mutable std::mutex mu_;
  std::map<int64_t, int64_t> times_;
};

bool WaitFor(const std::function<bool()>& done, int timeout_ms) {
  const auto deadline = Steady::now() + std::chrono::milliseconds(timeout_ms);
  while (!done()) {
    if (Steady::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// Two wall-clock containers over an EpollTransport pair on loopback.
class EpollPair {
 public:
  EpollPair() {
    ok_ = producer_net_.Start().ok() && consumer_net_.Start().ok() &&
          producer_net_.ListenPeer(0).ok() && consumer_net_.ListenPeer(0).ok();
    if (!ok_) return;
    producer_net_.AddPeer("consumer", "127.0.0.1", consumer_net_.peer_port());
    consumer_net_.AddPeer("producer", "127.0.0.1", producer_net_.peer_port());
    producer_ =
        std::make_unique<Container>(Options("producer", &producer_net_));
    consumer_ =
        std::make_unique<Container>(Options("consumer", &consumer_net_));
  }
  ~EpollPair() {
    consumer_.reset();
    producer_.reset();
    consumer_net_.Stop();
    producer_net_.Stop();
  }
  bool ok() const { return ok_; }
  Container* producer() { return producer_.get(); }
  Container* consumer() { return consumer_.get(); }

 private:
  static Container::Options Options(const std::string& node,
                                    network::Transport* net) {
    Container::Options options;
    options.node_id = node;
    options.clock = SystemClock::Shared();
    options.network = net;
    options.sharding.shards = 2;
    options.supervision.retry.max_attempts = 2;
    options.supervision.retry.initial_backoff_micros = 50 * kMicrosPerMilli;
    return options;
  }

  EpollTransport producer_net_;
  EpollTransport consumer_net_;
  std::unique_ptr<Container> producer_;
  std::unique_ptr<Container> consumer_;
  bool ok_ = false;
};

// The consumer's pump ticks once a second; a delivery over real TCP
// still reaches the consumer's listeners within milliseconds.
TEST(ArrivalRealtimeTest, RemoteConsumerOverEpollIsWokenAtOnce) {
  EpollPair pair;
  ASSERT_TRUE(pair.ok());
  auto gen = pair.producer()->Deploy(GeneratorXml("gen", "rt", 40));
  ASSERT_TRUE(gen.ok());
  ASSERT_TRUE(WaitFor(
      [&] { return !pair.consumer()->Discover({{"type", "rt"}}).empty(); },
      5000));
  auto mirror = pair.consumer()->Deploy(
      ConsumerXml("mirror", "remote", "rt", "select * from src"));
  ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();
  NotifyTimes produced, mirrored;
  produced.Attach(*gen);
  mirrored.Attach(*mirror);
  RealtimePump producer_pump(pair.producer(), 20 * kMicrosPerMilli);
  RealtimePump consumer_pump(pair.consumer(), kMicrosPerSecond);
  producer_pump.Start();
  consumer_pump.Start();
  WaitFor([&] { return mirrored.size() >= 30; }, 6000);
  producer_pump.Stop();
  consumer_pump.Stop();
  ASSERT_GE(mirrored.size(), 3u);
  EXPECT_LT(mirrored.MedianLagMs(produced), 100.0) << mirrored.size();
  EXPECT_GT(WakeRounds(pair.consumer()), 0);
}

// One shard, and the consumer sorts before its producer: within a Tick
// it is drained before the producer pushes. With a one-second pump the
// push is still consumed within milliseconds.
TEST(ArrivalRealtimeTest, LocalConsumerSortedBeforeItsProducerIsWokenAtOnce) {
  Container container(OneShard("local-rt", SystemClock::Shared()));
  auto producer = container.Deploy(GeneratorXml("zz-gen", "gen", 20));
  ASSERT_TRUE(producer.ok());
  auto consumer = container.Deploy(
      ConsumerXml("aa-chain", "local", "gen", "select * from src"));
  ASSERT_TRUE(consumer.ok());
  ASSERT_EQ(container.ShardIndexFor("aa-chain"),
            container.ShardIndexFor("zz-gen"));
  NotifyTimes produced, chained;
  produced.Attach(*producer);
  chained.Attach(*consumer);
  RealtimePump pump(&container, kMicrosPerSecond);
  pump.Start();
  const bool enough = WaitFor([&] { return chained.size() >= 3; }, 8000);
  pump.Stop();
  ASSERT_TRUE(enough) << chained.size();
  EXPECT_LT(chained.MedianLagMs(produced), 100.0);
}

// A FAILED remote consumer keeps receiving about 50 deliveries a second.
// Its flag stays set, so they wake nothing: wake rounds stay rare.
TEST(ArrivalRealtimeTest, FailedRemoteConsumerDoesNotSpinThePump) {
  EpollPair pair;
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(pair.producer()->Deploy(GeneratorXml("gen", "div", 1)).ok());
  ASSERT_TRUE(WaitFor(
      [&] { return !pair.consumer()->Discover({{"type", "div"}}).empty(); },
      5000));
  ASSERT_TRUE(pair.consumer()
                  ->Deploy(ConsumerXml("div", "remote", "div",
                                       "select seq / 0 as seq from src"))
                  .ok());
  RealtimePump producer_pump(pair.producer(), 20 * kMicrosPerMilli);
  RealtimePump consumer_pump(pair.consumer(), 100 * kMicrosPerMilli);
  producer_pump.Start();
  consumer_pump.Start();
  const bool failed = WaitFor(
      [&] {
        return pair.consumer()->GetSensorStatus("div")->state ==
               Container::SensorState::kFailed;
      },
      5000);
  int64_t rounds = 0;
  int64_t deliveries = 0;
  if (failed) {
    const auto& remote = dynamic_cast<const RemoteStreamWrapper&>(
        pair.consumer()->FindSensor("div")->FindSource("in", "src")->wrapper());
    const int64_t rounds_before = WakeRounds(pair.consumer());
    const int64_t received_before = remote.received_count();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    rounds = WakeRounds(pair.consumer()) - rounds_before;
    deliveries = remote.received_count() - received_before;
  }
  producer_pump.Stop();
  consumer_pump.Stop();
  ASSERT_TRUE(failed);
  EXPECT_GT(deliveries, 20);
  EXPECT_LT(rounds, 20);
}

// A paused push-only consumer keeps its wake. Under a 100 ms pump, a
// 1 kHz producer feeds a local consumer that divides by zero until seq
// reaches 300, so the consumer's first run fails and a one-second
// restart backoff pauses it. The producer pushes past 300 during the
// pause and is undeployed before the consumer's resume_at: nothing
// pushes after that, so only the wake the pause kept can drain the
// consumer once it resumes.
TEST(ArrivalRealtimeTest, PausedLocalConsumerCatchesUpAfterResume) {
  Container::Options options = OneShard("paused", SystemClock::Shared());
  options.supervision.retry.initial_backoff_micros = kMicrosPerSecond;
  options.supervision.retry.multiplier = 1.0;
  options.supervision.retry.jitter = 0.0;
  options.supervision.retry.max_attempts = 1000;
  Container container(std::move(options));
  auto producer = container.Deploy(GeneratorXml("zz-gen", "gen", 1));
  ASSERT_TRUE(producer.ok());
  // The consumer's queue keeps only the newest push, so once the
  // producer is past 300 no older element can fail it again.
  std::string consumer =
      ConsumerXml("aa-div", "local", "gen",
                  "select seq from src where 1 / (seq / 300) > -1");
  consumer.insert(consumer.find("storage-size"),
                  "queue-capacity=\"1\" shed-policy=\"drop-oldest\" ");
  ASSERT_TRUE(container.Deploy(consumer).ok());
  std::atomic<int64_t> last_produced{0};
  (*producer)->AddListener(
      [&](const vsensor::VirtualSensor&, const StreamElement& element) {
        last_produced.store(element.values[0].int_value());
      });
  const auto paused = [&] {
    auto status = container.GetSensorStatus("aa-div");
    return status.ok() && status->state == Container::SensorState::kRestarting;
  };
  RealtimePump pump(&container, 100 * kMicrosPerMilli);
  const int64_t start = telemetry::SteadyClock::Instance()->NowMicros();
  pump.Start();
  ASSERT_TRUE(WaitFor(paused, 5000));
  // A push past 300 that lands after the pause began, then no more.
  const int64_t seen = std::max<int64_t>(last_produced.load(), 299);
  ASSERT_TRUE(WaitFor([&] { return last_produced.load() > seen; }, 5000));
  ASSERT_TRUE(container.Undeploy("zz-gen").ok());
  ASSERT_TRUE(paused());
  const bool resumed = WaitFor(
      [&] { return !Rows(&container, "aa-div").empty(); }, 5000);
  pump.Stop();
  const double seconds =
      static_cast<double>(telemetry::SteadyClock::Instance()->NowMicros() -
                          start) /
      kMicrosPerSecond;
  ASSERT_TRUE(resumed);
  const auto status = container.GetSensorStatus("aa-div");
  ASSERT_TRUE(status.ok());
  EXPECT_GT(status->stats.errors, 0);
  EXPECT_EQ(status->state, Container::SensorState::kRunning);
  EXPECT_LT(static_cast<double>(WakeRounds(&container)), 20 * seconds);
  // The consumer's newest row is the producer's newest output.
  auto newest = container.Query("select max(seq) from \"aa-div\"");
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->rows()[0][0].int_value(), last_produced.load());
}

}  // namespace
}  // namespace gsn::container
