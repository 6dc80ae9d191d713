// Arrival rounds (docs/PERFORMANCE.md §7): an element that a
// wrapper="remote" or wrapper="local" source offers into its admission
// queue wakes its consumer, and Container::TickArrivals() drains it
// between interval Ticks. These
// tests pin what counts as an arrival, that arrival rounds store exactly
// the rows interval Ticks store, that a delivery no longer waits for the
// consumer's next interval round, and that a sensor which cannot run
// does not spin its pump.

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
  EXPECT_EQ(reply.rfind("ERROR", 0), std::string::npos) << line << ": " << reply;
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

int64_t ArrivalRounds(Container* node) {
  return node->metrics()
      ->GetHistogram("gsn_tick_phase_micros",
                     {{"node", node->node_id()}, {"phase", "arrival"}})
      ->TakeSnapshot()
      .count;
}

/// Runs arrival rounds until one produces nothing (a chained consumer
/// is woken by the round that drains its producer).
int DrainArrivals(Container* node) {
  int produced = 0;
  for (int round = 0; round < 8; ++round) {
    const int n = node->TickArrivals();
    produced += n;
    if (n == 0) break;
  }
  return produced;
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

// ------------------------------------------------- Arrival rounds, exactly

Container::Options OneShard(const std::string& node,
                            std::shared_ptr<Clock> clock) {
  Container::Options options;
  options.node_id = node;
  options.clock = std::move(clock);
  options.seed = 41;
  options.sharding.shards = 1;
  return options;
}

// An arrival round drains only what was woken: the consumer that sorts
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
  EXPECT_TRUE(container.WaitForArrival(Steady::now(), never));
  EXPECT_FALSE(container.WaitForArrival(Steady::now(), never));
  const size_t produced_before = Rows(&container, "zz-gen").size();
  const size_t chained_before = Rows(&container, "aa-chain").size();
  clock->Advance(kStep);  // the generator is due again, but not woken
  EXPECT_EQ(container.TickArrivals(), 1);
  EXPECT_EQ(Rows(&container, "aa-chain").size(), chained_before + 1);
  EXPECT_EQ(Rows(&container, "zz-gen").size(), produced_before);
  EXPECT_EQ(container.TickArrivals(), 0);
  EXPECT_EQ(ArrivalRounds(&container), 2);
}

// A FAILED consumer keeps its wake: after the round that finds it
// FAILED, further pushes signal nothing. A paused one is left to Tick().
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
  ASSERT_TRUE(container.WaitForArrival(Steady::now(), never));
  EXPECT_EQ(container.TickArrivals(), 0);  // fails: paused for 10 s
  ASSERT_EQ(state(), Container::SensorState::kRestarting);
  // Paused: Tick collects it (pumping its sources) and so clears its
  // flag; the push after that wakes once, and the round leaves it be.
  tick();
  EXPECT_TRUE(container.WaitForArrival(Steady::now(), never));
  EXPECT_EQ(container.TickArrivals(), 0);
  EXPECT_EQ(state(), Container::SensorState::kRestarting);
  EXPECT_FALSE(container.WaitForArrival(Steady::now(), never));
  // Resumed by Tick (which drains it), it fails again: FAILED.
  clock->Advance(10 * kMicrosPerSecond);
  ASSERT_TRUE(container.Tick().ok());
  ASSERT_EQ(state(), Container::SensorState::kFailed);
  (void)container.WaitForArrival(Steady::now(), never);
  container.TickArrivals();
  for (int i = 0; i < 5; ++i) {
    tick();
    EXPECT_FALSE(container.WaitForArrival(Steady::now(), never)) << i;
  }
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
/// network pump is followed by arrival rounds, as the RealtimePump runs
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
  // Arrival rounds did the draining in one run and changed no row.
  EXPECT_EQ(interval.arrival_outputs, 0);
  EXPECT_GT(woken.arrival_outputs, 0);
  ASSERT_FALSE(interval.mirror.empty());
  EXPECT_EQ(woken.mirror, interval.mirror);
  EXPECT_EQ(interval.chain, interval.mirror);
  EXPECT_EQ(woken.chain, interval.chain);
}

// A local chain on one shard whose consumer sorts before its producer:
// interval Ticks deliver each output one round late, arrival rounds at
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
    producer_ = std::make_unique<Container>(Options("producer", &producer_net_));
    consumer_ = std::make_unique<Container>(Options("consumer", &consumer_net_));
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
  EXPECT_GT(ArrivalRounds(pair.consumer()), 0);
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
// Its flag stays set, so they wake nothing: arrival rounds stay rare.
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
    const int64_t rounds_before = ArrivalRounds(pair.consumer());
    const int64_t received_before = remote.received_count();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    rounds = ArrivalRounds(pair.consumer()) - rounds_before;
    deliveries = remote.received_count() - received_before;
  }
  producer_pump.Stop();
  consumer_pump.Stop();
  ASSERT_TRUE(failed);
  EXPECT_GT(deliveries, 20);
  EXPECT_LT(rounds, 20);
}

// ROADMAP item 1's probe under a 100 ms pump: a 1 kHz producer feeds a
// local consumer that divides by zero until the producer's seq reaches
// 1000. The consumer is paused for restart backoff, resumes, and then
// catches up with every push that arrived while it was paused.
TEST(ArrivalRealtimeTest, PausedLocalConsumerCatchesUpAfterResume) {
  Container::Options options = OneShard("paused", SystemClock::Shared());
  options.supervision.retry.initial_backoff_micros = 150 * kMicrosPerMilli;
  options.supervision.retry.multiplier = 1.0;
  options.supervision.retry.jitter = 0.0;
  options.supervision.retry.max_attempts = 1000;
  Container container(std::move(options));
  auto producer = container.Deploy(GeneratorXml("zz-gen", "gen", 1));
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE(container
                  .Deploy(ConsumerXml("aa-div", "local", "gen",
                                      "select seq from src where "
                                      "1 / (seq / 1000) > -1"))
                  .ok());
  std::atomic<int64_t> last_produced{0};
  (*producer)->AddListener(
      [&](const vsensor::VirtualSensor&, const StreamElement& element) {
        last_produced.store(element.values[0].int_value());
      });
  RealtimePump pump(&container, 100 * kMicrosPerMilli);
  const int64_t start = telemetry::SteadyClock::Instance()->NowMicros();
  pump.Start();
  const bool resumed = WaitFor(
      [&] { return !Rows(&container, "aa-div").empty(); }, 8000);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
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
  EXPECT_LT(static_cast<double>(ArrivalRounds(&container)), 20 * seconds);
  // No more pushes: the last rounds drain what is queued, and the
  // consumer's newest row is the producer's newest output.
  ASSERT_TRUE(container.Undeploy("zz-gen").ok());
  ASSERT_TRUE(container.Tick().ok());
  auto newest = container.Query("select max(seq) from \"aa-div\"");
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->rows()[0][0].int_value(), last_produced.load());
}

}  // namespace
}  // namespace gsn::container
