// Push admission: a wrapper="local" chain and a wrapper="remote"
// delivery enter the consumer's bounded admission queue directly
// (StreamSource::Offer), so the bound, the shed policy and
// gsn_admission_* cover pushed elements as they cover polled ones. A
// consumer that cannot run (FAILED) therefore holds at most its queue
// capacity, whatever its producer keeps pushing.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/container/federation.h"
#include "gsn/container/local_stream_wrapper.h"
#include "gsn/network/remote_stream_wrapper.h"
#include "gsn/vsensor/stream_source.h"

namespace gsn::container {
namespace {

using vsensor::ShedPolicy;
using vsensor::StreamSource;

constexpr Timestamp kStep = 100 * kMicrosPerMilli;
constexpr int64_t kCapacity = 16;
constexpr auto kFailed = Container::SensorState::kFailed;

/// A generator producer published as `type`: one `seq` every
/// `interval_ms`.
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

/// A consumer of `type` through `wrapper` whose query divides by zero,
/// so it fails on its first trigger. Its source holds kCapacity
/// elements under drop-oldest.
std::string DividerXml(const std::string& name, const std::string& wrapper,
                       const std::string& type) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<output-structure><field name=\"seq\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\" "
         "queue-capacity=\"" + std::to_string(kCapacity) + "\" "
         "shed-policy=\"drop-oldest\">"
         "    <address wrapper=\"" + wrapper + "\">"
         "      <predicate key=\"type\" val=\"" + type + "\"/>"
         "    </address>"
         "    <query>select * from wrapper</query>"
         "  </stream-source>"
         "  <query>select seq / 0 as seq from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

/// Counts the output elements of a sensor, i.e. the pushes its
/// chained or remote consumers receive.
class OutputCounter {
 public:
  explicit OutputCounter(vsensor::VirtualSensor* sensor) {
    sensor->AddListener(
        [this](const vsensor::VirtualSensor&, const StreamElement&) {
          ++count_;
        });
  }
  int64_t count() const { return count_; }

 private:
  int64_t count_ = 0;
};

Container::SensorState StateOf(Container* node, const std::string& sensor) {
  return node->GetSensorStatus(sensor)->state;
}

// A FAILED local consumer is skipped by every round, yet its producer
// keeps pushing one output per step into it: the queue stays at its
// capacity and every push beyond it is shed and counted.
TEST(PushAdmissionTest, FailedLocalConsumerStaysBounded) {
  auto clock = std::make_shared<VirtualClock>();
  Container::Options options;
  options.node_id = "chain";
  options.clock = clock;
  options.seed = 5;
  options.sharding.shards = 1;
  options.supervision.retry.max_attempts = 1;  // the first failure is final
  Container container(std::move(options));
  // One shard drains in name order: the producer pushes before the
  // consumer drains, so the failing round leaves the queue empty.
  auto producer = container.Deploy(GeneratorXml("aa-gen", "gen", 10));
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE(container.Deploy(DividerXml("zz-div", "local", "gen")).ok());
  for (int i = 0; i < 10 && StateOf(&container, "zz-div") != kFailed; ++i) {
    clock->Advance(kStep);
    ASSERT_TRUE(container.Tick().ok());
  }
  ASSERT_EQ(StateOf(&container, "zz-div"), kFailed);
  const auto failed = container.GetSensorStatus("zz-div");
  ASSERT_EQ(failed->queue_depth, 0u);
  ASSERT_EQ(failed->shed, 0);

  OutputCounter pushes(*producer);
  for (int i = 0; i < 300; ++i) {
    clock->Advance(kStep);
    ASSERT_TRUE(container.Tick().ok());
  }
  ASSERT_GT(pushes.count(), 10 * kCapacity);
  const auto status = container.GetSensorStatus("zz-div");
  EXPECT_EQ(status->state, kFailed);
  EXPECT_EQ(status->queue_depth, static_cast<size_t>(kCapacity));
  EXPECT_EQ(status->shed, pushes.count() - kCapacity);
}

// The same over the federation: a FAILED remote consumer keeps
// receiving deliveries. Each one enters the bounded queue (drop-oldest
// evicts the oldest), none waits in the wrapper, and every sequence the
// producer assigned is admitted, abandoned, or still missing.
TEST(PushAdmissionTest, FailedRemoteConsumerStaysBounded) {
  Federation fed(17);
  Container* producer_node = *fed.AddNode("producer");
  Container* consumer_node = *fed.AddNode("consumer");
  auto producer = producer_node->Deploy(GeneratorXml("gen", "gen", 10));
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE(fed.RunFor(kMicrosPerSecond, kStep).ok());
  ASSERT_TRUE(consumer_node->Deploy(DividerXml("div", "remote", "gen")).ok());
  // Supervised restarts back off for about 12 s before the sensor FAILs.
  for (int i = 0; i < 600 && StateOf(consumer_node, "div") != kFailed; ++i) {
    ASSERT_TRUE(fed.Step(kStep).ok());
  }
  ASSERT_EQ(StateOf(consumer_node, "div"), kFailed);
  const auto& remote = dynamic_cast<const network::RemoteStreamWrapper&>(
      consumer_node->FindSensor("div")->FindSource("in", "src")->wrapper());
  const auto failed = consumer_node->GetSensorStatus("div");
  const int64_t admitted_before = remote.admitted_count();

  for (int i = 0; i < 300; ++i) ASSERT_TRUE(fed.Step(kStep).ok());
  // Pushes since the failing drain: what it left queued plus every
  // sequence taken since.
  const int64_t taken = remote.admitted_count() - admitted_before;
  const int64_t pushes = static_cast<int64_t>(failed->queue_depth) + taken;
  ASSERT_GT(pushes, 10 * kCapacity);
  const auto status = consumer_node->GetSensorStatus("div");
  EXPECT_EQ(status->state, kFailed);
  EXPECT_EQ(status->queue_depth, static_cast<size_t>(kCapacity));
  EXPECT_EQ(status->shed - failed->shed, pushes - kCapacity);

  int64_t accounted = remote.admitted_count() + remote.abandoned_count();
  for (const network::SeqRange& range : remote.MissingRanges()) {
    accounted += static_cast<int64_t>(range.to - range.from + 1);
  }
  EXPECT_EQ(static_cast<int64_t>(remote.max_seen_sequence()), accounted);
  EXPECT_GT(remote.max_seen_sequence(), 0u);
}

// An arrival is an element entering the queue: an offer that takes
// elements only to shed them, refuses them, or is empty wakes nobody.
TEST(PushAdmissionTest, OfferThatEnqueuesNothingDoesNotWake) {
  constexpr auto kShed = StreamSource::WhenBlocked::kShed;
  constexpr auto kRefuse = StreamSource::WhenBlocked::kRefuse;
  const auto seq = [](int64_t value) {
    StreamElement element;
    element.timed = value;
    element.values = {Value::Int(value)};
    return element;
  };
  vsensor::StreamSourceSpec spec;
  spec.alias = "src";
  const Schema schema({Field{"seq", DataType::kInt}});
  const auto make = [&] {
    auto wrapper = std::make_unique<LocalStreamWrapper>(schema);
    return std::make_unique<StreamSource>(spec, std::move(wrapper), 1);
  };
  int wakes = 0;
  const auto wake = [&] { ++wakes; };

  auto newest = make();
  newest->ConfigureAdmission("s", 2, ShedPolicy::kDropNewest, nullptr, wake);
  EXPECT_EQ(newest->Offer({seq(1), seq(2)}, kShed), 2u);
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(newest->Offer({seq(3)}, kShed), 1u);  // full: taken and shed
  EXPECT_EQ(newest->Offer({}, kShed), 0u);
  EXPECT_EQ(newest->shed_count(), 1);
  EXPECT_EQ(wakes, 1);
  // Draining: a chain's offer is shed, a remote one refused.
  newest->SetAdmitting(false);
  ASSERT_EQ(newest->Poll(0)->size(), 2u);
  EXPECT_EQ(newest->Offer({seq(4)}, kShed), 1u);
  EXPECT_EQ(newest->Offer({seq(5)}, kRefuse), 0u);
  EXPECT_EQ(newest->shed_count(), 2);
  EXPECT_EQ(newest->queue_depth(), 0u);
  EXPECT_EQ(wakes, 1);

  wakes = 0;
  auto block = make();
  block->ConfigureAdmission("s", 1, ShedPolicy::kBlock, nullptr, wake);
  EXPECT_EQ(block->Offer({seq(1), seq(2)}, kRefuse), 1u);  // 2 refused
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(block->Offer({seq(2)}, kRefuse), 0u);
  EXPECT_EQ(block->shed_count(), 0);
  EXPECT_EQ(block->Offer({seq(2)}, kShed), 1u);
  EXPECT_EQ(block->shed_count(), 1);
  EXPECT_EQ(block->queue_depth(), 1u);
  EXPECT_EQ(wakes, 1);
}

}  // namespace
}  // namespace gsn::container
