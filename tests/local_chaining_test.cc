// Tests for wrapper="local": virtual sensors derived from other
// virtual sensors on the same container — the second half of the
// paper's core abstraction (§2: "a virtual sensor corresponds either to
// a data stream received directly from sensors or to a data stream
// derived from other virtual sensors").

#include <gtest/gtest.h>

#include "gsn/container/container.h"

namespace gsn::container {
namespace {

constexpr char kProducerXml[] =
    "<virtual-sensor name=\"raw-temp\">"
    "<metadata><predicate key=\"type\" val=\"temperature\"/></metadata>"
    "<output-structure>"
    "  <field name=\"temperature\" type=\"integer\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1\">"
    "    <address wrapper=\"mote\">"
    "      <predicate key=\"interval-ms\" val=\"100\"/>"
    "    </address>"
    "    <query>select temperature from wrapper</query>"
    "  </stream-source>"
    "  <query>select * from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

/// A smoothing sensor chained onto raw-temp: 2-second moving average.
constexpr char kDerivedXml[] =
    "<virtual-sensor name=\"smooth-temp\">"
    "<output-structure>"
    "  <field name=\"temperature\" type=\"double\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"raw\" storage-size=\"2s\">"
    "    <address wrapper=\"local\">"
    "      <predicate key=\"type\" val=\"temperature\"/>"
    "    </address>"
    "    <query>select avg(temperature) from wrapper</query>"
    "  </stream-source>"
    "  <query>select * from raw</query>"
    "</input-stream>"
    "</virtual-sensor>";

class LocalChainingTest : public ::testing::Test {
 protected:
  LocalChainingTest() {
    clock_ = std::make_shared<VirtualClock>();
    Container::Options options;
    options.node_id = "chain-node";
    options.clock = clock_;
    options.seed = 23;
    container_ = std::make_unique<Container>(std::move(options));
  }

  void Run(Timestamp duration, Timestamp step = 100 * kMicrosPerMilli) {
    for (Timestamp t = 0; t < duration; t += step) {
      clock_->Advance(step);
      ASSERT_TRUE(container_->Tick().ok());
    }
  }

  std::shared_ptr<VirtualClock> clock_;
  std::unique_ptr<Container> container_;
};

TEST_F(LocalChainingTest, DerivedSensorReceivesProducerStream) {
  ASSERT_TRUE(container_->Deploy(kProducerXml).ok());
  auto derived = container_->Deploy(kDerivedXml);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();

  Run(3 * kMicrosPerSecond);

  auto raw = container_->Query("select count(*) from \"raw-temp\"");
  auto smooth = container_->Query(
      "select count(*), avg(temperature) from \"smooth-temp\"");
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(smooth.ok());
  const int64_t raw_count = raw->rows()[0][0].int_value();
  const int64_t smooth_count = smooth->rows()[0][0].int_value();
  EXPECT_GT(raw_count, 20);
  // Sensors tick in parallel, so several producer elements may drain in
  // one consumer poll — that is ONE trigger and one averaged output
  // (paper §3 trigger semantics). The consumer therefore produces
  // between half and all of the producer's count.
  EXPECT_GE(smooth_count, raw_count / 2);
  EXPECT_LE(smooth_count, raw_count);
  // The smoothed value sits in the same range as the raw temperature.
  const double avg = smooth->rows()[0][1].double_value();
  EXPECT_GT(avg, 0);
  EXPECT_LT(avg, 60);
}

TEST_F(LocalChainingTest, DeployFailsWithoutProducer) {
  auto derived = container_->Deploy(kDerivedXml);
  EXPECT_EQ(derived.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(container_->ListSensors().empty());
}

TEST_F(LocalChainingTest, ProducerUndeployStopsFeedConsumerSurvives) {
  ASSERT_TRUE(container_->Deploy(kProducerXml).ok());
  ASSERT_TRUE(container_->Deploy(kDerivedXml).ok());
  Run(2 * kMicrosPerSecond);
  ASSERT_TRUE(container_->Undeploy("raw-temp").ok());

  auto before = container_->Query("select count(*) from \"smooth-temp\"");
  ASSERT_TRUE(before.ok());
  const int64_t count_before = before->rows()[0][0].int_value();
  ASSERT_GT(count_before, 0);

  // Sensors tick in parallel on their life-cycle pools, so at most one
  // element can still be in the consumer's queue at undeploy time;
  // after that the stream is quiescent.
  Run(2 * kMicrosPerSecond);
  auto after = container_->Query("select count(*) from \"smooth-temp\"");
  ASSERT_TRUE(after.ok());
  const int64_t count_after = after->rows()[0][0].int_value();
  EXPECT_LE(count_after - count_before, 1);
  Run(kMicrosPerSecond);
  auto final_count = container_->Query("select count(*) from \"smooth-temp\"");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->rows()[0][0].int_value(), count_after);
  auto status = container_->GetSensorStatus("smooth-temp");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->stats.errors, 0);
}

TEST_F(LocalChainingTest, ConsumerUndeployDetachesCleanly) {
  ASSERT_TRUE(container_->Deploy(kProducerXml).ok());
  ASSERT_TRUE(container_->Deploy(kDerivedXml).ok());
  Run(kMicrosPerSecond);
  ASSERT_TRUE(container_->Undeploy("smooth-temp").ok());
  // Producer continues alone; pushing into the detached wrapper would
  // be use-after-free, so surviving this run is the assertion.
  Run(2 * kMicrosPerSecond);
  auto raw = container_->Query("select count(*) from \"raw-temp\"");
  ASSERT_TRUE(raw.ok());
  EXPECT_GT(raw->rows()[0][0].int_value(), 20);
}

// A deploy that fails after its local source was wired (here a second
// source names an unknown wrapper) unwires it again: the producer's
// later outputs and its undeploy must not reach the freed wrapper.
TEST_F(LocalChainingTest, FailedDeployUnwiresItsLocalSource) {
  ASSERT_TRUE(container_->Deploy(kProducerXml).ok());
  constexpr char kHalfWiredXml[] =
      "<virtual-sensor name=\"half-wired\">"
      "<output-structure>"
      "  <field name=\"temperature\" type=\"integer\"/>"
      "</output-structure>"
      "<input-stream name=\"in\">"
      "  <stream-source alias=\"raw\" storage-size=\"1\">"
      "    <address wrapper=\"local\">"
      "      <predicate key=\"type\" val=\"temperature\"/>"
      "    </address>"
      "    <query>select temperature from wrapper</query>"
      "  </stream-source>"
      "  <stream-source alias=\"bad\" storage-size=\"1\">"
      "    <address wrapper=\"no-such-wrapper\"/>"
      "    <query>select * from wrapper</query>"
      "  </stream-source>"
      "  <query>select * from raw</query>"
      "</input-stream>"
      "</virtual-sensor>";
  EXPECT_FALSE(container_->Deploy(kHalfWiredXml).ok());
  Run(kMicrosPerSecond);
  ASSERT_TRUE(container_->Undeploy("raw-temp").ok());
  EXPECT_EQ(container_->ListSensors().size(), 0u);
}

TEST_F(LocalChainingTest, ThreeStageChain) {
  // raw -> smooth -> alarm: a second derivation on top of the first.
  ASSERT_TRUE(container_->Deploy(kProducerXml).ok());
  ASSERT_TRUE(container_->Deploy(kDerivedXml).ok());
  constexpr char kAlarmXml[] =
      "<virtual-sensor name=\"freeze-alarm\">"
      "<output-structure>"
      "  <field name=\"is_cold\" type=\"boolean\"/>"
      "</output-structure>"
      "<input-stream name=\"in\">"
      "  <stream-source alias=\"smooth\" storage-size=\"1\">"
      "    <address wrapper=\"local\">"
      "      <predicate key=\"name\" val=\"smooth-temp\"/>"
      "    </address>"
      "    <query>select temperature &lt; 5 as is_cold from wrapper</query>"
      "  </stream-source>"
      "  <query>select * from smooth</query>"
      "</input-stream>"
      "</virtual-sensor>";
  auto alarm = container_->Deploy(kAlarmXml);
  ASSERT_TRUE(alarm.ok()) << alarm.status().ToString();

  Run(3 * kMicrosPerSecond);
  auto result = container_->Query(
      "select count(*), sum(cast(is_cold as integer)) from \"freeze-alarm\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->rows()[0][0].int_value(), 15);
  // Mote temps hover near 22C: never cold.
  EXPECT_EQ(result->rows()[0][1], Value::Int(0));
}

TEST_F(LocalChainingTest, TopologyShowsChain) {
  ASSERT_TRUE(container_->Deploy(kProducerXml).ok());
  ASSERT_TRUE(container_->Deploy(kDerivedXml).ok());
  bool found_chain_edge = false;
  for (const Container::TopologyEdge& e : container_->Topology()) {
    if (e.to == "smooth-temp") found_chain_edge = true;
  }
  EXPECT_TRUE(found_chain_edge);
}

}  // namespace
}  // namespace gsn::container
