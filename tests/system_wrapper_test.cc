// Tests for wrapper="system" (docs/TELEMETRY.md): virtual sensors
// whose device is the hosting container itself. The scrape is a
// cached snapshot read, so self-monitoring must neither deadlock the
// tick it runs inside nor amplify itself; its output is an ordinary
// stream, so windowed SQL, notifications, and wrapper="remote"
// federation all apply to the middleware's own health.

#include <gtest/gtest.h>

#include <string>

#include "gsn/container/container.h"
#include "gsn/container/federation.h"

namespace gsn::container {
namespace {

/// Self-monitor: scrapes the hosting container every 100ms and keeps
/// the freshest sample per trigger.
std::string MonitorDescriptor(const std::string& name,
                              const std::string& scope) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata>"
         "  <predicate key=\"type\" val=\"telemetry\"/>"
         "  <predicate key=\"scope\" val=\"" + scope + "\"/>"
         "</metadata>"
         "<output-structure>"
         "  <field name=\"sensors\" type=\"integer\"/>"
         "  <field name=\"queue_depth\" type=\"integer\"/>"
         "  <field name=\"shed_total\" type=\"integer\"/>"
         "  <field name=\"tuples_total\" type=\"integer\"/>"
         "  <field name=\"tick_p95_ms\" type=\"double\"/>"
         "  <field name=\"lock_wait_share\" type=\"double\"/>"
         "</output-structure>"
         "<input-stream name=\"telemetry\">"
         "  <stream-source alias=\"sys\" storage-size=\"10s\">"
         "    <address wrapper=\"system\">"
         "      <predicate key=\"interval\" val=\"100ms\"/>"
         "    </address>"
         "    <query>select sensors, queue_depth, shed_total, tuples_total,"
         " tick_p95_ms, lock_wait_share from wrapper"
         " order by timed desc limit 1</query>"
         "  </stream-source>"
         "  <query>select sensors, queue_depth, shed_total, tuples_total,"
         " tick_p95_ms, lock_wait_share from sys</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

/// A deliberately overloaded ingest sensor: the mote produces an
/// element per millisecond into a 4-slot admission queue, so every
/// 100ms tick sheds most of the batch.
constexpr char kOverloadedXml[] =
    "<virtual-sensor name=\"firehose\">"
    "<output-structure>"
    "  <field name=\"temperature\" type=\"integer\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1m\" "
    "      queue-capacity=\"4\">"
    "    <address wrapper=\"mote\">"
    "      <predicate key=\"interval-ms\" val=\"1\"/>"
    "    </address>"
    "    <query>select avg(temperature) from wrapper</query>"
    "  </stream-source>"
    "  <query>select * from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

/// Alerting sensor chained locally onto the monitor by its metadata
/// predicates (the examples/self_monitor_alert.xml shape).
constexpr char kAlertXml[] =
    "<virtual-sensor name=\"mon-alert\">"
    "<output-structure>"
    "  <field name=\"max_queue\" type=\"integer\"/>"
    "  <field name=\"sheds\" type=\"integer\"/>"
    "</output-structure>"
    "<input-stream name=\"alert\">"
    "  <stream-source alias=\"mon\" storage-size=\"10s\">"
    "    <address wrapper=\"local\">"
    "      <predicate key=\"type\" val=\"telemetry\"/>"
    "      <predicate key=\"scope\" val=\"container\"/>"
    "    </address>"
    "    <query>select max(queue_depth) as max_queue,"
    " max(shed_total) as sheds from wrapper</query>"
    "  </stream-source>"
    "  <query>select max_queue, sheds from mon</query>"
    "</input-stream>"
    "</virtual-sensor>";

class TelemetrySystemWrapperTest : public ::testing::Test {
 protected:
  TelemetrySystemWrapperTest() {
    clock_ = std::make_shared<VirtualClock>();
    Container::Options options;
    options.node_id = "self-node";
    options.clock = clock_;
    options.seed = 17;
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

TEST_F(TelemetrySystemWrapperTest, AnswersWindowedSqlOverOwnMetrics) {
  ASSERT_TRUE(container_->Deploy(MonitorDescriptor("mon", "container")).ok());
  Run(2 * kMicrosPerSecond);

  // The monitor's history is an ordinary sensor table: windowed SQL
  // aggregates over the container's own runtime state.
  auto result = container_->Query(
      "select count(*), max(sensors), max(tuples_total), avg(queue_depth) "
      "from mon");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->rows()[0][0].int_value(), 10);
  // The only deployed sensor is the monitor itself...
  EXPECT_EQ(result->rows()[0][1].int_value(), 1);
  // ...and it sees its own output counted in the tuple totals.
  EXPECT_GT(result->rows()[0][2].int_value(), 0);
}

TEST_F(TelemetrySystemWrapperTest, SelfChainedMonitorDoesNotAmplify) {
  // The monitor observing the container it runs in, a derived alert
  // sensor observing the monitor, and ad-hoc queries over both while
  // ticking: completing at all is the no-deadlock regression (the
  // scrape runs inside Tick and must never take container locks).
  ASSERT_TRUE(container_->Deploy(MonitorDescriptor("mon", "container")).ok());
  ASSERT_TRUE(container_->Deploy(kAlertXml).ok());

  constexpr int kTicks = 20;
  for (int i = 0; i < kTicks; ++i) {
    clock_->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(container_->Tick().ok());
    ASSERT_TRUE(container_->Query("select count(*) from mon").ok());
  }

  auto mon = container_->Query("select count(*) from mon");
  auto alert =
      container_->Query("select count(*), max(sheds) from \"mon-alert\"");
  ASSERT_TRUE(mon.ok());
  ASSERT_TRUE(alert.ok());
  const int64_t mon_count = mon->rows()[0][0].int_value();
  // One sample per elapsed interval: observing the observer must not
  // feed back into extra samples.
  EXPECT_GT(mon_count, 10);
  EXPECT_LE(mon_count, kTicks + 1);
  EXPECT_GT(alert->rows()[0][0].int_value(), 0);
  // No overload was synthesized, so the alert columns stay zero.
  EXPECT_EQ(alert->rows()[0][1].int_value(), 0);
}

TEST_F(TelemetrySystemWrapperTest, SyntheticOverloadFiresNotification) {
  ASSERT_TRUE(container_->Deploy(kOverloadedXml).ok());
  ASSERT_TRUE(container_->Deploy(MonitorDescriptor("mon", "container")).ok());

  int notified = 0;
  auto sub = container_->notification_manager().Subscribe(
      "mon", "shed_total > 0",
      std::make_shared<CallbackChannel>(
          [&](const Notification&) { ++notified; }));
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();

  Run(2 * kMicrosPerSecond);

  // The firehose overflows its 4-slot queue every tick; the monitor
  // samples the climbing shed counter and the subscription pages.
  EXPECT_GT(notified, 0);
  auto shed = container_->Query("select max(shed_total) from mon");
  ASSERT_TRUE(shed.ok());
  EXPECT_GT(shed->rows()[0][0].int_value(), 0);
}

TEST_F(TelemetrySystemWrapperTest, MetricSeriesDoNotLeakAcrossRedeploys) {
  auto cycle = [&] {
    auto deployed = container_->Deploy(MonitorDescriptor("mon", "container"));
    ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();
    Run(kMicrosPerSecond);
    ASSERT_TRUE(container_->Undeploy("mon").ok());
  };

  cycle();
  const size_t series_after_first = container_->metrics()->NumSeries();
  for (int i = 0; i < 3; ++i) {
    cycle();
    // Undeploy retires the sensor's series; repeating the cycle must
    // not grow the registry.
    EXPECT_EQ(container_->metrics()->NumSeries(), series_after_first);
  }
}

TEST_F(TelemetrySystemWrapperTest, FederationShipsHealthUpstream) {
  Federation fed(29);
  auto edge = fed.AddNode("edge");
  auto ops = fed.AddNode("ops");
  ASSERT_TRUE(edge.ok());
  ASSERT_TRUE(ops.ok());

  // The edge node overloads itself and publishes its self-monitor with
  // discovery metadata, like any other virtual sensor.
  ASSERT_TRUE((*edge)->Deploy(kOverloadedXml).ok());
  ASSERT_TRUE((*edge)->Deploy(MonitorDescriptor("edge-mon", "edge")).ok());
  ASSERT_TRUE(fed.Step(10 * kMicrosPerMilli).ok());

  // The ops node mirrors it by predicates through wrapper="remote".
  constexpr char kMirrorXml[] =
      "<virtual-sensor name=\"health-mirror\">"
      "<output-structure>"
      "  <field name=\"queue_depth\" type=\"integer\"/>"
      "  <field name=\"shed_total\" type=\"integer\"/>"
      "</output-structure>"
      "<input-stream name=\"in\">"
      "  <stream-source alias=\"src\" storage-size=\"30s\">"
      "    <address wrapper=\"remote\">"
      "      <predicate key=\"type\" val=\"telemetry\"/>"
      "      <predicate key=\"scope\" val=\"edge\"/>"
      "    </address>"
      "    <query>select max(queue_depth) as queue_depth,"
      " max(shed_total) as shed_total from wrapper</query>"
      "  </stream-source>"
      "  <query>select queue_depth, shed_total from src</query>"
      "</input-stream>"
      "</virtual-sensor>";
  auto mirror = (*ops)->Deploy(kMirrorXml);
  ASSERT_TRUE(mirror.ok()) << mirror.status().ToString();

  // Overload alerting works across the federation: the ops node pages
  // on queue saturation happening on the edge node.
  int notified = 0;
  auto sub = (*ops)->notification_manager().Subscribe(
      "health-mirror", "shed_total > 0",
      std::make_shared<CallbackChannel>(
          [&](const Notification&) { ++notified; }));
  ASSERT_TRUE(sub.ok());

  ASSERT_TRUE(fed.RunFor(3 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());

  auto result =
      (*ops)->Query("select count(*), max(shed_total) from \"health-mirror\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->rows()[0][0].int_value(), 5);
  EXPECT_GT(result->rows()[0][1].int_value(), 0);
  EXPECT_GT(notified, 0);
}

}  // namespace
}  // namespace gsn::container
