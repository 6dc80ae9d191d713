#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "gsn/container/container.h"
#include "gsn/container/management_interface.h"

namespace gsn::container {
namespace {

/// A deployable descriptor: one simulated mote, averaged temperature
/// over a 10-minute window, re-evaluated per arrival.
std::string MoteDescriptor(const std::string& name,
                           const std::string& location = "bc143",
                           bool permanent = false) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata>"
         "  <predicate key=\"type\" val=\"temperature\"/>"
         "  <predicate key=\"location\" val=\"" + location + "\"/>"
         "</metadata>"
         "<life-cycle pool-size=\"2\"/>"
         "<output-structure>"
         "  <field name=\"temperature\" type=\"integer\"/>"
         "</output-structure>"
         "<storage permanent-storage=\"" +
         std::string(permanent ? "true" : "false") +
         "\" size=\"10m\"/>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"10m\">"
         "    <address wrapper=\"mote\">"
         "      <predicate key=\"interval-ms\" val=\"100\"/>"
         "    </address>"
         "    <query>select avg(temperature) from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

class ContainerTest : public ::testing::Test {
 protected:
  ContainerTest() {
    clock_ = std::make_shared<VirtualClock>();
    Container::Options options;
    options.node_id = "test-node";
    options.clock = clock_;
    options.seed = 17;
    container_ = std::make_unique<Container>(std::move(options));
  }

  /// Advances virtual time in `step` increments, ticking the container.
  void Run(Timestamp duration, Timestamp step = 100 * kMicrosPerMilli) {
    for (Timestamp t = 0; t < duration; t += step) {
      clock_->Advance(step);
      ASSERT_TRUE(container_->Tick().ok());
    }
  }

  std::shared_ptr<VirtualClock> clock_;
  std::unique_ptr<Container> container_;
};

// ---------------------------------------------------------------- Deploy

TEST_F(ContainerTest, DeployTickQuery) {
  auto sensor = container_->Deploy(MoteDescriptor("room-a"));
  ASSERT_TRUE(sensor.ok()) << sensor.status().ToString();
  EXPECT_EQ(container_->ListSensors(),
            std::vector<std::string>{"room-a"});

  Run(2 * kMicrosPerSecond);

  // Each mote arrival re-triggers the pipeline: the first tick anchors
  // the sampling schedule, so 2s of 100ms ticks yield 19 outputs.
  auto status = container_->GetSensorStatus("room-a");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->stats.produced, 19);
  EXPECT_EQ(status->stored_rows, 19u);

  // The output history is SQL-queryable as a table named after the
  // sensor.
  auto result = container_->Query(
      "select count(*), avg(temperature) from \"room-a\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows()[0][0], Value::Int(19));
  const double avg = result->rows()[0][1].double_value();
  EXPECT_GT(avg, 0);
  EXPECT_LT(avg, 60);
}

TEST_F(ContainerTest, DuplicateDeployRejected) {
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("x")).ok());
  EXPECT_EQ(container_->Deploy(MoteDescriptor("x")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ContainerTest, UnknownWrapperFailsDeployAndLeavesNoTable) {
  std::string bad = MoteDescriptor("bad");
  const size_t pos = bad.find("wrapper=\"mote\"");
  bad.replace(pos, 14, "wrapper=\"warp-drive\"");
  EXPECT_FALSE(container_->Deploy(bad).ok());
  EXPECT_TRUE(container_->ListSensors().empty());
  // The output table must have been rolled back.
  EXPECT_FALSE(container_->Query("select * from bad").ok());
}

TEST_F(ContainerTest, UndeployRemovesSensorAndTable) {
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("x")).ok());
  Run(kMicrosPerSecond);
  ASSERT_TRUE(container_->Undeploy("x").ok());
  EXPECT_TRUE(container_->ListSensors().empty());
  EXPECT_FALSE(container_->Query("select * from x").ok());
  EXPECT_EQ(container_->Undeploy("x").code(), StatusCode::kNotFound);
}

TEST_F(ContainerTest, RedeployAfterUndeployWorks) {
  // The demo's on-the-fly reconfiguration: remove and re-add while the
  // container keeps running.
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("x")).ok());
  Run(kMicrosPerSecond);
  ASSERT_TRUE(container_->Undeploy("x").ok());
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("x", "lab")).ok());
  Run(kMicrosPerSecond);
  auto status = container_->GetSensorStatus("x");
  ASSERT_TRUE(status.ok());
  EXPECT_GT(status->stats.produced, 0);
}

TEST_F(ContainerTest, LifetimeBoundExpiresSensor) {
  std::string xml = MoteDescriptor("ephemeral");
  const size_t pos = xml.find("pool-size=\"2\"");
  xml.insert(pos + 13, " lifetime=\"1s\"");
  ASSERT_TRUE(container_->Deploy(xml).ok());
  Run(900 * kMicrosPerMilli);
  EXPECT_EQ(container_->ListSensors().size(), 1u);
  Run(kMicrosPerSecond);
  EXPECT_TRUE(container_->ListSensors().empty());
}

TEST_F(ContainerTest, DirectoryPublication) {
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("a", "bc143")).ok());
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("b", "lab")).ok());
  EXPECT_EQ(container_->Discover({{"type", "temperature"}}).size(), 2u);
  auto hits = container_->Discover({{"location", "lab"}});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].sensor_name, "b");
  ASSERT_TRUE(container_->Undeploy("b").ok());
  EXPECT_EQ(container_->Discover({{"location", "lab"}}).size(), 0u);
}

// ------------------------------------------------------------ Notification

TEST_F(ContainerTest, ConditionalNotification) {
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("room")).ok());
  int all_count = 0;
  int cold_count = 0;
  auto all = container_->notification_manager().Subscribe(
      "room", "", std::make_shared<CallbackChannel>(
                      [&](const Notification&) { ++all_count; }));
  ASSERT_TRUE(all.ok());
  // Mote temp-base is ~22C and drifts slowly: this fires never.
  auto cold = container_->notification_manager().Subscribe(
      "room", "temperature < -100",
      std::make_shared<CallbackChannel>(
          [&](const Notification&) { ++cold_count; }));
  ASSERT_TRUE(cold.ok());

  Run(2 * kMicrosPerSecond);
  EXPECT_EQ(all_count, 19);
  EXPECT_EQ(cold_count, 0);

  ASSERT_TRUE(container_->notification_manager().Unsubscribe(*all).ok());
  Run(kMicrosPerSecond);
  EXPECT_EQ(all_count, 19);  // unchanged after unsubscribe
}

TEST_F(ContainerTest, ContinuousQueryRunsOnNewElements) {
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("room")).ok());
  int runs = 0;
  size_t last_rows = 0;
  auto id = container_->query_manager().RegisterContinuous(
      "select count(*) as n from room",
      [&](const std::string&, const Relation& result) {
        ++runs;
        last_rows = static_cast<size_t>(result.rows()[0][0].int_value());
      });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  Run(kMicrosPerSecond);
  EXPECT_EQ(runs, 9);
  EXPECT_EQ(last_rows, 9u);
}

TEST_F(ContainerTest, FileChannelWritesNdjson) {
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("room")).ok());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gsn_filechannel_" + std::to_string(::getpid()) + ".ndjson"))
          .string();
  std::filesystem::remove(path);
  auto channel = std::make_shared<FileChannel>(path);
  ASSERT_TRUE(channel->ok());
  ASSERT_TRUE(container_->notification_manager()
                  .Subscribe("room", "", channel)
                  .ok());
  Run(kMicrosPerSecond);

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"sensor\":\"room\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"temperature\":"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 9);
  std::filesystem::remove(path);
}

/// A device that cannot be opened: Start() fails after the deploy has
/// created the sensor's table and moved its spec into the sensor.
class OfflineWrapper : public wrappers::Wrapper {
 public:
  OfflineWrapper() { schema_.AddField("seq", DataType::kInt); }
  const Schema& output_schema() const override { return schema_; }
  Status Start() override { return Status::Unavailable("device offline"); }
  Result<std::vector<StreamElement>> Poll(Timestamp) override {
    return std::vector<StreamElement>{};
  }
  std::string type_name() const override { return "offline"; }

 private:
  Schema schema_;
};

std::string SeqDescriptor(const std::string& name, const std::string& wrapper) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<output-structure>"
         "  <field name=\"seq\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"" + wrapper + "\"/>"
         "    <query>select seq from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

TEST(ContainerDeployTest, FailedStartReleasesItsTable) {
  Container::Options options;
  options.node_id = "n";
  options.clock = std::make_shared<VirtualClock>();
  Container container(std::move(options));
  container.wrapper_registry().Register(
      "offline", [](const wrappers::WrapperConfig&)
                     -> Result<std::unique_ptr<wrappers::Wrapper>> {
        return std::unique_ptr<wrappers::Wrapper>(
            std::make_unique<OfflineWrapper>());
      });
  EXPECT_EQ(container.Deploy(SeqDescriptor("S", "offline")).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(container.table_manager().ListTables().empty());
  EXPECT_TRUE(container.Deploy(SeqDescriptor("S", "generator")).ok());
}

// ------------------------------------------------------------- Persistence

TEST(ContainerPersistenceTest, OutputSurvivesRestart) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("gsn_container_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);

  auto clock = std::make_shared<VirtualClock>();
  {
    Container::Options options;
    options.node_id = "n";
    options.clock = clock;
    options.storage_dir = dir;
    Container container(std::move(options));
    ASSERT_TRUE(
        container.Deploy(MoteDescriptor("persist", "bc143", true)).ok());
    for (int i = 0; i < 10; ++i) {
      clock->Advance(100 * kMicrosPerMilli);
      ASSERT_TRUE(container.Tick().ok());
    }
    auto result = container.Query("select count(*) from persist");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->rows()[0][0], Value::Int(9));
  }
  // "Restart": a new container over the same storage directory recovers
  // the stream history at deploy time.
  {
    Container::Options options;
    options.node_id = "n";
    options.clock = clock;
    options.storage_dir = dir;
    Container container(std::move(options));
    ASSERT_TRUE(
        container.Deploy(MoteDescriptor("persist", "bc143", true)).ok());
    auto result = container.Query("select count(*) from persist");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows()[0][0], Value::Int(9));
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ AccessControl

TEST_F(ContainerTest, AccessControlGatesDeployAndQuery) {
  AccessControl& ac = container_->access_control();
  ASSERT_TRUE(ac.AddUser("root", "root-key", /*admin=*/true).ok());
  ASSERT_TRUE(ac.AddUser("alice", "alice-key").ok());
  ASSERT_TRUE(ac.Enable().ok());

  // Alice can neither deploy nor read.
  EXPECT_EQ(container_->Deploy(MoteDescriptor("s"), "alice-key")
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  // Root can.
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("s"), "root-key").ok());
  EXPECT_EQ(container_->Query("select * from s", "alice-key").status().code(),
            StatusCode::kPermissionDenied);
  // Grant read and retry.
  ASSERT_TRUE(ac.GrantRead("alice", "s").ok());
  EXPECT_TRUE(container_->Query("select * from s", "alice-key").ok());
  // Unknown key.
  EXPECT_EQ(container_->Query("select * from s", "bogus").status().code(),
            StatusCode::kPermissionDenied);
  // Disabled: everything open again.
  ac.Disable();
  EXPECT_TRUE(container_->Query("select * from s").ok());
}

TEST(AccessControlTest, EnableRequiresAdmin) {
  AccessControl ac;
  EXPECT_FALSE(ac.Enable().ok());
  ASSERT_TRUE(ac.AddUser("u", "k").ok());
  EXPECT_FALSE(ac.Enable().ok());
  ASSERT_TRUE(ac.AddUser("a", "ak", true).ok());
  EXPECT_TRUE(ac.Enable().ok());
}

// ---------------------------------------------------------------- Integrity

TEST(IntegrityTest, SignAndVerify) {
  IntegrityService service("secret");
  StreamElement e;
  e.timed = 42;
  e.values = {Value::Int(7), Value::String("x")};
  const std::string sig = service.Sign("sensor-a", e);
  EXPECT_EQ(sig.size(), 64u);  // hex sha256
  EXPECT_TRUE(service.Verify("sensor-a", e, sig));
  // Different sensor, tampered value, truncated sig: all fail.
  EXPECT_FALSE(service.Verify("sensor-b", e, sig));
  StreamElement tampered = e;
  tampered.values[0] = Value::Int(8);
  EXPECT_FALSE(service.Verify("sensor-a", tampered, sig));
  EXPECT_FALSE(service.Verify("sensor-a", e, sig.substr(1)));
  // Different key.
  IntegrityService other("other-key");
  EXPECT_FALSE(other.Verify("sensor-a", e, sig));
}

// -------------------------------------------------------------- QueryManager

TEST_F(ContainerTest, QueryCacheHitsAndAblation) {
  ASSERT_TRUE(container_->Deploy(MoteDescriptor("s")).ok());
  Run(kMicrosPerSecond);
  QueryManager& qm = container_->query_manager();
  ASSERT_TRUE(qm.Execute("select count(*) from s").ok());
  ASSERT_TRUE(qm.Execute("select count(*) from s").ok());
  auto stats = qm.stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);

  qm.set_cache_enabled(false);
  ASSERT_TRUE(qm.Execute("select count(*) from s").ok());
  ASSERT_TRUE(qm.Execute("select count(*) from s").ok());
  stats = qm.stats();
  EXPECT_EQ(stats.cache_hits, 1);  // unchanged
  EXPECT_EQ(stats.executed, 4);
}

// ------------------------------------------------------ ManagementInterface

TEST_F(ContainerTest, ManagementCommands) {
  ManagementInterface mgmt(container_.get());
  EXPECT_NE(mgmt.Execute("help").find("deploy"), std::string::npos);
  EXPECT_EQ(mgmt.Execute("list"), "(none)\n");

  const std::string deploy_out =
      mgmt.Execute("deploy " + MoteDescriptor("mgmt-sensor"));
  EXPECT_NE(deploy_out.find("deployed: mgmt-sensor"), std::string::npos)
      << deploy_out;
  EXPECT_NE(mgmt.Execute("list").find("mgmt-sensor"), std::string::npos);
  EXPECT_NE(mgmt.Execute("wrappers").find("mote"), std::string::npos);
  EXPECT_NE(mgmt.Execute("discover type=temperature").find("mgmt-sensor"),
            std::string::npos);
  EXPECT_NE(mgmt.Execute("describe mgmt-sensor").find("virtual-sensor"),
            std::string::npos);

  Run(kMicrosPerSecond);
  const std::string status = mgmt.Execute("status mgmt-sensor");
  EXPECT_NE(status.find("produced: 9\n"), std::string::npos)
      << status;
  const std::string query_out =
      mgmt.Execute("query select count(*) from \"mgmt-sensor\"");
  EXPECT_NE(query_out.find("9"), std::string::npos) << query_out;

  // Exporters and plan/plot routes through the same facade.
  const std::string json_out =
      mgmt.Execute("query-json select count(*) as n from \"mgmt-sensor\"");
  EXPECT_NE(json_out.find("{\"n\":9}"), std::string::npos) << json_out;
  const std::string csv_out =
      mgmt.Execute("query-csv select count(*) as n from \"mgmt-sensor\"");
  EXPECT_NE(csv_out.find("n\n9"), std::string::npos) << csv_out;
  const std::string plot_out = mgmt.Execute(
      "plot temperature select timed, temperature from \"mgmt-sensor\"");
  EXPECT_NE(plot_out.find('*'), std::string::npos) << plot_out;
  const std::string explain_out =
      mgmt.Execute("explain select * from \"mgmt-sensor\" where 1 = 1");
  EXPECT_NE(explain_out.find("Scan mgmt-sensor"), std::string::npos);
  // The optimizer dropped WHERE 1=1.
  EXPECT_EQ(explain_out.find("Filter"), std::string::npos) << explain_out;
  const std::string topo_out = mgmt.Execute("topology");
  EXPECT_NE(topo_out.find("digraph"), std::string::npos);

  EXPECT_NE(mgmt.Execute("undeploy mgmt-sensor").find("undeployed"),
            std::string::npos);
  EXPECT_NE(mgmt.Execute("status mgmt-sensor").find("ERROR"),
            std::string::npos);
  EXPECT_NE(mgmt.Execute("bogus").find("ERROR"), std::string::npos);
  EXPECT_NE(mgmt.Execute("discover ill-formed").find("ERROR"),
            std::string::npos);
}

}  // namespace
}  // namespace gsn::container
