// Tests for the SQL-visible system catalog: the container describes
// itself through the same query language it serves (the data behind
// the web interface's monitoring pages).

#include <gtest/gtest.h>

#include "gsn/container/container.h"

namespace gsn::container {
namespace {

std::string SensorXml(const std::string& name, int interval_ms) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata><predicate key=\"type\" val=\"temperature\"/>"
         "<predicate key=\"room\" val=\"" + name + "\"/></metadata>"
         "<life-cycle pool-size=\"3\"/>"
         "<output-structure>"
         "  <field name=\"temperature\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1m\">"
         "    <address wrapper=\"mote\">"
         "      <predicate key=\"interval-ms\" val=\"" +
         std::to_string(interval_ms) + "\"/>"
         "    </address>"
         "    <query>select avg(temperature) from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() {
    clock_ = std::make_shared<VirtualClock>();
    Container::Options options;
    options.node_id = "catalog-node";
    options.clock = clock_;
    container_ = std::make_unique<Container>(std::move(options));
  }

  void Run(int ticks) {
    for (int i = 0; i < ticks; ++i) {
      clock_->Advance(100 * kMicrosPerMilli);
      ASSERT_TRUE(container_->Tick().ok());
    }
  }

  std::shared_ptr<VirtualClock> clock_;
  std::unique_ptr<Container> container_;
};

TEST_F(CatalogTest, SensorsCatalogReflectsDeployments) {
  ASSERT_TRUE(container_->Deploy(SensorXml("fast", 100)).ok());
  ASSERT_TRUE(container_->Deploy(SensorXml("slow", 500)).ok());
  Run(20);  // 2 seconds

  auto all = container_->Query(
      "select name, produced, pool_size from gsn_sensors order by name");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->NumRows(), 2u);
  EXPECT_EQ(all->rows()[0][0], Value::String("fast"));
  EXPECT_EQ(all->rows()[0][1], Value::Int(19));
  EXPECT_EQ(all->rows()[0][2], Value::Int(3));
  EXPECT_EQ(all->rows()[1][0], Value::String("slow"));
  EXPECT_EQ(all->rows()[1][1], Value::Int(3));

  // The catalog participates in full SQL: filters, aggregates, joins.
  auto busy = container_->Query(
      "select count(*) from gsn_sensors where produced > 10");
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->rows()[0][0], Value::Int(1));
}

TEST_F(CatalogTest, WrappersCatalogListsBuiltins) {
  auto wrappers = container_->Query(
      "select count(*) from gsn_wrappers where name in "
      "('mote', 'camera', 'rfid', 'generator', 'csv', 'tinyos')");
  ASSERT_TRUE(wrappers.ok()) << wrappers.status().ToString();
  EXPECT_EQ(wrappers->rows()[0][0], Value::Int(6));
}

TEST_F(CatalogTest, DirectoryCatalogShowsPublications) {
  ASSERT_TRUE(container_->Deploy(SensorXml("roomx", 100)).ok());
  auto dir = container_->Query(
      "select sensor, node, predicates from gsn_directory");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  ASSERT_EQ(dir->NumRows(), 1u);
  EXPECT_EQ(dir->rows()[0][0], Value::String("roomx"));
  EXPECT_EQ(dir->rows()[0][1], Value::String("catalog-node"));
  EXPECT_NE(dir->rows()[0][2].string_value().find("type=temperature"),
            std::string::npos);
}

TEST_F(CatalogTest, CatalogJoinsWithDataTables) {
  ASSERT_TRUE(container_->Deploy(SensorXml("joined", 100)).ok());
  Run(10);
  // Join catalog metadata against the sensor's own stream.
  auto result = container_->Query(
      "select s.name, count(*) from gsn_sensors s, joined j "
      "where s.name = 'joined' group by s.name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(result->rows()[0][1], Value::Int(9));
}

TEST_F(CatalogTest, ContinuousQueryOverCatalog) {
  ASSERT_TRUE(container_->Deploy(SensorXml("watched", 100)).ok());
  int64_t last_produced = -1;
  auto id = container_->query_manager().RegisterContinuous(
      "select produced from gsn_sensors where name = 'watched'",
      [&](const std::string&, const Relation& result) {
        if (!result.empty()) {
          last_produced = result.rows()[0][0].int_value();
        }
      });
  // Continuous queries trigger on table-name matches; gsn_sensors is
  // not an output stream, so register on the sensor itself too — the
  // catalog query still runs against live counters when invoked.
  ASSERT_TRUE(id.ok());
  auto id2 = container_->query_manager().RegisterContinuous(
      "select count(*) from watched",
      [](const std::string&, const Relation&) {});
  ASSERT_TRUE(id2.ok());
  Run(10);
  // Execute the catalog query directly to confirm live values.
  auto direct = container_->Query(
      "select produced from gsn_sensors where name = 'watched'");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->rows()[0][0], Value::Int(9));
}

TEST_F(CatalogTest, UserTablesStillResolve) {
  ASSERT_TRUE(container_->Deploy(SensorXml("normal", 100)).ok());
  Run(5);
  EXPECT_TRUE(container_->Query("select * from normal").ok());
  EXPECT_FALSE(container_->Query("select * from gsn_nonexistent").ok());
}

}  // namespace
}  // namespace gsn::container
