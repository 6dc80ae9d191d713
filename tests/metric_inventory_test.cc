// The docs/TELEMETRY.md metric table against the families the code
// registers. One scenario touches every instrumented component — two
// containers (one with a data dir) on ChaosTransports over a
// NetworkSimulator, a remote source, a query, a join, a notification,
// a checkpoint that writes a segment, a watcher reject and an
// EpollTransport — and the test diffs every `# TYPE` line against the
// table's rows, names and kinds, in both directions.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/container/descriptor_watcher.h"
#include "gsn/network/chaos_transport.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/network/simulator.h"
#include "gsn/sql/executor.h"
#include "gsn/telemetry/metrics.h"

namespace gsn::container {
namespace {

namespace fs = std::filesystem;

using Families = std::map<std::string, std::string>;  // name -> kind

/// Adds the `# TYPE <name> <kind>` lines of one exposition.
void CollectTypes(const std::string& exposition, Families* out) {
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    std::istringstream fields(line.substr(7));
    std::string name;
    std::string kind;
    fields >> name >> kind;
    (*out)[name] = kind;
  }
}

/// `gsn_x_{a,b}_total` -> {gsn_x_a_total, gsn_x_b_total}.
std::vector<std::string> ExpandBraces(const std::string& name) {
  const size_t open = name.find('{');
  const size_t close = name.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return {name};
  std::vector<std::string> out;
  std::istringstream alternatives(name.substr(open + 1, close - open - 1));
  std::string alternative;
  while (std::getline(alternatives, alternative, ',')) {
    for (const std::string& rest : ExpandBraces(name.substr(close + 1))) {
      out.push_back(name.substr(0, open) + alternative + rest);
    }
  }
  return out;
}

std::string Trim(const std::string& text) {
  const size_t begin = text.find_first_not_of(' ');
  const size_t end = text.find_last_not_of(' ');
  return begin == std::string::npos ? "" : text.substr(begin, end - begin + 1);
}

/// The rows of the "Metric inventory" table: every backticked name in
/// a row's first cell, with the row's kind.
Families DocumentedFamilies() {
  std::ifstream in(std::string(GSN_DOCS_DIR) + "/TELEMETRY.md");
  Families out;
  bool in_section = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Metric inventory";
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    std::istringstream row(line.substr(1));
    std::string cell;
    while (std::getline(row, cell, '|')) cells.push_back(Trim(cell));
    if (cells.size() < 2) continue;
    for (size_t tick = cells[0].find('`'); tick != std::string::npos;) {
      const size_t end = cells[0].find('`', tick + 1);
      for (const std::string& name :
           ExpandBraces(cells[0].substr(tick + 1, end - tick - 1))) {
        out[name] = cells[1];
      }
      tick = cells[0].find('`', end + 1);
    }
  }
  return out;
}

std::string ProducerXml() {
  return "<virtual-sensor name=\"feed\">"
         "<metadata><predicate key=\"type\" val=\"inventory\"/></metadata>"
         "<output-structure><field name=\"seq\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"generator\">"
         "      <predicate key=\"interval-ms\" val=\"100\"/>"
         "      <predicate key=\"payload-bytes\" val=\"0\"/>"
         "    </address>"
         "    <query>select seq from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

/// A remote mirror whose permanent storage keeps three rows, so each
/// checkpoint moves the older ones into a columnar segment.
std::string MirrorXml(const std::string& name) {
  return "<virtual-sensor name=\"" + name +
         "\">"
         "<output-structure><field name=\"seq\" type=\"integer\"/>"
         "</output-structure>"
         "<storage permanent-storage=\"true\" size=\"3\"/>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"1\">"
         "    <address wrapper=\"remote\">"
         "      <predicate key=\"type\" val=\"inventory\"/>"
         "    </address>"
         "    <query>select * from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

TEST(TelemetryInventoryTest, DocTableMatchesRegisteredFamilies) {
  const fs::path dir = fs::temp_directory_path() /
                       ("gsn_inventory_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir / "watch");
  telemetry::MetricRegistry registry;
  {
    auto clock = std::make_shared<VirtualClock>();
    network::NetworkSimulator simulator(7, &registry);
    network::ChaosTransport::Options chaos_options;
    chaos_options.metrics = &registry;
    network::ChaosTransport producer_net(&simulator, chaos_options);
    network::ChaosTransport consumer_net(&simulator, chaos_options);
    network::EpollTransport::Options epoll_options;
    epoll_options.metrics = &registry;
    network::EpollTransport epoll(epoll_options);

    Container::Options producer_options;
    producer_options.node_id = "producer";
    producer_options.clock = clock;
    producer_options.metrics = &registry;
    producer_options.network = &producer_net;
    Container producer(std::move(producer_options));
    Container::Options consumer_options;
    consumer_options.node_id = "consumer";
    consumer_options.clock = clock;
    consumer_options.metrics = &registry;
    consumer_options.network = &consumer_net;
    consumer_options.data_dir = (dir / "data").string();
    consumer_options.supervision.checkpoint_interval = 0;
    consumer_options.columnar.rows_per_chunk = 4;
    Container consumer(std::move(consumer_options));

    const auto step = [&] {
      clock->Advance(100 * kMicrosPerMilli);
      simulator.Pump(clock->NowMicros());
      ASSERT_TRUE(producer.Tick().ok());
      ASSERT_TRUE(consumer.Tick().ok());
      simulator.Pump(clock->NowMicros());
    };
    ASSERT_TRUE(producer.Deploy(ProducerXml()).ok());
    const auto discovered = [&] {
      return !consumer.Discover({{"type", "inventory"}}).empty();
    };
    for (int i = 0; i < 50 && !discovered(); ++i) step();
    ASSERT_TRUE(discovered());
    ASSERT_TRUE(consumer.Deploy(MirrorXml("mirror")).ok());
    int notified = 0;
    auto channel = std::make_shared<CallbackChannel>(
        [&](const Notification&) { ++notified; });
    NotificationManager& notifications = consumer.notification_manager();
    ASSERT_TRUE(notifications.Subscribe("mirror", "", channel).ok());
    for (int i = 0; i < 50; ++i) step();
    EXPECT_GT(notified, 0);

    ASSERT_TRUE(consumer.Checkpoint().ok());
    EXPECT_GT(consumer.segment_catalog()->segment_count(), 0u);
    ASSERT_TRUE(consumer.Query("select count(*) from mirror").ok());
    const char* join_sql =
        "select count(*) from mirror a join mirror b on a.seq = b.seq";
    ASSERT_TRUE(consumer.Query(join_sql).ok());
    const sql::JoinCounters joins = sql::GetJoinCounters();
    EXPECT_GT(joins.hash_joins + joins.nested_loop_joins, 0);

    DescriptorWatcher watcher(&consumer, (dir / "watch").string());
    std::ofstream((dir / "watch" / "spare.xml").string()) << MirrorXml("spare");
    ASSERT_TRUE(watcher.Scan().ok());
    std::ofstream((dir / "watch" / "spare.xml").string())
        << "<virtual-sensor name='spare'>broken";
    ASSERT_TRUE(watcher.Scan().ok());
    EXPECT_EQ(watcher.stats().rejected, 1);

    Families registered;
    CollectTypes(registry.RenderPrometheus(), &registered);
    CollectTypes(telemetry::MetricRegistry::Default()->RenderPrometheus(),
                 &registered);
    const Families documented = DocumentedFamilies();
    ASSERT_FALSE(documented.empty());
    for (const auto& [name, kind] : registered) {
      auto it = documented.find(name);
      if (it == documented.end()) {
        ADD_FAILURE() << name << " (" << kind
                      << ") is registered but missing from the table";
      } else {
        EXPECT_EQ(it->second, kind) << name;
      }
    }
    for (const auto& [name, kind] : documented) {
      EXPECT_TRUE(registered.count(name) > 0)
          << name << " (" << kind << ") is in the table but never registered";
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gsn::container
