// A small "Sensor Internet" (paper §1): many heterogeneous sensor
// networks deployed by different organizations, integrated purely
// through logical addressing — the exact Figure 1 descriptor with
// wrapper="remote" resolving type/location predicates against the
// peer-to-peer directory, over links with latency, jitter, and loss.
//
//   build/examples/example_sensor_internet

#include <cstdio>
#include <string>
#include <vector>

#include "gsn/container/federation.h"
#include "gsn/container/management_interface.h"

namespace {

using gsn::kMicrosPerMilli;
using gsn::kMicrosPerSecond;

std::string SiteDescriptor(const std::string& name,
                           const std::string& location, int node_id) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<metadata>"
         "  <predicate key=\"type\" val=\"temperature\"/>"
         "  <predicate key=\"location\" val=\"" + location + "\"/>"
         "</metadata>"
         "<output-structure>"
         "  <field name=\"temperature\" type=\"integer\"/>"
         "</output-structure>"
         "<input-stream name=\"in\">"
         "  <stream-source alias=\"src\" storage-size=\"10s\">"
         "    <address wrapper=\"mote\">"
         "      <predicate key=\"node-id\" val=\"" +
         std::to_string(node_id) + "\"/>"
         "      <predicate key=\"interval-ms\" val=\"500\"/>"
         "      <predicate key=\"temp-base\" val=\"" +
         std::to_string(15 + node_id * 3) + "\"/>"
         "    </address>"
         "    <query>select avg(temperature) from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

/// Figure 1 of the paper, verbatim semantics: averaged temperature
/// obtained from the Internet through GSN by logical address.
std::string Figure1Descriptor(const std::string& location) {
  return "<virtual-sensor name=\"fig1-" + location + "\">"
         "<life-cycle pool-size=\"10\" />"
         "<output-structure>"
         "  <field name=\"TEMPERATURE\" type=\"integer\"/>"
         "</output-structure>"
         "<storage permanent-storage=\"false\" size=\"10s\" />"
         "<input-stream name=\"dummy\" rate=\"100\">"
         "  <stream-source alias=\"src1\" sampling-rate=\"1\""
         "                 storage-size=\"1h\" disconnect-buffer=\"10\">"
         "    <address wrapper=\"remote\">"
         "      <predicate key=\"type\" val=\"temperature\" />"
         "      <predicate key=\"location\" val=\"" + location + "\" />"
         "    </address>"
         "    <query>select avg(temperature) from WRAPPER</query>"
         "  </stream-source>"
         "  <query>select * from src1</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

}  // namespace

int main() {
  gsn::container::Federation fed(/*seed=*/4242);
  // Wide-area links: 20ms +- 10ms (1% loss is added per node below).
  gsn::network::NetworkSimulator::LinkConfig wan;
  wan.base_latency_micros = 20 * kMicrosPerMilli;
  wan.jitter_micros = 10 * kMicrosPerMilli;
  fed.network().SetDefaultLink(wan);

  // Five organizations deploy their own sensor networks.
  const std::vector<std::pair<std::string, std::string>> sites = {
      {"epfl", "bc143"},   {"ethz", "hci-d7"},   {"city-hall", "roof"},
      {"airport", "gate3"}, {"vineyard", "row12"},
  };
  std::printf("=== organizations bring up their GSN nodes ===\n");
  int node_id = 0;
  for (const auto& [org, location] : sites) {
    auto node = fed.AddNode(org);
    if (!node.ok()) return 1;
    auto sensor = (*node)->Deploy(SiteDescriptor(org + "-temp", location,
                                                 ++node_id));
    if (!sensor.ok()) {
      std::fprintf(stderr, "%s: %s\n", org.c_str(),
                   sensor.status().ToString().c_str());
      return 1;
    }
    std::printf("  %-10s publishes %s (location=%s)\n", org.c_str(),
                (*sensor)->name().c_str(), location.c_str());
  }

  // An aggregator node joins later, with no sensors of its own.
  auto aggregator = fed.AddNode("aggregator");
  if (!aggregator.ok()) return 1;
  // 1% WAN loss on every link: each node loses 1% of what arrives from
  // each peer, the rule an operator would type as `chaos loss <peer>
  // 0.01 in`.
  const std::vector<std::string> nodes = fed.NodeIds();
  for (const std::string& to : nodes) {
    gsn::container::ManagementInterface node_mgmt(fed.node(to));
    for (const std::string& from : nodes) {
      if (from == to) continue;
      (void)node_mgmt.Execute("chaos loss " + from + " 0.01 in");
    }
  }
  (void)fed.RunFor(kMicrosPerSecond, 50 * kMicrosPerMilli);

  std::printf("\n=== discovery from the aggregator (directory replica) "
              "===\n");
  gsn::container::ManagementInterface mgmt(*aggregator);
  std::printf("%s", mgmt.Execute("discover type=temperature").c_str());

  std::printf("\n=== Fig 1 descriptors: mirror two sites by logical address "
              "===\n");
  for (const char* location : {"bc143", "gate3"}) {
    auto sensor = (*aggregator)->Deploy(Figure1Descriptor(location));
    if (!sensor.ok()) {
      std::fprintf(stderr, "mirror %s: %s\n", location,
                   sensor.status().ToString().c_str());
      return 1;
    }
    std::printf("  deployed %s\n", (*sensor)->name().c_str());
  }

  // Run half a minute of stream time over the lossy WAN.
  (void)fed.RunFor(30 * kMicrosPerSecond, 100 * kMicrosPerMilli);

  std::printf("\n=== global query on the aggregator: joined view of two "
              "sites ===\n%s",
              mgmt.Execute(
                      "query select a.temperature as bc143, b.temperature as "
                      "gate3, a.temperature - b.temperature as delta "
                      "from \"fig1-bc143\" a join \"fig1-gate3\" b "
                      "on a.timed = b.timed "
                      "order by a.timed desc limit 5")
                  .c_str());

  std::printf("\n=== per-mirror statistics ===\n");
  for (const char* name : {"fig1-bc143", "fig1-gate3"}) {
    auto count = (*aggregator)
                     ->Query(std::string("select count(*), "
                                         "avg(temperature) from \"") +
                             name + "\"");
    if (count.ok() && !count->empty()) {
      std::printf("  %-12s rows=%-5s avg-temp=%s\n", name,
                  count->rows()[0][0].ToString().c_str(),
                  count->rows()[0][1].ToString().c_str());
    }
  }

  const auto net = fed.network().stats();
  int64_t lost = 0;
  for (const std::string& id : nodes) {
    lost += fed.node(id)->network()->AsChaos()->counters().dropped;
  }
  std::printf("\nWAN: %lld msgs sent, %lld delivered, %lld lost "
              "(loss rate %.2f%%), %.1f KB transferred\n",
              static_cast<long long>(net.sent),
              static_cast<long long>(net.delivered - lost),
              static_cast<long long>(lost),
              100.0 * static_cast<double>(lost) /
                  static_cast<double>(net.sent > 0 ? net.sent : 1),
              static_cast<double>(net.bytes_sent) / 1024.0);

  // Success: both mirrors hold a live window despite loss. The Fig 1
  // descriptor keeps 10 s of history (storage size="10s"), i.e. ~20
  // rows at the producer's 500 ms rate.
  auto check = (*aggregator)->Query("select count(*) from \"fig1-bc143\"");
  return check.ok() && check->rows()[0][0].int_value() >= 15 ? 0 : 1;
}
