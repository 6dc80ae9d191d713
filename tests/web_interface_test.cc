// Tests for the HTTP web interface: the route layer (in-process) and
// the real socket server end to end.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "gsn/container/web_interface.h"

namespace gsn::container {
namespace {

using network::HttpFetch;
using network::HttpRequest;
using network::HttpResponse;
using network::UrlDecode;

constexpr char kSensorXml[] =
    "<virtual-sensor name=\"web-sensor\">"
    "<metadata><predicate key=\"type\" val=\"temperature\"/></metadata>"
    "<output-structure>"
    "  <field name=\"temperature\" type=\"integer\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1m\">"
    "    <address wrapper=\"mote\">"
    "      <predicate key=\"interval-ms\" val=\"100\"/>"
    "    </address>"
    "    <query>select avg(temperature) from wrapper</query>"
    "  </stream-source>"
    "  <query>select * from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

class WebInterfaceTest : public ::testing::Test {
 protected:
  WebInterfaceTest() {
    clock_ = std::make_shared<VirtualClock>();
    Container::Options options;
    options.node_id = "web-node";
    options.clock = clock_;
    container_ = std::make_unique<Container>(std::move(options));
    web_ = std::make_unique<WebInterface>(container_.get());
  }

  void DeployAndRun() {
    ASSERT_TRUE(container_->Deploy(kSensorXml).ok());
    for (int i = 0; i < 10; ++i) {
      clock_->Advance(100 * kMicrosPerMilli);
      ASSERT_TRUE(container_->Tick().ok());
    }
  }

  HttpResponse Get(const std::string& path,
                   std::map<std::string, std::string> query = {}) {
    HttpRequest request;
    request.method = "GET";
    request.path = path;
    request.query = std::move(query);
    return web_->Handle(request);
  }

  std::shared_ptr<VirtualClock> clock_;
  std::unique_ptr<Container> container_;
  std::unique_ptr<WebInterface> web_;
};

TEST_F(WebInterfaceTest, IndexListsSensors) {
  DeployAndRun();
  const HttpResponse response = Get("/");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("web-sensor"), std::string::npos);
  EXPECT_NE(response.content_type.find("text/html"), std::string::npos);
}

// A sensor name is data: the index escapes it in the link text and
// percent-encodes it into the href, and the link resolves to the sensor.
TEST_F(WebInterfaceTest, IndexEscapesSensorNamesAndListsEveryRoute) {
  const std::string hostile = "a\"><b onx=1 ";
  std::string xml = kSensorXml;
  xml.replace(xml.find("web-sensor"), 10, "a&quot;&gt;&lt;b onx=1 ");
  ASSERT_TRUE(container_->Deploy(xml).ok());
  ASSERT_NE(container_->FindSensor(hostile), nullptr);

  const HttpResponse index = Get("/");
  EXPECT_EQ(index.body.find("<b onx"), std::string::npos) << index.body;
  const std::string href = "/api/v1/sensors/a%22%3E%3Cb%20onx%3D1%20";
  EXPECT_NE(index.body.find("<a href=\"" + href + "\">"), std::string::npos)
      << index.body;
  const HttpResponse sensor = Get(UrlDecode(href));
  EXPECT_EQ(sensor.status, 200) << sensor.body;

  // The API list is generated from the route table.
  for (const char* route :
       {"/api/v1/status", "/api/v1/segments", "/api/v1/healthz",
        "/api/v1/readyz", "/api/v1/quarantine", "/api/v1/chaos",
        "/api/v1/checkpoint", "/api/v1/drain"}) {
    EXPECT_NE(index.body.find(route), std::string::npos) << route;
  }
}

TEST_F(WebInterfaceTest, SensorsJson) {
  DeployAndRun();
  const HttpResponse response = Get("/api/v1/sensors");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"name\":\"web-sensor\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"produced\":9"), std::string::npos);
}

TEST_F(WebInterfaceTest, SensorStatusAndNotFound) {
  DeployAndRun();
  EXPECT_EQ(Get("/api/v1/sensors/web-sensor").status, 200);
  EXPECT_EQ(Get("/api/v1/sensors/ghost").status, 404);
  EXPECT_EQ(Get("/nonexistent").status, 404);
}

TEST_F(WebInterfaceTest, LegacyUnversionedPathsAreGone) {
  DeployAndRun();
  // Known resources under their retired unversioned names answer 410
  // with the shared error envelope pointing at the v1 home.
  for (const char* path : {"/sensors", "/metrics", "/traces", "/peers",
                           "/quarantine", "/segments", "/healthz"}) {
    const HttpResponse response = Get(path);
    EXPECT_EQ(response.status, 410) << path;
    EXPECT_NE(response.body.find("\"code\":\"gone\""), std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find(std::string("/api/v1") + path),
              std::string::npos)
        << response.body;
  }
  HttpRequest deploy;
  deploy.method = "POST";
  deploy.path = "/deploy";
  deploy.body = kSensorXml;
  EXPECT_EQ(web_->Handle(deploy).status, 410);
  // Unknown paths are a plain 404, not a misleading "gone".
  EXPECT_EQ(Get("/bogus").status, 404);
}

TEST_F(WebInterfaceTest, ListEndpointsShareEnvelopeAndPaging) {
  DeployAndRun();
  // Every list endpoint answers the uniform {"items":[...],"total":N}
  // envelope even when empty.
  for (const char* path : {"/api/v1/traces", "/api/v1/peers",
                           "/api/v1/quarantine", "/api/v1/segments",
                           "/api/v1/transport"}) {
    const HttpResponse response = Get(path);
    EXPECT_EQ(response.status, 200) << path;
    EXPECT_NE(response.body.find("\"items\":["), std::string::npos)
        << path << ": " << response.body;
    EXPECT_NE(response.body.find("\"total\":"), std::string::npos)
        << path << ": " << response.body;
  }
  // Paging parameters are validated...
  EXPECT_EQ(Get("/api/v1/peers", {{"limit", "nope"}}).status, 400);
  EXPECT_EQ(Get("/api/v1/quarantine", {{"offset", "-3"}}).status, 400);
  // ...and slice without changing `total`: produce spans, then page.
  const HttpResponse all = Get("/api/v1/traces");
  const size_t total_pos = all.body.find("\"total\":");
  ASSERT_NE(total_pos, std::string::npos);
  const HttpResponse page =
      Get("/api/v1/traces", {{"limit", "1"}, {"offset", "0"}});
  EXPECT_EQ(page.status, 200);
  EXPECT_NE(page.body.find(all.body.substr(total_pos, 9)),
            std::string::npos)
      << page.body;
}

TEST_F(WebInterfaceTest, TransportEndpointReportsPlanes) {
  DeployAndRun();
  // In-process (server not started): no connections, but the envelope
  // and the HTTP-plane counters are present.
  const HttpResponse response = Get("/api/v1/transport");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"peer_transport\":\"none\""),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"accepted_total\":"), std::string::npos);

  // Over a real socket the serving connection reports itself.
  ASSERT_TRUE(web_->Start(0).ok());
  auto live = HttpFetch(web_->port(), "GET", "/api/v1/transport");
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(live->status, 200);
  EXPECT_NE(live->body.find("\"kind\":\"http\""), std::string::npos)
      << live->body;
  EXPECT_NE(live->body.find("\"state\":\"open\""), std::string::npos)
      << live->body;
  web_->Stop();
}

TEST_F(WebInterfaceTest, QueryJsonAndCsv) {
  DeployAndRun();
  const HttpResponse json = Get(
      "/api/v1/query", {{"sql", "select count(*) as n from \"web-sensor\""}});
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("\"n\":9"), std::string::npos) << json.body;

  const HttpResponse csv =
      Get("/api/v1/query", {{"sql", "select count(*) as n from \"web-sensor\""},
                     {"format", "csv"}});
  EXPECT_EQ(csv.status, 200);
  EXPECT_EQ(csv.content_type, "text/csv");
  EXPECT_NE(csv.body.find("n\n9"), std::string::npos) << csv.body;

  EXPECT_EQ(Get("/api/v1/query").status, 400);
  // Unknown column -> NotFound -> 404; unparseable SQL -> 400.
  EXPECT_EQ(Get("/api/v1/query", {{"sql", "select broken"}}).status, 404);
  EXPECT_EQ(Get("/api/v1/query", {{"sql", "not sql at all"}}).status, 400);
}

TEST_F(WebInterfaceTest, ExplainAndDiscoverAndTopology) {
  DeployAndRun();
  const HttpResponse plan =
      Get("/api/v1/explain", {{"sql", "select * from \"web-sensor\""}});
  EXPECT_EQ(plan.status, 200);
  EXPECT_NE(plan.body.find("Scan web-sensor"), std::string::npos)
      << plan.body;

  const HttpResponse discover =
      Get("/api/v1/discover", {{"type", "temperature"}});
  EXPECT_EQ(discover.status, 200);
  EXPECT_NE(discover.body.find("\"sensor\":\"web-sensor\""),
            std::string::npos);
  const HttpResponse none = Get("/api/v1/discover", {{"type", "sonar"}});
  EXPECT_EQ(none.body, "[]");

  const HttpResponse topo = Get("/api/v1/topology");
  EXPECT_NE(topo.body.find("digraph"), std::string::npos);
  EXPECT_NE(topo.body.find("web-sensor"), std::string::npos);
}

TEST_F(WebInterfaceTest, DeployUndeployViaPost) {
  HttpRequest deploy;
  deploy.method = "POST";
  deploy.path = "/api/v1/deploy";
  deploy.body = kSensorXml;
  const HttpResponse deployed = web_->Handle(deploy);
  EXPECT_EQ(deployed.status, 200) << deployed.body;
  EXPECT_NE(deployed.body.find("web-sensor"), std::string::npos);
  EXPECT_EQ(container_->ListSensors().size(), 1u);

  HttpRequest undeploy;
  undeploy.method = "POST";
  undeploy.path = "/api/v1/undeploy";
  undeploy.query = {{"name", "web-sensor"}};
  EXPECT_EQ(web_->Handle(undeploy).status, 200);
  EXPECT_TRUE(container_->ListSensors().empty());

  // Bad deploys map to HTTP errors.
  deploy.body = "<not-a-descriptor/>";
  EXPECT_EQ(web_->Handle(deploy).status, 400);
  deploy.body = "";
  EXPECT_EQ(web_->Handle(deploy).status, 400);
}

TEST_F(WebInterfaceTest, AccessControlMapsTo403) {
  AccessControl& ac = container_->access_control();
  ASSERT_TRUE(ac.AddUser("root", "root-key", true).ok());
  ASSERT_TRUE(ac.Enable().ok());
  HttpRequest deploy;
  deploy.method = "POST";
  deploy.path = "/api/v1/deploy";
  deploy.body = kSensorXml;
  EXPECT_EQ(web_->Handle(deploy).status, 403);
  deploy.headers["x-api-key"] = "root-key";
  EXPECT_EQ(web_->Handle(deploy).status, 200);
  // Key via query parameter works too.
  HttpRequest query;
  query.method = "GET";
  query.path = "/api/v1/query";
  query.query = {{"sql", "select 1"}, {"key", "root-key"}};
  EXPECT_EQ(web_->Handle(query).status, 200);
}

// ----------------------------------------------------- real socket server

TEST_F(WebInterfaceTest, ServesOverRealSockets) {
  DeployAndRun();
  ASSERT_TRUE(web_->Start(0).ok());
  ASSERT_GT(web_->port(), 0);

  auto index = HttpFetch(web_->port(), "GET", "/");
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->status, 200);
  EXPECT_NE(index->body.find("web-sensor"), std::string::npos);

  // URL-encoded SQL through a real request line.
  auto query = HttpFetch(
      web_->port(), "GET",
      "/api/v1/query?sql=select%20count(*)%20as%20n%20from%20%22web-sensor%22");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->status, 200);
  EXPECT_NE(query->body.find("\"n\":9"), std::string::npos) << query->body;

  // POST with a body.
  auto undeploy =
      HttpFetch(web_->port(), "POST", "/api/v1/undeploy?name=web-sensor");
  ASSERT_TRUE(undeploy.ok());
  EXPECT_EQ(undeploy->status, 200);
  EXPECT_TRUE(container_->ListSensors().empty());

  web_->Stop();
  EXPECT_FALSE(HttpFetch(web_->port(), "GET", "/").ok());
}

TEST_F(WebInterfaceTest, ConcurrentClients) {
  DeployAndRun();
  ASSERT_TRUE(web_->Start(0).ok());
  const uint16_t port = web_->port();
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([port, &ok_count] {
      for (int j = 0; j < 10; ++j) {
        auto r = network::HttpFetch(port, "GET", "/api/v1/sensors");
        if (r.ok() && r->status == 200) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), 80);
  web_->Stop();
}

// --------------------------------------- health, quarantine, drain routes

constexpr char kPoisonXml[] =
    "<virtual-sensor name=\"poison\">"
    "<output-structure>"
    "  <field name=\"seq\" type=\"integer\"/>"
    "  <field name=\"inv\" type=\"integer\"/>"
    "</output-structure>"
    "<input-stream name=\"in\">"
    "  <stream-source alias=\"src\" storage-size=\"1\">"
    "    <address wrapper=\"generator\">"
    "      <predicate key=\"interval-ms\" val=\"100\"/>"
    "      <predicate key=\"payload-bytes\" val=\"0\"/>"
    "    </address>"
    "    <query>select seq from wrapper order by seq desc limit 1</query>"
    "  </stream-source>"
    "  <query>select seq, 1 / (seq - 5) as inv from src</query>"
    "</input-stream>"
    "</virtual-sensor>";

TEST_F(WebInterfaceTest, HealthzAndReadyzProbes) {
  DeployAndRun();
  const HttpResponse healthz = Get("/api/v1/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\":\"ok\""), std::string::npos)
      << healthz.body;

  const HttpResponse readyz = Get("/api/v1/readyz");
  EXPECT_EQ(readyz.status, 200);
  EXPECT_NE(readyz.body.find("\"ready\":true"), std::string::npos)
      << readyz.body;
}

TEST_F(WebInterfaceTest, ReadyzReports503WhileDraining) {
  DeployAndRun();
  HttpRequest drain;
  drain.method = "POST";
  drain.path = "/api/v1/drain";
  EXPECT_EQ(web_->Handle(drain).status, 200);

  const HttpResponse readyz = Get("/api/v1/readyz");
  EXPECT_EQ(readyz.status, 503);
  EXPECT_NE(readyz.body.find("\"ready\":false"), std::string::npos);
  EXPECT_NE(readyz.body.find("draining"), std::string::npos) << readyz.body;
  // Liveness is unaffected: a draining container is healthy.
  EXPECT_EQ(Get("/api/v1/healthz").status, 200);
}

TEST_F(WebInterfaceTest, SensorsJsonExposesSupervisionState) {
  DeployAndRun();
  const HttpResponse response = Get("/api/v1/sensors");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"state\":\"running\""), std::string::npos)
      << response.body;
}

TEST_F(WebInterfaceTest, QuarantineInspectRequeueClear) {
  ASSERT_TRUE(container_->Deploy(kPoisonXml).ok());
  for (int i = 0; i < 9; ++i) {
    clock_->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(container_->Tick().ok());
  }
  ASSERT_EQ(container_->quarantine().size(), 1u);
  const uint64_t id = container_->quarantine().List()[0].id;

  const HttpResponse list = Get("/api/v1/quarantine");
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("division by zero"), std::string::npos)
      << list.body;
  EXPECT_NE(list.body.find("\"sensor\":\"poison\""), std::string::npos);

  HttpRequest requeue;
  requeue.method = "POST";
  requeue.path = "/api/v1/quarantine/requeue";
  requeue.query = {{"id", std::to_string(id)}};
  EXPECT_EQ(web_->Handle(requeue).status, 200);
  EXPECT_EQ(container_->quarantine().size(), 0u);

  // Requeued ids are gone; bad ids are client errors.
  EXPECT_EQ(web_->Handle(requeue).status, 404);
  requeue.query = {{"id", "not-a-number"}};
  EXPECT_EQ(web_->Handle(requeue).status, 400);
  requeue.query.clear();
  EXPECT_EQ(web_->Handle(requeue).status, 400);

  HttpRequest clear;
  clear.method = "POST";
  clear.path = "/api/v1/quarantine/clear";
  EXPECT_EQ(web_->Handle(clear).status, 200);
}

// The requeue reply renders the id it parsed, never the raw query text
// ("001" or "+1" would make the body invalid JSON).
TEST_F(WebInterfaceTest, RequeueRepliesWithTheParsedId) {
  ASSERT_TRUE(container_->Deploy(kPoisonXml).ok());
  for (int i = 0; i < 9; ++i) {
    clock_->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(container_->Tick().ok());
  }
  ASSERT_EQ(container_->quarantine().size(), 1u);
  const uint64_t id = container_->quarantine().List()[0].id;
  HttpRequest requeue;
  requeue.method = "POST";
  requeue.path = "/api/v1/quarantine/requeue";
  requeue.query = {{"id", "00" + std::to_string(id)}};
  const HttpResponse response = web_->Handle(requeue);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"requeued\":" + std::to_string(id) + "}");
}

// Regression canary for the serialize-outside-the-lock rule
// (docs/CONCURRENCY.md): a client that requests a fat response and then
// never reads it must not stall the container. Status/metrics handlers
// copy their snapshot out of the shard locks before building JSON, so
// even if the response write parks on the dead socket, every shard
// keeps ticking. If serialization ever moves back under a shard lock,
// the tick loop below wedges behind the stalled reader and the test
// times out instead of finishing in milliseconds.
TEST(WebInterfaceSlowReaderTest, StalledReaderDoesNotStallContainer) {
  auto clock = std::make_shared<VirtualClock>();
  Container::Options options;
  options.node_id = "slow-node";
  options.clock = clock;
  options.sharding.shards = 4;
  options.sharding.tick_workers = 4;
  Container container(std::move(options));
  // Enough sensors that /metrics and /api/v1/status are multi-kilobyte.
  for (int i = 0; i < 32; ++i) {
    std::string xml = kSensorXml;
    const std::string name = "slow-" + std::to_string(i);
    xml.replace(xml.find("web-sensor"), 10, name);
    ASSERT_TRUE(container.Deploy(xml).ok());
  }
  WebInterface web(&container);
  ASSERT_TRUE(web.Start(0).ok());

  // A raw client with a minimal receive buffer: send the request, then
  // never read the response.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 1;  // kernel clamps this to its minimum
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(web.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET /api/v1/metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  // While that response is (possibly) parked, the container must stay
  // fully live: ticks on all shards, status snapshots, per-sensor
  // status. The bound is generous — the failure mode is a hang.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    clock->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(container.Tick().ok());
  }
  const Container::ContainerStatus status = container.GetStatus();
  EXPECT_EQ(status.shards.size(), 4u);
  EXPECT_TRUE(container.GetSensorStatus("slow-0").ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);

  ::close(fd);
  web.Stop();
}

TEST(UrlDecodeTest, Decoding) {
  EXPECT_EQ(UrlDecode("a%20b+c"), "a b c");
  EXPECT_EQ(UrlDecode("%22quoted%22"), "\"quoted\"");
  EXPECT_EQ(UrlDecode("plain"), "plain");
  EXPECT_EQ(UrlDecode("bad%zz"), "bad%zz");  // invalid escapes pass through
  EXPECT_EQ(UrlDecode("%3d"), "=");
}

}  // namespace
}  // namespace gsn::container
