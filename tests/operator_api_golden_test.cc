// Golden bodies of the /api/v1 surface: a deterministic fixture (virtual
// clock, one shard, one tick worker, a virtual-clock tracer with a fixed
// seed, a seeded Federation pair) and the exact bytes each resource
// answers. Bodies that carry wall-clock or process values (status,
// transport, metrics, EXPLAIN ANALYZE timings) pin only their key
// sequence, with every number masked.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <memory>
#include <string>

#include "gsn/container/federation.h"
#include "gsn/container/web_interface.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/telemetry/tracing.h"

namespace gsn::container {
namespace {

namespace fs = std::filesystem;
using network::HttpRequest;
using network::HttpResponse;

/// The one deployed sensor: seq 5 divides by zero, so its tuple lands in
/// the quarantine; permanent storage of three rows pushes older rows to
/// the columnar tier at each checkpoint.
constexpr char kPoisonXml[] =
    "<virtual-sensor name=\"poison\">"
    "<metadata><predicate key=\"type\" val=\"counter\"/></metadata>"
    "<output-structure>"
    "  <field name=\"seq\" type=\"integer\"/>"
    "  <field name=\"inv\" type=\"integer\"/>"
    "</output-structure>"
    "<storage permanent-storage=\"true\" size=\"3\"/>"
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

std::string SpareXml(const std::string& name) {
  return "<virtual-sensor name=\"" + name +
         "\">"
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

/// Every run of digits (with its decimal point) becomes '#'.
std::string MaskNumbers(const std::string& text) {
  std::string out;
  for (size_t i = 0; i < text.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      out += text[i];
      continue;
    }
    out += '#';
    while (i + 1 < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[i + 1])) != 0 ||
            text[i + 1] == '.')) {
      ++i;
    }
  }
  return out;
}

/// The key sequence of a JSON body: every object key in document order,
/// space-separated, numbers masked.
std::string JsonKeys(const std::string& json) {
  std::string keys;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '"') continue;
    size_t end = i + 1;
    while (end < json.size() && json[end] != '"') {
      if (json[end] == '\\') ++end;
      ++end;
    }
    if (end + 1 < json.size() && json[end + 1] == ':') {
      if (!keys.empty()) keys += ' ';
      keys += json.substr(i + 1, end - i - 1);
    }
    i = end;
  }
  return MaskNumbers(keys);
}

/// The `# TYPE` lines of a Prometheus body that the container's own
/// registry renders (the process-wide default registry's families are
/// appended after them and depend on what else ran in this process).
std::string MetricFamilies(const std::string& text) {
  const std::string shared =
      telemetry::MetricRegistry::Default()->RenderPrometheus();
  std::string families;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("# TYPE ", 0) != 0) continue;
    if (shared.find(line + "\n") != std::string::npos) continue;
    families += MaskNumbers(line.substr(7)) + "\n";
  }
  return families;
}

class OperatorApiGoldenTest : public ::testing::Test {
 protected:
  OperatorApiGoldenTest()
      : dir_((fs::temp_directory_path() /
              ("gsn_golden_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    clock_ = std::make_shared<VirtualClock>();
    telemetry::Tracer::Options tracing;
    tracing.sample_rate = 1.0;
    tracing.seed = 4242;
    tracing.clock = clock_.get();
    tracer_ = std::make_unique<telemetry::Tracer>(tracing);
    Container::Options options;
    options.node_id = "golden";
    options.clock = clock_;
    options.seed = 29;
    options.data_dir = dir_;
    options.tracer = tracer_.get();
    options.supervision.checkpoint_interval = 0;
    options.columnar.rows_per_chunk = 4;
    options.sharding.shards = 1;
    options.sharding.tick_workers = 1;
    container_ = std::make_unique<Container>(std::move(options));
    web_ = std::make_unique<WebInterface>(container_.get());
    EXPECT_TRUE(container_->Deploy(kPoisonXml).ok());
    for (int i = 0; i < 9; ++i) {
      clock_->Advance(100 * kMicrosPerMilli);
      EXPECT_TRUE(container_->Tick().ok());
    }
  }

  ~OperatorApiGoldenTest() override {
    web_.reset();
    container_.reset();
    fs::remove_all(dir_);
  }

  HttpResponse Call(const std::string& method, const std::string& path,
                    std::map<std::string, std::string> query = {},
                    const std::string& body = "") {
    HttpRequest request;
    request.method = method;
    request.path = path;
    request.query = std::move(query);
    request.body = body;
    return web_->Handle(request);
  }

  /// "<status> <content type>\n<body>", the whole observable answer.
  std::string Answer(const HttpResponse& response) {
    return std::to_string(response.status) + " " + response.content_type +
           "\n" + response.body;
  }

  std::string Get(const std::string& path,
                  std::map<std::string, std::string> query = {}) {
    return Answer(Call("GET", path, std::move(query)));
  }
  std::string Post(const std::string& path,
                   std::map<std::string, std::string> query = {},
                   const std::string& body = "") {
    return Answer(Call("POST", path, std::move(query), body));
  }

  std::string dir_;
  std::shared_ptr<VirtualClock> clock_;
  std::unique_ptr<telemetry::Tracer> tracer_;
  std::unique_ptr<Container> container_;
  std::unique_ptr<WebInterface> web_;
};

constexpr char kJson[] = "application/json";

TEST_F(OperatorApiGoldenTest, SensorAndQueryResources) {
  EXPECT_EQ(Get("/api/v1/sensors"),
            "200 application/json\n"
            R"([{"name":"poison","state":"running","produced":7,)"
            R"("stored_rows":3}])");
  EXPECT_EQ(Get("/api/v1/sensors/poison"),
            "200 application/json\n"
            R"({"name":"poison","state":"running","pool_size":1,)"
            R"("triggers":8,"produced":7,"rate_limited":0,"errors":1,)"
            R"("restarts":1,"queue_depth":0,"shed":0,"stored_rows":3,)"
            R"("stored_bytes":72,"remote_subscribers":0})");
  EXPECT_EQ(Get("/api/v1/query", {{"sql", "select seq, inv from poison"}}),
            "200 application/json\n"
            R"([{"seq":0,"inv":0},{"seq":1,"inv":0},{"seq":2,"inv":0},)"
            R"({"seq":3,"inv":0},{"seq":4,"inv":-1},{"seq":6,"inv":1},)"
            R"({"seq":7,"inv":0}])");
  EXPECT_EQ(Get("/api/v1/query",
                {{"sql", "select seq, inv from poison"}, {"format", "csv"}}),
            "200 text/csv\nseq,inv\n0,0\n1,0\n2,0\n3,0\n4,-1\n6,1\n7,0\n");
  EXPECT_EQ(Get("/api/v1/explain",
                {{"sql", "select seq from poison where seq > 2"}}),
            "200 text/plain; charset=utf-8\n"
            "Select: seq\n  From:\n    Scan poison\n  Filter: (seq > 2)\n");
  EXPECT_EQ(MaskNumbers(Get("/api/v1/explain",
                            {{"sql", "select count(*) from poison"},
                             {"analyze", "1"}})),
            "# text/plain; charset=utf-#\n"
            "Select: COUNT(*) (rows=# time=#us)\n"
            "  From:\n    Scan poison (rows=# time=#us)\n");
  EXPECT_EQ(Get("/api/v1/topology"),
            "200 text/vnd.graphviz\n"
            "digraph \"golden\" {\n"
            "  \"generator device\" -> \"poison\" [label=\"in/src\"];\n}\n");
  // The api key is not a predicate.
  EXPECT_EQ(Get("/api/v1/discover", {{"type", "counter"}, {"key", "k"}}),
            "200 application/json\n"
            R"([{"sensor":"poison","node":"golden",)"
            R"("predicates":{"type":"counter"},)"
            R"("schema":"seq:integer, inv:integer"}])");
  EXPECT_EQ(Get("/api/v1/discover", {{"type", "nothing"}}),
            "200 application/json\n[]");
}

TEST_F(OperatorApiGoldenTest, TracesPageAndFilter) {
  EXPECT_EQ(Get("/api/v1/traces", {{"limit", "2"}, {"offset", "1"}}),
            "200 application/json\n"
            R"({"items":[{"trace":"d74f6f6ccba020e3b09fde9f6077ed6b",)"
            R"("span":"976bd2c0994e039d","parent":"be5d70f12bd4a8fd",)"
            R"("name":"vsensor.window_sql","sensor":"poison","node":"golden",)"
            R"("start_micros":200000,"duration_micros":0,"error":false},)"
            R"({"trace":"d74f6f6ccba020e3b09fde9f6077ed6b",)"
            R"("span":"837320750eb42219","parent":"be5d70f12bd4a8fd",)"
            R"("name":"vsensor.stream_sql","sensor":"poison","node":"golden",)"
            R"("start_micros":200000,"duration_micros":0,"error":false}],)"
            R"("total":39,"dropped":0})");
  const std::string id = tracer_->store().Snapshot().front().TraceIdHex();
  ASSERT_EQ(id, "d74f6f6ccba020e3b09fde9f6077ed6b");
  EXPECT_EQ(Get("/api/v1/traces", {{"id", id}, {"offset", "3"}}),
            "200 application/json\n"
            R"({"items":[{"trace":"d74f6f6ccba020e3b09fde9f6077ed6b",)"
            R"("span":"7a5cfc251eb21f90","parent":"be5d70f12bd4a8fd",)"
            R"("name":"vsensor.deliver","sensor":"poison","node":"golden",)"
            R"("start_micros":200000,"duration_micros":0,"error":false},)"
            R"({"trace":"d74f6f6ccba020e3b09fde9f6077ed6b",)"
            R"("span":"be5d70f12bd4a8fd","parent":"bbd091f704e03c37",)"
            R"("name":"vsensor.pipeline","sensor":"poison","node":"golden",)"
            R"("start_micros":200000,"duration_micros":0,"error":false}],)"
            R"("total":5,"dropped":0})");
}

TEST_F(OperatorApiGoldenTest, ProbesQuarantineAndStorage) {
  EXPECT_EQ(Get("/api/v1/healthz"),
            "200 application/json\n" R"({"status":"ok"})");
  EXPECT_EQ(Get("/api/v1/readyz"),
            "200 application/json\n" R"({"ready":true,"reasons":[]})");
  EXPECT_EQ(Get("/api/v1/quarantine"),
            "200 application/json\n"
            R"({"items":[{"id":1,"sensor":"poison","stream":"in",)"
            R"("source":"src","error":"division by zero",)"
            R"("quarantined_at_micros":700000,"element_timed":700000}],)"
            R"("total":1})");
  EXPECT_EQ(Get("/api/v1/quarantine", {{"limit", "0"}}),
            "200 application/json\n" R"({"items":[],"total":1})");
  EXPECT_EQ(Post("/api/v1/quarantine/requeue", {{"id", "1"}}),
            "200 application/json\n" R"({"requeued":1})");
  EXPECT_EQ(Post("/api/v1/quarantine/requeue", {{"id", "1"}}),
            "404 application/json\n"
            R"({"error":{"code":"NotFound",)"
            R"("message":"no quarantined tuple with id 1"}})");
  EXPECT_EQ(Post("/api/v1/quarantine/clear"),
            "200 application/json\n" R"({"cleared":0})");
  EXPECT_EQ(Post("/api/v1/checkpoint"),
            "200 application/json\n" R"({"checkpointed":true})");
  EXPECT_EQ(Get("/api/v1/segments"),
            "200 application/json\n"
            R"({"items":[{"table":"poison","id":1,"rows":4,"chunks":3,)"
            R"("bytes":229,"min_timed":200000,"max_timed":500000}],)"
            R"("total":1,"enabled":true,"segment_count":1,"total_bytes":229})");
  EXPECT_EQ(Get("/api/v1/segments", {{"limit", "1"}, {"offset", "1"}}),
            "200 application/json\n"
            R"({"items":[],"total":1,"enabled":true,"segment_count":1,)"
            R"("total_bytes":229})");
  EXPECT_EQ(Get("/api/v1/peers"),
            "200 application/json\n" R"({"items":[],"total":0})");
}

TEST_F(OperatorApiGoldenTest, DeployUndeployAndDrain) {
  EXPECT_EQ(Post("/api/v1/deploy", {}, SpareXml("spare")),
            "200 application/json\n" R"({"deployed":"spare"})");
  EXPECT_EQ(Post("/api/v1/undeploy", {{"name", "spare"}}),
            "200 application/json\n" R"({"undeployed":"spare"})");
  EXPECT_EQ(Post("/api/v1/undeploy", {{"name", "spare"}}),
            "404 application/json\n"
            R"({"error":{"code":"NotFound",)"
            R"("message":"no such sensor: spare"}})");
  EXPECT_EQ(Post("/api/v1/drain"),
            "200 application/json\n" R"({"drained":true})");
  EXPECT_EQ(Get("/api/v1/readyz"),
            "503 application/json\n"
            R"({"ready":false,"reasons":["draining"]})");
}

TEST_F(OperatorApiGoldenTest, IndexAndErrorEnvelopes) {
  EXPECT_EQ(Get("/api/v1"),
            "200 application/json\n"
            R"({"version":"v1","routes":[)"
            R"({"method":"GET","path":"/api/v1/sensors"},)"
            R"({"method":"GET","path":"/api/v1/sensors/<name>"},)"
            R"({"method":"GET","path":"/api/v1/query"},)"
            R"({"method":"GET","path":"/api/v1/explain"},)"
            R"({"method":"GET","path":"/api/v1/discover"},)"
            R"({"method":"GET","path":"/api/v1/topology"},)"
            R"({"method":"GET","path":"/api/v1/metrics"},)"
            R"({"method":"GET","path":"/api/v1/traces"},)"
            R"({"method":"GET","path":"/api/v1/peers"},)"
            R"({"method":"GET","path":"/api/v1/transport"},)"
            R"({"method":"GET","path":"/api/v1/status"},)"
            R"({"method":"GET","path":"/api/v1/segments"},)"
            R"({"method":"GET","path":"/api/v1/healthz"},)"
            R"({"method":"GET","path":"/api/v1/readyz"},)"
            R"({"method":"GET","path":"/api/v1/quarantine"},)"
            R"({"method":"POST","path":"/api/v1/quarantine/requeue"},)"
            R"({"method":"POST","path":"/api/v1/quarantine/clear"},)"
            R"({"method":"POST","path":"/api/v1/checkpoint"},)"
            R"({"method":"POST","path":"/api/v1/drain"},)"
            R"({"method":"GET","path":"/api/v1/chaos"},)"
            R"({"method":"POST","path":"/api/v1/chaos"},)"
            R"({"method":"POST","path":"/api/v1/deploy"},)"
            R"({"method":"POST","path":"/api/v1/undeploy"}]})");
  EXPECT_EQ(Get("/api/v1/query"),
            "400 application/json\n"
            R"({"error":{"code":"InvalidArgument",)"
            R"("message":"missing ?sql= parameter"}})");
  EXPECT_EQ(Get("/api/v1/peers", {{"limit", "nope"}}),
            "400 application/json\n"
            R"({"error":{"code":"InvalidArgument",)"
            R"("message":"?limit= must be a non-negative integer"}})");
  EXPECT_EQ(Get("/api/v1/traces", {{"offset", "-1"}}),
            "400 application/json\n"
            R"({"error":{"code":"InvalidArgument",)"
            R"("message":"?offset= must be a non-negative integer"}})");
  EXPECT_EQ(Get("/api/v1/nope"),
            "404 application/json\n"
            R"({"error":{"code":"NotFound",)"
            R"("message":"no such resource: /api/v1/nope"}})");
  EXPECT_EQ(Get("/api/v1/sensors/ghost"),
            "404 application/json\n"
            R"({"error":{"code":"NotFound",)"
            R"("message":"no such sensor: ghost"}})");
  EXPECT_EQ(Post("/api/v1/sensors"),
            "405 application/json\n"
            R"({"error":{"code":"MethodNotAllowed",)"
            R"("message":"method not allowed: POST"}})");
  EXPECT_EQ(Answer(Call("DELETE", "/api/v1")),
            "405 application/json\n"
            R"({"error":{"code":"MethodNotAllowed",)"
            R"("message":"method not allowed: DELETE"}})");
  EXPECT_EQ(Get("/metrics"),
            "410 application/json\n"
            R"({"error":{"code":"gone",)"
            R"("message":"unversioned paths were removed; )"
            R"(use /api/v1/metrics"}})");
  EXPECT_EQ(Get("/sensors/poison"),
            "410 application/json\n"
            R"({"error":{"code":"gone","message":)"
            R"("unversioned paths were removed; )"
            R"(use /api/v1/sensors/poison"}})");
  EXPECT_EQ(Get("/api/v1/chaos"),
            "404 application/json\n"
            R"({"error":{"code":"NotFound","message":)"
            R"js("no chaos transport attached (standalone container has no )js"
            R"js(network)"}})js");
}

TEST_F(OperatorApiGoldenTest, MaskedStatusTransportAndMetrics) {
  const HttpResponse status = Call("GET", "/api/v1/status");
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(status.content_type, kJson);
  EXPECT_EQ(JsonKeys(status.body),
            "node version compiler draining ready reasons totals uptime_s "
            "sensors running restarting failed queue_depth shed_total "
            "quarantined replay_bytes open_circuits peers segments "
            "segment_bytes tuples_total errors_total metric_series "
            "tick_mean_ms tick_p#_ms lock_wait_share queue_wait_p#_ms "
            "rss_bytes cpu_seconds "
            "sensors name state produced errors restarts queue_depth shed "
            "stored_rows "
            "shards index sensors ticks_total lock_acquisitions "
            "lock_contended lock_wait_micros "
            "locks name acquisitions contended wait_micros "
            "name acquisitions contended wait_micros "
            "name acquisitions contended wait_micros "
            "name acquisitions contended wait_micros "
            "hot_spans name count total_micros max_micros "
            "name count total_micros max_micros "
            "name count total_micros max_micros "
            "name count total_micros max_micros "
            "name count total_micros max_micros "
            "peers recovery records failures");
  const HttpResponse transport = Call("GET", "/api/v1/transport");
  EXPECT_EQ(transport.status, 200);
  EXPECT_EQ(JsonKeys(transport.body),
            "items total peer_transport http accepted_total requests_total "
            "timeouts_total overflows_total");
  const HttpResponse metrics = Call("GET", "/api/v1/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(MetricFamilies(metrics.body),
            "gsn_admission_queue_depth gauge\n"
            "gsn_admission_shed_total counter\n"
            "gsn_build_info gauge\n"
            "gsn_continuous_reseeds_total counter\n"
            "gsn_continuous_runs_total counter\n"
            "gsn_federation_abandoned_total counter\n"
            "gsn_federation_dups_total counter\n"
            "gsn_federation_failovers_total counter\n"
            "gsn_federation_gaps_total counter\n"
            "gsn_federation_replays_total counter\n"
            "gsn_federation_resubscribes_total counter\n"
            "gsn_federation_retries_total counter\n"
            "gsn_lock_acquisitions_total counter\n"
            "gsn_lock_contended_total counter\n"
            "gsn_lock_wait_micros histogram\n"
            "gsn_notification_condition_errors_total counter\n"
            "gsn_notification_fanout_micros histogram\n"
            "gsn_notifications_delivered_total counter\n"
            "gsn_notifications_seen_total counter\n"
            "gsn_pipeline_batch_size histogram\n"
            "gsn_pipeline_stage_micros histogram\n"
            "gsn_quarantine_size gauge\n"
            "gsn_quarantine_tuples_total counter\n"
            "gsn_queries_total counter\n"
            "gsn_query_cache_evictions_total counter\n"
            "gsn_query_cache_hits_total counter\n"
            "gsn_query_cache_misses_total counter\n"
            "gsn_query_exec_micros histogram\n"
            "gsn_query_parse_micros histogram\n"
            "gsn_queue_wait_micros histogram\n"
            "gsn_recovery_records gauge\n"
            "gsn_recovery_seconds gauge\n"
            "gsn_replay_buffer_bytes gauge\n"
            "gsn_segment_bytes gauge\n"
            "gsn_segment_count gauge\n"
            "gsn_segment_pruned_chunks counter\n"
            "gsn_segment_scanned_rows counter\n"
            "gsn_sensor_errors_total counter\n"
            "gsn_sensor_last_processing_micros gauge\n"
            "gsn_sensor_processing_micros histogram\n"
            "gsn_sensor_rate_limited_total counter\n"
            "gsn_sensor_restarts_total counter\n"
            "gsn_sensor_state gauge\n"
            "gsn_sensor_triggers_total counter\n"
            "gsn_sensor_tuples_total counter\n"
            "gsn_sensors_deployed gauge\n"
            "gsn_shard_lock_wait_micros gauge\n"
            "gsn_shard_sensors gauge\n"
            "gsn_shard_ticks_total counter\n"
            "gsn_slow_queries_total counter\n"
            "gsn_tick_micros histogram\n"
            "gsn_tick_phase_micros histogram\n"
            "gsn_transport_accept_errors_total counter\n"
            "gsn_transport_accepted_total counter\n"
            "gsn_transport_connections gauge\n"
            "gsn_transport_dial_failures_total counter\n"
            "gsn_transport_http_requests_total counter\n"
            "gsn_transport_overflows_total counter\n"
            "gsn_transport_queued_bytes gauge\n"
            "gsn_transport_reconnects_total counter\n"
            "gsn_transport_resets_total counter\n"
            "gsn_transport_timeouts_total counter\n"
            "gsn_uptime_seconds gauge\n"
            "gsn_wrapper_elements_total counter\n"
            "gsn_wrapper_poll_micros histogram\n");
}

/// A seeded two-node federation: the consumer hears the producer's
/// heartbeats and directory entry; its chaos decorator answers the
/// chaos resource.
class FederatedApiGoldenTest : public ::testing::Test {
 protected:
  FederatedApiGoldenTest() : fed_(77) {
    producer_ = *fed_.AddNode("producer");
    consumer_ = *fed_.AddNode("consumer");
    EXPECT_TRUE(producer_->Deploy(kPoisonXml).ok());
    EXPECT_TRUE(fed_.RunFor(3 * kMicrosPerSecond, 100 * kMicrosPerMilli).ok());
    web_ = std::make_unique<WebInterface>(consumer_);
  }

  std::string Answer(const std::string& method, const std::string& path,
                     std::map<std::string, std::string> query = {},
                     const std::string& body = "") {
    HttpRequest request;
    request.method = method;
    request.path = path;
    request.query = std::move(query);
    request.body = body;
    const HttpResponse response = web_->Handle(request);
    return std::to_string(response.status) + " " + response.content_type +
           "\n" + response.body;
  }

  Federation fed_;
  Container* producer_ = nullptr;
  Container* consumer_ = nullptr;
  std::unique_ptr<WebInterface> web_;
};

TEST_F(FederatedApiGoldenTest, PeersDiscoverAndChaos) {
  EXPECT_EQ(Answer("GET", "/api/v1/peers"),
            "200 application/json\n"
            R"({"items":[{"node":"producer","circuit":"closed",)"
            R"("last_seen_micros":2100000,"circuit_opened_total":0}],)"
            R"("total":1})");
  EXPECT_EQ(Answer("GET", "/api/v1/discover", {{"type", "counter"}}),
            "200 application/json\n"
            R"([{"sensor":"poison","node":"producer",)"
            R"("predicates":{"type":"counter"},)"
            R"("schema":"seq:integer, inv:integer"}])");
  EXPECT_EQ(Answer("GET", "/api/v1/chaos"),
            "200 application/json\n"
            R"({"transport":"chaos+simulator","seed":139,)"
            R"("schedule_digest":"65806c266e95b408","injected":{"dropped":0,)"
            R"("duplicated":0,"reordered":0,"delayed":0,"throttled":0,)"
            R"("partitioned":0,"resets":0},"rules":[]})");
  EXPECT_EQ(Answer("POST", "/api/v1/chaos", {}, "loss producer 0.5 in"),
            "200 application/json\n"
            R"({"ok":true,"result":"loss producer = 0.5"})");
  EXPECT_EQ(Answer("POST", "/api/v1/chaos", {}, "delay producer 20 5 out"),
            "200 application/json\n"
            R"({"ok":true,"result":"delay producer = 20ms"})");
  EXPECT_EQ(Answer("POST", "/api/v1/chaos", {}, "loss producer 7"),
            "400 application/json\n"
            R"({"error":{"code":"InvalidArgument",)"
            R"("message":"chaos loss takes a probability between 0 and 1"}})");
  EXPECT_EQ(Answer("POST", "/api/v1/chaos").substr(0, 4), "400 ");
  EXPECT_EQ(Answer("GET", "/api/v1/chaos"),
            "200 application/json\n"
            R"({"transport":"chaos+simulator","seed":139,)"
            R"("schedule_digest":"35d688455ef430d7","injected":{"dropped":0,)"
            R"("duplicated":0,"reordered":0,"delayed":0,"throttled":0,)"
            R"("partitioned":0,"resets":0},"rules":[)"
            R"({"peer":"producer","direction":"in","frames":0,"drop":0.500000,)"
            R"("dup":0.000000,"reorder":0.000000,"reset":0.000000,)"
            R"("delay_micros":0,"delay_jitter_micros":0,)"
            R"("throttle_bytes_per_sec":0,"partitioned":false},)"
            R"({"peer":"producer","direction":"out","frames":0,)"
            R"("drop":0.000000,"dup":0.000000,"reorder":0.000000,)"
            R"("reset":0.000000,"delay_micros":20000,)"
            R"("delay_jitter_micros":5000,"throttle_bytes_per_sec":0,)"
            R"("partitioned":false}]})");
  EXPECT_EQ(JsonKeys(Answer("GET", "/api/v1/transport")),
            "items total peer_transport http accepted_total requests_total "
            "timeouts_total overflows_total");
}

}  // namespace
}  // namespace gsn::container
