#include "gsn/container/management_interface.h"

#include <cstdlib>
#include <sstream>

#include "gsn/network/chaos_transport.h"
#include "gsn/network/simulator.h"
#include "gsn/util/export.h"
#include "gsn/util/strings.h"

namespace gsn::container {

ManagementInterface::ManagementInterface(Container* container)
    : container_(container) {
  auto add = [this](const char* name, const char* args_help, const char* help,
                    auto handler) {
    commands_.push_back(Command{name, args_help, help, std::move(handler)});
  };
  add("list", "", "deployed virtual sensors",
      [this](const std::string&) { return CmdList(); });
  add("status", "[sensor]",
      "container-wide snapshot (no args) or one sensor's counters",
      [this](const std::string& a) { return CmdStatus(a); });
  add("deploy", "<descriptor-xml>", "deploy a virtual sensor",
      [this](const std::string& a) { return CmdDeploy(a); });
  add("undeploy", "<sensor>", "undeploy a virtual sensor",
      [this](const std::string& a) { return CmdUndeploy(a); });
  add("query", "<sql>", "one-shot SQL over sensor tables",
      [this](const std::string& a) { return CmdQuery(a); });
  add("explain", "[analyze] <sql>", "show the optimized execution pipeline",
      [this](const std::string& a) { return CmdExplain(a); });
  add("query-json", "<sql>", "result as JSON", [this](const std::string& a) {
    if (a.empty()) return std::string("ERROR: query-json requires SQL");
    Result<Relation> result = container_->Query(a, api_key_);
    if (!result.ok()) return "ERROR: " + result.status().ToString();
    return RelationToJson(*result) + "\n";
  });
  add("query-csv", "<sql>", "result as CSV", [this](const std::string& a) {
    if (a.empty()) return std::string("ERROR: query-csv requires SQL");
    Result<Relation> result = container_->Query(a, api_key_);
    if (!result.ok()) return "ERROR: " + result.status().ToString();
    return RelationToCsv(*result);
  });
  add("plot", "<column> <sql>", "ASCII chart of a numeric column",
      [this](const std::string& a) { return CmdPlot(a); });
  add("topology", "", "data-flow graph as Graphviz DOT",
      [this](const std::string&) { return CmdTopology(); });
  add("discover", "[k=v ...]", "directory lookup by predicates",
      [this](const std::string& a) { return CmdDiscover(a); });
  add("wrappers", "", "registered wrapper types",
      [this](const std::string&) { return CmdWrappers(); });
  add("describe", "<sensor>", "descriptor XML of a deployed sensor",
      [this](const std::string& a) { return CmdDescribe(a); });
  add("metrics", "", "telemetry in Prometheus text format",
      [this](const std::string&) { return CmdMetrics(); });
  add("slowlog", "[micros]",
      "show/set the slow-query log threshold; no args also prints "
      "retained entries",
      [this](const std::string& a) { return CmdSlowlog(a); });
  add("trace", "[rate]", "show/set the trace sample rate (0..1)",
      [this](const std::string& a) { return CmdTrace(a); });
  add("traces", "[trace-id]", "recorded spans, optionally one trace",
      [this](const std::string& a) { return CmdTraces(a); });
  add("peers", "", "federation peer health: circuit state and last-seen",
      [this](const std::string&) { return CmdPeers(); });
  add("transport", "",
      "transport fabric: implementation, counters, per-connection stats",
      [this](const std::string&) { return CmdTransport(); });
  add("segments", "", "columnar history tier: per-segment stats and totals",
      [this](const std::string&) { return CmdSegments(); });
  add("health", "", "liveness/readiness with not-ready reasons",
      [this](const std::string&) { return CmdHealth(); });
  add("quarantine", "[requeue <id> | clear]",
      "dead-letter store: list poison tuples, requeue one, or clear",
      [this](const std::string& a) { return CmdQuarantine(a); });
  add("checkpoint", "", "compact the manifest and every sensor WAL now",
      [this](const std::string&) { return CmdCheckpoint(); });
  add("drain", "",
      "graceful drain: stop admitting, flush queues, checkpoint, fsync",
      [this](const std::string&) { return CmdDrain(); });
  add("chaos", "<sub> ...",
      "per-peer fault rules on the attached chaos transport: status|seed|"
      "loss|dup|reorder|delay|throttle|partition|heal|reset",
      [this](const std::string& a) { return CmdChaos(a); });
  add("help", "", "this command list",
      [this](const std::string&) { return CmdHelp(); });
}

std::string ManagementInterface::Execute(const std::string& command_line) {
  const std::string line = StrTrim(command_line);
  if (line.empty()) return "";
  const size_t space = line.find_first_of(" \t\n");
  const std::string cmd = StrToLower(line.substr(0, space));
  const std::string rest =
      space == std::string::npos ? "" : StrTrim(line.substr(space + 1));
  for (const Command& command : commands_) {
    if (command.name == cmd) return command.handler(rest);
  }
  return "ERROR: unknown command '" + cmd + "' (try: help)";
}

std::string ManagementInterface::CmdHelp() const {
  // Generated from the registry so the listing can't drift from the
  // implemented commands.
  size_t width = 0;
  for (const Command& command : commands_) {
    const size_t usage = command.name.size() +
                         (command.args_help.empty()
                              ? 0
                              : command.args_help.size() + 1);
    if (usage > width) width = usage;
  }
  std::string out = "commands:\n";
  for (const Command& command : commands_) {
    std::string usage = command.name;
    if (!command.args_help.empty()) usage += " " + command.args_help;
    out += "  " + usage;
    if (!command.help.empty()) {
      out += std::string(width - usage.size() + 2, ' ') + command.help;
    }
    out += "\n";
  }
  return out;
}

std::string ManagementInterface::CmdList() const {
  const std::vector<std::string> sensors = container_->ListSensors();
  if (sensors.empty()) return "(no virtual sensors deployed)\n";
  std::string out;
  for (const std::string& name : sensors) out += name + "\n";
  return out;
}

std::string ManagementInterface::CmdStatus(const std::string& sensor) const {
  if (sensor.empty()) return CmdContainerStatus();
  Result<Container::SensorStatus> status =
      container_->GetSensorStatus(sensor);
  if (!status.ok()) return "ERROR: " + status.status().ToString();
  std::ostringstream os;
  os << "sensor:             " << status->name << "\n"
     << "state:              " << Container::SensorStateName(status->state)
     << "\n"
     << "pool size:          " << status->pool_size << "\n"
     << "triggers:           " << status->stats.triggers << "\n"
     << "elements produced:  " << status->stats.produced << "\n"
     << "rate limited:       " << status->stats.rate_limited << "\n"
     << "pipeline errors:    " << status->stats.errors << "\n"
     << "restarts:           " << status->restart_attempts << "\n"
     << "queue depth:        " << status->queue_depth << "\n"
     << "shed:               " << status->shed << "\n"
     << "stored rows:        " << status->stored_rows << "\n"
     << "stored bytes:       " << status->stored_bytes << "\n"
     << "remote subscribers: " << status->remote_subscribers << "\n";
  if (status->stats.triggers > 0) {
    os << "mean processing us: "
       << status->stats.total_processing_micros / status->stats.triggers
       << "\n";
  }
  return os.str();
}

std::string ManagementInterface::CmdContainerStatus() const {
  const Container::ContainerStatus status = container_->GetStatus();
  const wrappers::SystemSnapshot& t = status.totals;
  std::ostringstream os;
  os << "node:       " << status.node_id << "  (" << status.version << ", "
     << status.compiler << ")\n"
     << "uptime:     " << t.uptime_seconds << "s  rss=" << t.rss_bytes
     << "B  cpu=" << t.cpu_seconds << "s\n"
     << "health:     " << (status.health.ready ? "ready" : "NOT READY")
     << (status.draining ? " (draining)" : "") << "\n";
  for (const std::string& reason : status.health.reasons) {
    os << "  - " << reason << "\n";
  }
  os << "sensors:    " << t.sensors << " (" << t.running << " running, "
     << t.restarting << " restarting, " << t.failed << " failed)\n"
     << "pipeline:   tuples=" << t.tuples_total << "  errors="
     << t.errors_total << "  queue-depth=" << t.queue_depth << "  shed="
     << t.shed_total << "  quarantined=" << t.quarantined << "\n"
     << "scheduling: tick-mean=" << t.tick_mean_ms << "ms  tick-p95="
     << t.tick_p95_ms << "ms  lock-wait-share=" << t.lock_wait_share
     << "  queue-wait-p95=" << t.queue_wait_p95_ms << "ms\n"
     << "federation: peers=" << t.peers << "  open-circuits="
     << t.open_circuits << "  replay-bytes=" << t.replay_bytes << "\n"
     << "storage:    segments=" << t.segments << " (" << t.segment_bytes
     << " bytes)  recovery-records=" << status.recovered_records
     << "  recovery-failures=" << status.recovery_failures << "\n"
     << "telemetry:  " << t.metric_series << " metric series\n";
  for (const Container::SensorStatus& vs : status.sensors) {
    os << "  sensor " << vs.name << "  state="
       << Container::SensorStateName(vs.state) << "  produced="
       << vs.stats.produced << "  queue=" << vs.queue_depth << "  shed="
       << vs.shed << "\n";
  }
  os << "shards:\n";
  for (const Container::ShardStatus& shard : status.shards) {
    os << "  shard-" << shard.index << "  sensors=" << shard.sensors
       << "  ticks=" << shard.ticks_total
       << "  contended=" << shard.lock_contended
       << "  wait=" << shard.lock_wait_micros << "us\n";
  }
  os << "locks:\n";
  for (const Container::LockStats& lock : status.locks) {
    os << "  " << lock.name << "  acquisitions=" << lock.acquisitions
       << "  contended=" << lock.contended << "  wait=" << lock.wait_micros
       << "us\n";
  }
  os << "hot spans:\n";
  for (const telemetry::Profiler::SpanStats& span : status.hot_spans) {
    os << "  " << span.name << "  count=" << span.count << "  total="
       << span.total_micros << "us  max=" << span.max_micros << "us\n";
  }
  return os.str();
}

std::string ManagementInterface::CmdDeploy(const std::string& xml) {
  if (xml.empty()) return "ERROR: deploy requires descriptor XML";
  Result<vsensor::VirtualSensor*> sensor = container_->Deploy(xml, api_key_);
  if (!sensor.ok()) return "ERROR: " + sensor.status().ToString();
  return "deployed '" + (*sensor)->name() + "'\n";
}

std::string ManagementInterface::CmdUndeploy(const std::string& sensor) {
  if (sensor.empty()) return "ERROR: undeploy requires a sensor name";
  const Status s = container_->Undeploy(sensor, api_key_);
  if (!s.ok()) return "ERROR: " + s.ToString();
  return "undeployed '" + sensor + "'\n";
}

std::string ManagementInterface::CmdQuery(const std::string& sql) {
  if (sql.empty()) return "ERROR: query requires SQL";
  Result<Relation> result = container_->Query(sql, api_key_);
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return result->ToString(50);
}

std::string ManagementInterface::CmdExplain(const std::string& args) {
  if (args.empty()) return "ERROR: explain requires SQL";
  // "explain analyze <sql>" executes with instrumentation and prints
  // actual per-operator rows/timings.
  const size_t kw = args.find_first_of(" \t");
  if (kw != std::string::npos && StrToLower(args.substr(0, kw)) == "analyze") {
    Result<std::string> plan = container_->query_manager().ExplainAnalyze(
        StrTrim(args.substr(kw + 1)));
    return plan.ok() ? *plan : "ERROR: " + plan.status().ToString();
  }
  Result<std::string> plan = container_->query_manager().Explain(args);
  return plan.ok() ? *plan : "ERROR: " + plan.status().ToString();
}

std::string ManagementInterface::CmdPlot(const std::string& args) {
  const size_t sep = args.find_first_of(" \t");
  if (sep == std::string::npos) {
    return "ERROR: plot requires a column name and SQL";
  }
  const std::string column = args.substr(0, sep);
  Result<Relation> result =
      container_->Query(StrTrim(args.substr(sep + 1)), api_key_);
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  Result<std::string> chart = AsciiPlot(*result, column);
  return chart.ok() ? *chart : "ERROR: " + chart.status().ToString();
}

std::string ManagementInterface::CmdTopology() const {
  std::vector<GraphEdge> edges;
  for (const Container::TopologyEdge& e : container_->Topology()) {
    edges.push_back(GraphEdge{e.from, e.to, e.label});
  }
  return EdgesToDot(container_->node_id(), edges);
}

std::string ManagementInterface::CmdDiscover(const std::string& args) const {
  std::map<std::string, std::string> query;
  for (const std::string& piece : StrSplit(args, ' ')) {
    const std::string trimmed = StrTrim(piece);
    if (trimmed.empty()) continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      return "ERROR: discover arguments must be key=value";
    }
    query[trimmed.substr(0, eq)] = trimmed.substr(eq + 1);
  }
  const std::vector<network::DirectoryEntry> entries =
      container_->Discover(query);
  if (entries.empty()) return "(no matching virtual sensors)\n";
  std::string out;
  for (const network::DirectoryEntry& entry : entries) {
    out += entry.sensor_name + " @ " + entry.node_id + " {";
    bool first = true;
    for (const auto& [key, val] : entry.predicates) {
      if (!first) out += ", ";
      first = false;
      out += key + "=" + val;
    }
    out += "} (" + entry.output_schema.ToString() + ")\n";
  }
  return out;
}

std::string ManagementInterface::CmdWrappers() const {
  std::string out;
  for (const std::string& name : container_->wrapper_registry().Names()) {
    out += name + "\n";
  }
  return out;
}

std::string ManagementInterface::CmdDescribe(const std::string& sensor) const {
  vsensor::VirtualSensor* vs = container_->FindSensor(sensor);
  if (vs == nullptr) return "ERROR: NotFound: no such sensor: " + sensor;
  return vs->spec().ToXml();
}

std::string ManagementInterface::CmdMetrics() const {
  std::string out = container_->metrics()->RenderPrometheus();
  if (container_->metrics() != telemetry::MetricRegistry::Default()) {
    out += telemetry::MetricRegistry::Default()->RenderPrometheus();
  }
  return out;
}

std::string ManagementInterface::CmdSlowlog(const std::string& args) {
  if (args.empty()) {
    const int64_t threshold = container_->query_manager().slow_query_micros();
    if (threshold <= 0) return "slow-query log disabled\n";
    std::string out =
        "slow-query threshold: " + std::to_string(threshold) + " micros\n";
    const std::vector<QueryManager::SlowQueryEntry> entries =
        container_->query_manager().slow_log();
    if (entries.empty()) {
      out += "(no slow queries recorded)\n";
      return out;
    }
    for (const QueryManager::SlowQueryEntry& entry : entries) {
      out += "-- " + std::to_string(entry.elapsed_micros) + "us from " +
             entry.source + ": " + entry.sql_text + "\n";
      if (!entry.plan.empty()) out += entry.plan;
    }
    return out;
  }
  char* end = nullptr;
  const long long threshold = std::strtoll(args.c_str(), &end, 10);
  if (end == args.c_str() || *end != '\0' || threshold < 0) {
    return "ERROR: slowlog takes a non-negative microsecond threshold";
  }
  container_->query_manager().set_slow_query_micros(threshold);
  return threshold == 0 ? "slow-query log disabled\n"
                        : "slow-query threshold set to " +
                              std::to_string(threshold) + " micros\n";
}

std::string ManagementInterface::CmdTrace(const std::string& args) {
  telemetry::Tracer* tracer = container_->tracer();
  if (args.empty()) {
    std::ostringstream os;
    os << "trace sample rate: " << tracer->sample_rate() << "\n"
       << "spans recorded:    " << tracer->store().size() << " (dropped "
       << tracer->store().dropped() << ")\n";
    return os.str();
  }
  char* end = nullptr;
  const double rate = std::strtod(args.c_str(), &end);
  if (end == args.c_str() || *end != '\0' || rate < 0.0 || rate > 1.0) {
    return "ERROR: trace takes a sample rate between 0 and 1";
  }
  tracer->set_sample_rate(rate);
  std::ostringstream os;
  os << "trace sample rate set to " << rate << "\n";
  return os.str();
}

std::string ManagementInterface::CmdTraces(const std::string& args) const {
  std::string id = args;
  if (!id.empty()) {
    uint64_t hi = 0;
    uint64_t lo = 0;
    if (!telemetry::ParseTraceIdHex(id, &hi, &lo)) {
      return "ERROR: traces takes a 32-char hex trace id";
    }
  }
  return telemetry::RenderTracesJson(container_->tracer()->store(), id) +
         "\n";
}

std::string ManagementInterface::CmdPeers() const {
  const std::vector<Container::PeerStatus> peers = container_->PeerStatuses();
  if (peers.empty()) return "(no federation peers heard from)\n";
  std::string out;
  for (const Container::PeerStatus& peer : peers) {
    out += peer.node_id + "  circuit=" + peer.circuit +
           "  last-seen=" + std::to_string(peer.last_seen) + "us" +
           "  opened=" + std::to_string(peer.circuit_opened_total) + "\n";
  }
  return out;
}

std::string ManagementInterface::CmdTransport() const {
  network::Transport* transport = container_->network();
  if (transport == nullptr) {
    return "(standalone container: no transport attached)\n";
  }
  std::string out = "transport=" + transport->transport_name() + "\n";
  const std::vector<network::ConnectionStats> connections =
      transport->Connections();
  if (connections.empty()) {
    out += "(no live connections)\n";
    return out;
  }
  for (const network::ConnectionStats& c : connections) {
    out += c.peer + "  kind=" + c.kind + "  state=" + c.state +
           "  queued=" + std::to_string(c.queued_bytes) + "B" +
           "  requests=" + std::to_string(c.requests_served) +
           "  frames=" + std::to_string(c.frames_in) + "/" +
           std::to_string(c.frames_out) +
           "  idle=" + std::to_string(c.idle_micros) + "us\n";
  }
  return out;
}

std::string ManagementInterface::CmdSegments() const {
  const storage::columnar::SegmentCatalog* catalog =
      container_->segment_catalog();
  if (catalog == nullptr) {
    return "(columnar history disabled: no durability root)\n";
  }
  const std::vector<storage::columnar::SegmentMeta> segments = catalog->List();
  std::string out = std::to_string(segments.size()) + " segment(s), " +
                    std::to_string(catalog->total_bytes()) + " bytes under " +
                    catalog->dir() + "\n";
  for (const storage::columnar::SegmentMeta& meta : segments) {
    out += meta.table + "/seg-" + std::to_string(meta.id) + "  rows=" +
           std::to_string(meta.row_count) + "  chunks=" +
           std::to_string(meta.chunk_count) + "  bytes=" +
           std::to_string(meta.bytes) + "  timed=[" +
           std::to_string(meta.min_timed) + "," +
           std::to_string(meta.max_timed) + "]\n";
  }
  return out;
}

std::string ManagementInterface::CmdHealth() const {
  const Container::Health health = container_->GetHealth();
  std::string out = std::string("live:  ") + (health.live ? "yes" : "no") +
                    "\nready: " + (health.ready ? "yes" : "no") + "\n";
  for (const std::string& reason : health.reasons) {
    out += "  - " + reason + "\n";
  }
  return out;
}

std::string ManagementInterface::CmdQuarantine(const std::string& args) {
  const std::string trimmed = StrTrim(args);
  if (trimmed.empty()) {
    const std::vector<QuarantineStore::Entry> entries =
        container_->quarantine().List();
    if (entries.empty()) return "(quarantine empty)\n";
    std::string out;
    for (const QuarantineStore::Entry& entry : entries) {
      out += "#" + std::to_string(entry.id) + "  " + entry.sensor + "/" +
             entry.stream + "/" + entry.source_alias + "  at=" +
             std::to_string(entry.quarantined_at) + "us  " + entry.error +
             "\n";
    }
    return out;
  }
  if (StrToLower(trimmed) == "clear") {
    return "cleared " + std::to_string(container_->quarantine().Clear()) +
           " tuple(s)\n";
  }
  const size_t space = trimmed.find_first_of(" \t");
  const std::string sub = StrToLower(trimmed.substr(0, space));
  if (sub == "requeue" && space != std::string::npos) {
    Result<int64_t> id = ParseInt64(StrTrim(trimmed.substr(space + 1)));
    if (!id.ok() || *id < 0) return "ERROR: requeue takes an entry id";
    const Status status =
        container_->RequeueQuarantined(static_cast<uint64_t>(*id));
    if (!status.ok()) return "ERROR: " + status.ToString();
    return "requeued #" + std::to_string(*id) + "\n";
  }
  return "ERROR: usage: quarantine [requeue <id> | clear]";
}

std::string ManagementInterface::CmdCheckpoint() {
  const Status status = container_->Checkpoint();
  if (!status.ok()) return "ERROR: " + status.ToString();
  return "checkpointed\n";
}

std::string ManagementInterface::CmdDrain() {
  const Status status = container_->Shutdown();
  if (!status.ok()) return "ERROR: " + status.ToString();
  return "drained\n";
}

std::string ManagementInterface::CmdChaos(const std::string& args) {
  // One chaos vocabulary for every transport (docs/CHAOS.md):
  // ChaosTransport answers the per-peer rule grammar, anything else
  // explains itself.
  Result<std::string> result =
      network::ExecuteChaosCommand(container_->network(), args);
  if (!result.ok()) return "ERROR: " + result.status().message();
  return *result;
}

}  // namespace gsn::container
