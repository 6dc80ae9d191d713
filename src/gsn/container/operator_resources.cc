#include "gsn/container/operator_resources.h"

#include <cmath>
#include <cstdio>
#include <string_view>

#include "gsn/network/chaos_transport.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/util/export.h"
#include "gsn/util/strings.h"

namespace gsn::container {

// ---------------------------------------------------------------------------
// The document and its two renderers
// ---------------------------------------------------------------------------

Doc::Doc(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  text = buffer;
}

Doc Doc::Text(std::string body, const char* content_type) {
  Doc doc(Kind::kText);
  doc.text = std::move(body);
  doc.content_type = content_type;
  return doc;
}

Doc Doc::Rows(Relation relation) {
  Doc doc(Kind::kRows);
  doc.rows = std::make_shared<Relation>(std::move(relation));
  return doc;
}

Doc& Doc::Add(std::string key, Doc value) & {
  keys.push_back(std::move(key));
  items.push_back(std::move(value));
  return *this;
}

Doc&& Doc::Add(std::string key, Doc value) && {
  return std::move(Add(std::move(key), std::move(value)));
}

Doc& Doc::Push(Doc value) {
  items.push_back(std::move(value));
  return *this;
}

namespace {

void AppendJson(const Doc& doc, std::string* out) {
  switch (doc.kind) {
    case Doc::Kind::kLiteral:
      *out += doc.text;
      return;
    case Doc::Kind::kString:
    case Doc::Kind::kText:
      *out += JsonEscape(doc.text);
      return;
    case Doc::Kind::kRows:
      *out += RelationToJson(*doc.rows);
      return;
    case Doc::Kind::kArray:
    case Doc::Kind::kObject: {
      const bool object = doc.kind == Doc::Kind::kObject;
      *out += object ? '{' : '[';
      for (size_t i = 0; i < doc.items.size(); ++i) {
        if (i > 0) *out += ',';
        if (object) *out += JsonEscape(doc.keys[i]) + ":";
        AppendJson(doc.items[i], out);
      }
      *out += object ? '}' : ']';
      return;
    }
  }
}

/// A value inside one text line: scalars bare, objects as {k=v ...},
/// arrays as [a b].
void AppendInline(const Doc& doc, std::string* out) {
  switch (doc.kind) {
    case Doc::Kind::kRows:
      *out += doc.rows->ToString(50);
      return;
    case Doc::Kind::kArray:
    case Doc::Kind::kObject: {
      const bool object = doc.kind == Doc::Kind::kObject;
      *out += object ? '{' : '[';
      for (size_t i = 0; i < doc.items.size(); ++i) {
        if (i > 0) *out += ' ';
        if (object) *out += doc.keys[i] + "=";
        AppendInline(doc.items[i], out);
      }
      *out += object ? '}' : ']';
      return;
    }
    default:
      *out += doc.text;
  }
}

/// One array item: an object as `k=v k=v ...`, anything else inline.
void AppendItemLine(const Doc& item, const char* indent, std::string* out) {
  *out += indent;
  if (item.kind != Doc::Kind::kObject) {
    AppendInline(item, out);
  } else {
    for (size_t i = 0; i < item.items.size(); ++i) {
      if (i > 0) *out += ' ';
      *out += item.keys[i] + "=";
      AppendInline(item.items[i], out);
    }
  }
  *out += '\n';
}

}  // namespace

std::string RenderJson(const Doc& doc) {
  if (doc.kind == Doc::Kind::kRows) return RelationToJson(*doc.rows);
  std::string out;
  AppendJson(doc, &out);
  return out;
}

std::string RenderText(const Doc& doc) {
  std::string out;
  if (doc.kind == Doc::Kind::kArray) {
    for (const Doc& item : doc.items) AppendItemLine(item, "", &out);
    if (doc.items.empty()) out = "(none)\n";
  } else if (doc.kind == Doc::Kind::kObject) {
    for (size_t i = 0; i < doc.items.size(); ++i) {
      const Doc& value = doc.items[i];
      out += doc.keys[i] + ":";
      if (value.kind == Doc::Kind::kArray && !value.items.empty()) {
        out += '\n';
        for (const Doc& item : value.items) AppendItemLine(item, "  ", &out);
      } else if (value.kind == Doc::Kind::kObject) {
        out += '\n';
        for (size_t j = 0; j < value.items.size(); ++j) {
          out += "  " + value.keys[j] + ": ";
          AppendInline(value.items[j], &out);
          out += '\n';
        }
      } else if (value.kind == Doc::Kind::kArray) {
        out += " (none)\n";
      } else {
        out += ' ';
        AppendInline(value, &out);
        out += '\n';
      }
    }
  } else {
    AppendInline(doc, &out);
  }
  while (!out.empty() && out.back() == '\n') out.pop_back();
  return out + "\n";
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

Status ParseArg(const Arg& arg, bool http, ArgValue* value) {
  if (arg.kind != ArgKind::kCount && arg.kind != ArgKind::kNumber) {
    return Status::OK();
  }
  const std::string name = http ? "?" + std::string(arg.name) + "="
                                : "<" + std::string(arg.name) + ">";
  if (arg.kind == ArgKind::kCount) {
    Result<int64_t> count = ParseInt64(value->text);
    if (!count.ok() || *count < 0) {
      return Status::InvalidArgument(name + " must be a non-negative integer");
    }
    value->count = *count;
    return Status::OK();
  }
  Result<double> number = ParseDouble(value->text);
  if (!number.ok() || !std::isfinite(*number) || *number < arg.min ||
      *number > arg.max) {
    char range[64];
    std::snprintf(range, sizeof(range), " must be a number from %g to %g",
                  arg.min, arg.max);
    return Status::InvalidArgument(name + range);
  }
  value->number = *number;
  return Status::OK();
}

Status CheckArgs(const Resource& row, bool http, Call* call) {
  for (size_t i = 0; i < row.args.size(); ++i) {
    const Arg& arg = row.args[i];
    ArgValue& value = call->args[i];
    if (!value.present) {
      if (!arg.required) continue;
      if (!http) return Status::InvalidArgument("usage: " + row.usage());
      if (arg.kind == ArgKind::kText &&
          std::string_view(row.method) == "POST") {
        return Status::InvalidArgument("missing POST body");
      }
      return Status::InvalidArgument("missing ?" + std::string(arg.name) +
                                     "= parameter");
    }
    GSN_RETURN_IF_ERROR(ParseArg(arg, http, &value));
  }
  return Status::OK();
}

bool Resource::prefix() const {
  const std::string_view p(path);
  return !p.empty() && p.back() == '/';
}

std::string Resource::route() const {
  if (*method == '\0') return "";
  std::string out = std::string("/api/v1") + path;
  if (prefix()) out += "<" + std::string(args.front().name) + ">";
  return out;
}

std::string Resource::usage() const {
  std::string out = verb;
  for (const Arg& arg : args) {
    if (arg.kind == ArgKind::kPairs) {
      out += " [k=v ...]";
    } else if (arg.required) {
      out += " <" + std::string(arg.name) + ">";
    } else {
      out += " [" + std::string(arg.name) + "]";
    }
    if (arg.kind == ArgKind::kText) break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

namespace {

/// The list envelope {"items":[<page>],"total":N}: `total` counts every
/// item before ?limit=&offset=, and `item(i)` builds only the page.
template <typename Fn>
Doc ListDoc(size_t total, const Call& call, Fn item) {
  Doc items = Doc::Array();
  for (size_t i = call.offset; i < total && i - call.offset < call.limit;
       ++i) {
    items.Push(item(i));
  }
  return Doc::Object().Add("items", std::move(items)).Add("total", total);
}

Doc StringArray(const std::vector<std::string>& values) {
  Doc array = Doc::Array();
  for (const std::string& value : values) array.Push(value);
  return array;
}

void PushConnections(const network::Transport& transport, const char* role,
                     std::vector<Doc>* items) {
  for (const network::ConnectionStats& c : transport.Connections()) {
    items->push_back(Doc::Object()
                         .Add("role", role)
                         .Add("transport", transport.transport_name())
                         .Add("peer", c.peer)
                         .Add("kind", c.kind)
                         .Add("state", c.state)
                         .Add("queued_bytes", c.queued_bytes)
                         .Add("requests_served", c.requests_served)
                         .Add("frames_in", c.frames_in)
                         .Add("frames_out", c.frames_out)
                         .Add("age_micros", c.age_micros)
                         .Add("idle_micros", c.idle_micros));
  }
}

Doc StatusDoc(const Container::ContainerStatus& status) {
  const wrappers::SystemSnapshot& t = status.totals;
  Doc sensors = Doc::Array();
  for (const Container::SensorStatus& sensor : status.sensors) {
    sensors.Push(Doc::Object()
                     .Add("name", sensor.name)
                     .Add("state", Container::SensorStateName(sensor.state))
                     .Add("produced", sensor.stats.produced)
                     .Add("errors", sensor.stats.errors)
                     .Add("restarts", sensor.restart_attempts)
                     .Add("queue_depth", sensor.queue_depth)
                     .Add("shed", sensor.shed)
                     .Add("stored_rows", sensor.stored_rows));
  }
  Doc shards = Doc::Array();
  for (const Container::ShardStatus& shard : status.shards) {
    shards.Push(Doc::Object()
                    .Add("index", shard.index)
                    .Add("sensors", shard.sensors)
                    .Add("ticks_total", shard.ticks_total)
                    .Add("lock_acquisitions", shard.lock_acquisitions)
                    .Add("lock_contended", shard.lock_contended)
                    .Add("lock_wait_micros", shard.lock_wait_micros));
  }
  Doc locks = Doc::Array();
  for (const Container::LockStats& lock : status.locks) {
    locks.Push(Doc::Object()
                   .Add("name", lock.name)
                   .Add("acquisitions", lock.acquisitions)
                   .Add("contended", lock.contended)
                   .Add("wait_micros", lock.wait_micros));
  }
  Doc spans = Doc::Array();
  for (const Container::SpanStats& span : status.hot_spans) {
    spans.Push(Doc::Object()
                   .Add("name", span.name)
                   .Add("count", span.count)
                   .Add("total_micros", span.total_micros)
                   .Add("max_micros", span.max_micros));
  }
  Doc peers = Doc::Array();
  for (const Container::PeerStatus& peer : status.peers) {
    peers.Push(
        Doc::Object().Add("node", peer.node_id).Add("circuit", peer.circuit));
  }
  return Doc::Object()
      .Add("node", status.node_id)
      .Add("version", status.version)
      .Add("compiler", status.compiler)
      .Add("draining", status.draining)
      .Add("ready", status.health.ready)
      .Add("reasons", StringArray(status.health.reasons))
      .Add("totals", Doc::Object()
                         .Add("uptime_s", t.uptime_seconds)
                         .Add("sensors", t.sensors)
                         .Add("running", t.running)
                         .Add("restarting", t.restarting)
                         .Add("failed", t.failed)
                         .Add("queue_depth", t.queue_depth)
                         .Add("shed_total", t.shed_total)
                         .Add("quarantined", t.quarantined)
                         .Add("replay_bytes", t.replay_bytes)
                         .Add("open_circuits", t.open_circuits)
                         .Add("peers", t.peers)
                         .Add("segments", t.segments)
                         .Add("segment_bytes", t.segment_bytes)
                         .Add("tuples_total", t.tuples_total)
                         .Add("errors_total", t.errors_total)
                         .Add("metric_series", t.metric_series)
                         .Add("tick_mean_ms", t.tick_mean_ms)
                         .Add("tick_p95_ms", t.tick_p95_ms)
                         .Add("lock_wait_share", t.lock_wait_share)
                         .Add("queue_wait_p95_ms", t.queue_wait_p95_ms)
                         .Add("rss_bytes", t.rss_bytes)
                         .Add("cpu_seconds", t.cpu_seconds))
      .Add("sensors", std::move(sensors))
      .Add("shards", std::move(shards))
      .Add("locks", std::move(locks))
      .Add("hot_spans", std::move(spans))
      .Add("peers", std::move(peers))
      .Add("recovery", Doc::Object()
                           .Add("records", status.recovered_records)
                           .Add("failures", status.recovery_failures));
}

Doc SpanDoc(const telemetry::SpanRecord& span) {
  std::string parent;
  if (span.parent_span_id != 0) {
    TraceContext context;
    context.span_id = span.parent_span_id;
    parent = context.SpanIdHex();
  }
  return Doc::Object()
      .Add("trace", span.TraceIdHex())
      .Add("span", span.SpanIdHex())
      .Add("parent", std::move(parent))
      .Add("name", span.name)
      .Add("sensor", span.sensor)
      .Add("node", span.node)
      .Add("start_micros", span.start_micros)
      .Add("duration_micros", span.duration_micros)
      .Add("error", span.error);
}

Doc ChaosDoc(network::ChaosTransport& chaos) {
  const network::ChaosTransport::Counters c = chaos.counters();
  Doc rules = Doc::Array();
  for (const network::ChaosTransport::RuleEntry& entry : chaos.Rules()) {
    const network::ChaosTransport::Rule& r = entry.rule;
    rules.Push(Doc::Object()
                   .Add("peer", entry.peer)
                   .Add("direction", network::DirectionName(entry.direction))
                   .Add("frames", entry.frames)
                   .Add("drop", r.drop)
                   .Add("dup", r.dup)
                   .Add("reorder", r.reorder)
                   .Add("reset", r.reset)
                   .Add("delay_micros", r.delay_micros)
                   .Add("delay_jitter_micros", r.delay_jitter_micros)
                   .Add("throttle_bytes_per_sec", r.throttle_bytes_per_sec)
                   .Add("partitioned", r.partitioned));
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(chaos.ScheduleDigest()));
  return Doc::Object()
      .Add("transport", chaos.transport_name())
      .Add("seed", chaos.seed())
      .Add("schedule_digest", digest)
      .Add("injected", Doc::Object()
                           .Add("dropped", c.dropped)
                           .Add("duplicated", c.duplicated)
                           .Add("reordered", c.reordered)
                           .Add("delayed", c.delayed)
                           .Add("throttled", c.throttled)
                           .Add("partitioned", c.partitioned)
                           .Add("resets", c.resets))
      .Add("rules", std::move(rules));
}

/// Query result as a text leaf of one export format (query-json/-csv).
Result<Doc> ExportQuery(Call& c, std::string (*format)(const Relation&),
                        const char* content_type) {
  Result<Relation> result = c.container->Query(c.args[0].text, c.api_key);
  if (!result.ok()) return result.status();
  return Doc::Text(format(*result), content_type);
}

Doc HelpDoc();

constexpr char kPlainText[] = "text/plain; charset=utf-8";

const std::vector<Resource>& Table() {
  using K = ArgKind;
  static const std::vector<Resource> table = {
      {"list", "GET", "/sensors", {}, false, "deployed virtual sensors",
       [](Call& c) -> Result<Doc> {
         Doc sensors = Doc::Array();
         for (const std::string& name : c.container->ListSensors()) {
           Result<Container::SensorStatus> s =
               c.container->GetSensorStatus(name);
           if (!s.ok()) continue;
           sensors.Push(Doc::Object()
                            .Add("name", name)
                            .Add("state", Container::SensorStateName(s->state))
                            .Add("produced", s->stats.produced)
                            .Add("stored_rows", s->stored_rows));
         }
         return sensors;
       }},
      {"status", "GET", "/sensors/", {{"name", K::kWord, true}}, false,
       "one sensor's counters",
       [](Call& c) -> Result<Doc> {
         Result<Container::SensorStatus> s =
             c.container->GetSensorStatus(c.args[0].text);
         if (!s.ok()) return s.status();
         return Doc::Object()
             .Add("name", s->name)
             .Add("state", Container::SensorStateName(s->state))
             .Add("pool_size", s->pool_size)
             .Add("triggers", s->stats.triggers)
             .Add("produced", s->stats.produced)
             .Add("rate_limited", s->stats.rate_limited)
             .Add("errors", s->stats.errors)
             .Add("restarts", s->restart_attempts)
             .Add("queue_depth", s->queue_depth)
             .Add("shed", s->shed)
             .Add("stored_rows", s->stored_rows)
             .Add("stored_bytes", s->stored_bytes)
             .Add("remote_subscribers", s->remote_subscribers);
       }},
      {"query", "GET", "/query",
       {{"sql", K::kText, true}, {"format", K::kWord}}, false,
       "one-shot SQL over sensor tables (HTTP: &format=csv for CSV)",
       [](Call& c) -> Result<Doc> {
         Result<Relation> result =
             c.container->Query(c.args[0].text, c.api_key);
         if (!result.ok()) return result.status();
         if (c.args[1].text == "csv") {
           return Doc::Text(RelationToCsv(*result), "text/csv");
         }
         return Doc::Rows(*std::move(result));
       }},
      {"explain", "GET", "/explain",
       {{"analyze", K::kFlag}, {"sql", K::kText, true}}, false,
       "the optimized execution pipeline; analyze runs it and annotates "
       "actual rows and timings",
       [](Call& c) -> Result<Doc> {
         QueryManager& qm = c.container->query_manager();
         const std::string& sql = c.args[1].text;
         Result<std::string> plan =
             c.args[0].present ? qm.ExplainAnalyze(sql) : qm.Explain(sql);
         if (!plan.ok()) return plan.status();
         return Doc::Text(*std::move(plan), kPlainText);
       }},
      {"query-json", "", "", {{"sql", K::kText, true}}, false,
       "query result as JSON",
       [](Call& c) {
         return ExportQuery(c, RelationToJson, "application/json");
       }},
      {"query-csv", "", "", {{"sql", K::kText, true}}, false,
       "query result as CSV",
       [](Call& c) { return ExportQuery(c, RelationToCsv, "text/csv"); }},
      {"plot", "", "", {{"column", K::kWord, true}, {"sql", K::kText, true}},
       false, "ASCII chart of a numeric column",
       [](Call& c) -> Result<Doc> {
         Result<Relation> result =
             c.container->Query(c.args[1].text, c.api_key);
         if (!result.ok()) return result.status();
         Result<std::string> chart = AsciiPlot(*result, c.args[0].text);
         if (!chart.ok()) return chart.status();
         return Doc::Text(*std::move(chart), kPlainText);
       }},
      {"discover", "GET", "/discover", {{"predicates", K::kPairs}}, false,
       "directory lookup by predicates",
       [](Call& c) -> Result<Doc> {
         Doc entries = Doc::Array();
         for (const network::DirectoryEntry& entry :
              c.container->Discover(c.pairs)) {
           Doc predicates = Doc::Object();
           for (const auto& [key, val] : entry.predicates) {
             predicates.Add(key, val);
           }
           entries.Push(Doc::Object()
                            .Add("sensor", entry.sensor_name)
                            .Add("node", entry.node_id)
                            .Add("predicates", std::move(predicates))
                            .Add("schema", entry.output_schema.ToString()));
         }
         return entries;
       }},
      {"topology", "GET", "/topology", {}, false,
       "data-flow graph as Graphviz DOT",
       [](Call& c) -> Result<Doc> {
         std::vector<GraphEdge> edges;
         for (const Container::TopologyEdge& e : c.container->Topology()) {
           edges.push_back(GraphEdge{e.from, e.to, e.label});
         }
         return Doc::Text(EdgesToDot(c.container->node_id(), edges),
                          "text/vnd.graphviz");
       }},
      {"wrappers", "", "", {}, false, "registered wrapper types",
       [](Call& c) -> Result<Doc> {
         return StringArray(c.container->wrapper_registry().Names());
       }},
      {"describe", "", "", {{"name", K::kWord, true}}, false,
       "descriptor XML of a deployed sensor",
       [](Call& c) -> Result<Doc> {
         const vsensor::VirtualSensor* sensor =
             c.container->FindSensor(c.args[0].text);
         if (sensor == nullptr) {
           return Status::NotFound("no such sensor: " + c.args[0].text);
         }
         return Doc::Text(sensor->spec().ToXml(), "application/xml");
       }},
      {"metrics", "GET", "/metrics", {}, false,
       "telemetry in Prometheus text format",
       [](Call& c) -> Result<Doc> {
         std::string body = c.container->metrics()->RenderPrometheus();
         // Process-wide series (e.g. the SQL join-strategy counters) live
         // in the default registry; append them when the container isn't
         // already using it.
         if (c.container->metrics() != telemetry::MetricRegistry::Default()) {
           body += telemetry::MetricRegistry::Default()->RenderPrometheus();
         }
         return Doc::Text(std::move(body),
                          "text/plain; version=0.0.4; charset=utf-8");
       }},
      {"slowlog", "", "", {{"micros", K::kCount}}, false,
       "show/set the slow-query threshold (0 disables) and the retained "
       "entries",
       [](Call& c) -> Result<Doc> {
         QueryManager& qm = c.container->query_manager();
         if (c.args[0].present) qm.set_slow_query_micros(c.args[0].count);
         Doc entries = Doc::Array();
         for (const QueryManager::SlowQueryEntry& entry : qm.slow_log()) {
           entries.Push(Doc::Object()
                            .Add("elapsed_micros", entry.elapsed_micros)
                            .Add("source", entry.source)
                            .Add("sql", entry.sql_text)
                            .Add("plan", entry.plan));
         }
         return Doc::Object()
             .Add("threshold_micros", qm.slow_query_micros())
             .Add("entries", std::move(entries));
       }},
      {"trace", "", "", {{"rate", K::kNumber, false, 0, 1}}, false,
       "show/set the trace sample rate",
       [](Call& c) -> Result<Doc> {
         telemetry::Tracer* tracer = c.container->tracer();
         if (c.args[0].present) tracer->set_sample_rate(c.args[0].number);
         return Doc::Object()
             .Add("sample_rate", tracer->sample_rate())
             .Add("spans", tracer->store().size())
             .Add("dropped", tracer->store().dropped());
       }},
      {"traces", "GET", "/traces", {{"id", K::kWord}}, true,
       "recorded trace spans, optionally of one 32-hex trace id",
       [](Call& c) -> Result<Doc> {
         const telemetry::TraceStore& store = c.container->tracer()->store();
         std::vector<telemetry::SpanRecord> spans;
         if (c.args[0].present) {
           uint64_t hi = 0;
           uint64_t lo = 0;
           if (!telemetry::ParseTraceIdHex(c.args[0].text, &hi, &lo)) {
             return Status::InvalidArgument(
                 "id must be a 32-char hex trace id");
           }
           spans = store.ForTrace(hi, lo);
         } else {
           spans = store.Snapshot();
         }
         return ListDoc(spans.size(), c,
                        [&](size_t i) { return SpanDoc(spans[i]); })
             .Add("dropped", store.dropped());
       }},
      {"peers", "GET", "/peers", {}, true,
       "federation peer health: circuit state, last-seen, times opened",
       [](Call& c) -> Result<Doc> {
         const std::vector<Container::PeerStatus> peers =
             c.container->PeerStatuses();
         return ListDoc(peers.size(), c, [&](size_t i) {
           return Doc::Object()
               .Add("node", peers[i].node_id)
               .Add("circuit", peers[i].circuit)
               .Add("last_seen_micros", peers[i].last_seen)
               .Add("circuit_opened_total", peers[i].circuit_opened_total);
         });
       }},
      {"transport", "GET", "/transport", {}, true,
       "per-connection transport stats of the peer plane (and, over HTTP, "
       "of the HTTP plane)",
       [](Call& c) -> Result<Doc> {
         const network::Transport* peer = c.container->network();
         std::vector<Doc> connections;
         if (peer != nullptr) PushConnections(*peer, "peer", &connections);
         if (c.http != nullptr) PushConnections(*c.http, "http", &connections);
         Doc list = ListDoc(connections.size(), c, [&](size_t i) {
           return std::move(connections[i]);
         });
         list.Add("peer_transport",
                  peer != nullptr ? peer->transport_name() : "none");
         if (c.http != nullptr) {
           list.Add("http",
                    Doc::Object()
                        .Add("accepted_total", c.http->accepted_total())
                        .Add("requests_total", c.http->http_requests_total())
                        .Add("timeouts_total", c.http->timeouts_total())
                        .Add("overflows_total", c.http->overflows_total()));
         }
         return list;
       }},
      {"status", "GET", "/status", {}, false,
       "container snapshot: build, health, totals, sensors, shards, locks, "
       "hot spans, peers, recovery",
       [](Call& c) -> Result<Doc> {
         return StatusDoc(c.container->GetStatus());
       }},
      {"segments", "GET", "/segments", {}, true,
       "columnar history tier: per-segment stats and catalog totals",
       [](Call& c) -> Result<Doc> {
         const storage::columnar::SegmentCatalog* catalog =
             c.container->segment_catalog();
         std::vector<storage::columnar::SegmentMeta> segments;
         if (catalog != nullptr) segments = catalog->List();
         return ListDoc(segments.size(), c,
                        [&](size_t i) {
                          const storage::columnar::SegmentMeta& m =
                              segments[i];
                          return Doc::Object()
                              .Add("table", m.table)
                              .Add("id", m.id)
                              .Add("rows", m.row_count)
                              .Add("chunks", m.chunk_count)
                              .Add("bytes", m.bytes)
                              .Add("min_timed", m.min_timed)
                              .Add("max_timed", m.max_timed);
                        })
             .Add("enabled", catalog != nullptr)
             .Add("segment_count",
                  catalog != nullptr ? catalog->segment_count() : 0)
             .Add("total_bytes",
                  catalog != nullptr ? catalog->total_bytes() : 0);
       }},
      {"", "GET", "/healthz", {}, false,
       "liveness probe: answers while the process serves requests",
       [](Call&) -> Result<Doc> { return Doc::Object().Add("status", "ok"); }},
      {"health", "GET", "/readyz", {}, false,
       "readiness with not-ready reasons (HTTP 503 when not ready)",
       [](Call& c) -> Result<Doc> {
         const Container::Health health = c.container->GetHealth();
         if (!health.ready) c.http_status = 503;
         return Doc::Object()
             .Add("ready", health.ready)
             .Add("reasons", StringArray(health.reasons));
       }},
      {"quarantine", "GET", "/quarantine", {}, true,
       "dead-letter store of poison tuples",
       [](Call& c) -> Result<Doc> {
         const std::vector<QuarantineStore::Entry> entries =
             c.container->quarantine().List();
         return ListDoc(entries.size(), c, [&](size_t i) {
           const QuarantineStore::Entry& e = entries[i];
           return Doc::Object()
               .Add("id", e.id)
               .Add("sensor", e.sensor)
               .Add("stream", e.stream)
               .Add("source", e.source_alias)
               .Add("error", e.error)
               .Add("quarantined_at_micros", e.quarantined_at)
               .Add("element_timed", e.element.timed);
         });
       }},
      {"quarantine requeue", "POST", "/quarantine/requeue",
       {{"id", K::kCount, true}}, false, "re-inject one quarantined tuple",
       [](Call& c) -> Result<Doc> {
         const int64_t id = c.args[0].count;
         GSN_RETURN_IF_ERROR(
             c.container->RequeueQuarantined(static_cast<uint64_t>(id)));
         return Doc::Object().Add("requeued", id);
       }},
      {"quarantine clear", "POST", "/quarantine/clear", {}, false,
       "drop every quarantined tuple",
       [](Call& c) -> Result<Doc> {
         return Doc::Object().Add("cleared", c.container->quarantine().Clear());
       }},
      {"checkpoint", "POST", "/checkpoint", {}, false,
       "compact the manifest and every sensor WAL now",
       [](Call& c) -> Result<Doc> {
         GSN_RETURN_IF_ERROR(c.container->Checkpoint());
         return Doc::Object().Add("checkpointed", true);
       }},
      {"drain", "POST", "/drain", {}, false,
       "graceful drain: stop admitting, flush queues, checkpoint, fsync",
       [](Call& c) -> Result<Doc> {
         GSN_RETURN_IF_ERROR(c.container->Shutdown());
         return Doc::Object().Add("drained", true);
       }},
      {"chaos status", "GET", "/chaos", {}, false,
       "chaos-transport state: seed, schedule digest, injected faults, rules",
       [](Call& c) -> Result<Doc> {
         network::Transport* transport = c.container->network();
         network::ChaosTransport* chaos =
             transport != nullptr ? transport->AsChaos() : nullptr;
         if (chaos == nullptr) {
           return Status::NotFound(
               transport != nullptr
                   ? "no chaos transport attached (this container runs on '" +
                         transport->transport_name() + "')"
                   : "no chaos transport attached (standalone container has "
                     "no network)");
         }
         return ChaosDoc(*chaos);
       }},
      {"chaos", "POST", "/chaos", {{"rule", K::kText, true}}, false,
       "one line of the per-peer fault grammar (docs/CHAOS.md): seed|loss|"
       "dup|reorder|delay|throttle|partition|heal|reset",
       [](Call& c) -> Result<Doc> {
         Result<std::string> result = network::ExecuteChaosCommand(
             c.container->network(), c.args[0].text);
         if (!result.ok()) return result.status();
         std::string text = *std::move(result);
         while (!text.empty() && text.back() == '\n') text.pop_back();
         return Doc::Object().Add("ok", true).Add("result", std::move(text));
       }},
      {"deploy", "POST", "/deploy", {{"descriptor", K::kText, true}}, false,
       "deploy a virtual sensor from its descriptor XML",
       [](Call& c) -> Result<Doc> {
         Result<vsensor::VirtualSensor*> sensor =
             c.container->Deploy(c.args[0].text, c.api_key);
         if (!sensor.ok()) return sensor.status();
         return Doc::Object().Add("deployed", (*sensor)->name());
       }},
      {"undeploy", "POST", "/undeploy", {{"name", K::kWord, true}}, false,
       "undeploy a virtual sensor",
       [](Call& c) -> Result<Doc> {
         GSN_RETURN_IF_ERROR(c.container->Undeploy(c.args[0].text, c.api_key));
         return Doc::Object().Add("undeployed", c.args[0].text);
       }},
      {"help", "", "", {}, false, "this list",
       [](Call&) -> Result<Doc> { return HelpDoc(); }},
  };
  return table;
}

/// One line per row: its console form (or its route, for HTTP-only
/// rows), the help text, and the route of rows on both planes.
Doc HelpDoc() {
  Doc help = Doc::Object();
  for (const Resource& row : Table()) {
    const std::string route =
        *row.method != '\0' ? std::string(row.method) + " " + row.route() : "";
    if (*row.verb == '\0') {
      help.Add(route, row.help);
    } else {
      help.Add(row.usage(), route.empty() ? std::string(row.help)
                                          : row.help + (" [" + route + "]"));
    }
  }
  return help;
}

}  // namespace

const std::vector<Resource>& OperatorResources() { return Table(); }

}  // namespace gsn::container
