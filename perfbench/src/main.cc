// End-to-end benchmark for the GSN container.
//
//   gsn_perfbench --workload <ingest|federation|query_mix> --seed <n>
//                 --seconds <s> --trace <0|1> --data-dir <dir>
//
// One process puts a seeded load through the public container API and
// prints one line per metric, then the result object as the last line.
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer metrics, the registry cross-check and the layer-sum check.
// perfbench/README.md defines every metric and workload.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "gsn/container/realtime_pump.h"
#include "gsn/container/web_interface.h"
#include "gsn/network/epoll_transport.h"
#include "gsn/network/protocol.h"
#include "gsn/util/logging.h"

namespace perfbench {
namespace {

using gsn::container::Container;
using gsn::container::RealtimePump;
using gsn::container::WebInterface;
using gsn::network::EpollTransport;
using gsn::telemetry::Histogram;
using gsn::telemetry::MetricRegistry;

// Pinned so every run does the same periodic work on any machine.
constexpr Timestamp kPumpInterval = 10 * kMicrosPerMilli;
constexpr int kShards = 4;
constexpr int kTickWorkers = 1;
/// Longer than any measured phase: no automatic checkpoint lands inside
/// one, so the tail of freshness never depends on where a checkpoint
/// fell. The benchmark times its own Checkpoint() calls instead.
constexpr Timestamp kCheckpointInterval = 60 * kMicrosPerSecond;
constexpr int64_t kQueueCapacity = 4096;
constexpr int kHttpConnections = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Closed-loop query probe after the drain on ingest and federation.
constexpr Timestamp kProbeSeconds = 15;
/// Medians of nested layers (sql within handle within socket) may
/// invert by this factor before the layer-sum check fails.
constexpr double kLayerTolerance = 1.1;
/// query_mix history: 2 h at 1 Hz per sensor, ending at kEpoch.
constexpr int64_t kHistoryRows = 7200;

const std::vector<std::string> kEndToEnd = {
    "setup_s",          "freshness_p50_ms", "freshness_p99_ms",
    "cpu_us_per_reading", "query_p50_ms",   "query_p99_ms",
    "query_qps",        "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "loadgen.late_p99_ms",
    "wrappers.poll_wait_p50_ms",
    "wrappers.poll_wait_p99_ms",
    "wrappers.readings_per_poll",
    "vsensor.admit_to_notify_p50_ms",
    "vsensor.admit_to_notify_p99_ms",
    "vsensor.queue_wait_us",
    "vsensor.window_sql_us",
    "vsensor.stream_sql_us",
    "vsensor.deliver_us",
    "container.tick_p50_ms",
    "container.tick_p99_ms",
    "container.tick_busy_share",
    "container.deploy_p50_ms",
    "container.outputs_per_reading",
    "storage.wal_bytes_per_reading",
    "storage.checkpoint_ms",
    "storage.segment_rows_per_query",
    "sql.query_p50_ms",
    "sql.query_p99_ms",
    "sql.cache_hit_ratio",
    "sql.parse_share",
    "web.handle_p50_ms",
    "web.handle_p99_ms",
    "network.http_overhead_p50_ms",
    "network.frame_oneway_p50_us",
    "network.frame_oneway_p99_us",
    "bench.trace_overhead_ratio"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  Timestamp seconds = 10;
  bool trace = false;
  std::string data_dir;
};

// ------------------------------------------------------------ descriptors

std::string Field(const char* name, const char* type) {
  return std::string("<field name=\"") + name + "\" type=\"" + type + "\"/>";
}

std::string Descriptor(const std::string& name, const std::string& fields,
                       const std::string& storage, const std::string& address,
                       const std::string& window, const std::string& query) {
  return "<virtual-sensor name=\"" + name + "\"><output-structure>" + fields +
         "</output-structure>" + storage +
         "<input-stream name=\"in\"><stream-source alias=\"src\" "
         "storage-size=\"" + window + "\">" + address + "<query>" + query +
         "</query></stream-source><query>select * from src</query>"
         "</input-stream></virtual-sensor>";
}

std::string FeedAddress(int index) {
  return "<address wrapper=\"perfbench\"><predicate key=\"feed\" val=\"" +
         std::to_string(index) + "\"/></address>";
}

std::string Name(const char* prefix, int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%s%02d", prefix, i);
  return buf;
}

// ------------------------------------------------------------ the world

/// Everything one set-up builds. Members are torn down in reverse
/// dependency order by the destructor.
struct World {
  Phase phase;
  std::vector<std::unique_ptr<Feed>> feeds;
  /// Name of each feed's sensor in the final (queried) container.
  std::vector<std::string> final_names;
  std::unique_ptr<EpollTransport> net_producer, net_consumer;
  std::vector<std::unique_ptr<MetricRegistry>> registries;
  std::vector<std::unique_ptr<Container>> containers;  // back() is final
  std::vector<std::unique_ptr<RealtimePump>> pumps;
  std::unique_ptr<Generator> generator;
  std::unique_ptr<WebInterface> web;  // on the final container
  std::vector<int64_t> deploy_us;
  std::vector<int64_t> checkpoint_us;
  /// Sensors whose table serves the query classes.
  std::vector<int> dashboard_feeds, history_feeds;
  bool exact_history = false;  // query_mix: answers known exactly
  std::string dir;

  Container& final_container() { return *containers.back(); }
  std::vector<Feed*> FeedPtrs() const {
    std::vector<Feed*> out;
    for (const auto& f : feeds) out.push_back(f.get());
    return out;
  }

  ~World() {
    if (generator) generator->Stop();
    web.reset();
    pumps.clear();
    while (!containers.empty()) containers.pop_back();
    if (net_consumer) net_consumer->Stop();
    if (net_producer) net_producer->Stop();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<Feed> MakeFeed(int index, const std::string& sensor,
                               Timestamp period, size_t payload_bytes,
                               const Args& args) {
  auto f = std::make_unique<Feed>();
  f->index = index;
  f->sensor = sensor;
  f->period = period;
  f->payload_bytes = payload_bytes;
  f->seed = args.seed;
  Rng rng(args.seed * 7919 + static_cast<uint64_t>(index));
  f->phase_offset = rng.Below(period);
  f->measured_count = args.seconds * kMicrosPerSecond / period;
  for (int p = 0; p < 4 && payload_bytes > 0; ++p) {
    std::vector<uint8_t> bytes(payload_bytes);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
    f->payloads.push_back(gsn::MakeBlob(std::move(bytes)));
  }
  return f;
}

Container::Options ContainerOptions(const std::string& node, World* w,
                                    const Args& args,
                                    gsn::network::Transport* net) {
  Container::Options o;
  o.node_id = node;
  o.clock = BenchClock::Shared();
  o.seed = args.seed;
  o.data_dir = w->dir + "/" + node;
  o.network = net;
  w->registries.push_back(std::make_unique<MetricRegistry>());
  o.metrics = w->registries.back().get();
  o.sharding.shards = kShards;
  o.sharding.tick_workers = kTickWorkers;
  o.supervision.checkpoint_interval = kCheckpointInterval;
  o.supervision.queue_capacity = kQueueCapacity;
  o.supervision.shed_policy = gsn::vsensor::ShedPolicy::kDropOldest;
  return o;
}

bool Deploy(World* w, Container* c, const std::string& xml) {
  const Timestamp t0 = Now();
  auto deployed = c->Deploy(xml);
  w->deploy_us.push_back(Now() - t0);
  if (!deployed.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 deployed.status().ToString().c_str());
    return false;
  }
  return true;
}

bool Checkpoint(World* w, Container* c) {
  const Timestamp t0 = Now();
  const gsn::Status s = c->Checkpoint();
  w->checkpoint_us.push_back(Now() - t0);
  if (!s.ok()) std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
  return s.ok();
}

void StartLoad(World* w) {
  for (auto& c : w->containers) {
    w->pumps.push_back(std::make_unique<RealtimePump>(c.get(), kPumpInterval));
    w->pumps.back()->Start();
  }
  w->generator = std::make_unique<Generator>(w->FeedPtrs());
  w->generator->Start();
  w->web = std::make_unique<WebInterface>(&w->final_container());
}

std::unordered_map<std::string, Feed*> SinkMap(World* w, bool final_names) {
  std::unordered_map<std::string, Feed*> map;
  for (size_t i = 0; i < w->feeds.size(); ++i) {
    map[final_names ? w->final_names[i] : w->feeds[i]->sensor] = w->feeds[i].get();
  }
  return map;
}

// ingest: 48 mote-class (100 B, 50 Hz) + 16 camera-class (16 KB, 5 Hz)
// sensors on one container; half keep the newest reading of a 2 s window
// (Fig 3's query), half a windowed aggregate; 8 continuous queries.
bool BuildIngest(World* w, const Args& args) {
  for (int i = 0; i < 64; ++i) {
    const bool camera = i >= 48;
    w->feeds.push_back(MakeFeed(i, camera ? Name("k", i - 48) : Name("m", i),
                                camera ? 200 * kMicrosPerMilli : 20 * kMicrosPerMilli,
                                camera ? 16 * 1024 : 100, args));
    w->final_names.push_back(w->feeds.back()->sensor);
  }
  w->containers.push_back(std::make_unique<Container>(
      ContainerOptions("ingest", w, args, nullptr)));
  Container* c = w->containers.back().get();
  RegisterFeedWrapper(c, w->FeedPtrs(), &w->phase);
  const std::string storage =
      "<storage permanent-storage=\"true\" size=\"10s\"/>";
  for (int i = 0; i < 64; ++i) {
    const bool latest = (i < 48 ? i : i - 48) < (i < 48 ? 24 : 8);
    const std::string fields =
        Field("seq", "integer") + Field("value", "double") +
        (latest ? Field("payload", "binary") : Field("n", "integer"));
    const std::string query =
        latest ? "select * from wrapper order by timed desc limit 1"
               : "select max(timed) as timed, max(seq) as seq, avg(value) as "
                 "value, count(*) as n from wrapper";
    if (!Deploy(w, c, Descriptor(w->feeds[static_cast<size_t>(i)]->sensor, fields,
                                 storage, FeedAddress(i), "2s", query))) {
      return false;
    }
  }
  AttachSink(c, SinkMap(w, true), SinkRole::kFinal, &w->phase);
  for (int q = 0; q < 8; ++q) {
    const std::string sensor = Name("m", q < 4 ? q : 20 + q);
    auto id = c->query_manager().RegisterContinuous(
        "select max(seq) as seq, count(*) as n, avg(value) as v from " + sensor,
        [](const std::string&, const gsn::Relation&) {});
    if (!id.ok()) return false;
  }
  for (int i = 0; i < 8; ++i) w->dashboard_feeds.push_back(i);
  for (int i = 24; i < 32; ++i) w->dashboard_feeds.push_back(i);
  for (int i = 0; i < 24; ++i) w->history_feeds.push_back(i);
  StartLoad(w);
  return true;
}

// federation: a producer with 32 sensors (100 B, 50 Hz) and a consumer
// mirroring each through wrapper="remote" into a permanent table, over
// an EpollTransport pair on loopback.
bool BuildFederation(World* w, const Args& args) {
  w->net_producer = std::make_unique<EpollTransport>();
  w->net_consumer = std::make_unique<EpollTransport>();
  if (!w->net_producer->Start().ok() || !w->net_consumer->Start().ok() ||
      !w->net_producer->ListenPeer(0).ok() ||
      !w->net_consumer->ListenPeer(0).ok()) {
    return false;
  }
  w->net_producer->AddPeer("consumer", "127.0.0.1", w->net_consumer->peer_port());
  w->net_consumer->AddPeer("producer", "127.0.0.1", w->net_producer->peer_port());
  for (int i = 0; i < 32; ++i) {
    w->feeds.push_back(MakeFeed(i, Name("p", i), 20 * kMicrosPerMilli, 100, args));
    w->final_names.push_back(Name("c", i));
  }
  w->containers.push_back(std::make_unique<Container>(
      ContainerOptions("producer", w, args, w->net_producer.get())));
  w->containers.push_back(std::make_unique<Container>(
      ContainerOptions("consumer", w, args, w->net_consumer.get())));
  Container* producer = w->containers[0].get();
  Container* consumer = w->containers[1].get();
  RegisterFeedWrapper(producer, w->FeedPtrs(), &w->phase);
  const std::string fields = Field("seq", "integer") + Field("value", "double") +
                             Field("payload", "binary");
  for (int i = 0; i < 32; ++i) {
    if (!Deploy(w, producer,
                Descriptor(Name("p", i), fields, "<storage size=\"10s\"/>",
                           FeedAddress(i), "1", "select * from wrapper"))) {
      return false;
    }
  }
  AttachSink(producer, SinkMap(w, false), SinkRole::kMid, &w->phase);
  AttachSink(consumer, SinkMap(w, true), SinkRole::kFinal, &w->phase);
  const Timestamp discover_deadline = Now() + 20 * kMicrosPerSecond;
  for (int i = 0; i < 32; ++i) {
    while (consumer->Discover({{"name", Name("p", i)}}).empty()) {
      if (Now() > discover_deadline) {
        std::fprintf(stderr, "consumer never discovered %s\n", Name("p", i).c_str());
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (int i = 0; i < 32; ++i) {
    const std::string address =
        "<address wrapper=\"remote\"><predicate key=\"name\" val=\"" +
        Name("p", i) + "\"/></address>";
    if (!Deploy(w, consumer,
                Descriptor(Name("c", i), fields,
                           "<storage permanent-storage=\"true\" size=\"10s\"/>",
                           address, "1", "select * from wrapper"))) {
      return false;
    }
  }
  for (int i = 0; i < 16; ++i) w->dashboard_feeds.push_back(i);
  for (int i = 0; i < 32; ++i) w->history_feeds.push_back(i);
  StartLoad(w);
  return true;
}

// query_mix: 16 sensors with 2 h of 1 Hz history (10 min retention, the
// rest in columnar segments after a checkpoint) and a 10 Hz live ingest
// beside the readers.
bool BuildQueryMix(World* w, const Args& args) {
  for (int i = 0; i < 16; ++i) {
    w->feeds.push_back(MakeFeed(i, Name("q", i), 100 * kMicrosPerMilli, 0, args));
    w->final_names.push_back(w->feeds.back()->sensor);
    w->dashboard_feeds.push_back(i);
    w->history_feeds.push_back(i);
  }
  w->exact_history = true;
  w->containers.push_back(std::make_unique<Container>(
      ContainerOptions("history", w, args, nullptr)));
  Container* c = w->containers.back().get();
  RegisterFeedWrapper(c, w->FeedPtrs(), &w->phase);
  for (int i = 0; i < 16; ++i) {
    if (!Deploy(w, c,
                Descriptor(Name("q", i),
                           Field("seq", "integer") + Field("value", "double"),
                           "<storage permanent-storage=\"true\" size=\"10m\"/>",
                           FeedAddress(i), "1", "select * from wrapper"))) {
      return false;
    }
    auto table = c->table_manager().GetTableHandle(Name("q", i));
    if (!table.ok()) return false;
    std::vector<gsn::StreamElement> rows(kHistoryRows);
    for (int64_t s = 0; s < kHistoryRows; ++s) {
      rows[static_cast<size_t>(s)].timed =
          kEpoch - (kHistoryRows - s) * kMicrosPerSecond;
      rows[static_cast<size_t>(s)].values = {
          gsn::Value::Int(s), gsn::Value::Double(ReadingValue(args.seed, i, s))};
    }
    if (!(*table)->InsertBatch(rows).ok()) return false;
  }
  if (!Checkpoint(w, c)) return false;
  AttachSink(c, SinkMap(w, true), SinkRole::kFinal, &w->phase);
  StartLoad(w);
  return true;
}

/// One complete set-up: containers built, sensors deployed, history
/// preloaded, and every sink notified of at least one reading.
std::unique_ptr<World> BringUp(const Args& args, int iteration,
                               Timestamp* elapsed) {
  const Timestamp t0 = Now();
  auto w = std::make_unique<World>();
  w->phase.trace = args.trace;
  w->dir = args.data_dir + "/" + args.workload + "-" + std::to_string(iteration);
  std::error_code ec;
  std::filesystem::remove_all(w->dir, ec);
  std::filesystem::create_directories(w->dir, ec);
  bool ok = false;
  if (args.workload == "ingest") ok = BuildIngest(w.get(), args);
  if (args.workload == "federation") ok = BuildFederation(w.get(), args);
  if (args.workload == "query_mix") ok = BuildQueryMix(w.get(), args);
  if (!ok || !w->web->Start(0).ok()) return nullptr;
  const Timestamp deadline = Now() + 30 * kMicrosPerSecond;
  for (const auto& f : w->feeds) {
    while (f->final_outputs.load() == 0) {
      if (Now() > deadline) {
        std::fprintf(stderr, "no reading of %s reached its sink\n", f->sensor.c_str());
        return nullptr;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  *elapsed = Now() - t0;
  return w;
}

// ------------------------------------------------------------ queries

/// Builds the seeded query sequence of one connection.
class QueryGen {
 public:
  QueryGen(World* w, const Args& args, int conn)
      : w_(w), seed_(args.seed), rng_(args.seed * 104729 + static_cast<uint64_t>(conn)) {}

  Query Next() {
    Query q;
    const double u = rng_.Unit();
    // 60/30/10 rather than 50/40/10: with dashboards at exactly half,
    // the median would sit on the edge between the fast and slow classes
    // and flip between them from run to run.
    q.cls = u < 0.6 ? Query::kDashboard : u < 0.9 ? Query::kHistory : Query::kExport;
    const std::vector<int>& pool =
        q.cls == Query::kDashboard ? w_->dashboard_feeds : w_->history_feeds;
    const int fi = pool[static_cast<size_t>(rng_.Below(static_cast<int64_t>(pool.size())))];
    q.feed = w_->feeds[static_cast<size_t>(fi)].get();
    const std::string& table = w_->final_names[static_cast<size_t>(fi)];
    if (q.cls == Query::kDashboard) {
      // Fixed text per sensor: served from the statement cache, and the
      // timed bound prunes every segment, so only the window is read.
      q.sql = "select seq, value from " + table + " where timed >= " +
              std::to_string(kEpoch) + " order by timed desc limit 1";
      return q;
    }
    // Rows span seq [lo, lo + span): preloaded history at 1 Hz ending at
    // kEpoch, or the readings of the measured phase.
    const int64_t span = w_->exact_history ? kHistoryRows : q.feed->measured_count;
    const int64_t base = w_->exact_history ? 0 : kMeasuredSeqBase;
    auto range = [&](const std::string& column, int64_t from, int64_t to) {
      if (!w_->exact_history) {
        return column + " >= " + std::to_string(base + from) + " and " + column +
               " < " + std::to_string(base + to);
      }
      auto at = [](int64_t s) {
        return std::to_string(kEpoch - (kHistoryRows - s) * kMicrosPerSecond);
      };
      return std::string("timed >= ") + at(from) + " and timed < " + at(to);
    };
    const std::string key = w_->exact_history ? "timed" : "seq";
    if (q.cls == Query::kExport) {
      const int64_t len = std::min<int64_t>(300, span);
      const int64_t from = rng_.Below(span - len + 1);
      q.seq_lo = base + from;
      q.seq_hi = base + from + len;
      q.exact = w_->exact_history;
      q.sql = "select seq, value from " + table + " where " + range(key, from, from + len);
      return q;
    }
    const int64_t len = std::min<int64_t>(span, 300 + rng_.Below(1500));
    const int64_t from = rng_.Below(span - len + 1);
    const int64_t threshold4 = rng_.Below(200);  // value > threshold4 / 4
    const int64_t mod = 2 + rng_.Below(4);
    const int64_t rem = rng_.Below(mod);
    q.sql = "select count(*) as n, sum(value) as s from " + table + " where " +
            range(key, from, from + len) + " and value > " +
            std::to_string(static_cast<double>(threshold4) / 4.0) + " and seq % " +
            std::to_string(mod) + " = " + std::to_string(rem);
    q.exact = w_->exact_history;
    for (int64_t s = base + from; s < base + from + len; ++s) {
      const double v = ReadingValue(seed_, q.feed->index, s);
      if (v > static_cast<double>(threshold4) / 4.0 && s % mod == rem) {
        ++q.count;
        q.sum += v;
      }
    }
    return q;
  }

 private:
  World* w_;
  uint64_t seed_;
  Rng rng_;
};

/// Checks one reply against what the benchmark knows about the data.
bool Verify(const Query& q, int status, const std::string& body) {
  if (status != 200) return false;
  double n = 0, s = 0;
  switch (q.cls) {
    case Query::kDashboard:
      return JsonNumber(body, "seq", &n) && static_cast<int64_t>(n) >= q.min_seq;
    case Query::kHistory:
      if (!JsonNumber(body, "n", &n)) return false;
      if (!JsonNumber(body, "s", &s)) s = 0;  // sum over no rows is null
      return q.exact ? static_cast<int64_t>(n) == q.count && s == q.sum
                     : static_cast<int64_t>(n) <= q.count && s <= q.sum;
    case Query::kExport: {
      // Every row is a reading of the queried range with its true value;
      // the preloaded ranges must come back complete.
      int rows = 0;
      for (size_t p = body.find("\"seq\":"); p != std::string::npos;
           p = body.find("\"seq\":", p + 1), ++rows) {
        double seq = 0, value = 0;
        if (!JsonNumber(body, "seq", &seq, p) || !JsonNumber(body, "value", &value, p)) {
          return false;
        }
        const int64_t sq = static_cast<int64_t>(seq);
        if (sq < q.seq_lo || sq >= q.seq_hi ||
            value != ReadingValue(q.feed->seed, q.feed->index, sq)) {
          return false;
        }
      }
      return !q.exact || rows == q.seq_hi - q.seq_lo;
    }
  }
  return false;
}

/// One closed-loop query phase: client-observed latency over keep-alive
/// sockets; with tracing, the same sequence replayed through
/// WebInterface::Handle and then Container::Query.
struct QueryPhase {
  std::vector<Query> sent;         // socket replies, in completion order
  std::vector<int64_t> socket_us;    // aligned with `sent`
  std::vector<Timestamp> done_at;    // aligned with `sent`
  std::vector<int64_t> handle_us, sql_us, overhead_us;
  int64_t attempted = 0;
  int64_t failed = 0;
  Timestamp elapsed = 0;
  gsn::container::QueryManager::Stats before, after;
  int64_t segment_rows = 0;
  Histogram::Snapshot parse, exec;
  bool transport_ok = true;
};

QueryPhase RunQueries(World* w, const Args& args, Timestamp socket_end,
                      Timestamp replay_budget) {
  QueryPhase qp;
  Container& c = w->final_container();
  MetricRegistry* registry = w->registries.back().get();
  std::vector<QueryGen> gens;
  for (int i = 0; i < kHttpConnections; ++i) gens.emplace_back(w, args, i);
  qp.before = c.query_manager().stats();
  const int64_t rows0 = registry->SumCounters("gsn_segment_scanned_rows");
  const Histogram::Snapshot parse0 = registry->SumHistograms("gsn_query_parse_micros");
  const Histogram::Snapshot exec0 = registry->SumHistograms("gsn_query_exec_micros");
  const Timestamp t0 = Now();
  qp.transport_ok = RunHttpClosedLoop(
      w->web->port(), kHttpConnections, socket_end,
      [&](int conn) {
        Query q = gens[static_cast<size_t>(conn)].Next();
        if (q.cls == Query::kDashboard) q.min_seq = q.feed->last_notified.load();
        return q;
      },
      [&](int, Query& q, const HttpReply& reply) {
        ++qp.attempted;
        if (!Verify(q, reply.status, reply.body)) {
          if (++qp.failed <= 3) {
            std::fprintf(stderr, "query failed check (status %d): %s\n  -> %.200s\n",
                         reply.status, q.sql.c_str(), reply.body.c_str());
          }
        }
        qp.sent.push_back(q);
        qp.socket_us.push_back(reply.latency);
        qp.done_at.push_back(Now() - t0);
      });
  qp.elapsed = Now() - t0;
  qp.after = c.query_manager().stats();
  qp.segment_rows = registry->SumCounters("gsn_segment_scanned_rows") - rows0;
  qp.parse = Minus(registry->SumHistograms("gsn_query_parse_micros"), parse0);
  qp.exec = Minus(registry->SumHistograms("gsn_query_exec_micros"), exec0);
  if (!args.trace) return qp;
  // Each request is replayed through both layers back to back, in
  // alternating order, so neither layer always finds the statement the
  // other just parsed in the cache.
  const Timestamp deadline = Now() + replay_budget;
  for (size_t i = 0; i < qp.sent.size() && Now() < deadline; ++i) {
    gsn::network::HttpRequest request;
    request.method = "GET";
    request.path = "/api/v1/query";
    request.version = "HTTP/1.1";
    request.query["sql"] = qp.sent[i].sql;
    Timestamp handle_us = 0, sql_us = 0;
    for (int layer = 0; layer < 2; ++layer) {
      const Timestamp t = Now();
      if ((layer == 0) == (i % 2 == 0)) {
        if (w->web->Handle(request).status != 200) ++qp.failed;
        handle_us = Now() - t;
      } else {
        if (!c.Query(qp.sent[i].sql).ok()) ++qp.failed;
        sql_us = Now() - t;
      }
    }
    qp.handle_us.push_back(handle_us);
    qp.sql_us.push_back(sql_us);
    qp.overhead_us.push_back(qp.socket_us[i] - handle_us);
  }
  return qp;
}

// ------------------------------------------------------------ registry view

/// The container's own histograms at one instant, read through
/// MetricRegistry and merged across the world's containers.
struct RegistryView {
  Histogram::Snapshot queue_wait, window_sql, stream_sql, deliver, tick, fanout;
  std::map<std::string, Histogram::Snapshot> tick_phase;
};

const char* const kTickPhases[] = {"resilience", "dispatch",  "supervise",
                                   "checkpoint", "storage", "fanout"};

RegistryView TakeView(World* w) {
  RegistryView v;
  for (size_t i = 0; i < w->containers.size(); ++i) {
    Container& c = *w->containers[i];
    MetricRegistry* r = w->registries[i].get();
    Histogram::Merge(&v.queue_wait, r->SumHistograms("gsn_queue_wait_micros"));
    Histogram::Merge(&v.tick, r->SumHistograms("gsn_tick_micros"));
    Histogram::Merge(&v.fanout, r->SumHistograms("gsn_notification_fanout_micros"));
    for (const std::string& sensor : c.ListSensors()) {
      auto stage = [&](const char* name) {
        return r->GetHistogram("gsn_pipeline_stage_micros",
                               {{"sensor", sensor}, {"stage", name}})
            ->TakeSnapshot();
      };
      Histogram::Merge(&v.window_sql, stage("window_sql"));
      Histogram::Merge(&v.stream_sql, stage("stream_sql"));
      Histogram::Merge(&v.deliver, stage("deliver"));
    }
    for (const char* phase : kTickPhases) {
      Histogram::Merge(&v.tick_phase[phase],
                       r->GetHistogram("gsn_tick_phase_micros",
                                       {{"node", c.node_id()}, {"phase", phase}})
                           ->TakeSnapshot());
    }
  }
  return v;
}

RegistryView Diff(const RegistryView& later, const RegistryView& earlier) {
  RegistryView d;
  d.queue_wait = Minus(later.queue_wait, earlier.queue_wait);
  d.window_sql = Minus(later.window_sql, earlier.window_sql);
  d.stream_sql = Minus(later.stream_sql, earlier.stream_sql);
  d.deliver = Minus(later.deliver, earlier.deliver);
  d.tick = Minus(later.tick, earlier.tick);
  d.fanout = Minus(later.fanout, earlier.fanout);
  for (const auto& [phase, snap] : later.tick_phase) {
    d.tick_phase[phase] = Minus(snap, earlier.tick_phase.at(phase));
  }
  return d;
}

// ------------------------------------------------------------ frame probe

/// EpollTransport-only ping-pong with a frame the size of one stream
/// delivery. Returns round-trip times in ns; one-way time is half of one.
std::vector<int64_t> FrameProbe(int round_trips) {
  struct Echo : gsn::network::NetworkNode {
    EpollTransport* net = nullptr;
    void OnMessage(const gsn::network::Message& m) override {
      (void)net->Send(0, "probe-b", "probe-a", m.topic, m.payload);
    }
  };
  struct Waiter : gsn::network::NetworkNode {
    std::mutex mu;
    std::condition_variable cv;
    int64_t received = 0;
    void OnMessage(const gsn::network::Message&) override {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++received;
      }
      cv.notify_all();
    }
  };
  std::vector<int64_t> rtt;
  EpollTransport a, b;
  Echo echo;
  Waiter waiter;
  echo.net = &b;
  if (!a.Start().ok() || !b.Start().ok() || !a.ListenPeer(0).ok() ||
      !b.ListenPeer(0).ok() || !a.RegisterNode("probe-a", &waiter).ok() ||
      !b.RegisterNode("probe-b", &echo).ok()) {
    return rtt;
  }
  a.AddPeer("probe-b", "127.0.0.1", b.peer_port());
  b.AddPeer("probe-a", "127.0.0.1", a.peer_port());
  gsn::network::StreamDelivery delivery;
  delivery.subscription_id = "producer/p00/1";
  delivery.sensor_name = "p00";
  delivery.signature = std::string(32, 's');
  delivery.sequence = 1;
  delivery.element.timed = kEpoch;
  delivery.element.values = {gsn::Value::Int(kMeasuredSeqBase), gsn::Value::Double(1.5),
                             gsn::Value::Binary(gsn::MakeBlob(std::string(100, 'x')))};
  const std::string frame = delivery.Encode();
  const int warmup = round_trips / 10;
  for (int i = 0; i < round_trips + warmup; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!a.Send(0, "probe-a", "probe-b", gsn::network::kTopicStream, frame).ok()) break;
    std::unique_lock<std::mutex> lock(waiter.mu);
    if (!waiter.cv.wait_for(lock, std::chrono::seconds(2),
                            [&] { return waiter.received > i; })) {
      break;
    }
    if (i >= warmup) {
      rtt.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    }
  }
  a.Stop();
  b.Stop();
  return rtt;
}

double Ms(double micros) { return micros / 1000.0; }

// ------------------------------------------------------------ one run

int Run(const Args& args) {
  std::printf("perfbench workload=%s seed=%llu seconds=%lld trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(args.seconds), args.trace ? 1 : 0);
  // Set up several times; measure on the last. setup_s is the median.
  std::vector<double> setups;
  std::vector<int64_t> deploy_us, checkpoint_us;
  std::unique_ptr<World> w;
  for (int i = 0; i < kSetups; ++i) {
    if (w) {
      deploy_us.insert(deploy_us.end(), w->deploy_us.begin(), w->deploy_us.end());
      checkpoint_us.insert(checkpoint_us.end(), w->checkpoint_us.begin(),
                           w->checkpoint_us.end());
    }
    w.reset();
    Timestamp elapsed = 0;
    w = BringUp(args, i, &elapsed);
    if (!w) {
      std::fprintf(stderr, "set-up %d failed\n", i);
      return 2;
    }
    setups.push_back(static_cast<double>(elapsed) / 1e6);
  }
  int64_t offered = 0;
  for (auto& f : w->feeds) {
    offered += f->measured_count;
    f->freshness.reserve(static_cast<size_t>(f->measured_count));
    if (args.trace) {
      f->polled_at.assign(static_cast<size_t>(f->measured_count), 0);
      f->mid_at.assign(static_cast<size_t>(f->measured_count), 0);
      f->final_at.assign(static_cast<size_t>(f->measured_count), 0);
    }
  }

  // ---- measured phase
  const bool live_queries = args.workload == "query_mix";
  const Timestamp start = Now() + 50 * kMicrosPerMilli;
  w->phase.measure_start.store(start);
  w->generator->BeginMeasure(start);
  const Timestamp seconds_us = args.seconds * kMicrosPerSecond;
  const int64_t dir0 = DirBytes(w->dir);
  SleepUntil(start);
  const RegistryView view0 = TakeView(w.get());
  const double cpu0 = CpuSeconds();
  int64_t rounds0 = 0, polls0 = 0, polled0 = 0;
  for (auto& p : w->pumps) rounds0 += p->rounds();
  for (auto& f : w->feeds) {
    polls0 += f->polls.load();
    polled0 += f->polled_readings.load();
  }
  QueryPhase qp;
  std::thread client;
  if (live_queries) {
    client = std::thread([&] {
      qp = RunQueries(w.get(), args, start + (args.trace ? seconds_us / 2 : seconds_us),
                      seconds_us / 4);
    });
  }
  std::vector<double> block_cpu;
  double cpu_prev = cpu0;
  for (Timestamp b = 1; b <= args.seconds; ++b) {
    SleepUntil(start + b * kTraceBlock);
    const double cpu = CpuSeconds();
    block_cpu.push_back(cpu - cpu_prev);
    cpu_prev = cpu;
  }
  const RegistryView view = Diff(TakeView(w.get()), view0);
  int64_t rounds = -rounds0, polls = -polls0, polled = -polled0;
  for (auto& p : w->pumps) rounds += p->rounds();
  for (auto& f : w->feeds) {
    polls += f->polls.load();
    polled += f->polled_readings.load();
  }

  // ---- drain: every sensor's newest offered reading must reach its sink
  const Timestamp drain_deadline = Now() + 10 * kMicrosPerSecond;
  for (auto& f : w->feeds) {
    const int64_t newest = kMeasuredSeqBase + f->measured_count - 1;
    while (f->last_notified.load() < newest && Now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (client.joinable()) client.join();
  w->generator->Stop();
  const bool checkpointed = Checkpoint(w.get(), &w->final_container());
  const int64_t dir1 = DirBytes(w->dir);
  if (!live_queries) {
    qp = RunQueries(w.get(), args, Now() + kProbeSeconds * kMicrosPerSecond,
                    kProbeSeconds * kMicrosPerSecond);
  }
  deploy_us.insert(deploy_us.end(), w->deploy_us.begin(), w->deploy_us.end());
  checkpoint_us.insert(checkpoint_us.end(), w->checkpoint_us.begin(),
                       w->checkpoint_us.end());

  // ---- correctness
  int64_t checks = 0, failed_checks = checkpointed ? 0 : 1;
  int64_t lost = 0, shed = 0;
  for (size_t i = 0; i < w->feeds.size(); ++i) {
    Feed& f = *w->feeds[i];
    const int64_t newest = kMeasuredSeqBase + f.measured_count - 1;
    lost += std::max<int64_t>(0, newest - f.last_notified.load());
    // Every output the sink was notified of is a stored, queryable row.
    ++checks;
    auto stored = w->final_container().Query("select count(*) as n from " +
                                             w->final_names[i]);
    const int64_t expect = f.final_outputs.load() + (w->exact_history ? kHistoryRows : 0);
    if (!stored.ok() || stored->rows()[0][0].int_value() != expect) {
      ++failed_checks;
      std::fprintf(stderr, "%s: stored rows %lld != notified outputs %lld\n",
                   w->final_names[i].c_str(),
                   stored.ok() ? static_cast<long long>(stored->rows()[0][0].int_value()) : -1LL,
                   static_cast<long long>(expect));
    }
  }
  for (auto& c : w->containers) {
    for (const std::string& sensor : c->ListSensors()) {
      auto status = c->GetSensorStatus(sensor);
      if (status.ok()) shed += status->shed;
    }
  }
  if (lost > 0 || shed > 0) {
    std::fprintf(stderr, "readings lost: %lld newest-not-delivered, %lld shed\n",
                 static_cast<long long>(lost), static_cast<long long>(shed));
  }

  Report report;
  Blocked freshness(static_cast<size_t>(args.seconds));
  for (auto& f : w->feeds) {
    std::lock_guard<std::mutex> lock(f->sample_mu);
    for (const auto& [seq, us] : f->freshness) {
      freshness.Add((f->Due(w->phase, seq) - start) / kTraceBlock, us);
    }
  }
  const int64_t final_outputs_measured = freshness.Count();

  Blocked queries(static_cast<size_t>(std::max<Timestamp>(1, qp.elapsed / kMicrosPerSecond)));
  for (size_t i = 0; i < qp.socket_us.size(); ++i) {
    queries.Add(qp.done_at[i] / kMicrosPerSecond, qp.socket_us[i]);
  }
  std::vector<double> cpu_per_reading;
  for (double c : block_cpu) {
    cpu_per_reading.push_back(c * 1e6 * static_cast<double>(args.seconds) /
                              static_cast<double>(offered));
  }
  const auto n = [](const auto& v) { return static_cast<int64_t>(v.size()); };
  std::printf("end-to-end (interquartile means over windows of the run):\n");
  report.Add("setup_s", Median(setups), "s", n(setups));
  report.Add("freshness_p50_ms", Ms(freshness.Quantile(0.50)), "ms", freshness.Count());
  report.Add("freshness_p99_ms", Ms(freshness.Quantile(0.99)), "ms", freshness.Count());
  report.Add("cpu_us_per_reading", InterquartileMean(cpu_per_reading), "us", offered);
  report.Add("query_p50_ms", Ms(queries.Quantile(0.50)), "ms", queries.Count());
  report.Add("query_p99_ms", Ms(queries.Quantile(0.99)), "ms", queries.Count());
  report.Add("query_qps", queries.PerBlock(), "1/s", queries.Count());
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Note("reading_loss_ratio",
              static_cast<double>(lost + shed) / static_cast<double>(offered), "ratio",
              offered);
  report.Note("query_fail_ratio",
              qp.attempted > 0 ? static_cast<double>(qp.failed) / static_cast<double>(qp.attempted) : 0,
              "ratio", qp.attempted);

  bool layers_ok = true;
  if (args.trace) {
    std::vector<int64_t> poll_wait, admit, hop;
    int64_t decomposed = 0, violations = 0;
    for (auto& f : w->feeds) {
      std::lock_guard<std::mutex> lock(f->sample_mu);
      for (int64_t idx = 0; idx < f->measured_count; ++idx) {
        const size_t k = static_cast<size_t>(idx);
        const Timestamp due = f->Due(w->phase, kMeasuredSeqBase + idx);
        const Timestamp polled_at = f->polled_at[k];
        if (polled_at != 0) poll_wait.push_back(polled_at - due);
        if (f->final_at[k] == 0) continue;
        // Per reading: due -> Poll hand-off -> (producer notify) -> sink
        // notify; the layers must tile the reading's freshness exactly.
        ++decomposed;
        const bool federated = w->containers.size() > 1;
        const Timestamp mid = federated ? f->mid_at[k] : f->final_at[k];
        const Timestamp fin = f->final_at[k];
        const bool ordered = polled_at != 0 && due <= polled_at && polled_at <= mid &&
                             mid != 0 && mid <= fin;
        if (!ordered || (polled_at - due) + (mid - polled_at) + (fin - mid) != fin - due) {
          ++violations;
          continue;
        }
        admit.push_back(mid - polled_at);
        if (federated) hop.push_back(fin - mid);
      }
    }
    const std::vector<int64_t>& late = w->generator->late();
    double traced_cpu = 0, untraced_cpu = 0;
    int traced_blocks = 0, untraced_blocks = 0;
    for (size_t b = 0; b < block_cpu.size(); ++b) {
      (b % 2 == 1 ? traced_cpu : untraced_cpu) += block_cpu[b];
      ++(b % 2 == 1 ? traced_blocks : untraced_blocks);
    }
    const double sql_p50 = Ms(Quantile(qp.sql_us, 0.5));
    const double handle_p50 = Ms(Quantile(qp.handle_us, 0.5));
    const double socket_p50 = Ms(Quantile(qp.socket_us, 0.5));
    const std::vector<int64_t> rtt = FrameProbe(2000);
    const int64_t hits = qp.after.cache_hits - qp.before.cache_hits;
    const int64_t misses = qp.after.cache_misses - qp.before.cache_misses;
    const int64_t parse_us = qp.after.parse_micros - qp.before.parse_micros;
    const int64_t exec_us = qp.after.exec_micros - qp.before.exec_micros;
    const double wall_us = static_cast<double>(seconds_us) * static_cast<double>(w->pumps.size());

    std::printf("per-layer:\n");
    report.Add("loadgen.late_p99_ms", Ms(Quantile(late, 0.99)), "ms", n(late));
    report.Add("wrappers.poll_wait_p50_ms", Ms(Quantile(poll_wait, 0.5)), "ms", n(poll_wait));
    report.Add("wrappers.poll_wait_p99_ms", Ms(Quantile(poll_wait, 0.99)), "ms", n(poll_wait));
    report.Add("wrappers.readings_per_poll",
               static_cast<double>(polled) / static_cast<double>(std::max<int64_t>(1, polls)),
               "count", polls);
    report.Add("vsensor.admit_to_notify_p50_ms", Ms(Quantile(admit, 0.5)), "ms", n(admit));
    report.Add("vsensor.admit_to_notify_p99_ms", Ms(Quantile(admit, 0.99)), "ms", n(admit));
    report.Add("vsensor.queue_wait_us", view.queue_wait.Mean(), "us", view.queue_wait.count);
    report.Add("vsensor.window_sql_us", view.window_sql.Mean(), "us", view.window_sql.count);
    report.Add("vsensor.stream_sql_us", view.stream_sql.Mean(), "us", view.stream_sql.count);
    report.Add("vsensor.deliver_us", view.deliver.Mean(), "us", view.deliver.count);
    report.Add("container.tick_p50_ms", Ms(static_cast<double>(view.tick.Quantile(0.5))),
               "ms", view.tick.count);
    report.Add("container.tick_p99_ms", Ms(static_cast<double>(view.tick.Quantile(0.99))),
               "ms", view.tick.count);
    report.Add("container.tick_busy_share", static_cast<double>(view.tick.sum) / wall_us,
               "ratio", rounds);
    report.Add("container.deploy_p50_ms", Ms(Quantile(deploy_us, 0.5)), "ms", n(deploy_us));
    report.Add("container.outputs_per_reading",
               static_cast<double>(final_outputs_measured) / static_cast<double>(offered),
               "ratio", offered);
    report.Add("storage.wal_bytes_per_reading",
               static_cast<double>(dir1 - dir0) / static_cast<double>(offered), "B", offered);
    report.Add("storage.checkpoint_ms", Ms(Quantile(checkpoint_us, 0.5)), "ms",
               n(checkpoint_us));
    report.Add("storage.segment_rows_per_query",
               static_cast<double>(qp.segment_rows) /
                   static_cast<double>(std::max<int64_t>(1, n(qp.socket_us))),
               "rows", n(qp.socket_us));
    report.Add("sql.query_p50_ms", sql_p50, "ms", n(qp.sql_us));
    report.Add("sql.query_p99_ms", Ms(Quantile(qp.sql_us, 0.99)), "ms", n(qp.sql_us));
    report.Add("sql.cache_hit_ratio",
               static_cast<double>(hits) / static_cast<double>(std::max<int64_t>(1, hits + misses)),
               "ratio", hits + misses);
    report.Add("sql.parse_share",
               static_cast<double>(parse_us) /
                   static_cast<double>(std::max<int64_t>(1, parse_us + exec_us)),
               "ratio", hits + misses);
    report.Add("web.handle_p50_ms", handle_p50, "ms", n(qp.handle_us));
    report.Add("web.handle_p99_ms", Ms(Quantile(qp.handle_us, 0.99)), "ms", n(qp.handle_us));
    report.Add("network.http_overhead_p50_ms", Ms(Quantile(qp.overhead_us, 0.5)), "ms",
               n(qp.overhead_us));
    report.Add("network.frame_oneway_p50_us", Quantile(rtt, 0.5) / 2000, "us", n(rtt));
    report.Add("network.frame_oneway_p99_us", Quantile(rtt, 0.99) / 2000, "us", n(rtt));
    report.Add("bench.trace_overhead_ratio",
               (traced_cpu / std::max(1, traced_blocks)) /
                   std::max(1e-9, untraced_cpu / std::max(1, untraced_blocks)),
               "ratio", traced_blocks + untraced_blocks);
    if (w->containers.size() > 1) {
      int64_t repairs = 0, deliveries = 0;
      for (auto& r : w->registries) {
        repairs += r->SumCounters("gsn_federation_gaps_total") +
                   r->SumCounters("gsn_federation_dups_total") +
                   r->SumCounters("gsn_federation_replays_total");
      }
      for (auto& f : w->feeds) deliveries += f->mid_outputs.load();
      report.Note("federation.hop_p50_ms", Ms(Quantile(hop, 0.5)), "ms", n(hop));
      report.Note("federation.hop_p99_ms", Ms(Quantile(hop, 0.99)), "ms", n(hop));
      report.Note("federation.repair_ratio",
                  static_cast<double>(repairs) / static_cast<double>(std::max<int64_t>(1, deliveries)),
                  "ratio", deliveries);
    }

    std::printf("registry cross-check (container histograms over the measured phase):\n");
    report.Note("registry.queue_wait_p50_us", static_cast<double>(view.queue_wait.Quantile(0.5)),
                "us", view.queue_wait.count);
    report.Note("registry.window_sql_p50_us", static_cast<double>(view.window_sql.Quantile(0.5)),
                "us", view.window_sql.count);
    report.Note("registry.notification_fanout_mean_us", view.fanout.Mean(), "us",
                view.fanout.count);
    for (const auto& [phase, snap] : view.tick_phase) {
      report.Note("registry.tick_phase." + phase + "_mean_us", snap.Mean(), "us", snap.count);
    }
    report.Note("registry.query_parse_p50_us", static_cast<double>(qp.parse.Quantile(0.5)),
                "us", qp.parse.count);
    report.Note("registry.query_exec_p50_us", static_cast<double>(qp.exec.Quantile(0.5)),
                "us", qp.exec.count);
    report.Note("outside.sql_query_p50_us", sql_p50 * 1000, "us", n(qp.sql_us));
    report.Note("outside.admit_to_notify_mean_us",
                admit.empty() ? 0.0
                              : static_cast<double>(std::accumulate(admit.begin(), admit.end(), int64_t{0})) /
                                    static_cast<double>(admit.size()),
                "us", n(admit));

    // Each layer contains the one below it; the medians may differ by
    // noise where a layer adds little (a one-row reply renders in µs).
    const bool order_ok = sql_p50 <= kLayerTolerance * handle_p50 &&
                          handle_p50 <= kLayerTolerance * socket_p50;
    layers_ok = violations == 0 && decomposed > 0 && order_ok && !rtt.empty();
    std::printf("layer-sum check: %lld readings decomposed, %lld violations; "
                "median sql %.4f <= handle %.4f <= socket %.4f ms (10%% tolerance): "
                "%s -> %s\n",
                static_cast<long long>(decomposed), static_cast<long long>(violations),
                sql_p50, handle_p50, socket_p50, order_ok ? "yes" : "no",
                layers_ok ? "PASS" : "FAIL");
    if (Ms(Quantile(late, 0.99)) > Ms(static_cast<double>(kPumpInterval))) {
      std::printf("FLAG: generator fell behind by more than one pump interval "
                  "(late p99 %.3f ms)\n", Ms(Quantile(late, 0.99)));
    }
    ++checks;
    if (!layers_ok) ++failed_checks;
  }

  const int64_t attempted = offered + qp.attempted + checks;
  const int64_t failed = lost + shed + qp.failed + failed_checks +
                         (qp.transport_ok ? 0 : 1);
  const bool correct = failed == 0;
  std::printf("checks: %lld run, %lld failed; readings offered %lld; "
              "queries %lld (%lld failed)\n",
              static_cast<long long>(checks), static_cast<long long>(failed_checks),
              static_cast<long long>(offered), static_cast<long long>(qp.attempted),
              static_cast<long long>(qp.failed));
  std::string digest_text;
  {
    QueryGen gen(w.get(), args, 0);
    for (int i = 0; i < 64; ++i) digest_text += gen.Next().sql + "\n";
  }
  std::printf("offered_readings %lld query_digest %016llx\n",
              static_cast<long long>(offered),
              static_cast<unsigned long long>(Mix(std::hash<std::string>{}(digest_text))));
  w.reset();
  std::printf("%s\n", report.Json(correct, attempted, failed,
                                  args.trace ? kPerLayer : kEndToEnd).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtoll(value.c_str(), nullptr, 10);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--data-dir") args.data_dir = value;
  }
  if ((args.workload != "ingest" && args.workload != "federation" &&
       args.workload != "query_mix") ||
      args.seconds < 1 || args.data_dir.empty()) {
    std::fprintf(stderr,
                 "usage: gsn_perfbench --workload ingest|federation|query_mix "
                 "--seed N --seconds S --trace 0|1 --data-dir DIR\n");
    return 2;
  }
  return perfbench::Run(args);
}
