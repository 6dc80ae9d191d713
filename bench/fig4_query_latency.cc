// Reproduces Figure 4 of the paper: "Query processing latency in a GSN
// node" — total processing time for the set of clients vs the number of
// clients (1..500), for a stream element size (SES) of 32 KB.
//
// Workload (paper §5): random queries with 3 filtering predicates in
// the WHERE clause on average, history sizes from 1 second up to 30
// minutes, and uniformly distributed sampling rates in (0.1, 1.0)
// seconds. Bursts occur with a small probability and appear as spikes.
//
// Expected shape (paper): total time grows roughly linearly with the
// client count — about 40 ms for 500 clients, i.e. < 1 ms per client —
// with occasional burst spikes.

#include <cstdio>
#include <string>
#include <vector>

#include "gsn/container/query_manager.h"
#include "gsn/storage/table.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/util/rng.h"

namespace {

using gsn::Timestamp;
using gsn::kMicrosPerMinute;
using gsn::kMicrosPerSecond;

/// Fills the sensor's output table with 30 minutes of 32 KB elements at
/// 1 element/second (the node's stored stream history).
void FillTable(gsn::storage::Table* table, size_t ses_bytes,
               Timestamp history, Timestamp spacing, gsn::Rng* rng) {
  std::vector<uint8_t> payload(ses_bytes);
  for (size_t i = 0; i + 8 <= payload.size(); i += 8) {
    const uint64_t r = rng->NextUint64();
    for (int b = 0; b < 8; ++b) {
      payload[i + static_cast<size_t>(b)] = static_cast<uint8_t>(r >> (8 * b));
    }
  }
  const gsn::Blob blob = gsn::MakeBlob(std::move(payload));
  int64_t seq = 0;
  for (Timestamp t = 0; t <= history; t += spacing) {
    gsn::StreamElement e;
    e.timed = t;
    e.values = {gsn::Value::Int(seq++),
                gsn::Value::Double(rng->NextDouble(-1.0, 1.0)),
                gsn::Value::Binary(blob)};
    (void)table->Insert(e);
  }
}

/// One client's random query: ~3 filtering predicates (history bound,
/// value threshold, sequence stride), as in the paper's workload.
std::string RandomQuery(Timestamp now, gsn::Rng* rng) {
  const Timestamp history =
      rng->NextInt(kMicrosPerSecond, 30 * kMicrosPerMinute);
  const double threshold = rng->NextDouble(-1.0, 1.0);
  const int64_t stride = rng->NextInt(2, 10);
  return "select count(*), avg(value), max(seq) from stream where timed > " +
         std::to_string(now - history) + " and value > " +
         std::to_string(threshold) + " and seq % " + std::to_string(stride) +
         " = 0";
}

/// Untraced p95 per client count measured at the commit preceding the
/// zero-copy storage layer (--quick sweep on the same machine class),
/// kept in BENCH_fig4.json so regressions against the pre-zero-copy
/// baseline are visible from the artifact alone.
struct BaselinePoint {
  int clients;
  double p95_ms;
};
constexpr BaselinePoint kPreZeroCopyBaseline[] = {
    {1, 0.692}, {50, 0.833}, {100, 1.012}, {250, 1.000}, {500, 0.990},
};

}  // namespace

int main(int argc, char** argv) {
  // --json writes the measured points (and the recorded pre-zero-copy
  // baseline) to BENCH_fig4.json.
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--json") json = true;
  }

  constexpr size_t kSesBytes = 32 * 1024;
  const Timestamp kHistory = 30 * kMicrosPerMinute;
  // 1 element/s => 1801 stored rows covering the max 30 min history.
  const Timestamp kSpacing = kMicrosPerSecond;
  const double kBurstProbability = 0.1;

  gsn::Rng rng(20060912);       // VLDB'06 dates the seed
  gsn::Rng burst_decider(1215);  // separate stream: burst points are
                                 // reproducible regardless of workload
                                 // generation order

  std::vector<int> client_counts;
  if (quick) {
    client_counts = {1, 50, 100, 250, 500};
  } else {
    for (int n = 1; n <= 500; n += (n == 1 ? 24 : 25)) {
      client_counts.push_back(n);  // 1, 25, 50, ..., 500
    }
  }

  std::printf("# Figure 4: query processing latency in a GSN node "
              "(SES = 32 KB)\n");
  std::printf("# stored history: 30 min of 32 KB elements at 1 element/s\n");
  std::printf("# trace columns: the same client batch with head sampling "
              "off / 1%% / 100%%\n");
  std::printf("%-10s %14s %14s %14s %16s %12s %14s %8s\n", "clients",
              "trace_off_ms", "trace_1pct_ms", "trace_100_ms",
              "per_client_ms", "p95_ms", "lock_wait_ms", "burst");

  struct PointResult {
    int clients = 0;
    double totals_ms[3] = {0.0, 0.0, 0.0};
    double p95_ms = 0.0;
    /// Contention-profiler columns (docs/TELEMETRY.md): wall time the
    /// untraced batch spent blocked on the instrumented query-cache
    /// lock / queued at admission. This bench drives one thread with
    /// no stream sources, so both stay ~0 — the columns exist so the
    /// artifact format matches fig3 and any future concurrent variant
    /// reports real waits.
    double lock_wait_ms = 0.0;
    double queue_wait_ms = 0.0;
    bool burst = false;
  };
  std::vector<PointResult> points;

  for (int clients : client_counts) {
    // Fresh node state per measurement so points are independent.
    gsn::storage::TableManager tables;
    gsn::WindowSpec retention;
    retention.kind = gsn::WindowSpec::Kind::kTime;
    retention.duration_micros = kHistory + kMicrosPerMinute;
    gsn::Schema element_schema;
    element_schema.AddField("seq", gsn::DataType::kInt);
    element_schema.AddField("value", gsn::DataType::kDouble);
    element_schema.AddField("payload", gsn::DataType::kBinary);
    auto table = tables.CreateTable("stream", element_schema, retention);
    if (!table.ok()) {
      std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
      return 1;
    }
    FillTable(*table, kSesBytes, kHistory, kSpacing, &rng);

    // Bursts (paper: probability ~0.05): a burst of fresh elements
    // lands right before this measurement — every live window grows,
    // producing the paper's latency spikes at burst points.
    const bool burst = burst_decider.NextBool(kBurstProbability);
    if (burst) {
      gsn::Rng burst_rng(static_cast<uint64_t>(clients) * 7 + 1);
      FillTable(*table, kSesBytes, 5 * kMicrosPerMinute, kSpacing / 4,
                &burst_rng);
    }

    // Each client issues its own random query (distinct text: no
    // cross-client cache sharing, like distinct MySQL sessions).
    std::vector<std::string> queries;
    queries.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      queries.push_back(RandomQuery(kHistory, &rng));
    }

    // Tracing overhead: the same batch at head-sampling rates 0 (off),
    // 0.01, and 1.0. Fresh registry + manager per rate so the exec
    // histogram covers exactly one configuration.
    constexpr double kRates[] = {0.0, 0.01, 1.0};
    double totals_ms[3] = {0.0, 0.0, 0.0};
    double p95_ms = 0.0;
    double lock_wait_ms = 0.0;
    double queue_wait_ms = 0.0;
    for (int r = 0; r < 3; ++r) {
      gsn::telemetry::MetricRegistry registry;
      gsn::container::QueryManager query_manager(&tables, &registry);
      gsn::telemetry::Tracer::Options trace_options;
      trace_options.sample_rate = kRates[r];
      gsn::telemetry::Tracer tracer(trace_options);
      query_manager.set_tracer(&tracer);

      for (const std::string& q : queries) {
        auto result = query_manager.Execute(q);
        if (!result.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
      }
      // Figure data comes from the query manager's own telemetry: the
      // exec-latency histogram covers parse-miss + execution per client.
      const gsn::telemetry::Histogram::Snapshot parse =
          query_manager.parse_histogram();
      const gsn::telemetry::Histogram::Snapshot exec =
          query_manager.exec_histogram();
      totals_ms[r] = static_cast<double>(parse.sum + exec.sum) / 1000.0;
      // The figure's latency series stays the untraced baseline; so do
      // the contention columns.
      if (r == 0) {
        p95_ms = exec.Quantile(0.95) / 1000.0;
        lock_wait_ms =
            static_cast<double>(
                registry.SumHistograms("gsn_lock_wait_micros").sum) /
            1000.0;
        queue_wait_ms =
            static_cast<double>(
                registry.SumHistograms("gsn_queue_wait_micros").sum) /
            1000.0;
      }
    }
    std::printf("%-10d %14.2f %14.2f %14.2f %16.4f %12.3f %14.3f %8s\n",
                clients, totals_ms[0], totals_ms[1], totals_ms[2],
                totals_ms[0] / clients, p95_ms, lock_wait_ms,
                burst ? "*" : "");
    std::fflush(stdout);
    PointResult point;
    point.clients = clients;
    for (int r = 0; r < 3; ++r) point.totals_ms[r] = totals_ms[r];
    point.p95_ms = p95_ms;
    point.lock_wait_ms = lock_wait_ms;
    point.queue_wait_ms = queue_wait_ms;
    point.burst = burst;
    points.push_back(point);
  }
  std::printf("# burst '*': a data burst landed before the measurement "
              "(paper: spikes)\n");

  if (json) {
    std::FILE* f = std::fopen("BENCH_fig4.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_fig4.json\n");
      return 1;
    }
    std::fprintf(f, "{\n  \"figure\": 4,\n  \"ses_bytes\": %zu,\n"
                 "  \"points\": [\n", kSesBytes);
    for (size_t i = 0; i < points.size(); ++i) {
      const PointResult& p = points[i];
      std::fprintf(f,
                   "    {\"clients\": %d, \"trace_off_ms\": %.4f, "
                   "\"trace_1pct_ms\": %.4f, \"trace_100_ms\": %.4f, "
                   "\"per_client_ms\": %.4f, \"p95_ms\": %.4f, "
                   "\"lock_wait_ms\": %.4f, \"queue_wait_ms\": %.4f, "
                   "\"burst\": %s}%s\n",
                   p.clients, p.totals_ms[0], p.totals_ms[1], p.totals_ms[2],
                   p.totals_ms[0] / p.clients, p.p95_ms, p.lock_wait_ms,
                   p.queue_wait_ms, p.burst ? "true" : "false",
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"baseline_pre_zero_copy_p95\": [\n");
    constexpr size_t kBaselineCount =
        sizeof(kPreZeroCopyBaseline) / sizeof(kPreZeroCopyBaseline[0]);
    for (size_t i = 0; i < kBaselineCount; ++i) {
      std::fprintf(f, "    {\"clients\": %d, \"p95_ms\": %.4f}%s\n",
                   kPreZeroCopyBaseline[i].clients,
                   kPreZeroCopyBaseline[i].p95_ms,
                   i + 1 < kBaselineCount ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote BENCH_fig4.json\n");
  }
  return 0;
}
