// Tests for distributed tracing: trace context propagation, head
// sampling, the bounded span store, concurrent record-while-scrape
// (the TSan target), and EXPLAIN ANALYZE instrumentation down in the
// SQL layer plus its capture in the slow-query log.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gsn/container/query_manager.h"
#include "gsn/container/web_interface.h"
#include "gsn/sql/executor.h"
#include "gsn/sql/optimizer.h"
#include "gsn/sql/parser.h"
#include "gsn/telemetry/tracing.h"
#include "gsn/util/logging.h"

namespace gsn::telemetry {
namespace {

/// Clock that jumps forward a fixed step on every read, making span
/// durations exact.
class SteppingClock : public Clock {
 public:
  explicit SteppingClock(Timestamp step) : step_(step) {}
  Timestamp NowMicros() const override { return now_ += step_; }

 private:
  const Timestamp step_;
  mutable Timestamp now_ = 0;
};

Tracer::Options SampledOptions(double rate, const Clock* clock = nullptr) {
  Tracer::Options options;
  options.sample_rate = rate;
  options.clock = clock;
  return options;
}

// ------------------------------------------------------------ TraceContext

TEST(TraceContextTest, HexRoundTrip) {
  TraceContext ctx;
  ctx.trace_hi = 0x0123456789abcdefULL;
  ctx.trace_lo = 0xfedcba9876543210ULL;
  const std::string hex = ctx.TraceIdHex();
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  uint64_t hi = 0;
  uint64_t lo = 0;
  ASSERT_TRUE(ParseTraceIdHex(hex, &hi, &lo));
  EXPECT_EQ(hi, ctx.trace_hi);
  EXPECT_EQ(lo, ctx.trace_lo);
}

TEST(TraceContextTest, ParseRejectsMalformedIds) {
  uint64_t hi = 0;
  uint64_t lo = 0;
  EXPECT_FALSE(ParseTraceIdHex("", &hi, &lo));
  EXPECT_FALSE(ParseTraceIdHex("abc", &hi, &lo));
  EXPECT_FALSE(ParseTraceIdHex(std::string(32, 'g'), &hi, &lo));
  EXPECT_FALSE(ParseTraceIdHex(std::string(33, 'a'), &hi, &lo));
  EXPECT_TRUE(ParseTraceIdHex(std::string(32, 'A'), &hi, &lo));
}

// ------------------------------------------------------------------ Tracer

TEST(TracerTest, RateZeroRootsInvalidContexts) {
  Tracer tracer;  // default rate 0
  const TraceContext ctx = tracer.StartTrace();
  EXPECT_FALSE(ctx.valid());
  EXPECT_FALSE(tracer.ChildOf(ctx).valid());
}

TEST(TracerTest, RateOneSamplesEveryTrace) {
  Tracer tracer(SampledOptions(1.0));
  for (int i = 0; i < 100; ++i) {
    const TraceContext ctx = tracer.StartTrace();
    ASSERT_TRUE(ctx.valid());
    EXPECT_TRUE(ctx.sampled);
  }
}

TEST(TracerTest, ChildKeepsTraceIdWithFreshSpanId) {
  Tracer tracer(SampledOptions(1.0));
  const TraceContext parent = tracer.StartTrace();
  const TraceContext child = tracer.ChildOf(parent);
  EXPECT_EQ(child.trace_hi, parent.trace_hi);
  EXPECT_EQ(child.trace_lo, parent.trace_lo);
  EXPECT_EQ(child.sampled, parent.sampled);
  EXPECT_NE(child.span_id, parent.span_id);
}

TEST(TracerTest, FractionalRateSamplesSomeNotAll) {
  Tracer tracer(SampledOptions(0.5));
  int sampled = 0;
  constexpr int kTraces = 2000;
  for (int i = 0; i < kTraces; ++i) {
    const TraceContext ctx = tracer.StartTrace();
    // Unsampled traces still carry ids (always-sample-on-error needs
    // them).
    ASSERT_TRUE(ctx.valid());
    if (ctx.sampled) ++sampled;
  }
  EXPECT_GT(sampled, kTraces / 4);
  EXPECT_LT(sampled, 3 * kTraces / 4);
}

TEST(TracerTest, SamplingDecisionIsDeterministicInTraceId) {
  Tracer a(SampledOptions(0.3));
  Tracer b(SampledOptions(0.3));
  // Same seed, same sequence of ids, same coins.
  for (int i = 0; i < 50; ++i) {
    const TraceContext ca = a.StartTrace();
    const TraceContext cb = b.StartTrace();
    EXPECT_EQ(ca.trace_hi, cb.trace_hi);
    EXPECT_EQ(ca.trace_lo, cb.trace_lo);
    EXPECT_EQ(ca.sampled, cb.sampled);
  }
}

TEST(TracerTest, NanSampleRateDisablesSampling) {
  Tracer tracer(SampledOptions(1.0));
  tracer.set_sample_rate(std::nan(""));
  EXPECT_EQ(tracer.sample_rate(), 0.0);
  EXPECT_FALSE(tracer.StartTrace().valid());
}

// -------------------------------------------------------------------- Span

TEST(SpanTest, RecordsNameParentAndDurationOnFinish) {
  SteppingClock clock(7);
  Tracer tracer(SampledOptions(1.0, &clock));
  TraceContext root_ctx;
  {
    Span root(&tracer, "wrapper.produce");
    root.set_sensor("temp");
    root.set_node("node-a");
    root_ctx = root.context();
    Span child(&tracer, "vsensor.pipeline", root.context());
    child.Finish();
  }
  const std::vector<SpanRecord> spans = tracer.store().Snapshot();
  ASSERT_EQ(spans.size(), 2u);  // child finished first
  EXPECT_EQ(spans[0].name, "vsensor.pipeline");
  EXPECT_EQ(spans[0].parent_span_id, root_ctx.span_id);
  EXPECT_EQ(spans[0].trace_hi, root_ctx.trace_hi);
  EXPECT_EQ(spans[0].trace_lo, root_ctx.trace_lo);
  EXPECT_EQ(spans[1].name, "wrapper.produce");
  EXPECT_EQ(spans[1].parent_span_id, 0u);
  EXPECT_EQ(spans[1].sensor, "temp");
  EXPECT_EQ(spans[1].node, "node-a");
  // Each span reads the stepping clock twice: open and finish.
  EXPECT_EQ(spans[0].duration_micros, 7);
  EXPECT_EQ(spans[1].duration_micros, 21);
}

TEST(SpanTest, InertWithoutTracerOrWithInvalidParent) {
  Span inert;
  EXPECT_FALSE(inert.active());
  Span no_tracer(nullptr, "x");
  EXPECT_FALSE(no_tracer.active());
  Tracer tracer(SampledOptions(1.0));
  Span orphan(&tracer, "child", TraceContext());
  EXPECT_FALSE(orphan.active());
  orphan.Finish();
  EXPECT_EQ(tracer.store().size(), 0u);
}

TEST(SpanTest, UnsampledSpanIsNotRecordedUnlessError) {
  Tracer tracer(SampledOptions(1.0));
  TraceContext unsampled = tracer.StartTrace();
  unsampled.sampled = false;
  {
    Span quiet(&tracer, "quiet", unsampled);
  }
  EXPECT_EQ(tracer.store().size(), 0u);
  {
    Span failed(&tracer, "failed", unsampled);
    failed.set_error();
  }
  const std::vector<SpanRecord> spans = tracer.store().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "failed");
  EXPECT_TRUE(spans[0].error);
}

TEST(SpanTest, BindsThreadContextWhileOpenAndRestoresIt) {
  Tracer tracer(SampledOptions(1.0));
  EXPECT_FALSE(ThreadTraceContext().valid());
  {
    Span outer(&tracer, "outer");
    EXPECT_EQ(ThreadTraceContext().span_id, outer.context().span_id);
    {
      Span inner(&tracer, "inner", outer.context());
      EXPECT_EQ(ThreadTraceContext().span_id, inner.context().span_id);
    }
    EXPECT_EQ(ThreadTraceContext().span_id, outer.context().span_id);
  }
  EXPECT_FALSE(ThreadTraceContext().valid());
}

// -------------------------------------------------------------- TraceStore

TEST(TraceStoreTest, RingEvictsOldestAndCountsDropped) {
  TraceStore store(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    SpanRecord record;
    record.trace_hi = 1;
    record.trace_lo = 1;
    record.span_id = i;
    store.Record(std::move(record));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.dropped(), 2u);
  const std::vector<SpanRecord> spans = store.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].span_id, 3u);
  EXPECT_EQ(spans[2].span_id, 5u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
}

TEST(TraceStoreTest, ForTraceFiltersById) {
  TraceStore store;
  for (uint64_t t = 1; t <= 3; ++t) {
    SpanRecord record;
    record.trace_hi = t;
    record.trace_lo = t * 10;
    record.span_id = t;
    store.Record(std::move(record));
  }
  const std::vector<SpanRecord> one = store.ForTrace(2, 20);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].span_id, 2u);
}

// ------------------------------------------------------------ JSON export

/// GET /api/v1/traces of a container recording into `tracer`.
std::string TracesJson(container::WebInterface* web,
                       std::map<std::string, std::string> query = {}) {
  network::HttpRequest request;
  request.method = "GET";
  request.path = "/api/v1/traces";
  request.query = std::move(query);
  return web->Handle(request).body;
}

TEST(TracesResourceTest, RendersSpansAndFilters) {
  Tracer tracer(SampledOptions(1.0));
  container::Container::Options options;
  options.tracer = &tracer;
  container::Container node(std::move(options));
  container::WebInterface web(&node);
  TraceContext first_ctx;
  {
    Span first(&tracer, "alpha");
    first.set_sensor("s\"1");  // must be JSON-escaped
    first_ctx = first.context();
  }
  {
    Span second(&tracer, "beta");
  }
  const std::string all = TracesJson(&web);
  EXPECT_NE(all.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(all.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(all.find("\"sensor\":\"s\\\"1\""), std::string::npos);
  EXPECT_NE(all.find("\"trace\":\"" + first_ctx.TraceIdHex() + "\""),
            std::string::npos);

  const std::string one = TracesJson(&web, {{"id", first_ctx.TraceIdHex()}});
  EXPECT_NE(one.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_EQ(one.find("\"name\":\"beta\""), std::string::npos);

  // The uniform list envelope: `total` counts matches before paging.
  EXPECT_NE(all.find("\"items\":["), std::string::npos);
  EXPECT_NE(all.find("\"total\":2"), std::string::npos);
  const std::string paged =
      TracesJson(&web, {{"limit", "1"}, {"offset", "1"}});
  EXPECT_EQ(paged.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(paged.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(paged.find("\"total\":2"), std::string::npos);
  // Paging past the end yields an empty page, same total.
  EXPECT_NE(TracesJson(&web, {{"limit", "5"}, {"offset", "10"}})
                .find("\"items\":[],\"total\":2"),
            std::string::npos);
}

// ------------------------------------------------------------- Concurrency

// Spans opened/finished from many threads while other threads scrape
// the store — the shape /traces sees in production. Run under TSan by
// the sanitize CI job.
TEST(TracingConcurrencyTest, RecordWhileScrapeIsSafe) {
  Tracer tracer(SampledOptions(1.0));
  constexpr int kWriters = 6;
  constexpr int kSpansPerWriter = 500;
  std::atomic<bool> stop{false};

  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&tracer, &stop] {
      size_t total = 0;
      // Scrape until the store has been seen non-empty, not just until
      // `stop`: a scraper first scheduled after the writers finished
      // must still read what they recorded.
      while (!stop.load(std::memory_order_relaxed) || total == 0) {
        total += tracer.store().Snapshot().size();
        total += tracer.store().ForTrace(1, 1).size() +
                 static_cast<size_t>(tracer.store().dropped());
      }
      EXPECT_GT(total, 0u);
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tracer, w] {
      for (int i = 0; i < kSpansPerWriter; ++i) {
        Span root(&tracer, "writer.root");
        root.set_node("node-" + std::to_string(w));
        Span child(&tracer, "writer.child", root.context());
        if (i % 7 == 0) child.set_error();
        // The thread-local binding must track this thread's own spans.
        ASSERT_EQ(ThreadTraceContext().trace_lo, child.context().trace_lo);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : scrapers) t.join();

  const size_t expected = size_t{kWriters} * kSpansPerWriter * 2;
  EXPECT_EQ(tracer.store().size() + tracer.store().dropped(), expected);
}

}  // namespace
}  // namespace gsn::telemetry

namespace gsn::sql {
namespace {

MapResolver MakeJoinedTables() {
  MapResolver resolver;
  Schema readings;
  readings.AddField("sensor_id", DataType::kInt);
  readings.AddField("temperature", DataType::kInt);
  Relation r(readings);
  for (int64_t i = 0; i < 40; ++i) {
    (void)r.AddRow({Value::Int(i % 4), Value::Int(20 + i % 10)});
  }
  resolver.Put("readings", std::move(r));

  Schema sensors;
  sensors.AddField("id", DataType::kInt);
  sensors.AddField("room", DataType::kString);
  Relation s(sensors);
  for (int64_t i = 0; i < 4; ++i) {
    (void)s.AddRow({Value::Int(i), Value::String("room-" + std::to_string(i))});
  }
  resolver.Put("sensors", std::move(s));
  return resolver;
}

constexpr char kJoinSql[] =
    "select s.room, avg(r.temperature) from readings r join sensors s "
    "on r.sensor_id = s.id where r.temperature > 21 group by s.room";

TEST(ExplainAnalyzeTest, AnnotatesJoinPlanWithRowsAndTimings) {
  MapResolver resolver = MakeJoinedTables();
  auto stmt = ParseSelect(kJoinSql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(Optimize(stmt->get()).ok());

  Executor exec(&resolver);
  AnalyzeCollector analyze;
  exec.set_analyze(&analyze);
  auto result = exec.Execute(**stmt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(analyze.empty());

  const std::string plan = ExplainAnalyzeString(**stmt, analyze);
  // Scans report actual cardinalities with timings.
  EXPECT_NE(plan.find("rows=40"), std::string::npos) << plan;
  EXPECT_NE(plan.find("rows=4"), std::string::npos) << plan;
  EXPECT_NE(plan.find("time="), std::string::npos) << plan;
  // The join line names the algorithm actually picked at runtime.
  const bool names_algorithm =
      plan.find("HashJoin") != std::string::npos ||
      plan.find("NestedLoopJoin") != std::string::npos;
  EXPECT_TRUE(names_algorithm) << plan;
  // The filter and aggregation report their output cardinalities.
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
  EXPECT_NE(plan.find("groups="), std::string::npos) << plan;
  // Static EXPLAIN of the same statement carries no runtime numbers.
  EXPECT_EQ(ExplainString(**stmt).find("rows="), std::string::npos);
}

TEST(ExplainAnalyzeTest, UnexecutedOperatorsSaySo) {
  MapResolver resolver = MakeJoinedTables();
  auto stmt = ParseSelect("select * from readings");
  ASSERT_TRUE(stmt.ok());
  AnalyzeCollector analyze;  // nothing recorded
  const std::string plan = ExplainAnalyzeString(**stmt, analyze);
  EXPECT_NE(plan.find("(never executed)"), std::string::npos) << plan;
}

}  // namespace
}  // namespace gsn::sql

namespace gsn::container {
namespace {

class QmSteppingClock : public Clock {
 public:
  explicit QmSteppingClock(Timestamp step) : step_(step) {}
  Timestamp NowMicros() const override { return now_ += step_; }

 private:
  const Timestamp step_;
  mutable Timestamp now_ = 0;
};

constexpr char kQmJoinSql[] =
    "select s.room, count(*) from readings r join sensors s "
    "on r.sensor_id = s.id group by s.room";

TEST(QueryManagerTracingTest, ExplainAnalyzeReportsOperatorStats) {
  sql::MapResolver resolver = sql::MakeJoinedTables();
  QueryManager qm(&resolver);
  auto plan = qm.ExplainAnalyze(kQmJoinSql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("rows=40"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("time="), std::string::npos) << *plan;
}

TEST(QueryManagerTracingTest, SlowLogCapturesSourceAndAnalyzedPlan) {
  sql::MapResolver resolver = sql::MakeJoinedTables();
  QueryManager qm(&resolver);
  QmSteppingClock stepping(1000);  // every span measures 1000 us
  telemetry::Tracer::Options clocked;
  clocked.clock = &stepping;
  telemetry::Tracer tracer(clocked);
  qm.set_tracer(&tracer);
  qm.set_slow_query_micros(500);  // everything is slow

  ASSERT_TRUE(qm.Execute(kQmJoinSql, "web").ok());
  const std::vector<QueryManager::SlowQueryEntry> entries = qm.slow_log();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].source, "web");
  EXPECT_EQ(entries[0].sql_text, kQmJoinSql);
  EXPECT_GE(entries[0].elapsed_micros, 500);
  // The retained plan is the EXPLAIN ANALYZE of the slow run itself.
  EXPECT_NE(entries[0].plan.find("rows=40"), std::string::npos)
      << entries[0].plan;
}

TEST(QueryManagerTracingTest, ExecutionRootsSpanWithSourceAttribution) {
  sql::MapResolver resolver = sql::MakeJoinedTables();
  QueryManager qm(&resolver);
  telemetry::Tracer tracer;
  tracer.set_sample_rate(1.0);
  qm.set_tracer(&tracer);
  ASSERT_TRUE(qm.Execute("select count(*) from readings", "mgmt").ok());
  const std::vector<telemetry::SpanRecord> spans = tracer.store().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "query.execute");
  EXPECT_EQ(spans[0].sensor, "mgmt");
}

}  // namespace
}  // namespace gsn::container
