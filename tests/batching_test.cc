// Differential tests for batched pipeline execution: the batched paths
// (batch listeners, NotificationManager::OnBatch, InsertBatch,
// QueryManager::OnNewElementBatch) must produce byte-identical outputs
// and downstream state to their per-element equivalents. Also covers
// the bounded LRU prepared-statement cache.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/container/local_stream_wrapper.h"
#include "gsn/container/notification.h"
#include "gsn/container/query_manager.h"
#include "gsn/storage/table.h"
#include "gsn/telemetry/metrics.h"

namespace gsn::container {
namespace {

StreamElement Elem(Timestamp t, int64_t seq, double value) {
  StreamElement e;
  e.timed = t;
  e.values = {Value::Int(seq), Value::Double(value)};
  return e;
}

Schema ElementSchema() {
  Schema s;
  s.AddField("seq", DataType::kInt);
  s.AddField("value", DataType::kDouble);
  return s;
}

bool SameElement(const StreamElement& a, const StreamElement& b) {
  return a.timed == b.timed && a.values == b.values;
}

// --------------------------------------------------------- Notification

TEST(BatchingDifferential, NotificationOnBatchMatchesOnElementLoop) {
  NotificationManager per_element;
  NotificationManager batched;

  std::vector<Notification> per_element_log;
  std::vector<Notification> batched_log;
  auto subscribe = [](NotificationManager* manager,
                      std::vector<Notification>* log) {
    // Two subscriptions: a conditional one and a catch-all, so delivery
    // order across subscriptions is exercised too.
    ASSERT_TRUE(manager
                    ->Subscribe("s", "seq % 2 = 0",
                                std::make_shared<CallbackChannel>(
                                    [log](const Notification& n) {
                                      log->push_back(n);
                                    }))
                    .ok());
    ASSERT_TRUE(manager
                    ->Subscribe("*", "",
                                std::make_shared<CallbackChannel>(
                                    [log](const Notification& n) {
                                      log->push_back(n);
                                    }))
                    .ok());
  };
  subscribe(&per_element, &per_element_log);
  subscribe(&batched, &batched_log);

  std::vector<StreamElement> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(Elem(1000 + i * 10, i, i * 0.5));
  }

  int delivered_loop = 0;
  for (const StreamElement& e : batch) {
    delivered_loop += per_element.OnElement("s", ElementSchema(), e);
  }
  const int delivered_batch = batched.OnBatch("s", ElementSchema(), batch);

  EXPECT_EQ(delivered_batch, delivered_loop);
  ASSERT_EQ(batched_log.size(), per_element_log.size());
  for (size_t i = 0; i < batched_log.size(); ++i) {
    EXPECT_EQ(batched_log[i].sensor_name, per_element_log[i].sensor_name);
    EXPECT_TRUE(SameElement(batched_log[i].element,
                            per_element_log[i].element))
        << "delivery " << i;
  }
  EXPECT_EQ(batched.stats().elements_seen, per_element.stats().elements_seen);
  EXPECT_EQ(batched.stats().delivered, per_element.stats().delivered);
}

// ----------------------------------------------------- Continuous query

TEST(BatchingDifferential, ContinuousBatchMatchesFinalPerElementRun) {
  // Continuous queries read the sensor's stored table, so one run after
  // a fully inserted batch must equal the *last* of N per-element runs.
  const std::string sql = "select count(*), max(seq), avg(value) from s";
  WindowSpec retention;
  retention.kind = WindowSpec::Kind::kCount;
  retention.count = 100;

  std::vector<StreamElement> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(Elem(2000 + i * 10, i, i * 0.25));
  }

  // Per-element: insert + notify per element, keep the last result.
  storage::TableManager tables_a;
  auto table_a = tables_a.CreateTable("s", ElementSchema(), retention);
  ASSERT_TRUE(table_a.ok());
  QueryManager qm_a(&tables_a);
  Relation last_a;
  ASSERT_TRUE(qm_a.RegisterContinuous(
                      sql, [&last_a](const std::string&, const Relation& r) {
                        last_a = r;
                      })
                  .ok());
  int runs_a = 0;
  for (const StreamElement& e : batch) {
    ASSERT_TRUE((*table_a)->Insert(e).ok());
    runs_a += qm_a.OnNewElement("s");
  }

  // Batched: one InsertBatch, one OnNewElementBatch.
  storage::TableManager tables_b;
  auto table_b = tables_b.CreateTable("s", ElementSchema(), retention);
  ASSERT_TRUE(table_b.ok());
  QueryManager qm_b(&tables_b);
  Relation last_b;
  int calls_b = 0;
  ASSERT_TRUE(qm_b.RegisterContinuous(
                      sql,
                      [&last_b, &calls_b](const std::string&,
                                          const Relation& r) {
                        last_b = r;
                        ++calls_b;
                      })
                  .ok());
  ASSERT_TRUE((*table_b)->InsertBatch(batch).ok());
  const int runs_b = qm_b.OnNewElementBatch("s", batch);

  EXPECT_EQ(runs_a, static_cast<int>(batch.size()));
  EXPECT_EQ(runs_b, 1);
  EXPECT_EQ(calls_b, 1);
  ASSERT_EQ(last_a.NumRows(), last_b.NumRows());
  ASSERT_EQ(last_a.NumRows(), 1u);
  EXPECT_EQ(last_a.row(0), last_b.row(0));
}

// ------------------------------------------------------- Local chaining

// A chain offers each producer batch into the consumer's source; one
// offer of a batch admits what an offer per element admits.
TEST(BatchingDifferential, PushBatchMatchesPushLoop) {
  vsensor::StreamSourceSpec spec;
  spec.alias = "src";
  vsensor::StreamSource loop(
      spec, std::make_unique<LocalStreamWrapper>(ElementSchema()), 1);
  vsensor::StreamSource batched(
      spec, std::make_unique<LocalStreamWrapper>(ElementSchema()), 1);
  constexpr auto kShed = vsensor::StreamSource::WhenBlocked::kShed;

  std::vector<StreamElement> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(Elem(3000 + i, i, i * 1.5));
  }
  for (const StreamElement& e : batch) loop.Offer({e}, kShed);
  batched.Offer(batch, kShed);

  EXPECT_EQ(loop.queue_depth(), batched.queue_depth());
  auto a = loop.Poll(4000);
  auto b = batched.Poll(4000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_TRUE(SameElement((*a)[i], (*b)[i])) << "element " << i;
  }
}

// ----------------------------------------------------------- Container

std::string MoteDescriptor(const std::string& name) {
  return "<virtual-sensor name=\"" + name + "\">"
         "<output-structure>"
         "  <field name=\"temperature\" type=\"integer\"/>"
         "</output-structure>"
         "<storage permanent-storage=\"false\" size=\"10m\"/>"
         "<input-stream name=\"in\">"
         // The source emits its whole 2-second window per trigger, so a
         // coarse tick yields a multi-element output batch.
         "  <stream-source alias=\"src\" storage-size=\"2s\">"
         "    <address wrapper=\"mote\">"
         "      <predicate key=\"interval-ms\" val=\"100\"/>"
         "    </address>"
         "    <query>select temperature from wrapper</query>"
         "  </stream-source>"
         "  <query>select * from src</query>"
         "</input-stream>"
         "</virtual-sensor>";
}

TEST(BatchingDifferential, BatchListenersSeePerElementSequence) {
  // Coarse ticking admits many elements per trigger; the concatenation
  // of the batch-listener batches must be exactly the per-element
  // listener sequence, and the whole batch must land in storage.
  auto clock = std::make_shared<VirtualClock>();
  telemetry::MetricRegistry registry;
  Container::Options options;
  options.node_id = "batch-test";
  options.clock = clock;
  options.seed = 99;
  options.metrics = &registry;
  Container container(std::move(options));

  auto deployed = container.Deploy(MoteDescriptor("room"));
  ASSERT_TRUE(deployed.ok());

  std::vector<StreamElement> per_element;
  std::vector<StreamElement> concatenated;
  std::vector<size_t> batch_sizes;
  (*deployed)->AddListener(
      [&per_element](const vsensor::VirtualSensor&, const StreamElement& e) {
        per_element.push_back(e);
      });
  (*deployed)->AddBatchListener(
      [&concatenated, &batch_sizes](const vsensor::VirtualSensor&,
                                    const std::vector<StreamElement>& batch) {
        batch_sizes.push_back(batch.size());
        concatenated.insert(concatenated.end(), batch.begin(), batch.end());
      });

  // 1-second steps against a 100 ms device: ~10 elements per trigger.
  for (int i = 0; i < 5; ++i) {
    clock->Advance(kMicrosPerSecond);
    ASSERT_TRUE(container.Tick().ok());
  }

  ASSERT_FALSE(per_element.empty());
  ASSERT_EQ(concatenated.size(), per_element.size());
  for (size_t i = 0; i < concatenated.size(); ++i) {
    EXPECT_TRUE(SameElement(concatenated[i], per_element[i]))
        << "element " << i;
  }
  bool saw_real_batch = false;
  for (size_t n : batch_sizes) saw_real_batch |= n > 1;
  EXPECT_TRUE(saw_real_batch);

  // The batch-size histogram saw every trigger, and its sum is the
  // number of admitted elements.
  const telemetry::Histogram::Snapshot sizes =
      registry.SumHistograms("gsn_pipeline_batch_size");
  EXPECT_EQ(sizes.count, static_cast<int64_t>(batch_sizes.size()));

  // Storage received the same elements (batched insert path).
  auto count = container.Query("select count(*) from room");
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->NumRows(), 1u);
  EXPECT_EQ(count->row(0)[0], Value::Int(static_cast<int64_t>(
                                  per_element.size())));
}

// -------------------------------------------------------- LRU cache

TEST(QueryCacheLru, BoundedWithEvictionMetric) {
  telemetry::MetricRegistry registry;
  storage::TableManager tables;
  WindowSpec retention;
  retention.kind = WindowSpec::Kind::kCount;
  retention.count = 10;
  auto table = tables.CreateTable("s", ElementSchema(), retention);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(Elem(1, 1, 1.0)).ok());

  QueryManager qm(&tables, &registry);
  EXPECT_EQ(qm.cache_capacity(), 256u);  // the documented default bound
  qm.set_cache_capacity(2);

  const std::string q1 = "select seq from s";
  const std::string q2 = "select value from s";
  const std::string q3 = "select count(*) from s";
  ASSERT_TRUE(qm.Execute(q1).ok());
  ASSERT_TRUE(qm.Execute(q2).ok());
  EXPECT_EQ(qm.cache_size(), 2u);
  EXPECT_EQ(registry.SumCounters("gsn_query_cache_evictions_total"), 0);

  // Third distinct query evicts the least recently used (q1).
  ASSERT_TRUE(qm.Execute(q3).ok());
  EXPECT_EQ(qm.cache_size(), 2u);
  EXPECT_EQ(registry.SumCounters("gsn_query_cache_evictions_total"), 1);

  // q3 is cached (hit); q1 was evicted (miss, evicting q2 in turn).
  const int64_t hits_before = qm.stats().cache_hits;
  ASSERT_TRUE(qm.Execute(q3).ok());
  EXPECT_EQ(qm.stats().cache_hits, hits_before + 1);
  const int64_t misses_before = qm.stats().cache_misses;
  ASSERT_TRUE(qm.Execute(q1).ok());
  EXPECT_EQ(qm.stats().cache_misses, misses_before + 1);
  EXPECT_EQ(registry.SumCounters("gsn_query_cache_evictions_total"), 2);

  // Shrinking evicts immediately; the survivor is the MRU entry (q1).
  qm.set_cache_capacity(1);
  EXPECT_EQ(qm.cache_size(), 1u);
  EXPECT_EQ(registry.SumCounters("gsn_query_cache_evictions_total"), 3);
  const int64_t hits_shrunk = qm.stats().cache_hits;
  ASSERT_TRUE(qm.Execute(q1).ok());
  EXPECT_EQ(qm.stats().cache_hits, hits_shrunk + 1);
}

}  // namespace
}  // namespace gsn::container
