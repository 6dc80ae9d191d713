// Incremental answers (sql/incremental.h, docs/PERFORMANCE.md): which
// statements compile to the incremental path, and continuous aggregates
// whose running folds must equal a full executor run after every batch,
// through every change a table's view goes through. The window-side
// differential sweep lives in window_property_test.cc.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gsn/container/container.h"
#include "gsn/sql/incremental.h"
#include "gsn/sql/parser.h"
#include "gsn/util/export.h"

namespace gsn {
namespace {

namespace fs = std::filesystem;
using sql::IncrementalPlan;

Schema Fields(const std::vector<std::pair<std::string, DataType>>& fields) {
  Schema schema;
  for (const auto& [name, type] : fields) schema.AddField(name, type);
  return schema;
}

std::optional<IncrementalPlan> Compile(const std::string& text,
                                       const std::string& relation,
                                       const Schema& row_schema) {
  auto stmt = sql::ParseSelect(text);
  EXPECT_TRUE(stmt.ok()) << text;
  if (!stmt.ok()) return std::nullopt;
  return sql::CompileIncremental(**stmt, relation, row_schema);
}

// The ingest workload's three statements (perfbench/src/main.cc) take
// the incremental path: the newest-row and aggregate window queries, and
// the continuous aggregate over a sensor's table.
TEST(IncrementalShapeTest, IngestWorkloadShapesCompile) {
  const Schema latest = Fields({{"seq", DataType::kInt},
                                {"value", DataType::kDouble},
                                {"payload", DataType::kBinary}})
                            .WithTimedField();
  const Schema windowed = Fields({{"seq", DataType::kInt},
                                  {"value", DataType::kDouble},
                                  {"n", DataType::kInt}})
                              .WithTimedField();
  auto newest = Compile("select * from wrapper order by timed desc limit 1",
                        "wrapper", latest);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->shape, IncrementalPlan::Shape::kNewestRow);
  EXPECT_TRUE(newest->projection.empty());
  EXPECT_EQ(newest->output_schema, latest);

  auto window_agg = Compile(
      "select max(timed) as timed, max(seq) as seq, avg(value) as value, "
      "count(*) as n from wrapper",
      "wrapper", windowed);
  ASSERT_TRUE(window_agg.has_value());
  EXPECT_EQ(window_agg->shape, IncrementalPlan::Shape::kAggregate);
  EXPECT_EQ(window_agg->output_schema.ToString(),
            Fields({{"timed", DataType::kTimestamp},
                    {"seq", DataType::kInt},
                    {"value", DataType::kDouble},
                    {"n", DataType::kInt}})
                .ToString());

  auto continuous = Compile(
      "select max(seq) as seq, count(*) as n, avg(value) as v from m00", "m00",
      latest);
  ASSERT_TRUE(continuous.has_value());
  EXPECT_EQ(continuous->shape, IncrementalPlan::Shape::kAggregate);
  ASSERT_EQ(continuous->aggregates.size(), 3u);
  EXPECT_TRUE(continuous->aggregates[1].count_star);
}

// Everything else keeps the executor — including statements whose names
// the executor would fail to resolve, so their errors do not change.
TEST(IncrementalShapeTest, OtherStatementsKeepTheExecutor) {
  const Schema row = Fields({{"seq", DataType::kInt},
                             {"value", DataType::kDouble},
                             {"site", DataType::kString}})
                         .WithTimedField();
  const std::vector<std::string> executor_only = {
      "select * from wrapper order by timed asc limit 1",
      "select * from wrapper order by timed desc limit 2",
      "select * from wrapper order by timed desc limit 1 offset 1",
      "select * from wrapper order by seq desc limit 1",
      "select * from wrapper order by 1 desc limit 1",
      "select seq as timed from wrapper order by timed desc limit 1",
      "select wrapper.* from wrapper order by timed desc limit 1",
      "select *, seq from wrapper order by timed desc limit 1",
      "select seq + 1 from wrapper order by timed desc limit 1",
      "select * from wrapper where seq > 3 order by timed desc limit 1",
      "select distinct seq from wrapper order by timed desc limit 1",
      "select nosuch from wrapper order by timed desc limit 1",
      "select count(*) from wrapper where seq > 3",
      "select count(*) from wrapper group by site",
      "select count(*) from wrapper having count(*) > 1",
      "select distinct count(*) from wrapper",
      "select count(*) from wrapper order by 1",
      "select count(*) from wrapper limit 1",
      "select count(distinct seq) from wrapper",
      "select stddev(value) from wrapper",
      "select avg(value + 1) from wrapper",
      "select avg(value) + 1 from wrapper",
      "select sum(*) from wrapper",
      "select seq, count(*) from wrapper",
      "select max(nosuch) from wrapper",
      "select max(other.seq) from wrapper",
      "select count(*) from other",
      "select count(*) from wrapper, other",
      "select count(*) from wrapper join other on wrapper.seq = other.seq",
      "select count(*) from (select * from wrapper) w",
      "select count(*) from wrapper union select count(*) from wrapper",
      "select (select max(seq) from wrapper) from wrapper",
  };
  for (const std::string& text : executor_only) {
    EXPECT_FALSE(Compile(text, "wrapper", row).has_value()) << text;
  }
  // Aliases, qualified names and case do not matter.
  EXPECT_TRUE(Compile("select SEQ as s, w.value from Wrapper w "
                      "order by w.timed desc limit 1",
                      "wrapper", row)
                  .has_value());
  EXPECT_TRUE(
      Compile("SELECT Count(*) AS n, MIN(wrapper.site) FROM WRAPPER", "wrapper",
              row)
          .has_value());
}

// --------------------------------------------------------------- Continuous

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("gsn_incremental_" + tag + "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A generator sensor (seq, value = sin(...)) storing `size` rows, with a
/// WAL and history capture when `permanent`.
std::string Sensor(const std::string& name, bool permanent,
                   const std::string& size) {
  return "<virtual-sensor name=\"" + name +
         "\"><output-structure>"
         "<field name=\"seq\" type=\"integer\"/>"
         "<field name=\"value\" type=\"double\"/>"
         "</output-structure>"
         "<storage permanent-storage=\"" +
         (permanent ? "true" : "false") + "\" size=\"" + size +
         "\"/>"
         "<input-stream name=\"in\"><stream-source alias=\"src\" "
         "storage-size=\"2\"><address wrapper=\"generator\">"
         "<predicate key=\"interval-ms\" val=\"100\"/>"
         "<predicate key=\"payload-bytes\" val=\"0\"/>"
         "<predicate key=\"value-period\" val=\"7\"/></address>"
         "<query>select * from wrapper order by timed desc limit 1</query>"
         "</stream-source><query>select seq, value from src</query>"
         "</input-stream></virtual-sensor>";
}

container::Container::Options Options(const std::string& dir,
                                      std::shared_ptr<Clock> clock) {
  container::Container::Options options;
  options.node_id = "n";
  options.clock = std::move(clock);
  options.seed = 5;
  options.data_dir = dir;
  options.supervision.checkpoint_interval = 0;  // checkpoints by hand
  options.columnar.rows_per_chunk = 4;
  return options;
}

const char* const kAggregate =
    "select count(*) as n, count(value), sum(seq), avg(value), min(value), "
    "max(seq), max(timed), sum(value) from ";

/// Registers the aggregate over `table`; every run is compared with the
/// executor over the same container, at the moment the run answers.
struct Differential {
  Differential(container::Container* c, const std::string& table)
      : container(c), sql(kAggregate + table) {
    auto id = c->query_manager().RegisterContinuous(
        sql, [this](const std::string&, const Relation& got) {
          ++runs;
          sql::Executor exec(&container->catalog_resolver());
          Result<Relation> want = exec.Query(sql);
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          EXPECT_EQ(got.schema(), want->schema());
          ASSERT_EQ(got.NumRows(), 1u);
          ASSERT_EQ(want->NumRows(), 1u);
          for (size_t c = 0; c < want->row(0).size(); ++c) {
            const Value& a = got.row(0)[c];
            const Value& b = want->row(0)[c];
            ASSERT_EQ(a.is_null(), b.is_null()) << sql << " col " << c;
            if (a.is_double() && b.is_double()) {
              const double x = a.double_value();
              const double y = b.double_value();
              EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0)
                  << sql << " col " << c << ": " << x << " vs " << y;
            } else {
              EXPECT_EQ(a, b) << sql << " col " << c;
              if (!a.is_null()) {
                EXPECT_EQ(*a.type(), *b.type());
              }
            }
          }
          last_count = got.row(0)[0].int_value();
        });
    EXPECT_TRUE(id.ok());
  }

  container::Container* container;
  std::string sql;
  int runs = 0;
  int64_t last_count = -1;
};

void Tick(container::Container* c, const std::shared_ptr<VirtualClock>& clock,
          int ticks) {
  for (int i = 0; i < ticks; ++i) {
    clock->Advance(100 * kMicrosPerMilli);
    ASSERT_TRUE(c->Tick().ok());
  }
}

TEST(IncrementalContinuousTest, RunsEqualTheExecutorThroughViewChanges) {
  TempDir dir("views");
  auto clock = std::make_shared<VirtualClock>();
  int64_t hist_runs = 0;
  {
    container::Container c(Options(dir.path(), clock));
    // "hist": permanent, 5-row retention, evicted rows captured for
    // segments. "volatile": 5-row retention, evictions leave the view.
    ASSERT_TRUE(c.Deploy(Sensor("hist", true, "5")).ok());
    ASSERT_TRUE(c.Deploy(Sensor("volatile", false, "5")).ok());
    Differential hist(&c, "hist");
    Differential vol(&c, "volatile");

    Tick(&c, clock, 20);  // appends; retention with and without capture
    EXPECT_EQ(hist.last_count, 19);
    EXPECT_EQ(vol.last_count, 5);
    ASSERT_TRUE(c.Checkpoint().ok());  // pending rows flush to a segment
    Tick(&c, clock, 10);
    ASSERT_TRUE(c.Checkpoint().ok());
    Tick(&c, clock, 3);
    EXPECT_EQ(hist.last_count, 32);

    // Rows appended by someone else: the next batch is not all the
    // view gained.
    auto table = c.table_manager().GetTableHandle("hist");
    ASSERT_TRUE(table.ok());
    StreamElement foreign;
    foreign.timed = clock->NowMicros();
    foreign.values = {Value::Int(1000), Value::Double(0.25)};
    ASSERT_TRUE((*table)->Insert(foreign).ok());
    Tick(&c, clock, 3);
    EXPECT_EQ(hist.last_count, 36);

    // A small pending bound: overflow drops rows out of the view.
    (*table)->EnableHistoryCapture(3);
    Tick(&c, clock, 10);
    // Clear empties live and pending; the segments stay.
    (*table)->Clear();
    Tick(&c, clock, 4);
    ASSERT_TRUE(c.Checkpoint().ok());
    Tick(&c, clock, 4);

    // Undeploy then redeploy: a new table with an empty view.
    ASSERT_TRUE(c.Undeploy("hist").ok());
    ASSERT_TRUE(c.Deploy(Sensor("hist", true, "5")).ok());
    Tick(&c, clock, 8);
    EXPECT_EQ(hist.last_count, 7);
    ASSERT_TRUE(c.Checkpoint().ok());
    Tick(&c, clock, 3);
    hist_runs = hist.runs;
    EXPECT_GE(hist.runs, 55);
    EXPECT_GE(vol.runs, 55);
    ASSERT_TRUE(c.Shutdown().ok());
  }
  // A restart over the same data dir: recovered segments, replayed WAL.
  container::Container c(Options(dir.path(), clock));
  Differential hist(&c, "hist");
  Tick(&c, clock, 6);
  EXPECT_GE(hist.runs, 5);
  EXPECT_GT(hist.last_count, 10);
  EXPECT_GT(hist_runs, 0);
}

TEST(IncrementalContinuousTest, BatchesUnderHistoryCaptureCostOneReseed) {
  TempDir dir("reseed");
  auto clock = std::make_shared<VirtualClock>();
  container::Container c(Options(dir.path(), clock));
  ASSERT_TRUE(c.Deploy(Sensor("s", true, "5")).ok());
  Differential diff(&c, "s");
  const int64_t reseeds = c.query_manager().stats().continuous_reseeds;
  Tick(&c, clock, 30);
  ASSERT_TRUE(c.Checkpoint().ok());  // rows change tier, the view does not
  Tick(&c, clock, 30);
  EXPECT_EQ(diff.runs, 59);
  EXPECT_EQ(diff.last_count, 59);
  EXPECT_EQ(c.query_manager().stats().continuous_reseeds - reseeds, 1);
}

}  // namespace
}  // namespace gsn
