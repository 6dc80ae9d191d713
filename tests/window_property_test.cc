// Property tests for window semantics (paper §3 item 4): the
// WindowBuffer must agree with a naive reference model for every
// combination of window kind, window size, and arrival pattern.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <tuple>

#include "gsn/sql/executor.h"
#include "gsn/sql/incremental.h"
#include "gsn/sql/parser.h"
#include "gsn/storage/table.h"
#include "gsn/storage/window_buffer.h"
#include "gsn/util/rng.h"

namespace gsn::storage {
namespace {

struct WindowCase {
  WindowSpec::Kind kind;
  int64_t size;        // count, or seconds for time windows
  int64_t max_gap_ms;  // arrival spacing upper bound
  uint64_t seed;
};

class WindowPropertyTest : public ::testing::TestWithParam<WindowCase> {};

StreamElement Elem(Timestamp t, int64_t v) {
  StreamElement e;
  e.timed = t;
  e.values = {Value::Int(v)};
  return e;
}

/// Reference model: keep everything, filter on demand.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(WindowSpec spec) : spec_(spec) {}

  void Add(StreamElement e) { all_.push_back(std::move(e)); }

  std::vector<StreamElement> Snapshot(Timestamp now) const {
    std::vector<StreamElement> out;
    if (spec_.kind == WindowSpec::Kind::kCount) {
      const size_t start =
          all_.size() > static_cast<size_t>(spec_.count)
              ? all_.size() - static_cast<size_t>(spec_.count)
              : 0;
      out.assign(all_.begin() + static_cast<long>(start), all_.end());
      return out;
    }
    for (const StreamElement& e : all_) {
      if (e.timed > now - spec_.duration_micros) out.push_back(e);
    }
    return out;
  }

 private:
  WindowSpec spec_;
  std::vector<StreamElement> all_;
};

TEST_P(WindowPropertyTest, AgreesWithReferenceModel) {
  const WindowCase& c = GetParam();
  WindowSpec spec;
  spec.kind = c.kind;
  if (c.kind == WindowSpec::Kind::kCount) {
    spec.count = c.size;
  } else {
    spec.duration_micros = c.size * kMicrosPerSecond;
  }

  WindowBuffer buffer(spec);
  ReferenceWindow reference(spec);
  Rng rng(c.seed);

  Timestamp t = 0;
  for (int i = 0; i < 500; ++i) {
    t += rng.NextInt(1, c.max_gap_ms) * kMicrosPerMilli;
    buffer.Add(Elem(t, i));
    reference.Add(Elem(t, i));

    // Probe at a random time at or after the last arrival.
    const Timestamp probe = t + rng.NextInt(0, c.max_gap_ms) * kMicrosPerMilli;
    const auto actual = buffer.Snapshot(probe);
    const auto expected = reference.Snapshot(probe);
    ASSERT_EQ(actual.size(), expected.size())
        << "i=" << i << " t=" << t << " probe=" << probe;
    for (size_t k = 0; k < actual.size(); ++k) {
      EXPECT_EQ(actual[k].timed, expected[k].timed);
      EXPECT_EQ(actual[k].values[0], expected[k].values[0]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowPropertyTest,
    ::testing::Values(
        // Count windows of several sizes and arrival cadences.
        WindowCase{WindowSpec::Kind::kCount, 1, 100, 1},
        WindowCase{WindowSpec::Kind::kCount, 7, 100, 2},
        WindowCase{WindowSpec::Kind::kCount, 64, 10, 3},
        WindowCase{WindowSpec::Kind::kCount, 1000, 500, 4},
        // Time windows: slow and bursty arrivals, short and long spans.
        WindowCase{WindowSpec::Kind::kTime, 1, 100, 5},
        WindowCase{WindowSpec::Kind::kTime, 5, 2000, 6},
        WindowCase{WindowSpec::Kind::kTime, 60, 500, 7},
        WindowCase{WindowSpec::Kind::kTime, 600, 10000, 8}),
    [](const ::testing::TestParamInfo<WindowCase>& info) {
      const WindowCase& c = info.param;
      return std::string(c.kind == WindowSpec::Kind::kCount ? "count"
                                                            : "time") +
             std::to_string(c.size) + "_gap" + std::to_string(c.max_gap_ms) +
             "ms";
    });

// ---------------------------------------------------------------------------
// Incremental answers (sql/incremental.h): WindowBuffer::Answer must equal
// the Executor over SnapshotRelation(now) — schema, value types and bits —
// over the same sweep, with duplicate and out-of-order timestamps, NULLs,
// int/double/mixed columns, empty windows and probes that go backwards.

class IncrementalWindowTest : public ::testing::TestWithParam<WindowCase> {};

Schema MixedSchema() {
  Schema schema;
  schema.AddField("i", DataType::kInt);
  schema.AddField("d", DataType::kDouble);
  schema.AddField("m", DataType::kDouble);  // holds ints, doubles, bools
  schema.AddField("s", DataType::kString);
  return schema;
}

/// Element `n` at `t`: every column NULL about one time in six.
StreamElement MixedElem(Rng* rng, Timestamp t, int64_t n) {
  const auto maybe_null = [rng](Value v) {
    return rng->NextInt(0, 5) == 0 ? Value::Null() : v;
  };
  Value mixed;
  switch (rng->NextInt(0, 2)) {
    case 0:
      mixed = Value::Int(rng->NextInt(-50, 50));
      break;
    case 1:
      mixed = Value::Double(rng->NextDouble() * 100.0 - 50.0);
      break;
    default:
      mixed = Value::Bool(rng->NextInt(0, 1) == 1);
  }
  std::string site = "s";
  site += std::to_string(n % 17);
  StreamElement e;
  e.timed = t;
  e.values = {maybe_null(Value::Int(rng->NextInt(-1000, 1000))),
              maybe_null(Value::Double(rng->NextDouble() * 1e3 + 0.1 * n)),
              maybe_null(mixed), maybe_null(Value::String(std::move(site)))};
  return e;
}

void ExpectSameBits(const Value& actual, const Value& expected) {
  ASSERT_EQ(actual.is_null(), expected.is_null());
  if (expected.is_null()) return;
  ASSERT_EQ(*actual.type(), *expected.type());
  if (expected.is_double()) {
    const double a = actual.double_value();
    const double b = expected.double_value();
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << a << " vs " << b;
  } else {
    EXPECT_EQ(actual, expected);
  }
}

/// Answer(plan) against the executor for every statement at `probe`.
void ExpectAnswersMatch(const WindowBuffer& buffer,
                        const std::vector<std::string>& queries,
                        const std::vector<sql::IncrementalPlan>& plans,
                        Timestamp probe) {
  sql::MapResolver resolver;
  resolver.Put("wrapper", buffer.SnapshotRelation(probe, MixedSchema()));
  const sql::Executor exec(&resolver);
  for (size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE(queries[q]);
    Result<Relation> expected = exec.Query(queries[q]);
    Result<Relation> actual = buffer.Answer(plans[q], probe);
    ASSERT_EQ(actual.ok(), expected.ok());
    if (!expected.ok()) {
      EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
      continue;
    }
    EXPECT_EQ(actual->schema(), expected->schema());
    ASSERT_EQ(actual->NumRows(), expected->NumRows());
    for (size_t r = 0; r < expected->NumRows(); ++r) {
      ASSERT_EQ(actual->row(r).size(), expected->row(r).size());
      for (size_t c = 0; c < expected->row(r).size(); ++c) {
        SCOPED_TRACE(::testing::Message() << "column " << c);
        ExpectSameBits(actual->row(r)[c], expected->row(r)[c]);
      }
    }
  }
}

TEST_P(IncrementalWindowTest, AnswersEqualTheExecutor) {
  const WindowCase& c = GetParam();
  WindowSpec spec;
  spec.kind = c.kind;
  if (c.kind == WindowSpec::Kind::kCount) {
    spec.count = c.size;
  } else {
    spec.duration_micros = c.size * kMicrosPerSecond;
  }
  const std::vector<std::string> queries = {
      "select * from wrapper order by timed desc limit 1",
      "select s, i from wrapper order by timed desc limit 1",
      "select d as dd, timed from wrapper w order by w.timed desc limit 1",
      "select count(*), count(i), sum(i), avg(i), min(i), max(i) from wrapper",
      "select sum(d) as sd, avg(d), min(d), max(d), count(d) from wrapper",
      "select sum(m), avg(m), min(m), max(m), count(m) from WRAPPER",
      "select max(timed) as timed, min(s), max(s), count(s) from wrapper",
      "select sum(s) from wrapper",  // an error on both paths once non-empty
  };
  const Schema row_schema = MixedSchema().WithTimedField();
  std::vector<sql::IncrementalPlan> plans;
  for (const std::string& q : queries) {
    auto stmt = sql::ParseSelect(q);
    ASSERT_TRUE(stmt.ok()) << q;
    auto plan = sql::CompileIncremental(**stmt, "wrapper", row_schema);
    ASSERT_TRUE(plan.has_value()) << q;
    plans.push_back(*std::move(plan));
  }

  WindowBuffer buffer(spec);
  Rng rng(c.seed * 7919);
  // An empty window answers too: no row, or the empty-group aggregates.
  ExpectAnswersMatch(buffer, queries, plans, 0);
  Timestamp t = 0;
  Timestamp probe = 0;
  for (int i = 0; i < 300; ++i) {
    // Mostly in order; some duplicate timestamps, some arrive late.
    const int64_t pick = rng.NextInt(0, 9);
    if (pick < 2) {
      // duplicate of the newest timestamp
    } else if (pick < 4) {
      t -= rng.NextInt(0, c.max_gap_ms * 3) * kMicrosPerMilli;
    } else {
      t += rng.NextInt(1, c.max_gap_ms) * kMicrosPerMilli;
    }
    buffer.Add(MixedElem(&rng, t, i));
    // Probes move forward, jump back, or land past every entry.
    switch (rng.NextInt(0, 3)) {
      case 0:
        probe = t + rng.NextInt(0, c.max_gap_ms) * kMicrosPerMilli;
        break;
      case 1:
        probe -= rng.NextInt(0, c.max_gap_ms * 4) * kMicrosPerMilli;
        break;
      case 2:
        probe = t + (c.size + 1) * kMicrosPerSecond;  // empty time window
        break;
      default:
        probe = t;
    }
    SCOPED_TRACE(::testing::Message() << "i=" << i << " probe=" << probe);
    ExpectAnswersMatch(buffer, queries, plans, probe);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalWindowTest,
    ::testing::Values(WindowCase{WindowSpec::Kind::kCount, 1, 100, 21},
                      WindowCase{WindowSpec::Kind::kCount, 7, 100, 22},
                      WindowCase{WindowSpec::Kind::kCount, 64, 10, 23},
                      WindowCase{WindowSpec::Kind::kTime, 1, 100, 24},
                      WindowCase{WindowSpec::Kind::kTime, 5, 2000, 25},
                      WindowCase{WindowSpec::Kind::kTime, 60, 500, 26}),
    [](const ::testing::TestParamInfo<WindowCase>& info) {
      const WindowCase& c = info.param;
      return std::string(c.kind == WindowSpec::Kind::kCount ? "count"
                                                            : "time") +
             std::to_string(c.size) + "_gap" + std::to_string(c.max_gap_ms) +
             "ms";
    });

/// Table retention must match WindowBuffer semantics for the same spec
/// (they implement the same `<storage size>` contract).
class TableRetentionPropertyTest
    : public ::testing::TestWithParam<WindowCase> {};

TEST_P(TableRetentionPropertyTest, TableMatchesWindowBuffer) {
  const WindowCase& c = GetParam();
  WindowSpec spec;
  spec.kind = c.kind;
  if (c.kind == WindowSpec::Kind::kCount) {
    spec.count = c.size;
  } else {
    spec.duration_micros = c.size * kMicrosPerSecond;
  }
  Schema schema;
  schema.AddField("v", DataType::kInt);
  Table table("t", schema, spec);
  WindowBuffer buffer(spec);
  Rng rng(c.seed * 31);

  Timestamp t = 0;
  for (int i = 0; i < 300; ++i) {
    t += rng.NextInt(1, c.max_gap_ms) * kMicrosPerMilli;
    ASSERT_TRUE(table.Insert(Elem(t, i)).ok());
    buffer.Add(Elem(t, i));
    // Eager-eviction comparison: both structures evicted up to `t`.
    ASSERT_EQ(table.NumRows(), buffer.size()) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TableRetentionPropertyTest,
    ::testing::Values(WindowCase{WindowSpec::Kind::kCount, 5, 100, 11},
                      WindowCase{WindowSpec::Kind::kCount, 128, 50, 12},
                      WindowCase{WindowSpec::Kind::kTime, 2, 300, 13},
                      WindowCase{WindowSpec::Kind::kTime, 30, 5000, 14}),
    [](const ::testing::TestParamInfo<WindowCase>& info) {
      const WindowCase& c = info.param;
      return std::string(c.kind == WindowSpec::Kind::kCount ? "count"
                                                            : "time") +
             std::to_string(c.size) + "_s" + std::to_string(c.seed);
    });

}  // namespace
}  // namespace gsn::storage
