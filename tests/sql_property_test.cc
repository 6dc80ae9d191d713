// Property tests for the SQL engine: algebraic invariants that must
// hold on randomly generated relations, differential tests of the
// executor's fast paths (bounded top-k, streaming aggregates, slot-bound
// columns) against test-local slow paths, and differential tests of
// the optimizer against the executor: folded expressions, and whole
// statements run optimized and as written.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include "gsn/container/query_manager.h"
#include "gsn/sql/executor.h"
#include "gsn/sql/optimizer.h"
#include "gsn/sql/parser.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/rng.h"

namespace gsn::sql {
namespace {

/// Random table: t(a int, b int, c double, s string) with NULLs mixed in.
Relation RandomRelation(uint64_t seed, size_t rows) {
  Rng rng(seed);
  Schema schema;
  schema.AddField("a", DataType::kInt);
  schema.AddField("b", DataType::kInt);
  schema.AddField("c", DataType::kDouble);
  schema.AddField("s", DataType::kString);
  Relation rel(schema);
  static const char* kStrings[] = {"mica2", "mica2dot", "tinynode", "axis"};
  for (size_t i = 0; i < rows; ++i) {
    auto maybe_null = [&](Value v) {
      return rng.NextBool(0.1) ? Value::Null() : v;
    };
    EXPECT_TRUE(
        rel.AddRow({maybe_null(Value::Int(rng.NextInt(-20, 20))),
                    maybe_null(Value::Int(rng.NextInt(0, 5))),
                    maybe_null(Value::Double(rng.NextDouble(-1, 1))),
                    maybe_null(Value::String(
                        kStrings[rng.NextUint64(4)]))})
            .ok());
  }
  return rel;
}

class SqlPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SqlPropertyTest() {
    resolver_.Put("t", RandomRelation(GetParam(), 60));
    resolver_.Put("u", RandomRelation(GetParam() + 1000, 25));
  }

  Relation Q(const std::string& sql) {
    Executor exec(&resolver_);
    Result<Relation> r = exec.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *std::move(r) : Relation();
  }

  MapResolver resolver_;
};

TEST_P(SqlPropertyTest, FilterPartitionsWithNulls) {
  // 3VL: p, NOT p, and p IS NULL partition the rows.
  const size_t total = Q("select * from t").NumRows();
  const size_t pos = Q("select * from t where a > 0").NumRows();
  const size_t neg = Q("select * from t where not (a > 0)").NumRows();
  const size_t unknown = Q("select * from t where (a > 0) is null").NumRows();
  EXPECT_EQ(pos + neg + unknown, total);
}

TEST_P(SqlPropertyTest, ConjunctionShrinks) {
  const size_t p = Q("select * from t where a > 0").NumRows();
  const size_t pq = Q("select * from t where a > 0 and b < 3").NumRows();
  const size_t p_or_q = Q("select * from t where a > 0 or b < 3").NumRows();
  EXPECT_LE(pq, p);
  EXPECT_GE(p_or_q, p);
}

TEST_P(SqlPropertyTest, OrderByProducesSortedPrefixUnderLimit) {
  Relation sorted = Q("select a from t where a is not null order by a");
  for (size_t i = 1; i < sorted.NumRows(); ++i) {
    EXPECT_LE(sorted.rows()[i - 1][0].Compare(sorted.rows()[i][0]), 0);
  }
  Relation limited =
      Q("select a from t where a is not null order by a limit 5");
  ASSERT_LE(limited.NumRows(), 5u);
  for (size_t i = 0; i < limited.NumRows(); ++i) {
    EXPECT_EQ(limited.rows()[i][0], sorted.rows()[i][0]);
  }
}

TEST_P(SqlPropertyTest, DistinctHasNoDuplicatesAndCoversAll) {
  Relation all = Q("select b from t");
  Relation distinct = Q("select distinct b from t");
  std::set<std::string> seen;
  for (const auto& row : distinct.rows()) {
    EXPECT_TRUE(seen.insert(row[0].ToString()).second)
        << "duplicate " << row[0].ToString();
  }
  std::set<std::string> original;
  for (const auto& row : all.rows()) original.insert(row[0].ToString());
  EXPECT_EQ(seen, original);
}

TEST_P(SqlPropertyTest, SetOperationAlgebra) {
  const size_t t_rows = Q("select b from t").NumRows();
  const size_t u_rows = Q("select b from u").NumRows();
  EXPECT_EQ(Q("select b from t union all select b from u").NumRows(),
            t_rows + u_rows);

  const size_t union_rows =
      Q("select b from t union select b from u").NumRows();
  const size_t distinct_t = Q("select distinct b from t").NumRows();
  EXPECT_GE(union_rows, distinct_t);
  EXPECT_LE(union_rows,
            distinct_t + Q("select distinct b from u").NumRows());

  // INTERSECT union EXCEPT reconstructs distinct t.
  const size_t inter =
      Q("select b from t intersect select b from u").NumRows();
  const size_t except = Q("select b from t except select b from u").NumRows();
  EXPECT_EQ(inter + except, distinct_t);
}

TEST_P(SqlPropertyTest, GroupCountsSumToFilteredTotal) {
  Relation groups = Q("select b, count(*) as n from t group by b");
  int64_t sum = 0;
  for (const auto& row : groups.rows()) {
    sum += row[1].int_value();
  }
  EXPECT_EQ(sum, static_cast<int64_t>(Q("select * from t").NumRows()));
}

TEST_P(SqlPropertyTest, AggregateBounds) {
  Relation r = Q(
      "select min(a), avg(a), max(a), count(a) from t where a is not null");
  ASSERT_EQ(r.NumRows(), 1u);
  if (r.rows()[0][3].int_value() == 0) return;  // all NULL this seed
  const double min = static_cast<double>(r.rows()[0][0].int_value());
  const double avg = r.rows()[0][1].double_value();
  const double max = static_cast<double>(r.rows()[0][2].int_value());
  EXPECT_LE(min, avg);
  EXPECT_LE(avg, max);
}

TEST_P(SqlPropertyTest, JoinCardinalityBounds) {
  const size_t t_rows = Q("select * from t").NumRows();
  const size_t u_rows = Q("select * from u").NumRows();
  const size_t cross = Q("select * from t cross join u").NumRows();
  EXPECT_EQ(cross, t_rows * u_rows);
  const size_t inner =
      Q("select * from t join u on t.b = u.b").NumRows();
  EXPECT_LE(inner, cross);
  // LEFT JOIN preserves every left row at least once.
  const size_t left =
      Q("select * from t left join u on t.b = u.b").NumRows();
  EXPECT_GE(left, t_rows);
  EXPECT_GE(left, inner);
}

TEST_P(SqlPropertyTest, SubqueryEquivalence) {
  // IN (subquery) must agree with the join-based formulation on
  // non-NULL keys.
  const size_t via_in = Q(
      "select * from t where b is not null and b in "
      "(select b from u where b is not null)")
                            .NumRows();
  const size_t via_exists = Q(
      "select * from t where b is not null and exists "
      "(select 1 from u where u.b = t.b)")
                                .NumRows();
  EXPECT_EQ(via_in, via_exists);
}

TEST_P(SqlPropertyTest, OffsetPagination) {
  const Relation all = Q("select a from t order by a, s");
  size_t paged = 0;
  for (int64_t offset = 0;; offset += 7) {
    Relation page = Q("select a from t order by a, s limit 7 offset " +
                      std::to_string(offset));
    paged += page.NumRows();
    if (page.NumRows() < 7) break;
  }
  EXPECT_EQ(paged, all.NumRows());
}

// ------------------------------------------------- executor differentials

/// Same type and value; doubles compare bit for bit.
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (*a.type() != *b.type()) return false;
  if (a.is_double()) {
    const double x = a.double_value();
    const double y = b.double_value();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a.Compare(b) == 0;
}

/// Row-for-row, column-for-column SameValue over two relations.
::testing::AssertionResult SameRows(const Relation& got,
                                    const Relation& want) {
  if (got.NumRows() != want.NumRows()) {
    return ::testing::AssertionFailure()
           << got.NumRows() << " rows, want " << want.NumRows();
  }
  for (size_t i = 0; i < got.NumRows(); ++i) {
    if (got.row(i).size() != want.row(i).size()) {
      return ::testing::AssertionFailure() << "row " << i << " arity";
    }
    for (size_t c = 0; c < got.row(i).size(); ++c) {
      if (!SameValue(got.row(i)[c], want.row(i)[c])) {
        return ::testing::AssertionFailure()
               << "row " << i << " col " << c << ": "
               << got.row(i)[c].ToString() << " vs "
               << want.row(i)[c].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_P(SqlPropertyTest, TopKMatchesStableSortSlice) {
  const Relation t = RandomRelation(GetParam(), 60);
  const int64_t n = static_cast<int64_t>(t.NumRows());
  static const char* kColumns[] = {"a", "b", "c", "s"};
  Rng rng(GetParam() * 7919);
  for (int round = 0; round < 6; ++round) {
    // The first key is b or s (a handful of values plus NULL), so ties
    // are common and must keep input order.
    std::vector<std::pair<size_t, bool>> keys = {
        {rng.NextBool(0.5) ? 1u : 3u, rng.NextBool(0.5)}};
    if (rng.NextBool(0.5)) {
      keys.push_back({static_cast<size_t>(rng.NextUint64(4)),
                      rng.NextBool(0.5)});
    }
    std::string order_sql;
    for (const auto& [col, asc] : keys) {
      if (!order_sql.empty()) order_sql += ", ";
      order_sql += std::string(kColumns[col]) + (asc ? " asc" : " desc");
    }
    std::vector<size_t> sorted(t.NumRows());
    std::iota(sorted.begin(), sorted.end(), 0);
    std::stable_sort(sorted.begin(), sorted.end(), [&](size_t x, size_t y) {
      for (const auto& [col, asc] : keys) {
        const int c = t.row(x)[col].Compare(t.row(y)[col]);
        if (c != 0) return asc ? c < 0 : c > 0;
      }
      return false;
    });
    for (int64_t limit : {int64_t{0}, int64_t{1}, int64_t{5}, n - 1, n,
                          n + 10, std::numeric_limits<int64_t>::max()}) {
      for (int64_t offset : {int64_t{0}, int64_t{1}, int64_t{7}, n - 1, n,
                             n + 5}) {
        const std::string sql = "select * from t order by " + order_sql +
                                " limit " + std::to_string(limit) +
                                " offset " + std::to_string(offset);
        const int64_t begin = std::min(offset, n);
        const int64_t end = begin + std::min(limit, n - begin);
        Relation want(t.schema());
        for (int64_t i = begin; i < end; ++i) {
          want.AppendSharedRow(t.shared_row(sorted[static_cast<size_t>(i)]));
        }
        EXPECT_TRUE(SameRows(Q(sql), want)) << sql;
      }
    }
  }
}

/// COUNT/SUM/AVG/MIN/MAX over `values` (NULLs included) folded in input
/// order after gathering the non-NULL ones, the way the executor
/// computed them before it streamed.
Value GatheredAggregate(const std::string& fn,
                        const std::vector<Value>& values) {
  std::vector<Value> present;
  for (const Value& v : values) {
    if (!v.is_null()) present.push_back(v);
  }
  if (fn == "count") return Value::Int(static_cast<int64_t>(present.size()));
  if (present.empty()) return Value::Null();
  if (fn == "min" || fn == "max") {
    Value best = present[0];
    for (size_t i = 1; i < present.size(); ++i) {
      const int c = present[i].Compare(best);
      if (fn == "min" ? c < 0 : c > 0) best = present[i];
    }
    return best;
  }
  const bool all_int = std::all_of(present.begin(), present.end(),
                                   [](const Value& v) {
                                     return v.is_int() || v.is_bool();
                                   });
  if (fn == "sum" && all_int) {
    int64_t sum = 0;
    for (const Value& v : present) sum += *v.AsInt();
    return Value::Int(sum);
  }
  double sum = 0;
  for (const Value& v : present) sum += *v.AsDouble();
  if (fn == "sum") return Value::Double(sum);
  return Value::Double(sum / static_cast<double>(present.size()));
}

TEST_P(SqlPropertyTest, StreamingAggregatesMatchGatheredFold) {
  const Relation t = RandomRelation(GetParam(), 60);
  static const char* kFns[] = {"count", "sum", "avg", "min", "max"};
  // Argument expressions with their per-row reference value: an int
  // column, a double column, and a mix of both (an int SUM that turns
  // double part way through).
  struct Arg {
    const char* sql;
    Value (*eval)(const Relation::Row& row);
  };
  const Arg kArgs[] = {
      {"a", [](const Relation::Row& r) { return r[0]; }},
      {"c", [](const Relation::Row& r) { return r[2]; }},
      {"case when b > 2 then a else c end",
       [](const Relation::Row& r) {
         const bool hit = !r[1].is_null() && r[1].int_value() > 2;
         return hit ? r[0] : r[2];
       }},
  };
  // Filters: all rows, no rows, and the rows where a is NULL (so every
  // aggregate over a sees only NULLs).
  struct Filter {
    const char* sql;
    bool (*keep)(const Relation::Row& row);
  };
  const Filter kFilters[] = {
      {"", [](const Relation::Row&) { return true; }},
      {" where a > 1000", [](const Relation::Row&) { return false; }},
      {" where a is null",
       [](const Relation::Row& r) { return r[0].is_null(); }},
  };
  struct KeyLess {
    bool operator()(const Value& x, const Value& y) const {
      return x.Compare(y) < 0;
    }
  };
  for (const Arg& arg : kArgs) {
    for (const Filter& filter : kFilters) {
      std::string items;
      for (const char* fn : kFns) {
        items += std::string(", ") + fn + "(" + arg.sql + ")";
      }
      // Without GROUP BY: one row, even over no input.
      std::vector<Value> all;
      std::map<Value, std::vector<Value>, KeyLess> groups;
      for (const auto& row : t.rows()) {
        if (!filter.keep(row)) continue;
        all.push_back(arg.eval(row));
        groups[row[1]].push_back(arg.eval(row));
      }
      const std::string flat_sql =
          "select " + items.substr(2) + " from t" + filter.sql;
      Relation flat_want(Q(flat_sql).schema());
      Relation::Row flat_row;
      for (const char* fn : kFns) {
        flat_row.push_back(GatheredAggregate(fn, all));
      }
      flat_want.AppendRow(flat_row);
      EXPECT_TRUE(SameRows(Q(flat_sql), flat_want)) << flat_sql;

      // GROUP BY b: one row per key (NULL first), none over no input.
      const std::string grouped_sql =
          "select b" + items + " from t" + filter.sql + " group by b";
      Relation grouped_want(Q(grouped_sql).schema());
      for (const auto& [key, values] : groups) {
        Relation::Row row = {key};
        for (const char* fn : kFns) {
          row.push_back(GatheredAggregate(fn, values));
        }
        grouped_want.AppendRow(row);
      }
      EXPECT_TRUE(SameRows(Q(grouped_sql), grouped_want)) << grouped_sql;
    }
  }
}

TEST_P(SqlPropertyTest, CorrelatedSubqueryResolvesInnermostScopeFirst) {
  const Relation t = RandomRelation(GetParam(), 60);
  const Relation u = RandomRelation(GetParam() + 1000, 25);
  auto eq = [](const Value& x, const Value& y) {
    return !x.is_null() && !y.is_null() && x.Compare(y) == 0;
  };
  // Unqualified `a` inside the subquery is u.a: the inner scope shadows
  // the outer t.a, which stays reachable qualified.
  Relation shadowed = Q(
      "select a, (select count(*) from u where u.b = t.b and a > t.a) as n "
      "from t");
  // `s` is not a column of the derived table v, so it falls through to
  // the outer row's t.s.
  Relation through = Q(
      "select (select count(*) from (select b as k from u) v "
      "where v.k = t.b and s = 'axis') as n from t");
  ASSERT_EQ(shadowed.NumRows(), t.NumRows());
  ASSERT_EQ(through.NumRows(), t.NumRows());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    const Relation::Row& outer = t.row(i);
    int64_t want_shadowed = 0;
    int64_t want_through = 0;
    for (const auto& inner : u.rows()) {
      if (!eq(inner[1], outer[1])) continue;
      if (!inner[0].is_null() && !outer[0].is_null() &&
          inner[0].Compare(outer[0]) > 0) {
        ++want_shadowed;
      }
      if (eq(outer[3], Value::String("axis"))) ++want_through;
    }
    EXPECT_TRUE(SameValue(shadowed.row(i)[0], outer[0])) << i;
    EXPECT_EQ(shadowed.row(i)[1], Value::Int(want_shadowed)) << i;
    EXPECT_EQ(through.row(i)[0], Value::Int(want_through)) << i;
  }
}

TEST_P(SqlPropertyTest, AmbiguousColumnFailsOnEveryReExecution) {
  // b is a column of both t and u. Each shape hits it in a different
  // operator: projection, WHERE, an aggregate argument, an ORDER BY key.
  for (const char* sql :
       {"select b from t, u", "select t.a from t, u where b > 0",
        "select sum(b) from t, u", "select t.a from t, u order by b limit 3"}) {
    Result<std::unique_ptr<SelectStmt>> stmt = ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    Executor exec(&resolver_);
    container::QueryManager qm(&resolver_);
    for (int run = 0; run < 3; ++run) {
      for (const Result<Relation>& r :
           {exec.Execute(**stmt), qm.Execute(sql)}) {
        ASSERT_FALSE(r.ok()) << sql << " run " << run;
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
        EXPECT_NE(r.status().message().find("ambiguous column: b"),
                  std::string::npos)
            << r.status().ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// Four threads run one cached statement through a QueryManager. The
// resolution state must live in each execution, not in the shared AST:
// every result equals the single-threaded one (and TSan sees no race).
TEST(QueryManagerConcurrencyTest, SharedStatementMatchesSingleThreaded) {
  MapResolver resolver;
  resolver.Put("t", RandomRelation(11, 200));
  resolver.Put("u", RandomRelation(12, 50));
  telemetry::MetricRegistry registry;
  container::QueryManager qm(&resolver, &registry);
  const std::string sql =
      "select b, count(*) as n, sum(a) as s, max(c) as m, "
      "(select count(*) from u where u.b = t.b and a > t.a) as inner_n "
      "from t where a is not null and s <> 'axis' group by b "
      "order by count(*) desc, b limit 4";
  Result<Relation> want = qm.Execute(sql);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(want->NumRows(), 4u);

  constexpr int kThreads = 4;
  constexpr int kRuns = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < kRuns; ++k) {
        Result<Relation> got = qm.Execute(sql);
        if (!got.ok() || !SameRows(*got, *want)) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(qm.stats().cache_misses, 1);
  EXPECT_EQ(qm.stats().cache_hits, kThreads * kRuns);
}

// ---------------------------------------------------------- folding diff

/// Differential tests of the optimizer. Any random literal-only
/// expression must evaluate to the same value through FoldConstants
/// and through the executor (SELECT expr); and any statement must give
/// the same answer optimized as written.
class FoldDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

/// A random expression over literals and, when `columns`, a string
/// literal, `/`, and the columns of x(i int, d double, s string,
/// b bool, n int) below. Without columns the generator draws exactly
/// as it did before columns existed.
std::string RandomExpr(Rng* rng, int depth, bool columns) {
  if (depth <= 0 || rng->NextBool(0.3)) {
    static const char* kColumnLeaves[] = {"i", "d", "s", "b", "n", "'a'"};
    if (columns && rng->NextBool(0.5)) {
      return kColumnLeaves[rng->NextUint64(6)];
    }
    switch (rng->NextUint64(4)) {
      case 0:
        return std::to_string(rng->NextInt(-9, 9));
      case 1:
        return std::to_string(rng->NextInt(1, 9)) + "." +
               std::to_string(rng->NextInt(0, 9));
      case 2:
        return rng->NextBool(0.5) ? "true" : "false";
      default:
        return "null";
    }
  }
  static const char* kBinaryOps[] = {"+", "-", "*", "and", "or",
                                     "=", "<", ">=", "<>", "/"};
  const std::string lhs = RandomExpr(rng, depth - 1, columns);
  const std::string rhs = RandomExpr(rng, depth - 1, columns);
  switch (rng->NextUint64(4)) {
    case 0:
      return "(" + lhs + " " + kBinaryOps[rng->NextUint64(columns ? 10 : 9)] +
             " " + rhs + ")";
    case 1:
      return "(not " + lhs + ")";
    case 2:
      return "(" + lhs + " is null)";
    default:
      return "(case when " + lhs + " then " + rhs + " else " +
             RandomExpr(rng, depth - 1, columns) + " end)";
  }
}

TEST_P(FoldDifferentialTest, FoldMatchesExecution) {
  Rng rng(GetParam() * 2654435761ULL);
  Executor exec(nullptr);
  int compared = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string expr_sql = RandomExpr(&rng, 4, /*columns=*/false);
    // Executor path.
    Result<Relation> executed = exec.Query("select " + expr_sql);
    // Optimizer path.
    auto parsed = ParseExpression(expr_sql);
    ASSERT_TRUE(parsed.ok()) << expr_sql;
    auto folded = FoldConstants(parsed->get());
    ASSERT_TRUE(folded.ok()) << expr_sql;

    if (!executed.ok()) {
      // Runtime errors (type mismatch etc.) must not be folded away
      // into literals.
      EXPECT_NE((*parsed)->kind, ExprKind::kLiteral) << expr_sql;
      continue;
    }
    if ((*parsed)->kind == ExprKind::kLiteral) {
      ++compared;
      EXPECT_EQ((*parsed)->literal, executed->rows()[0][0])
          << expr_sql << " folded to " << (*parsed)->literal.ToString()
          << " but executed to " << executed->rows()[0][0].ToString();
    }
  }
  // The generator must actually produce a healthy share of foldable
  // expressions, or the test is vacuous.
  EXPECT_GT(compared, 100);
}

/// The same error, or the same column names and types and the same
/// rows in the same order.
::testing::AssertionResult SameAnswer(const Result<Relation>& got,
                                      const Result<Relation>& want) {
  if (got.ok() != want.ok() ||
      (!want.ok() && got.status().ToString() != want.status().ToString())) {
    return ::testing::AssertionFailure()
           << (got.ok() ? "ok" : got.status().ToString()) << ", want "
           << (want.ok() ? "ok" : want.status().ToString());
  }
  if (!want.ok()) return ::testing::AssertionSuccess();
  if (got->schema().ToString() != want->schema().ToString()) {
    return ::testing::AssertionFailure()
           << got->schema().ToString() << ", want "
           << want->schema().ToString();
  }
  return SameRows(*got, *want);
}

/// Runs `sql` as written and optimized. Returns true if the optimizer
/// changed the statement.
bool ExpectOptimizedAnswersAlike(const Executor& exec,
                                 const std::string& sql) {
  auto written = ParseSelect(sql);
  auto optimized = ParseSelect(sql);
  EXPECT_TRUE(written.ok() && optimized.ok()) << sql;
  if (!written.ok() || !optimized.ok()) return false;
  EXPECT_TRUE(Optimize(optimized->get()).ok()) << sql;
  EXPECT_TRUE(SameAnswer(exec.Execute(**optimized), exec.Execute(**written)))
      << sql << "\n  optimized: " << (*optimized)->ToString();
  return (*optimized)->ToString() != (*written)->ToString();
}

/// x(i int, d double, s string, b bool, n int): NULLs mixed into every
/// column, and n always NULL; y(k int) is x's join partner.
MapResolver DifferentialTables() {
  Schema x_schema;
  x_schema.AddField("i", DataType::kInt);
  x_schema.AddField("d", DataType::kDouble);
  x_schema.AddField("s", DataType::kString);
  x_schema.AddField("b", DataType::kBool);
  x_schema.AddField("n", DataType::kInt);
  Relation x(x_schema);
  const Value null = Value::Null();
  EXPECT_TRUE(x.AddRow({Value::Int(0), Value::Double(0.5), Value::String("a"),
                        Value::Bool(true), null})
                  .ok());
  EXPECT_TRUE(x.AddRow({Value::Int(2), Value::Double(-1.5),
                        Value::String("b"), Value::Bool(false), null})
                  .ok());
  EXPECT_TRUE(
      x.AddRow({Value::Int(-3), null, Value::String("a"), null, null}).ok());
  EXPECT_TRUE(x.AddRow({null, Value::Double(2.0), null, Value::Bool(true),
                        null})
                  .ok());
  Schema y_schema;
  y_schema.AddField("k", DataType::kInt);
  Relation y(y_schema);
  for (int k = 0; k < 3; ++k) EXPECT_TRUE(y.AddRow({Value::Int(k)}).ok());
  MapResolver resolver;
  resolver.Put("x", std::move(x));
  resolver.Put("y", std::move(y));
  return resolver;
}

// Each random expression over x's columns runs as a WHERE, a HAVING, a
// join condition, a select item and an ORDER BY key.
TEST_P(FoldDifferentialTest, OptimizedStatementsAnswerAsWritten) {
  const MapResolver resolver = DifferentialTables();
  Executor exec(&resolver);
  Rng rng(GetParam() * 40503ULL + 7);
  int changed = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string e = RandomExpr(&rng, 4, /*columns=*/true);
    const std::string statements[] = {
        "select i, s from x where " + e,
        "select b, count(*) from x group by b having " + e,
        "select x.i, y.k from x join y on " + e,
        "select " + e + " from x",
        "select i, s from x order by " + e,
    };
    for (const std::string& sql : statements) {
      changed += ExpectOptimizedAnswersAlike(exec, sql) ? 1 : 0;
    }
  }
  // Enough statements must fold for the comparison to mean anything.
  EXPECT_GT(changed, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Statements on which the optimizer used to answer differently from
// the executor: the AND/OR shrink, and folded select items and ORDER
// BY keys.
TEST(FoldRegressionTest, OptimizedStatementsAnswerAsWritten) {
  Schema schema;
  schema.AddField("v", DataType::kInt);
  schema.AddField("s", DataType::kString);
  Relation t(schema);
  const char* kStrings[] = {"d", "c", "b", "a"};
  for (int v = 0; v < 4; ++v) {
    ASSERT_TRUE(t.AddRow({Value::Int(v), Value::String(kStrings[v])}).ok());
  }
  MapResolver resolver;
  resolver.Put("t", std::move(t));
  Executor exec(&resolver);
  for (const char* sql : {
           "select v and true from t",           // booleans, not v
           "select (1 / v = 1) and false from t",  // division by zero
           "select v from t where s and false",  // s is not a boolean
           "select v, s from t order by 1 + 1",  // not ordinal 2
           "select v from t order by 1 + 1",     // no position 2
           "select 1 + 1",                       // column "(1 + 1)"
       }) {
    ExpectOptimizedAnswersAlike(exec, sql);
  }
}

}  // namespace
}  // namespace gsn::sql
