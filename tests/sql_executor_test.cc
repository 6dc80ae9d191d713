#include <gtest/gtest.h>

#include <cmath>

#include "gsn/sql/executor.h"
#include "gsn/sql/parser.h"

namespace gsn::sql {
namespace {

/// Builds the fixture tables used throughout:
///   readings(node int, type string, temp int, light double, timed ts)
///   nodes(node int, location string)
MapResolver MakeFixture() {
  MapResolver resolver;

  Schema readings_schema;
  readings_schema.AddField("node", DataType::kInt);
  readings_schema.AddField("type", DataType::kString);
  readings_schema.AddField("temp", DataType::kInt);
  readings_schema.AddField("light", DataType::kDouble);
  readings_schema.AddField("timed", DataType::kTimestamp);
  Relation readings(readings_schema);
  auto add = [&](int node, const char* type, int temp, double light,
                 int64_t t) {
    EXPECT_TRUE(readings
                    .AddRow({Value::Int(node), Value::String(type),
                             Value::Int(temp), Value::Double(light),
                             Value::TimestampVal(t)})
                    .ok());
  };
  add(1, "mica2", 20, 100.0, 1000);
  add(1, "mica2", 22, 110.0, 2000);
  add(2, "mica2", 30, 90.0, 1500);
  add(2, "mica2dot", 26, 80.0, 2500);
  add(3, "tinynode", 18, 120.0, 3000);
  resolver.Put("readings", std::move(readings));

  Schema nodes_schema;
  nodes_schema.AddField("node", DataType::kInt);
  nodes_schema.AddField("location", DataType::kString);
  Relation nodes(nodes_schema);
  EXPECT_TRUE(nodes.AddRow({Value::Int(1), Value::String("bc143")}).ok());
  EXPECT_TRUE(nodes.AddRow({Value::Int(2), Value::String("bc144")}).ok());
  EXPECT_TRUE(nodes.AddRow({Value::Int(4), Value::String("lab")}).ok());
  resolver.Put("nodes", std::move(nodes));
  return resolver;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : resolver_(MakeFixture()), exec_(&resolver_) {}

  Relation MustQuery(const std::string& sql) {
    Result<Relation> r = exec_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *std::move(r) : Relation();
  }

  MapResolver resolver_;
  Executor exec_;
};

// ------------------------------------------------------------- basics

TEST_F(ExecutorTest, SelectStar) {
  Relation r = MustQuery("select * from readings");
  EXPECT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.schema().size(), 5u);
  EXPECT_EQ(r.schema().field(0).name, "node");
}

TEST_F(ExecutorTest, SelectWithoutFrom) {
  Relation r = MustQuery("select 1 + 2 as three, 'x' as s");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows()[0][0], Value::Int(3));
  EXPECT_EQ(r.rows()[0][1], Value::String("x"));
  EXPECT_EQ(r.schema().field(0).name, "three");
}

TEST_F(ExecutorTest, Projection) {
  Relation r = MustQuery("select temp, temp * 2 as doubled from readings");
  ASSERT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.rows()[0][1], Value::Int(40));
  EXPECT_EQ(r.schema().field(1).name, "doubled");
  EXPECT_EQ(r.schema().field(1).type, DataType::kInt);
}

TEST_F(ExecutorTest, WhereFilter) {
  Relation r = MustQuery("select node from readings where temp > 21");
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST_F(ExecutorTest, WherePredicateCombination) {
  Relation r = MustQuery(
      "select * from readings where temp > 19 and light < 105 or node = 3");
  EXPECT_EQ(r.NumRows(), 4u);
}

TEST_F(ExecutorTest, MissingTable) {
  EXPECT_EQ(exec_.Query("select * from nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ExecutorTest, MissingColumn) {
  EXPECT_FALSE(exec_.Query("select wat from readings").ok());
}

// ------------------------------------------------------------ aggregates

TEST_F(ExecutorTest, PaperAvgQuery) {
  // Figure 1 of the paper: select avg(temperature) from WRAPPER — here
  // against the fixture's temp column.
  Relation r = MustQuery("select avg(temp) from readings");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(r.rows()[0][0].double_value(),
                   (20 + 22 + 30 + 26 + 18) / 5.0);
}

TEST_F(ExecutorTest, AggregateFunctions) {
  Relation r = MustQuery(
      "select count(*), count(light), sum(temp), min(temp), max(temp), "
      "avg(light) from readings");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows()[0][0], Value::Int(5));
  EXPECT_EQ(r.rows()[0][1], Value::Int(5));
  EXPECT_EQ(r.rows()[0][2], Value::Int(116));
  EXPECT_EQ(r.rows()[0][3], Value::Int(18));
  EXPECT_EQ(r.rows()[0][4], Value::Int(30));
  EXPECT_DOUBLE_EQ(r.rows()[0][5].double_value(), 100.0);
}

TEST_F(ExecutorTest, CountDistinct) {
  Relation r = MustQuery("select count(distinct type) from readings");
  EXPECT_EQ(r.rows()[0][0], Value::Int(3));
}

TEST_F(ExecutorTest, GroupBy) {
  Relation r = MustQuery(
      "select node, count(*) as n, avg(temp) from readings group by node "
      "order by node");
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.rows()[0][0], Value::Int(1));
  EXPECT_EQ(r.rows()[0][1], Value::Int(2));
  EXPECT_DOUBLE_EQ(r.rows()[0][2].double_value(), 21.0);
  EXPECT_EQ(r.rows()[1][1], Value::Int(2));
  EXPECT_EQ(r.rows()[2][1], Value::Int(1));
}

TEST_F(ExecutorTest, Having) {
  Relation r = MustQuery(
      "select node from readings group by node having count(*) > 1 "
      "order by node");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows()[0][0], Value::Int(1));
  EXPECT_EQ(r.rows()[1][0], Value::Int(2));
}

TEST_F(ExecutorTest, AggregateOverEmptyInput) {
  Relation r =
      MustQuery("select count(*), avg(temp) from readings where temp > 999");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows()[0][0], Value::Int(0));
  EXPECT_TRUE(r.rows()[0][1].is_null());
}

TEST_F(ExecutorTest, GroupByEmptyInputProducesNoGroups) {
  Relation r = MustQuery(
      "select node, count(*) from readings where temp > 999 group by node");
  EXPECT_EQ(r.NumRows(), 0u);
}

TEST_F(ExecutorTest, StddevAndVariance) {
  Relation r = MustQuery("select variance(temp), stddev(temp) from readings");
  ASSERT_EQ(r.NumRows(), 1u);
  // temps: 20,22,30,26,18; mean 23.2; sample variance = 23.2
  EXPECT_NEAR(r.rows()[0][0].double_value(), 23.2, 1e-9);
  EXPECT_NEAR(r.rows()[0][1].double_value(), std::sqrt(23.2), 1e-9);
}

// ----------------------------------------------------------------- joins

TEST_F(ExecutorTest, InnerJoin) {
  Relation r = MustQuery(
      "select r.temp, n.location from readings r join nodes n "
      "on r.node = n.node order by r.temp");
  ASSERT_EQ(r.NumRows(), 4u);  // node 3 has no location
  EXPECT_EQ(r.rows()[0][1], Value::String("bc143"));
}

TEST_F(ExecutorTest, LeftJoinPadsNulls) {
  Relation r = MustQuery(
      "select r.node, n.location from readings r left join nodes n "
      "on r.node = n.node where r.node = 3");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_TRUE(r.rows()[0][1].is_null());
}

TEST_F(ExecutorTest, CrossJoinCardinality) {
  Relation r = MustQuery("select * from readings cross join nodes");
  EXPECT_EQ(r.NumRows(), 15u);
}

TEST_F(ExecutorTest, CommaJoinWithWhere) {
  Relation r = MustQuery(
      "select r.temp from readings r, nodes n where r.node = n.node");
  EXPECT_EQ(r.NumRows(), 4u);
}

TEST_F(ExecutorTest, AmbiguousColumnIsError) {
  EXPECT_FALSE(
      exec_.Query("select node from readings r join nodes n on r.node = n.node")
          .ok());
}

// ------------------------------------------------------------- subqueries

TEST_F(ExecutorTest, DerivedTable) {
  Relation r = MustQuery(
      "select t.m from (select max(temp) as m from readings) t");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows()[0][0], Value::Int(30));
}

TEST_F(ExecutorTest, InSubquery) {
  Relation r = MustQuery(
      "select location from nodes where node in "
      "(select node from readings where temp > 25) order by location");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows()[0][0], Value::String("bc144"));
}

TEST_F(ExecutorTest, CorrelatedScalarSubquery) {
  Relation r = MustQuery(
      "select n.node, (select count(*) from readings r where r.node = n.node) "
      "as cnt from nodes n order by n.node");
  ASSERT_EQ(r.NumRows(), 3u);
  EXPECT_EQ(r.rows()[0][1], Value::Int(2));
  EXPECT_EQ(r.rows()[1][1], Value::Int(2));
  EXPECT_EQ(r.rows()[2][1], Value::Int(0));
}

TEST_F(ExecutorTest, CorrelatedExists) {
  Relation r = MustQuery(
      "select location from nodes n where exists "
      "(select 1 from readings r where r.node = n.node) order by location");
  ASSERT_EQ(r.NumRows(), 2u);
}

TEST_F(ExecutorTest, ScalarSubqueryMultipleRowsIsError) {
  EXPECT_FALSE(
      exec_.Query("select (select temp from readings) from nodes").ok());
}

// ---------------------------------------------------- distinct/order/limit

TEST_F(ExecutorTest, Distinct) {
  Relation r = MustQuery("select distinct node from readings order by node");
  ASSERT_EQ(r.NumRows(), 3u);
}

TEST_F(ExecutorTest, OrderByMultipleKeysAndDesc) {
  Relation r = MustQuery(
      "select node, temp from readings order by node asc, temp desc");
  ASSERT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.rows()[0][1], Value::Int(22));
  EXPECT_EQ(r.rows()[1][1], Value::Int(20));
}

TEST_F(ExecutorTest, OrderByNonProjectedColumn) {
  Relation r = MustQuery("select type from readings order by temp desc");
  EXPECT_EQ(r.rows()[0][0], Value::String("mica2"));  // temp=30
}

TEST_F(ExecutorTest, OrderByAlias) {
  Relation r =
      MustQuery("select temp * 2 as d from readings order by d limit 1");
  EXPECT_EQ(r.rows()[0][0], Value::Int(36));
}

TEST_F(ExecutorTest, OrderByOrdinal) {
  // Standard SQL: ORDER BY 2 sorts by the second output column.
  Relation r = MustQuery("select node, temp from readings order by 2 desc");
  ASSERT_EQ(r.NumRows(), 5u);
  EXPECT_EQ(r.rows()[0][1], Value::Int(30));
  EXPECT_EQ(r.rows()[4][1], Value::Int(18));
  // Mixed ordinal + expression keys.
  Relation m =
      MustQuery("select node, temp from readings order by 1, temp desc");
  EXPECT_EQ(m.rows()[0][0], Value::Int(1));
  EXPECT_EQ(m.rows()[0][1], Value::Int(22));
  // Out-of-range ordinals are errors.
  EXPECT_FALSE(exec_.Query("select node from readings order by 2").ok());
  EXPECT_FALSE(exec_.Query("select node from readings order by 0").ok());
}

TEST_F(ExecutorTest, OrderByAggregate) {
  // Per-node counts: node 1 -> 2, node 2 -> 2, node 3 -> 1. The tie
  // keeps group order.
  Relation by_call = MustQuery(
      "select node, count(*) as n from readings group by node "
      "order by count(*) desc");
  Relation by_alias = MustQuery(
      "select node, count(*) as n from readings group by node "
      "order by n desc");
  ASSERT_EQ(by_call.NumRows(), 3u);
  ASSERT_EQ(by_alias.NumRows(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(by_call.rows()[i][0], by_alias.rows()[i][0]) << i;
    EXPECT_EQ(by_call.rows()[i][1], by_alias.rows()[i][1]) << i;
  }
  EXPECT_EQ(by_call.rows()[0][0], Value::Int(1));
  EXPECT_EQ(by_call.rows()[2][0], Value::Int(3));

  // An aggregate that is not projected still orders the groups.
  Relation by_max = MustQuery(
      "select node from readings group by node order by max(temp) desc");
  ASSERT_EQ(by_max.NumRows(), 3u);
  EXPECT_EQ(by_max.rows()[0][0], Value::Int(2));  // max 30
  EXPECT_EQ(by_max.rows()[1][0], Value::Int(1));  // max 22
  EXPECT_EQ(by_max.rows()[2][0], Value::Int(3));  // max 18

  // Through DISTINCT and HAVING, with the top-k bound.
  Relation top = MustQuery(
      "select distinct node from readings group by node "
      "having count(*) > 1 order by sum(light) limit 1");
  ASSERT_EQ(top.NumRows(), 1u);
  EXPECT_EQ(top.rows()[0][0], Value::Int(2));  // 170 < 210
}

TEST_F(ExecutorTest, LimitOffset) {
  Relation r =
      MustQuery("select temp from readings order by temp limit 2 offset 1");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows()[0][0], Value::Int(20));
  EXPECT_EQ(r.rows()[1][0], Value::Int(22));
}

TEST_F(ExecutorTest, LimitLargerThanResult) {
  Relation r = MustQuery("select * from nodes limit 100");
  EXPECT_EQ(r.NumRows(), 3u);
}

TEST_F(ExecutorTest, LimitOffsetNearInt64MaxKeepsRowCount) {
  // OFFSET + LIMIT would overflow int64: every row past the offset is
  // kept, with and without ORDER BY.
  EXPECT_EQ(MustQuery("select temp from readings order by temp "
                      "limit 9223372036854775807 offset 1")
                .NumRows(),
            4u);
  EXPECT_EQ(MustQuery("select temp from readings "
                      "limit 9223372036854775807 offset 1")
                .NumRows(),
            4u);
  EXPECT_EQ(MustQuery("select temp from readings order by temp "
                      "limit 9223372036854775807 offset 9223372036854775807")
                .NumRows(),
            0u);
  Relation last = MustQuery(
      "select temp from readings order by temp "
      "limit 9223372036854775807 offset 4");
  ASSERT_EQ(last.NumRows(), 1u);
  EXPECT_EQ(last.rows()[0][0], Value::Int(30));
}

// ---------------------------------------------------------------- set ops

TEST_F(ExecutorTest, UnionDedupes) {
  Relation r = MustQuery(
      "select node from readings union select node from nodes order by 1");
  // readings nodes {1,2,3} ∪ nodes {1,2,4} = {1,2,3,4}
  EXPECT_EQ(r.NumRows(), 4u);
}

TEST_F(ExecutorTest, UnionAllKeepsDuplicates) {
  Relation r = MustQuery(
      "select node from readings union all select node from nodes");
  EXPECT_EQ(r.NumRows(), 8u);
}

TEST_F(ExecutorTest, Intersect) {
  Relation r = MustQuery(
      "select node from readings intersect select node from nodes");
  EXPECT_EQ(r.NumRows(), 2u);  // {1,2}
}

TEST_F(ExecutorTest, Except) {
  Relation r = MustQuery(
      "select node from readings except select node from nodes");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_EQ(r.rows()[0][0], Value::Int(3));
}

TEST_F(ExecutorTest, SetOpArityMismatchIsError) {
  EXPECT_FALSE(exec_
                   .Query("select node, temp from readings union "
                          "select node from nodes")
                   .ok());
}

// ------------------------------------------------------------ expressions

TEST_F(ExecutorTest, ThreeValuedLogicInWhere) {
  // NULL location rows must not pass WHERE.
  Relation r = MustQuery(
      "select n.location from readings r left join nodes n on r.node = n.node "
      "where n.location <> 'bc143'");
  // Only node-2 rows (bc144) qualify; node 3's NULL is filtered.
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST_F(ExecutorTest, LikePatterns) {
  Relation r = MustQuery(
      "select distinct type from readings where type like 'mica%' "
      "order by type");
  ASSERT_EQ(r.NumRows(), 2u);
  EXPECT_EQ(r.rows()[0][0], Value::String("mica2"));
}

TEST_F(ExecutorTest, BetweenAndIn) {
  Relation r1 = MustQuery(
      "select count(*) from readings where temp between 20 and 26");
  EXPECT_EQ(r1.rows()[0][0], Value::Int(3));
  Relation r2 =
      MustQuery("select count(*) from readings where node in (1, 3)");
  EXPECT_EQ(r2.rows()[0][0], Value::Int(3));
}

TEST_F(ExecutorTest, CaseExpression) {
  Relation r = MustQuery(
      "select case when temp >= 25 then 'hot' else 'cold' end as label "
      "from readings order by temp desc limit 1");
  EXPECT_EQ(r.rows()[0][0], Value::String("hot"));
}

TEST_F(ExecutorTest, CastExpression) {
  Relation r = MustQuery("select cast(temp as double) / 2 from readings "
                         "order by temp limit 1");
  EXPECT_DOUBLE_EQ(r.rows()[0][0].double_value(), 9.0);
}

TEST_F(ExecutorTest, IntegerDivisionTruncates) {
  Relation r = MustQuery("select 7 / 2, 7.0 / 2, 7 % 3");
  EXPECT_EQ(r.rows()[0][0], Value::Int(3));
  EXPECT_DOUBLE_EQ(r.rows()[0][1].double_value(), 3.5);
  EXPECT_EQ(r.rows()[0][2], Value::Int(1));
}

TEST_F(ExecutorTest, DivisionByZeroIsError) {
  EXPECT_FALSE(exec_.Query("select 1 / 0").ok());
  EXPECT_FALSE(exec_.Query("select 1 % 0").ok());
}

TEST_F(ExecutorTest, ScalarFunctions) {
  Relation r = MustQuery(
      "select abs(-5), upper('abc'), length('hello'), coalesce(null, 3), "
      "round(3.567, 2), substr('sensor', 1, 3)");
  EXPECT_EQ(r.rows()[0][0], Value::Int(5));
  EXPECT_EQ(r.rows()[0][1], Value::String("ABC"));
  EXPECT_EQ(r.rows()[0][2], Value::Int(5));
  EXPECT_EQ(r.rows()[0][3], Value::Int(3));
  EXPECT_DOUBLE_EQ(r.rows()[0][4].double_value(), 3.57);
  EXPECT_EQ(r.rows()[0][5], Value::String("sen"));
}

TEST_F(ExecutorTest, UnknownFunctionIsError) {
  EXPECT_FALSE(exec_.Query("select frobnicate(1)").ok());
}

TEST_F(ExecutorTest, TimestampArithmetic) {
  // Paper §3: time attributes manipulable through SQL.
  Relation r = MustQuery(
      "select count(*) from readings where timed > 1000 and timed <= 2500");
  EXPECT_EQ(r.rows()[0][0], Value::Int(3));
}

TEST_F(ExecutorTest, ConcatOperator) {
  Relation r = MustQuery("select 'a' || 'b' || 1");
  EXPECT_EQ(r.rows()[0][0], Value::String("ab1"));
}

// ------------------------------------------------------- LikeMatch directly

TEST(LikeMatchTest, Wildcards) {
  EXPECT_TRUE(LikeMatch("mica2dot", "mica%"));
  EXPECT_TRUE(LikeMatch("mica2", "mica_"));
  EXPECT_FALSE(LikeMatch("mica22", "mica_"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("temperature", "%per%"));
  EXPECT_TRUE(LikeMatch("ABC", "abc"));  // case-insensitive like MySQL
  EXPECT_FALSE(LikeMatch("abc", "abd"));
  EXPECT_TRUE(LikeMatch("a%c", "a%c"));
}

// ----------------------------------------------------------- EvalBinary

TEST(EvalBinaryTest, NullPropagation) {
  auto r = EvalBinaryValues(BinaryOp::kAdd, Value::Null(), Value::Int(1));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_null());
  auto c = EvalBinaryValues(BinaryOp::kEq, Value::Null(), Value::Null());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->is_null());
}

TEST(EvalBinaryTest, MixedNumericPromotion) {
  auto r = EvalBinaryValues(BinaryOp::kMul, Value::Int(2), Value::Double(1.5));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->double_value(), 3.0);
}

TEST(EvalBinaryTest, TimestampPlusIntIsTimestamp) {
  auto r = EvalBinaryValues(BinaryOp::kAdd, Value::TimestampVal(100),
                            Value::Int(50));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_timestamp());
  EXPECT_EQ(r->timestamp_value(), 150);
}

// Integral values compare as int64, as MIN, MAX, DISTINCT and ORDER BY
// do: 2^53 and 2^53 + 1 share a double but are two different ids.
TEST(EvalBinaryTest, IntegersCompareExactlyPastDoublePrecision) {
  Schema schema;
  schema.AddField("v", DataType::kInt);
  Relation ids(schema);
  ASSERT_TRUE(ids.AddRow({Value::Int(9007199254740992)}).ok());
  ASSERT_TRUE(ids.AddRow({Value::Int(9007199254740993)}).ok());
  MapResolver resolver;
  resolver.Put("ids", std::move(ids));
  Executor exec(&resolver);
  for (const char* where : {
           "v = 9007199254740993",
           "v < 9007199254740993",
           "v > 9007199254740992",
           "v in (9007199254740993)",
           "v between 9007199254740993 and 9007199254740994",
           "v = (select max(v) from ids)",
           "nullif(v, 9007199254740992) is null",
       }) {
    Result<Relation> r =
        exec.Query(std::string("select count(*) from ids where ") + where);
    ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
    EXPECT_EQ(r->rows()[0][0].int_value(), 1) << where;
  }
  // Timestamps are integral too.
  auto lt = EvalBinaryValues(BinaryOp::kLess,
                             Value::TimestampVal(9007199254740992),
                             Value::Int(9007199254740993));
  ASSERT_TRUE(lt.ok());
  EXPECT_TRUE(lt->bool_value());
}

TEST(EvalBinaryTest, IncomparableTypesError) {
  EXPECT_FALSE(
      EvalBinaryValues(BinaryOp::kLess, Value::Int(1), Value::String("a"))
          .ok());
}

}  // namespace
}  // namespace gsn::sql
