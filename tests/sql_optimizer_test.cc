#include <gtest/gtest.h>

#include "gsn/sql/executor.h"
#include "gsn/sql/optimizer.h"
#include "gsn/sql/parser.h"

namespace gsn::sql {
namespace {

/// Parses, folds, and renders an expression.
std::string Fold(const std::string& expr_sql) {
  auto expr = ParseExpression(expr_sql);
  EXPECT_TRUE(expr.ok()) << expr.status().ToString();
  auto changed = FoldConstants(expr->get());
  EXPECT_TRUE(changed.ok());
  return (*expr)->ToString();
}

TEST(OptimizerTest, ArithmeticFolds) {
  EXPECT_EQ(Fold("1 + 2 * 3"), "7");
  EXPECT_EQ(Fold("10 / 4"), "2");        // integer division preserved
  EXPECT_EQ(Fold("10.0 / 4"), "2.5");
  EXPECT_EQ(Fold("-(3 + 4)"), "-7");
  EXPECT_EQ(Fold("'a' || 'b'"), "'ab'");
}

TEST(OptimizerTest, ComparisonAndLogicFold) {
  EXPECT_EQ(Fold("1 < 2"), "true");
  EXPECT_EQ(Fold("not true"), "false");
  EXPECT_EQ(Fold("true and false"), "false");
  EXPECT_EQ(Fold("null and false"), "false");  // Kleene
  EXPECT_EQ(Fold("null or true"), "true");
  EXPECT_EQ(Fold("5 between 1 and 10"), "true");
  EXPECT_EQ(Fold("3 in (1, 2, 3)"), "true");
  EXPECT_EQ(Fold("4 not in (1, 2, 3)"), "true");
  EXPECT_EQ(Fold("null is null"), "true");
  EXPECT_EQ(Fold("case when 1 < 2 then 'y' else 'n' end"), "'y'");
  EXPECT_EQ(Fold("cast('42' as integer)"), "42");
}

TEST(OptimizerTest, ColumnsBlockFolding) {
  EXPECT_EQ(Fold("temp + 1"), "(temp + 1)");
  // But literal subtrees inside still fold.
  EXPECT_EQ(Fold("temp + (1 + 2)"), "(temp + 3)");
}

// No boolean identity is applied past an operand that is not a
// literal: the executor casts each operand of AND/OR to a boolean and
// may fail there, so `x AND TRUE` is not `x` and `x AND FALSE` is not
// FALSE. All-literal operands fold by the executor's Kleene logic.
TEST(OptimizerTest, BooleanIdentities) {
  EXPECT_EQ(Fold("temp > 3 and true"), "((temp > 3) AND true)");
  EXPECT_EQ(Fold("false and temp > 3"), "(false AND (temp > 3))");
  EXPECT_EQ(Fold("temp > 3 or false"), "((temp > 3) OR false)");
  EXPECT_EQ(Fold("temp > 3 or true"), "((temp > 3) OR true)");
  EXPECT_EQ(Fold("(temp > 3 and true) and 1 < 2"),
            "(((temp > 3) AND true) AND true)");
  EXPECT_EQ(Fold("true and null"), "NULL");
}

TEST(OptimizerTest, FunctionsOfLiteralsFold) {
  EXPECT_EQ(Fold("abs(-2)"), "2");
  EXPECT_EQ(Fold("upper('a') || lower('B')"), "'Ab'");
  EXPECT_EQ(Fold("coalesce(null, 3)"), "3");
  // Aggregates need rows, and errors surface at execution.
  EXPECT_EQ(Fold("count(1)"), "COUNT(1)");
  EXPECT_EQ(Fold("sqrt(-1)"), "SQRT(-1)");
  EXPECT_EQ(Fold("nosuch(1)"), "NOSUCH(1)");
}

TEST(OptimizerTest, RuntimeErrorsAreNotFolded) {
  // 1/0 must raise at execution, not vanish or crash the optimizer.
  EXPECT_EQ(Fold("1 / 0"), "(1 / 0)");
  EXPECT_EQ(Fold("1 % 0"), "(1 % 0)");
  // Type error preserved too.
  EXPECT_EQ(Fold("1 < 'abc'"), "(1 < 'abc')");
}

TEST(OptimizerTest, WhereTrueIsDropped) {
  auto stmt = ParseSelect("select a from t where 1 = 1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(Optimize(stmt->get()).ok());
  EXPECT_EQ((*stmt)->where, nullptr);
}

TEST(OptimizerTest, WhereFalseIsKeptForSemantics) {
  auto stmt = ParseSelect("select a from t where 1 = 2");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(Optimize(stmt->get()).ok());
  ASSERT_NE((*stmt)->where, nullptr);
  EXPECT_EQ((*stmt)->where->ToString(), "false");
}

TEST(OptimizerTest, OptimizesSubqueriesAndJoins) {
  auto stmt = ParseSelect(
      "select * from (select 1 + 1 as two from t where true) d "
      "join u on d.two = 1 + 1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(Optimize(stmt->get()).ok());
  const std::string rendered = (*stmt)->ToString();
  // The inner select item stays as written; its WHERE true is dropped
  // and the join condition folds on its rhs.
  EXPECT_NE(rendered.find("SELECT (1 + 1) AS two"), std::string::npos)
      << rendered;
  EXPECT_EQ(rendered.find("WHERE"), std::string::npos);
  EXPECT_NE(rendered.find("d.two = 2"), std::string::npos);
}

// Select items name the output columns and ORDER BY literals are
// ordinals, so neither is folded; predicates inside their subqueries
// still are.
TEST(OptimizerTest, SelectItemsGroupByAndOrderByStayAsWritten) {
  auto stmt = ParseSelect(
      "select 1 + 1, (select count(*) from u where 2 > 1) from t "
      "group by 1 + 1 order by 1 + 1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(Optimize(stmt->get()).ok());
  const std::string rendered = (*stmt)->ToString();
  EXPECT_NE(rendered.find("SELECT (1 + 1), (SELECT COUNT(*) FROM u)"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("GROUP BY (1 + 1) ORDER BY (1 + 1)"),
            std::string::npos)
      << rendered;
}

TEST(OptimizerTest, OptimizedQueryResultsUnchanged) {
  MapResolver resolver;
  Schema schema;
  schema.AddField("v", DataType::kInt);
  Relation rel(schema);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(rel.AddRow({Value::Int(i)}).ok());
  resolver.Put("t", std::move(rel));
  Executor exec(&resolver);

  const char* queries[] = {
      "select v from t where v > 2 + 3",
      "select v + 1 * 2 from t where true and v < 8 order by 1 desc",
      "select count(*) from t where v between 0 + 1 and 10 - 2",
  };
  for (const char* q : queries) {
    auto plain = ParseSelect(q);
    ASSERT_TRUE(plain.ok());
    auto optimized = ParseSelect(q);
    ASSERT_TRUE(optimized.ok());
    ASSERT_TRUE(Optimize(optimized->get()).ok());
    auto r1 = exec.Execute(**plain);
    auto r2 = exec.Execute(**optimized);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    ASSERT_EQ(r1->NumRows(), r2->NumRows()) << q;
    for (size_t i = 0; i < r1->NumRows(); ++i) {
      EXPECT_EQ(r1->rows()[i], r2->rows()[i]) << q;
    }
  }
}

// ----------------------------------------------------------------- EXPLAIN

TEST(ExplainTest, ShowsPipelineStructure) {
  auto stmt = ParseSelect(
      "select r.type, count(*) from readings r join nodes n on "
      "r.node = n.node where r.temp > 10 group by r.type "
      "having count(*) > 1 order by r.type limit 5");
  ASSERT_TRUE(stmt.ok());
  const std::string plan = ExplainString(**stmt);
  EXPECT_NE(plan.find("Select:"), std::string::npos) << plan;
  EXPECT_NE(plan.find("NestedLoopJoin Inner on (r.node = n.node)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Scan readings AS r"), std::string::npos);
  EXPECT_NE(plan.find("Filter: (r.temp > 10)"), std::string::npos);
  EXPECT_NE(plan.find("Aggregate: group by r.type"), std::string::npos);
  EXPECT_NE(plan.find("Having:"), std::string::npos);
  EXPECT_NE(plan.find("OrderBy: r.type"), std::string::npos);
  EXPECT_NE(plan.find("Limit: 5"), std::string::npos);
}

TEST(ExplainTest, DerivedTablesAndSetOps) {
  auto stmt = ParseSelect(
      "select * from (select 1 as x) d union all select 2");
  ASSERT_TRUE(stmt.ok());
  const std::string plan = ExplainString(**stmt);
  EXPECT_NE(plan.find("Derived AS d:"), std::string::npos) << plan;
  EXPECT_NE(plan.find("UnionAll:"), std::string::npos) << plan;
}

}  // namespace
}  // namespace gsn::sql
