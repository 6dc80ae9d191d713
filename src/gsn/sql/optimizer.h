#ifndef GSN_SQL_OPTIMIZER_H_
#define GSN_SQL_OPTIMIZER_H_

#include <memory>
#include <string>

#include "gsn/sql/ast.h"
#include "gsn/util/result.h"

namespace gsn::sql {

/// Rewrite pass run between parse and execute (the "query planning"
/// stage of the paper's query processor). It owns no SQL semantics:
///
///   * constant folding: in WHERE, HAVING and join conditions, a node
///     whose children are all literals becomes the value the executor
///     gives it with no row and no tables (`1 + 2*3` -> `7`,
///     `abs(-2)` -> `2`). A node that needs a column, an aggregate or
///     a table, or whose evaluation fails (`1/0`, `'a' and true`),
///     stays as written, so the executor reports the error exactly as
///     the unoptimized statement would;
///   * trivial-predicate elimination: a WHERE or HAVING that folds to
///     TRUE is dropped; FALSE or NULL stays and filters every row.
///
/// Select items, GROUP BY and ORDER BY stay as written, since their
/// text names the output columns and their literals are ORDER BY
/// ordinals; subqueries anywhere are optimized. So an optimized
/// statement gives the same columns, rows and errors as the original.
Status Optimize(SelectStmt* stmt);

/// Folds one expression tree by the rule above (exposed for tests).
/// Returns true if the tree changed.
Result<bool> FoldConstants(Expr* expr);

/// Renders the execution pipeline for a statement — GSN's EXPLAIN.
/// The output shows the FROM tree (scans, joins, derived tables), the
/// filter, aggregation, set operations, ordering, and limits, one
/// node per line with two-space indentation.
std::string ExplainString(const SelectStmt& stmt);

class AnalyzeCollector;

/// EXPLAIN ANALYZE rendering: the same plan tree annotated with the
/// per-operator row counts, timings, and algorithm choices `analyze`
/// observed while the executor ran the statement (e.g.
/// `Scan readings AS r (rows=120 time=14us)`, and joins print the
/// algorithm the adaptive planner actually picked). Operators with no
/// recorded stats render `(never executed)`.
std::string ExplainAnalyzeString(const SelectStmt& stmt,
                                 const AnalyzeCollector& analyze);

}  // namespace gsn::sql

#endif  // GSN_SQL_OPTIMIZER_H_
