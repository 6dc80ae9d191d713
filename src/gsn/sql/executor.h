#ifndef GSN_SQL_EXECUTOR_H_
#define GSN_SQL_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "gsn/sql/ast.h"
#include "gsn/sql/scan_predicate.h"
#include "gsn/types/schema.h"
#include "gsn/util/result.h"

namespace gsn::sql {

/// Supplies base relations to the executor. The storage layer's table
/// manager implements this; virtual sensors also use a lightweight map
/// resolver to expose their per-source temporary relations (paper §3
/// step 3: "input stream queries are evaluated and stored into
/// temporary relations").
class TableResolver {
 public:
  virtual ~TableResolver() = default;
  /// Returns a snapshot of the named table (case-insensitive name).
  virtual Result<Relation> GetTable(const std::string& name) const = 0;

  /// Snapshot with predicate pushdown: resolvers backed by tiered
  /// storage may use `predicate` to zone-map-prune column chunks and
  /// report what they skipped in `stats` (may be null). The predicate
  /// is advisory — returning rows that fail it is fine, the executor
  /// re-applies the full WHERE. Defaults to an unpruned GetTable.
  virtual Result<Relation> GetTableFiltered(const std::string& name,
                                            const ScanPredicate& predicate,
                                            ScanStats* stats) const {
    (void)predicate;
    (void)stats;
    return GetTable(name);
  }

  /// The current version of `name`'s view, for continuous aggregates
  /// that fold only what a batch appended; a versioning resolver also
  /// reports in ScanStats::version the version each scan read. The
  /// default (epoch 0) leaves every statement to the executor.
  virtual ViewVersion TableVersion(const std::string& name) const {
    (void)name;
    return ViewVersion{};
  }
};

/// Simple in-memory resolver backed by a name → Relation map.
class MapResolver : public TableResolver {
 public:
  MapResolver() = default;

  void Put(const std::string& name, Relation relation);
  Result<Relation> GetTable(const std::string& name) const override;

 private:
  std::map<std::string, Relation> tables_;  // lowercased names
};

// ---------------------------------------------------------------------------
// Value-level operator semantics (exposed for unit tests)
// ---------------------------------------------------------------------------

/// SQL three-valued binary operator. NULL operands propagate (except
/// for AND/OR which use Kleene logic). Integer division/modulo by zero
/// is an execution error.
Result<Value> EvalBinaryValues(BinaryOp op, const Value& lhs,
                               const Value& rhs);

/// SQL LIKE with '%' and '_' wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Best-effort static type inference of `expr` against `input`; used to
/// type executor output columns and validate descriptor output
/// structures. Returns error only for malformed expressions.
Result<DataType> InferType(const Expr& expr, const Schema& input);

/// Evaluates `expr` as the executor would, with no row and no tables:
/// the optimizer's only way to fold. Fails when `expr` needs a column,
/// an aggregate or a table, or raises an execution error.
Result<Value> EvaluateConstant(const Expr& expr);

// ---------------------------------------------------------------------------
// Adaptive join execution (paper §4: "an adaptive query execution plan")
// ---------------------------------------------------------------------------

/// Joins pick their algorithm at runtime from the actual input
/// cardinalities: equi-joins whose cross product exceeds the threshold
/// build a hash table on the smaller-cost side; everything else runs as
/// a nested loop. The threshold is settable for tests and ablations
/// (0 = always hash when possible; SIZE_MAX = never).
void SetHashJoinThreshold(size_t cross_product_threshold);
size_t GetHashJoinThreshold();

/// Process-wide strategy counters (reset with ResetJoinCounters); used
/// by tests and the ablate_join bench to observe adaptivity.
struct JoinCounters {
  int64_t hash_joins = 0;
  int64_t nested_loop_joins = 0;
};
JoinCounters GetJoinCounters();
void ResetJoinCounters();

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE instrumentation
// ---------------------------------------------------------------------------

/// Collects per-operator runtime statistics during one execution, keyed
/// by AST node so the optimizer's EXPLAIN renderer can annotate the
/// plan tree it walks. Operators that run repeatedly (correlated
/// subqueries, per-row condition checks) accumulate rows across
/// invocations. Not thread-safe: one collector observes one execution.
class AnalyzeCollector {
 public:
  /// Which logical operator of an AST node a sample belongs to (one
  /// node can host several, e.g. a SelectStmt has filter + aggregate +
  /// output).
  enum class Op { kScan, kJoin, kFilter, kAggregate, kOutput };

  struct OperatorStats {
    int64_t rows = 0;            ///< rows produced, summed over invocations
    int64_t elapsed_micros = 0;  ///< wall time, summed over invocations
    int64_t invocations = 0;
    std::string note;  ///< operator detail, e.g. join algorithm picked
  };

  void Add(const void* node, Op op, int64_t rows, int64_t elapsed_micros,
           const std::string& note = "");
  /// Stats for (node, op), or nullptr if that operator never ran.
  const OperatorStats* Find(const void* node, Op op) const;
  bool empty() const { return stats_.empty(); }

 private:
  std::map<std::pair<const void*, Op>, OperatorStats> stats_;
};

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Executes SELECT statements against a TableResolver, fully
/// materializing results. Supports joins (inner/left/cross), grouping
/// and aggregates (COUNT/SUM/AVG/MIN/MAX/STDDEV/VARIANCE, DISTINCT
/// variants), HAVING, DISTINCT, ORDER BY, LIMIT/OFFSET, set operations,
/// scalar/IN/EXISTS subqueries (correlated via outer-scope name
/// resolution), CASE, CAST, LIKE, and the scalar function library.
///
/// Grouped queries evaluate non-aggregate expressions against a
/// representative (first) row of each group, matching the permissive
/// MySQL behaviour GSN's original implementation ran on.
class Executor {
 public:
  explicit Executor(const TableResolver* resolver) : resolver_(resolver) {}

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs the statement and returns the result relation.
  Result<Relation> Execute(const SelectStmt& stmt) const;

  /// Convenience: parse + execute.
  Result<Relation> Query(const std::string& sql) const;

  /// Routes per-operator row counts and timings of subsequent
  /// Execute() calls into `collector` (EXPLAIN ANALYZE). The collector
  /// is installed thread-locally for the duration of each Execute, so
  /// shared AST nodes (prepared-statement cache) stay safe to execute
  /// concurrently from other threads. Null detaches. The collector must
  /// outlive the Execute calls it observes.
  void set_analyze(AnalyzeCollector* collector) { analyze_ = collector; }

 private:
  friend class EvalContext;
  const TableResolver* resolver_;
  AnalyzeCollector* analyze_ = nullptr;
};

}  // namespace gsn::sql

#endif  // GSN_SQL_EXECUTOR_H_
