#ifndef GSN_SQL_INCREMENTAL_H_
#define GSN_SQL_INCREMENTAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gsn/sql/ast.h"
#include "gsn/types/schema.h"
#include "gsn/util/result.h"

namespace gsn::sql {

/// Running COUNT/SUM/AVG/MIN/MAX over a group's argument values, fed in
/// input order. NULLs are skipped, as SQL aggregates skip them. SUM
/// stays integral while every value is an int or bool; the double sum
/// runs alongside in the same order, so either result equals summing
/// the gathered values afterwards. The executor and the incremental
/// answers below share this one arithmetic: the same values folded in
/// the same order give the same bits on both paths.
class Fold {
 public:
  enum class Kind { kCount, kSum, kAvg, kMin, kMax };

  /// The fold computing aggregate `fn`; nullopt for the ones that need
  /// every value first (STDDEV, VARIANCE).
  static std::optional<Kind> KindOf(const std::string& fn) {
    if (fn == "COUNT") return Kind::kCount;
    if (fn == "SUM") return Kind::kSum;
    if (fn == "AVG") return Kind::kAvg;
    if (fn == "MIN") return Kind::kMin;
    if (fn == "MAX") return Kind::kMax;
    return std::nullopt;
  }

  explicit Fold(Kind kind) : kind_(kind) {}

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count_;
    switch (kind_) {
      case Kind::kCount:
        return;
      case Kind::kMin:
      case Kind::kMax: {
        if (count_ == 1) {
          best_ = v;
          return;
        }
        const int c = v.Compare(best_);
        if (kind_ == Kind::kMin ? c < 0 : c > 0) best_ = v;
        return;
      }
      case Kind::kSum:
      case Kind::kAvg: {
        if (v.is_int() || v.is_bool()) {
          // Wrapping add: a SUM that later turns double discards this
          // partial sum, so its overflow must not trap.
          int_sum_ += static_cast<uint64_t>(v.is_int() ? v.int_value()
                                                       : v.bool_value());
        } else {
          all_int_ = false;
        }
        Result<double> d = v.AsDouble();
        if (d.ok()) {
          sum_ += *d;
        } else if (not_numeric_.ok()) {
          not_numeric_ = d.status();
        }
        return;
      }
    }
  }

  Result<Value> Finish() const {
    if (kind_ == Kind::kCount) return Value::Int(count_);
    if (count_ == 0) return Value::Null();
    switch (kind_) {
      case Kind::kMin:
      case Kind::kMax:
        return best_;
      case Kind::kSum:
        if (all_int_) return Value::Int(static_cast<int64_t>(int_sum_));
        GSN_RETURN_IF_ERROR(not_numeric_);
        return Value::Double(sum_);
      default:
        GSN_RETURN_IF_ERROR(not_numeric_);
        return Value::Double(sum_ / static_cast<double>(count_));
    }
  }

 private:
  Kind kind_;
  int64_t count_ = 0;
  Value best_;
  bool all_int_ = true;
  uint64_t int_sum_ = 0;
  double sum_ = 0;
  Status not_numeric_;  // first SUM/AVG value without a numeric reading
};

/// A SELECT over one relation that state kept beside the relation's
/// rows can answer instead of the Executor. Two shapes qualify:
///
///  * newest row: `select <* | columns> from R order by timed desc
///    limit 1`;
///  * aggregate-only: COUNT(*), or COUNT/SUM/AVG/MIN/MAX of bare
///    columns, with optional aliases and no WHERE, GROUP BY, HAVING,
///    DISTINCT, ORDER BY, LIMIT, join or subquery.
///
/// An answer equals the Executor's over the same rows, bit for bit: the
/// same output schema (built by the executor's own naming and typing),
/// the newest row the executor's stable top-k keeps (the first of the
/// trailing run of equal newest `timed`), and the same Fold over the
/// same values in the same order.
struct IncrementalPlan {
  enum class Shape { kNewestRow, kAggregate };

  /// One select-list aggregate.
  struct Aggregate {
    Fold::Kind kind = Fold::Kind::kCount;
    bool count_star = false;  ///< COUNT(*): counts rows, reads no slot
    size_t slot = 0;          ///< row slot of the argument column
  };

  Shape shape = Shape::kNewestRow;
  /// The executor's output schema for the statement.
  Schema output_schema;
  /// kNewestRow: the row slot behind each output column; empty when the
  /// output row is the source row itself (`select *`).
  std::vector<size_t> projection;
  /// kAggregate: one per output column, in select-list order.
  std::vector<Aggregate> aggregates;

  /// kNewestRow: the answer given the newest live row (null when the
  /// relation is empty).
  Relation NewestRowAnswer(const Relation::SharedRow& newest) const;

  /// kAggregate: a fresh fold per aggregate.
  std::vector<Fold> NewFolds() const;
  /// kAggregate: folds one row ([timed, values...]) into `folds`.
  void Accumulate(const Relation::Row& row, std::vector<Fold>* folds) const;
  /// kAggregate: the one-row answer from `folds`, which saw `rows` rows.
  Result<Relation> AggregateAnswer(const std::vector<Fold>& folds,
                                   int64_t rows) const;
};

/// The shape `stmt` has by its syntax alone (names unresolved), or
/// nullopt when it is neither.
std::optional<IncrementalPlan::Shape> IncrementalShape(const SelectStmt& stmt);

/// Compiles `stmt` against the relation named `relation` (compared
/// case-insensitively, as resolvers do) whose rows have `row_schema`
/// (`timed` first). Returns nullopt for every other statement,
/// including one that reads another relation or names a column the
/// executor would fail to resolve: those keep running the executor, so
/// their results and errors do not change. Defined beside the
/// executor's output naming and typing, which it reuses.
std::optional<IncrementalPlan> CompileIncremental(const SelectStmt& stmt,
                                                  std::string_view relation,
                                                  const Schema& row_schema);

}  // namespace gsn::sql

#endif  // GSN_SQL_INCREMENTAL_H_
