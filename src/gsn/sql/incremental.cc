#include "gsn/sql/incremental.h"

namespace gsn::sql {

Relation IncrementalPlan::NewestRowAnswer(
    const Relation::SharedRow& newest) const {
  Relation out(output_schema);
  if (newest == nullptr) return out;
  if (projection.empty()) {
    out.AppendSharedRow(newest);
    return out;
  }
  Relation::Row row;
  row.reserve(projection.size());
  for (size_t slot : projection) row.push_back((*newest)[slot]);
  out.AppendRow(std::move(row));
  return out;
}

std::vector<Fold> IncrementalPlan::NewFolds() const {
  std::vector<Fold> folds;
  folds.reserve(aggregates.size());
  for (const Aggregate& agg : aggregates) folds.emplace_back(agg.kind);
  return folds;
}

void IncrementalPlan::Accumulate(const Relation::Row& row,
                                 std::vector<Fold>* folds) const {
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const size_t slot = aggregates[a].slot;
    if (!aggregates[a].count_star && slot < row.size()) {
      (*folds)[a].Add(row[slot]);
    }
  }
}

Result<Relation> IncrementalPlan::AggregateAnswer(
    const std::vector<Fold>& folds, int64_t rows) const {
  Relation::Row row;
  row.reserve(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    if (aggregates[a].count_star) {
      row.push_back(Value::Int(rows));
      continue;
    }
    GSN_ASSIGN_OR_RETURN(Value v, folds[a].Finish());
    row.push_back(std::move(v));
  }
  Relation out(output_schema);
  out.AppendRow(std::move(row));
  return out;
}

std::optional<IncrementalPlan::Shape> IncrementalShape(const SelectStmt& stmt) {
  if (stmt.distinct || stmt.where || !stmt.group_by.empty() || stmt.having ||
      stmt.offset.has_value() || stmt.set_op != SetOp::kNone ||
      stmt.from.size() != 1 || stmt.from[0]->kind != TableRef::Kind::kTable ||
      stmt.items.empty()) {
    return std::nullopt;
  }
  if (stmt.order_by.empty() && !stmt.limit.has_value()) {
    for (const SelectItem& item : stmt.items) {
      if (item.is_star || item.expr->kind != ExprKind::kFunctionCall ||
          item.expr->distinct || item.expr->children.size() != 1 ||
          !Fold::KindOf(item.expr->function).has_value()) {
        return std::nullopt;
      }
      const Expr& arg = *item.expr->children[0];
      const bool count_star =
          arg.kind == ExprKind::kStar && item.expr->function == "COUNT";
      if (!count_star && arg.kind != ExprKind::kColumnRef) return std::nullopt;
    }
    return IncrementalPlan::Shape::kAggregate;
  }
  if (stmt.order_by.size() != 1 || stmt.order_by[0].ascending ||
      stmt.order_by[0].expr->kind != ExprKind::kColumnRef ||
      stmt.limit != 1) {
    return std::nullopt;
  }
  const bool star = stmt.items.size() == 1 && stmt.items[0].is_star &&
                    stmt.items[0].star_qualifier.empty();
  if (!star) {
    for (const SelectItem& item : stmt.items) {
      if (item.is_star || item.expr->kind != ExprKind::kColumnRef) {
        return std::nullopt;
      }
    }
  }
  return IncrementalPlan::Shape::kNewestRow;
}

}  // namespace gsn::sql
