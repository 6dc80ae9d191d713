#include "gsn/sql/optimizer.h"

#include "gsn/sql/executor.h"

namespace gsn::sql {

namespace {

void ReplaceWithLiteral(Expr* e, Value v) {
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  e->children.clear();
  e->subquery.reset();
  e->function.clear();
  e->case_num_whens = 0;
  e->case_has_else = false;
  e->case_has_operand = false;
}

void OptimizeStmt(SelectStmt* stmt);

/// Folds bottom-up: a node whose children are all literals becomes the
/// value the executor gives it, when that evaluation succeeds. Anything
/// else stays as written: a column, an aggregate, a table, an error.
bool FoldExpr(Expr* e) {
  bool changed = false;
  bool all_literal = true;
  for (auto& child : e->children) {
    changed |= FoldExpr(child.get());
    all_literal &= child->kind == ExprKind::kLiteral;
  }
  if (e->subquery) OptimizeStmt(e->subquery.get());
  if (e->kind == ExprKind::kLiteral || !all_literal) return changed;
  Result<Value> value = EvaluateConstant(*e);
  if (!value.ok()) return changed;
  ReplaceWithLiteral(e, *std::move(value));
  return true;
}

/// Optimizes the subqueries of an expression that stays as written.
void OptimizeSubqueries(Expr* e) {
  for (auto& child : e->children) OptimizeSubqueries(child.get());
  if (e->subquery) OptimizeStmt(e->subquery.get());
}

/// A WHERE or HAVING that folds to TRUE filters nothing: drop it.
void FoldPredicate(std::unique_ptr<Expr>* predicate) {
  if (!*predicate) return;
  FoldExpr(predicate->get());
  const Expr& p = **predicate;
  if (p.kind == ExprKind::kLiteral && p.literal.is_bool() &&
      p.literal.bool_value()) {
    predicate->reset();
  }
}

void OptimizeStmt(SelectStmt* stmt) {
  // Select items, GROUP BY and ORDER BY stay as written: their text
  // names the output columns and their literals are ORDER BY ordinals.
  for (SelectItem& item : stmt->items) {
    if (!item.is_star) OptimizeSubqueries(item.expr.get());
  }
  for (auto& g : stmt->group_by) OptimizeSubqueries(g.get());
  for (OrderByItem& ob : stmt->order_by) OptimizeSubqueries(ob.expr.get());
  for (auto& ref : stmt->from) {
    // Derived tables and join conditions.
    std::vector<TableRef*> stack{ref.get()};
    while (!stack.empty()) {
      TableRef* r = stack.back();
      stack.pop_back();
      if (r->subquery) OptimizeStmt(r->subquery.get());
      if (r->join_condition) FoldExpr(r->join_condition.get());
      if (r->left) stack.push_back(r->left.get());
      if (r->right) stack.push_back(r->right.get());
    }
  }
  FoldPredicate(&stmt->where);
  FoldPredicate(&stmt->having);
  if (stmt->set_rhs) OptimizeStmt(stmt->set_rhs.get());
}

}  // namespace

Result<bool> FoldConstants(Expr* expr) { return FoldExpr(expr); }

Status Optimize(SelectStmt* stmt) {
  OptimizeStmt(stmt);
  return Status::OK();
}

// ---------------------------------------------------------------- EXPLAIN

namespace {

void Indent(std::string* out, int depth) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
}

/// ` (rows=N time=Xus loops=K)` annotation for one operator, empty when
/// not analyzing. `with_time` is false for operators whose stats are
/// pure counts (filter, aggregate). `with_note` appends the operator's
/// runtime note (segment/prune counters for scans); joins render their
/// note — the algorithm picked — as the node name instead.
std::string AnalyzeSuffix(const AnalyzeCollector* analyze, const void* node,
                          AnalyzeCollector::Op op, const char* rows_label,
                          bool with_time, bool with_note = false) {
  if (analyze == nullptr) return "";
  const AnalyzeCollector::OperatorStats* stats = analyze->Find(node, op);
  if (stats == nullptr) return " (never executed)";
  std::string out = std::string(" (") + rows_label + "=" +
                    std::to_string(stats->rows);
  if (with_time) out += " time=" + std::to_string(stats->elapsed_micros) + "us";
  if (stats->invocations > 1) {
    out += " loops=" + std::to_string(stats->invocations);
  }
  if (with_note && !stats->note.empty()) out += " " + stats->note;
  return out + ")";
}

void ExplainTableRef(const TableRef& ref, int depth,
                     const AnalyzeCollector* analyze, std::string* out);

void ExplainStmt(const SelectStmt& stmt, int depth,
                 const AnalyzeCollector* analyze, std::string* out) {
  Indent(out, depth);
  *out += "Select";
  if (stmt.distinct) *out += " DISTINCT";
  *out += ": ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) *out += ", ";
    const SelectItem& item = stmt.items[i];
    if (item.is_star) {
      *out += item.star_qualifier.empty() ? "*" : item.star_qualifier + ".*";
    } else {
      *out += item.expr->ToString();
      if (!item.alias.empty()) *out += " AS " + item.alias;
    }
  }
  *out += AnalyzeSuffix(analyze, &stmt, AnalyzeCollector::Op::kOutput, "rows",
                        /*with_time=*/true);
  *out += "\n";
  if (!stmt.from.empty()) {
    Indent(out, depth + 1);
    *out += "From:\n";
    for (const auto& ref : stmt.from) {
      ExplainTableRef(*ref, depth + 2, analyze, out);
    }
  }
  if (stmt.where) {
    Indent(out, depth + 1);
    *out += "Filter: " + stmt.where->ToString();
    *out += AnalyzeSuffix(analyze, &stmt, AnalyzeCollector::Op::kFilter,
                          "rows", /*with_time=*/false);
    *out += "\n";
  }
  if (!stmt.group_by.empty()) {
    Indent(out, depth + 1);
    *out += "Aggregate: group by ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += stmt.group_by[i]->ToString();
    }
    *out += AnalyzeSuffix(analyze, &stmt, AnalyzeCollector::Op::kAggregate,
                          "groups", /*with_time=*/false);
    *out += "\n";
  }
  if (stmt.having) {
    Indent(out, depth + 1);
    *out += "Having: " + stmt.having->ToString() + "\n";
  }
  if (!stmt.order_by.empty()) {
    Indent(out, depth + 1);
    *out += "OrderBy: ";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i > 0) *out += ", ";
      *out += stmt.order_by[i].expr->ToString();
      if (!stmt.order_by[i].ascending) *out += " DESC";
    }
    *out += "\n";
  }
  if (stmt.limit.has_value() || stmt.offset.has_value()) {
    Indent(out, depth + 1);
    *out += "Limit: " +
            (stmt.limit ? std::to_string(*stmt.limit) : std::string("all"));
    if (stmt.offset) *out += " Offset: " + std::to_string(*stmt.offset);
    *out += "\n";
  }
  if (stmt.set_op != SetOp::kNone && stmt.set_rhs) {
    Indent(out, depth + 1);
    switch (stmt.set_op) {
      case SetOp::kUnion:
        *out += "Union:\n";
        break;
      case SetOp::kUnionAll:
        *out += "UnionAll:\n";
        break;
      case SetOp::kIntersect:
        *out += "Intersect:\n";
        break;
      case SetOp::kExcept:
        *out += "Except:\n";
        break;
      case SetOp::kNone:
        break;
    }
    ExplainStmt(*stmt.set_rhs, depth + 2, analyze, out);
  }
}

void ExplainTableRef(const TableRef& ref, int depth,
                     const AnalyzeCollector* analyze, std::string* out) {
  switch (ref.kind) {
    case TableRef::Kind::kTable:
      Indent(out, depth);
      *out += "Scan " + ref.table_name;
      if (!ref.alias.empty()) *out += " AS " + ref.alias;
      *out += AnalyzeSuffix(analyze, &ref, AnalyzeCollector::Op::kScan,
                            "rows", /*with_time=*/true, /*with_note=*/true);
      *out += "\n";
      break;
    case TableRef::Kind::kSubquery:
      Indent(out, depth);
      *out += "Derived AS " + ref.alias + ":";
      *out += AnalyzeSuffix(analyze, &ref, AnalyzeCollector::Op::kScan,
                            "rows", /*with_time=*/true);
      *out += "\n";
      ExplainStmt(*ref.subquery, depth + 1, analyze, out);
      break;
    case TableRef::Kind::kJoin: {
      Indent(out, depth);
      // Static EXPLAIN predicts the pessimistic nested loop; ANALYZE
      // reports the algorithm the adaptive planner actually picked at
      // runtime from the input cardinalities.
      const AnalyzeCollector::OperatorStats* join_stats =
          analyze != nullptr
              ? analyze->Find(&ref, AnalyzeCollector::Op::kJoin)
              : nullptr;
      const std::string algorithm =
          join_stats != nullptr && !join_stats->note.empty()
              ? join_stats->note
              : "NestedLoopJoin";
      const char* kind = ref.join_type == TableRef::JoinType::kInner
                             ? "Inner"
                             : ref.join_type == TableRef::JoinType::kLeft
                                   ? "Left"
                                   : "Cross";
      *out += algorithm + " " + kind;
      if (ref.join_condition) {
        *out += " on " + ref.join_condition->ToString();
      }
      *out += AnalyzeSuffix(analyze, &ref, AnalyzeCollector::Op::kJoin,
                            "rows", /*with_time=*/true);
      *out += "\n";
      ExplainTableRef(*ref.left, depth + 1, analyze, out);
      ExplainTableRef(*ref.right, depth + 1, analyze, out);
      break;
    }
  }
}

}  // namespace

std::string ExplainString(const SelectStmt& stmt) {
  std::string out;
  ExplainStmt(stmt, 0, /*analyze=*/nullptr, &out);
  return out;
}

std::string ExplainAnalyzeString(const SelectStmt& stmt,
                                 const AnalyzeCollector& analyze) {
  std::string out;
  ExplainStmt(stmt, 0, &analyze, &out);
  return out;
}

}  // namespace gsn::sql
