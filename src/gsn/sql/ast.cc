#include "gsn/sql/ast.h"

#include "gsn/util/strings.h"

namespace gsn::sql {

namespace {
const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kConcat:
      return "||";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNotEq:
      return "<>";
    case BinaryOp::kLess:
      return "<";
    case BinaryOp::kLessEq:
      return "<=";
    case BinaryOp::kGreater:
      return ">";
    case BinaryOp::kGreaterEq:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
    case BinaryOp::kNotLike:
      return "NOT LIKE";
  }
  return "?";
}
}  // namespace

std::unique_ptr<Expr> MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> MakeColumnRef(std::string qualifier,
                                    std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

std::unique_ptr<Expr> MakeBinary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                 std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

std::unique_ptr<Expr> MakeUnary(UnaryOp op, std::unique_ptr<Expr> operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

bool IsAggregateFunction(std::string_view upper_name) {
  return upper_name == "COUNT" || upper_name == "SUM" ||
         upper_name == "AVG" || upper_name == "MIN" || upper_name == "MAX" ||
         upper_name == "STDDEV" || upper_name == "VARIANCE";
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == ExprKind::kFunctionCall && IsAggregateFunction(e.function)) {
    return true;
  }
  for (const auto& child : e.children) {
    if (child && ContainsAggregate(*child)) return true;
  }
  return false;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.is_string()) return "'" + literal.ToString() + "'";
      return literal.ToString();
    case ExprKind::kColumnRef:
      return qualifier.empty() ? column : qualifier + "." + column;
    case ExprKind::kUnary:
      return (unary_op == UnaryOp::kNot ? "NOT " : "-") +
             children[0]->ToString();
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " + BinaryOpName(binary_op) +
             " " + children[1]->ToString() + ")";
    case ExprKind::kFunctionCall: {
      std::string out = function + "(";
      if (distinct) out += "DISTINCT ";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kBetween:
      return children[0]->ToString() +
             (negated ? " NOT BETWEEN " : " BETWEEN ") +
             children[1]->ToString() + " AND " + children[2]->ToString();
    case ExprKind::kInList: {
      std::string out =
          children[0]->ToString() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kInSubquery:
      return children[0]->ToString() + (negated ? " NOT IN (" : " IN (") +
             subquery->ToString() + ")";
    case ExprKind::kExists:
      return std::string(negated ? "NOT " : "") + "EXISTS (" +
             subquery->ToString() + ")";
    case ExprKind::kScalarSubquery:
      return "(" + subquery->ToString() + ")";
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t idx = 0;
      if (case_has_operand) out += " " + children[idx++]->ToString();
      for (size_t w = 0; w < case_num_whens; ++w) {
        out += " WHEN " + children[idx]->ToString();
        out += " THEN " + children[idx + 1]->ToString();
        idx += 2;
      }
      if (case_has_else) out += " ELSE " + children[idx]->ToString();
      return out + " END";
    }
    case ExprKind::kCast:
      return "CAST(" + children[0]->ToString() + " AS " +
             DataTypeName(cast_type) + ")";
    case ExprKind::kStar:
      return "*";
  }
  return "?";
}

std::string TableRef::ToString() const {
  switch (kind) {
    case Kind::kTable:
      return alias.empty() ? table_name : table_name + " AS " + alias;
    case Kind::kSubquery:
      return "(" + subquery->ToString() + ") AS " + alias;
    case Kind::kJoin: {
      const char* jt = join_type == JoinType::kInner  ? " JOIN "
                       : join_type == JoinType::kLeft ? " LEFT JOIN "
                                                      : " CROSS JOIN ";
      std::string out = left->ToString() + jt + right->ToString();
      if (join_condition) out += " ON " + join_condition->ToString();
      return out;
    }
  }
  return "?";
}

std::string SelectStmt::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    const SelectItem& item = items[i];
    if (item.is_star) {
      out += item.star_qualifier.empty() ? "*" : item.star_qualifier + ".*";
    } else {
      out += item.expr->ToString();
      if (!item.alias.empty()) out += " AS " + item.alias;
    }
  }
  if (!from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      if (i > 0) out += ", ";
      out += from[i]->ToString();
    }
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (!order_by[i].ascending) out += " DESC";
    }
  }
  if (limit.has_value()) out += " LIMIT " + std::to_string(*limit);
  if (offset.has_value()) out += " OFFSET " + std::to_string(*offset);
  if (set_op != SetOp::kNone && set_rhs) {
    const char* op = set_op == SetOp::kUnion      ? " UNION "
                     : set_op == SetOp::kUnionAll ? " UNION ALL "
                     : set_op == SetOp::kIntersect ? " INTERSECT "
                                                   : " EXCEPT ";
    out += op + set_rhs->ToString();
  }
  return out;
}

}  // namespace gsn::sql
