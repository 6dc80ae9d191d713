#include "gsn/sql/scan_predicate.h"

#include <optional>
#include <utility>

#include "gsn/sql/executor.h"
#include "gsn/util/strings.h"

namespace gsn::sql {

std::optional<bool> Truth(BinaryOp op, const Value& lhs, const Value& rhs) {
  Result<Value> v = EvalBinaryValues(op, lhs, rhs);
  if (!v.ok() || v->is_null()) return std::nullopt;
  Result<Value> b = v->CastTo(DataType::kBool);
  if (!b.ok()) return std::nullopt;
  return b->bool_value();
}

namespace {

void SplitTopLevelConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    SplitTopLevelConjuncts(e->children[0].get(), out);
    SplitTopLevelConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

/// True when `e` is a column reference that binds to the scanned table.
bool BindsToScan(const Expr& e, const std::string& alias, bool sole_table) {
  if (e.kind != ExprKind::kColumnRef) return false;
  if (e.qualifier.empty()) return sole_table;
  return StrToLower(e.qualifier) == StrToLower(alias);
}

bool IsNonNullLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral && !e.literal.is_null();
}

ScanBound::Op FlipOp(ScanBound::Op op) {
  switch (op) {
    case ScanBound::Op::kLess: return ScanBound::Op::kGreater;
    case ScanBound::Op::kLessEq: return ScanBound::Op::kGreaterEq;
    case ScanBound::Op::kGreater: return ScanBound::Op::kLess;
    case ScanBound::Op::kGreaterEq: return ScanBound::Op::kLessEq;
    case ScanBound::Op::kEq: return ScanBound::Op::kEq;
  }
  return op;
}

bool ComparisonOp(BinaryOp op, ScanBound::Op* out) {
  switch (op) {
    case BinaryOp::kEq: *out = ScanBound::Op::kEq; return true;
    case BinaryOp::kLess: *out = ScanBound::Op::kLess; return true;
    case BinaryOp::kLessEq: *out = ScanBound::Op::kLessEq; return true;
    case BinaryOp::kGreater: *out = ScanBound::Op::kGreater; return true;
    case BinaryOp::kGreaterEq: *out = ScanBound::Op::kGreaterEq; return true;
    default: return false;
  }
}

/// True for an integral value at or beyond 2^53, where one double
/// stands for more than one integer.
bool BeyondDoublePrecision(const Value& v) {
  constexpr int64_t kExact = int64_t{1} << 53;
  if (!v.is_int() && !v.is_timestamp()) return false;
  const int64_t x = v.is_int() ? v.int_value() : v.timestamp_value();
  return x >= kExact || x <= -kExact;
}

const char* OpName(ScanBound::Op op) {
  switch (op) {
    case ScanBound::Op::kEq: return "=";
    case ScanBound::Op::kLess: return "<";
    case ScanBound::Op::kLessEq: return "<=";
    case ScanBound::Op::kGreater: return ">";
    case ScanBound::Op::kGreaterEq: return ">=";
  }
  return "?";
}

}  // namespace

std::string ScanBound::ToString() const {
  return column + " " + OpName(op) + " " + value.ToString();
}

std::string ScanPredicate::ToString() const {
  std::string out;
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (i > 0) out += " AND ";
    out += bounds[i].ToString();
  }
  return out;
}

ScanPredicate ExtractScanPredicate(const Expr* where, const std::string& alias,
                                   bool sole_table) {
  ScanPredicate pred;
  std::vector<const Expr*> conjuncts;
  SplitTopLevelConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary) {
      ScanBound::Op op;
      if (!ComparisonOp(c->binary_op, &op)) continue;
      const Expr& lhs = *c->children[0];
      const Expr& rhs = *c->children[1];
      if (BindsToScan(lhs, alias, sole_table) && IsNonNullLiteral(rhs)) {
        pred.bounds.push_back(
            ScanBound{StrToLower(lhs.column), op, rhs.literal});
      } else if (BindsToScan(rhs, alias, sole_table) &&
                 IsNonNullLiteral(lhs)) {
        pred.bounds.push_back(
            ScanBound{StrToLower(rhs.column), FlipOp(op), lhs.literal});
      }
    } else if (c->kind == ExprKind::kBetween && !c->negated) {
      // children: [value, lo, hi]
      const Expr& v = *c->children[0];
      if (!BindsToScan(v, alias, sole_table)) continue;
      const std::string column = StrToLower(v.column);
      if (IsNonNullLiteral(*c->children[1])) {
        pred.bounds.push_back(ScanBound{column, ScanBound::Op::kGreaterEq,
                                        c->children[1]->literal});
      }
      if (IsNonNullLiteral(*c->children[2])) {
        pred.bounds.push_back(ScanBound{column, ScanBound::Op::kLessEq,
                                        c->children[2]->literal});
      }
    }
  }
  return pred;
}

bool RangeMayMatch(const Value& min_value, const Value& max_value,
                   const ScanBound& bound) {
  if (min_value.is_null() || max_value.is_null()) return true;
  // Earlier builds compared integers as doubles, so a zone they wrote
  // may hold, at or beyond 2^53, the wrong one of two integers that
  // share a double. Such zones prune nothing.
  if (BeyondDoublePrecision(min_value) || BeyondDoublePrecision(max_value)) {
    return true;
  }
  std::optional<bool> t;
  switch (bound.op) {
    case ScanBound::Op::kEq:
      // value inside [min, max]?
      t = Truth(BinaryOp::kLess, bound.value, min_value);
      if (t.has_value() && *t) return false;
      t = Truth(BinaryOp::kGreater, bound.value, max_value);
      if (t.has_value() && *t) return false;
      return true;
    case ScanBound::Op::kLess:
      t = Truth(BinaryOp::kLess, min_value, bound.value);
      break;
    case ScanBound::Op::kLessEq:
      t = Truth(BinaryOp::kLessEq, min_value, bound.value);
      break;
    case ScanBound::Op::kGreater:
      t = Truth(BinaryOp::kGreater, max_value, bound.value);
      break;
    case ScanBound::Op::kGreaterEq:
      t = Truth(BinaryOp::kGreaterEq, max_value, bound.value);
      break;
  }
  // Undecidable comparisons keep the chunk (conservative).
  return !t.has_value() || *t;
}

}  // namespace gsn::sql
