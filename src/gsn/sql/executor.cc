#include "gsn/sql/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>

#include "gsn/sql/incremental.h"
#include "gsn/sql/parser.h"
#include "gsn/telemetry/metrics.h"
#include "gsn/util/strings.h"

namespace gsn::sql {

// ---------------------------------------------------------------------------
// MapResolver
// ---------------------------------------------------------------------------

void MapResolver::Put(const std::string& name, Relation relation) {
  tables_[StrToLower(name)] = std::move(relation);
}

Result<Relation> MapResolver::GetTable(const std::string& name) const {
  auto it = tables_.find(StrToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Column resolution
// ---------------------------------------------------------------------------

namespace {

/// Thread-local EXPLAIN ANALYZE sink, installed by Executor::Execute
/// for its dynamic extent. The recursive execution functions report
/// into it without threading a parameter through every signature, and
/// concurrent executions of shared AST nodes (prepared-statement cache)
/// each see only their own thread's collector. Null — the common case —
/// costs one thread-local load per operator.
thread_local AnalyzeCollector* t_analyze = nullptr;

/// Wall micros for analyze timings; only called when a collector is
/// installed.
int64_t AnalyzeNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Splits a (possibly qualified) field name into qualifier and base.
void SplitFieldName(std::string_view field, std::string_view* qualifier,
                    std::string_view* base) {
  const size_t dot = field.rfind('.');
  if (dot == std::string_view::npos) {
    *qualifier = std::string_view();
    *base = field;
  } else {
    *qualifier = field.substr(0, dot);
    *base = field.substr(dot + 1);
  }
}

/// Finds the index of column `qualifier.column` in `schema`.
/// Returns NotFound if absent, InvalidArgument if ambiguous.
Result<size_t> ResolveColumn(const Schema& schema, std::string_view qualifier,
                             std::string_view column) {
  size_t found = schema.size();
  int matches = 0;
  for (size_t i = 0; i < schema.size(); ++i) {
    std::string_view fq, base;
    SplitFieldName(schema.field(i).name, &fq, &base);
    bool match;
    if (qualifier.empty()) {
      match = StrEqualsIgnoreCase(base, column) ||
              StrEqualsIgnoreCase(schema.field(i).name, column);
    } else {
      match = StrEqualsIgnoreCase(fq, qualifier) &&
              StrEqualsIgnoreCase(base, column);
    }
    if (match) {
      // The same physical column can match twice via base/full name.
      if (found == i) continue;
      found = i;
      ++matches;
    }
  }
  if (matches == 0) {
    const std::string full = qualifier.empty()
                                 ? std::string(column)
                                 : std::string(qualifier) + "." +
                                       std::string(column);
    return Status::NotFound("column not found: " + full);
  }
  if (matches > 1) {
    return Status::InvalidArgument("ambiguous column: " + std::string(column));
  }
  return found;
}

/// One group's aggregate results: `values[i]` is the value of
/// `(*aggs)[i]` over the group.
struct AggEnv {
  const std::vector<const Expr*>* aggs = nullptr;
  const Value* values = nullptr;

  const Value* Find(const Expr* agg) const {
    for (size_t i = 0; i < aggs->size(); ++i) {
      if ((*aggs)[i] == agg) return &values[i];
    }
    return nullptr;
  }
};

/// A row being evaluated, with an optional outer scope chain (for
/// correlated subqueries) and an aggregate environment (for grouped
/// evaluation).
struct RowBinding {
  const Schema* schema = nullptr;
  const Relation::Row* row = nullptr;
  const RowBinding* outer = nullptr;
  const AggEnv* agg_env = nullptr;
};

}  // namespace

// ---------------------------------------------------------------------------
// Value-level operator semantics
// ---------------------------------------------------------------------------

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer matcher with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' ||
         std::tolower(static_cast<unsigned char>(pattern[p])) ==
             std::tolower(static_cast<unsigned char>(text[t])))) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

/// Ints, bools and timestamps: compared and computed as int64.
bool IsIntegral(const Value& v) {
  return v.is_int() || v.is_bool() || v.is_timestamp();
}

Result<Value> CompareValues(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  // Numeric (incl. bool) and timestamp values compare numerically,
  // exactly when both are integral; strings and binaries compare
  // within their kind.
  int cmp;
  const bool lhs_num = lhs.is_numeric() || lhs.is_timestamp();
  const bool rhs_num = rhs.is_numeric() || rhs.is_timestamp();
  if (IsIntegral(lhs) && IsIntegral(rhs)) {
    GSN_ASSIGN_OR_RETURN(int64_t a, lhs.AsInt());
    GSN_ASSIGN_OR_RETURN(int64_t b, rhs.AsInt());
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs_num && rhs_num) {
    GSN_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
    GSN_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (lhs.is_string() && rhs.is_string()) {
    cmp = lhs.string_value().compare(rhs.string_value());
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  } else if (lhs.is_binary() && rhs.is_binary()) {
    cmp = lhs.Compare(rhs);
  } else {
    return Status::ExecutionError("cannot compare " + lhs.ToString() +
                                  " with " + rhs.ToString());
  }
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(cmp == 0);
    case BinaryOp::kNotEq:
      return Value::Bool(cmp != 0);
    case BinaryOp::kLess:
      return Value::Bool(cmp < 0);
    case BinaryOp::kLessEq:
      return Value::Bool(cmp <= 0);
    case BinaryOp::kGreater:
      return Value::Bool(cmp > 0);
    case BinaryOp::kGreaterEq:
      return Value::Bool(cmp >= 0);
    default:
      return Status::Internal("not a comparison op");
  }
}

Result<Value> ArithmeticValues(BinaryOp op, const Value& lhs,
                               const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  // Timestamp +/- integer stays a timestamp (paper §3: time attributes
  // "can be manipulated through SQL queries").
  const bool ts_result = (lhs.is_timestamp() || rhs.is_timestamp()) &&
                         (op == BinaryOp::kAdd || op == BinaryOp::kSub);
  if (IsIntegral(lhs) && IsIntegral(rhs)) {
    GSN_ASSIGN_OR_RETURN(int64_t a, lhs.AsInt());
    GSN_ASSIGN_OR_RETURN(int64_t b, rhs.AsInt());
    int64_t r = 0;
    switch (op) {
      case BinaryOp::kAdd:
        r = a + b;
        break;
      case BinaryOp::kSub:
        r = a - b;
        break;
      case BinaryOp::kMul:
        r = a * b;
        break;
      case BinaryOp::kDiv:
        if (b == 0) return Status::ExecutionError("division by zero");
        r = a / b;
        break;
      case BinaryOp::kMod:
        if (b == 0) return Status::ExecutionError("modulo by zero");
        r = a % b;
        break;
      default:
        return Status::Internal("not an arithmetic op");
    }
    return ts_result ? Value::TimestampVal(r) : Value::Int(r);
  }
  GSN_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
  GSN_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Double(a + b);
    case BinaryOp::kSub:
      return Value::Double(a - b);
    case BinaryOp::kMul:
      return Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0) return Status::ExecutionError("division by zero");
      return Value::Double(a / b);
    case BinaryOp::kMod:
      if (b == 0) return Status::ExecutionError("modulo by zero");
      return Value::Double(std::fmod(a, b));
    default:
      return Status::Internal("not an arithmetic op");
  }
}

}  // namespace

Result<Value> EvalBinaryValues(BinaryOp op, const Value& lhs,
                               const Value& rhs) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return ArithmeticValues(op, lhs, rhs);
    case BinaryOp::kEq:
    case BinaryOp::kNotEq:
    case BinaryOp::kLess:
    case BinaryOp::kLessEq:
    case BinaryOp::kGreater:
    case BinaryOp::kGreaterEq:
      return CompareValues(op, lhs, rhs);
    case BinaryOp::kConcat: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::String(lhs.ToString() + rhs.ToString());
    }
    case BinaryOp::kLike:
    case BinaryOp::kNotLike: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      if (!lhs.is_string() || !rhs.is_string()) {
        return Status::ExecutionError("LIKE requires string operands");
      }
      const bool m = LikeMatch(lhs.string_value(), rhs.string_value());
      return Value::Bool(op == BinaryOp::kLike ? m : !m);
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return Status::Internal("AND/OR handled by evaluator");
  }
  return Status::Internal("unhandled binary op");
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

namespace {

class Evaluator;

/// Internal executor entry point that threads the outer binding for
/// correlated subqueries.
Result<Relation> ExecuteStmt(const TableResolver* resolver,
                             const SelectStmt& stmt, const RowBinding* outer);

class Evaluator {
 public:
  explicit Evaluator(const TableResolver* resolver) : resolver_(resolver) {}

  Result<Value> Eval(const Expr& e, const RowBinding& binding) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kColumnRef:
        return EvalColumnRef(e, binding);
      case ExprKind::kUnary:
        return EvalUnary(e, binding);
      case ExprKind::kBinary:
        return EvalBinary(e, binding);
      case ExprKind::kFunctionCall:
        return EvalFunction(e, binding);
      case ExprKind::kIsNull: {
        GSN_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], binding));
        return Value::Bool(v.is_null() != e.negated);
      }
      case ExprKind::kBetween:
        return EvalBetween(e, binding);
      case ExprKind::kInList:
        return EvalInList(e, binding);
      case ExprKind::kInSubquery:
        return EvalInSubquery(e, binding);
      case ExprKind::kExists: {
        GSN_ASSIGN_OR_RETURN(
            Relation rel, ExecuteStmt(resolver_, *e.subquery, &binding));
        return Value::Bool(!rel.empty() != e.negated ? true : false);
      }
      case ExprKind::kScalarSubquery: {
        GSN_ASSIGN_OR_RETURN(
            Relation rel, ExecuteStmt(resolver_, *e.subquery, &binding));
        if (rel.empty()) return Value::Null();
        if (rel.NumRows() > 1) {
          return Status::ExecutionError(
              "scalar subquery returned more than one row");
        }
        if (rel.schema().size() != 1) {
          return Status::ExecutionError(
              "scalar subquery must return one column");
        }
        return rel.rows()[0][0];
      }
      case ExprKind::kCase:
        return EvalCase(e, binding);
      case ExprKind::kCast: {
        GSN_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], binding));
        return v.CastTo(e.cast_type);
      }
      case ExprKind::kStar:
        return Status::ExecutionError("'*' is only valid inside COUNT(*)");
    }
    return Status::Internal("unhandled expression kind");
  }

 private:
  /// Where a column reference finds its value: `depth` outer hops up the
  /// binding chain, at `slot` of that row.
  struct ColumnSlot {
    const Expr* ref;
    const Schema* schema;  // innermost schema of the chain it resolved on
    size_t depth;
    size_t slot;
  };

  /// Resolves `e` by name against the chain, innermost scope first; an
  /// ambiguous match is reported rather than masked by an outer scope.
  static Result<ColumnSlot> ResolveSlot(const Expr& e,
                                        const RowBinding& binding) {
    size_t depth = 0;
    for (const RowBinding* b = &binding; b != nullptr; b = b->outer, ++depth) {
      if (b->schema == nullptr) continue;
      Result<size_t> idx = ResolveColumn(*b->schema, e.qualifier, e.column);
      if (idx.ok()) return ColumnSlot{&e, binding.schema, depth, *idx};
      if (idx.status().code() == StatusCode::kInvalidArgument) {
        return idx.status();
      }
    }
    const std::string full =
        e.qualifier.empty() ? e.column : e.qualifier + "." + e.column;
    return Status::NotFound("column not found: " + full);
  }

  /// Name resolution runs once per (reference, innermost schema); later
  /// rows index by slot. Every caller binds a given schema under one
  /// fixed outer chain for the evaluator's life, so the pair pins the
  /// resolution. Few references per statement make a scan the cheapest
  /// lookup.
  Result<Value> EvalColumnRef(const Expr& e, const RowBinding& binding) {
    const ColumnSlot* hit = nullptr;
    for (const ColumnSlot& s : slots_) {
      if (s.ref == &e && s.schema == binding.schema) {
        hit = &s;
        break;
      }
    }
    if (hit == nullptr) {
      GSN_ASSIGN_OR_RETURN(ColumnSlot resolved, ResolveSlot(e, binding));
      slots_.push_back(resolved);
      hit = &slots_.back();
    }
    const RowBinding* b = &binding;
    for (size_t d = 0; d < hit->depth; ++d) b = b->outer;
    return (*b->row)[hit->slot];
  }

  Result<Value> EvalUnary(const Expr& e, const RowBinding& binding) {
    GSN_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], binding));
    if (e.unary_op == UnaryOp::kNot) {
      if (v.is_null()) return Value::Null();
      GSN_ASSIGN_OR_RETURN(Value b, v.CastTo(DataType::kBool));
      return Value::Bool(!b.bool_value());
    }
    // Negation.
    if (v.is_null()) return Value::Null();
    if (v.is_int()) return Value::Int(-v.int_value());
    if (v.is_double()) return Value::Double(-v.double_value());
    return Status::ExecutionError("cannot negate " + v.ToString());
  }

  Result<Value> EvalBinary(const Expr& e, const RowBinding& binding) {
    // Kleene logic with short-circuiting for AND/OR.
    if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
      GSN_ASSIGN_OR_RETURN(Value lv, Eval(*e.children[0], binding));
      Result<Value> lb = lv.is_null() ? Result<Value>(Value::Null())
                                      : lv.CastTo(DataType::kBool);
      GSN_RETURN_IF_ERROR(lb.status());
      const bool l_known = !lb->is_null();
      if (e.binary_op == BinaryOp::kAnd) {
        if (l_known && !lb->bool_value()) return Value::Bool(false);
      } else {
        if (l_known && lb->bool_value()) return Value::Bool(true);
      }
      GSN_ASSIGN_OR_RETURN(Value rv, Eval(*e.children[1], binding));
      Result<Value> rb = rv.is_null() ? Result<Value>(Value::Null())
                                      : rv.CastTo(DataType::kBool);
      GSN_RETURN_IF_ERROR(rb.status());
      const bool r_known = !rb->is_null();
      if (e.binary_op == BinaryOp::kAnd) {
        if (r_known && !rb->bool_value()) return Value::Bool(false);
        if (l_known && r_known) return Value::Bool(true);
      } else {
        if (r_known && rb->bool_value()) return Value::Bool(true);
        if (l_known && r_known) return Value::Bool(false);
      }
      return Value::Null();
    }
    GSN_ASSIGN_OR_RETURN(Value lhs, Eval(*e.children[0], binding));
    GSN_ASSIGN_OR_RETURN(Value rhs, Eval(*e.children[1], binding));
    return EvalBinaryValues(e.binary_op, lhs, rhs);
  }

  Result<Value> EvalBetween(const Expr& e, const RowBinding& binding) {
    GSN_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], binding));
    GSN_ASSIGN_OR_RETURN(Value lo, Eval(*e.children[1], binding));
    GSN_ASSIGN_OR_RETURN(Value hi, Eval(*e.children[2], binding));
    GSN_ASSIGN_OR_RETURN(Value ge, CompareValues(BinaryOp::kGreaterEq, v, lo));
    GSN_ASSIGN_OR_RETURN(Value le, CompareValues(BinaryOp::kLessEq, v, hi));
    if (ge.is_null() || le.is_null()) return Value::Null();
    const bool in = ge.bool_value() && le.bool_value();
    return Value::Bool(in != e.negated);
  }

  Result<Value> EvalInList(const Expr& e, const RowBinding& binding) {
    GSN_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], binding));
    if (v.is_null()) return Value::Null();
    bool saw_null = false;
    for (size_t i = 1; i < e.children.size(); ++i) {
      GSN_ASSIGN_OR_RETURN(Value item, Eval(*e.children[i], binding));
      GSN_ASSIGN_OR_RETURN(Value eq, CompareValues(BinaryOp::kEq, v, item));
      if (eq.is_null()) {
        saw_null = true;
      } else if (eq.bool_value()) {
        return Value::Bool(!e.negated);
      }
    }
    if (saw_null) return Value::Null();
    return Value::Bool(e.negated);
  }

  Result<Value> EvalInSubquery(const Expr& e,
                               const RowBinding& binding) {
    GSN_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], binding));
    if (v.is_null()) return Value::Null();
    GSN_ASSIGN_OR_RETURN(Relation rel,
                         ExecuteStmt(resolver_, *e.subquery, &binding));
    if (rel.schema().size() != 1) {
      return Status::ExecutionError("IN subquery must return one column");
    }
    bool saw_null = false;
    for (const auto& row : rel.rows()) {
      GSN_ASSIGN_OR_RETURN(Value eq, CompareValues(BinaryOp::kEq, v, row[0]));
      if (eq.is_null()) {
        saw_null = true;
      } else if (eq.bool_value()) {
        return Value::Bool(!e.negated);
      }
    }
    if (saw_null) return Value::Null();
    return Value::Bool(e.negated);
  }

  Result<Value> EvalCase(const Expr& e, const RowBinding& binding) {
    size_t idx = 0;
    Value operand;
    if (e.case_has_operand) {
      GSN_ASSIGN_OR_RETURN(operand, Eval(*e.children[idx++], binding));
    }
    for (size_t w = 0; w < e.case_num_whens; ++w) {
      GSN_ASSIGN_OR_RETURN(Value when, Eval(*e.children[idx], binding));
      bool hit = false;
      if (e.case_has_operand) {
        GSN_ASSIGN_OR_RETURN(Value eq,
                             CompareValues(BinaryOp::kEq, operand, when));
        hit = !eq.is_null() && eq.bool_value();
      } else if (!when.is_null()) {
        GSN_ASSIGN_OR_RETURN(Value b, when.CastTo(DataType::kBool));
        hit = b.bool_value();
      }
      if (hit) return Eval(*e.children[idx + 1], binding);
      idx += 2;
    }
    if (e.case_has_else) return Eval(*e.children[idx], binding);
    return Value::Null();
  }

  Result<Value> EvalFunction(const Expr& e, const RowBinding& binding) {
    if (IsAggregateFunction(e.function)) {
      for (const RowBinding* b = &binding; b != nullptr; b = b->outer) {
        if (b->agg_env != nullptr) {
          if (const Value* v = b->agg_env->Find(&e)) return *v;
        }
      }
      return Status::ExecutionError("aggregate " + e.function +
                                    " not allowed in this context");
    }
    std::vector<Value> args;
    args.reserve(e.children.size());
    for (const auto& child : e.children) {
      GSN_ASSIGN_OR_RETURN(Value v, Eval(*child, binding));
      args.push_back(std::move(v));
    }
    return EvalScalarFunction(e.function, args);
  }

  Result<Value> EvalScalarFunction(const std::string& name,
                                   const std::vector<Value>& args) const {
    auto require_args = [&](size_t lo, size_t hi) -> Status {
      if (args.size() < lo || args.size() > hi) {
        return Status::ExecutionError(name + ": wrong number of arguments");
      }
      return Status::OK();
    };
    // NULL-propagating numeric helpers.
    if (name == "ABS" || name == "SIGN" || name == "FLOOR" ||
        name == "CEIL" || name == "CEILING" || name == "SQRT") {
      GSN_RETURN_IF_ERROR(require_args(1, 1));
      if (args[0].is_null()) return Value::Null();
      if (name == "ABS") {
        if (args[0].is_int()) return Value::Int(std::abs(args[0].int_value()));
        GSN_ASSIGN_OR_RETURN(double d, args[0].AsDouble());
        return Value::Double(std::fabs(d));
      }
      GSN_ASSIGN_OR_RETURN(double d, args[0].AsDouble());
      if (name == "SIGN") return Value::Int(d > 0 ? 1 : (d < 0 ? -1 : 0));
      if (name == "FLOOR") {
        return Value::Int(static_cast<int64_t>(std::floor(d)));
      }
      if (name == "SQRT") {
        if (d < 0) return Status::ExecutionError("SQRT of negative value");
        return Value::Double(std::sqrt(d));
      }
      return Value::Int(static_cast<int64_t>(std::ceil(d)));
    }
    if (name == "ROUND") {
      GSN_RETURN_IF_ERROR(require_args(1, 2));
      if (args[0].is_null()) return Value::Null();
      GSN_ASSIGN_OR_RETURN(double d, args[0].AsDouble());
      int64_t digits = 0;
      if (args.size() == 2) {
        if (args[1].is_null()) return Value::Null();
        GSN_ASSIGN_OR_RETURN(digits, args[1].AsInt());
      }
      const double scale = std::pow(10.0, static_cast<double>(digits));
      const double r = std::round(d * scale) / scale;
      if (args.size() == 1 && args[0].is_int()) {
        return Value::Int(args[0].int_value());
      }
      return args.size() == 1 ? Value::Int(static_cast<int64_t>(r))
                              : Value::Double(r);
    }
    if (name == "POWER" || name == "POW") {
      GSN_RETURN_IF_ERROR(require_args(2, 2));
      if (args[0].is_null() || args[1].is_null()) return Value::Null();
      GSN_ASSIGN_OR_RETURN(double a, args[0].AsDouble());
      GSN_ASSIGN_OR_RETURN(double b, args[1].AsDouble());
      return Value::Double(std::pow(a, b));
    }
    if (name == "MOD") {
      GSN_RETURN_IF_ERROR(require_args(2, 2));
      return ArithmeticValues(BinaryOp::kMod, args[0], args[1]);
    }
    if (name == "LENGTH" || name == "OCTET_LENGTH") {
      GSN_RETURN_IF_ERROR(require_args(1, 1));
      if (args[0].is_null()) return Value::Null();
      if (args[0].is_string()) {
        return Value::Int(static_cast<int64_t>(args[0].string_value().size()));
      }
      if (args[0].is_binary()) {
        return Value::Int(static_cast<int64_t>(args[0].binary_value()->size()));
      }
      return Value::Int(static_cast<int64_t>(args[0].ToString().size()));
    }
    if (name == "UPPER" || name == "LOWER") {
      GSN_RETURN_IF_ERROR(require_args(1, 1));
      if (args[0].is_null()) return Value::Null();
      const std::string s =
          args[0].is_string() ? args[0].string_value() : args[0].ToString();
      return Value::String(name == "UPPER" ? StrToUpper(s) : StrToLower(s));
    }
    if (name == "TRIM") {
      GSN_RETURN_IF_ERROR(require_args(1, 1));
      if (args[0].is_null()) return Value::Null();
      return Value::String(StrTrim(args[0].ToString()));
    }
    if (name == "SUBSTR" || name == "SUBSTRING") {
      GSN_RETURN_IF_ERROR(require_args(2, 3));
      if (args[0].is_null() || args[1].is_null()) return Value::Null();
      const std::string s =
          args[0].is_string() ? args[0].string_value() : args[0].ToString();
      GSN_ASSIGN_OR_RETURN(int64_t start, args[1].AsInt());
      int64_t len = static_cast<int64_t>(s.size());
      if (args.size() == 3) {
        if (args[2].is_null()) return Value::Null();
        GSN_ASSIGN_OR_RETURN(len, args[2].AsInt());
      }
      if (start < 1) start = 1;  // SQL is 1-based
      if (start > static_cast<int64_t>(s.size()) || len <= 0) {
        return Value::String("");
      }
      return Value::String(
          s.substr(static_cast<size_t>(start - 1),
                   static_cast<size_t>(len)));
    }
    if (name == "CONCAT") {
      std::string out;
      for (const Value& v : args) {
        if (v.is_null()) return Value::Null();
        out += v.ToString();
      }
      return Value::String(std::move(out));
    }
    if (name == "COALESCE") {
      for (const Value& v : args) {
        if (!v.is_null()) return v;
      }
      return Value::Null();
    }
    if (name == "NULLIF") {
      GSN_RETURN_IF_ERROR(require_args(2, 2));
      GSN_ASSIGN_OR_RETURN(Value eq,
                           CompareValues(BinaryOp::kEq, args[0], args[1]));
      if (!eq.is_null() && eq.bool_value()) return Value::Null();
      return args[0];
    }
    if (name == "LEAST" || name == "GREATEST") {
      if (args.empty()) return Status::ExecutionError(name + ": no arguments");
      Value best;
      for (const Value& v : args) {
        if (v.is_null()) return Value::Null();
        if (best.is_null()) {
          best = v;
          continue;
        }
        GSN_ASSIGN_OR_RETURN(
            Value cmp, CompareValues(name == "LEAST" ? BinaryOp::kLess
                                                     : BinaryOp::kGreater,
                                     v, best));
        if (!cmp.is_null() && cmp.bool_value()) best = v;
      }
      return best;
    }
    return Status::ExecutionError("unknown function: " + name);
  }

  const TableResolver* resolver_;
  std::vector<ColumnSlot> slots_;
};

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// Collects aggregate calls in an expression tree, not descending into
/// subqueries (those compute their own aggregates).
void CollectAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFunctionCall && IsAggregateFunction(e.function)) {
    out->push_back(&e);
    return;  // nested aggregates are invalid; treat args as opaque
  }
  for (const auto& child : e.children) {
    if (child) CollectAggregates(*child, out);
  }
}

struct ValueVectorLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.Compare(b) < 0;
  }
};

/// Computes one aggregate over the rows of a group. COUNT/SUM/AVG/MIN/MAX
/// fold each value as it is evaluated; DISTINCT, STDDEV and VARIANCE
/// gather the non-NULL values first.
Result<Value> ComputeAggregate(Evaluator& eval, const Expr& agg,
                               const Schema& schema,
                               const Relation::RowList& rows,
                               const RowBinding* outer) {
  const std::string& fn = agg.function;
  if (fn == "COUNT" && !agg.children.empty() &&
      agg.children[0]->kind == ExprKind::kStar) {
    return Value::Int(static_cast<int64_t>(rows.size()));
  }
  if (agg.children.size() != 1) {
    return Status::ExecutionError(fn + " takes exactly one argument");
  }
  const std::optional<Fold::Kind> kind = Fold::KindOf(fn);
  const bool streams = kind.has_value() && !agg.distinct;
  Fold fold(kind.value_or(Fold::Kind::kCount));
  std::vector<Value> values;
  if (!streams) values.reserve(rows.size());
  for (const Relation::SharedRow& row : rows) {
    RowBinding binding{&schema, row.get(), outer, nullptr};
    GSN_ASSIGN_OR_RETURN(Value v, eval.Eval(*agg.children[0], binding));
    if (v.is_null()) continue;
    if (streams) {
      fold.Add(v);
    } else {
      values.push_back(std::move(v));
    }
  }
  if (streams) return fold.Finish();
  if (agg.distinct) {
    std::set<Value, ValueLess> uniq(values.begin(), values.end());
    values.assign(uniq.begin(), uniq.end());
  }
  if (kind.has_value()) {
    for (const Value& v : values) fold.Add(v);
    return fold.Finish();
  }
  if (fn != "STDDEV" && fn != "VARIANCE") {
    return Status::ExecutionError("unknown aggregate: " + fn);
  }
  if (values.empty()) return Value::Null();
  double sum = 0;
  for (const Value& v : values) {
    GSN_ASSIGN_OR_RETURN(double d, v.AsDouble());
    sum += d;
  }
  const double mean = sum / static_cast<double>(values.size());
  double sq = 0;
  for (const Value& v : values) {
    GSN_ASSIGN_OR_RETURN(double d, v.AsDouble());
    sq += (d - mean) * (d - mean);
  }
  // Sample variance (n-1), matching MySQL's STDDEV_SAMP family used
  // by GSN deployments; single-element groups yield 0.
  const double var =
      values.size() > 1 ? sq / static_cast<double>(values.size() - 1) : 0.0;
  return fn == "VARIANCE" ? Value::Double(var) : Value::Double(std::sqrt(var));
}

// ---------------------------------------------------------------------------
// Type inference
// ---------------------------------------------------------------------------

DataType InferTypeOrDefault(const Expr& e, const Schema& input);

DataType InferFunctionType(const Expr& e, const Schema& input) {
  const std::string& fn = e.function;
  if (fn == "COUNT" || fn == "LENGTH" || fn == "OCTET_LENGTH" ||
      fn == "SIGN" || fn == "FLOOR" || fn == "CEIL" || fn == "CEILING") {
    return DataType::kInt;
  }
  if (fn == "AVG" || fn == "STDDEV" || fn == "VARIANCE" || fn == "SQRT" ||
      fn == "POWER" || fn == "POW") {
    return DataType::kDouble;
  }
  if (fn == "UPPER" || fn == "LOWER" || fn == "TRIM" || fn == "SUBSTR" ||
      fn == "SUBSTRING" || fn == "CONCAT") {
    return DataType::kString;
  }
  if (!e.children.empty() && e.children[0]->kind != ExprKind::kStar) {
    return InferTypeOrDefault(*e.children[0], input);
  }
  return DataType::kString;
}

DataType InferTypeOrDefault(const Expr& e, const Schema& input) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      Result<DataType> t = e.literal.type();
      return t.ok() ? *t : DataType::kString;
    }
    case ExprKind::kColumnRef: {
      Result<size_t> idx = ResolveColumn(input, e.qualifier, e.column);
      if (idx.ok()) return input.field(*idx).type;
      return DataType::kString;  // outer-scope ref; resolved at runtime
    }
    case ExprKind::kUnary:
      if (e.unary_op == UnaryOp::kNot) return DataType::kBool;
      return InferTypeOrDefault(*e.children[0], input);
    case ExprKind::kBinary: {
      switch (e.binary_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLess:
        case BinaryOp::kLessEq:
        case BinaryOp::kGreater:
        case BinaryOp::kGreaterEq:
        case BinaryOp::kLike:
        case BinaryOp::kNotLike:
          return DataType::kBool;
        case BinaryOp::kConcat:
          return DataType::kString;
        default: {
          const DataType l = InferTypeOrDefault(*e.children[0], input);
          const DataType r = InferTypeOrDefault(*e.children[1], input);
          if ((l == DataType::kTimestamp || r == DataType::kTimestamp) &&
              (e.binary_op == BinaryOp::kAdd ||
               e.binary_op == BinaryOp::kSub)) {
            return DataType::kTimestamp;
          }
          if (l == DataType::kDouble || r == DataType::kDouble) {
            return DataType::kDouble;
          }
          return DataType::kInt;
        }
      }
    }
    case ExprKind::kFunctionCall:
      return InferFunctionType(e, input);
    case ExprKind::kIsNull:
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kInSubquery:
    case ExprKind::kExists:
      return DataType::kBool;
    case ExprKind::kScalarSubquery: {
      if (e.subquery && e.subquery->items.size() == 1 &&
          !e.subquery->items[0].is_star) {
        return InferTypeOrDefault(*e.subquery->items[0].expr, Schema());
      }
      return DataType::kString;
    }
    case ExprKind::kCase: {
      const size_t first_then = e.case_has_operand ? 2 : 1;
      if (first_then < e.children.size()) {
        return InferTypeOrDefault(*e.children[first_then], input);
      }
      return DataType::kString;
    }
    case ExprKind::kCast:
      return e.cast_type;
    case ExprKind::kStar:
      return DataType::kInt;
  }
  return DataType::kString;
}

}  // namespace

Result<DataType> InferType(const Expr& expr, const Schema& input) {
  return InferTypeOrDefault(expr, input);
}

Result<Value> EvaluateConstant(const Expr& expr) {
  // Never a real resolver: a subquery over a real table would freeze
  // its rows into a cached prepared statement.
  const MapResolver no_tables;
  Evaluator eval(&no_tables);
  return eval.Eval(expr, RowBinding{});
}

// ---------------------------------------------------------------------------
// Execution pipeline
// ---------------------------------------------------------------------------

namespace {

/// Output column name for a select item: alias > column name > rendered
/// expression.
std::string OutputName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
  return StrToLower(item.expr->ToString());
}

/// The schema of `stmt`'s select list over `in_schema`: a star expands
/// to the base names of the input columns it covers, any other item is
/// named by OutputName and typed by inference.
Result<Schema> OutputSchema(const SelectStmt& stmt, const Schema& in_schema) {
  Schema out_schema;
  for (const SelectItem& item : stmt.items) {
    if (item.is_star) {
      for (const Field& f : in_schema.fields()) {
        std::string_view fq, base;
        SplitFieldName(f.name, &fq, &base);
        if (!item.star_qualifier.empty() &&
            !StrEqualsIgnoreCase(fq, item.star_qualifier)) {
          continue;
        }
        out_schema.AddField(std::string(base), f.type);
      }
      if (!item.star_qualifier.empty() &&
          out_schema.empty()) {
        return Status::ExecutionError("unknown table in " +
                                      item.star_qualifier + ".*");
      }
    } else {
      out_schema.AddField(OutputName(item),
                          InferTypeOrDefault(*item.expr, in_schema));
    }
  }
  return out_schema;
}

/// Prefixes every field of `schema` with `alias.` (stripping any
/// existing qualifier so aliases rebind cleanly).
Schema QualifySchema(const Schema& schema, const std::string& alias) {
  Schema out;
  for (const Field& f : schema.fields()) {
    std::string_view fq, base;
    SplitFieldName(f.name, &fq, &base);
    out.AddField(alias + "." + std::string(base), f.type);
  }
  return out;
}

Result<Relation> EvalTableRef(const TableResolver* resolver,
                              const TableRef& ref, const RowBinding* outer,
                              const Expr* where, bool sole_table);

// -- Adaptive join machinery ------------------------------------------------

// Crossover measured by bench/ablate_join: per-pair expression
// evaluation makes the nested loop lose to the hash build beyond tiny
// inputs.
std::atomic<size_t> g_hash_join_threshold{64};

// Strategy counters live in the process-wide registry so /metrics on
// any node exposes them; GetJoinCounters()/ResetJoinCounters() below
// stay as views. Function-local statics keep the shared_ptr lookup off
// the per-join path.
telemetry::Counter* HashJoinCounter() {
  static const auto counter =
      new std::shared_ptr<telemetry::Counter>(
          telemetry::MetricRegistry::Default()->GetCounter(
              "gsn_sql_hash_joins_total", {},
              "Joins executed with the hash strategy"));
  return counter->get();
}

telemetry::Counter* NestedLoopJoinCounter() {
  static const auto counter =
      new std::shared_ptr<telemetry::Counter>(
          telemetry::MetricRegistry::Default()->GetCounter(
              "gsn_sql_nested_loop_joins_total", {},
              "Joins executed with the nested-loop strategy"));
  return counter->get();
}

/// Flattens a conjunction tree (AND chains) into its conjuncts.
void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(e->children[0].get(), out);
    SplitConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

struct EquiKey {
  size_t left_idx;
  size_t right_idx;
};

/// Classifies `conjunct` as an equi-join key (column = column with one
/// side in each input) if possible.
bool AsEquiKey(const Expr& conjunct, const Schema& left, const Schema& right,
               EquiKey* key) {
  if (conjunct.kind != ExprKind::kBinary ||
      conjunct.binary_op != BinaryOp::kEq) {
    return false;
  }
  const Expr& a = *conjunct.children[0];
  const Expr& b = *conjunct.children[1];
  if (a.kind != ExprKind::kColumnRef || b.kind != ExprKind::kColumnRef) {
    return false;
  }
  const Result<size_t> a_left = ResolveColumn(left, a.qualifier, a.column);
  const Result<size_t> b_right = ResolveColumn(right, b.qualifier, b.column);
  if (a_left.ok() && b_right.ok()) {
    *key = {*a_left, *b_right};
    return true;
  }
  const Result<size_t> b_left = ResolveColumn(left, b.qualifier, b.column);
  const Result<size_t> a_right = ResolveColumn(right, a.qualifier, a.column);
  if (b_left.ok() && a_right.ok()) {
    *key = {*b_left, *a_right};
    return true;
  }
  return false;
}

/// Evaluates the residual conjuncts over a joined row; true iff all
/// pass (SQL three-valued: NULL filters out).
Result<bool> ResidualPasses(Evaluator& eval,
                            const std::vector<const Expr*>& residual,
                            const Schema& combined, const Relation::Row& row,
                            const RowBinding* outer) {
  for (const Expr* conjunct : residual) {
    RowBinding binding{&combined, &row, outer, nullptr};
    GSN_ASSIGN_OR_RETURN(Value v, eval.Eval(*conjunct, binding));
    if (v.is_null()) return false;
    GSN_ASSIGN_OR_RETURN(Value b, v.CastTo(DataType::kBool));
    if (!b.bool_value()) return false;
  }
  return true;
}

/// Inner/left equi-join via a hash table on the right input. NULL keys
/// never match (SQL equality semantics).
Result<Relation> HashJoin(Evaluator& eval, const TableRef& ref,
                          const Relation& left, const Relation& right,
                          const Schema& combined,
                          const std::vector<EquiKey>& keys,
                          const std::vector<const Expr*>& residual,
                          const RowBinding* outer) {
  std::map<std::vector<Value>, std::vector<const Relation::Row*>,
           ValueVectorLess>
      build;
  for (const auto& rrow : right.rows()) {
    std::vector<Value> key;
    key.reserve(keys.size());
    bool has_null = false;
    for (const EquiKey& k : keys) {
      if (rrow[k.right_idx].is_null()) {
        has_null = true;
        break;
      }
      key.push_back(rrow[k.right_idx]);
    }
    if (!has_null) build[std::move(key)].push_back(&rrow);
  }

  Relation out(combined);
  for (const auto& lrow : left.rows()) {
    bool matched = false;
    std::vector<Value> key;
    key.reserve(keys.size());
    bool has_null = false;
    for (const EquiKey& k : keys) {
      if (lrow[k.left_idx].is_null()) {
        has_null = true;
        break;
      }
      key.push_back(lrow[k.left_idx]);
    }
    if (!has_null) {
      auto it = build.find(key);
      if (it != build.end()) {
        for (const Relation::Row* rrow : it->second) {
          Relation::Row joined = lrow;
          joined.insert(joined.end(), rrow->begin(), rrow->end());
          GSN_ASSIGN_OR_RETURN(
              bool keep,
              ResidualPasses(eval, residual, combined, joined, outer));
          if (keep) {
            matched = true;
            out.AppendRow(std::move(joined));
          }
        }
      }
    }
    if (!matched && ref.join_type == TableRef::JoinType::kLeft) {
      Relation::Row padded = lrow;
      padded.resize(combined.size(), Value::Null());
      out.AppendRow(std::move(padded));
    }
  }
  return out;
}

/// Cross/inner/left join with runtime algorithm selection: equi-joins
/// over large inputs hash, everything else nested-loops (the adaptive
/// execution plan of paper §4).
Result<Relation> EvalJoin(const TableResolver* resolver, const TableRef& ref,
                          const RowBinding* outer, const Expr* where) {
  // Leaf scans under a join only push qualifier-matched bounds: an
  // unqualified WHERE column could bind to either side.
  GSN_ASSIGN_OR_RETURN(
      Relation left,
      EvalTableRef(resolver, *ref.left, outer, where, /*sole_table=*/false));
  GSN_ASSIGN_OR_RETURN(
      Relation right,
      EvalTableRef(resolver, *ref.right, outer, where, /*sole_table=*/false));
  Schema combined;
  for (const Field& f : left.schema().fields()) {
    combined.AddField(f.name, f.type);
  }
  for (const Field& f : right.schema().fields()) {
    combined.AddField(f.name, f.type);
  }
  Evaluator eval(resolver);

  // Classify the condition for the hash path.
  std::vector<EquiKey> keys;
  std::vector<const Expr*> residual;
  if (ref.join_condition) {
    std::vector<const Expr*> conjuncts;
    SplitConjuncts(ref.join_condition.get(), &conjuncts);
    for (const Expr* conjunct : conjuncts) {
      EquiKey key;
      if (AsEquiKey(*conjunct, left.schema(), right.schema(), &key)) {
        keys.push_back(key);
      } else {
        residual.push_back(conjunct);
      }
    }
  }
  const size_t cross = left.NumRows() * right.NumRows();
  // Join timing excludes the child scans (they record themselves); it
  // covers the algorithm the adaptive planner picked.
  const int64_t join_start = t_analyze != nullptr ? AnalyzeNowMicros() : 0;
  if (!keys.empty() && cross >= g_hash_join_threshold.load()) {
    HashJoinCounter()->Increment();
    Result<Relation> joined =
        HashJoin(eval, ref, left, right, combined, keys, residual, outer);
    if (t_analyze != nullptr && joined.ok()) {
      t_analyze->Add(&ref, AnalyzeCollector::Op::kJoin,
                     static_cast<int64_t>(joined->NumRows()),
                     AnalyzeNowMicros() - join_start, "HashJoin");
    }
    return joined;
  }

  NestedLoopJoinCounter()->Increment();
  Relation out(combined);
  for (const auto& lrow : left.rows()) {
    bool matched = false;
    for (const auto& rrow : right.rows()) {
      Relation::Row joined = lrow;
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      bool keep = true;
      if (ref.join_condition) {
        RowBinding binding{&combined, &joined, outer, nullptr};
        GSN_ASSIGN_OR_RETURN(Value v,
                             eval.Eval(*ref.join_condition, binding));
        if (v.is_null()) {
          keep = false;
        } else {
          GSN_ASSIGN_OR_RETURN(Value b, v.CastTo(DataType::kBool));
          keep = b.bool_value();
        }
      }
      if (keep) {
        matched = true;
        out.AppendRow(std::move(joined));
      }
    }
    if (!matched && ref.join_type == TableRef::JoinType::kLeft) {
      Relation::Row padded = lrow;
      padded.resize(combined.size(), Value::Null());
      out.AppendRow(std::move(padded));
    }
  }
  if (t_analyze != nullptr) {
    t_analyze->Add(&ref, AnalyzeCollector::Op::kJoin,
                   static_cast<int64_t>(out.NumRows()),
                   AnalyzeNowMicros() - join_start, "NestedLoopJoin");
  }
  return out;
}

Result<Relation> EvalTableRef(const TableResolver* resolver,
                              const TableRef& ref, const RowBinding* outer,
                              const Expr* where, bool sole_table) {
  switch (ref.kind) {
    case TableRef::Kind::kTable: {
      if (resolver == nullptr) {
        return Status::ExecutionError("no table resolver for " +
                                      ref.table_name);
      }
      const int64_t scan_start =
          t_analyze != nullptr ? AnalyzeNowMicros() : 0;
      const std::string alias =
          ref.alias.empty() ? StrToLower(ref.table_name) : ref.alias;
      // Bounds from the WHERE clause flow into the storage tier, which
      // prunes segment chunks by zone map; the full WHERE still runs
      // over whatever comes back.
      const ScanPredicate predicate =
          ExtractScanPredicate(where, alias, sole_table);
      ScanStats scan_stats;
      GSN_ASSIGN_OR_RETURN(
          Relation rel,
          resolver->GetTableFiltered(ref.table_name, predicate, &scan_stats));
      Relation scanned(QualifySchema(rel.schema(), alias),
                       std::move(rel.mutable_shared_rows()));
      if (t_analyze != nullptr) {
        std::string note;
        if (scan_stats.FromSegments()) {
          note = "segments=" +
                 std::to_string(scan_stats.segments_scanned) + "/" +
                 std::to_string(scan_stats.segments_total) +
                 " chunks_pruned=" +
                 std::to_string(scan_stats.chunks_pruned) + "/" +
                 std::to_string(scan_stats.chunks_total);
        }
        t_analyze->Add(&ref, AnalyzeCollector::Op::kScan,
                       static_cast<int64_t>(scanned.NumRows()),
                       AnalyzeNowMicros() - scan_start, note);
      }
      return scanned;
    }
    case TableRef::Kind::kSubquery: {
      const int64_t scan_start =
          t_analyze != nullptr ? AnalyzeNowMicros() : 0;
      GSN_ASSIGN_OR_RETURN(Relation rel,
                           ExecuteStmt(resolver, *ref.subquery, outer));
      Relation derived(QualifySchema(rel.schema(), ref.alias),
                       std::move(rel.mutable_shared_rows()));
      if (t_analyze != nullptr) {
        t_analyze->Add(&ref, AnalyzeCollector::Op::kScan,
                       static_cast<int64_t>(derived.NumRows()),
                       AnalyzeNowMicros() - scan_start);
      }
      return derived;
    }
    case TableRef::Kind::kJoin:
      return EvalJoin(resolver, ref, outer, where);
  }
  return Status::Internal("unhandled table ref kind");
}

/// Materializes the FROM clause (comma-list = cross product).
Result<Relation> EvalFrom(const TableResolver* resolver,
                          const SelectStmt& stmt, const RowBinding* outer) {
  if (stmt.from.empty()) {
    // SELECT without FROM: one empty row.
    Relation rel{Schema()};
    rel.AppendRow({});
    return rel;
  }
  // Unqualified WHERE columns are only pushable when the FROM clause
  // has exactly one base table; otherwise qualified bounds still flow.
  const bool sole_table =
      stmt.from.size() == 1 && stmt.from[0]->kind == TableRef::Kind::kTable;
  GSN_ASSIGN_OR_RETURN(Relation acc,
                       EvalTableRef(resolver, *stmt.from[0], outer,
                                    stmt.where.get(), sole_table));
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    GSN_ASSIGN_OR_RETURN(Relation next,
                         EvalTableRef(resolver, *stmt.from[i], outer,
                                      stmt.where.get(), /*sole_table=*/false));
    Schema combined;
    for (const Field& f : acc.schema().fields()) {
      combined.AddField(f.name, f.type);
    }
    for (const Field& f : next.schema().fields()) {
      combined.AddField(f.name, f.type);
    }
    Relation out(combined);
    for (const auto& lrow : acc.rows()) {
      for (const auto& rrow : next.rows()) {
        Relation::Row joined = lrow;
        joined.insert(joined.end(), rrow.begin(), rrow.end());
        out.AppendRow(std::move(joined));
      }
    }
    acc = std::move(out);
  }
  return acc;
}

/// Intermediate result. When the statement has ORDER BY it also
/// carries, for each projected row, the source row it came from (the
/// group representative for grouped queries) and that group's
/// aggregate values, so sort keys can reference non-projected columns
/// and aggregates.
struct CoreResult {
  Relation projected;
  Schema source_schema;
  Relation::RowList source_rows;  // parallel to projected rows
  std::vector<const Expr*> aggs;  // the statement's aggregate calls
  std::vector<Value> agg_values;  // aggs.size() per projected row
};

bool IsAggregateQuery(const SelectStmt& stmt) {
  if (!stmt.group_by.empty()) return true;
  for (const SelectItem& item : stmt.items) {
    if (!item.is_star && ContainsAggregate(*item.expr)) return true;
  }
  if (stmt.having && ContainsAggregate(*stmt.having)) return true;
  return false;
}

Result<CoreResult> ExecuteCore(const TableResolver* resolver,
                               const SelectStmt& stmt,
                               const RowBinding* outer) {
  Evaluator eval(resolver);
  GSN_ASSIGN_OR_RETURN(Relation input, EvalFrom(resolver, stmt, outer));
  const Schema& in_schema = input.schema();

  // WHERE. Surviving rows move out of the input relation.
  Relation::RowList rows;
  if (!stmt.where) {
    rows = std::move(input.mutable_shared_rows());
  } else {
    rows.reserve(input.NumRows());
    for (Relation::SharedRow& row : input.mutable_shared_rows()) {
      RowBinding binding{&in_schema, row.get(), outer, nullptr};
      GSN_ASSIGN_OR_RETURN(Value v, eval.Eval(*stmt.where, binding));
      if (v.is_null()) continue;
      GSN_ASSIGN_OR_RETURN(Value b, v.CastTo(DataType::kBool));
      if (!b.bool_value()) continue;
      rows.push_back(std::move(row));
    }
    if (t_analyze != nullptr) {
      t_analyze->Add(&stmt, AnalyzeCollector::Op::kFilter,
                     static_cast<int64_t>(rows.size()), 0);
    }
  }

  GSN_ASSIGN_OR_RETURN(const Schema out_schema, OutputSchema(stmt, in_schema));

  CoreResult result;
  result.projected = Relation(out_schema);
  const bool keep_source = !stmt.order_by.empty();
  if (keep_source) result.source_schema = in_schema;
  // An unqualified `select *` outputs every input column in order, so
  // the output row is the input row.
  const bool pass_through = stmt.items.size() == 1 && stmt.items[0].is_star &&
                            stmt.items[0].star_qualifier.empty();

  // Projection of a single logical row (with optional aggregate env).
  // The source row is kept by ref-count bump, not copied.
  auto project_row = [&](const Relation::SharedRow& src,
                         const AggEnv* agg_env) -> Status {
    if (keep_source) result.source_rows.push_back(src);
    if (pass_through) {
      result.projected.AppendSharedRow(src);
      return Status::OK();
    }
    Relation::Row out_row;
    out_row.reserve(out_schema.size());
    RowBinding binding{&in_schema, src.get(), outer, agg_env};
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        for (size_t i = 0; i < in_schema.size(); ++i) {
          std::string_view fq, base;
          SplitFieldName(in_schema.field(i).name, &fq, &base);
          if (!item.star_qualifier.empty() &&
              !StrEqualsIgnoreCase(fq, item.star_qualifier)) {
            continue;
          }
          out_row.push_back((*src)[i]);
        }
      } else {
        GSN_ASSIGN_OR_RETURN(Value v, eval.Eval(*item.expr, binding));
        out_row.push_back(std::move(v));
      }
    }
    result.projected.AppendRow(std::move(out_row));
    return Status::OK();
  };

  if (!IsAggregateQuery(stmt)) {
    for (const Relation::SharedRow& row : rows) {
      GSN_RETURN_IF_ERROR(project_row(row, nullptr));
    }
  } else {
    // Collect aggregate expressions from items, HAVING, and ORDER BY.
    std::vector<const Expr*>& aggs = result.aggs;
    for (const SelectItem& item : stmt.items) {
      if (!item.is_star) CollectAggregates(*item.expr, &aggs);
    }
    if (stmt.having) CollectAggregates(*stmt.having, &aggs);
    for (const OrderByItem& ob : stmt.order_by) {
      CollectAggregates(*ob.expr, &aggs);
    }

    // Group rows.
    std::map<std::vector<Value>, Relation::RowList, ValueVectorLess> groups;
    if (stmt.group_by.empty()) {
      groups[{}] = std::move(rows);  // single group (possibly empty)
    } else {
      for (Relation::SharedRow& row : rows) {
        RowBinding binding{&in_schema, row.get(), outer, nullptr};
        std::vector<Value> key;
        key.reserve(stmt.group_by.size());
        for (const auto& g : stmt.group_by) {
          GSN_ASSIGN_OR_RETURN(Value v, eval.Eval(*g, binding));
          key.push_back(std::move(v));
        }
        groups[std::move(key)].push_back(std::move(row));
      }
    }
    if (t_analyze != nullptr) {
      t_analyze->Add(&stmt, AnalyzeCollector::Op::kAggregate,
                     static_cast<int64_t>(groups.size()), 0);
    }

    std::vector<Value> values(aggs.size());
    const AggEnv agg_env{&aggs, values.data()};
    for (const auto& [key, group_rows] : groups) {
      for (size_t a = 0; a < aggs.size(); ++a) {
        GSN_ASSIGN_OR_RETURN(
            values[a],
            ComputeAggregate(eval, *aggs[a], in_schema, group_rows, outer));
      }
      const Relation::SharedRow rep =
          group_rows.empty() ? Relation::MakeRow(Relation::Row(
                                   in_schema.size(), Value::Null()))
                             : group_rows.front();
      if (stmt.having) {
        RowBinding binding{&in_schema, rep.get(), outer, &agg_env};
        GSN_ASSIGN_OR_RETURN(Value v, eval.Eval(*stmt.having, binding));
        if (v.is_null()) continue;
        GSN_ASSIGN_OR_RETURN(Value b, v.CastTo(DataType::kBool));
        if (!b.bool_value()) continue;
      }
      GSN_RETURN_IF_ERROR(project_row(rep, &agg_env));
      if (keep_source) {
        result.agg_values.insert(result.agg_values.end(), values.begin(),
                                 values.end());
      }
    }
  }

  // DISTINCT.
  if (stmt.distinct) {
    const size_t naggs = result.agg_values.empty() ? 0 : result.aggs.size();
    std::set<std::vector<Value>, ValueVectorLess> seen;
    Relation deduped(result.projected.schema());
    Relation::RowList deduped_src;
    std::vector<Value> deduped_aggs;
    for (size_t i = 0; i < result.projected.NumRows(); ++i) {
      const auto& row = result.projected.row(i);
      if (seen.insert(row).second) {
        deduped.AppendSharedRow(result.projected.shared_row(i));
        if (keep_source) {
          deduped_src.push_back(result.source_rows[i]);
          const auto first = result.agg_values.begin() + i * naggs;
          deduped_aggs.insert(deduped_aggs.end(), first, first + naggs);
        }
      }
    }
    result.projected = std::move(deduped);
    result.source_rows = std::move(deduped_src);
    result.agg_values = std::move(deduped_aggs);
  }

  return result;
}

/// `v` clamped into [0, n].
size_t ClampCount(int64_t v, size_t n) {
  return v <= 0 ? 0 : static_cast<size_t>(std::min<uint64_t>(v, n));
}

/// One past the last of `n` rows that LIMIT/OFFSET keep. LIMIT and
/// OFFSET are literals up to INT64_MAX, so their sum is never formed.
size_t LimitEnd(const SelectStmt& stmt, size_t n) {
  if (!stmt.limit.has_value()) return n;
  const size_t begin = ClampCount(stmt.offset.value_or(0), n);
  return begin + ClampCount(*stmt.limit, n - begin);
}

/// ORDER BY evaluation: resolve each key against the projected schema
/// first (aliases / output columns), falling back to the source row and
/// its group's aggregates. Only the rows LIMIT/OFFSET can keep are
/// sorted into place; ties keep input order, as a stable sort does.
Status ApplyOrderBy(const TableResolver* resolver, const SelectStmt& stmt,
                    CoreResult* core, const RowBinding* outer) {
  if (stmt.order_by.empty()) return Status::OK();
  Evaluator eval(resolver);
  const size_t n = core->projected.NumRows();
  const size_t nkeys = stmt.order_by.size();
  const size_t naggs = core->aggs.size();
  const bool have_source = core->source_rows.size() == n;
  const bool have_aggs = naggs > 0 && core->agg_values.size() == n * naggs;

  // Resolve ordinal keys (standard SQL: ORDER BY 2 = second output
  // column) up front; -1 marks expression keys.
  std::vector<int64_t> ordinals(nkeys, -1);
  for (size_t k = 0; k < nkeys; ++k) {
    const Expr& e = *stmt.order_by[k].expr;
    if (e.kind == ExprKind::kLiteral && e.literal.is_int()) {
      const int64_t ordinal = e.literal.int_value();
      if (ordinal < 1 ||
          ordinal > static_cast<int64_t>(core->projected.schema().size())) {
        return Status::ExecutionError(
            "ORDER BY position " + std::to_string(ordinal) +
            " is out of range");
      }
      ordinals[k] = ordinal - 1;
    }
  }

  // Pre-compute sort keys, row i's at [i * nkeys, (i + 1) * nkeys).
  std::vector<Value> keys;
  keys.reserve(n * nkeys);
  for (size_t i = 0; i < n; ++i) {
    const Relation::Row& prow = core->projected.row(i);
    RowBinding proj_binding{&core->projected.schema(), &prow, outer, nullptr};
    RowBinding src_binding;
    AggEnv agg_env;
    if (have_source) {
      src_binding.schema = &core->source_schema;
      src_binding.row = core->source_rows[i].get();
      src_binding.outer = outer;
      if (have_aggs) {
        agg_env = AggEnv{&core->aggs, &core->agg_values[i * naggs]};
        src_binding.agg_env = &agg_env;
      }
      proj_binding.outer = &src_binding;  // projected first, then source
    }
    for (size_t k = 0; k < nkeys; ++k) {
      if (ordinals[k] >= 0) {
        keys.push_back(prow[static_cast<size_t>(ordinals[k])]);
        continue;
      }
      GSN_ASSIGN_OR_RETURN(Value v,
                           eval.Eval(*stmt.order_by[k].expr, proj_binding));
      keys.push_back(std::move(v));
    }
  }
  const auto less = [&](size_t a, size_t b) {
    for (size_t k = 0; k < nkeys; ++k) {
      const int c = keys[a * nkeys + k].Compare(keys[b * nkeys + k]);
      if (c != 0) return stmt.order_by[k].ascending ? c < 0 : c > 0;
    }
    return a < b;
  };
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const size_t keep = LimitEnd(stmt, n);
  if (keep < n) {
    std::partial_sort(order.begin(), order.begin() + keep, order.end(), less);
  } else {
    std::stable_sort(order.begin(), order.end(), less);
  }
  Relation::RowList& rows = core->projected.mutable_shared_rows();
  Relation::RowList sorted;
  sorted.reserve(keep);
  for (size_t j = 0; j < keep; ++j) sorted.push_back(std::move(rows[order[j]]));
  rows = std::move(sorted);
  core->source_rows.clear();
  core->agg_values.clear();
  return Status::OK();
}

void ApplyLimitOffset(const SelectStmt& stmt, Relation* rel) {
  if (!stmt.limit.has_value() && !stmt.offset.has_value()) return;
  Relation::RowList& rows = rel->mutable_shared_rows();
  const size_t n = rows.size();
  const size_t begin = ClampCount(stmt.offset.value_or(0), n);
  rows.erase(rows.begin() + LimitEnd(stmt, n), rows.end());
  rows.erase(rows.begin(), rows.begin() + begin);
}

Result<Relation> ApplySetOp(SetOp op, Relation lhs, Relation rhs) {
  if (lhs.schema().size() != rhs.schema().size()) {
    return Status::ExecutionError(
        "set operation operands have different arity");
  }
  switch (op) {
    case SetOp::kUnionAll: {
      for (auto& row : rhs.mutable_shared_rows()) {
        lhs.AppendSharedRow(std::move(row));
      }
      return lhs;
    }
    case SetOp::kUnion: {
      std::set<std::vector<Value>, ValueVectorLess> seen;
      Relation out(lhs.schema());
      for (size_t i = 0; i < lhs.NumRows(); ++i) {
        if (seen.insert(lhs.row(i)).second) {
          out.AppendSharedRow(lhs.shared_row(i));
        }
      }
      for (size_t i = 0; i < rhs.NumRows(); ++i) {
        if (seen.insert(rhs.row(i)).second) {
          out.AppendSharedRow(rhs.shared_row(i));
        }
      }
      return out;
    }
    case SetOp::kIntersect: {
      std::set<std::vector<Value>, ValueVectorLess> right_set(
          rhs.rows().begin(), rhs.rows().end());
      std::set<std::vector<Value>, ValueVectorLess> emitted;
      Relation out(lhs.schema());
      for (size_t i = 0; i < lhs.NumRows(); ++i) {
        const auto& row = lhs.row(i);
        if (right_set.count(row) && emitted.insert(row).second) {
          out.AppendSharedRow(lhs.shared_row(i));
        }
      }
      return out;
    }
    case SetOp::kExcept: {
      std::set<std::vector<Value>, ValueVectorLess> right_set(
          rhs.rows().begin(), rhs.rows().end());
      std::set<std::vector<Value>, ValueVectorLess> emitted;
      Relation out(lhs.schema());
      for (size_t i = 0; i < lhs.NumRows(); ++i) {
        const auto& row = lhs.row(i);
        if (!right_set.count(row) && emitted.insert(row).second) {
          out.AppendSharedRow(lhs.shared_row(i));
        }
      }
      return out;
    }
    case SetOp::kNone:
      return lhs;
  }
  return Status::Internal("unhandled set op");
}

Result<Relation> ExecuteStmt(const TableResolver* resolver,
                             const SelectStmt& stmt, const RowBinding* outer) {
  const int64_t stmt_start = t_analyze != nullptr ? AnalyzeNowMicros() : 0;
  GSN_ASSIGN_OR_RETURN(CoreResult core, ExecuteCore(resolver, stmt, outer));

  if (stmt.set_op != SetOp::kNone && stmt.set_rhs) {
    GSN_ASSIGN_OR_RETURN(Relation rhs,
                         ExecuteStmt(resolver, *stmt.set_rhs, outer));
    GSN_ASSIGN_OR_RETURN(
        Relation combined,
        ApplySetOp(stmt.set_op, std::move(core.projected), std::move(rhs)));
    core.projected = std::move(combined);
    // Set result rows have no single source.
    core.source_rows.clear();
    core.agg_values.clear();
  }

  GSN_RETURN_IF_ERROR(ApplyOrderBy(resolver, stmt, &core, outer));
  ApplyLimitOffset(stmt, &core.projected);
  if (t_analyze != nullptr) {
    t_analyze->Add(&stmt, AnalyzeCollector::Op::kOutput,
                   static_cast<int64_t>(core.projected.NumRows()),
                   AnalyzeNowMicros() - stmt_start);
  }
  return std::move(core.projected);
}

}  // namespace

void SetHashJoinThreshold(size_t cross_product_threshold) {
  g_hash_join_threshold.store(cross_product_threshold);
}

size_t GetHashJoinThreshold() { return g_hash_join_threshold.load(); }

JoinCounters GetJoinCounters() {
  JoinCounters counters;
  counters.hash_joins = HashJoinCounter()->Value();
  counters.nested_loop_joins = NestedLoopJoinCounter()->Value();
  return counters;
}

void ResetJoinCounters() {
  HashJoinCounter()->Reset();
  NestedLoopJoinCounter()->Reset();
}

void AnalyzeCollector::Add(const void* node, Op op, int64_t rows,
                           int64_t elapsed_micros, const std::string& note) {
  OperatorStats& stats = stats_[{node, op}];
  stats.rows += rows;
  stats.elapsed_micros += elapsed_micros;
  ++stats.invocations;
  if (!note.empty()) stats.note = note;
}

const AnalyzeCollector::OperatorStats* AnalyzeCollector::Find(const void* node,
                                                              Op op) const {
  auto it = stats_.find({node, op});
  return it == stats_.end() ? nullptr : &it->second;
}

Result<Relation> Executor::Execute(const SelectStmt& stmt) const {
  if (analyze_ == nullptr) return ExecuteStmt(resolver_, stmt, nullptr);
  // Install the collector thread-locally for this execution only, and
  // restore whatever was there (re-entrant Execute via subqueries on
  // resolver-backed views keeps its outer collector).
  AnalyzeCollector* const saved = t_analyze;
  t_analyze = analyze_;
  Result<Relation> out = ExecuteStmt(resolver_, stmt, nullptr);
  t_analyze = saved;
  return out;
}

Result<Relation> Executor::Query(const std::string& sql) const {
  GSN_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  return Execute(*stmt);
}

// ---------------------------------------------------------------------------
// Incremental shapes (incremental.h)
// ---------------------------------------------------------------------------

std::optional<IncrementalPlan> CompileIncremental(const SelectStmt& stmt,
                                                  std::string_view relation,
                                                  const Schema& row_schema) {
  const std::optional<IncrementalPlan::Shape> shape = IncrementalShape(stmt);
  const TableRef* ref = shape.has_value() ? stmt.from[0].get() : nullptr;
  if (ref == nullptr || !StrEqualsIgnoreCase(ref->table_name, relation)) {
    return std::nullopt;
  }
  // Resolve names exactly as the executor would over this relation.
  const Schema in_schema = QualifySchema(
      row_schema, ref->alias.empty() ? StrToLower(ref->table_name)
                                     : ref->alias);
  Result<Schema> out_schema = OutputSchema(stmt, in_schema);
  if (!out_schema.ok()) return std::nullopt;
  IncrementalPlan plan;
  plan.shape = *shape;
  plan.output_schema = *std::move(out_schema);
  const auto slot_of = [&in_schema](const Expr& column) {
    return ResolveColumn(in_schema, column.qualifier, column.column);
  };

  if (plan.shape == IncrementalPlan::Shape::kAggregate) {
    for (const SelectItem& item : stmt.items) {
      const Expr& arg = *item.expr->children[0];
      IncrementalPlan::Aggregate agg;
      agg.kind = *Fold::KindOf(item.expr->function);
      agg.count_star = arg.kind == ExprKind::kStar;
      if (!agg.count_star) {
        Result<size_t> slot = slot_of(arg);
        if (!slot.ok()) return std::nullopt;
        agg.slot = *slot;
      }
      plan.aggregates.push_back(agg);
    }
    return plan;
  }

  // Newest row. The executor sorts on the key resolved against the
  // output columns first, then the source row; either way it must be
  // slot 0, the row's `timed`, for the newest entry to be its answer.
  const bool pass_through = stmt.items[0].is_star;
  if (!pass_through) {
    for (const SelectItem& item : stmt.items) {
      Result<size_t> slot = slot_of(*item.expr);
      if (!slot.ok()) return std::nullopt;
      plan.projection.push_back(*slot);
    }
  }
  const Expr& key = *stmt.order_by[0].expr;
  Result<size_t> key_slot =
      ResolveColumn(plan.output_schema, key.qualifier, key.column);
  if (key_slot.ok()) {
    if (!pass_through) key_slot = plan.projection[*key_slot];
  } else if (key_slot.status().code() == StatusCode::kNotFound) {
    key_slot = slot_of(key);
  }
  if (!key_slot.ok() || *key_slot != 0 || row_schema.empty() ||
      !StrEqualsIgnoreCase(row_schema.field(0).name, kTimedField)) {
    return std::nullopt;
  }
  return plan;
}

}  // namespace gsn::sql
