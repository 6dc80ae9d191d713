#include "gsn/sql/parser.h"

#include "gsn/sql/lexer.h"
#include "gsn/util/strings.h"

namespace gsn::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<SelectStmt>> ParseStatement() {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelectStmt());
    if (!At(TokenType::kEof)) {
      return Error("unexpected trailing tokens starting with '" +
                   Current().text + "'");
    }
    return stmt;
  }

  Result<std::unique_ptr<Expr>> ParseLoneExpression() {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
    if (!At(TokenType::kEof)) {
      return Error("unexpected trailing tokens starting with '" +
                   Current().text + "'");
    }
    return e;
  }

 private:
  // ------------------------------------------------------------- plumbing

  const Token& Current() const { return tokens_[pos_]; }
  const Token& Next() const {
    return tokens_[std::min(pos_ + 1, tokens_.size() - 1)];
  }
  bool At(TokenType type) const { return Current().type == type; }
  bool AtKeyword(const char* kw) const { return Current().IsKeyword(kw); }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool ConsumeIf(TokenType type) {
    if (At(type)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeKeywordIf(const char* kw) {
    if (AtKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError("SQL parse error near offset " +
                              std::to_string(Current().position) + ": " + msg);
  }
  Status ExpectKeyword(const char* kw) {
    if (!ConsumeKeywordIf(kw)) {
      return Error(std::string("expected ") + kw + ", got '" +
                   Current().text + "'");
    }
    return Status::OK();
  }
  Status Expect(TokenType type, const char* what) {
    if (!ConsumeIf(type)) {
      return Error(std::string("expected ") + what + ", got '" +
                   Current().text + "'");
    }
    return Status::OK();
  }

  /// Identifier or quoted identifier.
  Result<std::string> ParseIdentifier(const char* what) {
    if (At(TokenType::kIdentifier) || At(TokenType::kQuotedIdentifier)) {
      std::string name = Current().text;
      Advance();
      return name;
    }
    return Error(std::string("expected ") + what + ", got '" +
                 Current().text + "'");
  }

  // ------------------------------------------------------------ statements

  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt() {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelectCore());

    // Set operations chain right-associatively; ORDER BY / LIMIT after
    // a set chain apply to the combined result (held on the head stmt).
    if (AtKeyword("UNION") || AtKeyword("INTERSECT") || AtKeyword("EXCEPT")) {
      if (ConsumeKeywordIf("UNION")) {
        stmt->set_op =
            ConsumeKeywordIf("ALL") ? SetOp::kUnionAll : SetOp::kUnion;
      } else if (ConsumeKeywordIf("INTERSECT")) {
        stmt->set_op = SetOp::kIntersect;
      } else {
        GSN_RETURN_IF_ERROR(ExpectKeyword("EXCEPT"));
        stmt->set_op = SetOp::kExcept;
      }
      GSN_ASSIGN_OR_RETURN(stmt->set_rhs, ParseSelectStmt());
      // The rhs may have captured ORDER BY/LIMIT meant for the chain;
      // that matches common right-recursive parser behaviour and is
      // documented. Continue to also allow them here if rhs didn't.
    }

    GSN_RETURN_IF_ERROR(ParseOrderLimit(stmt.get()));
    return stmt;
  }

  Status ParseOrderLimit(SelectStmt* stmt) {
    if (ConsumeKeywordIf("ORDER")) {
      GSN_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        OrderByItem item;
        GSN_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeywordIf("DESC")) {
          item.ascending = false;
        } else {
          ConsumeKeywordIf("ASC");
        }
        stmt->order_by.push_back(std::move(item));
      } while (ConsumeIf(TokenType::kComma));
    }
    if (ConsumeKeywordIf("LIMIT")) {
      if (!At(TokenType::kIntegerLiteral)) {
        return Error("expected integer after LIMIT");
      }
      stmt->limit = Current().int_value;
      Advance();
      if (ConsumeKeywordIf("OFFSET")) {
        if (!At(TokenType::kIntegerLiteral)) {
          return Error("expected integer after OFFSET");
        }
        stmt->offset = Current().int_value;
        Advance();
      }
    }
    return Status::OK();
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelectCore() {
    GSN_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStmt>();
    if (ConsumeKeywordIf("DISTINCT")) {
      stmt->distinct = true;
    } else {
      ConsumeKeywordIf("ALL");
    }

    // Select list.
    do {
      SelectItem item;
      if (At(TokenType::kStar)) {
        Advance();
        item.is_star = true;
      } else if ((At(TokenType::kIdentifier) ||
                  At(TokenType::kQuotedIdentifier)) &&
                 Next().type == TokenType::kDot &&
                 tokens_[std::min(pos_ + 2, tokens_.size() - 1)].type ==
                     TokenType::kStar) {
        item.is_star = true;
        item.star_qualifier = Current().text;
        Advance();  // ident
        Advance();  // dot
        Advance();  // star
      } else {
        GSN_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        GSN_ASSIGN_OR_RETURN(item.alias, ParseOptionalAlias());
      }
      stmt->items.push_back(std::move(item));
    } while (ConsumeIf(TokenType::kComma));

    // FROM.
    if (ConsumeKeywordIf("FROM")) {
      do {
        GSN_ASSIGN_OR_RETURN(std::unique_ptr<TableRef> ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
      } while (ConsumeIf(TokenType::kComma));
    }

    // WHERE / GROUP BY / HAVING.
    if (ConsumeKeywordIf("WHERE")) {
      GSN_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (ConsumeKeywordIf("GROUP")) {
      GSN_RETURN_IF_ERROR(ExpectKeyword("BY"));
      do {
        GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
      } while (ConsumeIf(TokenType::kComma));
    }
    if (ConsumeKeywordIf("HAVING")) {
      GSN_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    return stmt;
  }

  /// Alias: [AS] identifier. A bare identifier is taken as an alias
  /// only if it is not a keyword.
  Result<std::string> ParseOptionalAlias() {
    if (ConsumeKeywordIf("AS")) {
      return ParseIdentifier("alias after AS");
    }
    if (At(TokenType::kIdentifier) || At(TokenType::kQuotedIdentifier)) {
      std::string alias = Current().text;
      Advance();
      return alias;
    }
    return std::string();
  }

  // ------------------------------------------------------------ FROM items

  Result<std::unique_ptr<TableRef>> ParseTableRef() {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<TableRef> left, ParseTablePrimary());
    for (;;) {
      TableRef::JoinType jt;
      bool has_condition = true;
      if (ConsumeKeywordIf("CROSS")) {
        GSN_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        jt = TableRef::JoinType::kCross;
        has_condition = false;
      } else if (ConsumeKeywordIf("INNER")) {
        GSN_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        jt = TableRef::JoinType::kInner;
      } else if (ConsumeKeywordIf("LEFT")) {
        ConsumeKeywordIf("OUTER");
        GSN_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        jt = TableRef::JoinType::kLeft;
      } else if (ConsumeKeywordIf("JOIN")) {
        jt = TableRef::JoinType::kInner;
      } else {
        return left;
      }
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<TableRef> right,
                           ParseTablePrimary());
      auto join = std::make_unique<TableRef>();
      join->kind = TableRef::Kind::kJoin;
      join->join_type = jt;
      join->left = std::move(left);
      join->right = std::move(right);
      if (has_condition) {
        GSN_RETURN_IF_ERROR(ExpectKeyword("ON"));
        GSN_ASSIGN_OR_RETURN(join->join_condition, ParseExpr());
      }
      left = std::move(join);
    }
  }

  Result<std::unique_ptr<TableRef>> ParseTablePrimary() {
    auto ref = std::make_unique<TableRef>();
    if (ConsumeIf(TokenType::kLParen)) {
      ref->kind = TableRef::Kind::kSubquery;
      GSN_ASSIGN_OR_RETURN(ref->subquery, ParseSelectStmt());
      GSN_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      GSN_ASSIGN_OR_RETURN(ref->alias, ParseOptionalAlias());
      if (ref->alias.empty()) {
        return Error("derived table requires an alias");
      }
      return ref;
    }
    ref->kind = TableRef::Kind::kTable;
    GSN_ASSIGN_OR_RETURN(ref->table_name, ParseIdentifier("table name"));
    GSN_ASSIGN_OR_RETURN(ref->alias, ParseOptionalAlias());
    return ref;
  }

  // ----------------------------------------------------------- expressions

  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseOr(); }

  Result<std::unique_ptr<Expr>> ParseOr() {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAnd());
    while (ConsumeKeywordIf("OR")) {
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseNot());
    while (ConsumeKeywordIf("AND")) {
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseNot());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (ConsumeKeywordIf("NOT")) {
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseNot());
      return MakeUnary(UnaryOp::kNot, std::move(operand));
    }
    return ParsePredicate();
  }

  Result<std::unique_ptr<Expr>> ParsePredicate() {
    if (AtKeyword("EXISTS") ||
        (AtKeyword("NOT") && Next().IsKeyword("EXISTS"))) {
      const bool negated = ConsumeKeywordIf("NOT");
      GSN_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      GSN_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kExists;
      e->negated = negated;
      GSN_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
      GSN_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return e;
    }

    GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAdditive());

    // Comparison operators.
    struct CmpMap {
      TokenType token;
      BinaryOp op;
    };
    static constexpr CmpMap kCmps[] = {
        {TokenType::kEq, BinaryOp::kEq},
        {TokenType::kNotEq, BinaryOp::kNotEq},
        {TokenType::kLess, BinaryOp::kLess},
        {TokenType::kLessEq, BinaryOp::kLessEq},
        {TokenType::kGreater, BinaryOp::kGreater},
        {TokenType::kGreaterEq, BinaryOp::kGreaterEq},
    };
    for (const CmpMap& m : kCmps) {
      if (At(m.token)) {
        Advance();
        GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdditive());
        return MakeBinary(m.op, std::move(lhs), std::move(rhs));
      }
    }

    // IS [NOT] NULL.
    if (ConsumeKeywordIf("IS")) {
      const bool negated = ConsumeKeywordIf("NOT");
      GSN_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      return e;
    }

    // [NOT] BETWEEN / IN / LIKE.
    bool negated = false;
    if (AtKeyword("NOT") &&
        (Next().IsKeyword("BETWEEN") || Next().IsKeyword("IN") ||
         Next().IsKeyword("LIKE"))) {
      Advance();
      negated = true;
    }
    if (ConsumeKeywordIf("BETWEEN")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lo, ParseAdditive());
      GSN_RETURN_IF_ERROR(ExpectKeyword("AND"));
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> hi, ParseAdditive());
      e->children.push_back(std::move(lo));
      e->children.push_back(std::move(hi));
      return e;
    }
    if (ConsumeKeywordIf("IN")) {
      GSN_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after IN"));
      auto e = std::make_unique<Expr>();
      e->negated = negated;
      e->children.push_back(std::move(lhs));
      if (AtKeyword("SELECT")) {
        e->kind = ExprKind::kInSubquery;
        GSN_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
      } else {
        e->kind = ExprKind::kInList;
        do {
          GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> item, ParseExpr());
          e->children.push_back(std::move(item));
        } while (ConsumeIf(TokenType::kComma));
      }
      GSN_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return e;
    }
    if (ConsumeKeywordIf("LIKE")) {
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> pattern, ParseAdditive());
      return MakeBinary(negated ? BinaryOp::kNotLike : BinaryOp::kLike,
                        std::move(lhs), std::move(pattern));
    }
    if (negated) return Error("expected BETWEEN, IN, or LIKE after NOT");
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (At(TokenType::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (At(TokenType::kMinus)) {
        op = BinaryOp::kSub;
      } else if (At(TokenType::kConcat)) {
        op = BinaryOp::kConcat;
      } else {
        return lhs;
      }
      Advance();
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (At(TokenType::kStar)) {
        op = BinaryOp::kMul;
      } else if (At(TokenType::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (At(TokenType::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      Advance();
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (ConsumeIf(TokenType::kMinus)) {
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseUnary());
      return MakeUnary(UnaryOp::kNegate, std::move(operand));
    }
    if (ConsumeIf(TokenType::kPlus)) {
      return ParseUnary();
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    // Literals.
    if (At(TokenType::kIntegerLiteral)) {
      auto e = MakeLiteral(Value::Int(Current().int_value));
      Advance();
      return e;
    }
    if (At(TokenType::kDoubleLiteral)) {
      auto e = MakeLiteral(Value::Double(Current().double_value));
      Advance();
      return e;
    }
    if (At(TokenType::kStringLiteral)) {
      auto e = MakeLiteral(Value::String(Current().text));
      Advance();
      return e;
    }
    if (ConsumeKeywordIf("NULL")) return MakeLiteral(Value::Null());
    if (ConsumeKeywordIf("TRUE")) return MakeLiteral(Value::Bool(true));
    if (ConsumeKeywordIf("FALSE")) return MakeLiteral(Value::Bool(false));

    // CAST(expr AS type).
    if (ConsumeKeywordIf("CAST")) {
      GSN_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after CAST"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kCast;
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseExpr());
      e->children.push_back(std::move(operand));
      GSN_RETURN_IF_ERROR(ExpectKeyword("AS"));
      GSN_ASSIGN_OR_RETURN(std::string type_name,
                           ParseIdentifier("type name"));
      GSN_ASSIGN_OR_RETURN(e->cast_type, ParseDataType(type_name));
      GSN_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return e;
    }

    // CASE.
    if (ConsumeKeywordIf("CASE")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kCase;
      if (!AtKeyword("WHEN")) {
        e->case_has_operand = true;
        GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> operand, ParseExpr());
        e->children.push_back(std::move(operand));
      }
      while (ConsumeKeywordIf("WHEN")) {
        GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> when, ParseExpr());
        GSN_RETURN_IF_ERROR(ExpectKeyword("THEN"));
        GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> then, ParseExpr());
        e->children.push_back(std::move(when));
        e->children.push_back(std::move(then));
        ++e->case_num_whens;
      }
      if (e->case_num_whens == 0) return Error("CASE requires WHEN");
      if (ConsumeKeywordIf("ELSE")) {
        e->case_has_else = true;
        GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> els, ParseExpr());
        e->children.push_back(std::move(els));
      }
      GSN_RETURN_IF_ERROR(ExpectKeyword("END"));
      return e;
    }

    // Parenthesized expression or scalar subquery.
    if (ConsumeIf(TokenType::kLParen)) {
      if (AtKeyword("SELECT")) {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kScalarSubquery;
        GSN_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
        GSN_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return e;
      }
      GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
      GSN_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return e;
    }

    // Identifier: column ref or function call.
    if (At(TokenType::kIdentifier) || At(TokenType::kQuotedIdentifier)) {
      std::string name = Current().text;
      Advance();
      if (ConsumeIf(TokenType::kLParen)) {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kFunctionCall;
        e->function = StrToUpper(name);
        if (ConsumeKeywordIf("DISTINCT")) e->distinct = true;
        if (At(TokenType::kStar)) {
          Advance();
          auto star = std::make_unique<Expr>();
          star->kind = ExprKind::kStar;
          e->children.push_back(std::move(star));
        } else if (!At(TokenType::kRParen)) {
          do {
            GSN_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExpr());
            e->children.push_back(std::move(arg));
          } while (ConsumeIf(TokenType::kComma));
        }
        GSN_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return e;
      }
      if (ConsumeIf(TokenType::kDot)) {
        GSN_ASSIGN_OR_RETURN(std::string column,
                             ParseIdentifier("column name after '.'"));
        return MakeColumnRef(std::move(name), std::move(column));
      }
      return MakeColumnRef("", std::move(name));
    }

    return Error("expected expression, got '" + Current().text + "'");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<SelectStmt>> ParseSelect(std::string_view sql) {
  GSN_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<std::unique_ptr<Expr>> ParseExpression(std::string_view sql) {
  GSN_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseLoneExpression();
}

}  // namespace gsn::sql
