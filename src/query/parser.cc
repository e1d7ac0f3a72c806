#include "query/parser.h"

#include <algorithm>
#include <cctype>

#include "query/lexer.h"
#include "util/format.h"

namespace hrdm::query {

namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ExprPtr> ParseRelation() {
    HRDM_ASSIGN_OR_RETURN(ExprPtr e, RelExpr());
    HRDM_RETURN_IF_ERROR(Expect(TokenKind::kEnd));
    return e;
  }

  Result<LsExprPtr> ParseLifespan() {
    HRDM_ASSIGN_OR_RETURN(LsExprPtr e, LsExprRule());
    HRDM_RETURN_IF_ERROR(Expect(TokenKind::kEnd));
    return e;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Take() { return tokens_[pos_++]; }
  bool At(TokenKind kind) const { return Peek().kind == kind; }

  Status Error(const std::string& msg) const {
    return Status::ParseError(StrPrintf("%s, got %s at offset %zu",
                                        msg.c_str(),
                                        Peek().Describe().c_str(),
                                        Peek().offset));
  }

  Status Expect(TokenKind kind) {
    if (!At(kind)) {
      Token probe;
      probe.kind = kind;
      return Error("expected " + probe.Describe());
    }
    Take();
    return Status::OK();
  }

  /// Peeks a lower-cased identifier (empty if not an identifier).
  std::string PeekKeyword() const {
    return At(TokenKind::kIdentifier) ? Lower(Peek().text) : std::string();
  }

  Result<CompareOp> TakeCompareOp() {
    switch (Peek().kind) {
      case TokenKind::kEq:
        Take();
        return CompareOp::kEq;
      case TokenKind::kNe:
        Take();
        return CompareOp::kNe;
      case TokenKind::kLt:
        Take();
        return CompareOp::kLt;
      case TokenKind::kLe:
        Take();
        return CompareOp::kLe;
      case TokenKind::kGt:
        Take();
        return CompareOp::kGt;
      case TokenKind::kGe:
        Take();
        return CompareOp::kGe;
      default:
        return Error("expected comparison operator");
    }
  }

  Result<std::string> TakeIdentifier() {
    if (!At(TokenKind::kIdentifier)) return Error("expected identifier");
    return Take().text;
  }

  Result<Value> TakeLiteral() {
    switch (Peek().kind) {
      case TokenKind::kInt:
        return Value::Int(Take().int_value);
      case TokenKind::kDouble:
        return Value::Double(Take().double_value);
      case TokenKind::kString:
        return Value::String(Take().text);
      case TokenKind::kTime:
        return Value::Time(Take().time_value);
      case TokenKind::kIdentifier: {
        const std::string kw = Lower(Peek().text);
        if (kw == "true") {
          Take();
          return Value::Bool(true);
        }
        if (kw == "false") {
          Take();
          return Value::Bool(false);
        }
        return Error("expected literal");
      }
      default:
        return Error("expected literal");
    }
  }

  /// pred := simple {and simple};  simple := IDENT op (literal | IDENT)
  Result<Predicate> ParsePredicate() {
    std::vector<Predicate> conjuncts;
    while (true) {
      HRDM_ASSIGN_OR_RETURN(std::string attr, TakeIdentifier());
      HRDM_ASSIGN_OR_RETURN(CompareOp op, TakeCompareOp());
      if (At(TokenKind::kIdentifier)) {
        const std::string kw = Lower(Peek().text);
        if (kw == "true" || kw == "false") {
          HRDM_ASSIGN_OR_RETURN(Value v, TakeLiteral());
          conjuncts.push_back(Predicate::AttrConst(attr, op, std::move(v)));
        } else {
          conjuncts.push_back(Predicate::AttrAttr(attr, op, Take().text));
        }
      } else {
        HRDM_ASSIGN_OR_RETURN(Value v, TakeLiteral());
        conjuncts.push_back(Predicate::AttrConst(attr, op, std::move(v)));
      }
      if (PeekKeyword() == "and") {
        Take();
        continue;
      }
      break;
    }
    if (conjuncts.size() == 1) return conjuncts.front();
    return Predicate::And(std::move(conjuncts));
  }

  Result<Quantifier> ParseQuantifier() {
    const std::string kw = PeekKeyword();
    if (kw == "exists") {
      Take();
      return Quantifier::kExists;
    }
    if (kw == "forall") {
      Take();
      return Quantifier::kForall;
    }
    return Error("expected quantifier 'exists' or 'forall'");
  }

  /// interval := [ INT ] | [ INT , INT ]
  Result<Interval> ParseInterval() {
    HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLBracket));
    if (!At(TokenKind::kInt)) return Error("expected chronon");
    const TimePoint b = Take().int_value;
    TimePoint e = b;
    if (At(TokenKind::kComma)) {
      Take();
      if (!At(TokenKind::kInt)) return Error("expected chronon");
      e = Take().int_value;
    }
    HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
    if (e < b) return Error("interval end precedes begin");
    return Interval(b, e);
  }

  Result<LsExprPtr> LsExprRule() {
    return Nested([this] { return LsExprBody(); });
  }

  Result<ExprPtr> RelExpr() {
    return Nested([this] { return RelExprBody(); });
  }

  /// Parses one subexpression a level deeper, refusing input nested past
  /// kMaxNestingDepth: every later stage (optimize, lower, execute, print,
  /// destroy) recurses over the tree, so the limit guards them all.
  template <typename Rule>
  auto Nested(Rule rule) -> decltype(rule()) {
    if (depth_ == kMaxNestingDepth) {
      return Error(StrPrintf("expression nests deeper than %d levels",
                             kMaxNestingDepth));
    }
    ++depth_;
    auto out = rule();
    --depth_;
    return out;
  }

  Result<LsExprPtr> LsExprBody() {
    if (At(TokenKind::kLBrace)) {
      Take();
      std::vector<Interval> ivs;
      if (!At(TokenKind::kRBrace)) {
        while (true) {
          HRDM_ASSIGN_OR_RETURN(Interval iv, ParseInterval());
          ivs.push_back(iv);
          if (At(TokenKind::kComma)) {
            Take();
            continue;
          }
          break;
        }
      }
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
      return LsLiteral(Lifespan::FromIntervals(std::move(ivs)));
    }
    const std::string kw = PeekKeyword();
    if (kw == "when") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(ExprPtr rel, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return WhenE(std::move(rel));
    }
    if (kw == "lunion" || kw == "lintersect" || kw == "lminus") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(LsExprPtr l, LsExprRule());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(LsExprPtr r, LsExprRule());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      const LsExprKind kind = kw == "lunion"      ? LsExprKind::kUnion
                              : kw == "lintersect" ? LsExprKind::kIntersect
                                                   : LsExprKind::kDifference;
      return LsBinary(kind, std::move(l), std::move(r));
    }
    return Error("expected lifespan expression");
  }

  Result<ExprPtr> Binary2(ExprKind kind) {
    Take();  // function name
    HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    HRDM_ASSIGN_OR_RETURN(ExprPtr l, RelExpr());
    HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
    HRDM_ASSIGN_OR_RETURN(ExprPtr r, RelExpr());
    HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    return Binary(kind, std::move(l), std::move(r));
  }

  Result<ExprPtr> RelExprBody() {
    const std::string kw = PeekKeyword();
    if (kw.empty()) return Error("expected relation expression");

    if (kw == "select_if") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(ExprPtr e, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(Predicate p, ParsePredicate());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(Quantifier q, ParseQuantifier());
      LsExprPtr window;
      if (At(TokenKind::kComma)) {
        Take();
        HRDM_ASSIGN_OR_RETURN(window, LsExprRule());
      }
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return SelectIfE(std::move(e), std::move(p), q, std::move(window));
    }
    if (kw == "select_when") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(ExprPtr e, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(Predicate p, ParsePredicate());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return SelectWhenE(std::move(e), std::move(p));
    }
    if (kw == "project") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(ExprPtr e, RelExpr());
      std::vector<std::string> attrs;
      while (At(TokenKind::kComma)) {
        Take();
        HRDM_ASSIGN_OR_RETURN(std::string a, TakeIdentifier());
        attrs.push_back(std::move(a));
      }
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      if (attrs.empty()) return Error("project needs at least one attribute");
      return ProjectE(std::move(e), std::move(attrs));
    }
    if (kw == "timeslice") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(ExprPtr e, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(LsExprPtr window, LsExprRule());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return TimeSliceE(std::move(e), std::move(window));
    }
    if (kw == "dynslice") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(ExprPtr e, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(std::string attr, TakeIdentifier());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return DynSliceE(std::move(e), std::move(attr));
    }
    if (kw == "union") return Binary2(ExprKind::kUnion);
    if (kw == "intersect") return Binary2(ExprKind::kIntersect);
    if (kw == "minus") return Binary2(ExprKind::kDifference);
    if (kw == "ounion") return Binary2(ExprKind::kUnionO);
    if (kw == "ointersect") return Binary2(ExprKind::kIntersectO);
    if (kw == "ominus") return Binary2(ExprKind::kDifferenceO);
    if (kw == "product") return Binary2(ExprKind::kProduct);
    if (kw == "natjoin") return Binary2(ExprKind::kNaturalJoin);
    if (kw == "join") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(ExprPtr l, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(ExprPtr r, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(std::string a, TakeIdentifier());
      HRDM_ASSIGN_OR_RETURN(CompareOp op, TakeCompareOp());
      HRDM_ASSIGN_OR_RETURN(std::string b, TakeIdentifier());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return ThetaJoinE(std::move(l), std::move(r), std::move(a), op,
                        std::move(b));
    }
    if (kw == "aggregate") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(ExprPtr e, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      if (!At(TokenKind::kIdentifier)) {
        return Error("expected aggregate function (count|sum|min|max|avg)");
      }
      auto fn = AggregateFnFromName(Lower(Peek().text));
      if (!fn.ok()) {
        return Error("expected aggregate function (count|sum|min|max|avg)");
      }
      Take();
      std::string value_attr;
      if (*fn != AggregateFn::kCount) {
        // 'by' here means the attribute was omitted — reject it now with
        // a precise message instead of mis-reading it as an attribute
        // named "by" and failing later (or at scheme validation).
        if (PeekKeyword() == "by") {
          return Error("aggregate function needs an attribute before 'by'");
        }
        HRDM_ASSIGN_OR_RETURN(value_attr, TakeIdentifier());
      }
      std::vector<std::string> group_by;
      if (PeekKeyword() == "by") {
        Take();
        while (true) {
          HRDM_ASSIGN_OR_RETURN(std::string g, TakeIdentifier());
          group_by.push_back(std::move(g));
          if (At(TokenKind::kComma)) {
            Take();
            continue;
          }
          break;
        }
      }
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return AggregateE(std::move(e), *fn, std::move(value_attr),
                        std::move(group_by));
    }
    if (kw == "timejoin") {
      Take();
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      HRDM_ASSIGN_OR_RETURN(ExprPtr l, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(ExprPtr r, RelExpr());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      HRDM_ASSIGN_OR_RETURN(std::string a, TakeIdentifier());
      HRDM_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return TimeJoinE(std::move(l), std::move(r), std::move(a));
    }
    // Plain identifier: base relation reference (case-sensitive).
    return Rel(Take().text);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<ExprPtr> ParseExpr(std::string_view input) {
  HRDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser p(std::move(tokens));
  return p.ParseRelation();
}

Result<LsExprPtr> ParseLsExpr(std::string_view input) {
  HRDM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser p(std::move(tokens));
  return p.ParseLifespan();
}

Result<ParsedQuery> ParseQuery(std::string_view input) {
  auto rel = ParseExpr(input);
  if (rel.ok()) return ParsedQuery(std::move(rel).value());
  auto ls = ParseLsExpr(input);
  if (ls.ok()) return ParsedQuery(std::move(ls).value());
  return rel.status();
}

}  // namespace hrdm::query
