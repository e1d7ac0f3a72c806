#ifndef HRDM_QUERY_PARSER_H_
#define HRDM_QUERY_PARSER_H_

/// \file parser.h
/// \brief Recursive-descent parser for HRQL, the textual HRDM algebra.
///
/// The paper presents the algebra in mathematical notation; HRQL is a
/// 1:1 functional syntax over the same operators so that examples and
/// tests can be written at the paper's level of abstraction:
///
/// ```
/// rel_expr :=
///     IDENT                                       -- base relation
///   | select_if(rel_expr, pred, quant [, ls_expr])-- SELECT-IF (§4.3)
///   | select_when(rel_expr, pred)                 -- SELECT-WHEN (§4.3)
///   | project(rel_expr, IDENT {, IDENT})          -- PROJECT (§4.2)
///   | timeslice(rel_expr, ls_expr)                -- static TIME-SLICE (§4.4)
///   | dynslice(rel_expr, IDENT)                   -- dynamic TIME-SLICE (§4.4)
///   | union|intersect|minus(rel_expr, rel_expr)   -- set ops (§4.1)
///   | ounion|ointersect|ominus(rel_expr, rel_expr)-- object-based (§4.1)
///   | product(rel_expr, rel_expr)                 -- × (§4.1)
///   | join(rel_expr, rel_expr, IDENT op IDENT)    -- θ-JOIN (§4.6)
///   | natjoin(rel_expr, rel_expr)                 -- NATURAL-JOIN (§4.6)
///   | timejoin(rel_expr, rel_expr, IDENT)         -- TIME-JOIN (§4.6)
///   | aggregate(rel_expr, agg)                    -- temporal aggregation
///
/// agg :=
///     count [by IDENT {, IDENT}]
///   | (sum|min|max|avg) IDENT [by IDENT {, IDENT}]
///
/// ls_expr :=
///     { interval {, interval} } | {}              -- lifespan literal
///   | when(rel_expr)                              -- WHEN (§4.5)
///   | lunion|lintersect|lminus(ls_expr, ls_expr)  -- lifespan set ops (§2)
///
/// interval := [ INT ] | [ INT , INT ]
/// pred     := simple {and simple}
/// simple   := IDENT op literal | IDENT op IDENT
/// op       := = | != | < | <= | > | >=
/// quant    := exists | forall
/// literal  := INT | DOUBLE | STRING | true | false | @INT (time)
/// ```
///
/// Keywords are case-insensitive; attribute/relation identifiers are
/// case-sensitive. `ToString()` on the AST prints this grammar back, and
/// parsing is a round-trip (property-tested).

#include <string_view>
#include <variant>

#include "query/ast.h"
#include "util/status.h"

namespace hrdm::query {

/// \brief The deepest nesting of subexpressions the parser accepts. Each
/// relation- or lifespan-sorted subexpression on the path from the root
/// counts one level, so `timeslice(emp, {[1, 2]})` nests two deep. Deeper
/// input is a ParseError, never a stack overflow in a later stage.
inline constexpr int kMaxNestingDepth = 256;

/// \brief A parsed query: either relation-sorted or lifespan-sorted.
using ParsedQuery = std::variant<ExprPtr, LsExprPtr>;

/// \brief Parses a relation-sorted expression.
Result<ExprPtr> ParseExpr(std::string_view input);

/// \brief Parses a lifespan-sorted expression.
Result<LsExprPtr> ParseLsExpr(std::string_view input);

/// \brief Parses either sort (tries relation first, then lifespan).
Result<ParsedQuery> ParseQuery(std::string_view input);

}  // namespace hrdm::query

#endif  // HRDM_QUERY_PARSER_H_
