//===- itl/Parser.h - S-expression parser for ITL traces --------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the concrete trace syntax of Figs. 3 and 6 back into Trace values
/// (the inverse of Trace::toString()).  Used by golden tests and by the
/// frontend's trace cache.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_ITL_PARSER_H
#define ISLARIS_ITL_PARSER_H

#include "itl/Trace.h"
#include "smt/TermBuilder.h"

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace islaris::itl {

/// A parsed S-expression: an atom or a list.
struct SExpr {
  std::string Atom; ///< Non-empty iff this is an atom.
  std::vector<SExpr> List;
  bool isAtom() const { return !Atom.empty(); }
  std::string toString() const;
};

/// \p S without its |quoting bars|, if it has them.
std::string stripBars(const std::string &S);

/// Tokenizes and parses S-expressions.  Returns nullopt and sets the error
/// string on malformed input.
class SExprParser {
public:
  explicit SExprParser(std::string Text) : Text(std::move(Text)) {}
  std::optional<SExpr> parse();
  const std::string &error() const { return Error; }
  /// Offset just past the last consumed token.  Lets callers parse a
  /// leading S-expression header and keep the remainder of the input
  /// verbatim (the trace-cache entry format does this).
  size_t position() const { return Pos; }

private:
  void skipWhitespace();
  bool atEnd() const { return Pos >= Text.size(); }
  std::optional<SExpr> parseOne();

  std::string Text;
  size_t Pos = 0;
  std::string Error;
};

/// Parses ITL traces, creating SMT variables in \p TB as declare-consts are
/// encountered.  Variables are scoped to one parser instance.
class TraceParser {
public:
  explicit TraceParser(smt::TermBuilder &TB) : TB(TB) {}

  /// Parses "(trace ...)" text.  Returns nullopt on error.
  std::optional<Trace> parseTrace(const std::string &Text);
  const std::string &error() const { return Error; }

  /// Variables created while parsing, by source name.
  const std::unordered_map<std::string, const smt::Term *> &vars() const {
    return Vars;
  }

private:
  std::optional<Trace> buildTrace(const SExpr &S);
  std::optional<Event> buildEvent(const SExpr &S);
  const smt::Term *buildTermExpr(const SExpr &S);
  std::optional<smt::Sort> buildSort(const SExpr &S);
  const smt::Term *fail(const std::string &Msg);

  smt::TermBuilder &TB;
  std::unordered_map<std::string, const smt::Term *> Vars;
  std::string Error;
};

} // namespace islaris::itl

#endif // ISLARIS_ITL_PARSER_H
