//===- itl/Parser.h - Reader for printed ITL traces -------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the concrete trace syntax of Figs. 3 and 6 back into Trace values
/// (the inverse of Trace::toString()).  One pass: tokens (atoms, |barred
/// symbols|, parens; whitespace and ';' comments between them) are read
/// from a bounds-checked cursor and hash-consed into terms as they arrive,
/// with no intermediate tree.  Every trace the verifier uses, fresh or
/// cached, goes through here, and cached text is untrusted: numbers,
/// operand sorts and nesting depth are checked, and the whole input must
/// be one trace.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_ITL_PARSER_H
#define ISLARIS_ITL_PARSER_H

#include "itl/Trace.h"
#include "smt/TermBuilder.h"
#include "support/Parse.h"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace islaris::itl {

/// Parses ITL traces, creating SMT variables in \p TB as declare-consts are
/// encountered.  Variables are scoped to one parse.
class TraceParser {
public:
  explicit TraceParser(smt::TermBuilder &TB) : TB(TB) {}

  /// Parses "(trace ...)" text, which must be the whole input apart from
  /// whitespace and comments.  Returns nullopt on error.
  std::optional<Trace> parseTrace(std::string_view Text);
  const std::string &error() const { return Error; }

  /// The variable in scope as \p Name, or null.  After a parse, those are
  /// the ones the trace declares or defines at its top level, outside any
  /// cases.
  const smt::Term *var(std::string_view Name) const {
    auto It = Vars.find(Name);
    return It == Vars.end() ? nullptr : It->second;
  }

private:
  // Tokens.
  void skipSpace();
  bool atOpen();
  bool atClose();
  bool enter();
  bool leave();
  std::string_view atom();
  std::string_view symbol();
  bool number(unsigned &Out);

  // Grammar.
  bool trace(Trace &T);
  bool event(std::string_view Head, size_t Start, Trace &T);
  bool regAccessor(Reg &R);
  const smt::Term *regValue();
  const smt::Term *term();
  const smt::Term *operation(size_t Start);
  const smt::Term *indexedTerm(size_t Start);
  std::optional<smt::Sort> sort();
  const smt::Term *declare(std::string_view Name, smt::Sort S, size_t Start);

  const smt::Term *fail(size_t Start, const std::string &Msg);

  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };

  smt::TermBuilder &TB;
  support::Cursor C;
  unsigned Depth = 0; ///< Open parens around the cursor.
  std::unordered_map<std::string, const smt::Term *, NameHash,
                     std::equal_to<>>
      Vars;
  /// Names in Vars in declaration order, as views of the text being
  /// parsed, so a subtrace's own names can be dropped when it ends: sibling
  /// cases are separate scopes (Isla reuses names across branches, e.g. v38
  /// in both arms of Fig. 6).
  std::vector<std::string_view> Declared;
  std::string Error;
};

} // namespace islaris::itl

#endif // ISLARIS_ITL_PARSER_H
