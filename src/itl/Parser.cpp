//===- itl/Parser.cpp - S-expression parser for ITL traces --------------------===//

#include "itl/Parser.h"

#include "support/Parse.h"

using namespace islaris;
using namespace islaris::itl;
using smt::Sort;
using smt::Term;

std::string SExpr::toString() const {
  if (isAtom())
    return Atom;
  std::string S = "(";
  for (size_t I = 0; I < List.size(); ++I) {
    if (I)
      S += " ";
    S += List[I].toString();
  }
  return S + ")";
}

void SExprParser::skipWhitespace() {
  while (!atEnd()) {
    char C = Text[Pos];
    if (C == ';') { // comment to end of line
      while (!atEnd() && Text[Pos] != '\n')
        ++Pos;
      continue;
    }
    if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
      return;
    ++Pos;
  }
}

std::optional<SExpr> SExprParser::parseOne() {
  skipWhitespace();
  if (atEnd()) {
    Error = "unexpected end of input";
    return std::nullopt;
  }
  char C = Text[Pos];
  if (C == '(') {
    ++Pos;
    SExpr S;
    while (true) {
      skipWhitespace();
      if (atEnd()) {
        Error = "unterminated list";
        return std::nullopt;
      }
      if (Text[Pos] == ')') {
        ++Pos;
        return S;
      }
      auto Child = parseOne();
      if (!Child)
        return std::nullopt;
      S.List.push_back(std::move(*Child));
    }
  }
  if (C == ')') {
    Error = "unexpected ')'";
    return std::nullopt;
  }
  if (C == '|') {
    size_t End = Text.find('|', Pos + 1);
    if (End == std::string::npos) {
      Error = "unterminated |symbol|";
      return std::nullopt;
    }
    SExpr S;
    S.Atom = Text.substr(Pos, End - Pos + 1); // keep the bars
    Pos = End + 1;
    return S;
  }
  // Plain atom: up to whitespace or paren.
  size_t Start = Pos;
  while (!atEnd()) {
    char D = Text[Pos];
    if (D == '(' || D == ')' || D == ' ' || D == '\t' || D == '\n' ||
        D == '\r')
      break;
    ++Pos;
  }
  SExpr S;
  S.Atom = Text.substr(Start, Pos - Start);
  return S;
}

std::optional<SExpr> SExprParser::parse() { return parseOne(); }

//===----------------------------------------------------------------------===//
// Trace building.
//===----------------------------------------------------------------------===//

std::string islaris::itl::stripBars(const std::string &S) {
  if (S.size() >= 2 && S.front() == '|' && S.back() == '|')
    return S.substr(1, S.size() - 2);
  return S;
}

/// Trace text reaches this parser from untrusted bytes (disk cache entries,
/// islarisd wire payloads), so every embedded number must be validated: a
/// 20-digit extract index must become a parse error, not an uncaught
/// std::out_of_range in a server worker thread.  Widths/indices are capped
/// well above any real ISA width but far below allocation-bomb territory.
static constexpr uint64_t MaxTraceNumber = 1u << 16;

static bool parseNum(const SExpr &S, unsigned &Out) {
  return S.isAtom() && support::parseUnsigned(S.Atom, MaxTraceNumber, Out);
}

const Term *TraceParser::fail(const std::string &Msg) {
  if (Error.empty())
    Error = Msg;
  return nullptr;
}

std::optional<Sort> TraceParser::buildSort(const SExpr &S) {
  if (S.isAtom()) {
    if (S.Atom == "Bool")
      return Sort::boolean();
    Error = "unknown sort " + S.Atom;
    return std::nullopt;
  }
  // (_ BitVec N)
  if (S.List.size() == 3 && S.List[0].Atom == "_" &&
      S.List[1].Atom == "BitVec") {
    unsigned W = 0;
    if (!parseNum(S.List[2], W) || W == 0) {
      Error = "bad bitvector width in " + S.toString();
      return std::nullopt;
    }
    return Sort::bitvec(W);
  }
  Error = "unknown sort " + S.toString();
  return std::nullopt;
}

// Operand sorts are checked here: TermBuilder only asserts them, and the
// text is untrusted.  Results wider than MaxTraceNumber bits are refused,
// so nested extensions and concats cannot build an allocation bomb.
static bool isBV(const Term *T) { return T->sort().isBitVec(); }
static bool bothBool(const Term *A, const Term *B) {
  return A->isBool() && B->isBool();
}
static bool sameSort(const Term *A, const Term *B) {
  return A->sort() == B->sort();
}
static bool sameBV(const Term *A, const Term *B) {
  return sameSort(A, B) && isBV(A);
}
static bool concatable(const Term *A, const Term *B) {
  return isBV(A) && isBV(B) && A->width() + B->width() <= MaxTraceNumber;
}

const Term *TraceParser::buildTermExpr(const SExpr &S) {
  if (S.isAtom()) {
    const std::string &A = S.Atom;
    if (A == "true")
      return TB.trueTerm();
    if (A == "false")
      return TB.falseTerm();
    if (A.size() >= 2 && A[0] == '#') {
      BitVec V;
      if (!BitVec::fromString(A, V))
        return fail("bad bitvector literal " + A);
      return TB.constBV(V);
    }
    auto It = Vars.find(A);
    if (It == Vars.end())
      return fail("use of undeclared variable " + A);
    return It->second;
  }

  const std::vector<SExpr> &L = S.List;
  if (L.empty())
    return fail("empty expression");

  // Indexed operators: ((_ extract hi lo) e), ((_ zero_extend n) e), ...
  if (!L[0].isAtom() && L[0].List.size() >= 2 && L[0].List[0].Atom == "_") {
    const std::vector<SExpr> &Idx = L[0].List;
    const std::string &Op = Idx[1].Atom;
    if (Op == "extract" && Idx.size() == 4 && L.size() == 2) {
      unsigned Hi = 0, Lo = 0;
      if (!parseNum(Idx[2], Hi) || !parseNum(Idx[3], Lo) || Lo > Hi)
        return fail("bad extract indices in " + S.toString());
      const Term *E = buildTermExpr(L[1]);
      if (!E)
        return nullptr;
      if (E->sort().isBool() || Hi >= E->sort().width())
        return fail("extract out of range in " + S.toString());
      return TB.extract(Hi, Lo, E);
    }
    if ((Op == "zero_extend" || Op == "sign_extend") && Idx.size() == 3 &&
        L.size() == 2) {
      unsigned N = 0;
      if (!parseNum(Idx[2], N))
        return fail("bad extension width in " + S.toString());
      const Term *E = buildTermExpr(L[1]);
      if (!E)
        return nullptr;
      if (!isBV(E) || E->width() + N > MaxTraceNumber)
        return fail("bad extension operand in " + S.toString());
      return Op == "zero_extend" ? TB.zeroExtend(N, E) : TB.signExtend(N, E);
    }
    return fail("unknown indexed operator " + S.toString());
  }

  const std::string &Op = L[0].Atom;
  auto arg = [&](size_t I) { return buildTermExpr(L[I]); };
  auto illSorted = [&] {
    return fail("ill-sorted operands in " + S.toString());
  };

  if (Op == "not" && L.size() == 2) {
    const Term *A = arg(1);
    return !A ? nullptr : A->isBool() ? TB.notTerm(A) : illSorted();
  }
  if (Op == "bvnot" && L.size() == 2) {
    const Term *A = arg(1);
    return !A ? nullptr : isBV(A) ? TB.bvNot(A) : illSorted();
  }
  if (Op == "bvneg" && L.size() == 2) {
    const Term *A = arg(1);
    return !A ? nullptr : isBV(A) ? TB.bvNeg(A) : illSorted();
  }
  if (Op == "ite" && L.size() == 4) {
    const Term *C = arg(1), *T = arg(2), *E = arg(3);
    if (!C || !T || !E)
      return nullptr;
    return C->isBool() && sameSort(T, E) ? TB.iteTerm(C, T, E) : illSorted();
  }

  // Left-associative n-ary for and/or; binary otherwise.  Ok checks each
  // pair of operands before TermBuilder sees it.
  auto nary = [&](auto F, bool (*Ok)(const Term *, const Term *)) {
    if (L.size() < 3)
      return fail("operator " + Op + " needs arguments");
    const Term *Acc = arg(1);
    for (size_t I = 2; Acc && I < L.size(); ++I) {
      const Term *Next = arg(I);
      if (Next && !Ok(Acc, Next))
        return illSorted();
      Acc = Next ? (TB.*F)(Acc, Next) : nullptr;
    }
    return Acc;
  };

  using smt::TermBuilder;
  if (Op == "and")
    return nary(&TermBuilder::andTerm, bothBool);
  if (Op == "or")
    return nary(&TermBuilder::orTerm, bothBool);
  if (Op == "=>")
    return nary(&TermBuilder::impliesTerm, bothBool);
  if (Op == "=")
    return nary(&TermBuilder::eqTerm, sameSort);
  if (Op == "bvadd")
    return nary(&TermBuilder::bvAdd, sameBV);
  if (Op == "bvsub")
    return nary(&TermBuilder::bvSub, sameBV);
  if (Op == "bvmul")
    return nary(&TermBuilder::bvMul, sameBV);
  if (Op == "bvudiv")
    return nary(&TermBuilder::bvUDiv, sameBV);
  if (Op == "bvurem")
    return nary(&TermBuilder::bvURem, sameBV);
  if (Op == "bvsdiv")
    return nary(&TermBuilder::bvSDiv, sameBV);
  if (Op == "bvsrem")
    return nary(&TermBuilder::bvSRem, sameBV);
  if (Op == "bvand")
    return nary(&TermBuilder::bvAnd, sameBV);
  if (Op == "bvor")
    return nary(&TermBuilder::bvOr, sameBV);
  if (Op == "bvxor")
    return nary(&TermBuilder::bvXor, sameBV);
  if (Op == "bvshl")
    return nary(&TermBuilder::bvShl, sameBV);
  if (Op == "bvlshr")
    return nary(&TermBuilder::bvLShr, sameBV);
  if (Op == "bvashr")
    return nary(&TermBuilder::bvAShr, sameBV);
  if (Op == "bvult")
    return nary(&TermBuilder::bvUlt, sameBV);
  if (Op == "bvule")
    return nary(&TermBuilder::bvUle, sameBV);
  if (Op == "bvslt")
    return nary(&TermBuilder::bvSlt, sameBV);
  if (Op == "bvsle")
    return nary(&TermBuilder::bvSle, sameBV);
  if (Op == "concat")
    return nary(&TermBuilder::concat, concatable);

  return fail("unknown operator " + Op);
}

/// Parses a register value, unwrapping "(_ struct (|F| v))" to v.
static const SExpr *unwrapStruct(const SExpr &S) {
  if (!S.isAtom() && S.List.size() == 3 && S.List[0].Atom == "_" &&
      S.List[1].Atom == "struct" && !S.List[2].isAtom() &&
      S.List[2].List.size() == 2)
    return &S.List[2].List[1];
  return &S;
}

/// Parses the register accessor pair: base symbol plus "nil" or
/// "((_ field |F|))".
static bool parseRegAccessor(const SExpr &BaseS, const SExpr &AccS, Reg &Out) {
  if (!BaseS.isAtom())
    return false;
  Out.Base = stripBars(BaseS.Atom);
  Out.Field.clear();
  if (AccS.isAtom())
    return AccS.Atom == "nil";
  if (AccS.List.size() == 1 && !AccS.List[0].isAtom() &&
      AccS.List[0].List.size() == 3 && AccS.List[0].List[0].Atom == "_" &&
      AccS.List[0].List[1].Atom == "field") {
    Out.Field = stripBars(AccS.List[0].List[2].Atom);
    return true;
  }
  return false;
}

std::optional<Event> TraceParser::buildEvent(const SExpr &S) {
  if (S.isAtom() || S.List.empty() || !S.List[0].isAtom()) {
    Error = "malformed event " + S.toString();
    return std::nullopt;
  }
  const std::string &Head = S.List[0].Atom;
  auto err = [&](const std::string &M) -> std::optional<Event> {
    if (Error.empty())
      Error = M + ": " + S.toString();
    return std::nullopt;
  };

  if (Head == "read-reg" || Head == "write-reg" || Head == "assume-reg") {
    if (S.List.size() != 4)
      return err("register event arity");
    Reg R;
    if (!parseRegAccessor(S.List[1], S.List[2], R))
      return err("bad register accessor");
    const Term *V = buildTermExpr(*unwrapStruct(S.List[3]));
    if (!V)
      return std::nullopt;
    if (Head == "read-reg")
      return Event::readReg(R, V);
    if (Head == "write-reg")
      return Event::writeReg(R, V);
    return Event::assumeReg(R, V);
  }
  if (Head == "read-mem") {
    if (S.List.size() != 4)
      return err("read-mem arity");
    unsigned N = 0;
    if (!parseNum(S.List[3], N))
      return err("bad read-mem byte count");
    const Term *D = buildTermExpr(S.List[1]);
    const Term *A = buildTermExpr(S.List[2]);
    if (!D || !A)
      return std::nullopt;
    if (!isBV(D) || !isBV(A) || D->width() != N * 8)
      return err("read-mem operand sorts");
    return Event::readMem(D, A, N);
  }
  if (Head == "write-mem") {
    if (S.List.size() != 4)
      return err("write-mem arity");
    unsigned N = 0;
    if (!parseNum(S.List[3], N))
      return err("bad write-mem byte count");
    const Term *A = buildTermExpr(S.List[1]);
    const Term *D = buildTermExpr(S.List[2]);
    if (!A || !D)
      return std::nullopt;
    if (!isBV(D) || !isBV(A) || D->width() != N * 8)
      return err("write-mem operand sorts");
    return Event::writeMem(A, D, N);
  }
  if (Head == "declare-const") {
    if (S.List.size() != 3 || !S.List[1].isAtom())
      return err("declare-const arity");
    auto Sort = buildSort(S.List[2]);
    if (!Sort)
      return std::nullopt;
    const std::string &Name = S.List[1].Atom;
    if (Vars.count(Name))
      return err("redeclaration of " + Name);
    const Term *V = TB.freshVar(*Sort, Name);
    Vars[Name] = V;
    return Event::declareConst(V);
  }
  if (Head == "define-const") {
    if (S.List.size() != 3 || !S.List[1].isAtom())
      return err("define-const arity");
    const Term *E = buildTermExpr(S.List[2]);
    if (!E)
      return std::nullopt;
    const std::string &Name = S.List[1].Atom;
    if (Vars.count(Name))
      return err("redefinition of " + Name);
    const Term *V = TB.freshVar(E->sort(), Name);
    Vars[Name] = V;
    return Event::defineConst(V, E);
  }
  if (Head == "assert" || Head == "assume") {
    if (S.List.size() != 2)
      return err("assert/assume arity");
    const Term *E = buildTermExpr(S.List[1]);
    if (!E)
      return std::nullopt;
    if (!E->isBool())
      return err("assert/assume of a non-boolean");
    return Head == "assert" ? Event::assertE(E) : Event::assumeE(E);
  }
  return err("unknown event kind " + Head);
}

std::optional<Trace> TraceParser::buildTrace(const SExpr &S) {
  if (S.isAtom() || S.List.empty() || S.List[0].Atom != "trace") {
    Error = "expected (trace ...)";
    return std::nullopt;
  }
  Trace T;
  for (size_t I = 1; I < S.List.size(); ++I) {
    const SExpr &Item = S.List[I];
    if (!Item.isAtom() && !Item.List.empty() &&
        Item.List[0].Atom == "cases") {
      if (I + 1 != S.List.size()) {
        Error = "cases must terminate a trace";
        return std::nullopt;
      }
      for (size_t J = 1; J < Item.List.size(); ++J) {
        // Sibling subtraces are separate scopes: Isla reuses variable
        // names across branches (e.g. v38 in both arms of Fig. 6).
        auto Saved = Vars;
        auto Sub = buildTrace(Item.List[J]);
        Vars = std::move(Saved);
        if (!Sub)
          return std::nullopt;
        T.Cases.push_back(std::move(*Sub));
      }
      return T;
    }
    auto E = buildEvent(Item);
    if (!E)
      return std::nullopt;
    T.Events.push_back(std::move(*E));
  }
  return T;
}

std::optional<Trace> TraceParser::parseTrace(const std::string &Text) {
  SExprParser P(Text);
  auto S = P.parse();
  if (!S) {
    Error = P.error();
    return std::nullopt;
  }
  return buildTrace(*S);
}
