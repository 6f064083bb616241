//===- itl/Parser.cpp - Reader for printed ITL traces -------------------------===//

#include "itl/Parser.h"

using namespace islaris;
using namespace islaris::itl;
using smt::Sort;
using smt::Term;
using smt::TermBuilder;

/// Trace text reaches this parser from untrusted bytes (disk cache entries,
/// islarisd wire payloads), so every embedded number must be validated: a
/// 20-digit extract index must become a parse error, not an uncaught
/// std::out_of_range in a server worker thread.  Widths/indices are capped
/// well above any real ISA width but far below allocation-bomb territory.
static constexpr uint64_t MaxTraceNumber = 1u << 16;

/// The deepest paren nesting a trace may have.  The parser recurses once per
/// level, so a forged entry nested 100,000 deep would overflow a worker
/// thread's stack.  Real traces stay far below the cap: at most 67 levels
/// over the 125 entries the nine Fig. 12 studies write, and 74 over
/// daemon_mixed's 64-path add/sub keys.
static constexpr unsigned MaxTraceDepth = 512;

//===----------------------------------------------------------------------===//
// Tokens.
//===----------------------------------------------------------------------===//

static bool isSpace(char Ch) {
  return Ch == ' ' || Ch == '\t' || Ch == '\n' || Ch == '\r';
}
static bool isAtomChar(char Ch) {
  return !isSpace(Ch) && Ch != '(' && Ch != ')';
}

const Term *TraceParser::fail(size_t Start, const std::string &Msg) {
  if (!Error.empty())
    return nullptr;
  // Quote what was read of the offending form, or what follows it.
  size_t End = C.P > Start ? C.P : C.S.size();
  std::string_view Slice = C.S.substr(Start, End - Start);
  Error = Msg + " at offset " + std::to_string(Start);
  if (!Slice.empty())
    Error.append(": ").append(Slice.substr(0, 80));
  if (Slice.size() > 80)
    Error += " ...";
  return nullptr;
}

void TraceParser::skipSpace() {
  C.span(isSpace);
  while (C.lit(";")) { // a comment runs to the end of the line
    C.span([](char Ch) { return Ch != '\n'; });
    C.span(isSpace);
  }
}

bool TraceParser::atOpen() {
  skipSpace();
  return C.at('(');
}

bool TraceParser::atClose() {
  skipSpace();
  return C.at(')');
}

/// Consumes a '('.  False if there is none, or (with an error) if it would
/// nest deeper than MaxTraceDepth.
bool TraceParser::enter() {
  if (!atOpen())
    return false;
  if (Depth == MaxTraceDepth)
    return fail(C.P, "nesting deeper than " + std::to_string(MaxTraceDepth));
  ++C.P;
  ++Depth;
  return true;
}

/// Consumes a ')' if one is next.
bool TraceParser::leave() {
  if (!atClose())
    return false;
  ++C.P;
  --Depth;
  return true;
}

/// Consumes an atom, or a |barred symbol| with its bars.  Empty, consuming
/// nothing, before a paren or the end.
std::string_view TraceParser::atom() {
  skipSpace();
  size_t Start = C.P;
  if (!C.lit("|"))
    return C.span(isAtomChar);
  std::string_view Body;
  if (!C.until('|', Body)) {
    fail(Start, "unterminated |symbol|");
    C.P = Start;
    return {};
  }
  ++C.P;
  return C.S.substr(Start, C.P - Start);
}

/// Consumes an atom and drops its bars: a register or field name.
std::string_view TraceParser::symbol() {
  std::string_view A = atom();
  return A.empty() || A[0] != '|' ? A : A.substr(1, A.size() - 2);
}

bool TraceParser::number(unsigned &Out) {
  return support::parseUnsigned(atom(), MaxTraceNumber, Out);
}

//===----------------------------------------------------------------------===//
// Traces and events.
//===----------------------------------------------------------------------===//

std::optional<Trace> TraceParser::parseTrace(std::string_view Text) {
  C = support::Cursor{Text};
  Depth = 0;
  Vars.clear();
  Declared.clear();
  Error.clear();
  Trace T;
  bool Ok = trace(T);
  skipSpace();
  if (Ok && !C.atEnd()) {
    fail(C.P, "trailing input after the trace");
    Ok = false;
  }
  // Text need not outlive the parse, so keep no view of it.
  C = {};
  Declared.clear();
  if (!Ok)
    return std::nullopt;
  return T;
}

/// trace := "(trace" event* ["(cases" trace* ")"] ")"
bool TraceParser::trace(Trace &T) {
  skipSpace();
  size_t Start = C.P;
  if (!enter() || atom() != "trace")
    return fail(Start, "expected (trace ...)");
  while (!leave()) {
    size_t At = C.P;
    if (!enter())
      return fail(At, C.atEnd() ? "unterminated trace" : "malformed event");
    std::string_view Head = atom();
    if (Head == "cases") {
      while (!leave()) {
        size_t Scope = Declared.size();
        if (!trace(T.Cases.emplace_back()))
          return false;
        for (size_t I = Scope; I < Declared.size(); ++I)
          Vars.erase(Vars.find(Declared[I]));
        Declared.resize(Scope);
      }
      if (!leave())
        return fail(At, "cases must terminate a trace");
      return true;
    }
    if (!event(Head, At, T) || !leave())
      return fail(At, "bad " + std::string(Head) + " event");
  }
  return true;
}

/// Binds \p Name to a fresh variable of sort \p S in the current scope.
const Term *TraceParser::declare(std::string_view Name, Sort S, size_t Start) {
  auto [It, New] = Vars.try_emplace(std::string(Name), nullptr);
  if (!New)
    return fail(Start, "redeclaration of " + It->first);
  It->second = TB.freshVar(S, It->first);
  Declared.push_back(Name);
  return It->second;
}

/// accessor := "nil" | "((_ field" symbol "))"
bool TraceParser::regAccessor(Reg &R) {
  R.Base = symbol();
  if (R.Base.empty())
    return false;
  if (!atOpen())
    return atom() == "nil";
  if (!enter() || !enter() || atom() != "_" || atom() != "field")
    return false;
  R.Field = symbol();
  return !R.Field.empty() && leave() && leave();
}

/// A register value: a term, or a field's "(_ struct (|F| v))", read as v.
const Term *TraceParser::regValue() {
  skipSpace();
  size_t Start = C.P;
  if (!enter())
    return term();
  if (atom() != "_") {
    C.P = Start;
    --Depth;
    return term();
  }
  if (atom() != "struct" || !enter() || atom().empty())
    return fail(Start, "bad struct value");
  const Term *V = term();
  if (V && !(leave() && leave()))
    return fail(Start, "bad struct value");
  return V;
}

static bool isBV(const Term *T) { return T->sort().isBitVec(); }

/// The operands of an event, up to (not including) its ')'.
bool TraceParser::event(std::string_view Head, size_t Start, Trace &T) {
  if (Head == "read-reg" || Head == "write-reg" || Head == "assume-reg") {
    Reg R;
    if (!regAccessor(R))
      return fail(Start, "bad register accessor");
    const Term *V = regValue();
    if (V)
      T.Events.push_back(Head == "read-reg"    ? Event::readReg(R, V)
                         : Head == "write-reg" ? Event::writeReg(R, V)
                                               : Event::assumeReg(R, V));
    return V != nullptr;
  }
  if (Head == "read-mem" || Head == "write-mem") {
    // (read-mem data addr bytes), (write-mem addr data bytes)
    bool Read = Head == "read-mem";
    const Term *X = term();
    const Term *Y = X ? term() : nullptr;
    unsigned N = 0;
    if (!Y || !number(N))
      return false;
    const Term *D = Read ? X : Y, *A = Read ? Y : X;
    if (!isBV(D) || !isBV(A) || D->width() != N * 8)
      return fail(Start, "memory event operand sorts");
    T.Events.push_back(Read ? Event::readMem(D, A, N)
                            : Event::writeMem(A, D, N));
    return true;
  }
  if (Head == "declare-const") {
    std::string_view Name = atom();
    std::optional<Sort> S = Name.empty() ? std::nullopt : sort();
    const Term *V = S ? declare(Name, *S, Start) : nullptr;
    if (V)
      T.Events.push_back(Event::declareConst(V));
    return V != nullptr;
  }
  if (Head == "define-const") {
    std::string_view Name = atom();
    const Term *E = Name.empty() ? nullptr : term();
    const Term *V = E ? declare(Name, E->sort(), Start) : nullptr;
    if (V)
      T.Events.push_back(Event::defineConst(V, E));
    return V != nullptr;
  }
  if (Head == "assert" || Head == "assume") {
    const Term *E = term();
    if (!E)
      return false;
    if (!E->isBool())
      return fail(Start, "assert/assume of a non-boolean");
    T.Events.push_back(Head == "assert" ? Event::assertE(E)
                                        : Event::assumeE(E));
    return true;
  }
  return fail(Start, "unknown event kind");
}

//===----------------------------------------------------------------------===//
// Terms.
//===----------------------------------------------------------------------===//

/// sort := "Bool" | "(_ BitVec" width ")"
std::optional<Sort> TraceParser::sort() {
  skipSpace();
  size_t Start = C.P;
  unsigned W = 0;
  if (!atOpen()) {
    if (atom() == "Bool")
      return Sort::boolean();
  } else if (enter() && atom() == "_" && atom() == "BitVec" && number(W) &&
             W != 0 && leave()) {
    return Sort::bitvec(W);
  }
  fail(Start, "bad sort");
  return std::nullopt;
}

// Operand sorts are checked here: TermBuilder only asserts them, and the
// text is untrusted.  Results wider than MaxTraceNumber bits are refused,
// so nested extensions and concats cannot build an allocation bomb.
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

namespace {
/// A left-associative operator of two or more operands; Ok checks each
/// pair before TermBuilder sees it.
struct NaryOp {
  std::string_view Name;
  const Term *(TermBuilder::*Build)(const Term *, const Term *);
  bool (*Ok)(const Term *, const Term *);
};
} // namespace

static constexpr NaryOp NaryOps[] = {
    {"and", &TermBuilder::andTerm, bothBool},
    {"or", &TermBuilder::orTerm, bothBool},
    {"=>", &TermBuilder::impliesTerm, bothBool},
    {"=", &TermBuilder::eqTerm, sameSort},
    {"bvadd", &TermBuilder::bvAdd, sameBV},
    {"bvsub", &TermBuilder::bvSub, sameBV},
    {"bvmul", &TermBuilder::bvMul, sameBV},
    {"bvudiv", &TermBuilder::bvUDiv, sameBV},
    {"bvurem", &TermBuilder::bvURem, sameBV},
    {"bvsdiv", &TermBuilder::bvSDiv, sameBV},
    {"bvsrem", &TermBuilder::bvSRem, sameBV},
    {"bvand", &TermBuilder::bvAnd, sameBV},
    {"bvor", &TermBuilder::bvOr, sameBV},
    {"bvxor", &TermBuilder::bvXor, sameBV},
    {"bvshl", &TermBuilder::bvShl, sameBV},
    {"bvlshr", &TermBuilder::bvLShr, sameBV},
    {"bvashr", &TermBuilder::bvAShr, sameBV},
    {"bvult", &TermBuilder::bvUlt, sameBV},
    {"bvule", &TermBuilder::bvUle, sameBV},
    {"bvslt", &TermBuilder::bvSlt, sameBV},
    {"bvsle", &TermBuilder::bvSle, sameBV},
    {"concat", &TermBuilder::concat, concatable},
};

const Term *TraceParser::term() {
  skipSpace();
  size_t Start = C.P;
  if (!C.at('(')) {
    std::string_view A = atom();
    if (A.empty())
      return fail(Start, "expected a term");
    if (A == "true" || A == "false")
      return TB.constBool(A == "true");
    if (A.size() >= 2 && A[0] == '#') {
      BitVec V;
      if (!BitVec::fromString(A, V))
        return fail(Start, "bad bitvector literal");
      return TB.constBV(V);
    }
    const Term *V = var(A);
    return V ? V : fail(Start, "use of undeclared variable");
  }
  if (!enter())
    return nullptr;
  const Term *R = atOpen() ? indexedTerm(Start) : operation(Start);
  if (R && !leave())
    return fail(Start, "too many operands");
  return R;
}

/// The operator and operands of "(op e...)" at \p Start, up to its ')'.
const Term *TraceParser::operation(size_t Start) {
  std::string_view Op = atom();
  auto illSorted = [&] { return fail(Start, "ill-sorted operands"); };
  if (Op == "not" || Op == "bvnot" || Op == "bvneg") {
    const Term *A = term();
    if (!A)
      return nullptr;
    if (Op == "not")
      return A->isBool() ? TB.notTerm(A) : illSorted();
    if (!isBV(A))
      return illSorted();
    return Op == "bvnot" ? TB.bvNot(A) : TB.bvNeg(A);
  }
  if (Op == "ite") {
    const Term *Cond = term();
    const Term *Then = Cond ? term() : nullptr;
    const Term *Else = Then ? term() : nullptr;
    if (!Else)
      return nullptr;
    return Cond->isBool() && sameSort(Then, Else)
               ? TB.iteTerm(Cond, Then, Else)
               : illSorted();
  }
  for (const NaryOp &N : NaryOps) {
    if (N.Name != Op)
      continue;
    const Term *Acc = term();
    if (Acc && atClose())
      return fail(Start, "operator needs two operands");
    while (Acc && !atClose()) {
      const Term *Next = term();
      if (!Next)
        return nullptr;
      if (!N.Ok(Acc, Next))
        return illSorted();
      Acc = (TB.*N.Build)(Acc, Next);
    }
    return Acc;
  }
  return fail(Start, Op.empty() ? "empty expression" : "unknown operator");
}

/// "((_ extract hi lo) e", "((_ zero_extend n) e", "((_ sign_extend n) e"
/// at \p Start, up to the final ')'.
const Term *TraceParser::indexedTerm(size_t Start) {
  std::string_view Op = enter() && atom() == "_" ? atom() : "";
  bool Extract = Op == "extract";
  if (!Extract && Op != "zero_extend" && Op != "sign_extend")
    return fail(Start, "unknown indexed operator");
  unsigned Hi = 0, Lo = 0;
  if (!number(Hi) || (Extract && (!number(Lo) || Lo > Hi)) || !leave())
    return fail(Start, "bad operator indices");
  const Term *E = term();
  if (!E)
    return nullptr;
  if (Extract)
    return isBV(E) && Hi < E->width() ? TB.extract(Hi, Lo, E)
                                      : fail(Start, "extract out of range");
  if (!isBV(E) || E->width() + Hi > MaxTraceNumber)
    return fail(Start, "bad extension operand");
  return Op == "zero_extend" ? TB.zeroExtend(Hi, E) : TB.signExtend(Hi, E);
}
