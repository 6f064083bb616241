//===- smt/Decide.cpp - Unsat-only decision tier ----------------------------===//

#include "smt/Decide.h"
#include "smt/TermBuilder.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

using namespace islaris;
using namespace islaris::smt;

namespace {

/// Most assignments the tiny-domain split enumerates.
constexpr uint64_t MaxCases = 64;
/// Normalise/define/substitute rounds per assignment.
constexpr unsigned MaxRounds = 8;
/// Boolean connectives the shape check visits before letting a goal set
/// through.
constexpr unsigned MaxShapeNodes = 256;
/// Widest disjunction whose disjuncts are closed one by one.
constexpr size_t MaxDisjuncts = 8;
/// Scratch terms one call may build before it gives up: a safety valve for
/// pathological goal sets, far above what the case studies need.
constexpr unsigned MaxScratchTerms = 1u << 18;

bool isOrder(Kind K) {
  return K == Kind::BVUlt || K == Kind::BVUle || K == Kind::BVSlt ||
         K == Kind::BVSle;
}

bool isStrict(Kind K) { return K == Kind::BVUlt || K == Kind::BVSlt; }

bool isSigned(Kind K) { return K == Kind::BVSlt || K == Kind::BVSle; }

bool isArith(const Term *T) {
  Kind K = T->kind();
  return K == Kind::BVAdd || K == Kind::BVSub || K == Kind::BVNeg ||
         K == Kind::BVMul;
}

/// A Boolean term that is not a connective: a literal's atom.
bool isAtom(const Term *T) {
  if (!T->isBool())
    return false;
  switch (T->kind()) {
  case Kind::ConstBool:
  case Kind::Not:
  case Kind::And:
  case Kind::Or:
  case Kind::Implies:
  case Kind::Ite:
    return false;
  default:
    return true;
  }
}

bool isLiteral(const Term *T) {
  return isAtom(T) || (T->kind() == Kind::Not && isAtom(T->operand(0)));
}

bool isBVEq(const Term *T) {
  return T->kind() == Kind::Eq && T->operand(0)->sort().isBitVec();
}

/// The shape check: some order literal or arithmetic equality in the
/// Boolean structure of \p T.  Does not descend into bitvector terms; a
/// Boolean structure with more than \p Budget connectives is let through
/// (the tier's own work is bounded by MaxScratchTerms).
bool hasDecidableShape(const Term *T, unsigned &Budget) {
  switch (T->kind()) {
  case Kind::Not:
  case Kind::And:
  case Kind::Or:
  case Kind::Implies:
  case Kind::Ite:
    if (!T->isBool())
      return false;
    if (Budget-- == 0)
      return true;
    for (const Term *Op : T->operands())
      if (hasDecidableShape(Op, Budget))
        return true;
    return false;
  case Kind::Eq:
    return isBVEq(T) && (isArith(T->operand(0)) || isArith(T->operand(1)));
  default:
    return isOrder(T->kind());
  }
}

/// A bitvector term of width <= 64 as a sum of coefficient × atom plus a
/// constant, mod 2^width.  Atoms are sorted by id; coefficients nonzero.
struct Linear {
  uint64_t Const = 0;
  std::vector<std::pair<const Term *, uint64_t>> Atoms;
};

uint64_t maskOf(unsigned W) { return W >= 64 ? ~0ull : (1ull << W) - 1; }

/// A + Scale × B, mod 2^W.
Linear combine(const Linear &A, const Linear &B, uint64_t Scale, unsigned W) {
  uint64_t M = maskOf(W);
  Linear R;
  R.Const = (A.Const + Scale * B.Const) & M;
  size_t I = 0, J = 0;
  auto push = [&](const Term *T, uint64_t C) {
    if ((C &= M) != 0)
      R.Atoms.emplace_back(T, C);
  };
  while (I < A.Atoms.size() || J < B.Atoms.size()) {
    if (J == B.Atoms.size() ||
        (I < A.Atoms.size() &&
         A.Atoms[I].first->id() < B.Atoms[J].first->id())) {
      push(A.Atoms[I].first, A.Atoms[I].second);
      ++I;
    } else if (I == A.Atoms.size() ||
               B.Atoms[J].first->id() < A.Atoms[I].first->id()) {
      push(B.Atoms[J].first, Scale * B.Atoms[J].second);
      ++J;
    } else {
      push(A.Atoms[I].first, A.Atoms[I].second + Scale * B.Atoms[J].second);
      ++I;
      ++J;
    }
  }
  return R;
}

bool isSignedMin(const BitVec &V) {
  return V.slt(V.sub(BitVec(V.width(), 1)));
}
bool isSignedMax(const BitVec &V) {
  return V.add(BitVec(V.width(), 1)).slt(V);
}

class Decider {
public:
  bool refute(const std::vector<const Term *> &Goals);

private:
  /// A variable and the values it may take.
  using Domain = std::pair<const Term *, std::vector<uint64_t>>;

  const Term *import(const Term *T);

  const Term *norm(const Term *T);
  const Term *normNode(const Term *T);
  const Term *finish(const Term *Shape, std::vector<const Term *> Ops);
  const Term *lift(const Term *Shape, std::vector<const Term *> Ops,
                   unsigned Idx, const Term *Tree);
  const Term *atom(const Term *A);
  const Term *foldEq(const Term *Eq);
  const Term *linearAtom(const Term *T);
  const Term *mkNot(const Term *T);
  const Term *mkOr(const Term *L, const Term *R);
  const Term *mkBoolIte(const Term *C, const Term *T, const Term *E);
  const Term *complement(const Term *OrderAtom);
  bool isCite(const Term *T);
  const Linear &linear(const Term *T);

  bool simplify(std::vector<const Term *> Goals,
                std::vector<const Term *> &Lits,
                std::vector<const Term *> &Rest);
  bool addDefinitions(const std::vector<const Term *> &Lits);
  bool learn(const std::vector<const Term *> &Lits);
  bool orderConflict(const std::vector<const Term *> &Lits);
  bool disjunctionConflict(const std::vector<const Term *> &Lits,
                           const std::vector<const Term *> &Rest);
  bool closes(const std::vector<const Term *> &Goals,
              std::vector<const Term *> &Lits,
              std::vector<const Term *> &Rest);
  bool smallDomains(const std::vector<const Term *> &Lits,
                    std::vector<Domain> &Split);
  bool overBudget() const { return TB.numTerms() > MaxScratchTerms; }

  TermBuilder TB;
  std::unordered_map<const Term *, const Term *> Imported;
  /// Per-pass memos: cleared whenever Subst or Known changes.
  std::unordered_map<const Term *, const Term *> Memo, NotMemo;
  /// Eliminated variables (scratch var id -> replacement).
  std::unordered_map<uint32_t, const Term *> Subst;
  /// Truth of atoms asserted as top-level literals.
  std::unordered_map<const Term *, bool> Known;
  /// Structural caches, valid for the Decider's lifetime.
  std::unordered_map<const Term *, Linear> Lin;
  std::unordered_map<const Term *, bool> Cite;
};

//===----------------------------------------------------------------------===//
// Term construction.
//===----------------------------------------------------------------------===//

/// Copies a caller term into the scratch builder.
const Term *Decider::import(const Term *T) {
  auto It = Imported.find(T);
  if (It != Imported.end())
    return It->second;
  const Term *R;
  switch (T->kind()) {
  case Kind::ConstBV:
    R = TB.constBV(T->constBV());
    break;
  case Kind::ConstBool:
    R = TB.constBool(T->constBool());
    break;
  case Kind::Var:
    R = TB.freshVar(T->sort(), T->varName());
    break;
  default: {
    std::vector<const Term *> Ops;
    Ops.reserve(T->numOperands());
    for (const Term *Op : T->operands())
      Ops.push_back(import(Op));
    R = TB.rebuild(T, Ops);
  }
  }
  Imported.emplace(T, R);
  return R;
}

//===----------------------------------------------------------------------===//
// Step 1: normalisation.
//===----------------------------------------------------------------------===//

/// An ite tree whose leaves are all bitvector constants.
bool Decider::isCite(const Term *T) {
  if (T->kind() == Kind::ConstBV)
    return true;
  if (T->kind() != Kind::Ite || T->isBool())
    return false;
  auto It = Cite.find(T);
  if (It != Cite.end())
    return It->second;
  bool R = isCite(T->operand(1)) && isCite(T->operand(2));
  Cite.emplace(T, R);
  return R;
}

const Linear &Decider::linear(const Term *T) {
  auto It = Lin.find(T);
  if (It != Lin.end())
    return It->second;
  unsigned W = T->width();
  uint64_t M = maskOf(W);
  Linear R;
  switch (T->kind()) {
  case Kind::ConstBV:
    R.Const = T->constBV().toUInt64();
    break;
  case Kind::BVAdd:
    R = combine(linear(T->operand(0)), linear(T->operand(1)), 1, W);
    break;
  case Kind::BVSub:
    R = combine(linear(T->operand(0)), linear(T->operand(1)), M, W);
    break;
  case Kind::BVNeg:
    R = combine(Linear(), linear(T->operand(0)), M, W);
    break;
  case Kind::BVNot: // ~x = -x - 1
    R = combine(Linear{M, {}}, linear(T->operand(0)), M, W);
    break;
  case Kind::BVMul:
    if (T->operand(1)->kind() == Kind::ConstBV) {
      R = combine(Linear(), linear(T->operand(0)),
                  T->operand(1)->constBV().toUInt64(), W);
      break;
    }
    if (T->operand(0)->kind() == Kind::ConstBV) {
      R = combine(Linear(), linear(T->operand(1)),
                  T->operand(0)->constBV().toUInt64(), W);
      break;
    }
    R.Atoms.emplace_back(T, 1);
    break;
  default:
    R.Atoms.emplace_back(T, 1);
  }
  return Lin.emplace(T, std::move(R)).first->second;
}

/// \p T as a constant or a bare atom when its linear form is one.
const Term *Decider::linearAtom(const Term *T) {
  if (T->width() > 64 || !isArith(T))
    return T;
  const Linear &F = linear(T);
  if (F.Atoms.empty())
    return TB.constBV(T->width(), F.Const);
  if (F.Atoms.size() == 1 && F.Atoms[0].second == 1 && F.Const == 0)
    return F.Atoms[0].first;
  return T;
}

/// Decides a bitvector equality whose sides' linear forms differ by a
/// constant, and reduces a difference of one or two unit atoms to a plain
/// equality between them.
const Term *Decider::foldEq(const Term *Eq) {
  const Term *L = Eq->operand(0), *R = Eq->operand(1);
  unsigned W = L->width();
  if (W > 64)
    return Eq;
  uint64_t M = maskOf(W);
  Linear D = combine(linear(L), linear(R), M, W);
  if (D.Atoms.empty())
    return TB.constBool(D.Const == 0);
  if (D.Atoms.size() == 1) {
    auto [A, C] = D.Atoms[0];
    if (C == 1) // A + k = 0
      return TB.eqTerm(A, TB.constBV(W, (0 - D.Const) & M));
    if (C == M) // -A + k = 0
      return TB.eqTerm(A, TB.constBV(W, D.Const));
  }
  if (D.Atoms.size() == 2 && D.Const == 0) {
    uint64_t C0 = D.Atoms[0].second, C1 = D.Atoms[1].second;
    if ((C0 == 1 && C1 == M) || (C0 == M && C1 == 1))
      return TB.eqTerm(D.Atoms[0].first, D.Atoms[1].first);
  }
  return Eq;
}

/// Rules applied to a freshly built node: trivial order atoms, equality
/// folding and orientation, and top-level literal substitution.
const Term *Decider::atom(const Term *A) {
  if (A->isConst())
    return A;
  Kind K = A->kind();
  if (isOrder(K)) {
    const Term *L = linearAtom(A->operand(0)), *R = linearAtom(A->operand(1));
    if (L == R)
      return TB.constBool(!isStrict(K));
    if (L != A->operand(0) || R != A->operand(1)) {
      A = TB.rebuild(A, {L, R});
      if (A->isConst())
        return A;
    }
  }
  if (isBVEq(A)) {
    A = foldEq(A);
    if (A->isConst())
      return A;
    if (A->operand(0)->id() > A->operand(1)->id())
      A = TB.eqTerm(A->operand(1), A->operand(0));
  }
  if (A->isBool() && !Known.empty()) {
    auto It = Known.find(A);
    if (It != Known.end())
      return TB.constBool(It->second);
  }
  return A;
}

/// Pushes \p Shape (with operand \p Idx replaced) into the leaves of the
/// constant-leaf ite tree \p Tree, folding each leaf.
const Term *Decider::lift(const Term *Shape, std::vector<const Term *> Ops,
                          unsigned Idx, const Term *Tree) {
  if (Tree->kind() != Kind::Ite) {
    Ops[Idx] = Tree;
    return atom(TB.rebuild(Shape, Ops));
  }
  const Term *T = lift(Shape, Ops, Idx, Tree->operand(1));
  const Term *E = lift(Shape, Ops, Idx, Tree->operand(2));
  return T->isBool() ? mkBoolIte(Tree->operand(0), T, E)
                     : TB.iteTerm(Tree->operand(0), T, E);
}

const Term *Decider::finish(const Term *Shape, std::vector<const Term *> Ops) {
  // Lift over the one non-constant operand if it is a constant-leaf ite.
  int Idx = -1;
  for (unsigned I = 0; I < Ops.size(); ++I) {
    if (Ops[I]->isConst())
      continue;
    if (Idx != -1 || Ops[I]->kind() != Kind::Ite || !isCite(Ops[I])) {
      Idx = -2;
      break;
    }
    Idx = int(I);
  }
  if (Idx >= 0) {
    const Term *Tree = Ops[unsigned(Idx)];
    return lift(Shape, std::move(Ops), unsigned(Idx), Tree);
  }
  return atom(TB.rebuild(Shape, Ops));
}

/// The order atom equivalent to the negation of \p A.
const Term *Decider::complement(const Term *A) {
  const Term *L = A->operand(0), *R = A->operand(1);
  switch (A->kind()) {
  case Kind::BVUlt:
    return TB.bvUle(R, L);
  case Kind::BVUle:
    return TB.bvUlt(R, L);
  case Kind::BVSlt:
    return TB.bvSle(R, L);
  default:
    return TB.bvSlt(R, L);
  }
}

/// Negation in negation normal form: pushed through and/or, absorbed by
/// order atoms.
const Term *Decider::mkNot(const Term *T) {
  auto It = NotMemo.find(T);
  if (It != NotMemo.end())
    return It->second;
  const Term *R;
  switch (T->kind()) {
  case Kind::ConstBool:
    R = TB.constBool(!T->constBool());
    break;
  case Kind::Not:
    R = T->operand(0);
    break;
  case Kind::And:
    R = mkOr(mkNot(T->operand(0)), mkNot(T->operand(1)));
    break;
  case Kind::Or:
    R = TB.andTerm(mkNot(T->operand(0)), mkNot(T->operand(1)));
    break;
  default:
    R = isOrder(T->kind()) ? atom(complement(T)) : TB.notTerm(T);
  }
  NotMemo.emplace(T, R);
  return R;
}

const Term *Decider::mkOr(const Term *L, const Term *R) {
  const Term *O = TB.orTerm(L, R);
  if (O->kind() != Kind::Or)
    return O;
  // a < b ∨ a = b  ->  a ≤ b.
  auto weaken = [&](const Term *Lt, const Term *Eq) -> const Term * {
    if ((Lt->kind() != Kind::BVUlt && Lt->kind() != Kind::BVSlt) ||
        Eq->kind() != Kind::Eq)
      return nullptr;
    const Term *A = Lt->operand(0), *B = Lt->operand(1);
    if (!((Eq->operand(0) == A && Eq->operand(1) == B) ||
          (Eq->operand(0) == B && Eq->operand(1) == A)))
      return nullptr;
    return atom(Lt->kind() == Kind::BVUlt ? TB.bvUle(A, B) : TB.bvSle(A, B));
  };
  if (const Term *W = weaken(L, R))
    return W;
  if (const Term *W = weaken(R, L))
    return W;
  return O;
}

/// A Boolean ite with a constant branch becomes a conjunction/disjunction.
const Term *Decider::mkBoolIte(const Term *C, const Term *T, const Term *E) {
  bool TC = T->kind() == Kind::ConstBool, EC = E->kind() == Kind::ConstBool;
  if (TC && EC)
    return T == E ? T : T->constBool() ? C : mkNot(C);
  if (TC)
    return T->constBool() ? mkOr(C, E) : TB.andTerm(mkNot(C), E);
  if (EC)
    return E->constBool() ? mkOr(mkNot(C), T) : TB.andTerm(C, T);
  return TB.iteTerm(C, T, E);
}

const Term *Decider::norm(const Term *T) {
  auto It = Memo.find(T);
  if (It != Memo.end())
    return It->second;
  const Term *R = normNode(T);
  Memo.emplace(T, R);
  return R;
}

const Term *Decider::normNode(const Term *T) {
  switch (T->kind()) {
  case Kind::ConstBV:
  case Kind::ConstBool:
    return T;
  case Kind::Var: {
    auto It = Subst.find(T->varId());
    return It != Subst.end() ? norm(It->second) : atom(T);
  }
  case Kind::Not:
    return mkNot(norm(T->operand(0)));
  case Kind::And:
    return TB.andTerm(norm(T->operand(0)), norm(T->operand(1)));
  case Kind::Or:
    return mkOr(norm(T->operand(0)), norm(T->operand(1)));
  case Kind::Implies:
    return mkOr(mkNot(norm(T->operand(0))), norm(T->operand(1)));
  case Kind::Ite: {
    const Term *C = norm(T->operand(0));
    const Term *Th = norm(T->operand(1)), *El = norm(T->operand(2));
    return T->isBool() ? mkBoolIte(C, Th, El) : TB.iteTerm(C, Th, El);
  }
  default: {
    std::vector<const Term *> Ops;
    Ops.reserve(T->numOperands());
    for (const Term *Op : T->operands())
      Ops.push_back(norm(Op));
    return finish(T, std::move(Ops));
  }
  }
}

/// Flattens top-level conjunctions into literals and other goals; false
/// if some conjunct is false.
bool split(const Term *T, std::vector<const Term *> &Lits,
           std::vector<const Term *> &Rest) {
  if (T->kind() == Kind::ConstBool)
    return T->constBool();
  if (T->kind() == Kind::And)
    return split(T->operand(0), Lits, Rest) &&
           split(T->operand(1), Lits, Rest);
  (isLiteral(T) ? Lits : Rest).push_back(T);
  return true;
}

/// Records `v = t` literals (v not free in t) as eliminations.  Returns
/// whether any was added.
bool Decider::addDefinitions(const std::vector<const Term *> &Lits) {
  std::unordered_set<uint32_t> Added, InRhs;
  auto define = [&](const Term *V, const Term *Rhs) {
    if (!V->isVar() || Subst.count(V->varId()) || InRhs.count(V->varId()))
      return false;
    std::vector<const Term *> Vars = collectVars(Rhs);
    for (const Term *X : Vars)
      if (X == V || Added.count(X->varId()))
        return false;
    for (const Term *X : Vars)
      InRhs.insert(X->varId());
    Subst.emplace(V->varId(), Rhs);
    Added.insert(V->varId());
    return true;
  };
  for (const Term *L : Lits) {
    if (L->kind() == Kind::Var)
      define(L, TB.trueTerm());
    else if (L->kind() == Kind::Not && L->operand(0)->kind() == Kind::Var)
      define(L->operand(0), TB.falseTerm());
    else if (L->kind() == Kind::Eq &&
             !define(L->operand(0), L->operand(1)))
      define(L->operand(1), L->operand(0));
  }
  return !Added.empty();
}

/// Fills Known from the literals; false if an atom is asserted both ways.
bool Decider::learn(const std::vector<const Term *> &Lits) {
  Known.clear();
  auto note = [&](const Term *A, bool Value) {
    auto [It, New] = Known.emplace(A, Value);
    return New || It->second == Value;
  };
  for (const Term *L : Lits) {
    bool Pos = L->kind() != Kind::Not;
    const Term *A = Pos ? L : L->operand(0);
    if (!note(A, Pos))
      return false;
    if (isOrder(A->kind()) && !note(complement(A), !Pos))
      return false;
  }
  return true;
}

/// Normalises \p Goals to a fixpoint of definition elimination and literal
/// substitution.  Returns true if they simplify to false; otherwise leaves
/// the top-level literals in \p Lits and the other goals in \p Rest.
bool Decider::simplify(std::vector<const Term *> Goals,
                       std::vector<const Term *> &Lits,
                       std::vector<const Term *> &Rest) {
  for (unsigned Round = 0; Round < MaxRounds && !overBudget(); ++Round) {
    Memo.clear();
    NotMemo.clear();
    Known.clear();
    Lits.clear();
    Rest.clear();
    for (const Term *G : Goals)
      if (!split(norm(G), Lits, Rest))
        return true;
    Goals = Lits;
    Goals.insert(Goals.end(), Rest.begin(), Rest.end());
    if (addDefinitions(Lits))
      continue;
    if (!learn(Lits))
      return true;
    if (Rest.empty())
      break;
    Memo.clear();
    NotMemo.clear();
    std::vector<const Term *> More, Others;
    for (const Term *G : Rest)
      if (!split(norm(G), More, Others))
        return true;
    if (More.empty() && Others == Rest)
      break;
    Goals = Lits;
    Goals.insert(Goals.end(), More.begin(), More.end());
    Goals.insert(Goals.end(), Others.begin(), Others.end());
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Step 2: order closure.
//===----------------------------------------------------------------------===//

/// Strongly connected components of a small digraph (Tarjan).
struct SccFinder {
  const std::vector<std::vector<unsigned>> &Adj;
  std::vector<unsigned> Comp, Index, Low, Stack;
  std::vector<bool> OnStack;
  unsigned Next = 0, NumComps = 0;

  explicit SccFinder(const std::vector<std::vector<unsigned>> &Adj)
      : Adj(Adj), Comp(Adj.size()), Index(Adj.size(), ~0u), Low(Adj.size()),
        OnStack(Adj.size()) {
    for (unsigned V = 0; V < Adj.size(); ++V)
      if (Index[V] == ~0u)
        visit(V);
  }

  void visit(unsigned V) {
    Index[V] = Low[V] = Next++;
    Stack.push_back(V);
    OnStack[V] = true;
    for (unsigned W : Adj[V]) {
      if (Index[W] == ~0u) {
        visit(W);
        Low[V] = std::min(Low[V], Low[W]);
      } else if (OnStack[W]) {
        Low[V] = std::min(Low[V], Index[W]);
      }
    }
    if (Low[V] != Index[V])
      return;
    unsigned W;
    do {
      W = Stack.back();
      Stack.pop_back();
      OnStack[W] = false;
      Comp[W] = NumComps;
    } while (W != V);
    ++NumComps;
  }
};

bool Decider::orderConflict(const std::vector<const Term *> &Lits) {
  struct Edge {
    unsigned From, To;
    bool Strict, Signed;
  };
  std::unordered_map<const Term *, unsigned> Index;
  std::vector<const Term *> Nodes;
  auto node = [&](const Term *T) {
    auto [It, New] = Index.emplace(T, unsigned(Nodes.size()));
    if (New)
      Nodes.push_back(T);
    return It->second;
  };
  std::vector<Edge> Edges;
  std::vector<std::pair<unsigned, unsigned>> Eqs, Neqs;
  bool AnyStrict = false;
  for (const Term *L : Lits) {
    Kind K = L->kind();
    if (isOrder(K)) {
      Edges.push_back({node(L->operand(0)), node(L->operand(1)), isStrict(K),
                       isSigned(K)});
      AnyStrict |= isStrict(K);
    } else if (isBVEq(L)) {
      Eqs.emplace_back(node(L->operand(0)), node(L->operand(1)));
    } else if (K == Kind::Not && isBVEq(L->operand(0))) {
      Neqs.emplace_back(node(L->operand(0)->operand(0)),
                        node(L->operand(0)->operand(1)));
    }
  }
  if (!AnyStrict && Neqs.empty())
    return false;

  // Constants are ordered among themselves, per width and signedness.
  std::vector<unsigned> Consts;
  for (unsigned I = 0; I < Nodes.size(); ++I)
    if (Nodes[I]->kind() == Kind::ConstBV)
      Consts.push_back(I);
  for (bool Signed : {false, true}) {
    std::sort(Consts.begin(), Consts.end(), [&](unsigned A, unsigned B) {
      const BitVec &X = Nodes[A]->constBV(), &Y = Nodes[B]->constBV();
      if (X.width() != Y.width())
        return X.width() < Y.width();
      return Signed ? X.slt(Y) : X.ult(Y);
    });
    for (size_t I = 1; I < Consts.size(); ++I)
      if (Nodes[Consts[I - 1]]->width() == Nodes[Consts[I]]->width())
        Edges.push_back({Consts[I - 1], Consts[I], true, Signed});
  }
  // Nothing lies strictly below the minimum or above the maximum.
  for (const Edge &E : Edges) {
    if (!E.Strict)
      continue;
    const Term *To = Nodes[E.To], *From = Nodes[E.From];
    if (To->kind() == Kind::ConstBV &&
        (E.Signed ? isSignedMin(To->constBV()) : To->constBV().isZero()))
      return true;
    if (From->kind() == Kind::ConstBV &&
        (E.Signed ? isSignedMax(From->constBV())
                  : From->constBV().isAllOnes()))
      return true;
  }

  // Equal classes: equalities, then ≤-cycles in either order, to a fixpoint.
  std::vector<unsigned> Parent(Nodes.size());
  for (unsigned I = 0; I < Parent.size(); ++I)
    Parent[I] = I;
  auto find = [&](unsigned X) {
    while (Parent[X] != X)
      X = Parent[X] = Parent[Parent[X]];
    return X;
  };
  auto unite = [&](unsigned A, unsigned B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    Parent[A] = B;
    return true;
  };
  for (auto [A, B] : Eqs)
    unite(A, B);
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (bool Signed : {false, true}) {
      std::vector<std::vector<unsigned>> Adj(Nodes.size());
      for (const Edge &E : Edges)
        if (E.Signed == Signed)
          Adj[find(E.From)].push_back(find(E.To));
      SccFinder Scc(Adj);
      std::vector<unsigned> Leader(Scc.NumComps, ~0u);
      for (unsigned V = 0; V < Nodes.size(); ++V) {
        if (find(V) != V)
          continue;
        unsigned &L = Leader[Scc.Comp[V]];
        if (L == ~0u)
          L = V;
        else
          Changed |= unite(V, L);
      }
    }
  }
  for (const Edge &E : Edges)
    if (E.Strict && find(E.From) == find(E.To))
      return true;
  for (auto [A, B] : Neqs)
    if (find(A) == find(B))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Step 3: tiny-domain split.
//===----------------------------------------------------------------------===//

/// Small explicit domains of bitvector variables, from `x + k ≤u c` and
/// `x + k <u c` (k constant, possibly 0) and from `x ≤u y` / `x <u y` with
/// `y` already bounded, narrowed by `c ≤u x`, `c <u x` and `x ≠ c`.  Picks
/// the variables to enumerate, smallest domain first, while the product
/// stays at most MaxCases.  Returns false if some domain is empty.
bool Decider::smallDomains(const std::vector<const Term *> &Lits,
                           std::vector<Domain> &Split) {
  std::unordered_map<const Term *, std::vector<uint64_t>> Dom;
  auto restrict = [&](const Term *V, std::vector<uint64_t> Vals) {
    std::sort(Vals.begin(), Vals.end());
    Vals.erase(std::unique(Vals.begin(), Vals.end()), Vals.end());
    auto [It, New] = Dom.emplace(V, Vals);
    if (!New) {
      std::vector<uint64_t> Both;
      std::set_intersection(It->second.begin(), It->second.end(),
                            Vals.begin(), Vals.end(), std::back_inserter(Both));
      It->second = std::move(Both);
    }
    return !It->second.empty();
  };
  auto upTo = [](uint64_t Count, uint64_t Offset, uint64_t Mask) {
    std::vector<uint64_t> Vals;
    for (uint64_t J = 0; J < Count; ++J)
      Vals.push_back((J - Offset) & Mask);
    return Vals;
  };
  // Values below the bound C of `_ ≤u C` / `_ <u C`, saturated at
  // MaxCases + 1; false when there are none.
  auto boundCount = [](const Term *L, uint64_t C, uint64_t &Count) {
    bool Strict = L->kind() == Kind::BVUlt;
    Count = C >= MaxCases ? MaxCases + 1 : C + !Strict;
    return Count != 0;
  };
  auto isUnsignedOrder = [](const Term *L) {
    return L->kind() == Kind::BVUle || L->kind() == Kind::BVUlt;
  };
  // Upper bounds against constants: x + k <u c gives c values of x.
  for (const Term *L : Lits) {
    const Term *A = isUnsignedOrder(L) ? L->operand(0) : nullptr;
    if (!A || A->width() > 64 || L->operand(1)->kind() != Kind::ConstBV)
      continue;
    const Linear &F = linear(A);
    if (F.Atoms.size() != 1 || F.Atoms[0].second != 1 ||
        !F.Atoms[0].first->isVar())
      continue;
    uint64_t Count;
    if (!boundCount(L, L->operand(1)->constBV().toUInt64(), Count))
      return false;
    if (Count <= MaxCases &&
        !restrict(F.Atoms[0].first, upTo(Count, F.Const, maskOf(A->width()))))
      return false;
  }
  // Upper bounds through bounded variables, to a fixpoint.
  for (size_t Iter = 0; Iter <= Lits.size(); ++Iter) {
    bool Changed = false;
    for (const Term *L : Lits) {
      if (!isUnsignedOrder(L) || !L->operand(0)->isVar())
        continue;
      auto It = Dom.find(L->operand(1));
      if (It == Dom.end())
        continue;
      uint64_t Count;
      if (!boundCount(L, It->second.back(), Count))
        return false;
      if (Count > MaxCases)
        continue;
      size_t Before = Dom.count(L->operand(0)) ? Dom[L->operand(0)].size() : 0;
      if (!restrict(L->operand(0), upTo(Count, 0, ~0ull)))
        return false;
      Changed |= Dom[L->operand(0)].size() != Before;
    }
    if (!Changed)
      break;
  }
  // Lower bounds and disequalities against constants.
  for (const Term *L : Lits) {
    bool Neq = L->kind() == Kind::Not && isBVEq(L->operand(0));
    if (!Neq && !isUnsignedOrder(L))
      continue;
    const Term *A = Neq ? L->operand(0)->operand(0) : L->operand(0);
    const Term *B = Neq ? L->operand(0)->operand(1) : L->operand(1);
    if (Neq && B->kind() == Kind::ConstBV)
      std::swap(A, B);
    auto It = Dom.find(B);
    if (It == Dom.end() || A->kind() != Kind::ConstBV)
      continue;
    uint64_t C = A->constBV().toUInt64();
    auto &Vals = It->second;
    Vals.erase(std::remove_if(Vals.begin(), Vals.end(),
                              [&](uint64_t V) {
                                return Neq ? V == C
                                           : L->kind() == Kind::BVUle ? V < C
                                                                      : V <= C;
                              }),
               Vals.end());
    if (Vals.empty())
      return false;
  }
  std::vector<Domain> Cands(Dom.begin(), Dom.end());
  std::sort(Cands.begin(), Cands.end(), [](const Domain &X, const Domain &Y) {
    return X.second.size() != Y.second.size()
               ? X.second.size() < Y.second.size()
               : X.first->id() < Y.first->id();
  });
  uint64_t Product = 1;
  for (Domain &C : Cands) {
    if (Product * C.second.size() > MaxCases)
      break;
    Product *= C.second.size();
    Split.push_back(std::move(C));
  }
  return true;
}

/// A goal in \p Rest that is a disjunction each of whose disjuncts, added
/// to \p Lits, is false or closes the order.
bool Decider::disjunctionConflict(const std::vector<const Term *> &Lits,
                                  const std::vector<const Term *> &Rest) {
  for (const Term *G : Rest) {
    if (G->kind() != Kind::Or)
      continue;
    std::vector<const Term *> Disjuncts, Todo = {G};
    while (!Todo.empty() && Disjuncts.size() <= MaxDisjuncts) {
      const Term *D = Todo.back();
      Todo.pop_back();
      if (D->kind() == Kind::Or) {
        Todo.push_back(D->operand(0));
        Todo.push_back(D->operand(1));
      } else {
        Disjuncts.push_back(D);
      }
    }
    if (!Todo.empty() || Disjuncts.size() > MaxDisjuncts)
      continue;
    bool AllClose = std::all_of(
        Disjuncts.begin(), Disjuncts.end(), [&](const Term *D) {
          std::vector<const Term *> L = Lits, R;
          return !split(D, L, R) || orderConflict(L);
        });
    if (AllClose)
      return true;
  }
  return false;
}

/// Steps 1 and 2 on \p Goals under the current substitution.
bool Decider::closes(const std::vector<const Term *> &Goals,
                     std::vector<const Term *> &Lits,
                     std::vector<const Term *> &Rest) {
  return simplify(Goals, Lits, Rest) || orderConflict(Lits) ||
         disjunctionConflict(Lits, Rest);
}

bool Decider::refute(const std::vector<const Term *> &Goals) {
  std::vector<const Term *> Base, Lits, Rest;
  for (const Term *G : Goals)
    Base.push_back(import(G));
  if (closes(Base, Lits, Rest))
    return true;
  std::vector<Domain> Split;
  if (!smallDomains(Lits, Split))
    return true;
  if (Split.empty())
    return false;

  Base = Lits;
  Base.insert(Base.end(), Rest.begin(), Rest.end());
  const std::unordered_map<uint32_t, const Term *> BaseSubst = Subst;
  std::vector<size_t> Pick(Split.size(), 0);
  while (true) {
    if (overBudget())
      return false;
    Subst = BaseSubst;
    for (size_t I = 0; I < Split.size(); ++I) {
      const Term *V = Split[I].first;
      Subst[V->varId()] = TB.constBV(V->width(), Split[I].second[Pick[I]]);
    }
    if (!closes(Base, Lits, Rest))
      return false;
    size_t I = 0;
    for (; I < Split.size(); ++I) {
      if (++Pick[I] < Split[I].second.size())
        break;
      Pick[I] = 0;
    }
    if (I == Split.size())
      return true;
  }
}

} // namespace

bool islaris::smt::decideUnsat(const std::vector<const Term *> &Goals) {
  unsigned Budget = MaxShapeNodes;
  if (std::none_of(Goals.begin(), Goals.end(), [&](const Term *G) {
        return hasDecidableShape(G, Budget);
      }))
    return false;
  return Decider().refute(Goals);
}
