//===- smt/TermBuilder.cpp - Hash-consing term factory ---------------------===//

#include "smt/TermBuilder.h"

using namespace islaris;
using namespace islaris::smt;

TermBuilder::TermBuilder() = default;
TermBuilder::~TermBuilder() = default;

static size_t hashCombine(size_t H, size_t V) {
  return H * 1099511628211ULL + V + 0x9e3779b97f4a7c15ULL;
}

static size_t computeHash(Kind K, Sort Ty, const std::vector<const Term *> &Ops,
                          const BitVec &Const, uint32_t A, uint32_t B) {
  size_t H = size_t(K);
  H = hashCombine(H, Ty.isBool() ? 0 : Ty.width());
  for (const Term *Op : Ops)
    H = hashCombine(H, Op->id());
  if (K == Kind::ConstBV)
    H = hashCombine(H, Const.hash());
  H = hashCombine(H, A);
  H = hashCombine(H, B);
  return H;
}

const Term *TermBuilder::make(Kind K, Sort Ty, std::vector<const Term *> Ops,
                              const BitVec &Const, const std::string &Name,
                              uint32_t A, uint32_t B) {
  size_t H = computeHash(K, Ty, Ops, Const, A, B);
  // Variables are never hash-consed together: identity is the var id.
  if (K != Kind::Var) {
    for (const Term *Cand : Table[H]) {
      if (Cand->K != K || Cand->Ty != Ty || Cand->Ops != Ops ||
          Cand->A != A || Cand->B != B)
        continue;
      if (K == Kind::ConstBV && Cand->Const != Const)
        continue;
      return Cand;
    }
  }
  std::unique_ptr<Term> T(new Term());
  T->K = K;
  T->Ty = Ty;
  T->Ops = std::move(Ops);
  T->Const = Const;
  T->Name = Name;
  T->A = A;
  T->B = B;
  T->Id = NextId++;
  T->HashVal = H;
  const Term *Raw = T.get();
  Terms.push_back(std::move(T));
  if (K != Kind::Var)
    Table[H].push_back(Raw);
  return Raw;
}

const Term *TermBuilder::constBV(const BitVec &V) {
  return make(Kind::ConstBV, Sort::bitvec(V.width()), {}, V, "", 0, 0);
}

const Term *TermBuilder::constBool(bool V) {
  return make(Kind::ConstBool, Sort::boolean(), {}, BitVec(), "", V ? 1 : 0,
              0);
}

const Term *TermBuilder::freshVar(Sort S) {
  return freshVar(S, "v" + std::to_string(NextVarId));
}

const Term *TermBuilder::freshVar(Sort S, const std::string &Name) {
  uint32_t Id = NextVarId++;
  const Term *T = make(Kind::Var, S, {}, BitVec(), Name, Id, 0);
  VarsById.push_back(T);
  return T;
}

const Term *TermBuilder::varById(uint32_t Id) const {
  return Id < VarsById.size() ? VarsById[Id] : nullptr;
}

//===----------------------------------------------------------------------===//
// Boolean layer (with constant folding on construction).
//===----------------------------------------------------------------------===//

const Term *TermBuilder::notTerm(const Term *T) {
  assert(T->isBool() && "not requires a boolean operand");
  if (T->kind() == Kind::ConstBool)
    return constBool(!T->constBool());
  if (T->kind() == Kind::Not)
    return T->operand(0);
  return make(Kind::Not, Sort::boolean(), {T}, BitVec(), "", 0, 0);
}

const Term *TermBuilder::andTerm(const Term *L, const Term *R) {
  assert(L->isBool() && R->isBool() && "and requires boolean operands");
  if (L->kind() == Kind::ConstBool)
    return L->constBool() ? R : L;
  if (R->kind() == Kind::ConstBool)
    return R->constBool() ? L : R;
  if (L == R)
    return L;
  return make(Kind::And, Sort::boolean(), {L, R}, BitVec(), "", 0, 0);
}

const Term *TermBuilder::orTerm(const Term *L, const Term *R) {
  assert(L->isBool() && R->isBool() && "or requires boolean operands");
  if (L->kind() == Kind::ConstBool)
    return L->constBool() ? L : R;
  if (R->kind() == Kind::ConstBool)
    return R->constBool() ? R : L;
  if (L == R)
    return L;
  return make(Kind::Or, Sort::boolean(), {L, R}, BitVec(), "", 0, 0);
}

const Term *TermBuilder::impliesTerm(const Term *L, const Term *R) {
  return orTerm(notTerm(L), R);
}

const Term *TermBuilder::iteTerm(const Term *C, const Term *T, const Term *E) {
  assert(C->isBool() && "ite condition must be boolean");
  assert(T->sort() == E->sort() && "ite branch sorts differ");
  if (C->kind() == Kind::ConstBool)
    return C->constBool() ? T : E;
  if (T == E)
    return T;
  return make(Kind::Ite, T->sort(), {C, T, E}, BitVec(), "", 0, 0);
}

const Term *TermBuilder::eqTerm(const Term *L, const Term *R) {
  assert(L->sort() == R->sort() && "equality requires equal sorts");
  if (L == R)
    return trueTerm();
  if (L->kind() == Kind::ConstBV && R->kind() == Kind::ConstBV)
    return constBool(L->constBV() == R->constBV());
  if (L->kind() == Kind::ConstBool && R->kind() == Kind::ConstBool)
    return constBool(L->constBool() == R->constBool());
  return make(Kind::Eq, Sort::boolean(), {L, R}, BitVec(), "", 0, 0);
}

//===----------------------------------------------------------------------===//
// Bitvector layer.
//===----------------------------------------------------------------------===//

/// Folds a binary bitvector operation over two constants.
static BitVec foldBV(Kind K, const BitVec &A, const BitVec &B) {
  switch (K) {
  case Kind::BVAdd:
    return A.add(B);
  case Kind::BVSub:
    return A.sub(B);
  case Kind::BVMul:
    return A.mul(B);
  case Kind::BVUDiv:
    return A.udiv(B);
  case Kind::BVURem:
    return A.urem(B);
  case Kind::BVSDiv:
    return A.sdiv(B);
  case Kind::BVSRem:
    return A.srem(B);
  case Kind::BVAnd:
    return A.bvand(B);
  case Kind::BVOr:
    return A.bvor(B);
  case Kind::BVXor:
    return A.bvxor(B);
  case Kind::BVShl:
    return A.shl(B);
  case Kind::BVLShr:
    return A.lshr(B);
  case Kind::BVAShr:
    return A.ashr(B);
  case Kind::Concat:
    return A.concat(B);
  default:
    assert(false && "not a foldable binary bitvector kind");
    return A;
  }
}

const Term *TermBuilder::binOp(Kind K, Sort Ty, const Term *L, const Term *R) {
  if (L->kind() == Kind::ConstBV && R->kind() == Kind::ConstBV) {
    BitVec F = foldBV(K, L->constBV(), R->constBV());
    switch (K) {
    case Kind::BVUlt:
    case Kind::BVUle:
    case Kind::BVSlt:
    case Kind::BVSle:
      break; // handled in the predicate builders below
    default:
      return constBV(F);
    }
  }
  return make(K, Ty, {L, R}, BitVec(), "", 0, 0);
}

#define BV_ARITH(NAME, KIND)                                                   \
  const Term *TermBuilder::NAME(const Term *L, const Term *R) {                \
    assert(L->sort() == R->sort() && L->sort().isBitVec() &&                   \
           "bitvector operation requires equal bitvector sorts");              \
    return binOp(Kind::KIND, L->sort(), L, R);                                 \
  }

BV_ARITH(bvAdd, BVAdd)
BV_ARITH(bvSub, BVSub)
BV_ARITH(bvMul, BVMul)
BV_ARITH(bvUDiv, BVUDiv)
BV_ARITH(bvURem, BVURem)
BV_ARITH(bvSDiv, BVSDiv)
BV_ARITH(bvSRem, BVSRem)
BV_ARITH(bvAnd, BVAnd)
BV_ARITH(bvOr, BVOr)
BV_ARITH(bvXor, BVXor)
BV_ARITH(bvShl, BVShl)
BV_ARITH(bvLShr, BVLShr)
BV_ARITH(bvAShr, BVAShr)
#undef BV_ARITH

const Term *TermBuilder::bvNeg(const Term *T) {
  assert(T->sort().isBitVec() && "bvneg requires a bitvector");
  if (T->kind() == Kind::ConstBV)
    return constBV(T->constBV().neg());
  return make(Kind::BVNeg, T->sort(), {T}, BitVec(), "", 0, 0);
}

const Term *TermBuilder::bvNot(const Term *T) {
  assert(T->sort().isBitVec() && "bvnot requires a bitvector");
  if (T->kind() == Kind::ConstBV)
    return constBV(T->constBV().bvnot());
  if (T->kind() == Kind::BVNot)
    return T->operand(0);
  return make(Kind::BVNot, T->sort(), {T}, BitVec(), "", 0, 0);
}

#define BV_PRED(NAME, KIND, OP)                                                \
  const Term *TermBuilder::NAME(const Term *L, const Term *R) {                \
    assert(L->sort() == R->sort() && L->sort().isBitVec() &&                   \
           "bitvector predicate requires equal bitvector sorts");              \
    if (L->kind() == Kind::ConstBV && R->kind() == Kind::ConstBV)              \
      return constBool(L->constBV().OP(R->constBV()));                         \
    return make(Kind::KIND, Sort::boolean(), {L, R}, BitVec(), "", 0, 0);      \
  }

BV_PRED(bvUlt, BVUlt, ult)
BV_PRED(bvUle, BVUle, ule)
BV_PRED(bvSlt, BVSlt, slt)
BV_PRED(bvSle, BVSle, sle)
#undef BV_PRED

const Term *TermBuilder::extract(unsigned Hi, unsigned Lo, const Term *T) {
  assert(T->sort().isBitVec() && Lo <= Hi && Hi < T->width() &&
         "bad extract bounds");
  if (Hi == T->width() - 1 && Lo == 0)
    return T;
  if (T->kind() == Kind::ConstBV)
    return constBV(T->constBV().extract(Hi, Lo));
  // extract of extract composes.
  if (T->kind() == Kind::Extract)
    return extract(T->attrB() + Hi, T->attrB() + Lo, T->operand(0));
  return make(Kind::Extract, Sort::bitvec(Hi - Lo + 1), {T}, BitVec(), "", Hi,
              Lo);
}

const Term *TermBuilder::concat(const Term *Hi, const Term *Lo) {
  assert(Hi->sort().isBitVec() && Lo->sort().isBitVec() &&
         "concat requires bitvectors");
  if (Hi->kind() == Kind::ConstBV && Lo->kind() == Kind::ConstBV)
    return constBV(Hi->constBV().concat(Lo->constBV()));
  return make(Kind::Concat, Sort::bitvec(Hi->width() + Lo->width()), {Hi, Lo},
              BitVec(), "", 0, 0);
}

const Term *TermBuilder::zeroExtend(unsigned Extra, const Term *T) {
  assert(T->sort().isBitVec() && "zero_extend requires a bitvector");
  if (Extra == 0)
    return T;
  if (T->kind() == Kind::ConstBV)
    return constBV(T->constBV().zext(Extra));
  return make(Kind::ZeroExtend, Sort::bitvec(T->width() + Extra), {T},
              BitVec(), "", Extra, 0);
}

const Term *TermBuilder::signExtend(unsigned Extra, const Term *T) {
  assert(T->sort().isBitVec() && "sign_extend requires a bitvector");
  if (Extra == 0)
    return T;
  if (T->kind() == Kind::ConstBV)
    return constBV(T->constBV().sext(Extra));
  return make(Kind::SignExtend, Sort::bitvec(T->width() + Extra), {T},
              BitVec(), "", Extra, 0);
}

const Term *TermBuilder::zextTo(unsigned Width, const Term *T) {
  if (Width == T->width())
    return T;
  if (Width < T->width())
    return extract(Width - 1, 0, T);
  return zeroExtend(Width - T->width(), T);
}

const Term *TermBuilder::rebuild(const Term *Shape,
                                 const std::vector<const Term *> &Ops) {
  switch (Shape->kind()) {
  case Kind::ConstBV:
  case Kind::ConstBool:
  case Kind::Var:
    return Shape;
  case Kind::Not:
    return notTerm(Ops[0]);
  case Kind::And:
    return andTerm(Ops[0], Ops[1]);
  case Kind::Or:
    return orTerm(Ops[0], Ops[1]);
  case Kind::Implies:
    return impliesTerm(Ops[0], Ops[1]);
  case Kind::Ite:
    return iteTerm(Ops[0], Ops[1], Ops[2]);
  case Kind::Eq:
    return eqTerm(Ops[0], Ops[1]);
  case Kind::BVAdd:
  case Kind::BVSub:
  case Kind::BVMul:
  case Kind::BVUDiv:
  case Kind::BVURem:
  case Kind::BVSDiv:
  case Kind::BVSRem:
  case Kind::BVAnd:
  case Kind::BVOr:
  case Kind::BVXor:
  case Kind::BVShl:
  case Kind::BVLShr:
  case Kind::BVAShr:
    assert(Ops[0]->sort() == Ops[1]->sort() && Ops[0]->sort().isBitVec() &&
           "bitvector operation requires equal bitvector sorts");
    return binOp(Shape->kind(), Ops[0]->sort(), Ops[0], Ops[1]);
  case Kind::BVNeg:
    return bvNeg(Ops[0]);
  case Kind::BVNot:
    return bvNot(Ops[0]);
  case Kind::BVUlt:
    return bvUlt(Ops[0], Ops[1]);
  case Kind::BVUle:
    return bvUle(Ops[0], Ops[1]);
  case Kind::BVSlt:
    return bvSlt(Ops[0], Ops[1]);
  case Kind::BVSle:
    return bvSle(Ops[0], Ops[1]);
  case Kind::Extract:
    return extract(Shape->attrA(), Shape->attrB(), Ops[0]);
  case Kind::Concat:
    return concat(Ops[0], Ops[1]);
  case Kind::ZeroExtend:
    return zeroExtend(Shape->attrA(), Ops[0]);
  case Kind::SignExtend:
    return signExtend(Shape->attrA(), Ops[0]);
  }
  assert(false && "unhandled kind in rebuild");
  return Shape;
}

const Term *TermBuilder::substitute(
    const Term *T, const std::unordered_map<uint32_t, const Term *> &Map) {
  std::unordered_map<const Term *, const Term *> Memo;
  // Iterative post-order rebuild to avoid deep recursion on long event
  // chains.
  std::vector<std::pair<const Term *, bool>> Stack = {{T, false}};
  while (!Stack.empty()) {
    auto [Cur, Expanded] = Stack.back();
    Stack.pop_back();
    if (Memo.count(Cur))
      continue;
    if (!Expanded) {
      Stack.push_back({Cur, true});
      for (const Term *Op : Cur->operands())
        Stack.push_back({Op, false});
      continue;
    }
    const Term *New = Cur;
    if (Cur->isVar()) {
      auto It = Map.find(Cur->varId());
      if (It != Map.end()) {
        assert(It->second->sort() == Cur->sort() &&
               "substitution changes the sort");
        New = It->second;
      }
    } else if (!Cur->operands().empty()) {
      std::vector<const Term *> NewOps;
      NewOps.reserve(Cur->numOperands());
      bool Changed = false;
      for (const Term *Op : Cur->operands()) {
        const Term *MOp = Memo.at(Op);
        Changed |= MOp != Op;
        NewOps.push_back(MOp);
      }
      if (Changed)
        New = rebuild(Cur, NewOps);
    }
    Memo[Cur] = New;
  }
  return Memo.at(T);
}
