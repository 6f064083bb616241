//===- smt/Rewriter.cpp - Algebraic term simplification ---------------------===//

#include "smt/Rewriter.h"

using namespace islaris;
using namespace islaris::smt;

static bool isZeroConst(const Term *T) {
  return T->kind() == Kind::ConstBV && T->constBV().isZero();
}

static bool isOnesConst(const Term *T) {
  return T->kind() == Kind::ConstBV && T->constBV().isAllOnes();
}

const Term *Rewriter::applyRules(const Term *T) {
  switch (T->kind()) {
  case Kind::BVAdd: {
    const Term *L = T->operand(0), *R = T->operand(1);
    if (isZeroConst(R))
      return L;
    if (isZeroConst(L))
      return R;
    // Constants to the right for reassociation.
    if (L->kind() == Kind::ConstBV && R->kind() != Kind::ConstBV)
      return TB.bvAdd(R, L);
    // (x + c1) + c2 -> x + (c1+c2)
    if (R->kind() == Kind::ConstBV && L->kind() == Kind::BVAdd &&
        L->operand(1)->kind() == Kind::ConstBV)
      return TB.bvAdd(L->operand(0),
                      TB.constBV(L->operand(1)->constBV().add(R->constBV())));
    return T;
  }
  case Kind::BVSub: {
    const Term *L = T->operand(0), *R = T->operand(1);
    if (isZeroConst(R))
      return L;
    if (L == R)
      return TB.constBV(BitVec::zeros(T->width()));
    // (a + b) - a -> b and (a + b) - b -> a: the cancellation that turns
    // array-offset side conditions (base + i) - base into i.
    if (L->kind() == Kind::BVAdd) {
      if (L->operand(0) == R)
        return L->operand(1);
      if (L->operand(1) == R)
        return L->operand(0);
    }
    // (a + b) - (a + c) -> b - c.
    if (L->kind() == Kind::BVAdd && R->kind() == Kind::BVAdd) {
      if (L->operand(0) == R->operand(0))
        return TB.bvSub(L->operand(1), R->operand(1));
      if (L->operand(1) == R->operand(1))
        return TB.bvSub(L->operand(0), R->operand(0));
    }
    // x - c -> x + (-c), to share the add normalizations.
    if (R->kind() == Kind::ConstBV)
      return TB.bvAdd(L, TB.constBV(R->constBV().neg()));
    return T;
  }
  case Kind::BVUDiv: {
    const Term *L = T->operand(0), *R = T->operand(1);
    // Division by a power of two becomes a shift (far cheaper to blast).
    if (R->kind() == Kind::ConstBV && !R->constBV().isZero()) {
      const BitVec &C = R->constBV();
      if (C.bvand(C.sub(BitVec(C.width(), 1))).isZero()) {
        unsigned K = 0;
        while (!C.bit(K))
          ++K;
        return K == 0 ? L : TB.bvLShr(L, TB.constBV(T->width(), K));
      }
    }
    return T;
  }
  case Kind::BVURem: {
    const Term *L = T->operand(0), *R = T->operand(1);
    // Remainder by a power of two keeps the low bits.
    if (R->kind() == Kind::ConstBV && !R->constBV().isZero()) {
      const BitVec &C = R->constBV();
      if (C.bvand(C.sub(BitVec(C.width(), 1))).isZero()) {
        unsigned K = 0;
        while (!C.bit(K))
          ++K;
        if (K == 0)
          return TB.constBV(BitVec::zeros(T->width()));
        return TB.zeroExtend(T->width() - K, TB.extract(K - 1, 0, L));
      }
    }
    return T;
  }
  case Kind::BVMul: {
    const Term *L = T->operand(0), *R = T->operand(1);
    if (isZeroConst(L))
      return L;
    if (isZeroConst(R))
      return R;
    BitVec One(T->width(), 1);
    if (L->kind() == Kind::ConstBV && L->constBV() == One)
      return R;
    if (R->kind() == Kind::ConstBV && R->constBV() == One)
      return L;
    return T;
  }
  case Kind::BVAnd: {
    const Term *L = T->operand(0), *R = T->operand(1);
    if (isZeroConst(L) || isOnesConst(R))
      return L;
    if (isZeroConst(R) || isOnesConst(L))
      return R;
    if (L == R)
      return L;
    return T;
  }
  case Kind::BVOr: {
    const Term *L = T->operand(0), *R = T->operand(1);
    if (isZeroConst(L) || isOnesConst(R))
      return R;
    if (isZeroConst(R) || isOnesConst(L))
      return L;
    if (L == R)
      return L;
    return T;
  }
  case Kind::BVXor: {
    const Term *L = T->operand(0), *R = T->operand(1);
    if (isZeroConst(L))
      return R;
    if (isZeroConst(R))
      return L;
    if (L == R)
      return TB.constBV(BitVec::zeros(T->width()));
    return T;
  }
  case Kind::BVShl:
  case Kind::BVLShr:
  case Kind::BVAShr: {
    if (isZeroConst(T->operand(1)))
      return T->operand(0);
    if (isZeroConst(T->operand(0)))
      return T->operand(0);
    return T;
  }
  case Kind::Extract: {
    const Term *Op = T->operand(0);
    unsigned Hi = T->attrA(), Lo = T->attrB();
    // extract over concat selects a side when the range does not straddle.
    if (Op->kind() == Kind::Concat) {
      unsigned LoWidth = Op->operand(1)->width();
      if (Hi < LoWidth)
        return TB.extract(Hi, Lo, Op->operand(1));
      if (Lo >= LoWidth)
        return TB.extract(Hi - LoWidth, Lo - LoWidth, Op->operand(0));
    }
    // extract over zero/sign extension.
    if (Op->kind() == Kind::ZeroExtend || Op->kind() == Kind::SignExtend) {
      unsigned OrigW = Op->operand(0)->width();
      if (Hi < OrigW)
        return TB.extract(Hi, Lo, Op->operand(0));
      if (Lo >= OrigW && Op->kind() == Kind::ZeroExtend)
        return TB.constBV(BitVec::zeros(Hi - Lo + 1));
    }
    // Low-bit extraction distributes over modular arithmetic and bitwise
    // operations: extract(k,0, a op b) = extract(k,0,a) op extract(k,0,b).
    // This is the rule that collapses the Fig. 3 pattern
    // (_ extract 63 0)(bvadd ((_ zero_extend 64) x) c) to a 64-bit add.
    if (Lo == 0) {
      switch (Op->kind()) {
      case Kind::BVAdd:
      case Kind::BVSub:
      case Kind::BVMul:
      case Kind::BVAnd:
      case Kind::BVOr:
      case Kind::BVXor:
        return TB.rebuild(Op, {TB.extract(Hi, 0, Op->operand(0)),
                               TB.extract(Hi, 0, Op->operand(1))});
      case Kind::BVNot:
      case Kind::BVNeg:
        return TB.rebuild(Op, {TB.extract(Hi, 0, Op->operand(0))});
      case Kind::Ite:
        return TB.iteTerm(Op->operand(0), TB.extract(Hi, 0, Op->operand(1)),
                          TB.extract(Hi, 0, Op->operand(2)));
      default:
        break;
      }
    }
    return T;
  }
  case Kind::ZeroExtend: {
    const Term *Op = T->operand(0);
    // zext(zext(x)) composes.
    if (Op->kind() == Kind::ZeroExtend)
      return TB.zeroExtend(T->attrA() + Op->attrA(), Op->operand(0));
    return T;
  }
  case Kind::Eq: {
    const Term *L = T->operand(0), *R = T->operand(1);
    // Push equality with a constant through concat: high and low parts.
    if (L->sort().isBitVec() && R->kind() == Kind::ConstBV &&
        L->kind() == Kind::Concat) {
      unsigned LoW = L->operand(1)->width();
      const Term *HiC =
          TB.constBV(R->constBV().extract(R->width() - 1, LoW));
      const Term *LoC = TB.constBV(R->constBV().extract(LoW - 1, 0));
      return TB.andTerm(TB.eqTerm(L->operand(0), HiC),
                        TB.eqTerm(L->operand(1), LoC));
    }
    if (R->sort().isBitVec() && L->kind() == Kind::ConstBV)
      return TB.eqTerm(R, L); // constant to the right
    // zext(x) = c  ->  x = low(c) when the high bits of c are zero, else
    // false.
    if (L->kind() == Kind::ZeroExtend && R->kind() == Kind::ConstBV) {
      unsigned OrigW = L->operand(0)->width();
      if (R->constBV().extract(R->width() - 1, OrigW).isZero())
        return TB.eqTerm(L->operand(0),
                         TB.constBV(R->constBV().extract(OrigW - 1, 0)));
      return TB.falseTerm();
    }
    // (x + c1) = c2 -> x = (c2 - c1)
    if (L->kind() == Kind::BVAdd && R->kind() == Kind::ConstBV &&
        L->operand(1)->kind() == Kind::ConstBV)
      return TB.eqTerm(L->operand(0),
                       TB.constBV(R->constBV().sub(L->operand(1)->constBV())));
    return T;
  }
  case Kind::Not: {
    const Term *Op = T->operand(0);
    // not(a = b) over booleans stays; not(not x) handled by builder.
    if (Op->kind() == Kind::BVUlt)
      return TB.bvUle(Op->operand(1), Op->operand(0));
    if (Op->kind() == Kind::BVUle)
      return TB.bvUlt(Op->operand(1), Op->operand(0));
    if (Op->kind() == Kind::BVSlt)
      return TB.bvSle(Op->operand(1), Op->operand(0));
    if (Op->kind() == Kind::BVSle)
      return TB.bvSlt(Op->operand(1), Op->operand(0));
    return T;
  }
  case Kind::BVUlt: {
    // x < 0 is false; distinct-width cases folded by the builder.
    if (isZeroConst(T->operand(1)))
      return TB.falseTerm();
    if (T->operand(0) == T->operand(1))
      return TB.falseTerm();
    return T;
  }
  case Kind::BVUle: {
    if (isZeroConst(T->operand(0)) || T->operand(0) == T->operand(1))
      return TB.trueTerm();
    return T;
  }
  default:
    return T;
  }
}

const Term *Rewriter::simplify(const Term *T) {
  auto It = Memo.find(T);
  if (It != Memo.end())
    return It->second;

  // Simplify children first (iteratively, to bound stack depth).
  std::vector<const Term *> Ops;
  Ops.reserve(T->numOperands());
  bool Changed = false;
  for (const Term *Op : T->operands()) {
    const Term *S = simplify(Op);
    Changed |= S != Op;
    Ops.push_back(S);
  }
  const Term *Cur = Changed ? TB.rebuild(T, Ops) : T;

  // Apply root rules to a fixpoint (rules may expose further rules; cap the
  // iteration count defensively).
  bool Converged = false;
  for (int Iter = 0; Iter < 64; ++Iter) {
    const Term *Next = applyRules(Cur);
    if (Next == Cur) {
      Converged = true;
      break;
    }
    // The result of a rule may itself need child simplification (rules can
    // construct fresh compound children); re-enter through the memo.
    if (Next->numOperands() != 0 && Memo.find(Next) == Memo.end() &&
        Next != T) {
      Next = simplify(Next);
    }
    Cur = Next;
  }
  // Hitting the cap is sound (every rule is semantics-preserving) but means
  // the result may be unnormalized — count it instead of hiding it, so a
  // ping-ponging rule pair shows up in stats rather than as a silent
  // simplification regression.
  if (!Converged)
    ++CapHits;

  Memo[T] = Cur;
  return Cur;
}
