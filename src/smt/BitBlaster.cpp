//===- smt/BitBlaster.cpp - QF_BV to CNF translation -------------------------===//

#include "smt/BitBlaster.h"

#include <algorithm>

using namespace islaris;
using namespace islaris::smt;
using sat::Lit;

BitBlaster::BitBlaster(sat::Solver &S) : S(S) {
  TrueLit = Lit(S.newVar(), false);
  S.addClause(TrueLit);
}

Lit BitBlaster::freshLit() { return Lit(S.newVar(), false); }

std::pair<Lit, bool> BitBlaster::gate(GateOp Op, const Lit *Ins, size_t N) {
  Key.assign(1, int32_t(Op));
  for (size_t I = 0; I < N; ++I)
    Key.push_back(Ins[I].index());
  auto It = Gates.find(Key);
  if (It != Gates.end())
    return {It->second, false};
  Lit R = freshLit();
  Gates.emplace(Key, R);
  return {R, true};
}

static bool byIndex(Lit A, Lit B) { return A.index() < B.index(); }

/// Sorts up to three literals by index.
static void sortSmall(Lit *L, unsigned N) {
  auto Order = [&](unsigned I, unsigned J) {
    if (byIndex(L[J], L[I]))
      std::swap(L[I], L[J]);
  };
  if (N >= 2)
    Order(0, 1);
  if (N == 3) {
    Order(1, 2);
    Order(0, 1);
  }
}

Lit BitBlaster::litAnd(Lit A, Lit B) {
  if (A == constLit(false) || B == constLit(false) || A == ~B)
    return constLit(false);
  if (A == constLit(true) || A == B)
    return B;
  if (B == constLit(true))
    return A;
  if (byIndex(B, A))
    std::swap(A, B);
  Lit In[2] = {A, B};
  auto [C, Fresh] = gate(GateOp::And, In, 2);
  if (Fresh) {
    S.addClause(~C, A);
    S.addClause(~C, B);
    S.addClause(C, ~A, ~B);
  }
  return C;
}

Lit BitBlaster::litOr(Lit A, Lit B) { return ~litAnd(~A, ~B); }

Lit BitBlaster::litAndN(Bits Ls) {
  Ls.erase(std::remove(Ls.begin(), Ls.end(), constLit(true)), Ls.end());
  std::sort(Ls.begin(), Ls.end(), byIndex);
  Ls.erase(std::unique(Ls.begin(), Ls.end()), Ls.end());
  // A literal and its complement differ only in the low bit of the index,
  // so after sorting they are adjacent.
  for (size_t I = 0; I < Ls.size(); ++I)
    if (Ls[I] == constLit(false) || (I > 0 && Ls[I] == ~Ls[I - 1]))
      return constLit(false);
  if (Ls.empty())
    return constLit(true);
  if (Ls.size() == 1)
    return Ls[0];
  if (Ls.size() == 2)
    return litAnd(Ls[0], Ls[1]);
  auto [C, Fresh] = gate(GateOp::AndN, Ls.data(), Ls.size());
  if (Fresh) {
    Bits Long = {C};
    for (Lit L : Ls) {
      S.addClause(~C, L);
      Long.push_back(~L);
    }
    S.addClause(std::move(Long));
  }
  return C;
}

Lit BitBlaster::litXor(Lit A, Lit B) { return litXor3(A, B, constLit(false)); }

Lit BitBlaster::litXor3(Lit A, Lit B, Lit C) {
  // Strip every polarity, and every constant, into the output's parity.
  bool Parity = false;
  Lit Vs[3];
  unsigned N = 0;
  for (Lit L : {A, B, C}) {
    Parity ^= L.negated();
    Lit P = L.negated() ? ~L : L;
    if (P == constLit(true))
      Parity = !Parity;
    else
      Vs[N++] = P;
  }
  sortSmall(Vs, N);
  // x ^ x cancels.
  if (N >= 2 && Vs[0] == Vs[1]) {
    Vs[0] = Vs[2];
    N -= 2;
  } else if (N == 3 && Vs[1] == Vs[2]) {
    N = 1;
  }
  if (N == 0)
    return constLit(Parity);
  if (N == 1)
    return Parity ? ~Vs[0] : Vs[0];
  auto [R, Fresh] = gate(N == 2 ? GateOp::Xor : GateOp::Xor3, Vs, N);
  if (Fresh && N == 2) {
    S.addClause(~R, Vs[0], Vs[1]);
    S.addClause(~R, ~Vs[0], ~Vs[1]);
    S.addClause(R, ~Vs[0], Vs[1]);
    S.addClause(R, Vs[0], ~Vs[1]);
  } else if (Fresh) {
    // One clause per input assignment, forcing R to its parity.
    for (unsigned M = 0; M < 8; ++M) {
      bool X = M & 1, Y = M & 2, Z = M & 4;
      S.addClause({X ? ~Vs[0] : Vs[0], Y ? ~Vs[1] : Vs[1],
                   Z ? ~Vs[2] : Vs[2], (X ^ Y ^ Z) ? R : ~R});
    }
  }
  return Parity ? ~R : R;
}

Lit BitBlaster::litMux(Lit C, Lit T, Lit E) {
  if (C.negated()) {
    C = ~C;
    std::swap(T, E);
  }
  if (C == constLit(true) || T == E)
    return T;
  if (T == ~E)
    return ~litXor(C, T);
  if (T == C || T == constLit(true))
    return litOr(C, E);
  if (T == ~C || T == constLit(false))
    return litAnd(~C, E);
  if (E == C || E == constLit(false))
    return litAnd(C, T);
  if (E == ~C || E == constLit(true))
    return litOr(~C, T);
  // ite(c, ~t, ~e) == ~ite(c, t, e): key the positive then-branch.
  bool Neg = T.negated();
  if (Neg) {
    T = ~T;
    E = ~E;
  }
  Lit In[3] = {C, T, E};
  auto [R, Fresh] = gate(GateOp::Mux, In, 3);
  if (Fresh) {
    S.addClause(~C, ~T, R);
    S.addClause(~C, T, ~R);
    S.addClause(C, ~E, R);
    S.addClause(C, E, ~R);
  }
  return Neg ? ~R : R;
}

Lit BitBlaster::litMajority(Lit A, Lit B, Lit C) {
  Lit In[3] = {A, B, C};
  for (unsigned I = 0; I < 3; ++I) {
    Lit X = In[(I + 1) % 3], Y = In[(I + 2) % 3];
    if (In[I] == constLit(true))
      return litOr(X, Y);
    if (In[I] == constLit(false))
      return litAnd(X, Y);
    if (In[I] == X)
      return X;
    if (In[I] == ~X)
      return Y;
  }
  // maj(~a, ~b, ~c) == ~maj(a, b, c): key at most one negated input.
  bool Neg = A.negated() + B.negated() + C.negated() >= 2;
  if (Neg)
    for (Lit &L : In)
      L = ~L;
  sortSmall(In, 3);
  auto [R, Fresh] = gate(GateOp::Maj, In, 3);
  if (Fresh) {
    // Any two true inputs force R; any two false inputs force ~R.
    for (unsigned I = 0; I < 3; ++I) {
      Lit X = In[I], Y = In[(I + 1) % 3];
      S.addClause(~X, ~Y, R);
      S.addClause(X, Y, ~R);
    }
  }
  return Neg ? ~R : R;
}

//===----------------------------------------------------------------------===//
// Word-level circuits.
//===----------------------------------------------------------------------===//

BitBlaster::Bits BitBlaster::addBits(const Bits &A, const Bits &B,
                                     Lit CarryIn) {
  assert(A.size() == B.size() && "adder width mismatch");
  Bits Sum(A.size());
  Lit Carry = CarryIn;
  for (size_t I = 0; I < A.size(); ++I) {
    Sum[I] = litXor3(A[I], B[I], Carry);
    if (I + 1 < A.size()) // the carry out of the top bit is unused
      Carry = litMajority(A[I], B[I], Carry);
  }
  return Sum;
}

BitBlaster::Bits BitBlaster::negBits(const Bits &A) {
  Bits NotA(A.size());
  for (size_t I = 0; I < A.size(); ++I)
    NotA[I] = ~A[I];
  Bits Zero(A.size(), constLit(false));
  return addBits(NotA, Zero, constLit(true));
}

BitBlaster::Bits BitBlaster::mulBits(const Bits &A, const Bits &B) {
  size_t W = A.size();
  Bits Acc(W, constLit(false));
  for (size_t I = 0; I < W; ++I) {
    // Partial product: (A << I) & B[I], added into Acc.
    Bits Partial(W, constLit(false));
    for (size_t J = I; J < W; ++J)
      Partial[J] = litAnd(A[J - I], B[I]);
    Acc = addBits(Acc, Partial, constLit(false));
  }
  return Acc;
}

BitBlaster::Bits BitBlaster::shiftBits(const Bits &A, const Bits &Amount,
                                       bool Left, Lit Fill) {
  size_t W = A.size();
  Bits Cur = A;
  // Barrel shifter over the bits of Amount that are < log2ceil(W)+1;
  // any higher set bit forces a full shift-out.
  unsigned Stages = 0;
  while ((size_t(1) << Stages) < W)
    ++Stages;
  Lit Overflow = constLit(false);
  for (size_t I = 0; I < Amount.size(); ++I)
    if (I > Stages || (size_t(1) << I) >= W * 2)
      Overflow = litOr(Overflow, Amount[I]);
  for (size_t Stage = 0; Stage <= Stages && Stage < Amount.size(); ++Stage) {
    size_t Dist = size_t(1) << Stage;
    if (Dist >= W) {
      Overflow = litOr(Overflow, Amount[Stage]);
      continue;
    }
    Bits Next(W);
    for (size_t I = 0; I < W; ++I) {
      Lit Shifted;
      if (Left)
        Shifted = I >= Dist ? Cur[I - Dist] : Fill;
      else
        Shifted = I + Dist < W ? Cur[I + Dist] : Fill;
      Next[I] = litMux(Amount[Stage], Shifted, Cur[I]);
    }
    Cur = Next;
  }
  for (size_t I = 0; I < W; ++I)
    Cur[I] = litMux(Overflow, Fill, Cur[I]);
  return Cur;
}

Lit BitBlaster::ultBits(const Bits &A, const Bits &B) {
  // A <u B iff A - B borrows: the carry out of A + ~B + 1 is clear.
  Lit Carry = constLit(true);
  for (size_t I = 0; I < A.size(); ++I)
    Carry = litMajority(A[I], ~B[I], Carry);
  return ~Carry;
}

Lit BitBlaster::uleBits(const Bits &A, const Bits &B) {
  return ~ultBits(B, A);
}

Lit BitBlaster::sltBits(const Bits &A, const Bits &B) {
  // Flip the sign bits and compare unsigned.
  Bits A2 = A, B2 = B;
  A2.back() = ~A2.back();
  B2.back() = ~B2.back();
  return ultBits(A2, B2);
}

Lit BitBlaster::eqBits(const Bits &A, const Bits &B) {
  Bits Same(A.size());
  for (size_t I = 0; I < A.size(); ++I)
    Same[I] = ~litXor(A[I], B[I]);
  return litAndN(std::move(Same));
}

void BitBlaster::divRem(const Bits &N, const Bits &D, Bits &Quot, Bits &Rem) {
  size_t W = N.size();
  // Fresh result vectors constrained by the multiplication relation at
  // double width so that no wrap-around can fake a solution:
  //   zext(Q) * zext(D) + zext(R) == zext(N)  and  R < D   (when D != 0)
  //   Q == ones, R == N                                    (when D == 0)
  Quot.assign(W, Lit());
  Rem.assign(W, Lit());
  for (size_t I = 0; I < W; ++I) {
    Quot[I] = freshLit();
    Rem[I] = freshLit();
  }
  Lit DZero = eqBits(D, Bits(W, constLit(false)));

  auto zext2 = [&](const Bits &X) {
    Bits R2 = X;
    R2.resize(2 * W, constLit(false));
    return R2;
  };
  Bits Prod = mulBits(zext2(Quot), zext2(D));
  Bits Sum = addBits(Prod, zext2(Rem), constLit(false));
  Lit Exact = eqBits(Sum, zext2(N));
  Lit RemOk = ultBits(Rem, D);
  Lit NonZeroCase = litAnd(Exact, RemOk);
  Lit ZeroCase =
      litAnd(eqBits(Quot, Bits(W, constLit(true))), eqBits(Rem, N));
  // (DZero -> ZeroCase) and (!DZero -> NonZeroCase)
  S.addClause(litOr(~DZero, ZeroCase));
  S.addClause(litOr(DZero, NonZeroCase));
}

//===----------------------------------------------------------------------===//
// Term translation.
//===----------------------------------------------------------------------===//

Lit BitBlaster::blastBool(const Term *T) {
  assert(T->isBool() && "blastBool needs a boolean term");
  auto It = BoolCache.find(T);
  if (It != BoolCache.end()) {
    ++BStats.TermsReused;
    return It->second;
  }
  ++BStats.TermsBlasted;

  Lit R;
  switch (T->kind()) {
  case Kind::ConstBool:
    R = constLit(T->constBool());
    break;
  case Kind::Var:
    R = freshLit();
    break;
  case Kind::Not:
    R = ~blastBool(T->operand(0));
    break;
  case Kind::And:
    R = litAnd(blastBool(T->operand(0)), blastBool(T->operand(1)));
    break;
  case Kind::Or:
    R = litOr(blastBool(T->operand(0)), blastBool(T->operand(1)));
    break;
  case Kind::Implies:
    R = litOr(~blastBool(T->operand(0)), blastBool(T->operand(1)));
    break;
  case Kind::Ite:
    R = litMux(blastBool(T->operand(0)), blastBool(T->operand(1)),
               blastBool(T->operand(2)));
    break;
  case Kind::Eq: {
    const Term *L = T->operand(0);
    if (L->isBool())
      R = ~litXor(blastBool(T->operand(0)), blastBool(T->operand(1)));
    else
      R = eqBits(blastBV(T->operand(0)), blastBV(T->operand(1)));
    break;
  }
  case Kind::BVUlt:
    R = ultBits(blastBV(T->operand(0)), blastBV(T->operand(1)));
    break;
  case Kind::BVUle:
    R = uleBits(blastBV(T->operand(0)), blastBV(T->operand(1)));
    break;
  case Kind::BVSlt:
    R = sltBits(blastBV(T->operand(0)), blastBV(T->operand(1)));
    break;
  case Kind::BVSle:
    R = ~sltBits(blastBV(T->operand(1)), blastBV(T->operand(0)));
    break;
  default:
    assert(false && "non-boolean kind in blastBool");
    R = constLit(false);
  }
  BoolCache[T] = R;
  return R;
}

BitBlaster::Bits BitBlaster::blastNode(const Term *T) {
  unsigned W = T->width();
  switch (T->kind()) {
  case Kind::ConstBV: {
    Bits R(W);
    for (unsigned I = 0; I < W; ++I)
      R[I] = constLit(T->constBV().bit(I));
    return R;
  }
  case Kind::Var: {
    Bits R(W);
    for (unsigned I = 0; I < W; ++I)
      R[I] = freshLit();
    return R;
  }
  case Kind::Ite: {
    Lit C = blastBool(T->operand(0));
    const Bits &A = blastBV(T->operand(1));
    const Bits &B = blastBV(T->operand(2));
    Bits R(W);
    for (unsigned I = 0; I < W; ++I)
      R[I] = litMux(C, A[I], B[I]);
    return R;
  }
  case Kind::BVAdd:
    return addBits(blastBV(T->operand(0)), blastBV(T->operand(1)),
                   constLit(false));
  case Kind::BVSub: {
    Bits B = blastBV(T->operand(1));
    for (Lit &L : B)
      L = ~L;
    return addBits(blastBV(T->operand(0)), B, constLit(true));
  }
  case Kind::BVNeg:
    return negBits(blastBV(T->operand(0)));
  case Kind::BVMul:
    return mulBits(blastBV(T->operand(0)), blastBV(T->operand(1)));
  case Kind::BVUDiv:
  case Kind::BVURem: {
    auto Key = std::make_pair(T->operand(0), T->operand(1));
    auto It = DivCache.find(Key);
    if (It == DivCache.end()) {
      Bits Q, R;
      divRem(blastBV(T->operand(0)), blastBV(T->operand(1)), Q, R);
      It = DivCache.emplace(Key, std::make_pair(Q, R)).first;
    }
    return T->kind() == Kind::BVUDiv ? It->second.first : It->second.second;
  }
  case Kind::BVSDiv:
  case Kind::BVSRem: {
    // Reduce to unsigned via sign/magnitude muxing.
    const Bits &A = blastBV(T->operand(0));
    const Bits &B = blastBV(T->operand(1));
    Lit SA = A.back(), SB = B.back();
    Bits AbsA(W), AbsB(W);
    Bits NA = negBits(A), NB = negBits(B);
    for (unsigned I = 0; I < W; ++I) {
      AbsA[I] = litMux(SA, NA[I], A[I]);
      AbsB[I] = litMux(SB, NB[I], B[I]);
    }
    Bits Q, R;
    divRem(AbsA, AbsB, Q, R);
    Bits Out(W);
    if (T->kind() == Kind::BVSDiv) {
      Lit NegRes = litXor(SA, SB);
      Bits NQ = negBits(Q);
      // Division by zero: SMT-LIB bvsdiv gives 1 for negative dividend,
      // ones otherwise; our unsigned divRem already yields Q=ones for
      // D==0, so fix up: sdiv(x,0) = x<0 ? 1 : ones.
      Lit DZero = eqBits(B, Bits(W, constLit(false)));
      Bits One(W, constLit(false));
      One[0] = constLit(true);
      Bits Ones(W, constLit(true));
      for (unsigned I = 0; I < W; ++I) {
        Lit Normal = litMux(NegRes, NQ[I], Q[I]);
        Lit ZeroVal = litMux(SA, One[I], Ones[I]);
        Out[I] = litMux(DZero, ZeroVal, Normal);
      }
    } else {
      Bits NR = negBits(R);
      Lit DZero = eqBits(B, Bits(W, constLit(false)));
      for (unsigned I = 0; I < W; ++I) {
        Lit Normal = litMux(SA, NR[I], R[I]);
        Out[I] = litMux(DZero, A[I], Normal);
      }
    }
    return Out;
  }
  case Kind::BVAnd:
  case Kind::BVOr:
  case Kind::BVXor: {
    const Bits &A = blastBV(T->operand(0));
    const Bits &B = blastBV(T->operand(1));
    Bits R(W);
    for (unsigned I = 0; I < W; ++I) {
      if (T->kind() == Kind::BVAnd)
        R[I] = litAnd(A[I], B[I]);
      else if (T->kind() == Kind::BVOr)
        R[I] = litOr(A[I], B[I]);
      else
        R[I] = litXor(A[I], B[I]);
    }
    return R;
  }
  case Kind::BVNot: {
    Bits R = blastBV(T->operand(0));
    for (Lit &L : R)
      L = ~L;
    return R;
  }
  case Kind::BVShl:
    return shiftBits(blastBV(T->operand(0)), blastBV(T->operand(1)), true,
                     constLit(false));
  case Kind::BVLShr:
    return shiftBits(blastBV(T->operand(0)), blastBV(T->operand(1)), false,
                     constLit(false));
  case Kind::BVAShr: {
    const Bits &A = blastBV(T->operand(0));
    return shiftBits(A, blastBV(T->operand(1)), false, A.back());
  }
  case Kind::Extract: {
    const Bits &A = blastBV(T->operand(0));
    return Bits(A.begin() + T->attrB(), A.begin() + T->attrA() + 1);
  }
  case Kind::Concat: {
    Bits R = blastBV(T->operand(1)); // low part
    const Bits &Hi = blastBV(T->operand(0));
    R.insert(R.end(), Hi.begin(), Hi.end());
    return R;
  }
  case Kind::ZeroExtend: {
    Bits R = blastBV(T->operand(0));
    R.resize(W, constLit(false));
    return R;
  }
  case Kind::SignExtend: {
    Bits R = blastBV(T->operand(0));
    Lit Sign = R.back();
    R.resize(W, Sign);
    return R;
  }
  default:
    assert(false && "non-bitvector kind in blastBV");
    return Bits(W, constLit(false));
  }
}

const BitBlaster::Bits &BitBlaster::blastBV(const Term *T) {
  assert(T->sort().isBitVec() && "blastBV needs a bitvector term");
  auto It = BVCache.find(T);
  if (It != BVCache.end()) {
    ++BStats.TermsReused;
    return It->second;
  }
  ++BStats.TermsBlasted;
  Bits R = blastNode(T);
  assert(R.size() == T->width() && "blasted width mismatch");
  return BVCache.emplace(T, std::move(R)).first->second;
}

Value BitBlaster::modelValue(const Term *T) {
  if (T->isBool()) {
    auto It = BoolCache.find(T);
    // Unconstrained variables default to false.
    if (It == BoolCache.end())
      return Value(false);
    return Value(S.modelValue(It->second.var()) != It->second.negated());
  }
  auto It = BVCache.find(T);
  if (It == BVCache.end())
    return Value(BitVec::zeros(T->width()));
  BitVec V = BitVec::zeros(T->width());
  for (unsigned I = 0; I < T->width(); ++I) {
    Lit L = It->second[I];
    if (S.modelValue(L.var()) != L.negated())
      V = V.insertSlice(I, BitVec(1, 1));
  }
  return Value(V);
}
