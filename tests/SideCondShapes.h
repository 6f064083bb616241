//===- tests/SideCondShapes.h - Case-study side-condition shapes -*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The goal-set shapes that took most of the SAT-core time on the Fig. 12
/// case studies, rebuilt with TermBuilder at 64 bits as the Rewriter leaves
/// them: the binary-search select chain (RV and Arm flag forms), a linear
/// add/sub disequality from memcpy, and a signed order chain.  Each is
/// unsatisfiable; its perturbed variant changes one literal and is
/// satisfiable.  Shared by smt_test and bench_solver.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_TESTS_SIDECONDSHAPES_H
#define ISLARIS_TESTS_SIDECONDSHAPES_H

#include "smt/TermBuilder.h"

#include <string>
#include <vector>

namespace islaris::smt::shapes {

using Goals = std::vector<const Term *>;

/// How the binary-search loop test reaches the side condition: RV compares
/// the comparator's result register directly; Arm reads the NZCV flags of
/// `cmp`, whose N bit is `extract 63 (zext1 r + 2^64)`.
enum class Flags { RV, ArmNZCV };

/// The back-edge of a binary search over `N` sorted elements: with the
/// loop invariant, `lo ≠ hi` and a comparator result `> 0` (so
/// `lo := mid + 1`), the new `lo` exceeds `hi`.  `mid` indexes the select
/// chain `ite (= idx k) e_k …`.  Unsat given `lo ≤u hi`; without it
/// (\p DropLoLeHi) satisfiable.
inline Goals binarySearchSelect(TermBuilder &TB, unsigned N, Flags F,
                                bool DropLoLeHi = false) {
  auto C = [&](uint64_t V) { return TB.constBV(64, V); };
  auto V = [&](const std::string &Name) {
    return TB.freshVar(Sort::bitvec(64), Name);
  };
  std::vector<const Term *> E;
  for (unsigned I = 0; I < N; ++I)
    E.push_back(V("e" + std::to_string(I)));
  const Term *Lo = V("lo"), *Hi = V("hi"), *Key = V("key"), *Ret = V("ret");
  Goals G;
  for (unsigned I = 0; I + 1 < N; ++I)
    G.push_back(TB.bvSle(E[I], E[I + 1]));
  if (!DropLoLeHi)
    G.push_back(TB.bvUle(Lo, Hi));
  G.push_back(TB.bvUle(Hi, C(N)));
  for (unsigned I = 0; I < N; ++I) {
    G.push_back(TB.orTerm(TB.bvUle(Lo, C(I)), TB.bvSlt(E[I], Key)));
    G.push_back(TB.orTerm(TB.bvUlt(C(I), Hi), TB.bvSle(Key, E[I])));
  }
  if (F == Flags::RV)
    G.push_back(TB.notTerm(TB.eqTerm(Lo, Hi)));
  else
    G.push_back(TB.notTerm(TB.eqTerm(
        TB.iteTerm(TB.eqTerm(TB.bvAdd(Lo, TB.bvNot(Hi)), C(~0ull)),
                   TB.constBV(1, 1), TB.constBV(1, 0)),
        TB.constBV(1, 1))));
  const Term *Mid = TB.bvLShr(TB.bvAdd(Lo, Hi), C(1));
  const Term *Idx = TB.bvLShr(TB.bvShl(Mid, C(3)), C(3));
  const Term *Sel = E[N - 1];
  for (unsigned I = N - 1; I-- > 0;)
    Sel = TB.iteTerm(TB.eqTerm(Idx, C(I)), E[I], Sel);
  G.push_back(TB.eqTerm(
      Ret, TB.iteTerm(TB.bvSlt(Key, Sel), C(~0ull),
                      TB.iteTerm(TB.eqTerm(Key, Sel), C(0), C(1)))));
  if (F == Flags::RV) {
    G.push_back(TB.bvSlt(C(0), Ret));
  } else {
    const Term *Sum = TB.bvAdd(TB.zeroExtend(1, Ret),
                               TB.constBV(BitVec(65, 1).shl(64u)));
    const Term *NFlag = TB.extract(63, 63, Sum);
    const Term *ZFlag = TB.iteTerm(TB.eqTerm(Ret, C(0)), TB.constBV(1, 1),
                                   TB.constBV(1, 0));
    G.push_back(TB.andTerm(TB.eqTerm(NFlag, TB.constBV(1, 0)),
                           TB.eqTerm(ZFlag, TB.constBV(1, 0))));
  }
  G.push_back(TB.bvUlt(Hi, TB.bvAdd(Mid, C(1))));
  return G;
}

/// memcpy's loop-counter disequality `(p+1) - (4 - (c2-1)) ≠ p - (4-c2)`,
/// false by ring normalisation.  \p Perturb writes `c2+1` for the inner
/// `c2`, which makes the disequality hold everywhere.
inline Goals linearCancel(TermBuilder &TB, bool Perturb = false) {
  auto C = [&](uint64_t V) { return TB.constBV(64, V); };
  const Term *P = TB.freshVar(Sort::bitvec(64), "p");
  const Term *C2 = TB.freshVar(Sort::bitvec(64), "c2");
  const Term *Inner = Perturb ? TB.bvAdd(C2, C(1)) : C2;
  const Term *L = TB.bvSub(TB.bvAdd(P, C(1)),
                           TB.bvSub(C(4), TB.bvSub(Inner, C(1))));
  const Term *R = TB.bvSub(P, TB.bvSub(C(4), C2));
  return {TB.notTerm(TB.eqTerm(L, R))};
}

/// The sorted-array premise `e0 ≤s e1 ≤s e2 ≤s e3` against `e2 <s e1`;
/// \p Perturb weakens the last literal to `e2 ≤s e1`.
inline Goals orderChain(TermBuilder &TB, bool Perturb = false) {
  const Term *E[4];
  for (unsigned I = 0; I < 4; ++I)
    E[I] = TB.freshVar(Sort::bitvec(64), "e" + std::to_string(I));
  return {TB.bvSle(E[0], E[1]), TB.bvSle(E[1], E[2]), TB.bvSle(E[2], E[3]),
          Perturb ? TB.bvSle(E[2], E[1]) : TB.bvSlt(E[2], E[1])};
}

} // namespace islaris::smt::shapes

#endif // ISLARIS_TESTS_SIDECONDSHAPES_H
