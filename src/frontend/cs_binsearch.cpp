//===- frontend/cs_binsearch.cpp - Higher-order binary search --------------------===//
//
// The §6 binary-search case study: a lower_bound over N sorted 64-bit
// elements, parametric over the comparison function, which is invoked
// through a function pointer (blr / jalr).  The pointer is handled with an
// assumed calling-convention contract: the callee receives the key and an
// element, returns their signed three-way comparison in the result
// register, preserves everything else this code relies on, and returns to
// the link register.  The verified postcondition: the result index is the
// number of elements strictly smaller than the key.
//
//===----------------------------------------------------------------------===//

#include "frontend/CaseStudies.h"

#include "arch/AArch64.h"
#include "arch/RiscV.h"
#include "frontend/CsCommon.h"

using namespace islaris;
using namespace islaris::frontend;
using islaris::itl::Reg;
using islaris::seplogic::Contract;
using islaris::seplogic::Spec;
using smt::Term;

namespace {

/// cmp(key, elem) = -1 / 0 / +1 as a signed comparison, expressed over the
/// pre-call argument registers.
const Term *threeWay(smt::TermBuilder &TB, const Term *Key,
                     const Term *Elem) {
  return TB.iteTerm(TB.bvSlt(Key, Elem), TB.constBV(64, ~0ull),
                    TB.iteTerm(TB.eqTerm(Key, Elem), TB.constBV(64, 0),
                               TB.constBV(64, 1)));
}

/// Adds the relational characterization of "Res is the lower bound of Key
/// in the sorted Elems" as pure facts of \p S: Res <= N, everything below
/// Res is smaller than the key, nothing at or above Res is.  (For a sorted
/// array this pins Res uniquely; it decomposes into per-element side
/// conditions the bitvector solver discharges instantly, unlike a
/// popcount-style sum.)
void addLowerBoundFacts(Spec &S, smt::TermBuilder &TB, const Term *Res,
                        const Term *Key,
                        const std::vector<const Term *> &Elems) {
  S.pure(TB.bvUle(Res, TB.constBV(64, Elems.size())));
  for (size_t K = 0; K < Elems.size(); ++K) {
    const Term *KC = TB.constBV(64, K);
    S.pure(TB.impliesTerm(TB.bvUlt(KC, Res), TB.bvSlt(Elems[K], Key)));
    S.pure(TB.impliesTerm(TB.bvUle(Res, KC),
                          TB.notTerm(TB.bvSlt(Elems[K], Key))));
  }
}

/// Sortedness of the element list as pairwise pure facts.
void addSortedFacts(Spec &S, smt::TermBuilder &TB,
                    const std::vector<const Term *> &Elems) {
  for (size_t K = 0; K + 1 < Elems.size(); ++K)
    S.pure(TB.bvSle(Elems[K], Elems[K + 1]));
}

} // namespace

CaseResult islaris::frontend::runBinSearchArm(unsigned N) {
  CaseResult Res;
  Res.Name = "bin.search";
  Res.Isa = "Arm";

  namespace e = arch::aarch64::enc;
  using arch::aarch64::Cond;
  arch::aarch64::Asm A;
  A.org(0x40000);
  A.label("bsearch");        // x0=key x1=base x2=n x3=cmp x30=ret
  A.put(e::movReg(9, 30));   // save the return address
  A.put(e::movReg(8, 0));    // key
  A.put(e::movReg(10, 1));   // base
  A.put(e::movz(4, 0));      // lo = 0
  A.put(e::movReg(5, 2));    // hi = n
  A.label("loop");
  A.put(e::cmpReg(4, 5));
  A.bcond(Cond::EQ, "done");
  A.put(e::addReg(6, 4, 5));
  A.put(e::lsrImm(6, 6, 1)); // mid = (lo + hi) >> 1
  A.put(e::lslImm(7, 6, 3));
  A.put(e::ldrReg(3, 7, 10, 7)); // x7 = base[mid]
  A.put(e::movReg(0, 8));    // arg0 = key
  A.put(e::movReg(1, 7));    // arg1 = element
  A.put(e::blr(3));          // call the comparator
  A.put(e::cmpImm(0, 0));
  A.bcond(Cond::GT, "gt");
  A.put(e::movReg(5, 6));    // hi = mid
  A.b("loop");
  A.label("gt");
  A.put(e::addImm(4, 6, 1)); // lo = mid + 1
  A.b("loop");
  A.label("done");
  A.put(e::movReg(0, 4));    // result = lo
  A.put(e::br(9));

  Verifier V(aarch64());
  V.addCode(A.finish());
  smt::TermBuilder &TB = V.builder();
  V.defaults() = armEl1Assumptions();
  std::string Err;
  if (!V.generateTraces(Err))
    return genFailed(std::move(Res), V, Err);

  auto X = [](unsigned I) { return arch::aarch64::xreg(I); };

  // The comparator contract (AAPCS64, reduced to what this caller needs):
  // clobbers x0/x1, returns the three-way comparison of its arguments in
  // x0, returns to x30.
  Contract Cmp;
  Cmp.Name = "comparator";
  Cmp.RetReg = X(30);
  Cmp.Clobbers = {X(0), X(1), Reg("PSTATE", "N"), Reg("PSTATE", "Z"),
                  Reg("PSTATE", "C"), Reg("PSTATE", "V")};
  Cmp.Post = [](smt::TermBuilder &TB2, const auto &Pre, const auto &Post)
      -> std::vector<const Term *> {
    return {TB2.eqTerm(Post(Reg("R0")),
                       threeWay(TB2, Pre(Reg("R0")), Pre(Reg("R1"))))};
  };

  // Shared unknowns: the key, the sorted elements, the comparator address.
  const Term *Key = TB.freshVar(smt::Sort::bitvec(64), "key");
  const Term *F = TB.freshVar(smt::Sort::bitvec(64), "f");
  std::vector<const Term *> Elems;
  for (unsigned K = 0; K < N; ++K)
    Elems.push_back(
        TB.freshVar(smt::Sort::bitvec(64), "e" + std::to_string(K)));

  Spec Post = V.makeSpec("bsearch_post");
  {
    const Term *Result = Post.evar(64, "result");
    Post.reg(X(0), Result);
    addLowerBoundFacts(Post, TB, Result, Key, Elems);
  }
  for (unsigned RN : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 30u})
    Post.regAny(X(RN));
  Post.shareEvar(Key);
  for (const Term *E2 : Elems)
    Post.shareEvar(E2);

  auto buildCommon = [&](Spec &S) {
    S.shareEvar(Key);
    S.shareEvar(F);
    for (const Term *E2 : Elems)
      S.shareEvar(E2);
    S.regCol(nzcvCol(S));
    addArmEl1SysRegs(S, TB);
    addSortedFacts(S, TB, Elems);
    S.contract(F, &Cmp);
  };

  Spec Entry = V.makeSpec("bsearch_entry");
  const Term *Base = Entry.evar(64, "base");
  const Term *R = Entry.evar(64, "r");
  Entry.reg(X(0), Key).reg(X(1), Base);
  Entry.reg(X(2), TB.constBV(64, N));
  Entry.reg(X(3), F);
  for (unsigned RN : {4u, 5u, 6u, 7u, 8u, 9u, 10u})
    Entry.regAny(X(RN));
  Entry.reg(X(30), R);
  Entry.array(Base, Elems, 8);
  buildCommon(Entry);
  Entry.instrPre(R, &Post);

  // Loop invariant: lo/hi bracket the lower bound; everything below lo is
  // smaller than the key, nothing at or above hi is.
  Spec Inv = V.makeSpec("bsearch_inv");
  const Term *IBase = Inv.evar(64, "ibase");
  const Term *Lo = Inv.evar(64, "lo");
  const Term *Hi = Inv.evar(64, "hi");
  const Term *IR = Inv.evar(64, "ir");
  Inv.reg(X(4), Lo).reg(X(5), Hi);
  Inv.reg(X(8), Key).reg(X(9), IR).reg(X(10), IBase);
  Inv.reg(X(3), F);
  for (unsigned RN : {0u, 1u, 2u, 6u, 7u, 30u})
    Inv.regAny(X(RN));
  Inv.array(IBase, Elems, 8);
  buildCommon(Inv);
  Inv.pure(TB.bvUle(Lo, Hi));
  Inv.pure(TB.bvUle(Hi, TB.constBV(64, N)));
  for (unsigned K = 0; K < N; ++K) {
    const Term *KC = TB.constBV(64, K);
    Inv.pure(TB.impliesTerm(TB.bvUlt(KC, Lo),
                            TB.bvSlt(Elems[K], Key)));
    Inv.pure(TB.impliesTerm(TB.bvUle(Hi, KC),
                            TB.notTerm(TB.bvSlt(Elems[K], Key))));
  }
  Inv.instrPre(IR, &Post);

  auto &PE = V.engine();
  PE.registerSpec(A.addrOf("bsearch"), &Entry);
  PE.registerSpec(A.addrOf("loop"), &Inv);
  bool Ok = PE.verifyAll();
  return finishResult(std::move(Res), V, Ok,
                      Entry.sizeMetric() + Inv.sizeMetric() +
                          Post.sizeMetric(),
                      /*Hints=*/2 + 2 * N + (N ? N - 1 : 0));
}

CaseResult islaris::frontend::runBinSearchRv(unsigned N) {
  CaseResult Res;
  Res.Name = "bin.search";
  Res.Isa = "RV";

  namespace e = arch::rv64::enc;
  using namespace arch::rv64;
  Asm A;
  A.org(0x40000);
  A.label("bsearch");          // a0=key a1=base a2=n a3=cmp ra=ret
  A.put(e::mv(T0, RA));        // save the return address
  A.put(e::mv(T1, A0));        // key
  A.put(e::mv(T2, A1));        // base
  A.put(e::addi(A4, 0, 0));    // lo = 0
  A.put(e::mv(A5, A2));        // hi = n
  A.label("loop");
  A.beq(A4, A5, "done");
  A.put(e::add(16, A4, A5));
  A.put(e::srli(16, 16, 1));   // a6 = mid
  A.put(e::slli(17, 16, 3));
  A.put(e::add(17, T2, 17));
  A.put(e::ld(A1, 17, 0));     // a1 = base[mid]
  A.put(e::mv(A0, T1));        // a0 = key
  A.put(e::jalr(RA, 13, 0));   // call the comparator (a3)
  A.blt(0, A0, "gt");          // 0 <s result?
  A.put(e::mv(A5, 16));        // hi = mid
  A.jal(0, "loop");
  A.label("gt");
  A.put(e::addi(A4, 16, 1));   // lo = mid + 1
  A.jal(0, "loop");
  A.label("done");
  A.put(e::mv(A0, A4));
  A.put(e::jalr(0, T0, 0));

  Verifier V(rv64());
  V.addCode(A.finish());
  smt::TermBuilder &TB = V.builder();
  std::string Err;
  if (!V.generateTraces(Err))
    return genFailed(std::move(Res), V, Err);
  auto X = [](unsigned I) { return xreg(I); };

  Contract Cmp;
  Cmp.Name = "comparator";
  Cmp.RetReg = X(RA);
  Cmp.Clobbers = {X(A0), X(A1)};
  Cmp.Post = [](smt::TermBuilder &TB2, const auto &Pre, const auto &Post)
      -> std::vector<const Term *> {
    return {TB2.eqTerm(Post(xreg(A0)),
                       threeWay(TB2, Pre(xreg(A0)), Pre(xreg(A1))))};
  };

  const Term *Key = TB.freshVar(smt::Sort::bitvec(64), "key");
  const Term *F = TB.freshVar(smt::Sort::bitvec(64), "f");
  std::vector<const Term *> Elems;
  for (unsigned K = 0; K < N; ++K)
    Elems.push_back(
        TB.freshVar(smt::Sort::bitvec(64), "e" + std::to_string(K)));

  Spec Post = V.makeSpec("bsearch_rv_post");
  {
    const Term *Result = Post.evar(64, "result");
    Post.reg(X(A0), Result);
    addLowerBoundFacts(Post, TB, Result, Key, Elems);
  }
  for (unsigned RN : {A1, A2, 13u, A4, A5, 16u, 17u, T0, T1, T2, RA})
    Post.regAny(X(RN));
  Post.shareEvar(Key);
  for (const Term *E2 : Elems)
    Post.shareEvar(E2);

  auto buildCommon = [&](Spec &S) {
    S.shareEvar(Key);
    S.shareEvar(F);
    for (const Term *E2 : Elems)
      S.shareEvar(E2);
    addSortedFacts(S, TB, Elems);
    // jalr clears bit 0 of the target: the comparator address must be even
    // for the contract chunk to match.
    S.pure(TB.eqTerm(TB.bvAnd(F, TB.constBV(64, 1)), TB.constBV(64, 0)));
    S.contract(F, &Cmp);
  };

  Spec Entry = V.makeSpec("bsearch_rv_entry");
  const Term *Base = Entry.evar(64, "base");
  const Term *R = Entry.evar(64, "r");
  Entry.reg(X(A0), Key).reg(X(A1), Base);
  Entry.reg(X(A2), TB.constBV(64, N));
  Entry.reg(X(13), F);
  for (unsigned RN : {A4, A5, 16u, 17u, T0, T1, T2})
    Entry.regAny(X(RN));
  Entry.reg(X(RA), R);
  Entry.pure(TB.eqTerm(TB.bvAnd(R, TB.constBV(64, 1)), TB.constBV(64, 0)));
  Entry.array(Base, Elems, 8);
  buildCommon(Entry);
  Entry.instrPre(R, &Post);

  Spec Inv = V.makeSpec("bsearch_rv_inv");
  const Term *IBase = Inv.evar(64, "ibase");
  const Term *Lo = Inv.evar(64, "lo");
  const Term *Hi = Inv.evar(64, "hi");
  const Term *IR = Inv.evar(64, "ir");
  Inv.reg(X(A4), Lo).reg(X(A5), Hi);
  Inv.reg(X(T1), Key).reg(X(T0), IR).reg(X(T2), IBase);
  Inv.reg(X(13), F);
  for (unsigned RN : {A0, A1, A2, 16u, 17u, RA})
    Inv.regAny(X(RN));
  Inv.array(IBase, Elems, 8);
  buildCommon(Inv);
  Inv.pure(TB.bvUle(Lo, Hi));
  Inv.pure(TB.bvUle(Hi, TB.constBV(64, N)));
  Inv.pure(TB.eqTerm(TB.bvAnd(IR, TB.constBV(64, 1)), TB.constBV(64, 0)));
  for (unsigned K = 0; K < N; ++K) {
    const Term *KC = TB.constBV(64, K);
    Inv.pure(TB.impliesTerm(TB.bvUlt(KC, Lo),
                            TB.bvSlt(Elems[K], Key)));
    Inv.pure(TB.impliesTerm(TB.bvUle(Hi, KC),
                            TB.notTerm(TB.bvSlt(Elems[K], Key))));
  }
  Inv.instrPre(IR, &Post);

  auto &PE = V.engine();
  PE.registerSpec(A.addrOf("bsearch"), &Entry);
  PE.registerSpec(A.addrOf("loop"), &Inv);
  bool Ok = PE.verifyAll();
  return finishResult(std::move(Res), V, Ok,
                      Entry.sizeMetric() + Inv.sizeMetric() +
                          Post.sizeMetric(),
                      /*Hints=*/3 + 2 * N + (N ? N - 1 : 0));
}
