//===- frontend/cs_memcpy.cpp - The Fig. 7/8 memcpy case studies ----------------===//
//
// Verifies the machine code of the naive C memcpy of Fig. 7 against the
// Fig. 8 specification: after the call, the destination holds the source
// bytes.  The source and destination addresses and all byte contents are
// symbolic; the length is a concrete parameter (the bounded-array
// substitution documented in DESIGN.md).  The loop is handled by a
// registered invariant at .L3 exactly as in §2.5: the first m bytes have
// been copied, the rest of the destination is unchanged.
//
//===----------------------------------------------------------------------===//

#include "frontend/CaseStudies.h"

#include "arch/AArch64.h"
#include "arch/RiscV.h"
#include "frontend/CsCommon.h"
#include "frontend/Verifier.h"

using namespace islaris;
using namespace islaris::frontend;
using islaris::itl::Reg;
using islaris::seplogic::Spec;
using smt::Term;

CaseResult islaris::frontend::runMemcpyArm(unsigned N,
                                            bool SimplifiedTraces,
                                            const RunContext &Ctx) {
  CaseResult Res;
  Res.Name = "memcpy";
  Res.Isa = "Arm";

  // Fig. 7, second column (GCC 11.2 -O2 shape).
  namespace e = arch::aarch64::enc;
  arch::aarch64::Asm A;
  A.org(0x400000);
  A.label("memcpy");
  A.cbz(2, "L1");            // cbz x2, .L1
  A.put(e::movz(3, 0));      // mov x3, #0
  A.label("L3");
  A.put(e::ldrReg(0, 4, 1, 3)); // ldrb w4, [x1, x3]
  A.put(e::strReg(0, 4, 0, 3)); // strb w4, [x0, x3]
  A.put(e::addImm(3, 3, 1));    // add x3, x3, #1
  A.put(e::cmpReg(2, 3));       // cmp x2, x3
  A.bcond(arch::aarch64::Cond::NE, "L3"); // bne .L3
  A.label("L1");
  A.put(e::ret());              // ret

  Verifier V(aarch64(), Ctx);
  V.addCode(A.finish());
  if (!SimplifiedTraces) {
    // The E5 ablation: hand the proof engine Isla's unsimplified output.
    V.options().CacheRegReads = false;
    V.options().SinksOnly = false;
  }
  std::string Err;
  if (!V.generateTraces(Err))
    return genFailed(std::move(Res), V, Err);
  smt::TermBuilder &TB = V.builder();

  // Post (the Q of Fig. 8 lines 5-8), parameterized over the binders of
  // whichever spec references it.
  Spec Post = V.makeSpec("memcpy_post");
  const Term *PD = Post.param(64, "pd");
  const Term *PS = Post.param(64, "ps");
  std::vector<const Term *> PBs;
  for (unsigned K = 0; K < N; ++K)
    PBs.push_back(Post.param(8, "pb" + std::to_string(K)));
  Post.array(PS, PBs, 1).array(PD, PBs, 1);
  Post.regAny(Reg("R0")).regAny(Reg("R1")).regAny(Reg("R2"));
  Post.regAny(Reg("R3")).regAny(Reg("R4")).regAny(Reg("R30"));

  // Entry spec (Fig. 8 lines 1-5).
  Spec Entry = V.makeSpec("memcpy_spec");
  const Term *D = Entry.evar(64, "d");
  const Term *S = Entry.evar(64, "s");
  const Term *R = Entry.evar(64, "r");
  std::vector<const Term *> Bs, Bd;
  for (unsigned K = 0; K < N; ++K) {
    Bs.push_back(Entry.evar(8, "bs" + std::to_string(K)));
    Bd.push_back(Entry.evar(8, "bd" + std::to_string(K)));
  }
  Entry.reg(Reg("R0"), D).reg(Reg("R1"), S);
  Entry.reg(Reg("R2"), TB.constBV(64, N));
  Entry.regAny(Reg("R3")).regAny(Reg("R4"));
  Entry.reg(Reg("R30"), R);
  Entry.regCol(nzcvCol(Entry));
  Entry.array(S, Bs, 1).array(D, Bd, 1);
  std::vector<const Term *> PostArgs = {D, S};
  PostArgs.insert(PostArgs.end(), Bs.begin(), Bs.end());
  Entry.instrPre(R, &Post, PostArgs);

  // Loop invariant at .L3 (§2.5): the first m bytes have been copied.
  Spec Inv = V.makeSpec("memcpy_inv");
  const Term *ID = Inv.evar(64, "id");
  const Term *IS = Inv.evar(64, "is");
  const Term *IM = Inv.evar(64, "im");
  const Term *IR = Inv.evar(64, "ir");
  std::vector<const Term *> IBs, IBd;
  for (unsigned K = 0; K < N; ++K) {
    IBs.push_back(Inv.evar(8, "ibs" + std::to_string(K)));
    IBd.push_back(Inv.evar(8, "ibd" + std::to_string(K)));
  }
  Inv.reg(Reg("R0"), ID).reg(Reg("R1"), IS);
  Inv.reg(Reg("R2"), TB.constBV(64, N));
  Inv.reg(Reg("R3"), IM);
  Inv.regAny(Reg("R4"));
  Inv.reg(Reg("R30"), IR);
  Inv.regCol(nzcvCol(Inv));
  Inv.array(IS, IBs, 1);
  std::vector<const Term *> MixElems;
  for (unsigned K = 0; K < N; ++K)
    MixElems.push_back(TB.iteTerm(TB.bvUlt(TB.constBV(64, K), IM),
                                  IBs[K], IBd[K]));
  Inv.array(ID, MixElems, 1);
  Inv.pure(TB.bvUlt(IM, TB.constBV(64, N))); // hint: m < n
  std::vector<const Term *> IArgs = {ID, IS};
  IArgs.insert(IArgs.end(), IBs.begin(), IBs.end());
  Inv.instrPre(IR, &Post, IArgs);

  auto &PE = V.engine();
  PE.registerSpec(A.addrOf("memcpy"), &Entry);
  if (N > 0)
    PE.registerSpec(A.addrOf("L3"), &Inv);
  bool Ok = PE.verifyAll();
  return finishResult(std::move(Res), V, Ok,
                      Entry.sizeMetric() + Inv.sizeMetric() +
                          Post.sizeMetric(),
                      /*Hints=*/1 + unsigned(N > 0 ? Inv.sizeMetric() : 0));
}

CaseResult islaris::frontend::runMemcpyRv(unsigned N,
                                           const RunContext &Ctx) {
  CaseResult Res;
  Res.Name = "memcpy";
  Res.Isa = "RV";

  // Fig. 7, third column (Clang 13 -O2 shape; pointer-bumping loop).
  namespace e = arch::rv64::enc;
  using namespace arch::rv64;
  Asm A;
  A.org(0x400000);
  A.label("memcpy");
  A.beqz(A2, "L2");            // beqz a2, .L2
  A.label("L1");
  A.put(e::lb(A3, A1, 0));     // lb a3, 0(a1)
  A.put(e::sb(A3, A0, 0));     // sb a3, 0(a0)
  A.put(e::addi(A2, A2, -1));  // addi a2, a2, -1
  A.put(e::addi(A0, A0, 1));   // addi a0, a0, 1
  A.put(e::addi(A1, A1, 1));   // addi a1, a1, 1
  A.bnez(A2, "L1");            // bnez a2, .L1
  A.label("L2");
  A.put(e::ret());             // ret

  Verifier V(rv64(), Ctx);
  V.addCode(A.finish());
  std::string Err;
  if (!V.generateTraces(Err))
    return genFailed(std::move(Res), V, Err);
  smt::TermBuilder &TB = V.builder();
  auto X = [](unsigned I) { return xreg(I); };

  Spec Post = V.makeSpec("memcpy_rv_post");
  const Term *PD = Post.param(64, "pd");
  const Term *PS = Post.param(64, "ps");
  std::vector<const Term *> PBs;
  for (unsigned K = 0; K < N; ++K)
    PBs.push_back(Post.param(8, "pb" + std::to_string(K)));
  Post.array(PS, PBs, 1).array(PD, PBs, 1);
  for (unsigned RN : {A0, A1, A2, A3, RA})
    Post.regAny(X(RN));

  Spec Entry = V.makeSpec("memcpy_rv_spec");
  const Term *D = Entry.evar(64, "d");
  const Term *S = Entry.evar(64, "s");
  const Term *R = Entry.evar(64, "r");
  std::vector<const Term *> Bs, Bd;
  for (unsigned K = 0; K < N; ++K) {
    Bs.push_back(Entry.evar(8, "bs" + std::to_string(K)));
    Bd.push_back(Entry.evar(8, "bd" + std::to_string(K)));
  }
  Entry.reg(X(A0), D).reg(X(A1), S).reg(X(A2), TB.constBV(64, N));
  Entry.regAny(X(A3)).reg(X(RA), R);
  // The return address must be even: jalr clears bit 0 (the alignment
  // side condition the paper notes for the RISC-V specs, §2.7).
  Entry.pure(TB.eqTerm(TB.bvAnd(R, TB.constBV(64, 1)), TB.constBV(64, 0)));
  Entry.array(S, Bs, 1).array(D, Bd, 1);
  std::vector<const Term *> PostArgs = {D, S};
  PostArgs.insert(PostArgs.end(), Bs.begin(), Bs.end());
  Entry.instrPre(R, &Post, PostArgs);

  // Loop invariant at .L1.  The RISC-V code bumps all three pointers, so
  // the invariant binds the *current* pointer values (P0, P1) and the
  // remaining count (C2) through plain register chunks — Lithium-style
  // unification binds existentials only at bare-variable patterns — and
  // reconstructs the original bases as P - j where j = N - C2 bytes have
  // been copied.
  Spec Inv = V.makeSpec("memcpy_rv_inv");
  const Term *P0 = Inv.evar(64, "p0");
  const Term *P1 = Inv.evar(64, "p1");
  const Term *C2 = Inv.evar(64, "c2");
  const Term *IR = Inv.evar(64, "ir");
  std::vector<const Term *> IBs, IBd;
  for (unsigned K = 0; K < N; ++K) {
    IBs.push_back(Inv.evar(8, "ibs" + std::to_string(K)));
    IBd.push_back(Inv.evar(8, "ibd" + std::to_string(K)));
  }
  Inv.reg(X(A0), P0).reg(X(A1), P1).reg(X(A2), C2);
  Inv.regAny(X(A3)).reg(X(RA), IR);
  const Term *J = TB.bvSub(TB.constBV(64, N), C2);
  const Term *BaseS = TB.bvSub(P1, J);
  const Term *BaseD = TB.bvSub(P0, J);
  Inv.array(BaseS, IBs, 1);
  std::vector<const Term *> MixElems;
  for (unsigned K = 0; K < N; ++K)
    MixElems.push_back(
        TB.iteTerm(TB.bvUlt(TB.constBV(64, K), J), IBs[K], IBd[K]));
  Inv.array(BaseD, MixElems, 1);
  // Hint: 1 <= remaining <= N (the loop head is only reached with work
  // left to do), and the return address is even.
  Inv.pure(TB.bvUlt(TB.bvSub(C2, TB.constBV(64, 1)), TB.constBV(64, N)));
  Inv.pure(TB.eqTerm(TB.bvAnd(IR, TB.constBV(64, 1)), TB.constBV(64, 0)));
  std::vector<const Term *> IArgs = {BaseD, BaseS};
  IArgs.insert(IArgs.end(), IBs.begin(), IBs.end());
  Inv.instrPre(IR, &Post, IArgs);

  auto &PE = V.engine();
  PE.registerSpec(A.addrOf("memcpy"), &Entry);
  if (N > 0)
    PE.registerSpec(A.addrOf("L1"), &Inv);
  bool Ok = PE.verifyAll();
  return finishResult(std::move(Res), V, Ok,
                      Entry.sizeMetric() + Inv.sizeMetric() +
                          Post.sizeMetric(),
                      1 + unsigned(N > 0 ? Inv.sizeMetric() : 0));
}
