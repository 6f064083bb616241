//===- frontend/cs_pkvm.cpp - The pKVM-style exception handler -------------------===//
//
// A hypercall handler in the shape of pKVM's stub-vector handler (§6):
// dispatch on the exception class in ESR_EL2 and a hypercall id in x0;
// HVC_SOFT_RESTART (1) repoints the return state at EL2, and
// HVC_RESET_VECTORS (2) returns to the caller; both install a vector base
// that was patched into four move-wide instructions at load time — the
// immediates are *symbolic*, so the proof covers every relocation offset.
// Non-hypercall exceptions branch into the large C codebase, modeled as an
// assumed-correct continuation.  The eret concludes under a constraint
// admitting both possible SPSR values, exactly as the paper describes.
//
//===----------------------------------------------------------------------===//

#include "frontend/CaseStudies.h"

#include "arch/AArch64.h"
#include "frontend/CsCommon.h"

using namespace islaris;
using namespace islaris::frontend;
using islaris::itl::Reg;
using islaris::seplogic::Spec;
using smt::Term;

CaseResult islaris::frontend::runPkvm() {
  CaseResult Res;
  Res.Name = "pKVM";
  Res.Isa = "Arm";

  namespace e = arch::aarch64::enc;
  using arch::aarch64::Cond;
  using arch::aarch64::SysReg;
  arch::aarch64::Asm A;

  A.org(0x20400); // el2_sync vector entry (lower EL, AArch64)
  A.label("handler");
  A.put(e::mrs(3, SysReg::ESR_EL2));   // x3 = syndrome
  A.put(e::lsrImm(4, 3, 26));          // x4 = exception class
  A.put(e::cmpImm(4, 0x16));           // HVC from AArch64?
  A.bcond(Cond::NE, "to_host");
  A.put(e::cmpImm(0, 1));              // HVC_SOFT_RESTART?
  A.bcond(Cond::EQ, "soft");
  A.put(e::cmpImm(0, 2));              // HVC_RESET_VECTORS?
  A.bcond(Cond::EQ, "install");
  A.b("to_host");

  A.label("soft");                     // repoint the return state at EL2
  A.put(e::msr(SysReg::ELR_EL2, 1));   // return to the x1 parameter
  A.put(e::movz(2, 0x3c9));            // EL2h, interrupts masked
  A.put(e::msr(SysReg::SPSR_EL2, 2));

  A.label("install");
  // Four move-wide instructions whose immediates are patched at load time
  // with the relocated vector base (symbolic imm16 fields).
  uint64_t Reloc0 = A.here();
  A.put(e::movz(5, 0));
  uint64_t Reloc1 = A.here();
  A.put(e::movk(5, 0, 1));
  uint64_t Reloc2 = A.here();
  A.put(e::movk(5, 0, 2));
  uint64_t Reloc3 = A.here();
  A.put(e::movk(5, 0, 3));
  A.put(e::msr(SysReg::VBAR_EL2, 5));
  // Save/restore a bank of EL2 system state (the handler interacts with
  // many system registers).
  for (SysReg SR : {SysReg::TPIDR_EL2, SysReg::MAIR_EL2, SysReg::TCR_EL2,
                    SysReg::TTBR0_EL2, SysReg::MDCR_EL2, SysReg::CPTR_EL2,
                    SysReg::HSTR_EL2, SysReg::VTTBR_EL2, SysReg::VTCR_EL2,
                    SysReg::CNTHCTL_EL2, SysReg::CNTVOFF_EL2}) {
    A.put(e::mrs(6, SR));
    A.put(e::msr(SR, 6));
  }
  A.put(e::movz(0, 0));                // success
  uint64_t EretAddr = A.here();
  A.put(e::eret());

  A.label("to_host");
  A.put(e::br(7));                     // into the assumed-correct C code

  Verifier V(aarch64());
  V.addCode(A.finish());
  smt::TermBuilder &TB = V.builder();

  // The relocation patch: imm16 fields [20:5] symbolic in all four words.
  for (uint64_t Addr : {Reloc0, Reloc1, Reloc2, Reloc3})
    V.symbolicAt(Addr, 20, 5);

  V.defaults()
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b10))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  // The concluding eret: neither the original nor the updated SPSR value
  // alone covers both hypercalls, so constrain it to the two possibilities
  // (§6: "a more complex constraint, capturing both possible values").
  V.at(EretAddr)
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b10))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1))
      .assume(Reg("HCR_EL2"), BitVec(64, 0x80000000ull))
      .constrain(Reg("SPSR_EL2"), [](smt::TermBuilder &TB2,
                                     const Term *Spsr) {
        const Term *M = TB2.extract(3, 2, Spsr);
        return TB2.andTerm(
            TB2.eqTerm(TB2.extract(4, 4, Spsr), TB2.constBV(1, 0)),
            TB2.orTerm(TB2.eqTerm(M, TB2.constBV(2, 0b01)),
                       TB2.eqTerm(M, TB2.constBV(2, 0b10))));
      });

  std::string Err;
  if (!V.generateTraces(Err))
    return genFailed(std::move(Res), V, Err);

  // The patched vector base, reconstructed from the symbolic immediates.
  auto OpVar = [&](uint64_t Addr) { return V.opcodeVarsAt(Addr).at(0); };
  const Term *Vbar = TB.zeroExtend(48, OpVar(Reloc0));
  Vbar = TB.bvOr(Vbar, TB.bvShl(TB.zeroExtend(48, OpVar(Reloc1)),
                                TB.constBV(64, 16)));
  Vbar = TB.bvOr(Vbar, TB.bvShl(TB.zeroExtend(48, OpVar(Reloc2)),
                                TB.constBV(64, 32)));
  Vbar = TB.bvOr(Vbar, TB.bvShl(TB.zeroExtend(48, OpVar(Reloc3)),
                                TB.constBV(64, 48)));

  // Continuations.  SOFT_RESTART lands on the x1 parameter at EL2;
  // RESET_VECTORS returns to the caller at EL1.  Both must observe the
  // patched vector base and a zeroed x0.
  Spec SoftPost = V.makeSpec("pkvm_soft_post");
  {
    const Term *PV = SoftPost.param(64, "pv");
    SoftPost.reg(Reg("VBAR_EL2"), PV);
    SoftPost.reg(Reg("R0"), TB.constBV(64, 0));
    SoftPost.reg(Reg("PSTATE", "EL"), TB.constBV(2, 0b10));
  }
  Spec ResetPost = V.makeSpec("pkvm_reset_post");
  {
    const Term *PV = ResetPost.param(64, "pv");
    ResetPost.reg(Reg("VBAR_EL2"), PV);
    ResetPost.reg(Reg("R0"), TB.constBV(64, 0));
    ResetPost.reg(Reg("PSTATE", "EL"), TB.constBV(2, 0b01));
  }
  // The host handler (the pKVM C codebase) is assumed correct: a trivially
  // true continuation, as in the paper.
  Spec HostSpec = V.makeSpec("pkvm_host");

  Spec Entry = V.makeSpec("pkvm_entry");
  const Term *C = Entry.evar(64, "c");    // hypercall id
  const Term *X1 = Entry.evar(64, "x1");  // SOFT_RESTART target
  const Term *Esr = Entry.evar(64, "esr");
  const Term *Spsr0 = Entry.evar(64, "spsr0");
  const Term *Elr0 = Entry.evar(64, "elr0");
  const Term *Host = Entry.evar(64, "host");
  Entry.reg(Reg("R0"), C).reg(Reg("R1"), X1);
  for (unsigned RN : {2u, 3u, 4u, 5u, 6u})
    Entry.regAny(arch::aarch64::xreg(RN));
  Entry.reg(Reg("R7"), Host);
  Entry.reg(Reg("ESR_EL2"), Esr);
  Entry.reg(Reg("SPSR_EL2"), Spsr0);
  Entry.reg(Reg("ELR_EL2"), Elr0);
  Entry.reg(Reg("HCR_EL2"), TB.constBV(64, 0x80000000ull));
  Entry.regAny(Reg("VBAR_EL2"));
  for (const char *SR :
       {"TPIDR_EL2", "MAIR_EL2", "TCR_EL2", "TTBR0_EL2", "MDCR_EL2",
        "CPTR_EL2", "HSTR_EL2", "VTTBR_EL2", "VTCR_EL2", "CNTHCTL_EL2",
        "CNTVOFF_EL2"})
    Entry.regAny(Reg(SR));
  Entry.reg(Reg("PSTATE", "EL"), TB.constBV(2, 0b10));
  Entry.reg(Reg("PSTATE", "SP"), TB.constBV(1, 1));
  Entry.regCol(nzcvCol(Entry));
  Entry.regCol(daifCol(Entry));
  // The exception came from AArch64 EL1, and a hypercall id is 1 or 2
  // whenever the class is HVC.
  Entry.pure(TB.eqTerm(TB.extract(3, 2, Spsr0), TB.constBV(2, 0b01)));
  Entry.pure(TB.eqTerm(TB.extract(4, 4, Spsr0), TB.constBV(1, 0)));
  Entry.pure(TB.impliesTerm(
      TB.eqTerm(TB.bvLShr(Esr, TB.constBV(64, 26)), TB.constBV(64, 0x16)),
      TB.orTerm(TB.eqTerm(C, TB.constBV(64, 1)),
                TB.eqTerm(C, TB.constBV(64, 2)))));
  Entry.instrPre(X1, &SoftPost, {Vbar});
  Entry.instrPre(Elr0, &ResetPost, {Vbar});
  Entry.instrPre(Host, &HostSpec);

  auto &PE = V.engine();
  PE.registerSpec(A.addrOf("handler"), &Entry);
  bool Ok = PE.verifyAll();
  return finishResult(std::move(Res), V, Ok,
                      Entry.sizeMetric() + SoftPost.sizeMetric() +
                          ResetPost.sizeMetric(),
                      /*Hints=*/3);
}
