//===- frontend/cs_hvc.cpp - The Fig. 9 exception-vector case study -------------===//
//
// The hand-written Armv8-A program of Fig. 9: at EL2, install an exception
// vector table and configure HCR/SPSR/ELR; eret to EL1; perform a
// hypervisor call which the EL2 vector handles by setting x0 = 42 before
// returning.  The verified property is the paper's: upon reaching the
// "hang forever" loop (line 16), x0 contains 42.
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

CaseResult islaris::frontend::runHvc() {
  CaseResult Res;
  Res.Name = "hvc";
  Res.Isa = "Arm";

  namespace e = arch::aarch64::enc;
  using arch::aarch64::SysReg;
  arch::aarch64::Asm A;

  // *** initialisation at EL2 (Fig. 9 lines 2-11) ***
  A.org(0x80000);
  A.label("_start");
  A.put(e::movz(0, 0xa, 1));               // mov x0, 0xa0000
  A.put(e::msr(SysReg::VBAR_EL2, 0));      // install exception vector
  A.put(e::movz(0, 0x8000, 1));            // mov x0, 0x80000000
  A.put(e::msr(SysReg::HCR_EL2, 0));       // aarch64 at EL1 (RW bit)
  A.put(e::movz(0, 0x3c4, 0));             // mov x0, 0x3c4
  A.put(e::msr(SysReg::SPSR_EL2, 0));      // EL1 config (SP_EL0, masked)
  A.put(e::movz(0, 0x9, 1));               // mov x0, 0x90000
  A.put(e::msr(SysReg::ELR_EL2, 0));       // EL1 start address
  uint64_t EretAddr = A.here();
  A.put(e::eret());                        // "exception return" to EL1

  // *** calling the vector from EL1 (lines 13-16) ***
  A.org(0x90000);
  A.label("enter_el1");
  A.put(e::movz(0, 0));                    // zero out x0
  uint64_t HvcAddr = A.here();
  A.put(e::hvc(0));                        // hypervisor call
  A.label("hang");
  A.b("hang");                             // hang forever

  // *** the exception vector: lower-EL AArch64 synchronous entry ***
  A.org(0xa0400);
  A.label("el2_sync");
  A.put(e::movz(0, 42));                   // put 42 in x0
  uint64_t VecEretAddr = A.here();
  A.put(e::eret());                        // return from exception

  Verifier V(aarch64());
  V.addCode(A.finish());
  smt::TermBuilder &TB = V.builder();

  // Default constraints: the init code runs at EL2 with SP_EL2 selected.
  V.defaults()
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b10))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  // The first eret additionally needs the installed SPSR/HCR values
  // (Fig. 1's instruction-specific constraints; §2.8).
  V.at(EretAddr)
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b10))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1))
      .assume(Reg("SPSR_EL2"), BitVec(64, 0x3c4))
      .assume(Reg("HCR_EL2"), BitVec(64, 0x80000000ull));
  // EL1 code (lines 13-16): EL=1, SP_EL0 selected (SPSR.M = EL1t).
  V.at(0x90000)
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b01))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 0));
  V.at(HvcAddr)
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b01))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 0));
  V.at(A.addrOf("hang")); // no constraints needed for b .
  // Vector code runs at EL2 again; its eret returns to EL1 (the SPSR was
  // banked by the hvc, so constrain its shape rather than its value).
  V.at(0xa0400)
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b10))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  V.at(VecEretAddr)
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b10))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1))
      .assume(Reg("HCR_EL2"), BitVec(64, 0x80000000ull))
      .constrain(Reg("SPSR_EL2"),
                 [](smt::TermBuilder &TB2, const Term *Spsr) {
                   return TB2.andTerm(
                       TB2.eqTerm(TB2.extract(4, 4, Spsr),
                                  TB2.constBV(1, 0)),
                       TB2.eqTerm(TB2.extract(3, 2, Spsr),
                                  TB2.constBV(2, 0b01)));
                 });

  std::string Err;
  if (!V.generateTraces(Err))
    return genFailed(std::move(Res), V, Err);

  // Goal (registered at the hang loop): x0 == 42.  Verifying the goal spec
  // itself is the self-invariant proof for "b ." (it preserves x0).
  Spec Goal = V.makeSpec("hvc_goal");
  Goal.reg(Reg("R0"), TB.constBV(64, 42));
  Goal.reg(Reg("PSTATE", "EL"), TB.constBV(2, 0b01));
  Goal.reg(Reg("PSTATE", "SP"), TB.constBV(1, 0));

  // Entry spec: ownership of everything the program touches; no
  // constraints on the initial system-register values.
  Spec Entry = V.makeSpec("hvc_entry");
  Entry.regAny(Reg("R0"));
  Entry.reg(Reg("PSTATE", "EL"), TB.constBV(2, 0b10));
  Entry.reg(Reg("PSTATE", "SP"), TB.constBV(1, 1));
  Entry.regCol(nzcvCol(Entry));
  Entry.regCol(daifCol(Entry));
  for (const char *SR : {"VBAR_EL2", "HCR_EL2", "SPSR_EL2", "ELR_EL2",
                         "ESR_EL2"})
    Entry.regAny(Reg(SR));

  auto &PE = V.engine();
  PE.registerSpec(A.addrOf("_start"), &Entry);
  PE.registerSpec(A.addrOf("hang"), &Goal);
  bool Ok = PE.verifyAll();
  return finishResult(std::move(Res), V, Ok,
                      Entry.sizeMetric() + Goal.sizeMetric(), /*Hints=*/2);
}
