//===- frontend/cs_misc.cpp - unaligned / UART / rbit case studies ---------------===//
//
// Three of the §6 case studies:
//
//  - unaligned: a misaligned str under SCTLR_EL1.A=1 takes a data abort;
//    we verify it vectors to VBAR_EL1+0x200 with the right SPSR/ELR/ESR/
//    FAR updates and masked interrupts.
//  - UART: the compiled uart1_putc poll loop, verified against the srec
//    IO specification of §6.
//  - rbit: compiled C with inline assembly; x0 comes back bit-reversed.
//
//===----------------------------------------------------------------------===//

#include "frontend/CaseStudies.h"

#include "arch/AArch64.h"
#include "frontend/CsCommon.h"

using namespace islaris;
using namespace islaris::frontend;
using islaris::itl::Reg;
using islaris::seplogic::IoSpecNode;
using islaris::seplogic::IoSpecPtr;
using islaris::seplogic::Spec;
using smt::Term;

//===----------------------------------------------------------------------===//
// Unaligned access fault.
//===----------------------------------------------------------------------===//

CaseResult islaris::frontend::runUnaligned(const RunContext &Ctx) {
  CaseResult Res;
  Res.Name = "unaligned";
  Res.Isa = "Arm";

  namespace e = arch::aarch64::enc;
  arch::aarch64::Asm A;
  A.org(0x8000);
  uint64_t StrAddr = A.here();
  A.put(e::strImm(2, 0, 1, 0)); // str w0, [x1]

  Verifier V(aarch64(), Ctx);
  V.addCode(A.finish());
  smt::TermBuilder &TB = V.builder();

  // Configuration: EL1, SP_EL1 selected, alignment checking on
  // (SCTLR_EL1.A, constrained rather than fully concrete).
  V.defaults()
      .assume(Reg("PSTATE", "EL"), BitVec(2, 0b01))
      .assume(Reg("PSTATE", "SP"), BitVec(1, 1))
      .constrain(Reg("SCTLR_EL1"),
                 [](smt::TermBuilder &TB2, const Term *S) {
                   return TB2.eqTerm(TB2.extract(1, 1, S),
                                     TB2.constBV(1, 1));
                 });

  std::string Err;
  if (!V.generateTraces(Err))
    return genFailed(std::move(Res), V, Err);

  // Fault continuation: registers banked and syndrome recorded.
  Spec FaultPost = V.makeSpec("fault_post");
  const Term *PAddr = FaultPost.param(64, "paddr");
  FaultPost.reg(Reg("FAR_EL1"), PAddr);
  FaultPost.reg(Reg("ELR_EL1"), TB.constBV(64, StrAddr));
  // ESR: EC=0x25 (data abort, same EL), IL=1, DFSC=0x21 (alignment).
  FaultPost.reg(Reg("ESR_EL1"), TB.constBV(64, 0x96000021ull));
  FaultPost.reg(Reg("PSTATE", "EL"), TB.constBV(2, 0b01));
  FaultPost.reg(Reg("PSTATE", "SP"), TB.constBV(1, 1));
  for (const char *F : {"D", "A", "I", "F"})
    FaultPost.reg(Reg("PSTATE", F), TB.constBV(1, 1)); // masked
  FaultPost.regAny(Reg("SPSR_EL1"));

  Spec Entry = V.makeSpec("unaligned_entry");
  const Term *Addr = Entry.evar(64, "a");
  const Term *Vb = Entry.evar(64, "vb");
  Entry.regAny(Reg("R0"));
  Entry.reg(Reg("R1"), Addr);
  Entry.reg(Reg("VBAR_EL1"), Vb);
  Entry.reg(Reg("PSTATE", "EL"), TB.constBV(2, 0b01));
  Entry.reg(Reg("PSTATE", "SP"), TB.constBV(1, 1));
  Entry.regCol(nzcvCol(Entry));
  Entry.regCol(daifCol(Entry));
  const Term *Sctlr = Entry.evar(64, "sctlr");
  Entry.reg(Reg("SCTLR_EL1"), Sctlr);
  Entry.pure(TB.eqTerm(TB.extract(1, 1, Sctlr), TB.constBV(1, 1)));
  for (const char *SR : {"SPSR_EL1", "ELR_EL1", "ESR_EL1", "FAR_EL1"})
    Entry.regAny(Reg(SR));
  // The address is misaligned for a 32-bit access (the fault hypothesis).
  Entry.pure(TB.distinctTerm(TB.bvAnd(Addr, TB.constBV(64, 3)),
                             TB.constBV(64, 0)));
  // The handler lives at VBAR_EL1 + 0x200 (current EL, SPx).
  Entry.instrPre(TB.bvAdd(Vb, TB.constBV(64, 0x200)), &FaultPost, {Addr});

  auto &PE = V.engine();
  PE.registerSpec(StrAddr, &Entry);
  bool Ok = PE.verifyAll();
  return finishResult(std::move(Res), V, Ok,
                      Entry.sizeMetric() + FaultPost.sizeMetric(),
                      /*Hints=*/2);
}

//===----------------------------------------------------------------------===//
// UART putc over MMIO.
//===----------------------------------------------------------------------===//

namespace {
constexpr uint64_t UartLsr = 0x3f215054;
constexpr uint64_t UartIo = 0x3f215040;
} // namespace

CaseResult islaris::frontend::runUart(const RunContext &Ctx) {
  CaseResult Res;
  Res.Name = "UART";
  Res.Isa = "Arm";

  namespace e = arch::aarch64::enc;
  arch::aarch64::Asm A;
  A.org(0x9000);
  A.label("putc");
  A.put(e::movz(1, UartLsr & 0xffff));            // build LSR address
  A.put(e::movk(1, uint16_t(UartLsr >> 16), 1));
  A.label("poll");
  A.put(e::ldrImm(2, 2, 1, 0));                   // ldr w2, [x1]
  A.tbz(2, 5, "poll");                            // loop until TX empty
  A.put(e::nop());                                // the asm volatile nop
  A.put(e::movz(3, UartIo & 0xffff));             // build IO address
  A.put(e::movk(3, uint16_t(UartIo >> 16), 1));
  A.put(e::strImm(2, 0, 3, 0));                   // str w0, [x3]
  A.put(e::ret());

  Verifier V(aarch64(), Ctx);
  V.addCode(A.finish());
  smt::TermBuilder &TB = V.builder();
  V.defaults() = armEl1Assumptions();

  std::string Err;
  if (!V.generateTraces(Err))
    return genFailed(std::move(Res), V, Err);

  // The character value, shared by both registered specs and by the IO
  // specification's write predicate.
  const Term *C = TB.freshVar(smt::Sort::bitvec(64), "c");

  // spec(s) = srec(R. exists b. scons(R(LSR,b),
  //                  b[5] ? scons(W(IO, c[31:0]), done) : R))    (§6)
  IoSpecPtr Done = IoSpecNode::done();
  IoSpecPtr S = IoSpecNode::rec([&, C, Done](IoSpecPtr Self) {
    return IoSpecNode::readStep(
        UartLsr, 4, [C, Self, Done](const Term *B, smt::TermBuilder &TB2) {
          return IoSpecNode::branch(
              TB2.eqTerm(TB2.extract(5, 5, B), TB2.constBV(1, 1)),
              IoSpecNode::writeStep(
                  UartIo, 4,
                  [C](const Term *V2, smt::TermBuilder &TB3) {
                    return TB3.eqTerm(V2, TB3.extract(31, 0, C));
                  },
                  Done),
              Self);
        });
  });

  Spec Post = V.makeSpec("uart_post");
  Post.io(Done);
  Post.regAny(Reg("R0")).regAny(Reg("R1")).regAny(Reg("R2"));
  Post.regAny(Reg("R3")).regAny(Reg("R30"));

  auto commonChunks = [&](Spec &Sp) {
    addArmEl1SysRegs(Sp, TB);
    Sp.mmio(UartLsr, 4).mmio(UartIo, 4);
    Sp.io(S);
  };

  Spec Entry = V.makeSpec("uart_entry");
  Entry.shareEvar(C);
  const Term *R = Entry.evar(64, "r");
  Entry.reg(Reg("R0"), C).regAny(Reg("R1")).regAny(Reg("R2"));
  Entry.regAny(Reg("R3")).reg(Reg("R30"), R);
  commonChunks(Entry);
  Entry.instrPre(R, &Post);

  // Loop invariant at the poll label: the LSR address is installed and the
  // IO spec is still at its initial state.
  Spec Inv = V.makeSpec("uart_inv");
  Inv.shareEvar(C);
  const Term *IR = Inv.evar(64, "ir");
  Inv.reg(Reg("R0"), C);
  Inv.reg(Reg("R1"), TB.constBV(64, UartLsr));
  Inv.regAny(Reg("R2")).regAny(Reg("R3"));
  Inv.reg(Reg("R30"), IR);
  commonChunks(Inv);
  Inv.instrPre(IR, &Post);

  auto &PE = V.engine();
  PE.registerSpec(A.addrOf("putc"), &Entry);
  PE.registerSpec(A.addrOf("poll"), &Inv);
  bool Ok = PE.verifyAll();
  return finishResult(std::move(Res), V, Ok,
                      Entry.sizeMetric() + Inv.sizeMetric() +
                          Post.sizeMetric(),
                      /*Hints=*/unsigned(Inv.sizeMetric()));
}

//===----------------------------------------------------------------------===//
// rbit (C inline assembly).
//===----------------------------------------------------------------------===//

CaseResult islaris::frontend::runRbit(const RunContext &Ctx) {
  CaseResult Res;
  Res.Name = "rbit";
  Res.Isa = "Arm";

  namespace e = arch::aarch64::enc;
  arch::aarch64::Asm A;
  A.org(0xb000);
  uint64_t EntryAddr = A.here();
  A.put(e::rbit64(0, 0)); // rbit x0, x0
  A.put(e::ret());

  Verifier V(aarch64(), Ctx);
  V.addCode(A.finish());
  smt::TermBuilder &TB = V.builder();
  std::string Err;
  if (!V.generateTraces(Err))
    return genFailed(std::move(Res), V, Err);

  // Post: x0 holds the bit reversal of the argument.  The "intuitive
  // specification" is built independently of the trace's concat-of-extracts
  // term, as a shift-and-mask formula: result |= ((x >> i) & 1) << (63-i).
  // Relating the two shapes is the side condition the paper mentions
  // needing manual proof; here the bitvector solver discharges it.
  Spec Post = V.makeSpec("rbit_post");
  const Term *PX = Post.param(64, "px");
  const Term *One = TB.constBV(64, 1);
  const Term *Rev = TB.constBV(64, 0);
  for (unsigned I = 0; I < 64; ++I)
    Rev = TB.bvOr(
        Rev, TB.bvShl(TB.bvAnd(TB.bvLShr(PX, TB.constBV(64, I)), One),
                      TB.constBV(64, 63 - I)));
  Post.reg(Reg("R0"), Rev);
  Post.regAny(Reg("R30"));

  Spec Entry = V.makeSpec("rbit_entry");
  const Term *X = Entry.evar(64, "x");
  const Term *R = Entry.evar(64, "r");
  Entry.reg(Reg("R0"), X).reg(Reg("R30"), R);
  Entry.instrPre(R, &Post, {X});

  auto &PE = V.engine();
  PE.registerSpec(EntryAddr, &Entry);
  bool Ok = PE.verifyAll();
  return finishResult(std::move(Res), V, Ok,
                      Entry.sizeMetric() + Post.sizeMetric(), /*Hints=*/0);
}
