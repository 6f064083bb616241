//===- arch/AArch64.h - AArch64 encoders and ABI info -----------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AArch64 instruction encoders (matching the model's decoder), system
/// register identifiers, and AAPCS64 helpers used to formalize the calling
/// convention in specifications (§6, binary search).
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_ARCH_AARCH64_H
#define ISLARIS_ARCH_AARCH64_H

#include "arch/Assembler.h"
#include "itl/Trace.h"

#include <cstdint>

namespace islaris::arch::aarch64 {

/// The X register file name used by the model (x31 = SP/XZR by context).
inline itl::Reg xreg(unsigned N) {
  assert(N <= 30 && "x31 is not a named register");
  return itl::Reg("R" + std::to_string(N));
}
inline itl::Reg pc() { return itl::Reg("_PC"); }

/// Width of a model register (for Spec::regAny hints).
unsigned regWidth(const itl::Reg &R);

/// System registers addressable by MSR/MRS (op0:op1:CRn:CRm:op2 packed).
enum class SysReg : uint16_t {
  VBAR_EL1 = 0xc600,
  VBAR_EL2 = 0xe600,
  HCR_EL2 = 0xe088,
  SPSR_EL1 = 0xc200,
  SPSR_EL2 = 0xe200,
  ELR_EL1 = 0xc201,
  ELR_EL2 = 0xe201,
  SCTLR_EL1 = 0xc080,
  SCTLR_EL2 = 0xe080,
  ESR_EL1 = 0xc290,
  ESR_EL2 = 0xe290,
  FAR_EL1 = 0xc300,
  FAR_EL2 = 0xe300,
  TPIDR_EL2 = 0xe682,
  MAIR_EL2 = 0xe510,
  TCR_EL2 = 0xe102,
  TTBR0_EL2 = 0xe100,
  MDCR_EL2 = 0xe089,
  CPTR_EL2 = 0xe08a,
  HSTR_EL2 = 0xe08b,
  VTTBR_EL2 = 0xe108,
  VTCR_EL2 = 0xe10a,
  CNTHCTL_EL2 = 0xe708,
  CNTVOFF_EL2 = 0xe703,
  CurrentEL = 0xc212,
};

/// Condition codes for B.cond.
enum class Cond : uint8_t {
  EQ = 0x0,
  NE = 0x1,
  CS = 0x2,
  CC = 0x3,
  MI = 0x4,
  PL = 0x5,
  VS = 0x6,
  VC = 0x7,
  HI = 0x8,
  LS = 0x9,
  GE = 0xa,
  LT = 0xb,
  GT = 0xc,
  LE = 0xd,
  AL = 0xe,
};

//===----------------------------------------------------------------------===//
// Encoders.  Register number 31 means SP or XZR depending on the
// instruction, exactly as in the architecture.
//===----------------------------------------------------------------------===//

namespace enc {
uint32_t movz(unsigned Rd, uint16_t Imm16, unsigned Hw = 0);
uint32_t movn(unsigned Rd, uint16_t Imm16, unsigned Hw = 0);
uint32_t movk(unsigned Rd, uint16_t Imm16, unsigned Hw = 0);
uint32_t addImm(unsigned Rd, unsigned Rn, uint16_t Imm12, bool Shift12 = false);
uint32_t subImm(unsigned Rd, unsigned Rn, uint16_t Imm12, bool Shift12 = false);
uint32_t subsImm(unsigned Rd, unsigned Rn, uint16_t Imm12);
inline uint32_t cmpImm(unsigned Rn, uint16_t Imm12) {
  return subsImm(31, Rn, Imm12);
}
uint32_t addReg(unsigned Rd, unsigned Rn, unsigned Rm);
uint32_t subReg(unsigned Rd, unsigned Rn, unsigned Rm);
uint32_t addsReg(unsigned Rd, unsigned Rn, unsigned Rm);
uint32_t subsReg(unsigned Rd, unsigned Rn, unsigned Rm);
inline uint32_t cmpReg(unsigned Rn, unsigned Rm) {
  return subsReg(31, Rn, Rm);
}
uint32_t andReg(unsigned Rd, unsigned Rn, unsigned Rm);
uint32_t orrReg(unsigned Rd, unsigned Rn, unsigned Rm);
uint32_t eorReg(unsigned Rd, unsigned Rn, unsigned Rm);
uint32_t andsReg(unsigned Rd, unsigned Rn, unsigned Rm);
/// mov xd, xm == orr xd, xzr, xm.
inline uint32_t movReg(unsigned Rd, unsigned Rm) { return orrReg(Rd, 31, Rm); }
uint32_t lslImm(unsigned Rd, unsigned Rn, unsigned Shift);
uint32_t lsrImm(unsigned Rd, unsigned Rn, unsigned Shift);
uint32_t asrImm(unsigned Rd, unsigned Rn, unsigned Shift);
uint32_t rbit64(unsigned Rd, unsigned Rn);
uint32_t rbit32(unsigned Rd, unsigned Rn);
uint32_t rev64(unsigned Rd, unsigned Rn);
uint32_t rev32(unsigned Rd, unsigned Rn);
uint32_t udiv(unsigned Rd, unsigned Rn, unsigned Rm);
uint32_t sdiv(unsigned Rd, unsigned Rn, unsigned Rm);
uint32_t csel(unsigned Rd, unsigned Rn, unsigned Rm, Cond C);
uint32_t csinc(unsigned Rd, unsigned Rn, unsigned Rm, Cond C);
uint32_t csinv(unsigned Rd, unsigned Rn, unsigned Rm, Cond C);
uint32_t csneg(unsigned Rd, unsigned Rn, unsigned Rm, Cond C);
/// cset xd, cond == csinc xd, xzr, xzr, !cond.
uint32_t cset(unsigned Rd, Cond C);
uint32_t adr(unsigned Rd, int64_t ByteOff);
uint32_t adrp(unsigned Rd, int64_t PageOff);
// Loads/stores; Size: 0=B,1=H,2=W,3=X.  Immediates are scaled by size.
uint32_t ldrImm(unsigned Size, unsigned Rt, unsigned Rn, uint16_t ImmScaled);
uint32_t strImm(unsigned Size, unsigned Rt, unsigned Rn, uint16_t ImmScaled);
uint32_t ldrReg(unsigned Size, unsigned Rt, unsigned Rn, unsigned Rm,
                bool ScaleOffset = false);
uint32_t strReg(unsigned Size, unsigned Rt, unsigned Rn, unsigned Rm,
                bool ScaleOffset = false);
uint32_t cbz(unsigned Rt, int64_t ByteOff);
uint32_t cbnz(unsigned Rt, int64_t ByteOff);
uint32_t tbz(unsigned Rt, unsigned Bit, int64_t ByteOff);
uint32_t tbnz(unsigned Rt, unsigned Bit, int64_t ByteOff);
uint32_t bcond(Cond C, int64_t ByteOff);
uint32_t b(int64_t ByteOff);
uint32_t bl(int64_t ByteOff);
uint32_t br(unsigned Rn);
uint32_t blr(unsigned Rn);
uint32_t ret(unsigned Rn = 30);
uint32_t eret();
uint32_t hvc(uint16_t Imm16);
uint32_t nop();
uint32_t msr(SysReg R, unsigned Rt);
uint32_t mrs(unsigned Rt, SysReg R);
} // namespace enc

/// An Assembler with AArch64 branch conveniences.
class Asm : public Assembler {
public:
  void cbz(unsigned Rt, const std::string &L) {
    putRel(L, [Rt](int64_t Off) { return enc::cbz(Rt, Off); });
  }
  void cbnz(unsigned Rt, const std::string &L) {
    putRel(L, [Rt](int64_t Off) { return enc::cbnz(Rt, Off); });
  }
  void tbz(unsigned Rt, unsigned Bit, const std::string &L) {
    putRel(L, [=](int64_t Off) { return enc::tbz(Rt, Bit, Off); });
  }
  void tbnz(unsigned Rt, unsigned Bit, const std::string &L) {
    putRel(L, [=](int64_t Off) { return enc::tbnz(Rt, Bit, Off); });
  }
  void bcond(Cond C, const std::string &L) {
    putRel(L, [C](int64_t Off) { return enc::bcond(C, Off); });
  }
  void b(const std::string &L) {
    putRel(L, [](int64_t Off) { return enc::b(Off); });
  }
  void bl(const std::string &L) {
    putRel(L, [](int64_t Off) { return enc::bl(Off); });
  }
};

} // namespace islaris::arch::aarch64

#endif // ISLARIS_ARCH_AARCH64_H
