//===- arch/AArch64.cpp - AArch64 encoders --------------------------------------===//

#include "arch/AArch64.h"

using namespace islaris;
using namespace islaris::arch::aarch64;

unsigned islaris::arch::aarch64::regWidth(const itl::Reg &R) {
  if (R.Base == "PSTATE")
    return R.Field == "EL" ? 2 : 1;
  return 64;
}

namespace {
uint32_t field(uint32_t V, unsigned Hi, unsigned Lo) {
  assert(Hi >= Lo && Hi < 32 && "bad field bounds");
  [[maybe_unused]] uint32_t Width = Hi - Lo + 1;
  assert((Width == 32 || V < (1u << Width)) && "field value overflow");
  return V << Lo;
}
uint32_t imm19(int64_t ByteOff) {
  assert(ByteOff % 4 == 0 && "misaligned branch offset");
  int64_t Words = ByteOff / 4;
  assert(Words >= -(1 << 18) && Words < (1 << 18) && "branch out of range");
  return uint32_t(Words) & 0x7ffff;
}
uint32_t imm14(int64_t ByteOff) {
  assert(ByteOff % 4 == 0 && "misaligned branch offset");
  int64_t Words = ByteOff / 4;
  assert(Words >= -(1 << 13) && Words < (1 << 13) && "branch out of range");
  return uint32_t(Words) & 0x3fff;
}
uint32_t imm26(int64_t ByteOff) {
  assert(ByteOff % 4 == 0 && "misaligned branch offset");
  int64_t Words = ByteOff / 4;
  assert(Words >= -(1 << 25) && Words < (1 << 25) && "branch out of range");
  return uint32_t(Words) & 0x3ffffff;
}
} // namespace

namespace islaris::arch::aarch64::enc {

static uint32_t moveWide(unsigned Opc, unsigned Rd, uint16_t Imm16,
                         unsigned Hw) {
  assert(Rd < 32 && Hw < 4 && "bad move-wide operands");
  return field(1, 31, 31) | field(Opc, 30, 29) | field(0x25, 28, 23) |
         field(Hw, 22, 21) | field(Imm16, 20, 5) | field(Rd, 4, 0);
}
uint32_t movz(unsigned Rd, uint16_t Imm16, unsigned Hw) {
  return moveWide(2, Rd, Imm16, Hw);
}
uint32_t movn(unsigned Rd, uint16_t Imm16, unsigned Hw) {
  return moveWide(0, Rd, Imm16, Hw);
}
uint32_t movk(unsigned Rd, uint16_t Imm16, unsigned Hw) {
  return moveWide(3, Rd, Imm16, Hw);
}

static uint32_t addSubImm(unsigned Op, unsigned S, unsigned Rd, unsigned Rn,
                          uint16_t Imm12, bool Shift12) {
  assert(Imm12 < (1 << 12) && "add/sub immediate out of range");
  return field(1, 31, 31) | field(Op, 30, 30) | field(S, 29, 29) |
         field(0x22, 28, 23) | field(Shift12 ? 1 : 0, 22, 22) |
         field(Imm12, 21, 10) | field(Rn, 9, 5) | field(Rd, 4, 0);
}
uint32_t addImm(unsigned Rd, unsigned Rn, uint16_t Imm12, bool Shift12) {
  return addSubImm(0, 0, Rd, Rn, Imm12, Shift12);
}
uint32_t subImm(unsigned Rd, unsigned Rn, uint16_t Imm12, bool Shift12) {
  return addSubImm(1, 0, Rd, Rn, Imm12, Shift12);
}
uint32_t subsImm(unsigned Rd, unsigned Rn, uint16_t Imm12) {
  return addSubImm(1, 1, Rd, Rn, Imm12, false);
}

static uint32_t addSubReg(unsigned Op, unsigned S, unsigned Rd, unsigned Rn,
                          unsigned Rm) {
  return field(1, 31, 31) | field(Op, 30, 30) | field(S, 29, 29) |
         field(0x0b, 28, 24) | field(Rm, 20, 16) | field(Rn, 9, 5) |
         field(Rd, 4, 0);
}
uint32_t addReg(unsigned Rd, unsigned Rn, unsigned Rm) {
  return addSubReg(0, 0, Rd, Rn, Rm);
}
uint32_t subReg(unsigned Rd, unsigned Rn, unsigned Rm) {
  return addSubReg(1, 0, Rd, Rn, Rm);
}
uint32_t addsReg(unsigned Rd, unsigned Rn, unsigned Rm) {
  return addSubReg(0, 1, Rd, Rn, Rm);
}
uint32_t subsReg(unsigned Rd, unsigned Rn, unsigned Rm) {
  return addSubReg(1, 1, Rd, Rn, Rm);
}

static uint32_t logical(unsigned Opc, unsigned Rd, unsigned Rn, unsigned Rm) {
  return field(1, 31, 31) | field(Opc, 30, 29) | field(0x0a, 28, 24) |
         field(Rm, 20, 16) | field(Rn, 9, 5) | field(Rd, 4, 0);
}
uint32_t andReg(unsigned Rd, unsigned Rn, unsigned Rm) {
  return logical(0, Rd, Rn, Rm);
}
uint32_t orrReg(unsigned Rd, unsigned Rn, unsigned Rm) {
  return logical(1, Rd, Rn, Rm);
}
uint32_t eorReg(unsigned Rd, unsigned Rn, unsigned Rm) {
  return logical(2, Rd, Rn, Rm);
}
uint32_t andsReg(unsigned Rd, unsigned Rn, unsigned Rm) {
  return logical(3, Rd, Rn, Rm);
}

static uint32_t bitfield(unsigned Opc, unsigned Rd, unsigned Rn,
                         unsigned Immr, unsigned Imms) {
  return field(1, 31, 31) | field(Opc, 30, 29) | field(0x26, 28, 23) |
         field(1, 22, 22) | field(Immr, 21, 16) | field(Imms, 15, 10) |
         field(Rn, 9, 5) | field(Rd, 4, 0);
}
uint32_t lsrImm(unsigned Rd, unsigned Rn, unsigned Shift) {
  assert(Shift < 64 && "shift out of range");
  return bitfield(2, Rd, Rn, Shift, 63);
}
uint32_t asrImm(unsigned Rd, unsigned Rn, unsigned Shift) {
  assert(Shift < 64 && "shift out of range");
  return bitfield(0, Rd, Rn, Shift, 63);
}
uint32_t lslImm(unsigned Rd, unsigned Rn, unsigned Shift) {
  assert(Shift >= 1 && Shift < 64 && "shift out of range");
  return bitfield(2, Rd, Rn, (64 - Shift) % 64, 63 - Shift);
}

uint32_t rbit64(unsigned Rd, unsigned Rn) {
  return field(1, 31, 31) | field(0x2d6, 30, 21) | field(Rn, 9, 5) |
         field(Rd, 4, 0);
}
uint32_t rbit32(unsigned Rd, unsigned Rn) {
  return field(0x2d6, 30, 21) | field(Rn, 9, 5) | field(Rd, 4, 0);
}
uint32_t rev64(unsigned Rd, unsigned Rn) {
  return field(1, 31, 31) | field(0x2d6, 30, 21) | field(3, 15, 10) |
         field(Rn, 9, 5) | field(Rd, 4, 0);
}
uint32_t rev32(unsigned Rd, unsigned Rn) {
  return field(0x2d6, 30, 21) | field(2, 15, 10) | field(Rn, 9, 5) |
         field(Rd, 4, 0);
}
static uint32_t divEnc(unsigned Opc2, unsigned Rd, unsigned Rn,
                       unsigned Rm) {
  return field(1, 31, 31) | field(0xd6, 28, 21) | field(Rm, 20, 16) |
         field(Opc2, 15, 10) | field(Rn, 9, 5) | field(Rd, 4, 0);
}
uint32_t udiv(unsigned Rd, unsigned Rn, unsigned Rm) {
  return divEnc(2, Rd, Rn, Rm);
}
uint32_t sdiv(unsigned Rd, unsigned Rn, unsigned Rm) {
  return divEnc(3, Rd, Rn, Rm);
}
static uint32_t condSel(unsigned Op, unsigned Op2, unsigned Rd, unsigned Rn,
                        unsigned Rm, Cond C) {
  return field(1, 31, 31) | field(Op, 30, 30) | field(0xd4, 28, 21) |
         field(Rm, 20, 16) | field(uint32_t(C), 15, 12) |
         field(Op2, 11, 10) | field(Rn, 9, 5) | field(Rd, 4, 0);
}
uint32_t csel(unsigned Rd, unsigned Rn, unsigned Rm, Cond C) {
  return condSel(0, 0, Rd, Rn, Rm, C);
}
uint32_t csinc(unsigned Rd, unsigned Rn, unsigned Rm, Cond C) {
  return condSel(0, 1, Rd, Rn, Rm, C);
}
uint32_t csinv(unsigned Rd, unsigned Rn, unsigned Rm, Cond C) {
  return condSel(1, 0, Rd, Rn, Rm, C);
}
uint32_t csneg(unsigned Rd, unsigned Rn, unsigned Rm, Cond C) {
  return condSel(1, 1, Rd, Rn, Rm, C);
}
uint32_t cset(unsigned Rd, Cond C) {
  return csinc(Rd, 31, 31, Cond(uint32_t(C) ^ 1));
}
static uint32_t adrEnc(unsigned Op, unsigned Rd, int64_t Imm21) {
  assert(Imm21 >= -(1 << 20) && Imm21 < (1 << 20) && "ADR out of range");
  uint32_t I = uint32_t(Imm21) & 0x1fffff;
  return field(Op, 31, 31) | field(I & 3, 30, 29) | field(0x10, 28, 24) |
         field(I >> 2, 23, 5) | field(Rd, 4, 0);
}
uint32_t adr(unsigned Rd, int64_t ByteOff) { return adrEnc(0, Rd, ByteOff); }
uint32_t adrp(unsigned Rd, int64_t PageOff) {
  return adrEnc(1, Rd, PageOff);
}

static uint32_t ldstImm(unsigned Size, unsigned Opc, unsigned Rt, unsigned Rn,
                        uint16_t Imm) {
  assert(Imm < (1 << 12) && "load/store immediate out of range");
  return field(Size, 31, 30) | field(7, 29, 27) | field(1, 25, 24) |
         field(Opc, 23, 22) | field(Imm, 21, 10) | field(Rn, 9, 5) |
         field(Rt, 4, 0);
}
uint32_t ldrImm(unsigned Size, unsigned Rt, unsigned Rn, uint16_t ImmScaled) {
  return ldstImm(Size, 1, Rt, Rn, ImmScaled);
}
uint32_t strImm(unsigned Size, unsigned Rt, unsigned Rn, uint16_t ImmScaled) {
  return ldstImm(Size, 0, Rt, Rn, ImmScaled);
}
static uint32_t ldstReg(unsigned Size, unsigned Opc, unsigned Rt, unsigned Rn,
                        unsigned Rm, bool Scale) {
  return field(Size, 31, 30) | field(7, 29, 27) | field(Opc, 23, 22) |
         field(1, 21, 21) | field(Rm, 20, 16) | field(3, 15, 13) |
         field(Scale ? 1 : 0, 12, 12) | field(2, 11, 10) | field(Rn, 9, 5) |
         field(Rt, 4, 0);
}
uint32_t ldrReg(unsigned Size, unsigned Rt, unsigned Rn, unsigned Rm,
                bool ScaleOffset) {
  return ldstReg(Size, 1, Rt, Rn, Rm, ScaleOffset);
}
uint32_t strReg(unsigned Size, unsigned Rt, unsigned Rn, unsigned Rm,
                bool ScaleOffset) {
  return ldstReg(Size, 0, Rt, Rn, Rm, ScaleOffset);
}

uint32_t cbz(unsigned Rt, int64_t ByteOff) {
  return field(1, 31, 31) | field(0x1a, 30, 25) |
         field(imm19(ByteOff), 23, 5) | field(Rt, 4, 0);
}
uint32_t cbnz(unsigned Rt, int64_t ByteOff) {
  return cbz(Rt, ByteOff) | field(1, 24, 24);
}
uint32_t tbz(unsigned Rt, unsigned Bit, int64_t ByteOff) {
  assert(Bit < 64 && "bit number out of range");
  return field(Bit >> 5, 31, 31) | field(0x1b, 30, 25) |
         field(Bit & 31, 23, 19) | field(imm14(ByteOff), 18, 5) |
         field(Rt, 4, 0);
}
uint32_t tbnz(unsigned Rt, unsigned Bit, int64_t ByteOff) {
  return tbz(Rt, Bit, ByteOff) | field(1, 24, 24);
}
uint32_t bcond(Cond C, int64_t ByteOff) {
  return field(0x54, 31, 24) | field(imm19(ByteOff), 23, 5) |
         field(uint32_t(C), 3, 0);
}
uint32_t b(int64_t ByteOff) {
  return field(0x5, 30, 26) | imm26(ByteOff);
}
uint32_t bl(int64_t ByteOff) {
  return field(1, 31, 31) | field(0x5, 30, 26) | imm26(ByteOff);
}
static uint32_t branchReg(unsigned Opc, unsigned Rn) {
  return field(0x6b, 31, 25) | field(Opc, 24, 21) | field(0x1f, 20, 16) |
         field(Rn, 9, 5);
}
uint32_t br(unsigned Rn) { return branchReg(0, Rn); }
uint32_t blr(unsigned Rn) { return branchReg(1, Rn); }
uint32_t ret(unsigned Rn) { return branchReg(2, Rn); }
uint32_t eret() { return branchReg(4, 31); }
uint32_t hvc(uint16_t Imm16) {
  return field(0xd4, 31, 24) | field(Imm16, 20, 5) | field(2, 1, 0);
}
uint32_t nop() { return 0xd503201f; }
uint32_t msr(SysReg R, unsigned Rt) {
  return field(0x354, 31, 22) | field(uint32_t(R), 20, 5) | field(Rt, 4, 0);
}
uint32_t mrs(unsigned Rt, SysReg R) {
  return field(0x354, 31, 22) | field(1, 21, 21) |
         field(uint32_t(R), 20, 5) | field(Rt, 4, 0);
}

} // namespace islaris::arch::aarch64::enc

