//===- tests/fuzz_differential_test.cpp - Model/executor fuzzing ---------------===//
//
// Randomized differential testing of the whole trace-generation pipeline:
// for randomly generated instructions across the supported encodings,
// generate the Isla trace and validate it against the concrete model
// interpreter (per-path solver witnesses + random states).  This is the
// broad-coverage safety net behind the hand-picked validation suite.
//
//===----------------------------------------------------------------------===//

#include "arch/AArch64.h"
#include "arch/RiscV.h"
#include "isla/Executor.h"
#include "models/Models.h"
#include "support/Guard.h"
#include "validation/Validator.h"

#include <gtest/gtest.h>

#include <random>

using namespace islaris;
using islaris::itl::Reg;

namespace {

/// Guards for every fuzz validation: generous enough to never fire on a
/// healthy pipeline, tight enough that a wedged solver fails the round with
/// an attributed Diag instead of hanging the whole suite.
support::RunLimits fuzzLimits() {
  support::RunLimits L;
  L.SolverCheckSeconds = 10;
  L.InstrSeconds = 60;
  return L;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, ArmUserLevelInstructions) {
  namespace e = arch::aarch64::enc;
  std::mt19937_64 Rng(unsigned(GetParam()) * 2654435761u + 11);
  auto R5 = [&] { return unsigned(Rng() % 31); }; // avoid reg 31 cases
  auto Imm12 = [&] { return uint16_t(Rng() % 4096); };
  auto Imm16 = [&] { return uint16_t(Rng()); };
  auto Sh = [&] { return 1 + unsigned(Rng() % 63); };
  auto Off = [&] { return (int64_t(Rng() % 512) - 256) * 4; };

  // User-level configuration: EL1, SP_EL1, alignment checking off.
  isla::Assumptions A;
  A.assume(Reg("PSTATE", "EL"), BitVec(2, 0b01));
  A.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  A.assume(Reg("SCTLR_EL1"), BitVec(64, 0));

  smt::TermBuilder TB;
  isla::Executor Ex(models::aarch64Model(), TB);

  for (int Round = 0; Round < 60; ++Round) {
    uint32_t Op = 0;
    switch (Rng() % 19) {
    case 0:
      Op = e::movz(R5(), Imm16(), unsigned(Rng() % 4));
      break;
    case 1:
      Op = e::movk(R5(), Imm16(), unsigned(Rng() % 4));
      break;
    case 2:
      Op = e::movn(R5(), Imm16(), unsigned(Rng() % 4));
      break;
    case 3:
      Op = e::addImm(R5(), unsigned(Rng() % 32), Imm12(), Rng() % 2);
      break;
    case 4:
      Op = e::subsImm(R5(), R5(), Imm12());
      break;
    case 5:
      Op = e::addsReg(R5(), R5(), R5());
      break;
    case 6:
      Op = e::subReg(R5(), R5(), R5());
      break;
    case 7:
      Op = (Rng() % 2) ? e::andReg(R5(), R5(), R5())
                       : e::eorReg(R5(), R5(), R5());
      break;
    case 8:
      Op = e::andsReg(R5(), R5(), R5());
      break;
    case 9:
      Op = (Rng() % 2) ? e::lsrImm(R5(), R5(), Sh())
                       : e::lslImm(R5(), R5(), Sh());
      break;
    case 10:
      Op = e::asrImm(R5(), R5(), Sh());
      break;
    case 11:
      Op = (Rng() % 2) ? e::rbit64(R5(), R5()) : e::rbit32(R5(), R5());
      break;
    case 12: {
      unsigned Size = unsigned(Rng() % 4);
      Op = (Rng() % 2) ? e::ldrImm(Size, R5(), R5(), uint16_t(Rng() % 64))
                       : e::strImm(Size, R5(), R5(), uint16_t(Rng() % 64));
      break;
    }
    case 13: {
      unsigned Size = unsigned(Rng() % 4);
      Op = (Rng() % 2) ? e::ldrReg(Size, R5(), R5(), R5(), Rng() % 2)
                       : e::strReg(Size, R5(), R5(), R5(), Rng() % 2);
      break;
    }
    case 14:
      Op = (Rng() % 2) ? e::cbz(R5(), Off()) : e::cbnz(R5(), Off());
      break;
    case 15:
      Op = (Rng() % 2) ? e::tbz(R5(), unsigned(Rng() % 64), Off())
                       : e::tbnz(R5(), unsigned(Rng() % 64), Off());
      break;
    case 16:
      Op = e::bcond(arch::aarch64::Cond(Rng() % 14), Off());
      break;
    case 17: {
      arch::aarch64::Cond C = arch::aarch64::Cond(Rng() % 14);
      switch (Rng() % 8) {
      case 0:
        Op = e::csel(R5(), R5(), R5(), C);
        break;
      case 1:
        Op = e::csinc(R5(), R5(), R5(), C);
        break;
      case 2:
        Op = e::csinv(R5(), R5(), R5(), C);
        break;
      case 3:
        Op = e::csneg(R5(), R5(), R5(), C);
        break;
      case 4:
        Op = e::udiv(R5(), R5(), R5());
        break;
      case 5:
        Op = e::sdiv(R5(), R5(), R5());
        break;
      case 6:
        Op = e::adr(R5(), int64_t(Rng() % 8192) - 4096);
        break;
      default:
        Op = (Rng() % 2) ? e::rev64(R5(), R5()) : e::rev32(R5(), R5());
        break;
      }
      break;
    }
    default:
      switch (Rng() % 5) {
      case 0:
        Op = e::b(Off());
        break;
      case 1:
        Op = e::bl(Off());
        break;
      case 2:
        Op = e::br(R5());
        break;
      case 3:
        Op = e::blr(R5());
        break;
      default:
        Op = e::ret(R5());
        break;
      }
      break;
    }

    isla::ExecResult R = Ex.run(isla::OpcodeSpec::concrete(Op), A);
    ASSERT_TRUE(R.Ok) << BitVec(32, Op).toHexString() << ": " << R.Error;
    support::RunLimits Limits = fuzzLimits();
    validation::ValidationResult VR = validation::validateInstruction(
        models::aarch64Model(), TB, Op, A, R.Trace, "_PC",
        /*RandomTrials=*/3, Op ^ uint64_t(GetParam()), Limits);
    EXPECT_TRUE(VR.Ok) << BitVec(32, Op).toHexString() << ": " << VR.Error;
    EXPECT_EQ(VR.PathsCovered, VR.Paths) << BitVec(32, Op).toHexString();
  }
}

TEST_P(FuzzTest, RvInstructions) {
  namespace e = arch::rv64::enc;
  std::mt19937_64 Rng(unsigned(GetParam()) * 48271u + 13);
  auto R5 = [&] { return unsigned(Rng() % 32); };
  auto I12 = [&] { return int32_t(Rng() % 4096) - 2048; };
  auto BOff = [&] { return (int64_t(Rng() % 512) - 256) * 2; };

  smt::TermBuilder TB;
  isla::Executor Ex(models::rv64Model(), TB);

  for (int Round = 0; Round < 60; ++Round) {
    uint32_t Op = 0;
    switch (Rng() % 15) {
    case 0:
      Op = e::lui(R5(), uint32_t(Rng() % (1u << 20)));
      break;
    case 1:
      Op = e::auipc(R5(), uint32_t(Rng() % (1u << 20)));
      break;
    case 2:
      Op = e::addi(R5(), R5(), I12());
      break;
    case 3:
      Op = (Rng() % 3 == 0)   ? e::xori(R5(), R5(), I12())
           : (Rng() % 2 == 0) ? e::ori(R5(), R5(), I12())
                              : e::andi(R5(), R5(), I12());
      break;
    case 4:
      Op = e::sltiu(R5(), R5(), I12());
      break;
    case 5:
      Op = (Rng() % 3 == 0)   ? e::slli(R5(), R5(), unsigned(Rng() % 64))
           : (Rng() % 2 == 0) ? e::srli(R5(), R5(), unsigned(Rng() % 64))
                              : e::srai(R5(), R5(), unsigned(Rng() % 64));
      break;
    case 6:
      Op = (Rng() % 2) ? e::add(R5(), R5(), R5()) : e::sub(R5(), R5(), R5());
      break;
    case 7:
      Op = (Rng() % 3 == 0)   ? e::xorr(R5(), R5(), R5())
           : (Rng() % 2 == 0) ? e::orr(R5(), R5(), R5())
                              : e::andr(R5(), R5(), R5());
      break;
    case 8:
      Op = (Rng() % 3 == 0)   ? e::sll(R5(), R5(), R5())
           : (Rng() % 2 == 0) ? e::srl(R5(), R5(), R5())
                              : e::sltu(R5(), R5(), R5());
      break;
    case 9:
      Op = (Rng() % 3 == 0)   ? e::lb(R5(), R5(), I12())
           : (Rng() % 2 == 0) ? e::lbu(R5(), R5(), I12())
                              : e::lw(R5(), R5(), I12());
      break;
    case 10:
      Op = (Rng() % 2) ? e::ld(R5(), R5(), I12())
                       : e::sd(R5(), R5(), I12());
      break;
    case 11:
      Op = (Rng() % 2) ? e::sb(R5(), R5(), I12())
                       : e::sw(R5(), R5(), I12());
      break;
    case 12: {
      unsigned F = unsigned(Rng() % 6);
      unsigned A2 = R5(), B2 = R5();
      int64_t O2 = BOff();
      Op = F == 0   ? e::beq(A2, B2, O2)
           : F == 1 ? e::bne(A2, B2, O2)
           : F == 2 ? e::blt(A2, B2, O2)
           : F == 3 ? e::bge(A2, B2, O2)
           : F == 4 ? e::bltu(A2, B2, O2)
                    : e::bgeu(A2, B2, O2);
      break;
    }
    case 13:
      Op = (Rng() % 2) ? e::jal(R5(), BOff())
                       : e::jalr(R5(), R5(), I12());
      break;
    default:
      switch (Rng() % 9) {
      case 0:
        Op = e::addiw(R5(), R5(), I12());
        break;
      case 1:
        Op = e::slliw(R5(), R5(), unsigned(Rng() % 32));
        break;
      case 2:
        Op = e::srliw(R5(), R5(), unsigned(Rng() % 32));
        break;
      case 3:
        Op = e::sraiw(R5(), R5(), unsigned(Rng() % 32));
        break;
      case 4:
        Op = e::addw(R5(), R5(), R5());
        break;
      case 5:
        Op = e::subw(R5(), R5(), R5());
        break;
      case 6:
        Op = e::sllw(R5(), R5(), R5());
        break;
      case 7:
        Op = e::srlw(R5(), R5(), R5());
        break;
      default:
        Op = e::sraw(R5(), R5(), R5());
        break;
      }
      break;
    }

    isla::ExecResult R =
        Ex.run(isla::OpcodeSpec::concrete(Op), isla::Assumptions());
    ASSERT_TRUE(R.Ok) << BitVec(32, Op).toHexString() << ": " << R.Error;
    support::RunLimits Limits = fuzzLimits();
    validation::ValidationResult VR = validation::validateInstruction(
        models::rv64Model(), TB, Op, isla::Assumptions(), R.Trace, "PC",
        /*RandomTrials=*/3, Op ^ uint64_t(GetParam()), Limits);
    EXPECT_TRUE(VR.Ok) << BitVec(32, Op).toHexString() << ": " << VR.Error;
    EXPECT_EQ(VR.PathsCovered, VR.Paths) << BitVec(32, Op).toHexString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3, 4));

//===----------------------------------------------------------------------===//
// Guard threading (the ROADMAP follow-up): a fired guard must surface as an
// attributed infrastructure Diag, never a hang, a crash, or a silent pass.
//===----------------------------------------------------------------------===//

TEST(GuardedValidation, ExpiredDeadlineAttributed) {
  namespace e = arch::rv64::enc;
  smt::TermBuilder TB;
  isla::Executor Ex(models::rv64Model(), TB);
  uint32_t Op = e::addi(5, 6, 42);
  isla::ExecResult R =
      Ex.run(isla::OpcodeSpec::concrete(Op), isla::Assumptions());
  ASSERT_TRUE(R.Ok) << R.Error;

  support::RunLimits L;
  L.InstrSeconds = 1e-9; // already expired when validation starts
  validation::ValidationResult VR = validation::validateInstruction(
      models::rv64Model(), TB, Op, isla::Assumptions(), R.Trace, "PC", 3, 1,
      L);
  EXPECT_FALSE(VR.Ok);
  EXPECT_EQ(VR.D.Code, support::ErrorCode::DeadlineExceeded);
  EXPECT_TRUE(support::isInfrastructureError(VR.D.Code));
}

TEST(GuardedValidation, CancelledTokenAttributed) {
  namespace e = arch::rv64::enc;
  smt::TermBuilder TB;
  isla::Executor Ex(models::rv64Model(), TB);
  uint32_t Op = e::addi(5, 6, 42);
  isla::ExecResult R =
      Ex.run(isla::OpcodeSpec::concrete(Op), isla::Assumptions());
  ASSERT_TRUE(R.Ok) << R.Error;

  support::CancelToken Cancel = support::CancelToken::create();
  Cancel.requestCancel();
  validation::ValidationResult VR = validation::validateInstruction(
      models::rv64Model(), TB, Op, isla::Assumptions(), R.Trace, "PC", 3, 1,
      {}, Cancel);
  EXPECT_FALSE(VR.Ok);
  EXPECT_EQ(VR.D.Code, support::ErrorCode::Cancelled);
}

TEST(GuardedValidation, GenerousGuardsDoNotPerturb) {
  namespace e = arch::rv64::enc;
  smt::TermBuilder TB;
  isla::Executor Ex(models::rv64Model(), TB);
  uint32_t Op = e::sltu(3, 4, 5);
  isla::ExecResult R =
      Ex.run(isla::OpcodeSpec::concrete(Op), isla::Assumptions());
  ASSERT_TRUE(R.Ok) << R.Error;

  validation::ValidationResult Bare = validation::validateInstruction(
      models::rv64Model(), TB, Op, isla::Assumptions(), R.Trace, "PC", 3, 7);
  support::RunLimits L = fuzzLimits();
  validation::ValidationResult Guarded = validation::validateInstruction(
      models::rv64Model(), TB, Op, isla::Assumptions(), R.Trace, "PC", 3, 7,
      L, support::CancelToken::create());
  EXPECT_TRUE(Bare.Ok) << Bare.Error;
  EXPECT_TRUE(Guarded.Ok) << Guarded.Error;
  EXPECT_EQ(Bare.Paths, Guarded.Paths);
  EXPECT_EQ(Bare.PathsCovered, Guarded.PathsCovered);
  EXPECT_EQ(Bare.Trials, Guarded.Trials);
}

} // namespace
