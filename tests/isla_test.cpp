//===- tests/isla_test.cpp - Symbolic executor tests ---------------------------===//

#include "cache/TraceCache.h"
#include "isla/Executor.h"
#include "itl/OpSem.h"
#include "models/Models.h"
#include "sail/Interpreter.h"
#include "sail/Parser.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <random>

using namespace islaris;
using namespace islaris::isla;
using islaris::itl::MachineState;
using islaris::itl::Reg;
using smt::Term;
using smt::Value;

namespace {

/// A small architecture with banked stack pointers and a flag-driven branch,
/// shaped like the Armv8-A fragments of Figs. 2, 3 and 6: opcode 0x91xxxxxx
/// is "add sp, sp, imm12"; opcode 0x54xxxxxx is "beq imm" (PC-relative);
/// anything else is UNDEFINED.
const char *MiniArch = R"(
register PSTATE : struct { EL : bits(2), SP : bits(1), Z : bits(1) }
register SP_EL0 : bits(64)
register SP_EL1 : bits(64)
register SP_EL2 : bits(64)
register SP_EL3 : bits(64)
register _PC : bits(64)

function aget_SP() -> bits(64) = {
  if PSTATE.SP == 0b0 then { return SP_EL0; }
  else if PSTATE.EL == 0b00 then { return SP_EL0; }
  else if PSTATE.EL == 0b01 then { return SP_EL1; }
  else if PSTATE.EL == 0b10 then { return SP_EL2; }
  else { return SP_EL3; };
}

function aset_SP(value : bits(64)) -> unit = {
  if PSTATE.SP == 0b0 then { SP_EL0 = value; }
  else if PSTATE.EL == 0b00 then { SP_EL0 = value; }
  else if PSTATE.EL == 0b01 then { SP_EL1 = value; }
  else if PSTATE.EL == 0b10 then { SP_EL2 = value; }
  else { SP_EL3 = value; };
}

function next_pc() -> unit = { _PC = _PC + 0x0000000000000004; }

function add_sp_immediate(imm12 : bits(12)) -> unit = {
  let op1 = aget_SP();
  let imm = zero_extend(imm12, 64);
  // The 128-bit vestige of AddWithCarry (Fig. 3).
  let wide = zero_extend(op1, 128) + zero_extend(imm, 128);
  aset_SP(wide[63 .. 0]);
  next_pc();
}

function branch_eq(imm19 : bits(19)) -> unit = {
  let offset = sign_extend(imm19 @ 0b00, 64);
  if PSTATE.Z == 0b1 then { _PC = _PC + offset; }
  else { next_pc(); };
}

function decode(opcode : bits(32)) -> unit = {
  if opcode[31 .. 24] == 0x91 then {
    add_sp_immediate(opcode[21 .. 10]);
  } else if opcode[31 .. 24] == 0x54 then {
    branch_eq(opcode[23 .. 5]);
  } else {
    throw("UNDEFINED");
  };
}
)";

std::unique_ptr<sail::Model> parseArch() {
  std::string Err;
  auto M = sail::parseModel(MiniArch, Err);
  EXPECT_TRUE(M != nullptr) << Err;
  return M;
}

// add sp, sp, #0x40: imm12=0x040 at [21:10] -> 0x91010000 | (0x40 << 10).
constexpr uint32_t AddSp64 = 0x91000000u | (0x40u << 10);
constexpr uint32_t BeqMinus16 = 0x54000000u | ((0x7fff0u & 0x7ffffu) << 5);

Assumptions el2Assumptions() {
  Assumptions A;
  A.assume(Reg("PSTATE", "EL"), BitVec(2, 0b10));
  A.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  return A;
}

TEST(ExecutorTest, AddSpLinearTraceUnderAssumptions) {
  auto M = parseArch();
  ASSERT_TRUE(M);
  smt::TermBuilder TB;
  Executor Ex(*M, TB);
  ExecResult R = Ex.run(OpcodeSpec::concrete(AddSp64), el2Assumptions());
  ASSERT_TRUE(R.Ok) << R.Error;
  // Pruned to one linear path (Fig. 3): no cases at all.
  EXPECT_EQ(R.Trace.countPaths(), 1u);
  EXPECT_FALSE(R.Trace.hasCases());
  std::string S = R.Trace.toString();
  EXPECT_NE(S.find("(assume-reg |PSTATE| ((_ field |EL|)) "
                   "(_ struct (|EL| #b10)))"),
            std::string::npos)
      << S;
  EXPECT_NE(S.find("read-reg |SP_EL2|"), std::string::npos) << S;
  EXPECT_NE(S.find("write-reg |SP_EL2|"), std::string::npos) << S;
  EXPECT_NE(S.find("zero_extend 64"), std::string::npos) << S; // vestige
  EXPECT_EQ(S.find("SP_EL0"), std::string::npos) << S;         // pruned
}

TEST(ExecutorTest, AddSpForksWithoutAssumptions) {
  // §2.1: without the EL/SP constraints the trace distinguishes five cases.
  auto M = parseArch();
  ASSERT_TRUE(M);
  smt::TermBuilder TB;
  Executor Ex(*M, TB);
  ExecResult R = Ex.run(OpcodeSpec::concrete(AddSp64), Assumptions());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Trace.countPaths(), 5u);
}

TEST(ExecutorTest, BeqHasTwoCasesWithAsserts) {
  auto M = parseArch();
  ASSERT_TRUE(M);
  smt::TermBuilder TB;
  Executor Ex(*M, TB);
  ExecResult R = Ex.run(OpcodeSpec::concrete(BeqMinus16), Assumptions());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Trace.countPaths(), 2u);
  ASSERT_EQ(R.Trace.Cases.size(), 2u);
  // Each subtrace starts with an assert of the branch condition (Fig. 6).
  for (const itl::Trace &Sub : R.Trace.Cases) {
    ASSERT_FALSE(Sub.Events.empty());
    EXPECT_EQ(Sub.Events[0].K, itl::EventKind::Assert);
  }
}

TEST(ExecutorTest, UndefinedOpcodeIsAnError) {
  auto M = parseArch();
  ASSERT_TRUE(M);
  smt::TermBuilder TB;
  Executor Ex(*M, TB);
  ExecResult R = Ex.run(OpcodeSpec::concrete(0xdeadbeef), Assumptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("UNDEFINED"), std::string::npos);
}

TEST(ExecutorTest, SymbolicImmediateStaysParametric) {
  // Symbolic imm12 field: the trace must be linear and mention the opcode
  // variable rather than a constant immediate.
  auto M = parseArch();
  ASSERT_TRUE(M);
  smt::TermBuilder TB;
  Executor Ex(*M, TB);
  OpcodeSpec Op = OpcodeSpec::symbolicField(0x91000000u | (3u << 22), 21, 10);
  // Bits 22/23 of add-imm are shift/flags selectors in real Arm; here the
  // decode only checks [31:24], so leave them concrete.
  Op = OpcodeSpec::symbolicField(AddSp64, 21, 10);
  ExecResult R = Ex.run(Op, el2Assumptions());
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.OpcodeVars.size(), 1u);
  EXPECT_EQ(R.OpcodeVars[0]->width(), 12u);
  EXPECT_EQ(R.Trace.countPaths(), 1u);
  EXPECT_NE(R.Trace.toString().find(R.OpcodeVars[0]->varName()),
            std::string::npos);
}

TEST(ExecutorTest, UnsimplifiedBaselineHasMoreEvents) {
  auto M = parseArch();
  ASSERT_TRUE(M);
  smt::TermBuilder TB;
  Executor Ex(*M, TB);
  ExecResult Simplified =
      Ex.run(OpcodeSpec::concrete(AddSp64), el2Assumptions());
  ExecOptions Baseline;
  Baseline.CacheRegReads = false;
  Baseline.SinksOnly = false;
  ExecResult Unsimplified =
      Ex.run(OpcodeSpec::concrete(AddSp64), el2Assumptions(), Baseline);
  ASSERT_TRUE(Simplified.Ok && Unsimplified.Ok)
      << Simplified.Error << Unsimplified.Error;
  EXPECT_GT(Unsimplified.Stats.Events, Simplified.Stats.Events);
}

//===----------------------------------------------------------------------===//
// Witness models: a path that carries a model of its path condition settles
// one side of each branch by evaluation and asks the solver about the other.
//===----------------------------------------------------------------------===//

/// add x<rd>, x<rn>, #0 on the Armv8-A model with rd and the low rn bit
/// symbolic: 64 paths, the fresh trace request of the server benchmarks.
ExecResult runSixtyFourPathKey(Executor &Ex) {
  Assumptions A;
  A.assume(Reg("PSTATE", "EL"), BitVec(2, 0b10));
  A.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  return Ex.run({BitVec(32, 0x910003e0u), BitVec(32, 0x3fu)}, A);
}

unsigned branchDecisions(const ExecStats &S) {
  return S.Paths - 1 + S.PrunedBranches; // forks + prunes
}

std::string digestOf(const std::string &Bytes) {
  return support::WordHasher().str(Bytes).digest().toHex();
}

TEST(WitnessTest, SixtyFourPathKeyChecksOncePerBranch) {
  smt::TermBuilder TB;
  Executor Ex(models::aarch64Model(), TB);
  ExecResult R = runSixtyFourPathKey(Ex);
  ASSERT_TRUE(R.Ok) << R.Error;
  const ExecStats &S = R.Stats;
  EXPECT_EQ(S.Paths, 64u);
  unsigned Decisions = branchDecisions(S);
  EXPECT_EQ(Decisions, 95u);
  // The serialized count stays two per decided branch ...
  EXPECT_EQ(S.SolverQueries, 2 * Decisions);
  // ... while every branch is settled on one side by the witness: the
  // empty assignment models the empty path condition of the first.
  EXPECT_EQ(S.WitnessSides, Decisions);
  EXPECT_LE(S.SolverChecks, Decisions);
  EXPECT_LE(S.SolverCoreCalls, S.SolverChecks);
  // The entry bytes of the engine that checked both sides of every branch
  // (trace text and serialized stats), recorded before witnesses existed.
  std::string Entry = cache::TraceCache::serializeEntry(
      cache::Fingerprint{}, cache::TraceCache::encode(R));
  EXPECT_EQ(digestOf(Entry), "71c59e12f0c42f282917aa0eafb5f23b");
}

TEST(WitnessTest, ConstrainedPreambleStartsWithoutAWitness) {
  // A constraint makes the first path condition non-empty, so the first
  // branch is checked on both sides; its model then serves the rest.
  auto M = parseArch();
  ASSERT_TRUE(M);
  smt::TermBuilder TB;
  Executor Ex(*M, TB);
  Assumptions A;
  A.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  A.constrain(Reg("PSTATE", "EL"),
              [](smt::TermBuilder &B, const Term *V) {
                return B.orTerm(B.eqTerm(V, B.constBV(2, 1)),
                                B.eqTerm(V, B.constBV(2, 2)));
              });
  ExecResult R = Ex.run(OpcodeSpec::concrete(AddSp64), A);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Trace.countPaths(), 2u); // EL1 and EL2
  unsigned Decisions = branchDecisions(R.Stats);
  EXPECT_EQ(R.Stats.WitnessSides, Decisions - 1);
  EXPECT_EQ(R.Stats.SolverChecks, Decisions + 1);
  EXPECT_EQ(R.Stats.SolverQueries, 2 * Decisions);
  // The trace of the engine that checked both sides of every branch.
  EXPECT_EQ(digestOf(R.Trace.toString()), "ea403f8b32bcccaa6f2c063a828b0aa6")
      << R.Trace.toString();
}

TEST(WitnessTest, CorruptCoreModelFailsTheRun) {
  // Every model the SAT core returns is corrupted.  One that no longer
  // satisfies its goals is rejected by the solver's Evaluator check and
  // answered Unknown, which fails the run at that branch: it is never a
  // witness, so no path continues, or forks, from a model no one checked.
  support::FaultInjector FI;
  FI.setRate(support::FaultSite::SolverModel, 1.0);
  support::FaultInjector *Saved = support::FaultInjector::active();
  support::FaultInjector::setActive(&FI);
  smt::TermBuilder TB;
  Executor Ex(models::aarch64Model(), TB);
  ExecResult R = runSixtyFourPathKey(Ex);
  support::FaultInjector::setActive(Saved);
  EXPECT_GE(FI.injected(support::FaultSite::SolverModel), 1u);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.D.Code, support::ErrorCode::SolverBudgetExceeded)
      << support::errorCodeName(R.D.Code);
  EXPECT_NE(R.Error.find("solver gave up deciding a branch condition"),
            std::string::npos)
      << R.Error;
  EXPECT_TRUE(R.Trace.Events.empty());
  EXPECT_EQ(R.Stats.Paths, 0u);
}

//===----------------------------------------------------------------------===//
// Differential test: symbolic trace semantics vs. concrete model semantics.
//===----------------------------------------------------------------------===//

MachineState randomArchState(std::mt19937_64 &Rng, uint64_t El,
                             uint64_t SpSel, uint64_t ZFlag) {
  MachineState S;
  S.setReg(Reg("PSTATE", "EL"), Value(BitVec(2, El)));
  S.setReg(Reg("PSTATE", "SP"), Value(BitVec(1, SpSel)));
  S.setReg(Reg("PSTATE", "Z"), Value(BitVec(1, ZFlag)));
  S.setReg(Reg("SP_EL0"), Value(BitVec(64, Rng())));
  S.setReg(Reg("SP_EL1"), Value(BitVec(64, Rng())));
  S.setReg(Reg("SP_EL2"), Value(BitVec(64, Rng())));
  S.setReg(Reg("SP_EL3"), Value(BitVec(64, Rng())));
  S.setReg(Reg("_PC"), Value(BitVec(64, Rng() & ~3ull)));
  return S;
}

class DifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DifferentialTest, TraceAgreesWithConcreteInterpreter) {
  auto M = parseArch();
  ASSERT_TRUE(M);
  smt::TermBuilder TB;
  Executor Ex(*M, TB);
  ExecResult R = Ex.run(OpcodeSpec::concrete(GetParam()), Assumptions());
  ASSERT_TRUE(R.Ok) << R.Error;

  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 12; ++Round) {
    MachineState Init = randomArchState(Rng, Rng() % 4, Rng() % 2, Rng() % 2);

    // Concrete model execution.
    MachineState SC = Init;
    sail::Interpreter CI(*M);
    auto CR = CI.callFunction(
        "decode", {Value(BitVec(32, GetParam()))}, SC);
    ASSERT_TRUE(CR.Ok) << CR.Error;

    // ITL trace execution.
    itl::Interpreter TI(TB);
    auto Paths = TI.runTrace(R.Trace, Init);
    // Exactly one path must survive (reach the end in TOP having run all
    // its events); it must agree with the concrete run on all registers.
    int Survivors = 0;
    for (const auto &P : Paths) {
      ASSERT_NE(P.Out, itl::Outcome::Bottom) << P.Reason;
      ASSERT_NE(P.Out, itl::Outcome::Stuck) << P.Reason;
      // A surviving path is one whose final PC was updated.
      if (P.Final.getReg(Reg("_PC"))->asBitVec() ==
              SC.getReg(Reg("_PC"))->asBitVec() &&
          P.Final.Regs.size() == SC.Regs.size()) {
        bool Match = true;
        for (const auto &[RegKey, Val] : SC.Regs)
          Match = Match && P.Final.getReg(RegKey) &&
                  *P.Final.getReg(RegKey) == Val;
        Survivors += Match;
      }
    }
    EXPECT_GE(Survivors, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Opcodes, DifferentialTest,
                         ::testing::Values(AddSp64, BeqMinus16,
                                           0x91000000u | (1u << 10)));

} // namespace
