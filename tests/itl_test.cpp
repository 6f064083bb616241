//===- tests/itl_test.cpp - ITL trace language tests --------------------------===//

#include "itl/OpSem.h"
#include "itl/Parser.h"
#include "itl/Trace.h"

#include <gtest/gtest.h>

using namespace islaris;
using namespace islaris::itl;
using smt::Sort;
using smt::Term;
using smt::Value;

namespace {

/// Builds the Fig. 3 trace of add sp,sp,64 under EL=2, SP=1 assumptions.
Trace buildAddSpTrace(smt::TermBuilder &TB, std::vector<const Term *> &Vars) {
  Trace T;
  T.Events.push_back(
      Event::assumeReg(Reg("PSTATE", "EL"), TB.constBV(2, 0b10)));
  T.Events.push_back(
      Event::assumeReg(Reg("PSTATE", "SP"), TB.constBV(1, 1)));
  T.Events.push_back(
      Event::readReg(Reg("PSTATE", "SP"), TB.constBV(1, 1)));
  T.Events.push_back(
      Event::readReg(Reg("PSTATE", "EL"), TB.constBV(2, 0b10)));
  const Term *V38 = TB.freshVar(Sort::bitvec(64), "v38");
  Vars.push_back(V38);
  T.Events.push_back(Event::declareConst(V38));
  T.Events.push_back(Event::readReg(Reg("SP_EL2"), V38));
  const Term *Add = TB.bvAdd(TB.extract(63, 0, TB.zeroExtend(64, V38)),
                             TB.constBV(64, 0x40));
  const Term *V61 = TB.freshVar(Sort::bitvec(64), "v61");
  Vars.push_back(V61);
  T.Events.push_back(Event::defineConst(V61, Add));
  T.Events.push_back(Event::writeReg(Reg("SP_EL2"), V61));
  const Term *V62 = TB.freshVar(Sort::bitvec(64), "v62");
  T.Events.push_back(Event::declareConst(V62));
  T.Events.push_back(Event::readReg(Reg("_PC"), V62));
  const Term *V63 = TB.freshVar(Sort::bitvec(64), "v63");
  T.Events.push_back(
      Event::defineConst(V63, TB.bvAdd(V62, TB.constBV(64, 4))));
  T.Events.push_back(Event::writeReg(Reg("_PC"), V63));
  return T;
}

TEST(TraceTest, Fig3Printing) {
  smt::TermBuilder TB;
  std::vector<const Term *> Vars;
  Trace T = buildAddSpTrace(TB, Vars);
  std::string S = T.toString();
  // Spot-check the lines of Fig. 3.
  EXPECT_NE(S.find("(assume-reg |PSTATE| ((_ field |EL|)) "
                   "(_ struct (|EL| #b10)))"),
            std::string::npos);
  EXPECT_NE(S.find("(declare-const v38 (_ BitVec 64))"), std::string::npos);
  EXPECT_NE(S.find("(read-reg |SP_EL2| nil v38)"), std::string::npos);
  EXPECT_NE(S.find("(define-const v61 (bvadd ((_ extract 63 0) "
                   "((_ zero_extend 64) v38)) #x0000000000000040))"),
            std::string::npos);
  EXPECT_NE(S.find("(write-reg |SP_EL2| nil v61)"), std::string::npos);
  EXPECT_EQ(T.countEvents(), 12u);
  EXPECT_EQ(T.countPaths(), 1u);
}

TEST(TraceTest, ParseRoundTrip) {
  smt::TermBuilder TB;
  std::vector<const Term *> Vars;
  Trace T = buildAddSpTrace(TB, Vars);
  std::string Printed = T.toString();

  smt::TermBuilder TB2;
  TraceParser P(TB2);
  auto Parsed = P.parseTrace(Printed);
  ASSERT_TRUE(Parsed.has_value()) << P.error();
  EXPECT_EQ(Parsed->toString(), Printed);
}

TEST(TraceTest, ParseCasesTrace) {
  // The Fig. 6 beq trace shape.
  const char *Text = R"((trace
  (declare-const v27 (_ BitVec 1))
  (read-reg |PSTATE| ((_ field |Z|)) (_ struct (|Z| v27)))
  (define-const v37 (= v27 #b1))
  (cases
    (trace
      (assert v37)
      (declare-const v38 (_ BitVec 64))
      (read-reg |_PC| nil v38)
      (define-const v39 (bvadd v38 #xfffffffffffffff0))
      (write-reg |_PC| nil v39))
    (trace
      (assert (not v37))
      (declare-const v38a (_ BitVec 64))
      (read-reg |_PC| nil v38a)
      (define-const v39a (bvadd v38a #x0000000000000004))
      (write-reg |_PC| nil v39a)))))";
  smt::TermBuilder TB;
  TraceParser P(TB);
  auto T = P.parseTrace(Text);
  ASSERT_TRUE(T.has_value()) << P.error();
  EXPECT_EQ(T->Cases.size(), 2u);
  EXPECT_EQ(T->countPaths(), 2u);
  EXPECT_EQ(T->countEvents(), 3u + 5u + 5u);
  // Round trip.
  smt::TermBuilder TB2;
  TraceParser P2(TB2);
  auto T2 = P2.parseTrace(T->toString());
  ASSERT_TRUE(T2.has_value()) << P2.error();
  EXPECT_EQ(T2->toString(), T->toString());
}

TEST(TraceTest, ParserSkipsCommentsAndScopesCases) {
  // ';' comments run to the end of a line, and may follow the trace.
  // Sibling cases may reuse a name; after the parse only the top level's
  // names are in scope.
  const char *Text = "; a comment\n(trace ; another\n"
                     "  (declare-const v0 (_ BitVec 1))\n"
                     "  (cases (trace (declare-const v1 Bool) (assume v1))\n"
                     "    (trace (declare-const v1 Bool) (assert v1))))\n"
                     "; trailing comment\n\t\n";
  smt::TermBuilder TB;
  TraceParser P(TB);
  auto T = P.parseTrace(Text);
  ASSERT_TRUE(T.has_value()) << P.error();
  EXPECT_EQ(T->Cases.size(), 2u);
  EXPECT_NE(P.var("v0"), nullptr);
  EXPECT_EQ(P.var("v1"), nullptr);
}

TEST(TraceTest, ParserRejectsMalformedInput) {
  smt::TermBuilder TB;
  TraceParser P(TB);
  EXPECT_FALSE(P.parseTrace("(trace (read-reg |X|))").has_value());
  TraceParser P2(TB);
  EXPECT_FALSE(P2.parseTrace("(trace (frobnicate 1 2))").has_value());
  TraceParser P3(TB);
  // Use before declaration.
  EXPECT_FALSE(P3.parseTrace("(trace (assert v1))").has_value());
  TraceParser P4(TB);
  EXPECT_FALSE(P4.parseTrace("(trace").has_value());
}

TEST(TraceTest, ParserRejectsHostileNumbersWithoutThrowing) {
  // Numbers in trace text are untrusted (cache files cross processes and
  // machines): non-numeric, negative, and 2^64-scale atoms used to reach
  // std::stoul and throw out of the parser; each must be a plain parse
  // error.  The width/index cap also bounds allocation: a 20-digit extract
  // index can neither wrap nor build a pathologically wide term.
  smt::TermBuilder TB;
  const char *Hostile[] = {
      "(trace (declare-const v0 (_ BitVec 18446744073709551616)))",
      "(trace (declare-const v0 (_ BitVec -64)))",
      "(trace (declare-const v0 (_ BitVec abc)))",
      "(trace (declare-const v0 (_ BitVec 64))"
      " (define-const v1 ((_ extract 99999999999999999999 0) v0)))",
      "(trace (declare-const v0 (_ BitVec 64))"
      " (define-const v1 ((_ zero_extend 18446744073709551615) v0)))",
      "(trace (declare-const v0 (_ BitVec 64))"
      " (read-mem v0 v0 184467440737095516160))",
  };
  for (const char *Text : Hostile) {
    TraceParser P(TB);
    EXPECT_FALSE(P.parseTrace(Text).has_value()) << Text;
  }
}

//===----------------------------------------------------------------------===//
// Operational semantics (Fig. 10).
//===----------------------------------------------------------------------===//

MachineState addSpState() {
  MachineState S;
  S.setReg(Reg("PSTATE", "EL"), Value(BitVec(2, 0b10)));
  S.setReg(Reg("PSTATE", "SP"), Value(BitVec(1, 1)));
  S.setReg(Reg("SP_EL2"), Value(BitVec(64, 0x1000)));
  S.setReg(Reg("_PC"), Value(BitVec(64, 0x80000)));
  return S;
}

TEST(OpSemTest, AddSpUpdatesStackPointer) {
  smt::TermBuilder TB;
  std::vector<const Term *> Vars;
  Trace T = buildAddSpTrace(TB, Vars);
  Interpreter I(TB);
  auto Paths = I.runTrace(T, addSpState());
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Out, Outcome::Top);
  EXPECT_EQ(Paths[0].Final.getReg(Reg("SP_EL2"))->asBitVec().toUInt64(),
            0x1040u);
  EXPECT_EQ(Paths[0].Final.getReg(Reg("_PC"))->asBitVec().toUInt64(),
            0x80004u);
  EXPECT_TRUE(Paths[0].Labels.empty());
}

TEST(OpSemTest, AssumeRegViolationIsBottom) {
  smt::TermBuilder TB;
  std::vector<const Term *> Vars;
  Trace T = buildAddSpTrace(TB, Vars);
  MachineState S = addSpState();
  S.setReg(Reg("PSTATE", "EL"), Value(BitVec(2, 0b01))); // EL1, not EL2
  Interpreter I(TB);
  auto Paths = I.runTrace(T, S);
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Out, Outcome::Bottom);
}

TEST(OpSemTest, MissingRegisterIsBottom) {
  smt::TermBuilder TB;
  std::vector<const Term *> Vars;
  Trace T = buildAddSpTrace(TB, Vars);
  MachineState S = addSpState();
  S.Regs.erase(Reg("SP_EL2"));
  Interpreter I(TB);
  auto Paths = I.runTrace(T, S);
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Out, Outcome::Bottom);
}

TEST(OpSemTest, ReadRegMismatchIsTop) {
  // A read-reg with a concrete expected value that differs from the state
  // steps to TOP (pruned execution), not BOTTOM.
  smt::TermBuilder TB;
  Trace T;
  T.Events.push_back(Event::readReg(Reg("X0"), TB.constBV(64, 7)));
  T.Events.push_back(Event::assumeE(TB.falseTerm())); // would be Bottom
  MachineState S;
  S.setReg(Reg("X0"), Value(BitVec(64, 8)));
  Interpreter I(TB);
  auto Paths = I.runTrace(T, S);
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Out, Outcome::Top);
}

TEST(OpSemTest, CasesWithAssertsSelectBranch) {
  // Fig. 6 style: two branches guarded by asserts on a read flag.
  smt::TermBuilder TB;
  const Term *Z = TB.freshVar(Sort::bitvec(1), "z");
  Trace T;
  T.Events.push_back(Event::declareConst(Z));
  T.Events.push_back(Event::readReg(Reg("PSTATE", "Z"), Z));
  const Term *Cond = TB.eqTerm(Z, TB.constBV(1, 1));
  Trace Taken, NotTaken;
  Taken.Events.push_back(Event::assertE(Cond));
  Taken.Events.push_back(Event::writeReg(Reg("_PC"), TB.constBV(64, 0x10)));
  NotTaken.Events.push_back(Event::assertE(TB.notTerm(Cond)));
  NotTaken.Events.push_back(
      Event::writeReg(Reg("_PC"), TB.constBV(64, 0x20)));
  T.Cases = {Taken, NotTaken};

  MachineState S;
  S.setReg(Reg("PSTATE", "Z"), Value(BitVec(1, 1)));
  S.setReg(Reg("_PC"), Value(BitVec(64, 0)));
  Interpreter I(TB);
  auto Paths = I.runTrace(T, S);
  ASSERT_EQ(Paths.size(), 2u);
  // Exactly one branch survives to TOP with the updated PC; the other is
  // pruned at its assert (also TOP, but with no write).
  int Updated = 0;
  for (const auto &P : Paths) {
    EXPECT_EQ(P.Out, Outcome::Top);
    if (P.Final.getReg(Reg("_PC"))->asBitVec().toUInt64() == 0x10)
      ++Updated;
  }
  EXPECT_EQ(Updated, 1);
}

TEST(OpSemTest, MmioReadEmitsLabel) {
  struct FixedOracle : MmioOracle {
    BitVec mmioRead(uint64_t, unsigned NBytes) override {
      return BitVec(NBytes * 8, 0xAB);
    }
  };
  smt::TermBuilder TB;
  const Term *D = TB.freshVar(Sort::bitvec(32), "d");
  Trace T;
  T.Events.push_back(Event::declareConst(D));
  T.Events.push_back(Event::readMem(D, TB.constBV(64, 0x3f215040), 4));
  T.Events.push_back(Event::writeReg(Reg("W0"), D));
  FixedOracle O;
  Interpreter I(TB, &O);
  auto Paths = I.runTrace(T, MachineState());
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Out, Outcome::Top);
  ASSERT_EQ(Paths[0].Labels.size(), 1u);
  EXPECT_EQ(Paths[0].Labels[0].K, Label::Kind::Read);
  EXPECT_EQ(Paths[0].Labels[0].Addr.toUInt64(), 0x3f215040u);
  EXPECT_EQ(Paths[0].Labels[0].Data.toUInt64(), 0xABu);
  EXPECT_EQ(Paths[0].Final.getReg(Reg("W0"))->asBitVec().toUInt64(), 0xABu);
}

TEST(OpSemTest, MappedMemoryReadAndWrite) {
  smt::TermBuilder TB;
  const Term *D = TB.freshVar(Sort::bitvec(8), "d");
  Trace T;
  T.Events.push_back(Event::declareConst(D));
  T.Events.push_back(Event::readMem(D, TB.constBV(64, 0x100), 1));
  T.Events.push_back(Event::writeMem(TB.constBV(64, 0x200), D, 1));
  MachineState S;
  S.Mem[0x100] = 0x5A;
  S.Mem[0x200] = 0x00;
  Interpreter I(TB);
  auto Paths = I.runTrace(T, S);
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Out, Outcome::Top);
  EXPECT_TRUE(Paths[0].Labels.empty());
  EXPECT_EQ(Paths[0].Final.Mem.at(0x200), 0x5Au);
}

TEST(OpSemTest, UnmappedWriteEmitsLabel) {
  smt::TermBuilder TB;
  Trace T;
  T.Events.push_back(
      Event::writeMem(TB.constBV(64, 0x3f215040), TB.constBV(32, 0x63), 4));
  Interpreter I(TB);
  auto Paths = I.runTrace(T, MachineState());
  ASSERT_EQ(Paths.size(), 1u);
  ASSERT_EQ(Paths[0].Labels.size(), 1u);
  EXPECT_EQ(Paths[0].Labels[0].K, Label::Kind::Write);
  EXPECT_EQ(Paths[0].Labels[0].Data.toUInt64(), 0x63u);
}

TEST(OpSemTest, ProgramFetchChainAndEndLabel) {
  // Two single-event instruction traces: each bumps the PC; after the
  // second, the PC leaves the instruction map and we get E(a) with TOP.
  smt::TermBuilder TB;
  auto mkInstr = [&](uint64_t Next) {
    Trace T;
    T.Events.push_back(Event::writeReg(Reg("_PC"), TB.constBV(64, Next)));
    return T;
  };
  Trace I0 = mkInstr(0x1004), I1 = mkInstr(0x1008);
  MachineState S;
  S.setReg(Reg("_PC"), Value(BitVec(64, 0x1000)));
  S.Instrs[0x1000] = &I0;
  S.Instrs[0x1004] = &I1;
  Interpreter I(TB);
  auto Paths = I.runProgram(S, 10);
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Out, Outcome::Top);
  ASSERT_EQ(Paths[0].Labels.size(), 1u);
  EXPECT_EQ(Paths[0].Labels[0].K, Label::Kind::End);
  EXPECT_EQ(Paths[0].Labels[0].Addr.toUInt64(), 0x1008u);
}

TEST(OpSemTest, InfiniteLoopRunsOutOfFuel) {
  // "b ." — an instruction that leaves the PC unchanged.
  smt::TermBuilder TB;
  Trace Loop;
  Loop.Events.push_back(Event::writeReg(Reg("_PC"), TB.constBV(64, 0x1000)));
  MachineState S;
  S.setReg(Reg("_PC"), Value(BitVec(64, 0x1000)));
  S.Instrs[0x1000] = &Loop;
  Interpreter I(TB);
  auto Paths = I.runProgram(S, 16);
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Out, Outcome::OutOfFuel);
}

TEST(OpSemTest, UndeterminedUseIsStuck) {
  smt::TermBuilder TB;
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  Trace T;
  T.Events.push_back(Event::declareConst(X));
  T.Events.push_back(Event::writeReg(Reg("X0"), X)); // x never determined
  Interpreter I(TB);
  auto Paths = I.runTrace(T, MachineState());
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Out, Outcome::Stuck);
}

} // namespace
