//===- tests/robustness_test.cpp - Guards, faults, malformed inputs -------------===//
//
// The fault-tolerance contract of the pipeline, exercised layer by layer:
// resource guards trip with attributed diagnostics instead of wedging or
// asserting (in Release builds too), the batch driver contains exceptions
// and retries retryable failures, malformed external inputs (ITL text,
// objdump listings, persistent cache entries) are rejected or self-repaired
// without crashing, and the suite aggregation separates proof failures from
// infrastructure errors.
//
//===----------------------------------------------------------------------===//

#include "arch/AArch64.h"
#include "cache/BatchDriver.h"
#include "cache/SideCondCache.h"
#include "cache/TraceCache.h"
#include "frontend/CaseStudies.h"
#include "frontend/Objdump.h"
#include "frontend/Verifier.h"
#include "itl/Parser.h"
#include "models/Models.h"
#include "sail/Parser.h"
#include "support/FaultInjector.h"
#include "support/Parse.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

using namespace islaris;
using islaris::itl::Reg;
using islaris::seplogic::Spec;
using islaris::support::CancelToken;
using islaris::support::ErrorCode;
using islaris::support::FaultInjector;
using islaris::support::FaultSite;
using smt::Term;

namespace {

namespace e = arch::aarch64::enc;
namespace fs = std::filesystem;

isla::Assumptions el1Assumptions() {
  isla::Assumptions A;
  A.assume(Reg("PSTATE", "EL"), BitVec(2, 0b01));
  A.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  A.assume(Reg("SCTLR_EL1"), BitVec(64, 0));
  return A;
}

/// RAII activation of a fault injector (restores the previous one).
struct ScopedFaults {
  FaultInjector *Saved;
  explicit ScopedFaults(FaultInjector *F)
      : Saved(FaultInjector::active()) {
    FaultInjector::setActive(F);
  }
  ~ScopedFaults() { FaultInjector::setActive(Saved); }
};

/// A unique scratch directory under the build tree, removed on scope exit.
struct ScopedDir {
  std::string Path;
  explicit ScopedDir(const std::string &Name)
      : Path("robustness-scratch-" + Name) {
    std::error_code EC;
    fs::remove_all(Path, EC);
    fs::create_directories(Path, EC);
  }
  ~ScopedDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
};

/// One concrete-opcode trace job under EL1 assumptions.
cache::TraceJob makeJob(const isla::Assumptions &A, uint32_t Op,
                        uint64_t Tag = 0, unsigned Retries = 1) {
  cache::TraceJob J;
  J.Model = &models::aarch64Model();
  J.ArchName = "aarch64";
  J.Op = isla::OpcodeSpec::concrete(Op);
  J.Assume = &A;
  J.Opts.Limits.JobRetries = Retries;
  J.Tag = Tag;
  return J;
}

//===----------------------------------------------------------------------===//
// Executor resource guards.
//===----------------------------------------------------------------------===//

/// The three executor guards: the run driver checks them before each path.
TEST(ExecutorGuardTest, PathBudgetExceededIsAttributed) {
  smt::TermBuilder TB;
  isla::Executor Ex(models::aarch64Model(), TB);
  isla::Assumptions A = el1Assumptions();
  isla::ExecOptions O;
  O.MaxPaths = 1; // cbz forks into taken/untaken under a symbolic register
  isla::ExecResult R =
      Ex.run(isla::OpcodeSpec::concrete(e::cbz(2, 0x1c)), A, O);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.D.Code, ErrorCode::PathBudgetExceeded);
  EXPECT_NE(R.Error.find("path budget"), std::string::npos) << R.Error;
}

TEST(ExecutorGuardTest, ExpiredDeadlineFailsCleanly) {
  smt::TermBuilder TB;
  isla::Executor Ex(models::aarch64Model(), TB);
  isla::Assumptions A = el1Assumptions();
  isla::ExecOptions O;
  O.Limits.InstrSeconds = 1e-9; // already expired when the path loop starts
  isla::ExecResult R =
      Ex.run(isla::OpcodeSpec::concrete(e::addImm(0, 0, 1)), A, O);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.D.Code, ErrorCode::DeadlineExceeded);
}

TEST(ExecutorGuardTest, PreCancelledTokenFailsWithCancelled) {
  smt::TermBuilder TB;
  isla::Executor Ex(models::aarch64Model(), TB);
  isla::Assumptions A = el1Assumptions();
  isla::ExecOptions O;
  O.Cancel = CancelToken::create();
  O.Cancel.requestCancel();
  isla::ExecResult R =
      Ex.run(isla::OpcodeSpec::concrete(e::addImm(0, 0, 1)), A, O);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.D.Code, ErrorCode::Cancelled);
}

TEST(GuardTest, SolverGiveUpInExecutorIsNeverAWrongTrace) {
  // Force every solver check to Unknown: the executor must refuse to decide
  // the branch rather than fork or prune on a guess.
  FaultInjector FI;
  FI.failFirst(FaultSite::SolverUnknown, 1000);
  ScopedFaults SF(&FI);
  smt::TermBuilder TB;
  isla::Executor Ex(models::aarch64Model(), TB);
  isla::Assumptions A = el1Assumptions();
  isla::ExecResult R =
      Ex.run(isla::OpcodeSpec::concrete(e::cbz(2, 0x1c)), A,
             isla::ExecOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.D.Code == ErrorCode::SolverBudgetExceeded ||
              R.D.Code == ErrorCode::Cancelled)
      << support::errorCodeName(R.D.Code);
  EXPECT_TRUE(support::isInfrastructureError(R.D.Code));
}

//===----------------------------------------------------------------------===//
// Solver budget: Unknown is an answer, never folded into Sat/Unsat.
//===----------------------------------------------------------------------===//

TEST(GuardTest, SolverBudgetYieldsUnknown) {
  smt::TermBuilder TB;
  smt::Solver S(TB);
  const Term *X = TB.freshVar(smt::Sort::bitvec(16), "x");
  const Term *Y = TB.freshVar(smt::Sort::bitvec(16), "y");
  // A 16x16 multiplication equality is far beyond a 1-propagation budget.
  S.assertTerm(TB.eqTerm(TB.bvMul(X, Y), TB.constBV(16, 0x2b3)));
  support::RunLimits L;
  L.SolverPropagations = 1;
  S.setLimits(L);
  EXPECT_EQ(S.check(), smt::Result::Unknown);
  EXPECT_GE(S.stats().NumUnknown, 1u);
  // Removing the limit recovers the real answer on the same solver: the
  // interrupted attempt must not have corrupted its state.
  S.setLimits(support::RunLimits());
  EXPECT_EQ(S.check(), smt::Result::Sat);
}

TEST(GuardTest, CancelledSolverCheckIsUnknown) {
  smt::TermBuilder TB;
  smt::Solver S(TB);
  const Term *X = TB.freshVar(smt::Sort::bitvec(8), "x");
  S.assertTerm(TB.eqTerm(X, TB.constBV(8, 7)));
  CancelToken Cancel = CancelToken::create();
  Cancel.requestCancel();
  S.setLimits(support::RunLimits(), Cancel);
  EXPECT_EQ(S.check(), smt::Result::Unknown);
}

//===----------------------------------------------------------------------===//
// Proof-engine budgets.
//===----------------------------------------------------------------------===//

/// The negative_test baseline: `add x0, x0, #5; ret` with a correct spec,
/// so any failure below comes from the injected guard, not the proof.
struct AddFixture {
  frontend::Verifier V{frontend::aarch64()};
  std::vector<std::unique_ptr<Spec>> Owned;
  AddFixture() {
    V.addCode({{0x1000, e::addImm(0, 0, 5)}, {0x1004, e::ret()}});
    std::string Err;
    EXPECT_TRUE(V.generateTraces(Err)) << Err;
  }

  bool verify() {
    smt::TermBuilder &TB = V.builder();
    Owned.push_back(std::make_unique<Spec>(V.makeSpec("post")));
    Spec *Post = Owned.back().get();
    const Term *PX = Post->param(64, "px");
    Post->reg(Reg("R0"), TB.bvAdd(PX, TB.constBV(64, 5)));
    Owned.push_back(std::make_unique<Spec>(V.makeSpec("entry")));
    Spec *Entry = Owned.back().get();
    const Term *X = Entry->evar(64, "x");
    const Term *R = Entry->evar(64, "r");
    Entry->reg(Reg("R0"), X);
    Entry->reg(Reg("R30"), R);
    Entry->instrPre(R, Post, {X});
    V.engine().registerSpec(0x1000, Entry);
    return V.engine().verifyAll();
  }
};

TEST(GuardTest, InstrBudgetExhaustedIsAttributed) {
  AddFixture F;
  // Budget counts instruction *continuations*; 0 trips at the first jump.
  F.V.engine().MaxInstrsPerPath = 0;
  EXPECT_FALSE(F.verify());
  EXPECT_EQ(F.V.engine().diag().Code, ErrorCode::InstrBudgetExhausted);
  EXPECT_NE(F.V.engine().error().find("instruction budget"),
            std::string::npos)
      << F.V.engine().error();
}

TEST(GuardTest, CancelledProofSearchIsAttributed) {
  AddFixture F;
  CancelToken Cancel = CancelToken::create();
  Cancel.requestCancel();
  F.V.engine().setLimits(support::RunLimits(), Cancel);
  EXPECT_FALSE(F.verify());
  EXPECT_EQ(F.V.engine().diag().Code, ErrorCode::Cancelled);
  EXPECT_TRUE(support::isInfrastructureError(F.V.engine().diag().Code));
}

TEST(GuardTest, SolverGiveUpWithdrawsTheVerdict) {
  // Every check Unknown: the engine must report an attributed failure —
  // "proven" here would be a silently wrong verdict.
  FaultInjector FI;
  FI.failFirst(FaultSite::SolverUnknown, 100000);
  AddFixture F; // trace generation runs fault-free
  ScopedFaults SF(&FI);
  EXPECT_FALSE(F.verify());
  EXPECT_TRUE(support::isInfrastructureError(F.V.engine().diag().Code))
      << support::errorCodeName(F.V.engine().diag().Code);
}

TEST(GuardTest, EngineBeforeTracesFailsInsteadOfAsserting) {
  frontend::Verifier V(frontend::aarch64());
  // No addCode / generateTraces: the engine is empty but well-defined.
  Spec Entry = V.makeSpec("entry");
  const Term *R = Entry.evar(64, "r");
  Entry.reg(Reg("R30"), R);
  V.engine().registerSpec(0x1000, &Entry);
  EXPECT_FALSE(V.engine().verifyAll());
  EXPECT_FALSE(V.engine().error().empty());
}

//===----------------------------------------------------------------------===//
// Batch driver: exception containment, retries, quarantine.
//===----------------------------------------------------------------------===//

TEST(BatchDriverTest, ExceptionIsContainedAndBatchDrains) {
  FaultInjector FI;
  FI.failFirst(FaultSite::ExecThrow, 1); // first execution throws
  ScopedFaults SF(&FI);
  isla::Assumptions A = el1Assumptions();
  // No retries: the throw must surface.
  std::vector<cache::TraceJob> Jobs = {makeJob(A, e::addImm(0, 0, 1), 0, 0),
                                       makeJob(A, e::addImm(1, 1, 2), 1, 0)};
  cache::BatchDriver D(1); // serial: deterministic probe order
  auto Rs = D.run(Jobs, nullptr);
  ASSERT_EQ(Rs.size(), 2u);
  // Groups execute in fingerprint order, not submission order, so which of
  // the two jobs catches the injected throw is arbitrary — but exactly one
  // must fail with a contained exception, and the other must still finish.
  unsigned NumOk = 0, NumThrew = 0;
  for (const cache::TraceJobResult &R : Rs) {
    if (R.Ok) {
      ++NumOk;
      continue;
    }
    EXPECT_EQ(R.D.Code, ErrorCode::JobException);
    EXPECT_NE(R.Error.find("exception escaped trace job"), std::string::npos);
    ++NumThrew;
  }
  EXPECT_EQ(NumOk, 1u);
  EXPECT_EQ(NumThrew, 1u);
  EXPECT_EQ(D.lastStats().Exceptions, 1u);
  EXPECT_EQ(D.lastStats().Failed, 1u);
}

TEST(BatchDriverTest, RetryRecoversFromTransientFault) {
  FaultInjector FI;
  FI.failFirst(FaultSite::ExecStep, 1); // only the first attempt faults
  ScopedFaults SF(&FI);
  isla::Assumptions A = el1Assumptions();
  std::vector<cache::TraceJob> Jobs = {makeJob(A, e::addImm(0, 0, 3))};
  cache::BatchDriver D(1); // the job's limits allow one retry
  auto Rs = D.run(Jobs, nullptr);
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_TRUE(Rs[0].Ok) << Rs[0].Error;
  EXPECT_EQ(Rs[0].Attempts, 2u);
  EXPECT_EQ(D.lastStats().Retries, 1u);
  EXPECT_EQ(D.lastStats().Failed, 0u);
}

TEST(BatchDriverTest, ExhaustedRetriesQuarantineWithLastDiag) {
  FaultInjector FI;
  FI.failFirst(FaultSite::ExecStep, 100); // every attempt faults
  ScopedFaults SF(&FI);
  isla::Assumptions A = el1Assumptions();
  std::vector<cache::TraceJob> Jobs = {
      makeJob(A, e::addImm(0, 0, 3), 0, 2)};
  cache::BatchDriver D(1);
  auto Rs = D.run(Jobs, nullptr);
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_FALSE(Rs[0].Ok);
  EXPECT_EQ(Rs[0].Attempts, 3u); // 1 try + 2 retries
  EXPECT_EQ(Rs[0].D.Code, ErrorCode::InjectedFault);
  EXPECT_EQ(D.lastStats().Retries, 2u);
}

TEST(BatchDriverTest, IncompleteJobFailsWithoutCrashing) {
  isla::Assumptions A = el1Assumptions();
  cache::TraceJob Bad; // null Model/Assume: submitter bug, not a segfault
  std::vector<cache::TraceJob> Jobs = {Bad, makeJob(A, e::addImm(0, 0, 1))};
  cache::BatchDriver D(1);
  auto Rs = D.run(Jobs, nullptr);
  ASSERT_EQ(Rs.size(), 2u);
  EXPECT_FALSE(Rs[0].Ok);
  EXPECT_EQ(Rs[0].D.Code, ErrorCode::Internal);
  EXPECT_TRUE(Rs[1].Ok);
}

TEST(BatchDriverTest, CancelledJobIsRetriedThenQuarantined) {
  isla::Assumptions A = el1Assumptions();
  std::vector<cache::TraceJob> Jobs = {makeJob(A, e::addImm(0, 0, 1))};
  Jobs[0].Opts.Cancel = CancelToken::create();
  Jobs[0].Opts.Cancel.requestCancel(); // never completes
  cache::BatchDriver D(1);
  auto Rs = D.run(Jobs, nullptr);
  ASSERT_EQ(Rs.size(), 1u);
  EXPECT_FALSE(Rs[0].Ok);
  EXPECT_EQ(Rs[0].Attempts, 2u); // Cancelled is retryable
  EXPECT_EQ(Rs[0].D.Code, ErrorCode::Cancelled);
}

//===----------------------------------------------------------------------===//
// Malformed external inputs.
//===----------------------------------------------------------------------===//

TEST(MalformedInputTest, TruncatedAndGarbageTracesAreRejected) {
  // A real trace, then break it.
  smt::TermBuilder TB;
  isla::Executor Ex(models::aarch64Model(), TB);
  isla::Assumptions A = el1Assumptions();
  isla::ExecResult R =
      Ex.run(isla::OpcodeSpec::concrete(e::addImm(0, 0, 1)), A);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Good = R.Trace.toString();

  // Ill-sorted terms too: TermBuilder only asserts operand sorts.
  for (const std::string &Bad :
       {Good.substr(0, Good.size() / 2), std::string("(trace (xyz"),
        std::string("\x01\x02garbage\xff"), std::string("()"),
        std::string(),
        std::string("(trace (assert (= #x01 (bvadd #x01 #b1))))"),
        std::string("(trace (assert (and true #x01)))"),
        std::string("(trace (assert (ite #b1 true false)))"),
        std::string("(trace (assert (bvult #x01 #x02 #x03)))"),
        std::string("(trace (assert (not #x01)))"),
        std::string("(trace (assert #x01))"),
        std::string("(trace (read-mem #x01 #x0000000000000000 8))"),
        std::string("(trace (define-const v ((_ zero_extend 65536) #x01)))"),
        // The whole input must be one trace.
        std::string("(trace) (assert junk"), std::string("(trace)(trace)")}) {
    smt::TermBuilder TB2;
    itl::TraceParser P(TB2);
    auto T = P.parseTrace(Bad);
    EXPECT_FALSE(T.has_value());
    EXPECT_FALSE(P.error().empty());
  }
}

// The parser recurses once per paren level, so nesting is capped: a
// forged store entry nested a million deep is a parse error, not a stack
// overflow on a worker thread (std::thread's default stack).
TEST(MalformedInputTest, DeeplyNestedTraceIsRefusedOnAThread) {
  constexpr size_t Deep = 1000000;
  std::string Terms = "(trace (assert ", Cases;
  for (size_t I = 0; I < Deep; ++I) {
    Terms += "(not ";
    Cases += "(trace (cases ";
  }
  Terms += "true" + std::string(Deep, ')') + "))";
  Cases += "(trace)" + std::string(2 * Deep, ')');
  for (const std::string *Text : {&Terms, &Cases}) {
    bool Parsed = true;
    std::string Err;
    std::thread Worker([&] {
      smt::TermBuilder TB;
      itl::TraceParser P(TB);
      Parsed = P.parseTrace(*Text).has_value();
      Err = P.error();
    });
    Worker.join();
    EXPECT_FALSE(Parsed);
    EXPECT_NE(Err.find("nesting deeper than"), std::string::npos) << Err;
  }
}

TEST(MalformedInputTest, MalformedObjdumpLinesAreRejected) {
  std::string Err;
  // Non-hex opcode token after the address.
  EXPECT_FALSE(frontend::parseObjdump("  400000:\tZZZZZZZZ \tnop\n", Err));
  EXPECT_FALSE(Err.empty());
  Err.clear();
  // Opcode token too wide for 32 bits.
  EXPECT_FALSE(
      frontend::parseObjdump("  400000:\tb40000e2b4 \tnop\n", Err));
  EXPECT_FALSE(Err.empty());
  Err.clear();
  // Duplicate address.
  EXPECT_FALSE(frontend::parseObjdump(
      "  400000:\tb40000e2 \tcbz\n  400000:\td65f03c0 \tret\n", Err));
  EXPECT_NE(Err.find("duplicate"), std::string::npos);
}

TEST(MalformedInputTest, ParseHexIsOverflowCheckedAndBounded) {
  uint64_t V = 7;
  EXPECT_TRUE(support::parseHex("00000000fFfFfFfF", 0xffffffffu, V));
  EXPECT_EQ(V, 0xffffffffu);
  EXPECT_FALSE(support::parseHex("100000000", 0xffffffffu, V));
  EXPECT_TRUE(support::parseHex("ffffffffffffffff", UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
  for (const char *Bad : {"", "0x10", "ffffffffffffffff0", "1 ", "-1", "g"})
    EXPECT_FALSE(support::parseHex(Bad, UINT64_MAX, V)) << Bad;
  EXPECT_EQ(V, UINT64_MAX); // untouched by a refusal
}

TEST(MalformedInputTest, ParseIntegerIsDecimalOrHexAndNeverOctal) {
  uint64_t V = 7;
  EXPECT_TRUE(support::parseInteger("010", UINT64_MAX, V));
  EXPECT_EQ(V, 10u); // no octal
  EXPECT_TRUE(support::parseInteger("0x10", UINT64_MAX, V));
  EXPECT_EQ(V, 16u);
  EXPECT_TRUE(support::parseInteger("0XfF", UINT64_MAX, V));
  EXPECT_EQ(V, 255u);
  EXPECT_TRUE(support::parseInteger("18446744073709551615", UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
  EXPECT_FALSE(support::parseInteger("256", 255, V));
  EXPECT_FALSE(support::parseInteger("0x100", 255, V));
  for (const char *Bad :
       {"", "-1", "+1", " 1", "1 ", "abc", "12abc", "1e999", "1.5", "0x",
        "0x-1", "0xg", "x10", "18446744073709551616", "0x10000000000000000",
        "99999999999999999999999999999999999999999999999999"})
    EXPECT_FALSE(support::parseInteger(Bad, UINT64_MAX, V)) << Bad;
  EXPECT_EQ(V, UINT64_MAX); // untouched by a refusal
}

TEST(MalformedInputTest, ParseDoubleTakesTheWholeTokenAndOnlyFiniteValues) {
  double D = 7;
  EXPECT_TRUE(support::parseDouble("0.25", D));
  EXPECT_EQ(D, 0.25);
  EXPECT_TRUE(support::parseDouble("1e-3", D));
  EXPECT_EQ(D, 1e-3);
  EXPECT_TRUE(support::parseDouble("10", D));
  EXPECT_EQ(D, 10.0);
  EXPECT_TRUE(support::parseDouble("-1", D)); // callers bound the sign
  EXPECT_EQ(D, -1.0);
  EXPECT_TRUE(support::parseDouble("0x1.8p+1", D));
  EXPECT_EQ(D, 3.0);
  EXPECT_TRUE(support::parseDouble("-0x1p-2", D));
  EXPECT_EQ(D, -0.25);
  std::string Long(400, '9');
  for (std::string Bad :
       {std::string(), std::string("1e999"), std::string("-1e999"),
        std::string("abc"), std::string("0.5x"), std::string("1 "),
        std::string(" 1"), std::string("+1"), std::string("-"),
        std::string("--1"), std::string("0x"), std::string("0x-1p0"),
        std::string("inf"), std::string("nan"), std::string("-inf"),
        std::string("1,5"), Long})
    EXPECT_FALSE(support::parseDouble(Bad, D)) << Bad;
  EXPECT_EQ(D, -0.25); // untouched by a refusal
  // Every double the wire prints with "%a" reads back bit for bit.
  for (double X : {0.0, -0.0, 1.0 / 3, 1e-310, 1.7976931348623157e308,
                   12345.678, -2.5e-7}) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%a", X);
    double Y = 0;
    ASSERT_TRUE(support::parseDouble(Buf, Y)) << Buf;
    EXPECT_EQ(std::memcmp(&X, &Y, sizeof X), 0) << Buf;
  }
}

TEST(MalformedInputTest, OverlongSailIntegerLiteralIsALexError) {
  std::string Err;
  std::unique_ptr<sail::Model> M;
  EXPECT_NO_THROW(
      M = sail::parseModel("val x = 99999999999999999999999999\n", Err));
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
  EXPECT_NE(Err.find("integer literal out of range"), std::string::npos)
      << Err;
}

TEST(MalformedInputTest, OverlongObjdumpAddressesAreRejected) {
  // Seventeen and nineteen hex digits do not fit 64 bits; neither may
  // saturate to 0xffffffffffffffff and parse as a real address.
  std::string Err;
  EXPECT_FALSE(frontend::parseObjdump("ffffffffffffffff0 <a>:\n", Err));
  EXPECT_NE(Err.find("does not fit 64 bits"), std::string::npos) << Err;
  Err.clear();
  EXPECT_FALSE(
      frontend::parseObjdump("1000000000000400000:\td503201f\n", Err));
  EXPECT_NE(Err.find("does not fit 64 bits"), std::string::npos) << Err;
  // Sixteen digits is the widest address, and still parses.
  Err.clear();
  auto Img = frontend::parseObjdump(
      "ffffffffffffffff <top>:\n  fffffffffffffffc:\td503201f \tnop\n", Err);
  ASSERT_TRUE(Img.has_value()) << Err;
  EXPECT_EQ(*Img->lookup("top"), 0xffffffffffffffffull);
  EXPECT_EQ(Img->Code.at(0xfffffffffffffffcull), 0xd503201fu);
}

TEST(MalformedInputTest, SymbolLookupIsReleaseSafe) {
  std::string Err;
  auto Img = frontend::parseObjdump(
      "0000000000400000 <memcpy>:\n  400000:\td65f03c0 \tret\n", Err);
  ASSERT_TRUE(Img.has_value()) << Err;
  EXPECT_TRUE(Img->lookup("memcpy").has_value());
  EXPECT_EQ(*Img->lookup("memcpy"), 0x400000u);
  EXPECT_FALSE(Img->lookup("no_such_symbol").has_value());
}

TEST(MalformedInputTest, OverlappingAddCodeIsADiagNotUB) {
  frontend::Verifier V(frontend::aarch64());
  V.addCode({{0x1000, e::addImm(0, 0, 5)}});
  V.addCode({{0x1000, e::ret()}}); // overlap: recorded, not asserted
  std::string Err;
  EXPECT_FALSE(V.generateTraces(Err));
  EXPECT_EQ(V.diag().Code, ErrorCode::OverlappingCode);
  EXPECT_NE(Err.find("overlapping"), std::string::npos) << Err;
}

TEST(MalformedInputTest, SymbolicAtUnknownAddressIsADiag) {
  frontend::Verifier V(frontend::aarch64());
  V.symbolicAt(0xdead, 21, 10); // no code there
  std::string Err;
  EXPECT_FALSE(V.generateTraces(Err));
  EXPECT_EQ(V.diag().Code, ErrorCode::UnknownSymbol);
}

//===----------------------------------------------------------------------===//
// Persistent caches: corruption detection and self-repair.
//===----------------------------------------------------------------------===//

/// On-disk path of an entry under the sharded fan-out layout
/// (dir/<first hex byte>/<hex><ext>).
static std::string shardedPath(const std::string &Dir,
                               const cache::Fingerprint &K,
                               const std::string &Ext) {
  std::string Hex = K.toHex();
  return Dir + "/" + Hex.substr(0, 2) + "/" + Hex + Ext;
}

TEST(CacheFaultTest, CorruptTraceEntryIsAMissAndSelfRepairs) {
  ScopedDir Dir("trace-corrupt");
  cache::TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Dir.Path;

  isla::Assumptions A = el1Assumptions();
  std::vector<cache::TraceJob> Jobs = {makeJob(A, e::addImm(0, 0, 9))};

  cache::Fingerprint Key;
  {
    cache::TraceCache C(Cfg);
    cache::BatchDriver D(1);
    auto Rs = D.run(Jobs, &C);
    ASSERT_TRUE(Rs[0].Ok) << Rs[0].Error;
    Key = Rs[0].Key;
    ASSERT_EQ(C.stats().DiskWrites, 1u);
  }

  // Corrupt the entry on disk.
  std::string Path = shardedPath(Dir.Path, Key, ".itc");
  ASSERT_TRUE(fs::exists(Path));
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "(islaris-trace-cache 1 not-even-a-key";
  }

  cache::TraceCache C2(Cfg);
  EXPECT_FALSE(C2.lookup(Key) != nullptr); // miss, not a crash
  EXPECT_EQ(C2.stats().CorruptRemoved, 1u);
  EXPECT_FALSE(fs::exists(Path)); // corpse deleted...

  // ...so a re-execution can repair the entry for good.
  cache::BatchDriver D2(1);
  auto Rs2 = D2.run(Jobs, &C2);
  ASSERT_TRUE(Rs2[0].Ok);
  EXPECT_TRUE(fs::exists(Path));
  cache::TraceCache C3(Cfg);
  EXPECT_TRUE(C3.lookup(Key) != nullptr);
}

TEST(CacheFaultTest, TornWriteIsDetectedOnRead) {
  ScopedDir Dir("trace-torn");
  cache::TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Dir.Path;

  isla::Assumptions A = el1Assumptions();
  std::vector<cache::TraceJob> Jobs = {makeJob(A, e::addImm(0, 0, 11))};

  FaultInjector FI;
  FI.failFirst(FaultSite::CacheTornWrite, 1);
  cache::Fingerprint Key;
  {
    ScopedFaults SF(&FI);
    cache::TraceCache C(Cfg);
    cache::BatchDriver D(1);
    auto Rs = D.run(Jobs, &C);
    ASSERT_TRUE(Rs[0].Ok); // the job itself is unaffected
    Key = Rs[0].Key;
  }
  // The torn file WAS published — exactly the failure rename cannot mask.
  std::string Path = shardedPath(Dir.Path, Key, ".itc");
  ASSERT_TRUE(fs::exists(Path));

  cache::TraceCache C2(Cfg);
  EXPECT_FALSE(C2.lookup(Key) != nullptr); // detected, degraded to a miss
  EXPECT_EQ(C2.stats().CorruptRemoved, 1u);
  EXPECT_FALSE(fs::exists(Path));
}

TEST(CacheFaultTest, CorruptSideCondEntryIsAMissAndIsRemoved) {
  ScopedDir Dir("sidecond-corrupt");
  cache::SideCondConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Dir.Path;
  cache::SideCondStore S(Cfg);
  cache::Fingerprint Bundle = cache::Fingerprinter().str("proof").digest();
  cache::Fingerprint Goals = cache::Fingerprinter().str("goals").digest();

  smt::SolverCache::CachedResult R;
  R.Sat = false;
  auto B = S.openBundle(Bundle);
  B->store(Goals, R);
  B->publish();
  ASSERT_EQ(S.stats().DiskWrites, 1u);

  std::string Path = shardedPath(Dir.Path, Bundle, ".scc");
  ASSERT_TRUE(fs::exists(Path));
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "garbage that is not an s-expression";
  }

  cache::SideCondStore S2(Cfg);
  EXPECT_FALSE(S2.openBundle(Bundle)->lookup(
      Goals, {}, [](const smt::SolverCache::CachedResult &) { return true; }));
  EXPECT_EQ(S2.stats().CorruptRemoved, 1u);
  EXPECT_FALSE(fs::exists(Path));
}

TEST(CacheFaultTest, WriteAndRenameFaultsOnlySuppressTheEntry) {
  ScopedDir Dir("trace-wfail");
  cache::TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Dir.Path;

  isla::Assumptions A = el1Assumptions();
  FaultInjector FI;
  FI.failFirst(FaultSite::CacheWrite, 1);
  FI.failFirst(FaultSite::CacheRename, 1);
  ScopedFaults SF(&FI);

  cache::TraceCache C(Cfg);
  cache::BatchDriver D(1);
  // Two distinct jobs: first write fails outright, second loses its rename.
  std::vector<cache::TraceJob> Jobs = {makeJob(A, e::addImm(0, 0, 1), 0),
                                       makeJob(A, e::addImm(2, 2, 2), 1)};
  auto Rs = D.run(Jobs, &C);
  EXPECT_TRUE(Rs[0].Ok);
  EXPECT_TRUE(Rs[1].Ok);
  EXPECT_EQ(C.stats().DiskWrites, 0u);
  // No entry files and no orphaned temp files (empty shard directories
  // from the aborted writes are fine).  Generation bookkeeping
  // (generations.txt, manifests/) is exempt: it sits outside the
  // injected-fault domain, and a manifest line for a suppressed entry is
  // a harmless orphan by design.
  unsigned Files = 0;
  for (const auto &E : fs::recursive_directory_iterator(Dir.Path)) {
    if (!E.is_regular_file())
      continue;
    if (E.path().filename() == "generations.txt" ||
        E.path().parent_path().filename() == "manifests")
      continue;
    ++Files;
  }
  EXPECT_EQ(Files, 0u);
}

//===----------------------------------------------------------------------===//
// Fault specs from the environment.
//===----------------------------------------------------------------------===//

/// Sets (or, for null, unsets) an environment variable for one scope.
struct ScopedEnv {
  std::string Name;
  std::optional<std::string> Saved;
  ScopedEnv(const char *N, const char *Value) : Name(N) {
    if (const char *Old = std::getenv(N))
      Saved = Old;
    if (Value)
      ::setenv(N, Value, 1);
    else
      ::unsetenv(N);
  }
  ~ScopedEnv() {
    if (Saved)
      ::setenv(Name.c_str(), Saved->c_str(), 1);
    else
      ::unsetenv(Name.c_str());
  }
};

TEST(FaultSpecTest, WellFormedSpecsArmEverySite) {
  ScopedEnv Seed("ISLARIS_FAULT_SEED", "010");
  ScopedEnv Spec("ISLARIS_FAULTS",
                 "cache-read=0.25,exec-throw=first:3,crash-publish=at:0x10,");
  std::string Err;
  std::unique_ptr<FaultInjector> F = FaultInjector::fromEnv(Err);
  ASSERT_TRUE(F) << Err;
  EXPECT_TRUE(Err.empty());
  EXPECT_EQ(F->seed(), 10u); // decimal, not octal 8
  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(F->shouldFail(FaultSite::ExecThrow));
  EXPECT_FALSE(F->shouldFail(FaultSite::ExecThrow));
  for (int I = 0; I < 16; ++I)
    EXPECT_FALSE(F->shouldFail(FaultSite::CrashPublish));
  EXPECT_TRUE(F->shouldFail(FaultSite::CrashPublish)); // probe 0x10
}

TEST(FaultSpecTest, UnsetOrEmptySpecIsNoInjectorAndNoError) {
  for (const char *V : {(const char *)nullptr, ""}) {
    ScopedEnv Spec("ISLARIS_FAULTS", V);
    ScopedEnv Seed("ISLARIS_FAULT_SEED", "not-a-seed"); // unread
    std::string Err;
    EXPECT_FALSE(FaultInjector::fromEnv(Err));
    EXPECT_TRUE(Err.empty()) << Err;
  }
}

TEST(FaultSpecTest, MalformedSpecIsAnErrorNamingTheEntry) {
  ScopedEnv Seed("ISLARIS_FAULT_SEED", nullptr);
  for (const char *Bad :
       {"cache-reed=0.1", "cache-read=1.5", "cache-read=-0.1",
        "cache-read=abc", "cache-read=0.1x", "cache-read", "=0.1",
        "exec-throw=first:", "exec-throw=first:x", "exec-throw=first:-1",
        "crash-publish=at:99999999999999999999", "cache-read=0.1,bogus=1"}) {
    ScopedEnv Spec("ISLARIS_FAULTS", Bad);
    std::string Err;
    EXPECT_FALSE(FaultInjector::fromEnv(Err)) << Bad;
    EXPECT_NE(Err.find("ISLARIS_FAULTS"), std::string::npos) << Err;
  }
  ScopedEnv Spec("ISLARIS_FAULTS", "cache-read=0.1");
  for (const char *Bad : {"abc", "-1", "12abc", "0x", ""}) {
    ScopedEnv BadSeed("ISLARIS_FAULT_SEED", Bad);
    std::string Err;
    EXPECT_FALSE(FaultInjector::fromEnv(Err)) << Bad;
    EXPECT_NE(Err.find("ISLARIS_FAULT_SEED"), std::string::npos) << Err;
  }
}

TEST(FaultSpecTest, MalformedSpecFailsTheSuiteAsInfrastructure) {
  ASSERT_EQ(FaultInjector::active(), nullptr);
  ScopedEnv Spec("ISLARIS_FAULTS", "cache-reed=0.1");
  std::vector<frontend::CaseResult> Rows = frontend::runAllCaseStudies();
  ASSERT_EQ(Rows.size(), frontend::caseStudies().size());
  for (const frontend::CaseResult &R : Rows) {
    EXPECT_FALSE(R.Ok) << R.Name;
    EXPECT_NE(R.Error.find("cache-reed"), std::string::npos) << R.Error;
  }
  EXPECT_EQ(frontend::suiteExitCode(Rows), 2);
  EXPECT_EQ(FaultInjector::active(), nullptr);
}

//===----------------------------------------------------------------------===//
// Suite aggregation.
//===----------------------------------------------------------------------===//

TEST(SuiteAggregationTest, ExitCodeSeparatesProofFromInfrastructure) {
  using frontend::CaseResult;
  CaseResult Pass;
  Pass.Ok = true;
  CaseResult ProofFail;
  ProofFail.Ok = false;
  ProofFail.D = support::Diag::error(ErrorCode::ProofFailed, "proof-engine",
                                     "cannot prove");
  CaseResult Infra;
  Infra.Ok = false;
  Infra.D = support::Diag::error(ErrorCode::JobTimeout, "batch-driver",
                                 "job exceeded wall clock");

  EXPECT_EQ(frontend::suiteExitCode({Pass, Pass}), 0);
  EXPECT_EQ(frontend::suiteExitCode({Pass, ProofFail}), 1);
  EXPECT_EQ(frontend::suiteExitCode({Pass, ProofFail, Infra}), 2);

  frontend::SuiteSummary S =
      frontend::summarize({Pass, ProofFail, Infra, Pass});
  EXPECT_EQ(S.Passed, 2u);
  EXPECT_EQ(S.ProofFailures, 1u);
  EXPECT_EQ(S.InfraErrors, 1u);
  EXPECT_FALSE(S.allOk());
}

TEST(SuiteAggregationTest, DiagRenderNamesCodeAndStage) {
  support::Diag D = support::Diag::error(ErrorCode::SolverBudgetExceeded,
                                         "smt", "gave up");
  std::string Text = D.render();
  EXPECT_NE(Text.find("solver-budget-exceeded"), std::string::npos) << Text;
  EXPECT_NE(Text.find("smt"), std::string::npos);
  EXPECT_NE(Text.find("gave up"), std::string::npos);
}

} // namespace
