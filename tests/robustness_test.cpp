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
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

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

  for (const std::string &Bad :
       {Good.substr(0, Good.size() / 2), std::string("(trace (xyz"),
        std::string("\x01\x02garbage\xff"), std::string("()"),
        std::string()}) {
    smt::TermBuilder TB2;
    itl::TraceParser P(TB2);
    auto T = P.parseTrace(Bad);
    EXPECT_FALSE(T.has_value());
    EXPECT_FALSE(P.error().empty());
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
  EXPECT_FALSE(C2.lookup(Key).has_value()); // miss, not a crash
  EXPECT_EQ(C2.stats().CorruptRemoved, 1u);
  EXPECT_FALSE(fs::exists(Path)); // corpse deleted...

  // ...so a re-execution can repair the entry for good.
  cache::BatchDriver D2(1);
  auto Rs2 = D2.run(Jobs, &C2);
  ASSERT_TRUE(Rs2[0].Ok);
  EXPECT_TRUE(fs::exists(Path));
  cache::TraceCache C3(Cfg);
  EXPECT_TRUE(C3.lookup(Key).has_value());
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
  EXPECT_FALSE(C2.lookup(Key).has_value()); // detected, degraded to a miss
  EXPECT_EQ(C2.stats().CorruptRemoved, 1u);
  EXPECT_FALSE(fs::exists(Path));
}

TEST(CacheFaultTest, CorruptSideCondEntryIsAMissAndIsRemoved) {
  ScopedDir Dir("sidecond-corrupt");
  cache::SideCondConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = Dir.Path;
  cache::SideCondStore S(Cfg);

  smt::SolverCache::CachedResult R;
  R.Sat = false;
  S.store("(goals (= a b))", R);
  ASSERT_EQ(S.stats().DiskWrites, 1u);

  std::string Path =
      shardedPath(Dir.Path, S.key("(goals (= a b))"), ".scc");
  ASSERT_TRUE(fs::exists(Path));
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "garbage that is not an s-expression";
  }

  cache::SideCondStore S2(Cfg);
  EXPECT_FALSE(S2.lookup("(goals (= a b))").has_value());
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
