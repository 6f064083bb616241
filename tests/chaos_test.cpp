//===- tests/chaos_test.cpp - Fault-injected end-to-end suite runs --------------===//
//
// The pipeline-level fault-tolerance property: under injected cache I/O
// faults, spurious solver give-ups, corrupted solver models, and transient
// executor faults, every Fig. 12 case study either verifies with results
// bit-identical to the fault-free run or fails with a cleanly attributed
// infrastructure diagnostic.  Never a crash, never a hang, never a silently
// different verdict.
//
//===----------------------------------------------------------------------===//

#include "cache/SideCondCache.h"
#include "cache/TraceCache.h"
#include "frontend/CaseStudies.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace islaris;
using islaris::frontend::CaseResult;
using islaris::frontend::SuiteOptions;
using islaris::support::FaultInjector;
using islaris::support::FaultSite;

namespace {

namespace fs = std::filesystem;

struct ScopedDir {
  std::string Path;
  explicit ScopedDir(const std::string &Name) : Path("chaos-scratch-" + Name) {
    std::error_code EC;
    fs::remove_all(Path, EC);
    fs::create_directories(Path, EC);
  }
  ~ScopedDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
};

/// The fault-free reference run, computed once: the suite is deterministic,
/// so these rows are the ground truth every chaos run is compared against.
const std::vector<CaseResult> &baseline() {
  static const std::vector<CaseResult> B = [] {
    SuiteOptions O;
    O.Threads = 2;
    return runAllCaseStudies(O);
  }();
  return B;
}

/// A chaos run's row must match the baseline row exactly — same verdict,
/// same error, same measured trace/spec shape — or be a cleanly attributed
/// infrastructure failure.  Anything else (a crash would never reach here;
/// a different Ok-result would be a silently wrong verdict) is a bug.
void expectIdenticalOrAttributed(const std::vector<CaseResult> &Run,
                                 const char *Tag) {
  const std::vector<CaseResult> &Base = baseline();
  ASSERT_EQ(Run.size(), Base.size());
  for (size_t I = 0; I < Run.size(); ++I) {
    const CaseResult &R = Run[I], &B = Base[I];
    if (R.Ok) {
      EXPECT_EQ(B.Ok, true) << Tag << ": " << B.Name
                            << " passed under faults but not fault-free";
      EXPECT_EQ(R.Error, B.Error) << Tag << ": " << R.Name;
      EXPECT_EQ(R.AsmInstrs, B.AsmInstrs) << Tag << ": " << R.Name;
      EXPECT_EQ(R.ItlEvents, B.ItlEvents) << Tag << ": " << R.Name;
      EXPECT_EQ(R.SpecSize, B.SpecSize) << Tag << ": " << R.Name;
      continue;
    }
    // A failing row must carry an infrastructure diagnostic attributing
    // the failure to the injected fault machinery, not a proof failure
    // the fault-free run never saw.
    EXPECT_TRUE(support::isInfrastructureError(R.D.Code))
        << Tag << ": " << R.Name << " failed with ["
        << support::errorCodeName(R.D.Code) << "] " << R.Error;
    EXPECT_FALSE(R.Error.empty()) << Tag << ": " << R.Name;
  }
}

TEST(ChaosTest, BaselineAllNineVerify) {
  for (const CaseResult &R : baseline())
    EXPECT_TRUE(R.Ok) << R.Name << " (" << R.Isa << "): " << R.Error;
  EXPECT_EQ(frontend::suiteExitCode(baseline()), 0);
}

TEST(ChaosTest, CacheIoFaultsNeverChangeResults) {
  // Cache faults can only cost performance: a failed read is a miss, a
  // failed write loses an entry, a torn write publishes a corrupt file the
  // next reader must detect and self-repair.  Verdicts and measurements
  // must be bit-identical to fault-free, on BOTH runs — the second run
  // reads the possibly-torn leftovers of the first through cold caches.
  ScopedDir TraceDir("trace");
  ScopedDir SideDir("side");
  FaultInjector FI(/*Seed=*/42);
  FI.setRate(FaultSite::CacheRead, 0.3);
  FI.setRate(FaultSite::CacheWrite, 0.2);
  FI.setRate(FaultSite::CacheRename, 0.2);
  FI.setRate(FaultSite::CacheTornWrite, 0.3);

  for (int Round = 0; Round < 2; ++Round) {
    cache::TraceCacheConfig TC;
    TC.Persist = true;
    TC.Dir = TraceDir.Path;
    cache::TraceCache Trace(TC);
    cache::SideCondConfig SC;
    SC.Persist = true;
    SC.Dir = SideDir.Path;
    cache::SideCondStore Side(SC);

    SuiteOptions O;
    O.Threads = 2;
    O.Cache = &Trace;
    O.SideCond = &Side;
    O.Faults = &FI;
    std::vector<CaseResult> Run = runAllCaseStudies(O);
    for (const CaseResult &R : Run)
      EXPECT_TRUE(R.Ok) << "round " << Round << ": " << R.Name << ": "
                        << R.Error;
    expectIdenticalOrAttributed(Run, Round ? "cache-faults/warm"
                                           : "cache-faults/cold");
  }
  // The injector actually fired (otherwise this test proves nothing).
  EXPECT_GT(FI.injected(FaultSite::CacheRead) +
                FI.injected(FaultSite::CacheWrite) +
                FI.injected(FaultSite::CacheTornWrite),
            0u);
}

TEST(ChaosTest, SpuriousSolverUnknownsAreIdenticalOrAttributed) {
  FaultInjector FI(/*Seed=*/7);
  FI.setRate(FaultSite::SolverUnknown, 0.02);
  SuiteOptions O;
  O.Threads = 2;
  O.Faults = &FI;
  std::vector<CaseResult> Run = runAllCaseStudies(O);
  expectIdenticalOrAttributed(Run, "solver-unknown");
  EXPECT_GT(FI.probes(FaultSite::SolverUnknown), 0u);
}

// A flipped bit in a SAT-core model either still satisfies the goals (the
// model was not unique in that bit) or is caught by the solver's Evaluator
// check and answered Unknown, which callers attribute: never a verdict
// built on a wrong model.
TEST(ChaosTest, CorruptCoreModelsAreIdenticalOrAttributed) {
  FaultInjector FI(/*Seed=*/11);
  FI.setRate(FaultSite::SolverModel, 0.2);
  SuiteOptions O;
  O.Threads = 2;
  O.Faults = &FI;
  std::vector<CaseResult> Run = runAllCaseStudies(O);
  expectIdenticalOrAttributed(Run, "solver-model");
  EXPECT_GT(FI.injected(FaultSite::SolverModel), 0u);
}

TEST(ChaosTest, TransientExecutorFaultsRetryOrAttribute) {
  FaultInjector FI(/*Seed=*/1234);
  FI.setRate(FaultSite::ExecStep, 0.05);
  FI.setRate(FaultSite::ExecThrow, 0.02);
  SuiteOptions O;
  O.Threads = 2;
  O.Faults = &FI;
  O.Limits.JobRetries = 3; // transient faults should mostly retry through
  std::vector<CaseResult> Run = runAllCaseStudies(O);
  expectIdenticalOrAttributed(Run, "exec-faults");
  EXPECT_GT(FI.probes(FaultSite::ExecStep), 0u);
}

TEST(ChaosTest, EverythingAtOnceStillNeverLies) {
  ScopedDir TraceDir("all-trace");
  FaultInjector FI(/*Seed=*/99);
  FI.setRate(FaultSite::CacheRead, 0.2);
  FI.setRate(FaultSite::CacheTornWrite, 0.2);
  FI.setRate(FaultSite::SolverUnknown, 0.01);
  FI.setRate(FaultSite::ExecStep, 0.02);

  cache::TraceCacheConfig TC;
  TC.Persist = true;
  TC.Dir = TraceDir.Path;
  cache::TraceCache Trace(TC);

  SuiteOptions O;
  O.Threads = 2;
  O.Cache = &Trace;
  O.Faults = &FI;
  O.Limits.JobRetries = 2;
  std::vector<CaseResult> Run = runAllCaseStudies(O);
  expectIdenticalOrAttributed(Run, "everything");
  // Aggregation: the run completed; its exit code reflects whether any
  // study was lost to the injected faults.
  int Exit = frontend::suiteExitCode(Run);
  frontend::SuiteSummary S = frontend::summarize(Run);
  EXPECT_EQ(S.ProofFailures, 0u); // faults must never look like proof bugs
  EXPECT_EQ(Exit, S.InfraErrors ? 2 : 0);
}

} // namespace
