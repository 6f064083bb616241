//===- tests/crashstorm_test.cpp - Kill/resume crash-storm harness --------------===//
//
// The durability acceptance test: a nine-study suite run is killed hard
// (std::_Exit inside a store publish or a journal append, via the seeded
// crash-* fault sites) at several distinct abort points, restarted with the
// same options each time, and must converge — the final resumed run skips
// journaled work (JobsResumed > 0) and reproduces results bit-identical to
// a clean run, and a scrub of the surviving stores finds no corruption.
//
// The binary is its own child: when ISLARIS_CRASHSTORM_CHILD is set it runs
// one journaled suite pass instead of gtest (hence the custom main() below,
// linked against gtest but not gtest_main).  The parent fork/execs
// /proc/self/exe with ISLARIS_FAULTS="crash-publish=at:K" /
// "crash-journal=at:K" picking one abort point per run.
//
//===----------------------------------------------------------------------===//

#include "cache/Scrub.h"
#include "cache/SideCondCache.h"
#include "cache/TraceCache.h"
#include "frontend/CaseStudies.h"
#include "support/Parse.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace islaris;

namespace {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Child mode: one journaled, persistent, resumable suite pass.
//===----------------------------------------------------------------------===//

/// Runs the suite against the stores under $ISLARIS_CRASHSTORM_DIR and
/// publishes the rows (netstring-framed encodeCaseResult records behind a
/// "resumed <n>" summary line) at <dir>/results.txt.  The fault injector, if
/// any, comes from ISLARIS_FAULTS via the suite harness itself — exactly the
/// path an operator chaos-testing a real run would use.
int crashstormChild() {
  const char *Dir = std::getenv("ISLARIS_CRASHSTORM_DIR");
  if (!Dir || !*Dir)
    return 3;
  std::string Root(Dir);

  cache::TraceCacheConfig TC;
  TC.Persist = true;
  TC.Dir = Root + "/traces";
  cache::TraceCache Cache(TC);
  cache::SideCondConfig SC;
  SC.Persist = true;
  SC.Dir = Root + "/sidecond";
  cache::SideCondStore Store(SC);

  frontend::SuiteOptions O;
  O.Threads = 1; // deterministic probe order: abort points are reproducible
  O.Cache = &Cache;
  O.SideCond = &Store;
  O.JournalPath = Root + "/suite.journal";
  O.Resume = true;
  std::vector<frontend::CaseResult> Rows = frontend::runAllCaseStudies(O);

  std::ostringstream OS;
  OS << "resumed " << frontend::summarize(Rows).JobsResumed << "\n";
  for (const frontend::CaseResult &R : Rows) {
    std::string Enc = frontend::encodeCaseResult(R);
    OS << Enc.size() << ":" << Enc << "\n";
  }
  if (!cache::atomicWriteFile(Root + "/results.txt", OS.str()))
    return 3;
  return frontend::suiteExitCode(Rows);
}

//===----------------------------------------------------------------------===//
// Parent-side plumbing.
//===----------------------------------------------------------------------===//

std::string selfExePath() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof Buf - 1);
  if (N <= 0)
    return "";
  Buf[N] = '\0';
  return Buf;
}

/// fork/execs this binary in child mode over \p Dir with the given
/// ISLARIS_FAULTS value (null = fault-free).  Returns the child's exit code,
/// or -1 if it died of a signal.
int runChild(const std::string &Exe, const std::string &Dir,
             const char *Faults) {
  pid_t Pid = ::fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    ::setenv("ISLARIS_CRASHSTORM_CHILD", "1", 1);
    ::setenv("ISLARIS_CRASHSTORM_DIR", Dir.c_str(), 1);
    ::setenv("ISLARIS_NO_FSYNC", "1", 1); // crash, not power cut: keep it fast
    if (Faults)
      ::setenv("ISLARIS_FAULTS", Faults, 1);
    else
      ::unsetenv("ISLARIS_FAULTS");
    ::execl(Exe.c_str(), Exe.c_str(), (char *)nullptr);
    std::_Exit(127);
  }
  int Status = 0;
  if (::waitpid(Pid, &Status, 0) != Pid)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

bool readResults(const std::string &Dir,
                 std::vector<frontend::CaseResult> &Rows,
                 unsigned &Resumed) {
  std::ifstream In(Dir + "/results.txt", std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  std::string_view Prefix = "resumed ";
  size_t P = Text.find('\n');
  if (P == std::string::npos || Text.compare(0, Prefix.size(), Prefix) != 0 ||
      !support::parseUnsigned(
          std::string_view(Text).substr(Prefix.size(), P - Prefix.size()),
          UINT32_MAX, Resumed))
    return false;
  ++P;
  while (P < Text.size()) {
    size_t Colon = Text.find(':', P);
    if (Colon == std::string::npos)
      return false;
    uint64_t Len = 0;
    if (!support::parseUnsigned(std::string_view(Text).substr(P, Colon - P),
                                Text.size(), Len) ||
        Colon + 1 + Len > Text.size())
      return false;
    frontend::CaseResult R;
    if (!frontend::decodeCaseResult(Text.substr(Colon + 1, Len), R))
      return false;
    Rows.push_back(std::move(R));
    P = Colon + 1 + Len;
    if (P < Text.size() && Text[P] == '\n')
      ++P;
  }
  return true;
}

struct TempDir {
  fs::path Path;
  TempDir() {
    Path = fs::temp_directory_path() /
           ("islaris-crashstorm-" + std::to_string(::getpid()));
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() { fs::remove_all(Path); }
};

//===----------------------------------------------------------------------===//
// The storm.
//===----------------------------------------------------------------------===//

TEST(CrashStormTest, KilledRunsResumeToBitIdenticalResults) {
  std::string Exe = selfExePath();
  ASSERT_FALSE(Exe.empty());
  TempDir Tmp;
  std::string CleanDir = (Tmp.Path / "clean").string();
  std::string StormDir = (Tmp.Path / "storm").string();

  // 1. Fault-free baseline child: cold caches, fresh journal.
  ASSERT_EQ(runChild(Exe, CleanDir, nullptr), 0);
  std::vector<frontend::CaseResult> Baseline;
  unsigned CleanResumed = ~0u;
  ASSERT_TRUE(readResults(CleanDir, Baseline, CleanResumed));
  ASSERT_EQ(Baseline.size(), 9u);
  EXPECT_EQ(CleanResumed, 0u);
  for (const frontend::CaseResult &R : Baseline)
    EXPECT_TRUE(R.Ok) << R.Name << ": " << R.Error;

  // 2. The storm: the same resumable run is started over and over, each time
  // aborted hard at a different seeded point inside a store publish (before
  // the rename / between rename and directory sync) or a journal append
  // (before any byte / mid-record / after the sync).  A later abort index
  // that is never reached — because the journal already carries the work —
  // exits clean, which is itself the convergence we are proving.
  struct Kill {
    const char *Faults;
  };
  const Kill Schedule[] = {
      {"crash-journal=at:0"},  {"crash-publish=at:2"},
      {"crash-publish=at:8"},  {"crash-journal=at:1"},
      {"crash-publish=at:15"}, {"crash-publish=at:25"},
      {"crash-journal=at:2"},  {"crash-publish=at:40"},
  };
  unsigned Kills = 0;
  for (const Kill &K : Schedule) {
    int Exit = runChild(Exe, StormDir, K.Faults);
    ASSERT_TRUE(Exit == 42 || Exit == 0)
        << K.Faults << " exited " << Exit
        << " (42 = killed at the abort point, 0 = point not reached)";
    if (Exit == 42)
      ++Kills;
  }
  EXPECT_GE(Kills, 5u) << "the storm must actually kill the run at five or "
                          "more distinct abort points";

  // 3. Final fault-free run over the battered state: it must resume journaled
  // work rather than redo it, and its rows must be bit-identical to the clean
  // baseline on every deterministic field (timings and cache-locality
  // counters legitimately differ).
  ASSERT_EQ(runChild(Exe, StormDir, nullptr), 0);
  std::vector<frontend::CaseResult> Final;
  unsigned Resumed = 0;
  ASSERT_TRUE(readResults(StormDir, Final, Resumed));
  ASSERT_EQ(Final.size(), Baseline.size());
  EXPECT_GT(Resumed, 0u);
  for (size_t I = 0; I < Final.size(); ++I) {
    const frontend::CaseResult &A = Baseline[I], &B = Final[I];
    EXPECT_EQ(B.Name, A.Name);
    EXPECT_EQ(B.Isa, A.Isa) << A.Name;
    EXPECT_EQ(B.Ok, A.Ok) << A.Name;
    EXPECT_EQ(B.Error, A.Error) << A.Name;
    EXPECT_EQ(B.AsmInstrs, A.AsmInstrs) << A.Name;
    EXPECT_EQ(B.ItlEvents, A.ItlEvents) << A.Name;
    EXPECT_EQ(B.SpecSize, A.SpecSize) << A.Name;
    EXPECT_EQ(B.Hints, A.Hints) << A.Name;
    EXPECT_EQ(B.Proof.PathsVerified, A.Proof.PathsVerified) << A.Name;
    EXPECT_EQ(B.Proof.EventsProcessed, A.Proof.EventsProcessed) << A.Name;
    EXPECT_EQ(B.Proof.Entailments, A.Proof.Entailments) << A.Name;
    EXPECT_EQ(B.Proof.SolverQueries, A.Proof.SolverQueries) << A.Name;
  }

  // 4. The stores survived the storm coherent: every published entry
  // verifies in its shard (crashes can strand temp files, but never publish
  // torn data or misplace an entry).
  for (const char *Sub : {"/traces", "/sidecond"}) {
    cache::ScrubOptions SO;
    SO.Dir = StormDir + Sub;
    cache::ScrubReport Rep = cache::scrubStore(SO);
    EXPECT_EQ(Rep.Quarantined, 0u) << Sub;
    EXPECT_GT(Rep.OkEntries, 0u) << Sub;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Custom main: child mode bypasses gtest entirely.
//===----------------------------------------------------------------------===//

int main(int argc, char **argv) {
  if (std::getenv("ISLARIS_CRASHSTORM_CHILD"))
    return crashstormChild();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
