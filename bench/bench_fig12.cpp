//===- bench/bench_fig12.cpp - The Fig. 12 evaluation table (E1) ------------------===//
//
// Regenerates the paper's single evaluation table: for each case study,
// the code size, ITL event count, specification size, manual-hint count,
// symbolic-execution ("Isla") time and verification ("Coq") time, the
// latter split into separation-logic automation and side-condition solving
// as the paper splits its Coq column.  Paper reference values are printed
// alongside for shape comparison (absolute times are expected to differ:
// different machine, solver, and model scale).
//
//===----------------------------------------------------------------------===//

#include "frontend/CaseStudies.h"

#include "cache/SideCondCache.h"
#include "cache/TraceCache.h"

#include <cstdio>
#include <filesystem>

#include <unistd.h>

using islaris::frontend::CaseResult;

namespace {

struct PaperRow {
  const char *Name;
  const char *Isa;
  unsigned Asm, Itl, Spec, Proof;
  double IslaSec, CoqAutoSec, CoqSideSec;
};

// Fig. 12 of the paper (Coq time columns 1 and 2 of the '/' split).
const PaperRow Paper[] = {
    {"memcpy", "Arm", 8, 169, 20, 55, 6, 9, 2},
    {"memcpy", "RV", 8, 134, 19, 54, 1, 10, 4},
    {"hvc", "Arm", 13, 436, 93, 5, 10, 28, 5},
    {"pKVM", "Arm", 47, 1070, 159, 232, 37, 67, 16},
    {"unaligned", "Arm", 1, 104, 89, 29, 2, 10, 12},
    {"UART", "Arm", 14, 207, 33, 42, 10, 9, 3},
    {"rbit", "Arm", 2, 26, 18, 27, 3, 4, 73},
    {"bin.search", "Arm", 32, 741, 25, 146, 25, 54, 16},
    {"bin.search", "RV", 48, 801, 25, 108, 5, 63, 22},
};

} // namespace

int main() {
  std::printf("Fig. 12 reproduction: example sizes and times\n");
  std::printf("(per row: this reproduction / paper reference)\n\n");
  std::printf("%-11s %-4s | %13s | %13s | %11s | %11s | %15s | %23s\n",
              "Test", "ISA", "asm (rep/pap)", "ITL (rep/pap)",
              "Spec (r/p)", "Hints (r/p)", "Isla s (r/p)",
              "Verify s auto+side (r/p)");
  std::printf("--------------------------------------------------------------"
              "----------------------------------------------------\n");

  // The table is a cold run, as in the paper: the suite shares a
  // persistent trace cache and side-condition store in a fresh scratch
  // directory, removed at exit, so re-runs never print warm times or grow
  // a shared cache directory.  The reuse section below shows how much the
  // in-run dedup and stores served.
  namespace ifr = islaris::frontend;
  namespace ica = islaris::cache;
  std::string TableDir =
      (std::filesystem::temp_directory_path() /
       ("islaris-fig12-bench-" + std::to_string(uint64_t(::getpid()))))
          .string();
  std::error_code EC;
  std::filesystem::remove_all(TableDir, EC);
  ica::TraceCacheConfig TCfg;
  TCfg.Persist = true;
  TCfg.Dir = TableDir;
  ica::TraceCache PersistCache(TCfg);
  ica::SideCondConfig PCfg;
  PCfg.Persist = true;
  PCfg.Dir = TableDir + "/sidecond";
  ica::SideCondStore PersistSide(PCfg);
  ifr::SuiteOptions MainOpts;
  MainOpts.Cache = &PersistCache;
  MainOpts.SideCond = &PersistSide;
  std::vector<CaseResult> Rows =
      islaris::frontend::runAllCaseStudies(MainOpts);
  bool AllOk = true;
  for (size_t I = 0; I < Rows.size(); ++I) {
    const CaseResult &R = Rows[I];
    const PaperRow &P = Paper[I];
    if (!R.Ok) {
      std::printf("%-11s %-4s | FAILED: %s\n", R.Name.c_str(),
                  R.Isa.c_str(), R.D.render().c_str());
      AllOk = false;
      continue;
    }
    std::printf("%-11s %-4s | %5u / %5u | %5u / %5u | %4u / %4u | "
                "%4u / %4u | %6.2f / %5.0f | %5.2f + %5.2f / %3.0f + %3.0f\n",
                R.Name.c_str(), R.Isa.c_str(), R.AsmInstrs, P.Asm,
                R.ItlEvents, P.Itl, R.SpecSize, P.Spec, R.Hints, P.Proof,
                R.IslaSeconds, P.IslaSec, R.Proof.automationSeconds(),
                R.Proof.SideCondSeconds, P.CoqAutoSec, P.CoqSideSec);
  }
  // Trace-generation reuse: before the trace-cache subsystem this was
  // invisible — deduped/cached instructions silently shrank "Isla s".
  // Surface it so the time column can be read against the work performed.
  std::printf("\nTrace generation reuse (per row: executed + deduped + "
              "cache hits = asm):\n");
  unsigned TotExec = 0, TotDedup = 0, TotHits = 0, TotInstr = 0,
           TotMemo = 0;
  for (const CaseResult &R : Rows) {
    if (!R.Ok)
      continue;
    std::printf("  %-11s %-4s : %3u + %3u + %3u = %3u\n", R.Name.c_str(),
                R.Isa.c_str(), R.TracesExecuted, R.Deduped, R.CacheHits,
                R.AsmInstrs);
    TotExec += R.TracesExecuted;
    TotDedup += R.Deduped;
    TotHits += R.CacheHits;
    TotInstr += R.AsmInstrs;
    TotMemo += R.IslaMemoHits;
  }
  if (TotInstr)
    std::printf("  total: %u of %u instructions executed (%.0f%% saved by "
                "dedup/cache)\n",
                TotExec, TotInstr,
                100.0 * double(TotInstr - TotExec) / double(TotInstr));
  std::printf("  executor solver queries answered by the memo table: %u\n",
              TotMemo);

  // Side-condition solver cache: run the suite again twice against a
  // persistent store in a scratch directory — once cold (populating it)
  // and once warm in a fresh store instance (simulating a second process
  // reading the same cache dir).  The cold pass must be bit-identical to
  // the uncached baseline above; the warm pass must answer at least half
  // of all side-condition SAT calls from the store.
  namespace ifr = islaris::frontend;
  namespace ica = islaris::cache;
  std::string SideDir =
      (std::filesystem::temp_directory_path() /
       ("islaris-sidecond-bench-" + std::to_string(uint64_t(::getpid()))))
          .string();
  std::filesystem::remove_all(SideDir, EC);
  ica::SideCondConfig SCfg;
  SCfg.Persist = true;
  SCfg.Dir = SideDir;

  auto satCalls = [](const std::vector<CaseResult> &Rs) {
    uint64_t N = 0;
    for (const CaseResult &R : Rs)
      N += R.Proof.SolverSatCalls;
    return N;
  };
  auto sameRows = [](const std::vector<CaseResult> &A,
                     const std::vector<CaseResult> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I].Ok != B[I].Ok || A[I].ItlEvents != B[I].ItlEvents ||
          A[I].AsmInstrs != B[I].AsmInstrs ||
          A[I].Proof.PathsVerified != B[I].Proof.PathsVerified ||
          A[I].Proof.EventsProcessed != B[I].Proof.EventsProcessed ||
          A[I].Proof.Entailments != B[I].Proof.Entailments ||
          A[I].Proof.SolverQueries != B[I].Proof.SolverQueries)
        return false;
    return true;
  };

  std::vector<CaseResult> Cold, Warm;
  {
    ica::SideCondStore Store(SCfg);
    ifr::SuiteOptions O;
    O.SideCond = &Store;
    Cold = ifr::runAllCaseStudies(O);
  }
  {
    ica::SideCondStore Store(SCfg); // fresh instance: memory is cold
    ifr::SuiteOptions O;
    O.SideCond = &Store;
    Warm = ifr::runAllCaseStudies(O);
  }
  std::filesystem::remove_all(SideDir, EC);

  uint64_t ColdSat = satCalls(Cold), WarmSat = satCalls(Warm);
  std::printf("\nSide-condition solver cache (cold populate -> warm rerun "
              "from disk):\n");
  for (size_t I = 0; I < Warm.size() && I < Cold.size(); ++I)
    std::printf("  %-11s %-4s : SAT calls %4llu -> %3llu   (memo %llu, "
                "store %llu of %llu queries)\n",
                Warm[I].Name.c_str(), Warm[I].Isa.c_str(),
                (unsigned long long)Cold[I].Proof.SolverSatCalls,
                (unsigned long long)Warm[I].Proof.SolverSatCalls,
                (unsigned long long)Warm[I].Proof.SolverMemoHits,
                (unsigned long long)Warm[I].Proof.SolverStoreHits,
                (unsigned long long)Warm[I].Proof.SolverQueries);
  bool ColdIdentical = sameRows(Rows, Cold) && sameRows(Rows, Warm);
  double Elim = ColdSat
                    ? 100.0 * double(ColdSat - WarmSat) / double(ColdSat)
                    : 100.0;
  std::printf("  total: %llu -> %llu side-condition SAT calls "
              "(%.0f%% eliminated; criterion >= 50%%) ...... %s\n",
              (unsigned long long)ColdSat, (unsigned long long)WarmSat,
              Elim, WarmSat * 2 <= ColdSat ? "ok" : "BELOW CRITERION");
  std::printf("  cold-run results bit-identical to uncached ... %s\n",
              ColdIdentical ? "yes" : "NO");
  AllOk = AllOk && WarmSat * 2 <= ColdSat && ColdIdentical;

  // Diagnostics and fault tolerance: every row carries its structured
  // diagnostic and the batch driver's retry/quarantine counters, so a red
  // run can be triaged from the summary alone.
  unsigned TotRetries = 0, TotQuarantined = 0;
  for (const CaseResult &R : Rows) {
    TotRetries += R.Retries;
    TotQuarantined += R.Quarantined;
  }
  std::printf("\nDiagnostics (structured rows for failures; driver fault "
              "tolerance):\n");
  bool AnyDiag = false;
  for (const CaseResult &R : Rows)
    if (!R.Ok) {
      AnyDiag = true;
      std::printf("  %-11s %-4s : %s\n", R.Name.c_str(), R.Isa.c_str(),
                  R.D.render().c_str());
    }
  if (!AnyDiag)
    std::printf("  no failing rows\n");
  std::printf("  batch-driver retries: %u, quarantined jobs: %u\n",
              TotRetries, TotQuarantined);

  std::printf("\nShape checks (the qualitative claims that must carry "
              "over):\n");
  auto row = [&](const char *N, const char *I) -> const CaseResult & {
    for (const CaseResult &R : Rows)
      if (R.Name == N && R.Isa == I)
        return R;
    static CaseResult Dummy;
    return Dummy;
  };
  auto total = [](const CaseResult &R) {
    return R.IslaSeconds + R.Proof.TotalSeconds;
  };
  bool PkvmLargest = true;
  for (const CaseResult &R : Rows)
    PkvmLargest = PkvmLargest && R.ItlEvents <= row("pKVM", "Arm").ItlEvents;
  std::printf("  pKVM has the most ITL events ............ %s\n",
              PkvmLargest ? "yes (as in the paper)" : "NO");
  std::printf("  rbit is the smallest example ............ %s\n",
              row("rbit", "Arm").ItlEvents <= 60 ? "yes" : "NO");
  std::printf("  pKVM is the most expensive end to end ... %s\n",
              total(row("pKVM", "Arm")) >= total(row("rbit", "Arm"))
                  ? "yes"
                  : "NO");

  // Suite-level aggregation: distinguish "a proof failed" (exit 1) from
  // "the infrastructure broke" (exit 2, dominates) so CI can triage a red
  // run without reading the table.
  islaris::frontend::SuiteSummary Sum = islaris::frontend::summarize(Rows);
  int Exit = islaris::frontend::suiteExitCode(Rows);
  std::printf("\nSuite summary: %u passed, %u proof failures, %u "
              "infrastructure errors\n",
              Sum.Passed, Sum.ProofFailures, Sum.InfraErrors);
  if (Exit == 0 && !AllOk)
    Exit = 1; // a bench-specific criterion (cache reuse, identity) failed
  std::filesystem::remove_all(TableDir, EC);
  return Exit;
}
