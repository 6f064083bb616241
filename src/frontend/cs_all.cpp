//===- frontend/cs_all.cpp - All Fig. 12 rows ------------------------------------===//

#include "frontend/CaseStudies.h"

#include "cache/BatchDriver.h"
#include "cache/Journal.h"
#include "cache/SideCondCache.h"
#include "support/FaultInjector.h"
#include "support/Wire.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>

using namespace islaris::frontend;
using islaris::support::Diag;
using islaris::support::ErrorCode;

//===----------------------------------------------------------------------===//
// Journal codec: the shared support::wire field codec (length-prefixed
// strings survive any embedded spaces/parens; doubles travel as hexfloats so
// a resumed row is bit-for-bit the recorded one).  The same codec carries
// CaseResult rows over the islarisd wire protocol.
//===----------------------------------------------------------------------===//

using islaris::support::wire::Cursor;
using islaris::support::wire::putF;
using islaris::support::wire::putStr;

std::string islaris::frontend::encodeCaseResult(const CaseResult &R) {
  std::ostringstream OS;
  // Codec version 3.  Rows of any other version fail to decode, so a
  // resumed run simply re-verifies them.
  OS << "case 3 ";
  putStr(OS, R.Name);
  putStr(OS, R.Isa);
  OS << (R.Ok ? 1 : 0) << " ";
  putStr(OS, R.Error);
  OS << unsigned(R.D.Code) << " " << unsigned(R.D.Sev) << " ";
  putStr(OS, R.D.Stage);
  putStr(OS, R.D.Message);
  OS << R.AsmInstrs << " " << R.ItlEvents << " " << R.SpecSize << " "
     << R.Hints << " ";
  putF(OS, R.IslaSeconds);
  OS << R.TracesExecuted << " " << R.CacheHits << " " << R.Deduped << " "
     << R.IslaMemoHits << " " << R.IslaStoreHits << " " << R.IslaStmts
     << " " << R.IslaStmtsSkipped << " " << R.HelperMemoHits << " "
     << R.FixpointCapHits << " " << R.Retries << " " << R.Quarantined << " ";
  const seplogic::ProofStats &PS = R.Proof;
  OS << PS.EventsProcessed << " " << PS.InstructionsWalked << " "
     << PS.PathsVerified << " " << PS.PathsPruned << " " << PS.Entailments
     << " " << PS.SolverQueries << " " << PS.CacheHits << " "
     << PS.SolverSatCalls << " " << PS.SolverMemoHits << " "
     << PS.SolverStoreHits << " ";
  putF(OS, PS.TotalSeconds);
  putF(OS, PS.SideCondSeconds);
  return OS.str();
}

bool islaris::frontend::decodeCaseResult(const std::string &Text,
                                         CaseResult &Out) {
  Cursor C(Text);
  if (C.tok() != "case" || C.tok() != "3")
    return false;
  CaseResult R;
  R.Name = C.str();
  R.Isa = C.str();
  R.Ok = C.u64() != 0;
  R.Error = C.str();
  R.D.Code = ErrorCode(unsigned(C.u64()));
  R.D.Sev = support::Severity(unsigned(C.u64()));
  R.D.Stage = C.str();
  R.D.Message = C.str();
  R.AsmInstrs = unsigned(C.u64());
  R.ItlEvents = unsigned(C.u64());
  R.SpecSize = unsigned(C.u64());
  R.Hints = unsigned(C.u64());
  R.IslaSeconds = C.f();
  R.TracesExecuted = unsigned(C.u64());
  R.CacheHits = unsigned(C.u64());
  R.Deduped = unsigned(C.u64());
  R.IslaMemoHits = unsigned(C.u64());
  R.IslaStoreHits = unsigned(C.u64());
  R.IslaStmts = C.u64();
  R.IslaStmtsSkipped = C.u64();
  R.HelperMemoHits = unsigned(C.u64());
  R.FixpointCapHits = C.u64();
  R.Retries = unsigned(C.u64());
  R.Quarantined = unsigned(C.u64());
  seplogic::ProofStats &PS = R.Proof;
  PS.EventsProcessed = unsigned(C.u64());
  PS.InstructionsWalked = unsigned(C.u64());
  PS.PathsVerified = unsigned(C.u64());
  PS.PathsPruned = unsigned(C.u64());
  PS.Entailments = unsigned(C.u64());
  PS.SolverQueries = C.u64();
  PS.CacheHits = C.u64();
  PS.SolverSatCalls = C.u64();
  PS.SolverMemoHits = C.u64();
  PS.SolverStoreHits = C.u64();
  PS.TotalSeconds = C.f();
  PS.SideCondSeconds = C.f();
  if (C.Fail)
    return false;
  Out = std::move(R);
  return true;
}

RunContext islaris::frontend::defaultRunContext() {
  return {cache::ambientTraceCache(), cache::ambientSideCondCache(), {}};
}

// Runners with a size parameter run at their default size (4) here.
static const StudyEntry Studies[] = {
    {"memcpy-arm", "memcpy",
     [](const RunContext &C) { return runMemcpyArm(4, true, C); }},
    {"memcpy-rv", "memcpy",
     [](const RunContext &C) { return runMemcpyRv(4, C); }},
    {"hvc", "hvc", runHvc},
    {"pkvm", "pkvm handler", runPkvm},
    {"unaligned", "unaligned", runUnaligned},
    {"uart", "uart putc", runUart},
    {"rbit", "inline asm", runRbit},
    {"binsearch-arm", "binary search",
     [](const RunContext &C) { return runBinSearchArm(4, C); }},
    {"binsearch-rv", "binary search",
     [](const RunContext &C) { return runBinSearchRv(4, C); }},
};

std::span<const StudyEntry> islaris::frontend::caseStudies() {
  return Studies;
}

const StudyEntry *islaris::frontend::findCaseStudy(std::string_view Id) {
  for (const StudyEntry &S : Studies)
    if (Id == S.Id)
      return &S;
  return nullptr;
}

std::vector<CaseResult> islaris::frontend::runAllCaseStudies() {
  return runAllCaseStudies(SuiteOptions());
}

std::vector<CaseResult>
islaris::frontend::runAllCaseStudies(const SuiteOptions &O) {
  constexpr size_t N = std::size(Studies);

  // Every study runs under the same context: the shared stores and limits
  // travel into each study's Verifier as an argument.  Only the fault
  // injector, a process-wide test hook, is installed for the run and
  // restored after the pool joins.
  const RunContext Ctx = O;
  support::FaultInjector *SavedFaults = support::FaultInjector::active();
  // Explicit SuiteOptions::Faults wins; otherwise honor ISLARIS_FAULTS so
  // any suite binary can be chaos-tested from the shell without a rebuild.
  std::unique_ptr<support::FaultInjector> EnvFaults;
  if (!O.Faults && !SavedFaults)
    EnvFaults = support::FaultInjector::fromEnv();
  support::FaultInjector *Installed =
      O.Faults ? O.Faults : EnvFaults.get();
  if (Installed)
    support::FaultInjector::setActive(Installed);

  // Write-ahead run journal.  Records are keyed on the study's identity
  // *and* the result-affecting suite configuration (limits): a
  // resumed run with different guards must not restore rows those guards
  // would have failed.  Threads and cache pointers stay out of the key —
  // results are bit-identical across them by construction.
  std::unique_ptr<cache::RunJournal> Journal;
  if (!O.JournalPath.empty()) {
    Journal = std::make_unique<cache::RunJournal>(O.JournalPath);
    Journal->open(); // on failure appends fail cleanly and nothing resumes
  }
  auto JobKey = [&](size_t I) {
    cache::Fingerprinter FP;
    FP.str("islaris-suite-job");
    FP.u64(uint64_t(I));
    FP.str(Studies[I].Row);
    auto Bits = [](double D) {
      uint64_t U;
      static_assert(sizeof(U) == sizeof(D));
      std::memcpy(&U, &D, sizeof(U));
      return U;
    };
    FP.u64(Bits(O.Limits.SolverCheckSeconds));
    FP.u64(O.Limits.SolverConflicts);
    FP.u64(O.Limits.SolverPropagations);
    FP.u64(Bits(O.Limits.InstrSeconds));
    FP.u64(Bits(O.Limits.JobTimeoutSeconds));
    FP.u64(O.Limits.JobRetries);
    return FP.digest();
  };

  std::vector<CaseResult> Results(N);
  cache::BatchDriver::parallelFor(
      N, O.Threads == 0 ? cache::BatchDriver().threads() : O.Threads,
      [&](size_t I) {
        // Resume: restore the recorded row instead of re-verifying.  Only
        // rows that completed (journal append is the *last* step below)
        // ever match, so a crash mid-study just re-runs the study.
        if (Journal && O.Resume) {
          if (const std::string *Rec = Journal->find(JobKey(I))) {
            CaseResult R;
            if (decodeCaseResult(*Rec, R)) {
              R.Resumed = true;
              Results[I] = std::move(R);
              return;
            }
          }
        }
        // One wedged or crashing study must never take down its siblings:
        // an escaped exception becomes that row's infrastructure error and
        // the pool keeps draining.
        try {
          Results[I] = Studies[I].Run(Ctx);
        } catch (const std::exception &E) {
          Results[I].Name = Studies[I].Row;
          Results[I].Ok = false;
          Results[I].D = Diag::error(
              ErrorCode::JobException, "suite",
              std::string("exception escaped case study: ") + E.what());
          Results[I].Error = Results[I].D.Message;
        } catch (...) {
          Results[I].Name = Studies[I].Row;
          Results[I].Ok = false;
          Results[I].D = Diag::error(ErrorCode::JobException, "suite",
                                     "non-standard exception escaped "
                                     "case study");
          Results[I].Error = Results[I].D.Message;
        }
        if (Journal)
          Journal->append(JobKey(I), encodeCaseResult(Results[I]));
      });

  if (Installed)
    support::FaultInjector::setActive(SavedFaults);
  return Results;
}

SuiteSummary
islaris::frontend::summarize(const std::vector<CaseResult> &Results) {
  SuiteSummary S;
  for (const CaseResult &R : Results) {
    if (R.Resumed)
      ++S.JobsResumed;
    if (R.Ok)
      ++S.Passed;
    else if (support::isInfrastructureError(R.D.Code))
      ++S.InfraErrors;
    else
      ++S.ProofFailures;
  }
  return S;
}

int islaris::frontend::suiteExitCode(const std::vector<CaseResult> &Results) {
  SuiteSummary S = summarize(Results);
  if (S.InfraErrors)
    return 2;
  return S.ProofFailures ? 1 : 0;
}
