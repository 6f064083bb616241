//===- frontend/CaseStudies.h - The paper's evaluation programs -*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The nine case studies of Fig. 12 (§2, §6), each returning the
/// measurements the Fig. 12 harness tabulates:
///
///   memcpy (Arm, RISC-V)     — Fig. 7/8: loop with invariant, byte arrays.
///   hvc                      — Fig. 9: install and call an exception
///                              vector across EL2/EL1.
///   pKVM handler             — §6: relocation-parametric hypercall
///                              handler, partially symbolic opcodes,
///                              SPSR constrained to two values.
///   unaligned                — §6: misaligned store takes a data abort.
///   UART                     — §6: MMIO poll loop against a srec spec.
///   rbit                     — §6: inline-assembly bit reversal.
///   binary search (Arm, RV)  — §6: comparator function pointer via the
///                              formalized calling convention.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_FRONTEND_CASESTUDIES_H
#define ISLARIS_FRONTEND_CASESTUDIES_H

#include "frontend/Verifier.h"
#include "support/Diag.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace islaris::support {
class FaultInjector;
}

namespace islaris::frontend {

/// One Fig. 12 row.
struct CaseResult {
  std::string Name;
  std::string Isa;
  bool Ok = false;
  std::string Error;
  /// Structured diagnostic when !Ok: distinguishes a genuine proof failure
  /// (ProofFailed, SpecError, ...) from an infrastructure failure (budget
  /// exhaustion, cancellation, injected fault, escaped exception) — see
  /// support::isInfrastructureError.
  support::Diag D;
  unsigned AsmInstrs = 0;  ///< "asm" column.
  unsigned ItlEvents = 0;  ///< "ITL" column.
  unsigned SpecSize = 0;   ///< "Spec" column (chunks + pures + binders).
  unsigned Hints = 0;      ///< "Proof" column analogue: manual hints
                           ///< (pure facts + invariants we had to supply).
  double IslaSeconds = 0;  ///< Symbolic-execution time.
  unsigned TracesExecuted = 0; ///< Instructions symbolically executed.
  unsigned CacheHits = 0;      ///< Instructions served by the trace cache.
  unsigned Deduped = 0;        ///< Instructions deduplicated in-batch.
  unsigned IslaMemoHits = 0;   ///< Executor queries answered by the memo.
  /// Executor queries answered by the persistent side-condition store.
  unsigned IslaStoreHits = 0;
  /// Model statements dispatched by fresh executions, and statements the
  /// snapshot engine restored from checkpoints instead of re-executing.
  uint64_t IslaStmts = 0;
  uint64_t IslaStmtsSkipped = 0;
  unsigned HelperMemoHits = 0; ///< Pure-helper summary-memo hits.
  /// Rewriter fixpoint-cap hits observed by this study's executions —
  /// nonzero means two rewrite rules are ping-ponging (a regression that
  /// used to be silent).
  uint64_t FixpointCapHits = 0;
  /// Batch-driver fault tolerance: extra executions spent on retryable
  /// failures, and jobs quarantined without a trace.
  unsigned Retries = 0;
  unsigned Quarantined = 0;
  /// True when this row was restored from a run journal instead of being
  /// re-verified (SuiteOptions::Resume); the restored fields are the ones
  /// the original run recorded.
  bool Resumed = false;
  seplogic::ProofStats Proof;
};

/// Journal codec for CaseResult rows.  Round-trips every field (Resumed
/// excepted — the decoder's caller decides that); doubles travel as
/// hexfloats so a resumed row is bit-identical to the recorded one.
std::string encodeCaseResult(const CaseResult &R);
bool decodeCaseResult(const std::string &Text, CaseResult &Out);

/// The context a runner uses when its caller passes none: the stores set
/// with cache::setAmbientTraceCache / setAmbientSideCondCache (null unless
/// set) and no limits.  Kept for the repo benchmark's no-argument runner
/// calls; everything else passes its RunContext explicitly.
RunContext defaultRunContext();

/// Runs memcpy (Fig. 7, GCC-shaped Arm code) copying \p N bytes with
/// symbolic contents and addresses.
CaseResult runMemcpyArm(unsigned N = 4, bool SimplifiedTraces = true,
                        const RunContext &Ctx = defaultRunContext());
/// The Clang-shaped RISC-V memcpy of Fig. 7.
CaseResult runMemcpyRv(unsigned N = 4,
                       const RunContext &Ctx = defaultRunContext());
/// The Fig. 9 exception-vector install/call program.
CaseResult runHvc(const RunContext &Ctx = defaultRunContext());
/// The pKVM-style relocation-parametric hypercall handler.
CaseResult runPkvm(const RunContext &Ctx = defaultRunContext());
/// The misaligned-store fault case study.
CaseResult runUnaligned(const RunContext &Ctx = defaultRunContext());
/// The UART putc MMIO poll loop.
CaseResult runUart(const RunContext &Ctx = defaultRunContext());
/// The rbit inline-assembly case study.
CaseResult runRbit(const RunContext &Ctx = defaultRunContext());
/// Comparator-parametric binary search over \p N sorted elements (Arm).
CaseResult runBinSearchArm(unsigned N = 4,
                           const RunContext &Ctx = defaultRunContext());
/// The RISC-V binary search.
CaseResult runBinSearchRv(unsigned N = 4,
                          const RunContext &Ctx = defaultRunContext());

/// One Fig. 12 study: its islarisd id, its table row name (what the runner
/// stamps into CaseResult::Name, so a study that dies before returning is
/// still attributable), and the runner with its default parameters.
struct StudyEntry {
  const char *Id;
  const char *Row;
  CaseResult (*Run)(const RunContext &Ctx);
};

/// The nine studies in the paper's row order: the one table both the suite
/// runner and islarisd read.
std::span<const StudyEntry> caseStudies();
/// The study islarisd calls \p Id, or nullptr.
const StudyEntry *findCaseStudy(std::string_view Id);

/// How to run the suite: the run's context (its shared stores and limits;
/// callers set O.Cache, O.SideCond and O.Limits), worker threads across
/// case studies (the studies are fully independent — each owns a private
/// Verifier/TermBuilder), fault injection and journaling.
struct SuiteOptions : RunContext {
  unsigned Threads = 1; ///< 0 = hardware concurrency, 1 = serial.
  /// Fault injector activated for the duration of the run (chaos testing).
  /// Null leaves whatever injector is already active — including one
  /// configured from ISLARIS_FAULTS / ISLARIS_FAULT_SEED by the harness.
  support::FaultInjector *Faults = nullptr;
  /// Write-ahead run journal: when non-empty, every completed study appends
  /// a checksummed record (keyed on study identity + suite configuration)
  /// at this path, so a killed run can be resumed.
  std::string JournalPath;
  /// Skip studies whose journal record survived a previous (possibly
  /// killed) run with the same configuration, restoring their recorded
  /// rows verbatim (CaseResult::Resumed).  Requires JournalPath.
  bool Resume = false;
};

/// Aggregate view of a suite run: every case study is always attempted
/// (a failing study never aborts the rest), and the split between proof
/// failures and infrastructure errors drives the exit code.
struct SuiteSummary {
  unsigned Passed = 0;
  unsigned ProofFailures = 0; ///< !Ok with a non-infrastructure code.
  unsigned InfraErrors = 0;   ///< !Ok with an infrastructure code.
  unsigned JobsResumed = 0;   ///< Rows restored from the run journal.
  bool allOk() const { return ProofFailures == 0 && InfraErrors == 0; }
};

SuiteSummary summarize(const std::vector<CaseResult> &Results);

/// Process exit status for a suite run: 0 when every study verified,
/// 1 when at least one proof failed, 2 when any study hit an
/// infrastructure error (which dominates — the run is inconclusive).
int suiteExitCode(const std::vector<CaseResult> &Results);

/// All nine Fig. 12 rows, in the paper's order (serial, uncached).
std::vector<CaseResult> runAllCaseStudies();

/// All nine rows under \p O: case studies run concurrently on O.Threads
/// workers, each under O's RunContext.  Results are positionally identical
/// to the serial overload.
std::vector<CaseResult> runAllCaseStudies(const SuiteOptions &O);

} // namespace islaris::frontend

#endif // ISLARIS_FRONTEND_CASESTUDIES_H
