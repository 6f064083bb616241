//===- support/Diag.h - Structured pipeline diagnostics ---------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured failure channel of the verification pipeline.  A Diag
/// carries an error code, the pipeline stage that produced it, a severity,
/// and a human-readable message, so a failing case study can report *what*
/// went wrong and *where* — in Release builds too — instead of vanishing
/// into an `assert()` or a bare string.
///
/// Policy (see DESIGN.md "Error handling and fault tolerance"): anything
/// reachable from input data — objdump text, ITL trace text, cache files,
/// model content, solver verdicts, resource exhaustion — must fail by
/// returning a Diag-carrying result.  Plain `assert()` remains only for
/// invariants of locally constructed data structures (API misuse by the
/// programmer), and even those must degrade to a defined value rather than
/// undefined behavior when NDEBUG compiles them out.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_DIAG_H
#define ISLARIS_SUPPORT_DIAG_H

#include <string>

namespace islaris::support {

/// Machine-readable failure class.  Codes distinguish *proof* failures (the
/// spec does not hold / cannot be shown to hold) from *infrastructure*
/// errors (resource exhaustion, I/O, injected faults, crashes), so suite
/// aggregation can report pass/fail/error separately.
enum class ErrorCode : unsigned {
  Ok = 0,

  // Input-shaped failures (frontend / parsers / caches).
  MalformedObjdump,   ///< objdump text did not parse.
  MalformedTrace,     ///< ITL trace text did not parse.
  CorruptCacheEntry,  ///< persistent cache entry failed validation.
  ChecksumMismatch,   ///< store entry's payload checksum did not verify.
  CacheVersionMismatch, ///< store entry written by an unknown format version.
  OverlappingCode,    ///< addCode over an already-populated address.
  UnknownSymbol,      ///< symbol lookup in an image that lacks it.
  UnknownRegister,    ///< constraint or access on an undeclared register.

  // Semantic failures (the model or the proof).
  ModelError,         ///< reachable model exception / failed model assert.
  ProofFailed,        ///< a proof obligation is false or not provable.
  SpecError,          ///< ill-formed specification (e.g. open registered spec).

  // Resource-guard failures.
  PathBudgetExceeded,   ///< executor exceeded ExecOptions::MaxPaths.
  InstrBudgetExhausted, ///< engine exceeded MaxInstrsPerPath.
  DeadlineExceeded,     ///< a wall-clock deadline fired.
  SolverBudgetExceeded, ///< SAT conflict/propagation/time budget fired.
  Cancelled,            ///< a cooperative cancellation token fired.
  JobTimeout,           ///< batch driver timed out a wedged job.

  // Infrastructure errors.
  JobException,  ///< an exception escaped a pipeline job.
  IoError,       ///< file I/O failed.
  InjectedFault, ///< a FaultInjector site fired (chaos testing).
  Internal,      ///< violated internal invariant (was an assert).
};

/// Stable identifier for an ErrorCode ("path-budget-exceeded", ...).
const char *errorCodeName(ErrorCode C);

enum class Severity : unsigned { Note, Warning, Error, Fatal };

const char *severityName(Severity S);

/// One structured diagnostic.  Default-constructed Diags are Ok (empty).
struct Diag {
  ErrorCode Code = ErrorCode::Ok;
  Severity Sev = Severity::Error;
  /// Pipeline stage that produced the failure ("executor", "proof-engine",
  /// "verifier", "batch-driver", "smt", "cache", "frontend", "suite").
  std::string Stage;
  std::string Message;

  Diag() = default;
  Diag(ErrorCode Code, std::string Stage, std::string Message,
       Severity Sev = Severity::Error)
      : Code(Code), Sev(Sev), Stage(std::move(Stage)),
        Message(std::move(Message)) {}

  bool ok() const { return Code == ErrorCode::Ok; }
  explicit operator bool() const { return !ok(); }

  /// "error[path-budget-exceeded] executor: ..." — the canonical rendering
  /// used in aggregated suite reports.
  std::string render() const;

  static Diag error(ErrorCode Code, std::string Stage, std::string Message) {
    return Diag(Code, std::move(Stage), std::move(Message));
  }
};

/// True if a failure with this code is worth re-running: transient
/// infrastructure trouble (timeouts, cancellations, I/O, injected faults,
/// escaped exceptions) rather than a deterministic proof/model failure.
/// Used by the batch driver's bounded-retry loop.
bool isRetryable(ErrorCode C);

/// True if the code describes an infrastructure *error* as opposed to a
/// verification *failure*; suite aggregation counts the two separately.
bool isInfrastructureError(ErrorCode C);

} // namespace islaris::support

#endif // ISLARIS_SUPPORT_DIAG_H
