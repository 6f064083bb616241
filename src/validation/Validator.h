//===- validation/Validator.h - Trace translation validation ---*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post-hoc validation of Isla-generated traces against the model's
/// independent reference semantics (§5, Theorem 2).  The paper proves, in
/// Coq, that each trace is refined by the Sail-generated monadic model; our
/// substitution keeps the same trust story with executable artifacts: the
/// concrete mini-Sail interpreter (written independently of the symbolic
/// executor) is the reference, and each trace path is checked against it
/// with solver-generated witness states:
///
///  1. enumerate the linear paths of the trace and their SMT conditions
///     (asserts, assumes, assume-regs);
///  2. for each path, ask the solver for a model and reconstruct a concrete
///     initial machine state from the trace's register/memory read events;
///  3. run the concrete model interpreter and the ITL operational semantics
///     from that state and require identical final states and visible
///     labels (and that the ITL run never reaches BOTTOM);
///  4. repeat with randomized states for additional coverage.
///
/// A disagreement on any path is a bug in the symbolic executor, the trace
/// simplifier, or the solver — exactly what Theorem 2 guards against.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_VALIDATION_VALIDATOR_H
#define ISLARIS_VALIDATION_VALIDATOR_H

#include "isla/Executor.h"
#include "itl/OpSem.h"
#include "sail/Ast.h"
#include "smt/Solver.h"
#include "support/Diag.h"
#include "support/Guard.h"

namespace islaris::validation {

/// Outcome of validating one instruction trace.
struct ValidationResult {
  bool Ok = false;
  std::string Error;
  /// Structured failure: distinguishes a genuine disagreement (the
  /// Theorem 2 alarm) from a resource guard firing (deadline, budget,
  /// cancellation) — the latter leaves the validation inconclusive, not
  /// failed.
  support::Diag D;
  unsigned Paths = 0;        ///< Linear paths in the trace.
  unsigned PathsCovered = 0; ///< Paths exercised with a solver witness.
  unsigned Trials = 0;       ///< Total concrete-vs-trace comparisons run.
};

/// Validates \p Trace (generated for \p Opcode under \p A) against the
/// concrete interpretation of \p M.  \p PcName is the architecture's PC
/// register.  \p RandomTrials extra randomized states are checked on top
/// of the per-path witnesses.
///
/// Resource guards: \p Limits (default: unguarded) bounds the internal
/// solver per check() and, via RunLimits::InstrSeconds, the whole
/// validation wall clock; \p Cancel cancels cooperatively between trials
/// and inside solver checks.  A fired guard returns !Ok with the
/// matching infrastructure Diag code.
ValidationResult validateInstruction(
    const sail::Model &M, smt::TermBuilder &TB, uint32_t Opcode,
    const isla::Assumptions &A, const itl::Trace &Trace,
    const std::string &PcName, unsigned RandomTrials = 8, uint64_t Seed = 1,
    const support::RunLimits &Limits = {},
    support::CancelToken Cancel = support::CancelToken());

} // namespace islaris::validation

#endif // ISLARIS_VALIDATION_VALIDATOR_H
