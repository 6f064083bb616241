//===- support/Guard.h - Cancellation tokens and resource limits -*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-guard primitives of the fault-tolerant pipeline:
///
///  - CancelToken: a shared cooperative cancellation flag.  Producers (the
///    batch driver's watchdog, a suite harness) request cancellation; long-
///    running consumers (the symbolic executor's statement loop, the proof
///    engine's event loop, the SAT core) poll it at cheap points and fail
///    their current unit of work with ErrorCode::Cancelled.
///
///  - RunLimits: the one guard bundle of a run — per-query solver budgets,
///    per-instruction trace-generation deadlines, and batch-driver job
///    timeouts.  It travels explicitly: frontend::RunContext hands it to the
///    Verifier, which copies it into isla::ExecOptions (the executor and the
///    batch driver read it there) and into the proof engine's smt::Solver,
///    the one place that maps it to a SAT budget.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_GUARD_H
#define ISLARIS_SUPPORT_GUARD_H

#include <atomic>
#include <cstdint>
#include <memory>

namespace islaris::support {

/// A shared cooperative cancellation flag.  Copies alias the same flag; a
/// default-constructed token is inert (never cancelled, cannot cancel).
class CancelToken {
public:
  CancelToken() = default;

  /// A fresh, uncancelled token.
  static CancelToken create() {
    CancelToken T;
    T.Flag = std::make_shared<std::atomic<bool>>(false);
    return T;
  }

  void requestCancel() const {
    if (Flag)
      Flag->store(true, std::memory_order_relaxed);
  }

  bool cancelled() const {
    return Flag && Flag->load(std::memory_order_relaxed);
  }

  /// Raw flag for the hottest polling loops (null when inert).
  const std::atomic<bool> *raw() const { return Flag.get(); }

private:
  std::shared_ptr<std::atomic<bool>> Flag;
};

/// Hard resource guards for one verification run.  Zero always means
/// "unlimited" — the default pipeline behaves exactly as before.
struct RunLimits {
  /// Per-check() wall-clock deadline inside smt::Solver (seconds).
  double SolverCheckSeconds = 0;
  /// Per-check() SAT conflict budget.
  uint64_t SolverConflicts = 0;
  /// Per-check() SAT propagation budget.
  uint64_t SolverPropagations = 0;
  /// Per-instruction trace-generation deadline (one Executor::run call).
  double InstrSeconds = 0;
  /// Batch-driver per-job wall clock; past it the watchdog cancels the job.
  double JobTimeoutSeconds = 0;
  /// Bounded retries for retryable job failures before quarantine.
  unsigned JobRetries = 1;
};

} // namespace islaris::support

#endif // ISLARIS_SUPPORT_GUARD_H
