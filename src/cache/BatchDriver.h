//===- cache/BatchDriver.h - Parallel batch trace generation ----*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A worker-pool scheduler for independent symbolic executions.  In the
/// paper's pipeline (Fig. 1) trace generation dominates end-to-end time; the
/// instructions of a program (and the nine Fig. 12 case studies) are
/// independent, so the driver (1) canonicalizes each request to its
/// cache::traceCacheKey, (2) collapses duplicate requests so each distinct
/// (opcode, assumptions, options) pair executes at most once per batch, (3)
/// satisfies keys from a shared TraceCache when one is attached, and (4)
/// fans the remaining work out over a thread pool in which every worker owns
/// a private TermBuilder/Executor (TermBuilder is not thread-safe) and
/// shares only the mutex-protected cache.
///
/// Results are returned in *serialized* CacheEntry form; callers
/// materialize them into their own builder with TraceCache::decode.  A
/// fresh builder per execution makes variable numbering a function of the
/// job alone, so batch results are deterministic under any scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_BATCHDRIVER_H
#define ISLARIS_CACHE_BATCHDRIVER_H

#include "cache/TraceCache.h"
#include "support/Diag.h"

#include <functional>

namespace islaris::cache {

/// One symbolic-execution request: Executor::run(Op, *Assume, Opts) against
/// *Model.  \p Assume is borrowed and must outlive the batch.  Besides the
/// executor's guards, Opts.Limits carries the job's watchdog timeout and
/// retry count (JobTimeoutSeconds, JobRetries); jobs sharing a cache key
/// share one execution under the first such job's limits.
struct TraceJob {
  const sail::Model *Model = nullptr;
  std::string ArchName;
  isla::OpcodeSpec Op;
  const isla::Assumptions *Assume = nullptr;
  isla::ExecOptions Opts;
  uint64_t Tag = 0; ///< Caller cookie (e.g. the instruction address).
  /// Optional persistent store for the executor's branch-pruning and
  /// assertion queries, installed on each worker's solver.  Must be
  /// thread-safe (SideCondStore is).  The driver salts every query with
  /// fingerprintModel(*Model), so one suite-wide store serves all models
  /// without key collisions.  Borrowed; must outlive the batch.
  smt::SolverCache *SideCond = nullptr;
};

/// Where a job's result came from.
enum class ResultSource : uint8_t {
  Fresh,    ///< Executed in this batch (first job of its key group).
  CacheHit, ///< Satisfied from the TraceCache (memory or disk).
  Deduped,  ///< Shared the execution of an identical job in this batch.
};

struct TraceJobResult {
  bool Ok = false;
  std::string Error;   ///< Executor error when !Ok (mirrors D.Message).
  support::Diag D;     ///< Structured failure diagnostic when !Ok.
  unsigned Attempts = 0; ///< Executions spent on this job's group (>1: retried).
  Fingerprint Key;
  CacheEntry Entry; ///< Valid when Ok.
  ResultSource Source = ResultSource::Fresh;
};

/// Per-batch counters (the dedup/hit savings GenStats surfaces).
struct BatchStats {
  unsigned Jobs = 0;
  unsigned Fresh = 0;
  unsigned CacheHits = 0;
  unsigned Deduped = 0;
  unsigned Failed = 0;     ///< Jobs that ended without a trace.
  unsigned Retries = 0;    ///< Extra executions spent on retryable failures.
  unsigned TimedOut = 0;   ///< Executions the watchdog cancelled.
  unsigned Exceptions = 0; ///< Executions that ended in a caught exception.
};

class BatchDriver {
public:
  /// \p Threads = 0 selects std::thread::hardware_concurrency(); 1 runs
  /// everything inline on the calling thread.
  explicit BatchDriver(unsigned Threads = 0);

  unsigned threads() const { return NThreads; }

  /// Runs a batch.  Results are positionally aligned with \p Jobs.  When
  /// \p Cache is non-null, hits are served from it and fresh executions are
  /// inserted into it.
  std::vector<TraceJobResult> run(const std::vector<TraceJob> &Jobs,
                                  TraceCache *Cache);

  const BatchStats &lastStats() const { return Last; }

  /// Generic fan-out helper: invokes Fn(0..N-1) across at most \p Threads
  /// threads (inline when Threads <= 1 or N <= 1).  Used for whole-case-
  /// study parallelism in runAllCaseStudies.
  static void parallelFor(size_t N, unsigned Threads,
                          const std::function<void(size_t)> &Fn);

private:
  unsigned NThreads;
  BatchStats Last;
};

} // namespace islaris::cache

#endif // ISLARIS_CACHE_BATCHDRIVER_H
