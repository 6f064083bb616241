//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded fault-injection layer for chaos-testing the
/// pipeline.  Hook points are compiled in permanently but cost one branch on
/// a null pointer when no injector is active, so production behavior is
/// untouched.  Sites:
///
///   cache-read        persistent cache entry reads fail (degrade to miss)
///   cache-write       entry file creation/write fails (entry not published)
///   cache-rename      the atomic publish rename fails (temp cleaned up)
///   cache-torn-write  only a prefix of the entry reaches disk, then IS
///                     published — readers must detect the corruption
///   solver-unknown    smt::Solver::check returns a spurious Unknown
///   solver-model      one bit of a SAT-core model is flipped before the
///                     solver's Evaluator check, which must reject it
///                     unless the flipped model still satisfies the goals
///   exec-step         the symbolic executor fails the current run with an
///                     attributed injected-fault Diag (retryable)
///   exec-throw        the symbolic executor throws, exercising the batch
///                     driver's per-job exception containment
///   crash-publish     the process exits hard (std::_Exit) inside a store
///                     publish — after the temp file is written, before or
///                     after the rename — standing in for a crash/power cut
///                     mid-write.  Only meaningful under the crash-storm
///                     child harness; never enable it in-process.
///   crash-journal     the process exits hard inside a run-journal append,
///                     leaving a torn tail record the resume path must
///                     detect and truncate away.
///   disk-full         every store publish fails as if the device were
///                     full (ENOSPC at atomicWriteFile), persisting until
///                     the injector is disarmed — the shape islarisd's
///                     cache-off degraded mode and its self-heal probe are
///                     tested against.
///
/// Decisions are a pure function of (seed, site, per-site probe counter), so
/// a run with a fixed seed and thread-free scheduling is exactly
/// reproducible, and per-site fault counts are reproducible even under a
/// thread pool.  Configure programmatically (SuiteOptions::Faults) or from
/// the environment:
///
///   ISLARIS_FAULT_SEED=42
///   ISLARIS_FAULTS="cache-read=0.2,solver-unknown=0.01,exec-throw=first:3"
///
/// where `site=p` injects with probability p in [0, 1], `site=first:n`
/// fails exactly the first n probes of that site (the deterministic shape
/// the retry tests use), and `site=at:k` fails exactly the probe with
/// zero-based index k (the shape the crash-storm harness uses to pick one
/// abort point per run).  n, k and the seed are decimal or 0x-hex.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_FAULTINJECTOR_H
#define ISLARIS_SUPPORT_FAULTINJECTOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace islaris::support {

enum class FaultSite : unsigned {
  CacheRead,
  CacheWrite,
  CacheRename,
  CacheTornWrite,
  SolverUnknown,
  ExecStep,
  ExecThrow,
  CrashPublish,
  CrashJournal,
  DiskFull,
  SolverModel,
};
inline constexpr unsigned NumFaultSites = 11;

class FaultInjector {
public:
  explicit FaultInjector(uint64_t Seed = 0);

  /// Injects at \p S with probability \p P in [0, 1].
  void setRate(FaultSite S, double P);

  /// Fails exactly the first \p N probes of \p S, then none (overrides any
  /// rate for those probes; later probes fall back to the rate).
  void failFirst(FaultSite S, uint64_t N);

  /// Fails exactly the probe with zero-based index \p N of \p S and no
  /// other.  The crash-storm harness uses this to abort the process at one
  /// seeded point per run.
  void failAt(FaultSite S, uint64_t N);

  /// One probe of \p S: returns true when the fault fires.  Thread-safe;
  /// advances the per-site counter either way.
  bool shouldFail(FaultSite S);

  /// Per-site observability for chaos-test assertions.
  uint64_t probes(FaultSite S) const;
  uint64_t injected(FaultSite S) const;

  uint64_t seed() const { return Seed; }

  //===------------------------------------------------------------------===//
  // Process-wide activation, by design: the injector is a test hook whose
  // sites sit deep in cache, isla and smt.  Install before spawning
  // workers, restore after; the pointer is unsynchronized.
  //===------------------------------------------------------------------===//

  static FaultInjector *active();
  static void setActive(FaultInjector *F);

  /// The one-branch hook the pipeline calls: false when no injector is
  /// active or the site does not fire.
  static bool fire(FaultSite S) {
    FaultInjector *F = active();
    return F && F->shouldFail(S);
  }

  /// Builds an injector from ISLARIS_FAULT_SEED / ISLARIS_FAULTS; null when
  /// ISLARIS_FAULTS is unset or empty.  A malformed entry or seed is an
  /// error, never a run with fewer faults: null with \p Err naming it.
  static std::unique_ptr<FaultInjector> fromEnv(std::string &Err);

private:
  struct SiteState {
    double Rate = 0;
    uint64_t FailFirst = 0;
    uint64_t FailAt = UINT64_MAX; ///< UINT64_MAX = no exact-probe fault.
    uint64_t Probes = 0;
    uint64_t Injected = 0;
  };

  uint64_t Seed;
  mutable std::mutex Mu;
  SiteState Sites[NumFaultSites];
};

/// Hands each entry of a "key=value,..." spec read from \p Var to \p Set.
/// Returns false, with \p Err naming \p Var and the entry, at the first
/// entry that has no '=' or that \p Set refuses (an unknown key, a bad
/// value).  Empty entries are skipped.
bool forEachKeyValue(
    std::string_view Spec, const char *Var,
    const std::function<bool(std::string_view, std::string_view)> &Set,
    std::string &Err);

/// Reads ISLARIS_FAULT_SEED into \p Seed when it is set; false with \p Err
/// when it is malformed.
bool faultSeedFromEnv(uint64_t &Seed, std::string &Err);

} // namespace islaris::support

#endif // ISLARIS_SUPPORT_FAULTINJECTOR_H
