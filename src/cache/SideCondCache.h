//===- cache/SideCondCache.h - Persistent side-condition store --*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-run half of the side-condition solver cache: a
/// content-addressed store of SMT check() results, implementing the
/// smt::SolverCache interface so warm re-verification skips SAT entirely.
///
/// Keys are 128-bit fingerprints over the solver's canonical *printed* goal
/// closure (sorted goals plus sorted free-variable declarations — see
/// Solver::printGoalClosure).  The batch driver prefixes its executors'
/// closures with cache::fingerprintModel of the ISA model in play (see
/// SaltedSolverCache).  The printed form is builder-independent, so a key
/// matches across TermBuilders, processes, and runs; the salt means editing
/// the ISA model invalidates every model-dependent entry — a stale cache
/// can only miss, never lie.  Queries whose printed form
/// would be ambiguous (duplicate variable names) never reach this store.
///
/// Entries record the Sat/Unsat verdict and, for Sat, a full model of the
/// closure's variables by (name, width, value), so a hit restores
/// modelValue() behavior identical to a cold solve.  Entry files go through
/// cache::EntryFiles like the trace cache's: one file per entry under a
/// directory (default resolveCacheDir() + "/sidecond"), sharded, enveloped,
/// written atomically, first writer wins, corrupt entries degrade to
/// quarantined misses.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_SIDECONDCACHE_H
#define ISLARIS_CACHE_SIDECONDCACHE_H

#include "cache/EntryFiles.h"
#include "cache/Fingerprint.h"
#include "smt/Solver.h"
#include "support/Diag.h"

#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace islaris::cache {

/// Counters of store behavior, surfaced through bench_fig12.
struct SideCondStats {
  uint64_t Hits = 0;       ///< In-memory lookups that found an entry.
  uint64_t DiskHits = 0;   ///< Memory misses satisfied from disk.
  uint64_t Misses = 0;     ///< Lookups satisfied nowhere.
  uint64_t Insertions = 0; ///< store() calls that added a new entry.
  uint64_t DiskWrites = 0; ///< Entry files written.
  /// Corrupt on-disk entries displaced on read (self-repair; see
  /// CacheStats::CorruptRemoved).
  uint64_t CorruptRemoved = 0;
  /// Corrupt entries preserved under dir()/quarantine/ (a subset of
  /// CorruptRemoved).
  uint64_t Quarantined = 0;
  /// Entry publishes that failed (see CacheStats::WriteFailures; islarisd's
  /// degraded-mode detector watches both stores).
  uint64_t WriteFailures = 0;
};

struct SideCondConfig {
  /// Bound on in-memory entries (entries are small: a verdict plus a few
  /// model values).  Past the bound new results are still written to disk
  /// (when persistent) but not kept in memory.
  size_t MaxEntries = 1 << 16;
  /// Also read/write entries under dir() (one file per fingerprint).
  bool Persist = false;
  /// Store directory; empty means resolveCacheDir() + "/sidecond".
  std::string Dir;
  /// Run the clean-shutdown-marker protocol on construction (see
  /// cache/Scrub.h).  Same contract as TraceCacheConfig::ScrubOnOpen.
  bool ScrubOnOpen = false;
};

/// Thread-safe content-addressed store of side-condition results.  One
/// instance is shared by every solver of a run (frontend::RunContext hands
/// it to each Verifier); all state sits behind one mutex, disk I/O happens
/// outside it.
class SideCondStore : public smt::SolverCache {
public:
  explicit SideCondStore(SideCondConfig C = SideCondConfig());

  SideCondStore(const SideCondStore &) = delete;
  SideCondStore &operator=(const SideCondStore &) = delete;

  std::optional<CachedResult> lookup(const std::string &Closure) override;
  void store(const std::string &Closure, const CachedResult &R) override;

  /// Drops all in-memory entries (disk files are kept).  Counters survive.
  /// Lets one process demonstrate a cold-disk warm start.
  void clearMemory();

  size_t size() const;
  SideCondStats stats() const;
  const SideCondConfig &config() const { return Cfg; }
  const std::string &dir() const { return Files.dir(); }

  /// Degraded-mode switch; same contract as TraceCache::setDiskDisabled
  /// (memory keeps serving, disk is left alone until re-enabled).
  void setDiskDisabled(bool Off) { Files.setDisabled(Off); }
  bool diskDisabled() const { return Files.disabled(); }
  /// Returns and clears disk-I/O diagnostics (bounded to 64 between
  /// drains); same contract as TraceCache::drainDiags.
  std::vector<support::Diag> drainDiags() { return Files.drainDiags(); }

  /// The fingerprint \p Closure is stored under.
  Fingerprint key(const std::string &Closure) const;

  /// The on-disk entry format, one line:
  ///   (islaris-sidecond-cache 1 <keyhex> (result sat|unsat)
  ///    (model (|name| width #x..|#b..) ...))
  static std::string serializeEntry(const Fingerprint &K,
                                    const CachedResult &R);
  /// Inverse of serializeEntry; checks the embedded key against \p K.
  static bool parseEntry(const std::string &Text, const Fingerprint &K,
                         CachedResult &Out, std::string &Err);

private:
  SideCondConfig Cfg;
  EntryFiles Files;

  mutable std::mutex Mu;
  std::unordered_map<Fingerprint, CachedResult, FingerprintHash> Map;
  SideCondStats St;
};

/// A zero-copy view of another SolverCache that prefixes every closure with
/// a fingerprint salt before delegating.  Lets one shared store serve
/// queries discharged against different ISA models — the batch driver wraps the suite store in the fingerprint of
/// each job's model, so an aarch64 pruning query can never answer a riscv64
/// one.  Stateless beyond the prefix; safe to construct per job.
class SaltedSolverCache : public smt::SolverCache {
public:
  SaltedSolverCache(smt::SolverCache &Inner, const Fingerprint &Salt)
      : Inner(Inner), Prefix("(salt " + Salt.toHex() + ") ") {}

  std::optional<CachedResult> lookup(const std::string &Closure) override {
    return Inner.lookup(Prefix + Closure);
  }
  void store(const std::string &Closure, const CachedResult &R) override {
    Inner.store(Prefix + Closure, R);
  }

private:
  smt::SolverCache &Inner;
  std::string Prefix;
};

/// Parses the SaltedSolverCache "(salt <32 hex>) " closure prefix into
/// \p Out; false when \p Closure is unsalted.  Exposed for the generation
/// bookkeeping and its tests.
bool extractClosureSalt(const std::string &Closure, Fingerprint &Out);

/// A process-wide store read only by frontend::defaultRunContext(), the
/// default context of the study runners (null by default: side-condition
/// persistence is opt-in).  Kept for the repo benchmark, whose no-argument
/// runner calls share stores through it; everything else passes a
/// RunContext.  Set it before spawning concurrent case studies; the pointer
/// itself is not synchronized.
SideCondStore *ambientSideCondCache();
void setAmbientSideCondCache(SideCondStore *C);

} // namespace islaris::cache

#endif // ISLARIS_CACHE_SIDECONDCACHE_H
