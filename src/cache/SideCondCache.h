//===- cache/SideCondCache.h - Persistent side-condition store --*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-run half of the side-condition solver cache: a store of SMT
/// check() results, implementing the smt::SolverCache interface so warm
/// re-verification skips SAT entirely.
///
/// Answers are keyed by the solver's goal-set digest (Solver::goalSetKey):
/// a structural digest of the hash-consed goals plus the (name, width)
/// declarations of their free variables, builder-independent, so a key
/// matches across TermBuilders, processes, and runs.  A goal set is a
/// self-contained formula whose verdict does not depend on any ISA model,
/// so keys carry no model salt.  The store's one reader is the proof engine
/// (frontend::Verifier::engine); trace generation never consults it, so a
/// trace depends only on the model, the opcode and the assumptions.  Goal
/// sets with ambiguous variable names never reach this store.
///
/// Answers record the Sat/Unsat verdict and, for Sat, a full model of the
/// goal set's variables by (name, width, value), so a hit restores
/// modelValue() behavior identical to a cold solve.  The solver checks a
/// stored Sat model with the Evaluator before installing it; a refused
/// answer is dropped from memory and counted (SideCondStats::Rejected).
///
/// On disk, answers live in *proof bundles*: one cache::EntryFiles entry per
/// proof search, named by a bundle key (the program's trace-cache keys and
/// the registered specs' addresses and names, see ProofEngine).  Lithium's
/// proof search is deterministic (§4.3), so a re-run asks for the answers
/// its last run used: a bundle is read once, at its first lookup, and its
/// answers go into the shared in-memory map, where every solver of the
/// process finds them.  When proof search ends the bundle is republished
/// with exactly the answers it used, replacing the file by atomic rename,
/// if any lookup was not served from the bundle as read.  The bundle key
/// is only a hint: every answer inside stays keyed by its own goal-set
/// digest, so a stale bundle (a spec edited under the same names) or one
/// from a racing writer can only cause misses, never a wrong verdict, and
/// last writer wins safely.  A torn bundle is a quarantined miss.
/// In-memory stores (Persist off) keep only the per-goal map.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_SIDECONDCACHE_H
#define ISLARIS_CACHE_SIDECONDCACHE_H

#include "cache/EntryFiles.h"
#include "cache/Fingerprint.h"
#include "smt/Solver.h"
#include "support/Diag.h"

#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace islaris::cache {

/// Counters of store behavior, surfaced through bench_fig12.  Lookups are
/// counted per goal set; the disk counters count bundle files.
struct SideCondStats {
  uint64_t Hits = 0;       ///< Lookups served from memory.
  /// Lookups served by an answer read off disk, the first time it serves.
  uint64_t DiskHits = 0;
  uint64_t Misses = 0;     ///< Lookups served nowhere (or refused).
  uint64_t Insertions = 0; ///< store() calls that added a new answer.
  uint64_t DiskWrites = 0; ///< Bundle files written.
  /// Served answers the solver refused (a Sat model that failed the
  /// Evaluator check); each is dropped and also counted as a miss.
  uint64_t Rejected = 0;
  /// Corrupt on-disk bundles displaced on read (self-repair; see
  /// CacheStats::CorruptRemoved).
  uint64_t CorruptRemoved = 0;
  /// Corrupt bundles preserved under dir()/quarantine/ (a subset of
  /// CorruptRemoved).
  uint64_t Quarantined = 0;
  /// Bundle publishes that failed (see CacheStats::WriteFailures;
  /// islarisd's degraded-mode detector watches both stores).
  uint64_t WriteFailures = 0;
};

struct SideCondConfig {
  /// Bound on in-memory answers (answers are small: a verdict plus a few
  /// model values).  Past the bound new answers still reach their bundles
  /// (when persistent) but are not kept in the shared map.
  size_t MaxEntries = 1 << 16;
  /// Also read/write proof bundles under dir().
  bool Persist = false;
  /// Store directory; empty means resolveCacheDir() + "/sidecond".
  std::string Dir;
  /// Run the clean-shutdown-marker protocol on construction (see
  /// cache/Scrub.h).  Same contract as TraceCacheConfig::ScrubOnOpen.
  bool ScrubOnOpen = false;
};

/// Thread-safe store of side-condition answers.  One instance is shared by
/// every proof engine of a run (frontend::RunContext hands it to each
/// Verifier); all state sits behind one mutex, disk I/O happens outside it.
class SideCondStore : public smt::SolverCache {
public:
  explicit SideCondStore(SideCondConfig C = SideCondConfig());

  SideCondStore(const SideCondStore &) = delete;
  SideCondStore &operator=(const SideCondStore &) = delete;

  std::unique_ptr<smt::SolverCache::Bundle>
  openBundle(const Fingerprint &Key) override;

  /// Drops all in-memory answers (disk files are kept).  Counters survive.
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

  /// Answers by goal-set key, as a bundle holds them.
  using Answers = std::map<Fingerprint, CachedResult>;

  /// The on-disk bundle format: a header line, then one line per answer
  /// in key order:
  ///   (islaris-sidecond-bundle 1 <bundlekeyhex>)
  ///   (answer <goalkeyhex> sat|unsat (model (|name| width #x..|#b..) ...))
  static std::string serializeBundle(const Fingerprint &K, const Answers &A);
  /// Inverse of serializeBundle.  The embedded key is not checked: the
  /// bundle file's envelope names the key (cache/EntryFiles.h).
  static bool parseBundle(const std::string &Text, Answers &Out,
                          std::string &Err);

private:
  class Bundle;

  /// Reads bundle \p K into \p Out and installs its answers in the map
  /// (those not already there, up to MaxEntries).  A torn or unparsable
  /// bundle is quarantined and reads as empty.
  void load(const Fingerprint &K, Answers &Out);
  /// The answer for \p Key from the map, else from \p Loaded (a bundle's
  /// answers that did not fit the map), offered to \p I and counted.
  /// \p Served receives the accepted answer.
  bool serve(const Fingerprint &Key, const Answers &Loaded, const Install &I,
             CachedResult &Served);
  void insert(const Fingerprint &Key, const CachedResult &R);

  struct Slot {
    CachedResult R;
    bool OffDisk = false; ///< Read off disk and not yet served.
  };

  SideCondConfig Cfg;
  EntryFiles Files;

  mutable std::mutex Mu;
  std::unordered_map<Fingerprint, Slot, FingerprintHash> Map;
  SideCondStats St;
};

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
