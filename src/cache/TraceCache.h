//===- cache/TraceCache.h - Content-addressed ITL trace store ---*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed store of symbolic-execution results, mirroring the
/// on-disk cache the real Isla tool keeps of per-opcode traces.  Entries are
/// keyed by cache::traceCacheKey fingerprints and stored in *serialized*
/// form: the ITL trace as its printed S-expression (Figs. 3/6 syntax) plus
/// the opcode-variable names and execution statistics.  Consumers
/// materialize an entry into their own TermBuilder through itl::TraceParser,
/// so every cache hit doubles as an adequacy test of the ITL grammar
/// (print . parse == id), and results are bit-identical whether they came
/// from a fresh execution, the in-memory cache, or disk.
///
/// The in-memory map is LRU-bounded and fully thread-safe; optional
/// persistence writes one file per entry under a cache directory
/// (ISLARIS_CACHE_DIR env override, default build/.trace-cache) through
/// cache::EntryFiles, which owns the sharded layout, the checksummed
/// envelope, quarantine and first-writer-wins publication.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_TRACECACHE_H
#define ISLARIS_CACHE_TRACECACHE_H

#include "cache/EntryFiles.h"
#include "cache/Fingerprint.h"
#include "itl/Trace.h"
#include "support/Diag.h"

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace islaris::smt {
class TermBuilder;
}

namespace islaris::cache {

/// A cached symbolic-execution result in serialized, builder-independent
/// form.
struct CacheEntry {
  /// The printed "(trace ...)" S-expression.
  std::string TraceText;
  /// Names and widths of the fresh variables standing for symbolic opcode
  /// fields, low-to-high (ExecResult::OpcodeVars).  Every name is declared
  /// by a declare-const event inside TraceText.
  std::vector<std::pair<std::string, unsigned>> OpcodeVars;
  isla::ExecStats Stats;
};

/// Counters of cache behavior, surfaced through GenStats and bench_cache.
struct CacheStats {
  uint64_t Hits = 0;       ///< In-memory lookups that found an entry.
  uint64_t DiskHits = 0;   ///< Memory misses satisfied from disk.
  uint64_t Misses = 0;     ///< Lookups satisfied nowhere.
  uint64_t Insertions = 0; ///< insert() calls that stored a new entry.
  uint64_t Evictions = 0;  ///< Entries dropped by the LRU bound.
  uint64_t DiskWrites = 0; ///< Entry files written.
  /// Corrupt on-disk entries displaced on read (self-repair: publishing is
  /// first-writer-wins, so a torn entry left in place would never heal).
  uint64_t CorruptRemoved = 0;
  /// Corrupt entries preserved under dir()/quarantine/ for post-mortem
  /// instead of being deleted outright (a subset of CorruptRemoved).
  uint64_t Quarantined = 0;
  /// Entry publishes that failed (directory unwritable, device full, rename
  /// refused).  islarisd watches this to flip into cache-off degraded mode
  /// instead of emitting one error per request.
  uint64_t WriteFailures = 0;
};

struct TraceCacheConfig {
  /// LRU bound on in-memory entries (entries, not bytes; a per-opcode trace
  /// is a few KB).
  size_t MaxEntries = 4096;
  /// Also read/write entries under dir() (one file per fingerprint).
  bool Persist = false;
  /// Cache directory; empty means resolveCacheDir().
  std::string Dir;
  /// Run the clean-shutdown-marker protocol on construction (see
  /// cache/Scrub.h): consume the marker when present, otherwise reap stale
  /// writer temps and spot-check entry envelopes before first use.
  /// Long-lived owners (islarisd) enable this; batch runs keep the seed
  /// behavior of validating entries lazily on read.
  bool ScrubOnOpen = false;
};

/// Resolves the on-disk cache location: $ISLARIS_CACHE_DIR if set and
/// non-empty, else "build/.trace-cache" (relative to the working
/// directory, which for the tier-1 flow is the repository root).
std::string resolveCacheDir();

/// Thread-safe content-addressed trace store.  Shared by all BatchDriver
/// workers behind an internal mutex; disk I/O happens outside the lock.
class TraceCache {
public:
  explicit TraceCache(TraceCacheConfig C = TraceCacheConfig());

  TraceCache(const TraceCache &) = delete;
  TraceCache &operator=(const TraceCache &) = delete;

  /// Looks up \p K in memory, then (when persistent) on disk.  A disk hit
  /// is promoted into memory.  The entry is shared, not copied: it stays
  /// valid after eviction for as long as the caller holds it.
  std::shared_ptr<const CacheEntry> lookup(const Fingerprint &K);

  /// Stores \p E under \p K (most-recently-used position).  Re-inserting an
  /// existing key refreshes recency but keeps the first entry.
  void insert(const Fingerprint &K, CacheEntry E);

  /// Forgets \p K: drops it from memory and, when persistent, quarantines
  /// its file with \p Why.  For an entry whose envelope verifies but which
  /// fails decode(), so that the next lookup misses and re-executes.
  void discard(const Fingerprint &K, const std::string &Why);

  /// Drops all in-memory entries (disk files are kept).  Counters survive.
  void clearMemory();

  size_t size() const;
  CacheStats stats() const;
  /// Returns and clears the diagnostics accumulated by disk I/O (corrupt
  /// entries, unwritable cache directory).  Bounded: at most 64 are kept
  /// between drains so a corrupt store cannot balloon memory.
  std::vector<support::Diag> drainDiags() { return Files.drainDiags(); }
  const TraceCacheConfig &config() const { return Cfg; }
  /// The directory persistent entries live in (valid even when persistence
  /// is off, for diagnostics).
  const std::string &dir() const { return Files.dir(); }

  /// Degraded-mode switch: while disabled, lookup() never touches disk and
  /// insert() never publishes, but the in-memory LRU keeps working — the
  /// daemon's answer to a full or failing device is "serve from memory,
  /// stop hammering the disk" rather than one error per request.  Counters
  /// and existing on-disk entries are untouched; re-enabling resumes normal
  /// persistence (first-writer-wins fills any holes).
  void setDiskDisabled(bool Off) { Files.setDisabled(Off); }
  bool diskDisabled() const { return Files.disabled(); }

  //===------------------------------------------------------------------===//
  // Serialization (also used directly by tests and the batch driver).
  //===------------------------------------------------------------------===//

  /// Serializes a successful ExecResult (trace printed, opcode vars by
  /// name).  Asserts R.Ok.
  static CacheEntry encode(const isla::ExecResult &R);

  /// Materializes \p E into \p TB: parses the trace text (creating fresh
  /// variables in \p TB) and resolves the opcode variables by name.
  /// Returns false and sets \p Err if the text does not re-parse — which
  /// would mean the ITL grammar lost information (an adequacy bug) — or
  /// if an opcode variable is not declared, at its width, at the trace's
  /// top level.
  static bool decode(const CacheEntry &E, smt::TermBuilder &TB,
                     isla::ExecResult &Out, std::string &Err);

  /// The on-disk entry format: the one-line header
  ///   (islaris-trace-cache 1 <keyhex> (opcode-vars (|v| w) ...) (stats
  ///   paths pruned queries events))\n
  /// with single spaces exactly as shown (parseEntry matches it literally),
  /// then the trace text verbatim and a newline.
  static std::string serializeEntry(const Fingerprint &K,
                                    const CacheEntry &E);
  /// Appends the bytes of serializeEntry(K, E) to \p Out.
  static void appendEntry(std::string &Out, const Fingerprint &K,
                          const CacheEntry &E);
  /// Inverse of serializeEntry.  The embedded key is not checked: the
  /// entry file's envelope names the key (cache/EntryFiles.h).
  static bool parseEntry(const std::string &Text, CacheEntry &Out,
                         std::string &Err);

private:
  /// Adds \p K (absent) as most recently used, evicting past the bound;
  /// requires Mu.
  void addLocked(const Fingerprint &K, std::shared_ptr<const CacheEntry> E);

  TraceCacheConfig Cfg;
  EntryFiles Files;

  mutable std::mutex Mu;
  struct Slot {
    std::shared_ptr<const CacheEntry> Entry;
    std::list<Fingerprint>::iterator LruIt;
  };
  std::unordered_map<Fingerprint, Slot, FingerprintHash> Map;
  std::list<Fingerprint> Lru; ///< Front = most recently used.
  CacheStats St;
};

/// A process-wide cache read only by frontend::defaultRunContext(), the
/// default context of the study runners (null by default: caching is
/// opt-in).  Kept for the repo benchmark, whose no-argument runner calls
/// share stores through it; everything else passes a RunContext.  Set it
/// before spawning concurrent case studies; the pointer itself is not
/// synchronized.
TraceCache *ambientTraceCache();
void setAmbientTraceCache(TraceCache *C);

} // namespace islaris::cache

#endif // ISLARIS_CACHE_TRACECACHE_H
