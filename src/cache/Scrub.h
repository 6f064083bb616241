//===- cache/Scrub.h - Offline store scrub & compaction ---------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline maintenance pass over a persistent store directory
/// (TraceCache or SideCondStore — both keep their entries through
/// cache::EntryFiles, so one scrubber serves both).  A scrub:
///
///   - reaps stale ".tmp." files left by crashed writers,
///   - verifies every entry the way a reader would (cache/EntryFiles),
///     quarantining files whose envelope, embedded key, or placement does
///     not hold — an entry outside its shard is never opened by a reader,
///   - enforces an optional size budget by evicting least-recently-touched
///     entries (LRU by mtime; readers re-derive evicted results, so
///     eviction is always safe).
///
/// Exposed as a library call for tests and as the `cachectl` mini-tool for
/// operators.  Scrubbing a live store is safe: entries are published by
/// atomic rename and every side-condition answer is checked against its own
/// key, so the worst interleaving costs a recomputation, never a wrong hit.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_SCRUB_H
#define ISLARIS_CACHE_SCRUB_H

#include "support/Diag.h"

#include <cstdint>
#include <string>
#include <vector>

namespace islaris::cache {

struct ScrubOptions {
  /// Store root to scrub (one of the per-store directories, e.g.
  /// resolveCacheDir() or resolveCacheDir() + "/sidecond").
  std::string Dir;
  /// Entry size budget in bytes; 0 disables compaction.  When the store
  /// exceeds the budget, oldest-mtime entries are evicted until it fits.
  uint64_t MaxBytes = 0;
  /// Report what would change without touching the store.
  bool DryRun = false;
};

struct ScrubReport {
  uint64_t FilesScanned = 0;   ///< Regular files visited (excl. quarantine/).
  uint64_t OkEntries = 0;      ///< Entries that verified in place.
  uint64_t Quarantined = 0;    ///< Failed entries moved to quarantine/.
  uint64_t TempsRemoved = 0;   ///< Stale writer temp files reaped.
  uint64_t Evicted = 0;        ///< Entries evicted by the size budget.
  uint64_t BytesReclaimed = 0; ///< Bytes freed by reaping + eviction.
  uint64_t BytesInUse = 0;     ///< Entry bytes remaining after the pass.
  std::vector<support::Diag> Diags;

  bool clean() const { return Quarantined == 0 && Diags.empty(); }
};

/// Runs one scrub/compaction pass over \p O.Dir.  A missing directory is a
/// no-op (empty report), not an error.
ScrubReport scrubStore(const ScrubOptions &O);

//===----------------------------------------------------------------------===//
// Clean-shutdown marker & scrub-on-open.  A long-lived process (islarisd)
// writes a marker file into each store directory when it drains cleanly; a
// store opened with ScrubOnOpen enabled consumes the marker (the store is
// in use again — a crash from here leaves it absent) and, when the marker
// is MISSING, runs a quick scrub first: reap stale writer temps and
// spot-check a bounded sample of entry envelopes, quarantining corruption
// before the first read can trip over it.  Entry publishing is by atomic
// rename, so an unclean shutdown can only leave temps and torn files —
// exactly what the quick pass looks for.
//===----------------------------------------------------------------------===//

/// Marker file name inside a store directory.
inline constexpr const char *CleanShutdownMarker = ".clean-shutdown";

/// Writes \p Dir's clean-shutdown marker (creating the directory as
/// needed).  Returns false on I/O failure.
bool writeCleanShutdownMarker(const std::string &Dir);
bool hasCleanShutdownMarker(const std::string &Dir);
void clearCleanShutdownMarker(const std::string &Dir);

struct QuickScrubReport {
  /// False when the directory does not exist or the marker attested a
  /// clean shutdown (no pass was needed).
  bool Ran = false;
  /// True when the marker was present and consumed.
  bool WasClean = false;
  uint64_t TempsRemoved = 0;
  uint64_t EntriesChecked = 0; ///< Envelopes spot-checked.
  uint64_t Quarantined = 0;    ///< Spot-checked entries that failed.
  std::vector<support::Diag> Diags;
};

/// The scrub-on-open pass: consumes the clean-shutdown marker if present
/// (skipping the scrub), otherwise reaps every stale ".tmp." file and
/// verifies up to \p MaxSpotChecks entries as scrubStore does, quarantining
/// failures.  Bounded by design — this runs on the open path.
QuickScrubReport scrubOnOpen(const std::string &Dir,
                             size_t MaxSpotChecks = 32);

} // namespace islaris::cache

#endif // ISLARIS_CACHE_SCRUB_H
