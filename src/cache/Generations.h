//===- cache/Generations.h - Model-fingerprint store generations -*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generation bookkeeping for the persistent trace store (the side-condition
/// store's keys are model-independent and need none).  Trace entries are
/// content-addressed under keys that hash the ISA model, so editing a model
/// orphans every entry minted against the old text: still perfectly valid
/// files, never looked up again.  Over months of model iteration a shared
/// store accumulates unbounded garbage no LRU budget can tell apart from
/// hot entries.
///
/// The fix is a generation registry keyed on model fingerprints:
///
///   <dir>/generations.txt           "<model-fp> <seq> <unix-time>" lines
///   <dir>/manifests/<model-fp>.mf   one entry-key hex per line
///
/// Every run *touches* the fingerprint of each model it executes against,
/// bumping it to the newest generation, and every published entry appends
/// its key to the owning model's manifest.  `cachectl gc
/// --keep-generations N` then retires every fingerprint outside the N most
/// recently touched generations and deletes exactly the entries their
/// manifests enumerate.
///
/// All bookkeeping is best-effort by design: a lost manifest line keeps an
/// orphan entry alive (wasted bytes, recomputable), never deletes a live
/// one — gc only ever removes keys explicitly recorded against a retired
/// fingerprint, and evicted entries are re-derived on the next miss.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_GENERATIONS_H
#define ISLARIS_CACHE_GENERATIONS_H

#include "cache/Fingerprint.h"
#include "support/Diag.h"

#include <cstdint>
#include <string>
#include <vector>

namespace islaris::cache {

struct GenerationRecord {
  Fingerprint ModelFp;
  uint64_t Seq = 0;         ///< Monotonic per store; highest = newest.
  uint64_t TouchedUnix = 0; ///< Wall clock of the last touch (operator info).
};

/// Reads \p Dir's generation registry, oldest first.  Missing registry or
/// malformed lines degrade to an empty/partial result, never an error.
std::vector<GenerationRecord> readGenerations(const std::string &Dir);

/// Marks \p ModelFp as the newest generation of \p Dir's registry (creating
/// registry and directory as needed).  Memoized per (dir, fingerprint) per
/// process, so hot paths may call it unconditionally.  Thread-safe; cross-
/// process races are last-writer-wins (a lost touch ages a model early,
/// which costs a recomputation, never a wrong result).
void touchGeneration(const std::string &Dir, const Fingerprint &ModelFp);

/// Appends entry \p Key to \p ModelFp's manifest in \p Dir, recording which
/// model the entry was minted against.  Best-effort; failures are silent
/// (the entry merely outlives its generation).
void recordEntryGeneration(const std::string &Dir, const Fingerprint &ModelFp,
                           const Fingerprint &Key);

struct GenerationGcOptions {
  std::string Dir;
  /// Generations to keep, newest first.  Fingerprints outside the newest N
  /// are retired and their manifest entries deleted.
  unsigned KeepGenerations = 2;
  bool DryRun = false;
};

struct GenerationGcReport {
  uint64_t Generations = 0;    ///< Registry rows seen.
  uint64_t Retired = 0;        ///< Model fingerprints retired.
  uint64_t EntriesRemoved = 0; ///< Entry files deleted (or counted, dry-run).
  uint64_t BytesReclaimed = 0;
  std::vector<support::Diag> Diags;
};

/// Retires every generation of \p O.Dir outside the newest
/// O.KeepGenerations: deletes the entries each retired fingerprint's
/// manifest enumerates, removes the manifest, and rewrites the registry
/// without the retired rows.  Safe on a live store — entries are immutable
/// and recomputable, so the worst interleaving costs a re-execution.
GenerationGcReport gcGenerations(const GenerationGcOptions &O);

} // namespace islaris::cache

#endif // ISLARIS_CACHE_GENERATIONS_H
