//===- cache/Journal.h - Append-only run journal ----------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write-ahead journal behind resumable suite runs.  A suite run
/// appends one checksummed record per completed job — keyed on a
/// fingerprint of the job's identity and suite configuration, carrying the
/// serialized result — so a run killed partway through can be restarted
/// with the same options and skip every job whose record survived, while
/// reproducing bit-identical aggregate results.
///
/// Each record is one record of the shared grammar (support/Record.h),
/// self-delimiting and individually checksummed, tagged with the job key:
///
///   (islaris-journal 2 <keyhex> <payload-len> <sum-hex>)\n<payload>\n
///
/// The file is append-only; recovery is a single forward scan that accepts
/// the longest valid prefix and truncates anything after it: an incomplete
/// record, a hostile length, another version or a bad checksum all end the
/// prefix alike.  A crash mid-append leaves at most one torn tail record,
/// which carries no completed work by definition — the job's effects on
/// the entry stores are idempotent first-writer-wins publishes, so
/// replaying it is safe.  Appends are
/// fsync'd (ISLARIS_NO_FSYNC opt-out shared with atomicWriteFile) so a
/// record observed by the dying process is observed by its successor.
/// Duplicate keys can occur when a crash lands between a job finishing and
/// its record syncing on a later run; the last record wins (all records for
/// a key encode the same result, so this is a tie-break, not a merge).
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_JOURNAL_H
#define ISLARIS_CACHE_JOURNAL_H

#include "cache/Fingerprint.h"
#include "support/Diag.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace islaris::cache {

/// An append-only, checksummed, crash-recoverable key -> payload log.
/// Thread-safe: suite workers append concurrently behind one mutex.
class RunJournal {
public:
  /// \p Path is the journal file; nothing is opened until open().
  explicit RunJournal(std::string Path);
  ~RunJournal();

  RunJournal(const RunJournal &) = delete;
  RunJournal &operator=(const RunJournal &) = delete;

  /// Opens (creating the file and parent directory as needed), scans the
  /// existing records into memory, and truncates any torn tail left by a
  /// crash mid-append.  Returns false when the file cannot be opened for
  /// appending — the journal is then disabled and append() fails cleanly.
  bool open();

  /// The payload recorded for \p K, or null when no record survived.
  const std::string *find(const Fingerprint &K) const;

  /// Appends a record durably (write + fsync before returning).  Returns
  /// false when the journal is closed or the write failed; the in-memory
  /// map is only updated on success.  When a compaction threshold is set
  /// and the file has outgrown it, the append triggers a compaction pass.
  bool append(const Fingerprint &K, const std::string &Payload);

  /// Arms automatic rotation: once the journal file exceeds \p Bytes after
  /// an append AND rewriting last-record-per-key would reclaim at least
  /// half the file (long-lived suites re-append every key each run, so the
  /// dead-record fraction grows without bound), the file is compacted in
  /// place.  0 (the default) disables automatic compaction.
  void setCompactThreshold(uint64_t Bytes);

  /// One rotation/compaction pass: rewrites the last record per key into a
  /// fresh file and atomically swaps it over the journal (write-temp,
  /// fsync, rename — the same durability protocol as the entry stores), so
  /// a crash at any point leaves either the old or the new file, never a
  /// mix.  The append descriptor is reopened on the new file.  Returns
  /// false when the rewrite or the reopen failed (the journal is then
  /// closed — appends fail cleanly rather than landing on a stale inode).
  bool compact();

  /// Number of distinct keys with a surviving record.
  size_t records() const;
  /// Bytes of torn tail discarded by open() (0 on a clean file).
  uint64_t tornBytesDiscarded() const;
  /// Current journal file size in bytes (valid records only).
  uint64_t fileBytes() const;
  /// Compaction passes run (automatic and explicit) since open().
  unsigned compactions() const;
  const std::string &path() const { return FilePath; }

  /// Returns and clears diagnostics (torn-tail truncation, I/O failures);
  /// bounded to 64 between drains.
  std::vector<support::Diag> drainDiags();

  /// One serialized record, exposed for tests and scrub tooling.
  static std::string encodeRecord(const Fingerprint &K,
                                  const std::string &Payload);

private:
  std::string FilePath;
  int Fd = -1; ///< Append descriptor; -1 when closed/disabled.

  mutable std::mutex Mu;
  std::unordered_map<Fingerprint, std::string, FingerprintHash> Map;
  uint64_t TornBytes = 0;
  uint64_t FileBytes = 0;    ///< Valid bytes on disk (append-tracked).
  uint64_t LiveBytes = 0;    ///< Bytes a compacted rewrite would occupy.
  uint64_t CompactThreshold = 0;
  unsigned Compactions = 0;
  std::vector<support::Diag> Diags;

  void noteDiag(support::Diag D);
  /// compact() body; requires Mu held.
  bool compactLocked();
};

} // namespace islaris::cache

#endif // ISLARIS_CACHE_JOURNAL_H
