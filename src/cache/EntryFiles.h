//===- cache/EntryFiles.h - On-disk entry files of a store ------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk half of the content-addressed stores.  TraceCache and
/// SideCondStore keep only their in-memory maps and entry (de)serialization;
/// everything about entry *files* lives here, once:
///
///   - the layout: one file per fingerprint (a trace entry, or a proof
///     bundle of side-condition answers), sharded into 256 fan-out
///     subdirectories on the leading fingerprint byte, <dir>/<hex[0:2]>/<hex>
///     plus the store's extension;
///   - the durability envelope, verified before any payload byte reaches a
///     parser: each file is exactly one record of the shared grammar
///     (support/Record.h) whose tag is the entry's key, so this module
///     alone decides whether a file is the entry of key K;
///   - quarantine: a file that fails verification is a miss, moves to
///     <dir>/quarantine/ and yields one bounded Diag, which frees the path
///     so republication heals the entry;
///   - publishing: trace entries are first-writer-wins, bundles are
///     replaced; both by atomic rename, so readers never see a mix;
///   - the degraded-mode switch, the disk counters and scrub-on-open;
///   - the walk the offline passes (cache/Scrub) use, so they agree with
///     readers on what a live entry is.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_ENTRYFILES_H
#define ISLARIS_CACHE_ENTRYFILES_H

#include "cache/Fingerprint.h"
#include "support/Diag.h"
#include "support/Record.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace islaris::cache {

/// Entry file extensions of the two stores.
inline constexpr std::string_view TraceEntryExt = ".itc";
inline constexpr std::string_view SideCondEntryExt = ".scc";

/// Atomically publishes \p Content at \p Path via write-to-temp + rename.
/// The temp suffix combines the pid with a process-wide monotonic counter,
/// so concurrent writers — in this process or another one sharing the cache
/// directory — never collide on the temp name; on any failure the temp file
/// is removed rather than left orphaned.  The temp file is fsync'd before
/// the rename and the parent directory after it, so a crash after
/// atomicWriteFile returns cannot lose or tear the published file; set
/// ISLARIS_NO_FSYNC=1 to skip both syncs (tests, throwaway caches).
/// Returns false if \p Path could not be published (the caller treats that
/// as "no entry written").
bool atomicWriteFile(const std::string &Path, const std::string &Content);

/// False when ISLARIS_NO_FSYNC is set non-empty (read per call: tests
/// toggle it at runtime).
bool fsyncEnabled();

/// Current on-disk entry format version.  Files of an older version read
/// as BadVersion (version 3 summed its records with byte-wise FNV-1a;
/// version 2's envelope put the checksum before the size and named no key)
/// or Corrupt (version 1 had no envelope): a miss, quarantined.
inline constexpr unsigned DurableFormatVersion = 4;

/// Byte-wise FNV-1a (support/Record.h), a digest of entry bytes.
using support::fnv1a64;

/// Outcome of validating a store file as the entry record of one key.
enum class EnvelopeResult {
  Ok,         ///< checksum verified; payload extracted.
  BadVersion, ///< header present but written by another format version.
  Corrupt,    ///< not exactly one record: no envelope, truncated
              ///< header/payload, trailing bytes or checksum mismatch.
  Empty,      ///< zero-length file (e.g. crash between create and write).
  Misnamed,   ///< a valid record whose tag names another key (a renamed
              ///< or cross-linked file would otherwise serve the wrong key).
};

/// Wraps \p Payload as \p K's entry: one record of the shared grammar
/// (support/Record.h), tagged with K's hex,
///   (islaris-entry 4 <keyhex> <payload-len> <sum-hex>)\n<payload>\n
std::string wrapDurableEntry(const Fingerprint &K, std::string_view Payload);

/// Validates \p File as exactly one entry record for \p K; on Ok,
/// \p Payload receives the entry payload.  Never throws; any malformed
/// input maps to a non-Ok result.
EnvelopeResult unwrapDurableEntry(std::string_view File, const Fingerprint &K,
                                  std::string &Payload);

/// Maps a non-Ok envelope verdict onto the Diag error code suite
/// aggregation reports (Empty and Misnamed -> CorruptCacheEntry, Corrupt ->
/// ChecksumMismatch, BadVersion -> CacheVersionMismatch).
support::ErrorCode envelopeErrorCode(EnvelopeResult R);

/// Moves the corrupt file at \p Path into \p Dir/quarantine/ (creating the
/// subdirectory as needed), freeing the path so first-writer-wins publishing
/// can heal the entry while preserving the corpse for post-mortem.  Falls
/// back to deleting the file when the move fails.  Returns true if the path
/// was freed either way.
bool quarantineFile(const std::string &Dir, const std::string &Path);

/// The entry files of one store directory.  Thread-safe; file I/O happens
/// outside the internal mutex.
class EntryFiles {
public:
  EntryFiles(std::string Dir, std::string_view Ext)
      : Dir(std::move(Dir)), Ext(Ext) {}

  const std::string &dir() const { return Dir; }

  /// The sharded path of \p K's entry under \p Dir.
  static std::string entryPath(const std::string &Dir, const Fingerprint &K,
                               std::string_view Ext);

  /// Runs the clean-shutdown-marker protocol (cache/Scrub.h) on this
  /// directory before first use, folding what it quarantined into the
  /// counters and diags.
  void scrubIfUnclean();

  /// Reads \p K's entry and verifies its envelope into \p Payload.  False
  /// on a miss: no file, disk disabled, an injected read fault, or a file
  /// that failed verification (quarantined, with a Diag).
  bool read(const Fingerprint &K, std::string &Payload);

  /// Quarantines \p K's entry file after its payload failed to parse;
  /// \p Why is the parser's reason.
  void discard(const Fingerprint &K, const std::string &Why);

  /// Publishes \p Payload, enveloped, as \p K's entry unless the file
  /// already exists (trace entries are immutable: first writer wins).
  /// Returns true when this call wrote the file.
  bool publish(const Fingerprint &K, const std::string &Payload);
  /// Publishes \p Payload as \p K's entry, atomically replacing any file
  /// already there (proof bundles: last writer wins).
  bool replace(const Fingerprint &K, const std::string &Payload);

  /// Degraded-mode switch: while disabled, read() and publish() never touch
  /// the disk (see TraceCache::setDiskDisabled).
  void setDisabled(bool Off) { Disabled.store(Off, std::memory_order_relaxed); }
  bool disabled() const { return Disabled.load(std::memory_order_relaxed); }

  /// Returns and clears the accumulated diagnostics (corrupt entries,
  /// unwritable directory); at most 64 are kept between drains.
  std::vector<support::Diag> drainDiags();

  /// Fills the disk counters of a CacheStats or SideCondStats.
  template <typename Stats> void fillStats(Stats &S) const {
    std::lock_guard<std::mutex> L(Mu);
    S.DiskWrites = DiskWrites;
    S.CorruptRemoved = S.Quarantined = Quarantined;
    S.WriteFailures = WriteFailures;
  }

private:
  bool write(const Fingerprint &K, const std::string &Payload, bool Replace);
  void quarantine(const std::string &Path, support::ErrorCode Code,
                  const std::string &Why);
  void noteWriteFailure(const std::string &Path);

  std::string Dir;
  std::string_view Ext;

  mutable std::mutex Mu;
  std::atomic<bool> Disabled{false};
  bool WarnedUnwritable = false;
  std::vector<support::Diag> Diags;
  uint64_t DiskWrites = 0, Quarantined = 0, WriteFailures = 0;
};

//===----------------------------------------------------------------------===//
// Offline view of a store directory (cache/Scrub).
//===----------------------------------------------------------------------===//

/// A regular file under a store root, as found by scanStore.
struct StoreFile {
  /// Temp is a writer temp: never read, only reaped.  Other covers run
  /// journals, the generation registry, markers and operator notes.
  enum Kind { Entry, Temp, Other };
  Kind K = Other;
  std::string Path;
  std::string Stem;       ///< The fingerprint hex, for entries.
  bool Misplaced = false; ///< Entry outside its shard: no reader opens it.
};

/// Lists the regular files of the store rooted at \p Root: the root itself
/// and its shard directories only.  Anything else — quarantine/ (corpses
/// kept on purpose), manifests/, a sibling store nested under the same root
/// (sidecond/ under the trace root) — is not this store's.  A missing root
/// yields no files; false (with \p Err) when the walk itself fails.
bool scanStore(const std::string &Root, std::vector<StoreFile> &Out,
               std::string &Err);

/// Checks an Entry found by scanStore the way a reader would: the envelope
/// for the key its name promises, then placement.
/// Returns ErrorCode::Ok for a live entry, IoError when the file cannot be
/// read, otherwise the failure's code with \p Why set to "corrupt",
/// "misnamed" or "misplaced".
support::ErrorCode verifyEntryFile(const StoreFile &F, std::string &Why);

} // namespace islaris::cache

#endif // ISLARIS_CACHE_ENTRYFILES_H
