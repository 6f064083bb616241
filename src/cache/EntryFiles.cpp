//===- cache/EntryFiles.cpp - On-disk entry files of a store ------------------===//

#include "cache/EntryFiles.h"

#include "cache/Scrub.h" // scrubOnOpen
#include "support/FaultInjector.h"
#include "support/Parse.h"
#include "support/Record.h"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

using namespace islaris;
using namespace islaris::cache;

namespace fs = std::filesystem;

/// ISLARIS_NO_FSYNC=1 (any non-empty value) skips the durability syncs —
/// tests and throwaway caches don't need crash safety and fsync dominates
/// their wall time on some filesystems.
bool islaris::cache::fsyncEnabled() {
  const char *E = std::getenv("ISLARIS_NO_FSYNC");
  return !E || !*E;
}

/// fsync on the *directory* makes the rename itself durable (POSIX persists
/// a renamed dirent only once the containing directory is synced).
static void fsyncDir(const fs::path &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

bool islaris::cache::atomicWriteFile(const std::string &Path,
                                     const std::string &Content) {
  using support::FaultInjector;
  using support::FaultSite;
  if (FaultInjector::fire(FaultSite::DiskFull))
    return false; // injected ENOSPC: the device stays full until disarmed
  if (FaultInjector::fire(FaultSite::CacheWrite))
    return false; // injected: entry file could not be created/written
  // Injected torn write: only a prefix reaches disk, and the truncated file
  // IS published — the one failure mode rename cannot mask, standing in for
  // a crash mid-write on a filesystem that reorders data and rename.
  bool Torn = FaultInjector::fire(FaultSite::CacheTornWrite);
  std::string_view Payload(Content);
  if (Torn)
    Payload = Payload.substr(0, Payload.size() / 2);
  static std::atomic<uint64_t> Counter{0};
  std::string Tmp = Path + ".tmp." + std::to_string(uint64_t(::getpid())) +
                    "." +
                    std::to_string(
                        Counter.fetch_add(1, std::memory_order_relaxed));
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  bool WriteOk = true;
  size_t Off = 0;
  while (Off < Payload.size()) {
    ssize_t N = ::write(Fd, Payload.data() + Off, Payload.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      WriteOk = false;
      break;
    }
    Off += size_t(N);
  }
  // Sync the temp file's *data* before the rename publishes it, so a crash
  // right after the rename cannot expose a file whose blocks never hit the
  // platter (the failure mode the old comment here only described).
  if (WriteOk && fsyncEnabled() && ::fsync(Fd) != 0)
    WriteOk = false;
  if (::close(Fd) != 0)
    WriteOk = false;
  if (!WriteOk) {
    std::error_code EC;
    fs::remove(Tmp, EC);
    return false;
  }
  // Crash-storm probe #1: die with the temp durable but not yet visible.  A
  // resumed run must see a clean miss (plus a stale .tmp for scrub to reap).
  if (FaultInjector::fire(FaultSite::CrashPublish))
    std::_Exit(42);
  if (FaultInjector::fire(FaultSite::CacheRename)) {
    std::error_code EC2;
    fs::remove(Tmp, EC2);
    return false; // injected: publish rename failed, temp cleaned up
  }
  std::error_code EC;
  fs::rename(Tmp, Path, EC);
  if (EC) {
    std::error_code EC2;
    fs::remove(Tmp, EC2);
    return false;
  }
  // Crash-storm probe #2: die after the rename but before the directory
  // sync — the published entry may or may not survive; either state must be
  // recoverable.
  if (FaultInjector::fire(FaultSite::CrashPublish))
    std::_Exit(42);
  if (fsyncEnabled())
    fsyncDir(fs::path(Path).parent_path());
  return !Torn;
}

/// Reads the whole file at \p Path into \p Out with a single open(); false
/// when it does not exist or cannot be read.
static bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  std::streamoff Size = In.tellg();
  if (!In || Size < 0)
    return false;
  Out.resize(size_t(Size));
  In.seekg(0);
  return bool(In.read(Out.data(), std::streamsize(Out.size())));
}

//===----------------------------------------------------------------------===//
// Durability envelope.
//===----------------------------------------------------------------------===//

static constexpr std::string_view EntryMagic = "islaris-entry";

std::string islaris::cache::wrapDurableEntry(const Fingerprint &K,
                                             std::string_view Payload) {
  return support::encodeRecord(EntryMagic, DurableFormatVersion, K.toHex(),
                               Payload);
}

EnvelopeResult islaris::cache::unwrapDurableEntry(std::string_view File,
                                                  const Fingerprint &K,
                                                  std::string &Payload) {
  if (File.empty())
    return EnvelopeResult::Empty;
  support::RecordParse R = support::parseRecord(
      File, EntryMagic, DurableFormatVersion, File.size());
  if (R.S == support::RecordParse::BadVersion)
    return EnvelopeResult::BadVersion; // don't guess at other layouts
  // Exactly one whole record: a torn one, trailing bytes or any malformed
  // byte is corruption, never parsed unchecked.
  if (R.S != support::RecordParse::Ok || R.Consumed != File.size())
    return EnvelopeResult::Corrupt;
  Fingerprint Tag;
  if (!Fingerprint::fromHex(R.Tag, Tag) || Tag != K)
    return EnvelopeResult::Misnamed;
  Payload.assign(R.Payload);
  return EnvelopeResult::Ok;
}

support::ErrorCode islaris::cache::envelopeErrorCode(EnvelopeResult R) {
  switch (R) {
  case EnvelopeResult::BadVersion:
    return support::ErrorCode::CacheVersionMismatch;
  case EnvelopeResult::Corrupt:
    return support::ErrorCode::ChecksumMismatch;
  case EnvelopeResult::Ok:
  case EnvelopeResult::Empty:
  case EnvelopeResult::Misnamed:
    break;
  }
  return support::ErrorCode::CorruptCacheEntry;
}

bool islaris::cache::quarantineFile(const std::string &Dir,
                                    const std::string &Path) {
  std::error_code EC;
  fs::path Dest = fs::path(Dir) / "quarantine" / fs::path(Path).filename();
  fs::create_directories(Dest.parent_path(), EC);
  if (!EC) {
    // rename overwrites an existing corpse of the same name: keeping the
    // latest is enough for post-mortem, and it cannot accumulate unboundedly.
    fs::rename(Path, Dest, EC);
    if (!EC)
      return true;
  }
  fs::remove(Path, EC);
  return !fs::exists(Path, EC);
}

//===----------------------------------------------------------------------===//
// One store's entry files.
//===----------------------------------------------------------------------===//

std::string EntryFiles::entryPath(const std::string &Dir, const Fingerprint &K,
                                  std::string_view Ext) {
  // 256-way fan-out on the leading fingerprint byte keeps suite-scale
  // stores (tens of thousands of entries) from piling into one directory.
  std::string Hex = K.toHex();
  return Dir + "/" + Hex.substr(0, 2) + "/" + Hex + std::string(Ext);
}

void EntryFiles::scrubIfUnclean() {
  // No marker means the previous owner died mid-flight: reap its temps and
  // spot-check entries before the first lookup can trip over a torn file.
  QuickScrubReport R = scrubOnOpen(Dir);
  std::lock_guard<std::mutex> L(Mu);
  Quarantined += R.Quarantined;
  Diags = std::move(R.Diags); // bounded by the scrub itself
}

bool EntryFiles::read(const Fingerprint &K, std::string &Payload) {
  if (disabled())
    return false; // degraded mode: leave the failing device alone
  if (support::FaultInjector::fire(support::FaultSite::CacheRead))
    return false; // injected read failure: degrade to a miss
  std::string Path = entryPath(Dir, K, Ext);
  std::string File;
  if (!readWholeFile(Path, File))
    return false;
  // Verify the durability envelope *before* parsing: a checksum, version
  // or key mismatch is attributed precisely instead of surfacing as
  // whatever parse error the garbage happens to trigger.
  EnvelopeResult R = unwrapDurableEntry(File, K, Payload);
  if (R == EnvelopeResult::Ok)
    return true;
  quarantine(Path, envelopeErrorCode(R),
             R == EnvelopeResult::Empty ? "zero-length entry file"
             : R == EnvelopeResult::BadVersion
                 ? "entry written by another format version"
             : R == EnvelopeResult::Misnamed
                 ? "entry file holds another key's record"
                 : "entry checksum did not verify (torn or corrupt)");
  return false;
}

void EntryFiles::discard(const Fingerprint &K, const std::string &Why) {
  quarantine(entryPath(Dir, K, Ext), support::ErrorCode::CorruptCacheEntry,
             Why);
}

void EntryFiles::quarantine(const std::string &Path, support::ErrorCode Code,
                            const std::string &Why) {
  // Treat as a miss AND displace the file: trace entries are
  // first-writer-wins, so leaving the corpse in place would shadow every
  // future rewrite of this key.  The corpse moves to dir()/quarantine/ for
  // post-mortem.
  bool Freed = quarantineFile(Dir, Path);
  std::lock_guard<std::mutex> L(Mu);
  Quarantined += Freed;
  if (Diags.size() < 64)
    Diags.push_back(support::Diag::error(Code, "cache", Why + ": " + Path));
}

bool EntryFiles::publish(const Fingerprint &K, const std::string &Payload) {
  return write(K, Payload, /*Replace=*/false);
}

bool EntryFiles::replace(const Fingerprint &K, const std::string &Payload) {
  return write(K, Payload, /*Replace=*/true);
}

bool EntryFiles::write(const Fingerprint &K, const std::string &Payload,
                       bool Replace) {
  if (disabled())
    return false; // degraded mode: serve from memory, stop hammering disk
  std::error_code EC;
  std::string Path = entryPath(Dir, K, Ext);
  fs::create_directories(fs::path(Path).parent_path(), EC);
  if (EC) {
    noteWriteFailure(Path);
    return false;
  }
  if (!Replace && fs::exists(Path, EC))
    return false; // entries are immutable: first writer wins
  // Write-to-temp + rename keeps concurrent writers from exposing partial
  // files: a reader sees the old file or the new one, never a mix.
  if (!atomicWriteFile(Path, wrapDurableEntry(K, Payload))) {
    noteWriteFailure(Path);
    return false;
  }
  std::lock_guard<std::mutex> L(Mu);
  ++DiskWrites;
  return true;
}

void EntryFiles::noteWriteFailure(const std::string &Path) {
  // Every failed publish counts, whatever the cause — islarisd's degraded-
  // mode detector watches this counter, not the one-time Diag below, which
  // only fires when the directory really is unwritable/uncreatable (a
  // FaultInjector-failed publish into a healthy directory is a different,
  // already-attributed event).
  bool Unwritable =
      ::access(fs::path(Path).parent_path().c_str(), W_OK) != 0;
  std::lock_guard<std::mutex> L(Mu);
  ++WriteFailures;
  if (!Unwritable || std::exchange(WarnedUnwritable, true))
    return;
  if (Diags.size() < 64)
    Diags.push_back(support::Diag::error(
        support::ErrorCode::IoError, "cache",
        "store directory is not writable, running uncached: " + Dir));
}

std::vector<support::Diag> EntryFiles::drainDiags() {
  std::lock_guard<std::mutex> L(Mu);
  return std::exchange(Diags, {});
}

//===----------------------------------------------------------------------===//
// Offline view of a store directory.
//===----------------------------------------------------------------------===//

bool islaris::cache::scanStore(const std::string &Root,
                               std::vector<StoreFile> &Out,
                               std::string &Err) {
  std::error_code EC;
  if (!fs::is_directory(Root, EC))
    return true; // nothing stored yet
  try {
    fs::recursive_directory_iterator It(
        Root, fs::directory_options::skip_permission_denied);
    for (auto End = fs::end(It); It != End; ++It) {
      const fs::path &P = It->path();
      std::string Name = P.filename().string();
      if (It->is_directory()) {
        // Only shard fan-out directories ("00".."ff") belong to the layout.
        if (!(Name.size() == 2 && support::isLowerHex(Name)))
          It.disable_recursion_pending();
        continue;
      }
      if (!It->is_regular_file())
        continue;
      StoreFile F;
      F.Path = P.string();
      std::string Ext = P.extension().string();
      std::string Stem = P.stem().string();
      if (Name.find(".tmp.") != std::string::npos) {
        F.K = StoreFile::Temp;
      } else if ((Ext == TraceEntryExt || Ext == SideCondEntryExt) &&
                 Stem.size() == 32 && support::isLowerHex(Stem)) {
        F.K = StoreFile::Entry;
        F.Misplaced = It.depth() != 1 ||
                      P.parent_path().filename() != Stem.substr(0, 2);
        F.Stem = std::move(Stem);
      }
      Out.push_back(std::move(F));
    }
  } catch (const fs::filesystem_error &E) {
    Err = E.what();
    return false;
  }
  return true;
}

support::ErrorCode islaris::cache::verifyEntryFile(const StoreFile &F,
                                                   std::string &Why) {
  std::string File, Payload;
  if (!readWholeFile(F.Path, File)) {
    Why = "unreadable";
    return support::ErrorCode::IoError;
  }
  Fingerprint K;
  Fingerprint::fromHex(F.Stem, K); // scanStore admits only 32-hex stems
  EnvelopeResult V = unwrapDurableEntry(File, K, Payload);
  if (V != EnvelopeResult::Ok) {
    Why = V == EnvelopeResult::Misnamed ? "misnamed" : "corrupt";
    return envelopeErrorCode(V);
  }
  if (F.Misplaced) {
    Why = "misplaced";
    return support::ErrorCode::CorruptCacheEntry;
  }
  return support::ErrorCode::Ok;
}
