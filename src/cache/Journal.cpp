//===- cache/Journal.cpp - Append-only run journal ----------------------------===//

#include "cache/Journal.h"

#include "cache/EntryFiles.h" // atomicWriteFile, fsyncEnabled
#include "support/FaultInjector.h"
#include "support/Record.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace islaris;
using namespace islaris::cache;

namespace fs = std::filesystem;

static constexpr std::string_view JournalMagic = "islaris-journal";
static constexpr uint64_t JournalVersion = 2;

RunJournal::RunJournal(std::string Path) : FilePath(std::move(Path)) {}

RunJournal::~RunJournal() {
  if (Fd >= 0)
    ::close(Fd);
}

void RunJournal::noteDiag(support::Diag D) {
  if (Diags.size() < 64)
    Diags.push_back(std::move(D));
}

std::string RunJournal::encodeRecord(const Fingerprint &K,
                                     const std::string &Payload) {
  return support::encodeRecord(JournalMagic, JournalVersion, K.toHex(),
                               Payload);
}

bool RunJournal::open() {
  std::lock_guard<std::mutex> L(Mu);
  if (Fd >= 0)
    return true;
  std::error_code EC;
  fs::path Parent = fs::path(FilePath).parent_path();
  if (!Parent.empty())
    fs::create_directories(Parent, EC);

  // Recovery scan: accept the longest prefix of valid records; everything
  // after the first malformed byte is a torn tail from a crash mid-append
  // and is truncated away (it cannot describe completed work: the append
  // protocol syncs the record before the job is reported complete).
  std::string Text;
  {
    std::ifstream In(FilePath, std::ios::binary);
    if (In) {
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Text = Buf.str();
    }
  }
  size_t Pos = 0;
  while (Pos < Text.size()) {
    // An incomplete, foreign-version or malformed record all end the valid
    // prefix alike.
    support::RecordParse R =
        support::parseRecord(std::string_view(Text).substr(Pos), JournalMagic,
                             JournalVersion, UINT64_MAX);
    Fingerprint K;
    if (R.S != support::RecordParse::Ok || !Fingerprint::fromHex(R.Tag, K))
      break;
    auto It = Map.find(K);
    if (It == Map.end())
      LiveBytes += R.Consumed;
    else
      LiveBytes += R.Consumed - encodeRecord(K, It->second).size();
    Map[K] = std::string(R.Payload); // last record for a key wins
    Pos += R.Consumed;
  }
  FileBytes = Pos;
  if (Pos < Text.size()) {
    TornBytes = Text.size() - Pos;
    if (::truncate(FilePath.c_str(), off_t(Pos)) != 0) {
      noteDiag(support::Diag::error(
          support::ErrorCode::IoError, "journal",
          "could not truncate torn journal tail: " + FilePath));
      return false;
    }
    noteDiag(support::Diag(
        support::ErrorCode::ChecksumMismatch, "journal",
        "truncated " + std::to_string(TornBytes) +
            " bytes of torn journal tail (crash mid-append): " + FilePath,
        support::Severity::Warning));
  }

  Fd = ::open(FilePath.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (Fd < 0) {
    noteDiag(support::Diag::error(
        support::ErrorCode::IoError, "journal",
        "could not open run journal for append: " + FilePath));
    return false;
  }
  return true;
}

bool RunJournal::append(const Fingerprint &K, const std::string &Payload) {
  using support::FaultInjector;
  using support::FaultSite;
  std::string Record = encodeRecord(K, Payload);
  std::lock_guard<std::mutex> L(Mu);
  if (Fd < 0)
    return false;
  // Crash-storm probe #1: die before any byte of the record lands — the job
  // simply re-runs on resume.
  if (FaultInjector::fire(FaultSite::CrashJournal))
    std::_Exit(42);
  // The record is written in two halves with a crash probe between them so
  // the storm harness can manufacture a genuinely torn tail (a single
  // write(2) would be all-or-nothing on most filesystems).
  size_t Half = Record.size() / 2;
  auto WriteAll = [&](const char *Data, size_t Size) {
    size_t Off = 0;
    while (Off < Size) {
      ssize_t N = ::write(Fd, Data + Off, Size - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += size_t(N);
    }
    return true;
  };
  if (!WriteAll(Record.data(), Half)) {
    noteDiag(support::Diag::error(support::ErrorCode::IoError, "journal",
                                  "journal append failed: " + FilePath));
    return false;
  }
  // Crash-storm probe #2: die with half a record on disk — recovery must
  // truncate it away.
  if (FaultInjector::fire(FaultSite::CrashJournal))
    std::_Exit(42);
  if (!WriteAll(Record.data() + Half, Record.size() - Half)) {
    noteDiag(support::Diag::error(support::ErrorCode::IoError, "journal",
                                  "journal append failed: " + FilePath));
    return false;
  }
  if (fsyncEnabled())
    ::fsync(Fd);
  // Crash-storm probe #3: die after the sync — the record must survive and
  // the job must be skipped on resume.
  if (FaultInjector::fire(FaultSite::CrashJournal))
    std::_Exit(42);
  FileBytes += Record.size();
  auto It = Map.find(K);
  if (It == Map.end())
    LiveBytes += Record.size();
  else
    LiveBytes += Record.size() - encodeRecord(K, It->second).size();
  Map[K] = Payload;
  // Rotation: once the file outgrows the threshold and at least half of it
  // is dead (superseded records), rewrite it.  The half-dead gate keeps a
  // journal of mostly-distinct keys from recompacting on every append.
  if (CompactThreshold && FileBytes > CompactThreshold &&
      LiveBytes <= FileBytes / 2)
    compactLocked();
  return true;
}

void RunJournal::setCompactThreshold(uint64_t Bytes) {
  std::lock_guard<std::mutex> L(Mu);
  CompactThreshold = Bytes;
}

bool RunJournal::compact() {
  std::lock_guard<std::mutex> L(Mu);
  return compactLocked();
}

bool RunJournal::compactLocked() {
  if (Fd < 0)
    return false;
  // Deterministic record order: sorted by key, so two compactions of the
  // same logical state produce byte-identical files.
  std::vector<const Fingerprint *> Keys;
  Keys.reserve(Map.size());
  for (const auto &[K, V] : Map) {
    (void)V;
    Keys.push_back(&K);
  }
  std::sort(Keys.begin(), Keys.end(),
            [](const Fingerprint *A, const Fingerprint *B) { return *A < *B; });
  std::string Text;
  Text.reserve(LiveBytes);
  for (const Fingerprint *K : Keys)
    Text += encodeRecord(*K, Map.at(*K));
  uint64_t Reclaimed = FileBytes > Text.size() ? FileBytes - Text.size() : 0;
  // atomicWriteFile gives the full write-temp/fsync/rename/fsync-dir
  // protocol; the old append descriptor then points at the unlinked inode
  // and must be swapped for one on the new file.
  if (!atomicWriteFile(FilePath, Text)) {
    noteDiag(support::Diag::error(support::ErrorCode::IoError, "journal",
                                  "journal compaction rewrite failed: " +
                                      FilePath));
    return false;
  }
  ::close(Fd);
  Fd = ::open(FilePath.c_str(), O_WRONLY | O_APPEND, 0644);
  if (Fd < 0) {
    noteDiag(support::Diag::error(
        support::ErrorCode::IoError, "journal",
        "could not reopen journal after compaction: " + FilePath));
    return false;
  }
  FileBytes = LiveBytes = Text.size();
  ++Compactions;
  noteDiag(support::Diag(
      support::ErrorCode::Ok, "journal",
      "compacted run journal (" + std::to_string(Reclaimed) +
          " bytes of superseded records reclaimed): " + FilePath,
      support::Severity::Note));
  return true;
}

const std::string *RunJournal::find(const Fingerprint &K) const {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(K);
  return It == Map.end() ? nullptr : &It->second;
}

size_t RunJournal::records() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

uint64_t RunJournal::tornBytesDiscarded() const {
  std::lock_guard<std::mutex> L(Mu);
  return TornBytes;
}

uint64_t RunJournal::fileBytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return FileBytes;
}

unsigned RunJournal::compactions() const {
  std::lock_guard<std::mutex> L(Mu);
  return Compactions;
}

std::vector<support::Diag> RunJournal::drainDiags() {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<support::Diag> Out;
  Out.swap(Diags);
  return Out;
}
