//===- cache/Scrub.cpp - Offline store scrub & compaction ---------------------===//

#include "cache/Scrub.h"

#include "cache/EntryFiles.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

using namespace islaris;
using namespace islaris::cache;

namespace fs = std::filesystem;

namespace {

struct LiveEntry {
  std::string Path;
  uint64_t Size = 0;
  fs::file_time_type MTime;
};

void note(std::vector<support::Diag> &Diags, support::ErrorCode Code,
          const std::string &Msg,
          support::Severity Sev = support::Severity::Error) {
  if (Diags.size() < 64)
    Diags.push_back(support::Diag(Code, "scrub", Msg, Sev));
}

uint64_t sizeOf(const std::string &P) {
  std::error_code EC;
  uint64_t S = fs::file_size(P, EC);
  return EC ? 0 : S;
}

} // namespace

ScrubReport islaris::cache::scrubStore(const ScrubOptions &O) {
  ScrubReport R;
  std::vector<StoreFile> Files;
  std::string Err;
  if (!scanStore(O.Dir, Files, Err)) {
    note(R.Diags, support::ErrorCode::IoError, "store walk failed: " + Err);
    return R;
  }

  std::vector<LiveEntry> Live;
  std::error_code EC;
  for (const StoreFile &F : Files) {
    ++R.FilesScanned;
    if (F.K == StoreFile::Temp) {
      uint64_t S = sizeOf(F.Path);
      if (!O.DryRun)
        fs::remove(F.Path, EC);
      ++R.TempsRemoved;
      R.BytesReclaimed += S;
      continue;
    }
    if (F.K != StoreFile::Entry)
      continue; // run journals, operator notes: left alone

    std::string Why;
    support::ErrorCode Code = verifyEntryFile(F, Why);
    if (Code == support::ErrorCode::IoError) {
      note(R.Diags, Code, "unreadable entry file: " + F.Path);
      continue;
    }
    if (Code != support::ErrorCode::Ok) {
      // Corrupt, misnamed or misplaced: no reader will ever be served by it.
      uint64_t S = sizeOf(F.Path);
      if (!O.DryRun)
        quarantineFile(O.Dir, F.Path);
      ++R.Quarantined;
      R.BytesReclaimed += S;
      note(R.Diags, Code, "quarantined " + Why + " entry: " + F.Path);
      continue;
    }
    Live.push_back({F.Path, sizeOf(F.Path), fs::last_write_time(F.Path, EC)});
    ++R.OkEntries;
  }

  for (const LiveEntry &E : Live)
    R.BytesInUse += E.Size;

  // Compaction: evict least-recently-touched entries until the store fits
  // the budget.  Always safe — a future miss recomputes and republishes.
  if (O.MaxBytes && R.BytesInUse > O.MaxBytes) {
    std::sort(Live.begin(), Live.end(),
              [](const LiveEntry &A, const LiveEntry &B) {
                return A.MTime < B.MTime;
              });
    for (const LiveEntry &E : Live) {
      if (R.BytesInUse <= O.MaxBytes)
        break;
      if (!O.DryRun)
        fs::remove(E.Path, EC);
      ++R.Evicted;
      R.BytesReclaimed += E.Size;
      R.BytesInUse -= E.Size;
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Clean-shutdown marker & scrub-on-open.
//===----------------------------------------------------------------------===//

bool islaris::cache::writeCleanShutdownMarker(const std::string &Dir) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  std::ofstream Out(fs::path(Dir) / CleanShutdownMarker,
                    std::ios::binary | std::ios::trunc);
  Out << "clean\n";
  return bool(Out);
}

bool islaris::cache::hasCleanShutdownMarker(const std::string &Dir) {
  std::error_code EC;
  return fs::exists(fs::path(Dir) / CleanShutdownMarker, EC);
}

void islaris::cache::clearCleanShutdownMarker(const std::string &Dir) {
  std::error_code EC;
  fs::remove(fs::path(Dir) / CleanShutdownMarker, EC);
}

QuickScrubReport islaris::cache::scrubOnOpen(const std::string &Dir,
                                             size_t MaxSpotChecks) {
  QuickScrubReport R;
  std::error_code EC;
  if (!fs::is_directory(Dir, EC))
    return R;
  if (hasCleanShutdownMarker(Dir)) {
    // The previous owner drained cleanly; consume the marker (this store is
    // live again — only a clean close rewrites it) and skip the pass.
    clearCleanShutdownMarker(Dir);
    R.WasClean = true;
    return R;
  }
  R.Ran = true;

  std::vector<StoreFile> Files;
  std::string Err;
  if (!scanStore(Dir, Files, Err))
    note(R.Diags, support::ErrorCode::IoError,
         "scrub-on-open walk failed: " + Err, support::Severity::Warning);
  for (const StoreFile &F : Files) {
    if (F.K == StoreFile::Temp) {
      fs::remove(F.Path, EC); // a crashed writer's temp: never read
      ++R.TempsRemoved;
      continue;
    }
    if (F.K != StoreFile::Entry || R.EntriesChecked >= MaxSpotChecks)
      continue; // keep reaping temps, stop opening entries
    ++R.EntriesChecked;
    std::string Why;
    support::ErrorCode Code = verifyEntryFile(F, Why);
    if (Code == support::ErrorCode::Ok || Code == support::ErrorCode::IoError)
      continue;
    quarantineFile(Dir, F.Path);
    ++R.Quarantined;
    note(R.Diags, Code,
         "scrub-on-open quarantined " + Why + " entry: " + F.Path,
         support::Severity::Warning);
  }
  return R;
}
