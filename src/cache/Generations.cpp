//===- cache/Generations.cpp - Model-fingerprint store generations ------------===//

#include "cache/Generations.h"

#include "cache/EntryFiles.h"
#include "support/Wire.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace islaris;
using namespace islaris::cache;

namespace fs = std::filesystem;

namespace {

std::string registryPath(const std::string &Dir) {
  return Dir + "/generations.txt";
}

std::string manifestPath(const std::string &Dir, const Fingerprint &ModelFp) {
  return Dir + "/manifests/" + ModelFp.toHex() + ".mf";
}

/// One registry/manifest mutation at a time per process; cross-process
/// races are documented last-writer-wins.
std::mutex &genMutex() {
  static std::mutex Mu;
  return Mu;
}

std::string renderRegistry(const std::vector<GenerationRecord> &Rows) {
  std::ostringstream OS;
  for (const GenerationRecord &R : Rows)
    OS << R.ModelFp.toHex() << " " << R.Seq << " " << R.TouchedUnix << "\n";
  return OS.str();
}

/// Registry writes stay outside the cache-write/cache-rename fault domain
/// (unlike entry publication via atomicWriteFile): the registry is
/// best-effort metadata whose total loss only makes GC keep everything,
/// and injected cache faults must deterministically target entry writes.
/// Plain temp+rename is enough — no fsync, rename still prevents torn
/// reads by concurrent scanners.
bool writeRegistry(const std::string &Path, const std::string &Content) {
  static std::atomic<uint64_t> Counter{0};
  std::string Tmp = Path + ".gen-tmp." + std::to_string(uint64_t(::getpid())) +
                    "." +
                    std::to_string(
                        Counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out << Content;
    if (!Out.flush())
      return false;
  }
  std::error_code EC;
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return false;
  }
  return true;
}

} // namespace

std::vector<GenerationRecord>
islaris::cache::readGenerations(const std::string &Dir) {
  std::vector<GenerationRecord> Rows;
  std::ifstream In(registryPath(Dir));
  std::string Line;
  while (std::getline(In, Line)) {
    support::wire::Cursor C(Line);
    GenerationRecord R;
    bool Known = Fingerprint::fromHex(C.tok(), R.ModelFp);
    R.Seq = C.u64();
    R.TouchedUnix = C.u64();
    if (Known && !C.Fail)
      Rows.push_back(R);
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const GenerationRecord &A, const GenerationRecord &B) {
              return A.Seq < B.Seq;
            });
  return Rows;
}

namespace {

/// touchGeneration body; requires genMutex() held.
void touchGenerationLocked(const std::string &Dir,
                           const Fingerprint &ModelFp) {
  // Once per (dir, model) per process: the first insert of a run does the
  // I/O, every later one is a set lookup — plus one stat, so a store
  // wiped and recreated under a live process regains its registry.
  static std::set<std::pair<std::string, Fingerprint>> Touched;
  if (!Touched.emplace(Dir, ModelFp).second &&
      fs::exists(registryPath(Dir)))
    return;

  std::vector<GenerationRecord> Rows = readGenerations(Dir);
  uint64_t MaxSeq = Rows.empty() ? 0 : Rows.back().Seq;
  auto It = std::find_if(Rows.begin(), Rows.end(),
                         [&](const GenerationRecord &R) {
                           return R.ModelFp == ModelFp;
                         });
  uint64_t Now = uint64_t(std::time(nullptr));
  if (It != Rows.end() && It->Seq == MaxSeq && MaxSeq != 0) {
    // Already the newest generation; refresh the timestamp only.
    It->TouchedUnix = Now;
  } else {
    if (It != Rows.end())
      Rows.erase(It);
    Rows.push_back({ModelFp, MaxSeq + 1, Now});
  }
  std::error_code EC;
  fs::create_directories(Dir, EC);
  writeRegistry(registryPath(Dir), renderRegistry(Rows));
}

} // namespace

void islaris::cache::touchGeneration(const std::string &Dir,
                                     const Fingerprint &ModelFp) {
  std::lock_guard<std::mutex> L(genMutex());
  touchGenerationLocked(Dir, ModelFp);
}

void islaris::cache::recordEntryGeneration(const std::string &Dir,
                                           const Fingerprint &ModelFp,
                                           const Fingerprint &Key) {
  std::lock_guard<std::mutex> L(genMutex());
  touchGenerationLocked(Dir, ModelFp);
  std::string Path = manifestPath(Dir, ModelFp);
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);
  // O_APPEND keeps concurrent same-process writers line-atomic for these
  // short records; no fsync — a lost line only strands a recomputable
  // entry past its generation.
  int Fd = ::open(Path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (Fd < 0)
    return;
  std::string Line = Key.toHex() + "\n";
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Off += size_t(N);
  }
  ::close(Fd);
}

GenerationGcReport
islaris::cache::gcGenerations(const GenerationGcOptions &O) {
  GenerationGcReport R;
  auto Note = [&R](support::ErrorCode Code, const std::string &Msg) {
    if (R.Diags.size() < 64)
      R.Diags.push_back(support::Diag::error(Code, "generations", Msg));
  };

  std::lock_guard<std::mutex> L(genMutex());
  std::vector<GenerationRecord> Rows = readGenerations(O.Dir);
  R.Generations = Rows.size();
  if (Rows.size() <= O.KeepGenerations)
    return R;

  // Rows are sorted oldest-first; everything before the keep window
  // retires.
  size_t RetireCount = Rows.size() - O.KeepGenerations;
  std::error_code EC;
  for (size_t I = 0; I < RetireCount; ++I) {
    const GenerationRecord &Gen = Rows[I];
    ++R.Retired;
    std::string MPath = manifestPath(O.Dir, Gen.ModelFp);
    std::ifstream In(MPath);
    std::string KeyHex;
    while (std::getline(In, KeyHex)) {
      Fingerprint K;
      if (!Fingerprint::fromHex(KeyHex, K))
        continue;
      // The manifest records bare keys of trace entries.
      std::string P = EntryFiles::entryPath(O.Dir, K, TraceEntryExt);
      uint64_t Size = fs::file_size(P, EC);
      if (EC) {
        EC.clear();
        continue;
      }
      ++R.EntriesRemoved;
      R.BytesReclaimed += Size;
      if (!O.DryRun && !fs::remove(P, EC) && EC)
        Note(support::ErrorCode::IoError,
             "could not remove retired entry: " + P);
    }
    In.close();
    if (!O.DryRun)
      fs::remove(MPath, EC);
  }
  if (!O.DryRun) {
    Rows.erase(Rows.begin(), Rows.begin() + long(RetireCount));
    if (!writeRegistry(registryPath(O.Dir), renderRegistry(Rows)))
      Note(support::ErrorCode::IoError,
           "could not rewrite generation registry: " + registryPath(O.Dir));
  }
  return R;
}
