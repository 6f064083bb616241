//===- tools/cachectl.cpp - Cache maintenance mini-tool -----------------------===//
//
// Operator entry point for the offline maintenance passes:
//
//   cachectl scrub [--dir DIR] [--max-bytes N] [--dry-run]
//   cachectl gc    [--dir DIR] [--keep-generations N] [--dry-run]
//
// `scrub` works over both stores under DIR (default resolveCacheDir(): the
// trace store at the root, the side-condition store under DIR/sidecond):
// verifies every entry the way a reader would (the envelope's checksum and
// the key its tag names, against the file's name), quarantines torn,
// misnamed and misplaced entries, reaps stale temp files, and (with
// --max-bytes) evicts least-recently-used entries until the store fits.
// Entries in the version-3 envelope (summed by byte-wise FNV-1a, before
// the word-at-a-time record checksum) and the version-2 envelope (written
// before entries named their key) read as BadVersion and are quarantined,
// as version-1 files were when version 2 came in: the stores republish
// them.
//
// `gc` retires trace-store generations: every model fingerprint outside
// the N most recently touched (default 2) has its manifest's entries
// deleted — the entries minted against retired model text that lookups can
// never hit again.  The side-condition store has no generations: its
// answers are keyed by model-independent goal-set digests, one proof
// bundle file per proof search.  Entries that older versions published
// there — one .scc file per goal, keyed by a printed goal closure, and the
// model-salted entries of the executor's pruning checks — are never read
// again.  They still verify, so `scrub --max-bytes` reclaims them: eviction
// goes by write time, and they are older than every bundle written since.
//
// Exit codes: 0 = clean, 1 = scrub found corruption (quarantined), 2 = bad
// usage or the pass itself failed.
//
//===----------------------------------------------------------------------===//

#include "cache/Generations.h"
#include "cache/Scrub.h"
#include "cache/TraceCache.h"

#include "Flags.h"

#include <cstdio>
#include <string>
#include <string_view>

using namespace islaris;

static void printReport(const char *Label, const cache::ScrubReport &R) {
  std::printf("%s: scanned %llu files: %llu ok, %llu quarantined, "
              "%llu temps reaped, %llu evicted "
              "(%llu bytes reclaimed, %llu in use)\n",
              Label, (unsigned long long)R.FilesScanned,
              (unsigned long long)R.OkEntries,
              (unsigned long long)R.Quarantined,
              (unsigned long long)R.TempsRemoved,
              (unsigned long long)R.Evicted,
              (unsigned long long)R.BytesReclaimed,
              (unsigned long long)R.BytesInUse);
  for (const support::Diag &D : R.Diags)
    std::printf("  %s\n", D.render().c_str());
}

static void printGcReport(const char *Label,
                          const cache::GenerationGcReport &R) {
  std::printf("%s: %llu generation(s), %llu retired, %llu entries removed "
              "(%llu bytes reclaimed)\n",
              Label, (unsigned long long)R.Generations,
              (unsigned long long)R.Retired,
              (unsigned long long)R.EntriesRemoved,
              (unsigned long long)R.BytesReclaimed);
  for (const support::Diag &D : R.Diags)
    std::printf("  %s\n", D.render().c_str());
}

static int usage() {
  std::fprintf(stderr,
               "usage: cachectl scrub [--dir DIR] [--max-bytes N] "
               "[--dry-run]\n"
               "       cachectl gc    [--dir DIR] [--keep-generations N] "
               "[--dry-run]\n");
  return 2;
}

static int runScrub(int Argc, char **Argv) {
  std::string Dir;
  uint64_t MaxBytes = 0;
  bool DryRun = false;
  tools::Flags F("cachectl", Argc, Argv, 2);
  while (F.more()) {
    std::string_view A = F.next();
    if (A == "--dir")
      Dir = F.str();
    else if (A == "--max-bytes")
      MaxBytes = F.integer();
    else if (A == "--dry-run")
      DryRun = true;
    else
      return usage();
  }
  if (Dir.empty())
    Dir = cache::resolveCacheDir();

  cache::ScrubOptions O;
  O.MaxBytes = MaxBytes;
  O.DryRun = DryRun;

  O.Dir = Dir;
  cache::ScrubReport Traces = cache::scrubStore(O);
  printReport("trace store", Traces);

  O.Dir = Dir + "/sidecond";
  cache::ScrubReport SideCond = cache::scrubStore(O);
  printReport("sidecond store", SideCond);

  if (!Traces.clean() || !SideCond.clean())
    return 1;
  return 0;
}

static int runGc(int Argc, char **Argv) {
  std::string Dir;
  unsigned Keep = 2;
  bool DryRun = false;
  tools::Flags F("cachectl", Argc, Argv, 2);
  while (F.more()) {
    std::string_view A = F.next();
    if (A == "--dir")
      Dir = F.str();
    else if (A == "--keep-generations")
      Keep = unsigned(F.integer(UINT32_MAX));
    else if (A == "--dry-run")
      DryRun = true;
    else
      return usage();
  }
  if (Keep == 0) {
    std::fprintf(stderr, "cachectl: --keep-generations must be >= 1\n");
    return 2;
  }
  if (Dir.empty())
    Dir = cache::resolveCacheDir();

  cache::GenerationGcOptions O;
  O.KeepGenerations = Keep;
  O.DryRun = DryRun;

  O.Dir = Dir;
  printGcReport("trace store", cache::gcGenerations(O));
  return 0;
}

int main(int Argc, char **Argv) {
  std::string_view Cmd = Argc < 2 ? "" : Argv[1];
  if (Cmd == "scrub")
    return runScrub(Argc, Argv);
  if (Cmd == "gc")
    return runGc(Argc, Argv);
  return usage();
}
