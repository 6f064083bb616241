//===- bench/bench_cache.cpp - Trace cache and batch driver (E6) -------------------===//
//
// Exercises the trace-cache subsystem over the full Fig. 12 case-study
// suite and checks its three contract points:
//
//   1. a warm cache serves the whole suite without re-executing a single
//      instruction (100% hit rate),
//   2. a parallel cold run produces the same results as a serial cold run
//      (timing is printed; the speedup is informational since CI machines
//      vary), and
//   3. traces are byte-identical across the serial, cached, and parallel
//      generation paths (checked trace-by-trace on a memcpy-shaped
//      program, since CaseResult exposes only aggregates).
//
// Exit status reflects correctness only, never timing.
//
//===----------------------------------------------------------------------===//

#include "cache/TraceCache.h"

#include "arch/AArch64.h"
#include "frontend/CaseStudies.h"
#include "frontend/Verifier.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include <unistd.h>

using namespace islaris;
using islaris::frontend::CaseResult;
using islaris::frontend::SuiteOptions;
using islaris::frontend::Verifier;

namespace {

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

struct SuiteRun {
  std::vector<CaseResult> Rows;
  double Seconds = 0;
  unsigned Executed = 0, Hits = 0, Deduped = 0, Instrs = 0;
  bool Ok = true;
};

SuiteRun runSuite(unsigned Threads, cache::TraceCache *Cache) {
  SuiteRun R;
  SuiteOptions O;
  O.Threads = Threads;
  O.Cache = Cache;
  double T0 = now();
  R.Rows = frontend::runAllCaseStudies(O);
  R.Seconds = now() - T0;
  for (const CaseResult &Row : R.Rows) {
    R.Ok = R.Ok && Row.Ok;
    R.Executed += Row.TracesExecuted;
    R.Hits += Row.CacheHits;
    R.Deduped += Row.Deduped;
    R.Instrs += Row.AsmInstrs;
  }
  return R;
}

void printRun(const char *Label, const SuiteRun &R) {
  std::printf("  %-24s %6.2f s | executed %3u, dedup %2u, hits %3u of %3u "
              "instrs | proofs %s\n",
              Label, R.Seconds, R.Executed, R.Deduped, R.Hits, R.Instrs,
              R.Ok ? "ok" : "FAILED");
}

/// Per-trace byte-identity across generation paths, on a program with
/// repeated opcodes so dedup, cache, and parallel paths all engage.
bool traceIdentityCheck() {
  namespace e = arch::aarch64::enc;
  std::map<uint64_t, uint32_t> Code;
  uint64_t A = 0x1000;
  for (int I = 0; I < 4; ++I) { // a memcpy-loop shape, unrolled
    Code[A] = e::ldrImm(0, 2, 0, 0), A += 4;
    Code[A] = e::strImm(0, 2, 1, 0), A += 4;
    Code[A] = e::addImm(0, 0, 1), A += 4;
    Code[A] = e::addImm(1, 1, 1), A += 4;
  }
  Code[A] = e::ret();

  auto setup = [&](Verifier &V) {
    V.addCode(Code);
    V.defaults()
        .assume(itl::Reg("PSTATE", "EL"), BitVec(2, 0b01))
        .assume(itl::Reg("PSTATE", "SP"), BitVec(1, 1))
        .assume(itl::Reg("SCTLR_EL1"), BitVec(64, 0));
  };
  auto texts = [](Verifier &V) {
    std::map<uint64_t, std::string> Out;
    for (const auto &[Addr, T] : V.instrMap())
      Out[Addr] = T->toString();
    return Out;
  };

  std::string Err;
  Verifier Serial(frontend::aarch64());
  setup(Serial);
  if (!Serial.generateTraces(Err)) {
    std::printf("  serial generation FAILED: %s\n", Err.c_str());
    return false;
  }

  cache::TraceCache C;
  Verifier Warmer(frontend::aarch64(), {&C, nullptr, {}});
  setup(Warmer);
  Verifier Cached(frontend::aarch64(), {&C, nullptr, {}});
  setup(Cached);
  Verifier Parallel(frontend::aarch64());
  Parallel.setParallelism(4);
  setup(Parallel);
  if (!Warmer.generateTraces(Err) || !Cached.generateTraces(Err) ||
      !Parallel.generateTraces(Err)) {
    std::printf("  cached/parallel generation FAILED: %s\n", Err.c_str());
    return false;
  }

  bool Ok = texts(Cached) == texts(Serial) &&
            texts(Parallel) == texts(Serial) &&
            Cached.genStats().Executed == 0;
  std::printf("  serial vs cached vs parallel traces (%zu instrs): %s, "
              "warm run executed %u\n",
              Code.size(), Ok ? "byte-identical" : "MISMATCH",
              Cached.genStats().Executed);
  return Ok;
}

} // namespace

int main() {
  unsigned Hw = std::thread::hardware_concurrency();
  std::printf("Trace cache benchmark (E6): Fig. 12 suite, %u hardware "
              "threads\n\n", Hw);

  bool Ok = true;

  // Persistence is on by default: the shared cache writes through to a
  // scratch directory (wiped up front so the cold pass stays cold), and a
  // dedicated pass re-reads the whole suite from disk through a cleared
  // in-memory map.
  std::string CacheDir =
      (std::filesystem::temp_directory_path() /
       ("islaris-bench-cache-" + std::to_string(uint64_t(::getpid()))))
          .string();
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);
  cache::TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = CacheDir;

  std::printf("Full suite, shared persistent cache:\n");
  cache::TraceCache C(Cfg);
  SuiteRun ColdSerial = runSuite(1, &C);
  printRun("cold serial", ColdSerial);
  SuiteRun Warm = runSuite(1, &C);
  printRun("warm serial", Warm);
  C.clearMemory();
  SuiteRun Disk = runSuite(1, &C);
  printRun("warm serial (from disk)", Disk);
  SuiteRun ParCold = runSuite(0, nullptr); // no cache: pure parallelism
  printRun("cold parallel (no cache)", ParCold);
  SuiteRun ParWarm = runSuite(0, &C);
  printRun("warm parallel", ParWarm);

  Ok &= ColdSerial.Ok && Warm.Ok && Disk.Ok && ParCold.Ok && ParWarm.Ok;

  std::printf("\nChecks:\n");
  bool WarmAllHits = Warm.Executed == 0 && Warm.Hits == Warm.Instrs;
  std::printf("  warm cache re-executes nothing (100%% hits) ... %s "
              "(%u executed, %u/%u hits)\n",
              WarmAllHits ? "yes" : "NO", Warm.Executed, Warm.Hits,
              Warm.Instrs);
  Ok &= WarmAllHits;

  bool DiskAllHits = Disk.Executed == 0 && Disk.Hits == Disk.Instrs;
  std::printf("  disk-warm cache re-executes nothing .......... %s "
              "(%u executed, %u/%u hits)\n",
              DiskAllHits ? "yes" : "NO", Disk.Executed, Disk.Hits,
              Disk.Instrs);
  Ok &= DiskAllHits;

  bool SameEvents = true;
  for (size_t I = 0; I < ColdSerial.Rows.size(); ++I) {
    SameEvents &= Warm.Rows[I].ItlEvents == ColdSerial.Rows[I].ItlEvents;
    SameEvents &= ParCold.Rows[I].ItlEvents == ColdSerial.Rows[I].ItlEvents;
    SameEvents &=
        ParCold.Rows[I].Proof.PathsVerified ==
        ColdSerial.Rows[I].Proof.PathsVerified;
  }
  std::printf("  warm/parallel rows match cold serial rows ..... %s\n",
              SameEvents ? "yes" : "NO");
  Ok &= SameEvents;

  Ok &= traceIdentityCheck();

  if (Hw >= 2) {
    double Speedup = ParCold.Seconds > 0
                         ? ColdSerial.Seconds / ParCold.Seconds
                         : 0;
    std::printf("  parallel cold speedup over serial cold ........ %.2fx "
                "(informational)\n", Speedup);
  }
  double WarmSpeedup = Warm.Seconds > 0 ? ColdSerial.Seconds / Warm.Seconds
                                        : 0;
  std::printf("  warm speedup over cold ........................ %.2fx "
              "(informational)\n", WarmSpeedup);

  std::filesystem::remove_all(CacheDir, EC);
  std::printf("\n%s\n", Ok ? "all cache checks passed"
                          : "CACHE CHECKS FAILED");
  return Ok ? 0 : 1;
}
