//===- bench/bench_traces.cpp - Regenerate Figs. 3 and 6 (E2, E3) -----------------===//
//
// Prints the Isla traces the paper shows as figures:
//   Fig. 3 — add sp, sp, #0x40 (opcode 0x910103ff) under EL=2, SP=1;
//   Fig. 6 — beq -16 under the default flag-register assumptions, showing
//            the cases/assert branching structure.
//
// Then measures trace generation per study: the statements the executor
// runs against those it restores from fork checkpoints (their
// sum is what re-running the model once per path would execute), and
// cache temperature (cold execution vs. a warm read from the persistent
// trace cache, which is on by default here), and the solver checks behind
// the branch decisions: a path carrying a witness model settles one side
// of a branch by evaluation, so a run issues at most one check per branch
// decision (plus one per discharged model assertion).  It emits the
// results as machine-readable JSON into BENCH_trace_gen.json.
//
//===----------------------------------------------------------------------===//

#include "arch/AArch64.h"
#include "cache/TraceCache.h"
#include "isla/Executor.h"
#include "models/Models.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace islaris;
using islaris::itl::Reg;

namespace {

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

isla::Assumptions el2Assumptions() {
  isla::Assumptions A;
  A.assume(Reg("PSTATE", "EL"), BitVec(2, 0b10));
  A.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  return A;
}

struct Study {
  std::string Name;
  isla::OpcodeSpec Op;
  isla::Assumptions Assume;
};

struct Measurement {
  unsigned Paths = 0, Events = 0;
  uint64_t SnapStmts = 0, SnapSkipped = 0;
  unsigned HelperMemoHits = 0;
  /// Branch decisions (forks + prunes) and the solver work behind them.
  unsigned Decisions = 0, Queries = 0, Checks = 0, WitnessSides = 0,
           CoreCalls = 0;
  double ColdWall = 0, WarmWall = 0;
  bool WarmFromDisk = false; ///< The warm lookup hit disk and decoded.
};

} // namespace

int main() {
  const sail::Model &M = models::aarch64Model();

  std::printf("=== Fig. 3: add sp, sp, #0x40 (opcode 0x910103ff), "
              "EL=2 SP=1 ===\n\n");
  smt::TermBuilder TB;
  isla::Executor Ex(M, TB);
  isla::ExecResult R1 =
      Ex.run(isla::OpcodeSpec::concrete(0x910103ffu), el2Assumptions());
  if (!R1.Ok) {
    std::fprintf(stderr, "error: %s\n", R1.Error.c_str());
    return 1;
  }
  std::printf("%s\n\n", R1.Trace.toString().c_str());
  std::printf("events: %u  paths: %u (linear, as in the figure)\n\n",
              R1.Stats.Events, R1.Stats.Paths);

  std::printf("=== Fig. 6: beq -16 (condition-flag branching) ===\n\n");
  uint32_t Beq = arch::aarch64::enc::bcond(arch::aarch64::Cond::EQ, -16);
  isla::ExecResult R2 =
      Ex.run(isla::OpcodeSpec::concrete(Beq), isla::Assumptions());
  if (!R2.Ok) {
    std::fprintf(stderr, "error: %s\n", R2.Error.c_str());
    return 1;
  }
  std::printf("%s\n\n", R2.Trace.toString().c_str());
  std::printf("events: %u  paths: %u  (two cases guarded by asserts on "
              "the branch condition, as in the figure)\n\n",
              R2.Stats.Events, R2.Stats.Paths);

  //===------------------------------------------------------------------===//
  // Checkpoint and cache-temperature measurement, emitted as JSON.
  //===------------------------------------------------------------------===//

  constexpr uint32_t AddSp = 0x91000000u | (0x40u << 10);
  std::vector<Study> Studies;
  Studies.push_back(
      {"add-sp-imm (EL2)", isla::OpcodeSpec::concrete(0x910103ffu),
       el2Assumptions()});
  Studies.push_back(
      {"beq-minus-16", isla::OpcodeSpec::concrete(Beq),
       isla::Assumptions()});
  Studies.push_back(
      {"add-sp-symbolic-imm", isla::OpcodeSpec::symbolicField(AddSp, 21, 10),
       isla::Assumptions()});
  // A symbolic destination-register field forks through the whole
  // register-select chain — the many-path stress case where restoring the
  // shared decode prefix from checkpoints saves the most.
  isla::Assumptions El1;
  El1.assume(Reg("PSTATE", "EL"), BitVec(2, 0b01));
  El1.assume(Reg("PSTATE", "SP"), BitVec(1, 1));
  El1.assume(Reg("SCTLR_EL1"), BitVec(64, 0));
  Studies.push_back(
      {"add-imm-symbolic-rd",
       isla::OpcodeSpec::symbolicField(arch::aarch64::enc::addImm(0, 0, 1),
                                       4, 0),
       El1});
  // The fresh trace request of the server benchmarks: add x<rd>, x<rn>, #0
  // with rd and the low rn bit symbolic, 64 paths over 95 branch
  // decisions.
  Studies.push_back({"add-sub-64-path",
                     {BitVec(32, 0x910003e0u), BitVec(32, 0x3fu)},
                     el2Assumptions()});

  // Cache persistence is on by default: a scratch directory wiped up front
  // keeps the cold pass honestly cold while the warm pass round-trips
  // through the on-disk store (clearMemory() between the two, so the warm
  // read is a disk hit, not a map lookup).
  std::string CacheDir =
      (std::filesystem::temp_directory_path() /
       ("islaris-bench-traces-" + std::to_string(uint64_t(::getpid()))))
          .string();
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);
  cache::TraceCacheConfig Cfg;
  Cfg.Persist = true;
  Cfg.Dir = CacheDir;
  cache::TraceCache Cache(Cfg);

  std::printf("=== Trace generation: checkpointed statements, cold vs warm "
              "===\n\n");
  std::printf("%-22s | %5s %6s | %9s -> %9s stmts | %8s | %5s %6s %4s | "
              "%8s %8s\n",
              "study", "paths", "events", "per-path", "executed", "skipped",
              "decis", "checks", "core", "cold s", "warm s");

  std::vector<Measurement> Ms;
  bool Ok = true;
  for (const Study &S : Studies) {
    Measurement Mm;

    // Cold, through the persistent cache.
    smt::TermBuilder TBs;
    isla::Executor Es(M, TBs);
    isla::ExecOptions OS;
    cache::Fingerprint Key =
        cache::traceCacheKey("aarch64", M, S.Op, S.Assume, OS);
    double T0 = now();
    isla::ExecResult RS = Es.run(S.Op, S.Assume, OS);
    Mm.ColdWall = now() - T0;
    if (!RS.Ok) {
      std::fprintf(stderr, "snapshot error (%s): %s\n", S.Name.c_str(),
                   RS.Error.c_str());
      return 1;
    }
    Cache.insert(Key, cache::TraceCache::encode(RS));
    Mm.Paths = RS.Stats.Paths;
    Mm.Events = RS.Stats.Events;
    Mm.SnapStmts = RS.Stats.StmtsExecuted;
    Mm.SnapSkipped = RS.Stats.StmtsSkippedBySnapshot;
    Mm.HelperMemoHits = RS.Stats.HelperMemoHits;
    Mm.Decisions = RS.Stats.Paths - 1 + RS.Stats.PrunedBranches;
    Mm.Queries = RS.Stats.SolverQueries;
    Mm.Checks = RS.Stats.SolverChecks;
    Mm.WitnessSides = RS.Stats.WitnessSides;
    Mm.CoreCalls = RS.Stats.SolverCoreCalls;

    // Warm: a disk read through a cold in-memory map.
    Cache.clearMemory();
    smt::TermBuilder TBw;
    isla::ExecResult RW;
    std::string Err;
    T0 = now();
    auto E = Cache.lookup(Key);
    Mm.WarmWall = now() - T0;
    Mm.WarmFromDisk = E && cache::TraceCache::decode(*E, TBw, RW, Err);
    Ok = Ok && Mm.WarmFromDisk && RW.Trace.toString() == RS.Trace.toString();
    std::printf("%-22s | %5u %6u | %9llu -> %9llu stmts | %8llu | "
                "%5u %6u %4u | %8.4f %8.4f\n",
                S.Name.c_str(), Mm.Paths, Mm.Events,
                (unsigned long long)(Mm.SnapStmts + Mm.SnapSkipped),
                (unsigned long long)Mm.SnapStmts,
                (unsigned long long)Mm.SnapSkipped, Mm.Decisions, Mm.Checks,
                Mm.CoreCalls, Mm.ColdWall, Mm.WarmWall);
    Ms.push_back(Mm);
  }
  std::filesystem::remove_all(CacheDir, EC);

  // At least one multi-path study must restore at least as many statements
  // from checkpoints as it executes, i.e. run at most half of what
  // re-running the model per path would (the headline saving).
  bool Halved = false;
  for (const Measurement &Mm : Ms)
    Halved = Halved || (Mm.Paths > 1 && Mm.SnapSkipped >= Mm.SnapStmts);
  // No study issues more than one solver check per branch decision and
  // discharged model assertion.  SolverQueries counts two per decision
  // and one per assertion, whatever was issued.
  bool OneCheck = true;
  for (const Measurement &Mm : Ms)
    OneCheck = OneCheck && Mm.Checks + Mm.Decisions <= Mm.Queries;
  std::printf("\n  warm disk traces byte-identical to cold .......... %s\n",
              Ok ? "yes" : "NO");
  std::printf("  >=2x statement reduction on a multi-path study ... %s\n",
              Halved ? "yes" : "NO");
  std::printf("  at most one solver check per branch decision ..... %s\n",
              OneCheck ? "yes" : "NO");

  // Machine-readable summary for downstream tooling.
  FILE *J = std::fopen("BENCH_trace_gen.json", "w");
  if (J) {
    std::fprintf(J, "{\n  \"bench\": \"trace_gen\",\n");
    std::fprintf(J, "  \"studies\": [\n");
    for (size_t I = 0; I < Ms.size(); ++I) {
      const Measurement &Mm = Ms[I];
      std::fprintf(
          J,
          "    {\"name\": \"%s\", \"paths\": %u, \"events\": %u,\n"
          "     \"snapshot_cold\": {\"stmts_executed\": %llu, "
          "\"stmts_skipped\": %llu, \"helper_memo_hits\": %u, "
          "\"wall_s\": %.6f},\n"
          "     \"solver\": {\"branch_decisions\": %u, \"queries\": %u, "
          "\"checks\": %u, \"witness_sides\": %u, \"core_calls\": %u},\n"
          "     \"warm\": {\"source\": \"disk\", \"hit\": %s, "
          "\"wall_s\": %.6f},\n"
          "     \"stmts_reduction\": %.3f}%s\n",
          Studies[I].Name.c_str(), Mm.Paths, Mm.Events,
          (unsigned long long)Mm.SnapStmts,
          (unsigned long long)Mm.SnapSkipped, Mm.HelperMemoHits,
          Mm.ColdWall, Mm.Decisions, Mm.Queries, Mm.Checks, Mm.WitnessSides,
          Mm.CoreCalls, Mm.WarmFromDisk ? "true" : "false", Mm.WarmWall,
          Mm.SnapStmts ? double(Mm.SnapStmts + Mm.SnapSkipped) /
                             double(Mm.SnapStmts)
                       : 0.0,
          I + 1 < Ms.size() ? "," : "");
    }
    std::fprintf(J, "  ],\n");
    std::fprintf(J, "  \"multi_path_halved\": %s,\n",
                 Halved ? "true" : "false");
    std::fprintf(J, "  \"one_check_per_branch\": %s,\n",
                 OneCheck ? "true" : "false");
    std::fprintf(J, "  \"all_identical\": %s\n", Ok ? "true" : "false");
    std::fprintf(J, "}\n");
    std::fclose(J);
    std::printf("  wrote BENCH_trace_gen.json\n");
  }

  return Ok && Halved && OneCheck ? 0 : 1;
}
