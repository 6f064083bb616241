//===- bench/bench_traces.cpp - Regenerate Figs. 3 and 6 (E2, E3) -----------------===//
//
// Prints the Isla traces the paper shows as figures:
//   Fig. 3 — add sp, sp, #0x40 (opcode 0x910103ff) under EL=2, SP=1;
//   Fig. 6 — beq -16 under the default flag-register assumptions, showing
//            the cases/assert branching structure.
//
// Then measures trace generation per study: the statements the snapshot
// engine executes against those it restores from fork checkpoints (their
// sum is what re-running the model once per path would execute), and
// cache temperature (cold execution vs. a warm read from the persistent
// trace cache, which is on by default here).  It emits the results as
// machine-readable JSON into BENCH_trace_gen.json.
//
//===----------------------------------------------------------------------===//

#include "arch/AArch64.h"
#include "cache/TraceCache.h"
#include "isla/Executor.h"
#include "models/Models.h"
#include "sail/Parser.h"
#include "validation/Validator.h"

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
  double ColdWall = 0, WarmWall = 0;
  bool WarmFromDisk = false; ///< The warm lookup hit disk and decoded.
};

/// One row of the path-merging study: enumeration (snapshot) vs the merge
/// engine over N independent symbolic branches.
struct MergeMeasurement {
  unsigned Branches = 0;
  unsigned SnapPaths = 0, MergePaths = 0;
  uint64_t SnapStmts = 0, MergeStmts = 0;
  unsigned PathsMerged = 0, MergeFallbacks = 0;
  uint64_t IteTerms = 0;
  double SnapWall = 0, MergeWall = 0;
};

/// A mini-Sail model whose decode runs \p N independent both-feasible
/// branches (one per symbolic opcode bit): enumeration explores a tree of
/// 2^N leaves, merging collapses each fork at its join and re-reaches the
/// next one exactly once — the super-linear separation this study measures.
std::string manyBranchModelSource(unsigned N) {
  std::string S;
  for (unsigned I = 0; I <= N; ++I)
    S += "register X" + std::to_string(I) + " : bits(64)\n";
  S += "register _PC : bits(64)\n\n";
  S += "function decode(opcode : bits(32)) -> unit = {\n";
  for (unsigned I = 0; I < N; ++I) {
    std::string Src = "X" + std::to_string(I);
    std::string Dst = "X" + std::to_string(I + 1);
    S += "  if opcode[" + std::to_string(I) + "] == 0b1 then { " + Dst +
         " = " + Src + " + " + Src + "; } else { " + Dst + " = " + Src +
         "; };\n";
  }
  S += "  _PC = _PC + 0x0000000000000004;\n}\n";
  return S;
}

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
  // Engine and cache-temperature measurement, emitted as JSON.
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
  std::printf("%-22s | %5s %6s | %9s -> %9s stmts | %8s | %8s %8s\n",
              "study", "paths", "events", "per-path", "executed", "skipped",
              "cold s", "warm s");

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
                "%8.4f %8.4f\n",
                S.Name.c_str(), Mm.Paths, Mm.Events,
                (unsigned long long)(Mm.SnapStmts + Mm.SnapSkipped),
                (unsigned long long)Mm.SnapStmts,
                (unsigned long long)Mm.SnapSkipped, Mm.ColdWall,
                Mm.WarmWall);
    Ms.push_back(Mm);
  }
  std::filesystem::remove_all(CacheDir, EC);

  //===------------------------------------------------------------------===//
  // Path merging: enumeration vs ite-joins on many independent branches.
  //===------------------------------------------------------------------===//

  std::printf("\n=== Path merging: snapshot enumeration vs merge engine "
              "===\n\n");
  std::printf("%-10s | %6s -> %5s paths | %9s -> %9s stmts | %7s | %6s | "
              "%8s %8s\n",
              "study", "enum", "merge", "enum", "merge", "merged", "ites",
              "enum s", "merge s");

  std::vector<MergeMeasurement> Mg;
  bool MergeOk = true;
  for (unsigned N : {8u, 10u, 12u}) {
    std::string Err;
    auto SynM = sail::parseModel(manyBranchModelSource(N), Err);
    if (!SynM) {
      std::fprintf(stderr, "model error (%u branches): %s\n", N, Err.c_str());
      return 1;
    }
    isla::OpcodeSpec Op = isla::OpcodeSpec::symbolicField(0, N - 1, 0);
    MergeMeasurement MM;
    MM.Branches = N;

    smt::TermBuilder TBs;
    isla::Executor Es(*SynM, TBs);
    isla::ExecOptions OS;
    OS.Engine = isla::ExecEngine::Snapshot;
    OS.MaxPaths = 4096; // 2^12 enumerated leaves at the deep end
    double T0 = now();
    isla::ExecResult RS = Es.run(Op, isla::Assumptions(), OS);
    MM.SnapWall = now() - T0;
    smt::TermBuilder TBm;
    isla::Executor Em(*SynM, TBm);
    isla::ExecOptions OM = OS;
    OM.Engine = isla::ExecEngine::Merge;
    T0 = now();
    isla::ExecResult RM = Em.run(Op, isla::Assumptions(), OM);
    MM.MergeWall = now() - T0;
    if (!RS.Ok || !RM.Ok) {
      std::fprintf(stderr, "merge study error (%u branches): %s%s\n", N,
                   RS.Error.c_str(), RM.Error.c_str());
      return 1;
    }
    MM.SnapPaths = RS.Stats.Paths;
    MM.MergePaths = RM.Stats.Paths;
    MM.SnapStmts = RS.Stats.StmtsExecuted;
    MM.MergeStmts = RM.Stats.StmtsExecuted;
    MM.PathsMerged = RM.Stats.PathsMerged;
    MM.MergeFallbacks = RM.Stats.MergeFallbacks;
    MM.IteTerms = RM.Stats.IteTermsIntroduced;
    std::printf("%2u-branch  | %6u -> %5u paths | %9llu -> %9llu stmts | "
                "%7u | %6llu | %8.4f %8.4f\n",
                N, MM.SnapPaths, MM.MergePaths,
                (unsigned long long)MM.SnapStmts,
                (unsigned long long)MM.MergeStmts, MM.PathsMerged,
                (unsigned long long)MM.IteTerms, MM.SnapWall, MM.MergeWall);
    MergeOk = MergeOk && MM.SnapPaths == (1u << N) && MM.MergePaths == 1 &&
              MM.PathsMerged == N && MM.MergeStmts < MM.SnapStmts;
    Mg.push_back(MM);
  }

  // The separation must be SUPER-linear: the statement ratio grows with
  // the branch count (enumeration pays O(2^N), merging O(N)).
  bool SuperLinear = true;
  for (size_t I = 1; I < Mg.size(); ++I) {
    double Prev = double(Mg[I - 1].SnapStmts) / double(Mg[I - 1].MergeStmts);
    double Cur = double(Mg[I].SnapStmts) / double(Mg[I].MergeStmts);
    SuperLinear = SuperLinear && Cur > Prev;
  }
  SuperLinear = SuperLinear && !Mg.empty() &&
                Mg.front().SnapStmts >= 8 * Mg.front().MergeStmts;

  // Semantic equivalence of a merged trace, checked the §5 way: the
  // unconstrained-flags beq merges its two arms into ite values, and every
  // linear path of that merged trace must replay against the concrete
  // reference interpreter.
  bool MergeValidated = false;
  {
    smt::TermBuilder TBv;
    isla::Executor Ev(M, TBv);
    isla::ExecOptions OM;
    OM.Engine = isla::ExecEngine::Merge;
    uint32_t BeqU = 0x54000000u | (0x7fff0u << 5);
    isla::ExecResult RM =
        Ev.run(isla::OpcodeSpec::concrete(BeqU), isla::Assumptions(), OM);
    if (RM.Ok && RM.Stats.PathsMerged >= 1) {
      validation::ValidationResult VR = validation::validateInstruction(
          M, TBv, BeqU, isla::Assumptions(), RM.Trace, "_PC",
          /*RandomTrials=*/4, BeqU);
      MergeValidated = VR.Ok && VR.PathsCovered == VR.Paths;
      if (!VR.Ok)
        std::fprintf(stderr, "merged-trace validation: %s\n",
                     VR.Error.c_str());
    }
  }

  // At least one multi-path study must restore at least as many statements
  // from checkpoints as it executes, i.e. run at most half of what
  // re-running the model per path would (the headline saving).
  bool Halved = false;
  for (const Measurement &Mm : Ms)
    Halved = Halved || (Mm.Paths > 1 && Mm.SnapSkipped >= Mm.SnapStmts);
  std::printf("\n  warm disk traces byte-identical to cold .......... %s\n",
              Ok ? "yes" : "NO");
  std::printf("  >=2x statement reduction on a multi-path study ... %s\n",
              Halved ? "yes" : "NO");
  std::printf("  merge collapses every study to one path .......... %s\n",
              MergeOk ? "yes" : "NO");
  std::printf("  merge saving grows super-linearly with branches .. %s\n",
              SuperLinear ? "yes" : "NO");
  std::printf("  merged beq trace validates against concrete ...... %s\n",
              MergeValidated ? "yes" : "NO");

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
          "     \"warm\": {\"source\": \"disk\", \"hit\": %s, "
          "\"wall_s\": %.6f},\n"
          "     \"stmts_reduction\": %.3f}%s\n",
          Studies[I].Name.c_str(), Mm.Paths, Mm.Events,
          (unsigned long long)Mm.SnapStmts,
          (unsigned long long)Mm.SnapSkipped, Mm.HelperMemoHits,
          Mm.ColdWall, Mm.WarmFromDisk ? "true" : "false", Mm.WarmWall,
          Mm.SnapStmts ? double(Mm.SnapStmts + Mm.SnapSkipped) /
                             double(Mm.SnapStmts)
                       : 0.0,
          I + 1 < Ms.size() ? "," : "");
    }
    std::fprintf(J, "  ],\n");
    std::fprintf(J, "  \"merge_studies\": [\n");
    for (size_t I = 0; I < Mg.size(); ++I) {
      const MergeMeasurement &MM = Mg[I];
      std::fprintf(
          J,
          "    {\"branches\": %u,\n"
          "     \"enumerated\": {\"paths\": %u, \"stmts_executed\": %llu, "
          "\"wall_s\": %.6f},\n"
          "     \"merged\": {\"paths\": %u, \"stmts_executed\": %llu, "
          "\"paths_merged\": %u, \"merge_fallbacks\": %u, "
          "\"ite_terms\": %llu, \"wall_s\": %.6f},\n"
          "     \"stmts_reduction\": %.3f}%s\n",
          MM.Branches, MM.SnapPaths, (unsigned long long)MM.SnapStmts,
          MM.SnapWall, MM.MergePaths, (unsigned long long)MM.MergeStmts,
          MM.PathsMerged, MM.MergeFallbacks, (unsigned long long)MM.IteTerms,
          MM.MergeWall,
          MM.MergeStmts ? double(MM.SnapStmts) / double(MM.MergeStmts) : 0.0,
          I + 1 < Mg.size() ? "," : "");
    }
    std::fprintf(J, "  ],\n");
    std::fprintf(J, "  \"merge_single_path\": %s,\n",
                 MergeOk ? "true" : "false");
    std::fprintf(J, "  \"merge_superlinear\": %s,\n",
                 SuperLinear ? "true" : "false");
    std::fprintf(J, "  \"merge_validated\": %s,\n",
                 MergeValidated ? "true" : "false");
    std::fprintf(J, "  \"multi_path_halved\": %s,\n",
                 Halved ? "true" : "false");
    std::fprintf(J, "  \"all_identical\": %s\n", Ok ? "true" : "false");
    std::fprintf(J, "}\n");
    std::fclose(J);
    std::printf("  wrote BENCH_trace_gen.json\n");
  }

  return Ok && Halved && MergeOk && SuperLinear && MergeValidated ? 0 : 1;
}
