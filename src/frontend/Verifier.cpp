//===- frontend/Verifier.cpp - End-to-end Islaris workflow ---------------------===//

#include "frontend/Verifier.h"

#include "cache/BatchDriver.h"
#include "models/Models.h"

#include <chrono>

using namespace islaris;
using namespace islaris::frontend;

ArchInfo islaris::frontend::aarch64() {
  return {&models::aarch64Model(), "_PC",
          [](const itl::Reg &R) -> unsigned {
            if (R.Base == "PSTATE")
              return R.Field == "EL" ? 2 : 1;
            return 64;
          },
          "aarch64"};
}

ArchInfo islaris::frontend::rv64() {
  return {&models::rv64Model(), "PC",
          [](const itl::Reg &) -> unsigned { return 64; }, "rv64"};
}

Verifier::Verifier(ArchInfo Arch, const RunContext &Ctx)
    : Arch(std::move(Arch)), Ctx(Ctx) {}

void Verifier::addCode(const std::map<uint64_t, uint32_t> &NewCode) {
  for (const auto &[Addr, Op] : NewCode) {
    if (Code.count(Addr)) {
      // Overlapping images are a setup error, not UB: keep the first
      // mapping, record the conflict, and let generateTraces refuse to run
      // on a verifier whose code layout is ambiguous.
      if (LastDiag.ok())
        LastDiag = support::Diag::error(
            support::ErrorCode::OverlappingCode, "frontend",
            "overlapping code regions: two opcodes mapped at " +
                BitVec(64, Addr).toHexString());
      continue;
    }
    Code[Addr] = Op;
  }
}

void Verifier::symbolicAt(uint64_t Addr, unsigned Hi, unsigned Lo) {
  auto It = Code.find(Addr);
  if (It == Code.end()) {
    if (LastDiag.ok())
      LastDiag = support::Diag::error(
          support::ErrorCode::UnknownSymbol, "frontend",
          "symbolicAt(" + BitVec(64, Addr).toHexString() +
              ") names an address with no code (call addCode first)");
    return;
  }
  auto SpecIt = OpcodeSpecs.find(Addr);
  if (SpecIt == OpcodeSpecs.end()) {
    OpcodeSpecs[Addr] = isla::OpcodeSpec::symbolicField(It->second, Hi, Lo);
    return;
  }
  // Extend an existing partially-symbolic opcode.
  for (unsigned I = Lo; I <= Hi; ++I)
    SpecIt->second.SymMask = SpecIt->second.SymMask.insertSlice(
        I, BitVec(1, 1));
}

bool Verifier::generateTraces(std::string &Err) {
  auto Start = std::chrono::steady_clock::now();

  if (!LastDiag.ok()) {
    // A setup error (overlapping addCode, dangling symbolicAt) was recorded
    // earlier; refuse to generate traces from an ambiguous configuration.
    Err = LastDiag.render();
    return false;
  }

  // One job per instruction.  The batch driver canonicalizes each job to
  // its cache key, so repeated opcodes under the same assumptions (e.g.
  // unrolled loop bodies) execute once, and a shared TraceCache can satisfy
  // whole programs without running the executor at all.
  std::vector<cache::TraceJob> Jobs;
  std::vector<uint64_t> Addrs;
  Jobs.reserve(Code.size());
  for (const auto &[Addr, Op] : Code) {
    cache::TraceJob J;
    J.Model = Arch.Model;
    J.ArchName = Arch.Name;
    auto SpecIt = OpcodeSpecs.find(Addr);
    J.Op = SpecIt != OpcodeSpecs.end() ? SpecIt->second
                                       : isla::OpcodeSpec::concrete(Op);
    auto AIt = PerAddr.find(Addr);
    J.Assume = AIt != PerAddr.end() ? &AIt->second : &Defaults;
    J.Opts = Opts;
    // Resource guards ride on the options but are excluded from the cache
    // fingerprint (a guarded failure is never cached, so a guarded and an
    // unguarded run share entries).
    J.Opts.Limits = Ctx.Limits;
    J.Tag = Addr;
    Jobs.push_back(std::move(J));
    Addrs.push_back(Addr);
  }

  cache::BatchDriver Driver(GenThreads);
  std::vector<cache::TraceJobResult> Results = Driver.run(Jobs, Ctx.Cache);
  Gen.Retries += Driver.lastStats().Retries;
  Gen.Quarantined += Driver.lastStats().Failed;

  support::Fingerprinter Program;
  Program.str(Arch.Name).u64(Results.size());
  for (size_t I = 0; I < Results.size(); ++I)
    Program.u64(Addrs[I]).fingerprint(Results[I].Key);
  ProgramKey = Program.digest();

  // Materialize results in address order into this verifier's builder.
  // Every path — fresh, deduped, or cached — round-trips through the
  // printed ITL form, so the three are bit-identical by construction and
  // each materialization re-checks the grammar's adequacy.
  for (size_t I = 0; I < Results.size(); ++I) {
    uint64_t Addr = Addrs[I];
    cache::TraceJobResult &R = Results[I];
    if (!R.Ok) {
      Err = "instruction at " + BitVec(64, Addr).toHexString() + " (" +
            BitVec(32, Code[Addr]).toHexString() + "): " + R.Error;
      LastDiag = R.D.ok() ? support::Diag::error(
                                support::ErrorCode::ModelError, "isla", Err)
                          : R.D;
      LastDiag.Message = Err;
      return false;
    }
    isla::ExecResult Exec;
    if (!cache::TraceCache::decode(R.Entry, TB, Exec, Err)) {
      // A cached entry that parses as an entry but whose trace does not
      // decode is either a corrupt cache payload or an ITL adequacy bug.
      // This run fails either way; forgetting the entry lets the next one
      // execute afresh instead of failing on it again.
      if (Ctx.Cache)
        Ctx.Cache->discard(R.Key, Err);
      Err = "instruction at " + BitVec(64, Addr).toHexString() + ": " + Err;
      LastDiag = support::Diag::error(
          R.Source == cache::ResultSource::CacheHit
              ? support::ErrorCode::CorruptCacheEntry
              : support::ErrorCode::Internal,
          "trace-cache", Err);
      return false;
    }
    Traces[Addr] = std::move(Exec.Trace);
    OpcodeVars[Addr] = std::move(Exec.OpcodeVars);
    Gen.ItlEvents += Exec.Stats.Events;
    ++Gen.Instructions;
    switch (R.Source) {
    case cache::ResultSource::Fresh:
      // Solver work is only accounted when it actually happened.
      Gen.SolverMemoHits += Exec.Stats.SolverMemoHits;
      Gen.StmtsExecuted += Exec.Stats.StmtsExecuted;
      Gen.StmtsSkipped += Exec.Stats.StmtsSkippedBySnapshot;
      Gen.HelperMemoHits += Exec.Stats.HelperMemoHits;
      Gen.FixpointCapHits += Exec.Stats.FixpointCapHits;
      ++Gen.Executed;
      break;
    case cache::ResultSource::CacheHit:
      ++Gen.CacheHits;
      break;
    case cache::ResultSource::Deduped:
      ++Gen.Deduped;
      break;
    }
  }
  for (const auto &[Addr, T] : Traces)
    InstrPtrs[Addr] = &T;
  Gen.Seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return true;
}

const itl::Trace *Verifier::traceAt(uint64_t Addr) const {
  auto It = Traces.find(Addr);
  return It == Traces.end() ? nullptr : &It->second;
}

const std::vector<const smt::Term *> &
Verifier::opcodeVarsAt(uint64_t Addr) const {
  static const std::vector<const smt::Term *> Empty;
  auto It = OpcodeVars.find(Addr);
  return It == OpcodeVars.end() ? Empty : It->second;
}

seplogic::Spec Verifier::makeSpec(const std::string &Name) {
  seplogic::Spec S(TB, Name);
  S.RegWidthHint = Arch.RegWidth;
  return S;
}

seplogic::ProofEngine &Verifier::engine() {
  if (!Engine) {
    // An empty instruction map (engine() before generateTraces, or after a
    // failed generation) is not UB: the engine is well-defined over an
    // empty program and any instr() step simply fails its proof with a
    // "no instruction" diagnostic.
    Engine = std::make_unique<seplogic::ProofEngine>(TB, InstrPtrs,
                                                     Arch.PcName);
    Engine->setSideCondCache(Ctx.SideCond, ProgramKey);
    Engine->setLimits(Ctx.Limits);
  }
  return *Engine;
}
