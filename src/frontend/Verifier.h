//===- frontend/Verifier.h - End-to-end Islaris workflow --------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fig. 1 workflow in one object: machine code + constraints go in, the
/// symbolic executor (Isla) turns each opcode into an ITL trace under the
/// per-address assumptions, and a ProofEngine over those traces checks the
/// user's separation-logic specifications.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_FRONTEND_VERIFIER_H
#define ISLARIS_FRONTEND_VERIFIER_H

#include "isla/Executor.h"
#include "seplogic/Engine.h"
#include "seplogic/Spec.h"

#include <map>
#include <memory>

namespace islaris::cache {
class TraceCache;
}

namespace islaris::frontend {

/// What one verification run is handed instead of reading process state:
/// the stores it shares (not owned, thread-safe, null = none) and its
/// resource guards (all-zero = unguarded).  Cache serves trace generation;
/// SideCond serves the proof engine alone (trace generation never reads or
/// writes it).  Two runs with different contexts can execute concurrently
/// in one process.
struct RunContext {
  cache::TraceCache *Cache = nullptr;
  smt::SolverCache *SideCond = nullptr; ///< A cache::SideCondStore.
  support::RunLimits Limits;
};

/// Architecture bundle: model, PC register name, register width oracle.
struct ArchInfo {
  const sail::Model *Model;
  std::string PcName;
  std::function<unsigned(const itl::Reg &)> RegWidth;
  /// Stable architecture name ("aarch64", "rv64"); part of the trace-cache
  /// key so different ISAs can never alias.
  std::string Name;
};

/// The Armv8-A architecture (models::aarch64Model).
ArchInfo aarch64();
/// The RV64 architecture (models::rv64Model).
ArchInfo rv64();

/// Trace-generation statistics ("Isla time" of Fig. 12).  ItlEvents
/// describes the generated traces (the paper's "ITL" column) and is
/// identical however a trace was obtained; Executed / CacheHits / Deduped
/// describe the work actually performed, so cache and dedup savings are
/// visible instead of silently folding into Seconds.
struct GenStats {
  double Seconds = 0;
  unsigned Instructions = 0;
  unsigned ItlEvents = 0;
  unsigned Executed = 0;      ///< Instructions symbolically executed.
  unsigned CacheHits = 0;     ///< Instructions served from the trace cache.
  unsigned Deduped = 0;       ///< Instructions sharing an in-batch twin.
  /// Executor solver queries answered by the in-run memo table (the rest
  /// reached the SAT core or were syntactic).
  unsigned SolverMemoHits = 0;
  /// Model statements dispatched across fresh executions.
  uint64_t StmtsExecuted = 0;
  /// Statements restored from fork checkpoints instead of re-executed.
  uint64_t StmtsSkipped = 0;
  /// Pure-helper calls answered from the executor's per-run summary memo.
  unsigned HelperMemoHits = 0;
  /// Rewriter fixpoint-cap hits across the executions actually run (see
  /// smt::Rewriter::fixpointCapHits); persistently zero in a healthy rule
  /// set, so any nonzero value is a rules regression made visible.
  uint64_t FixpointCapHits = 0;
  /// Batch-driver fault-tolerance counters for the generation batches this
  /// verifier ran (see cache::BatchStats).
  unsigned Retries = 0;
  unsigned Quarantined = 0; ///< Jobs that ended without a trace (Failed).
};

/// Drives trace generation and verification for one program.
class Verifier {
public:
  /// A verifier over \p Arch that shares \p Ctx's stores (its trace
  /// generation consults and fills Ctx.Cache; its proof engine reuses
  /// Ctx.SideCond) and runs under Ctx.Limits.
  explicit Verifier(ArchInfo Arch, const RunContext &Ctx = RunContext());

  smt::TermBuilder &builder() { return TB; }
  const ArchInfo &arch() const { return Arch; }

  /// Adds machine code (address -> opcode), e.g. an Assembler::finish()
  /// image.
  void addCode(const std::map<uint64_t, uint32_t> &Code);

  /// Default constraints applied to every instruction (Fig. 1's "default
  /// constraints": system configuration, EL, ...).
  isla::Assumptions &defaults() { return Defaults; }

  /// Instruction-specific constraints replacing the defaults at \p Addr
  /// (Fig. 1's optional per-instruction constraints, e.g. for eret §2.8).
  isla::Assumptions &at(uint64_t Addr) { return PerAddr[Addr]; }

  /// Marks opcode bits [Hi..Lo] at \p Addr as symbolic (relocation-
  /// parametric immediates, §6 pKVM).
  void symbolicAt(uint64_t Addr, unsigned Hi, unsigned Lo);

  /// Trace-generation options (e.g. disabling Isla's simplifications for
  /// the E5 ablation).  Their Limits are replaced by the context's.
  isla::ExecOptions &options() { return Opts; }

  /// Worker threads for generateTraces (1 = serial on the calling thread,
  /// 0 = hardware concurrency).  Distinct instructions are independent;
  /// each worker owns a private TermBuilder/Executor and results are
  /// deterministic regardless of the thread count.
  void setParallelism(unsigned Threads) { GenThreads = Threads; }
  unsigned parallelism() const { return GenThreads; }

  /// Structured diagnostic of the last failure recorded by this verifier —
  /// a setup error (overlapping addCode, symbolicAt on a missing address)
  /// or the failure generateTraces reported.  Ok when nothing failed.
  const support::Diag &diag() const { return LastDiag; }

  /// Runs the symbolic executor over every instruction, deduplicating
  /// identical (opcode, assumptions, options) requests within the call and
  /// consulting the attached trace cache.  Returns false and sets \p Err on
  /// the first failure (in address order).
  bool generateTraces(std::string &Err);

  /// Trace and opcode-variable access (valid after generateTraces).
  const itl::Trace *traceAt(uint64_t Addr) const;
  const std::vector<const smt::Term *> &opcodeVarsAt(uint64_t Addr) const;
  const std::map<uint64_t, const itl::Trace *> &instrMap() const {
    return InstrPtrs;
  }

  /// Creates a Spec wired with the architecture's register-width hints.
  seplogic::Spec makeSpec(const std::string &Name);

  /// The proof engine over the generated traces (created on first use).
  seplogic::ProofEngine &engine();

  const GenStats &genStats() const { return Gen; }

private:
  ArchInfo Arch;
  smt::TermBuilder TB;
  std::map<uint64_t, uint32_t> Code;
  std::map<uint64_t, isla::OpcodeSpec> OpcodeSpecs;
  isla::Assumptions Defaults;
  isla::ExecOptions Opts;
  std::map<uint64_t, isla::Assumptions> PerAddr;
  std::map<uint64_t, itl::Trace> Traces;
  std::map<uint64_t, const itl::Trace *> InstrPtrs;
  std::map<uint64_t, std::vector<const smt::Term *>> OpcodeVars;
  std::unique_ptr<seplogic::ProofEngine> Engine;
  /// The arch name and every instruction's address and trace-cache key,
  /// in address order: the program part of the proof-bundle key.
  support::Fingerprint ProgramKey;
  GenStats Gen;
  RunContext Ctx;
  unsigned GenThreads = 1;
  support::Diag LastDiag;
};

} // namespace islaris::frontend

#endif // ISLARIS_FRONTEND_VERIFIER_H
