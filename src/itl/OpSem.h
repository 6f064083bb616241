//===- itl/OpSem.h - ITL operational semantics ------------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The labeled transition system of Fig. 10 as an executable exhaustive
/// interpreter.  Machine configurations are <t, Sigma>, plus the final
/// configurations TOP (successful termination, written ⊤ in the paper) and
/// BOTTOM (failure, ⊥).  Externally visible labels are reads/writes of
/// unmapped memory (memory-mapped IO) and the end-of-instruction-memory
/// event E(a).
///
/// Non-determinism: the paper resolves DeclareConst by picking any value and
/// letting later ReadReg/ReadMem/Assert events prune wrong picks into TOP.
/// The interpreter implements the equivalent lazy strategy: a declared
/// variable is bound by the first event that determines it (register read,
/// memory read, or MMIO oracle).  Wrong guesses always step to TOP at that
/// determining event, so skipping them is sound and complete for
/// BOTTOM-reachability.  Traces where a declared variable is *used* before
/// being determined are reported as Stuck (Isla never emits such traces;
/// property tests check this).
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_ITL_OPSEM_H
#define ISLARIS_ITL_OPSEM_H

#include "itl/Trace.h"
#include "smt/Evaluator.h"
#include "smt/TermBuilder.h"

#include <map>
#include <unordered_map>

namespace islaris::itl {

/// An externally visible label kappa ::= R(a,vd) | W(a,vd) | E(a).
struct Label {
  enum class Kind : uint8_t { Read, Write, End } K;
  BitVec Addr; ///< 64-bit address a.
  BitVec Data; ///< vd; unused for End.

  static Label read(BitVec A, BitVec D) {
    return {Kind::Read, std::move(A), std::move(D)};
  }
  static Label write(BitVec A, BitVec D) {
    return {Kind::Write, std::move(A), std::move(D)};
  }
  static Label end(BitVec A) { return {Kind::End, std::move(A), BitVec()}; }

  bool operator==(const Label &O) const {
    return K == O.K && Addr == O.Addr && (K == Kind::End || Data == O.Data);
  }
  std::string toString() const;
};

/// The machine state Sigma = (R, I, M).
struct MachineState {
  /// Register map R.  Field-granular: PSTATE.EL and PSTATE.SP are separate
  /// entries (the Sail models read and write banked fields individually).
  std::unordered_map<Reg, smt::Value, RegHash> Regs;
  /// Instruction map I: address -> trace for the instruction at the address.
  std::map<uint64_t, const Trace *> Instrs;
  /// Memory map M: address -> byte.
  std::unordered_map<uint64_t, uint8_t> Mem;
  /// The architecture's program-counter register name ("_PC" for Armv8-A,
  /// "PC" for RISC-V) — the only architecture-specific part of Fig. 10.
  std::string PcReg = "_PC";

  void setReg(const Reg &R, smt::Value V) { Regs[R] = std::move(V); }
  const smt::Value *getReg(const Reg &R) const {
    auto It = Regs.find(R);
    return It == Regs.end() ? nullptr : &It->second;
  }
  /// Writes \p Bytes little-endian at \p Addr.
  void storeBytes(uint64_t Addr, const std::vector<uint8_t> &Bytes) {
    for (size_t I = 0; I < Bytes.size(); ++I)
      Mem[Addr + I] = Bytes[I];
  }
  /// True if all of [Addr, Addr+N) is mapped.
  bool isMapped(uint64_t Addr, unsigned N) const;
  /// Reads N mapped bytes as a bitvector (little-endian, Fig. 10's enc).
  BitVec loadBytes(uint64_t Addr, unsigned N) const;
};

/// Supplies device inputs for reads of unmapped memory (the value b in
/// step-read-mem-event is unconstrained; the environment chooses it).
class MmioOracle {
public:
  virtual ~MmioOracle() = default;
  virtual BitVec mmioRead(uint64_t Addr, unsigned NBytes) = 0;
};

/// How an explored execution path ended.
enum class Outcome : uint8_t {
  Top,       ///< ⊤: successful termination (E(a) or pruned branch).
  Bottom,    ///< ⊥: failure (a violated Assume/AssumeReg or stuck config).
  OutOfFuel, ///< Executed the instruction budget without terminating.
  Stuck,     ///< Unsupported trace shape (use of an undetermined variable).
};

/// One explored execution path.
struct PathResult {
  Outcome Out;
  std::vector<Label> Labels;
  MachineState Final;
  std::string Reason; ///< Diagnostic for Bottom/Stuck paths.
};

/// The exhaustive ITL interpreter.
class Interpreter {
public:
  explicit Interpreter(smt::TermBuilder &TB, MmioOracle *Oracle = nullptr)
      : TB(TB), Oracle(Oracle) {}

  /// Runs a single instruction trace from \p Sigma (no instruction fetch at
  /// the end); returns all explored paths.
  std::vector<PathResult> runTrace(const Trace &T, MachineState Sigma);

  /// Runs the whole-program semantics from configuration <[], Sigma>
  /// (Fig. 10's step-nil starts by fetching via the PC register), executing
  /// at most \p MaxInstrs instructions per path.
  std::vector<PathResult> runProgram(MachineState Sigma, unsigned MaxInstrs);

private:
  void execTrace(const Trace &T, size_t EventIdx, MachineState Sigma,
                 smt::Env Env, std::vector<Label> Labels, unsigned Fuel,
                 bool FetchAtEnd, std::vector<PathResult> &Out);
  void fetchNext(MachineState Sigma, std::vector<Label> Labels, unsigned Fuel,
                 std::vector<PathResult> &Out);

  smt::TermBuilder &TB;
  MmioOracle *Oracle;
  smt::Evaluator Eval;
};

} // namespace islaris::itl

#endif // ISLARIS_ITL_OPSEM_H
