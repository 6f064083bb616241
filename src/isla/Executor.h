//===- isla/Executor.h - Symbolic execution of mini-Sail --------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Isla component (§2.1, §3): given an opcode (possibly with symbolic
/// immediate fields) and assumptions on the machine configuration, evaluate
/// the mini-Sail model symbolically, pruning branches that are unreachable
/// under the assumptions with the SMT solver, and emit an ITL trace.  Each
/// path carries a witness model of its path condition, which settles one
/// side of a branch by evaluation, so a branch costs one solver check.
///
/// Path exploration runs one frame-stack machine.  At each both-feasible
/// symbolic branch it checkpoints the run state (control and value stacks,
/// register maps, event/path-condition lengths, pooled-variable cursor) and
/// queues the checkpoint on a depth-first worklist, so shared prefixes
/// execute exactly once.  The linear event sequences are merged into a
/// trace tree by longest common prefix, and variable naming is
/// deterministic (a pooled allocator keyed by event position): a shared
/// prefix, then Cases() whose subtraces begin with Assert() of the branch
/// condition (Fig. 6).  A golden corpus in tests/snapshot_test.cpp
/// (recorded from the original per-path re-executing engine and checked
/// against the §5 validator) guards the traces' exact shape.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_ISLA_EXECUTOR_H
#define ISLARIS_ISLA_EXECUTOR_H

#include "itl/Trace.h"
#include "sail/Ast.h"
#include "smt/Solver.h"
#include "support/Diag.h"
#include "support/Guard.h"

#include <functional>
#include <optional>

namespace islaris::isla {

/// A constraint on the initial value of one register, used when a concrete
/// assumed value is too strong (e.g. the pKVM eret case, where SPSR_EL2 may
/// be one of two values, §6).  Given the builder and the fresh variable
/// standing for the register's initial value, returns the assumed predicate.
using RegConstraintFn = std::function<const smt::Term *(
    smt::TermBuilder &, const smt::Term *)>;

/// Assumptions on the system state, mirroring Isla's -R / constraint flags.
/// Concrete assumptions become assume-reg events; predicate constraints
/// become declare-const + read-reg + assume event triples.
struct Assumptions {
  std::vector<std::pair<itl::Reg, BitVec>> Concrete;
  std::vector<std::pair<itl::Reg, RegConstraintFn>> Constraints;

  Assumptions &assume(itl::Reg R, BitVec V) {
    Concrete.emplace_back(std::move(R), std::move(V));
    return *this;
  }
  Assumptions &constrain(itl::Reg R, RegConstraintFn F) {
    Constraints.emplace_back(std::move(R), std::move(F));
    return *this;
  }
};

/// An instruction opcode: concrete bits plus a mask of symbolic bits
/// (supporting Isla's "symbolic immediate operands", §3).  Contiguous
/// symbolic runs become one fresh variable each.
struct OpcodeSpec {
  BitVec Bits;    ///< Base bits (symbolic positions ignored).
  BitVec SymMask; ///< 1 = this bit is symbolic.

  static OpcodeSpec concrete(uint32_t Op) {
    return {BitVec(32, Op), BitVec(32, 0)};
  }
  /// Marks bits [Hi..Lo] of a 32-bit opcode as symbolic.
  static OpcodeSpec symbolicField(uint32_t Op, unsigned Hi, unsigned Lo) {
    BitVec Mask = BitVec::zeros(32);
    for (unsigned I = Lo; I <= Hi; ++I)
      Mask = Mask.insertSlice(I, BitVec(1, 1));
    return {BitVec(32, Op), Mask};
  }
};

/// Knobs for the E4/E5 ablation benchmarks, plus the per-run resource
/// guards.  The first three fields are semantic (they shape the emitted
/// trace) and participate in the trace-cache fingerprint.  The guards below
/// them only decide whether a run *completes* — a guarded failure is never
/// cached, so they must stay out of cache/Fingerprint.
struct ExecOptions {
  /// Reuse the value of a register read within the instruction (Isla's
  /// trace simplification).  Off = every model-level read re-emits an event.
  bool CacheRegReads = true;
  /// Name only sink values (register/memory writes, branch conditions) with
  /// define-const.  Off = name every intermediate compound value, greatly
  /// inflating the trace (the unsimplified baseline).
  bool SinksOnly = true;
  /// Instruction budget safeguard against model bugs.
  unsigned MaxPaths = 64;

  /// Resource guards (outside the trace-cache key: a guarded failure is
  /// never cached, and a success is budget-independent).  InstrSeconds is
  /// this one run's wall-clock deadline, checked between statements; the
  /// Solver* budgets go to the executor's smt::Solver per check; the Job*
  /// fields are read by cache::BatchDriver for the job's watchdog and
  /// retries.
  support::RunLimits Limits;
  /// Cooperative cancellation: polled every statement and inside the SAT
  /// core; a fired token fails the run with ErrorCode::Cancelled.
  support::CancelToken Cancel;
};

/// Statistics of one symbolic execution.
struct ExecStats {
  unsigned Paths = 0;          ///< Linear paths in the final trace.
  unsigned PrunedBranches = 0; ///< Branches cut by the solver.
  /// Two per decided branch plus one per discharged model assertion: the
  /// count the trace-cache entry format serializes, whatever the checks
  /// actually issued (SolverChecks).
  unsigned SolverQueries = 0;
  unsigned Events = 0; ///< Total events in the merged trace.
  /// Queries of this run answered by the solver's memo table instead of a
  /// SAT call (flipped-branch re-checks repeat heavily).  Derived, not part
  /// of the serialized trace-cache entry format.
  unsigned SolverMemoHits = 0;
  /// Solver checks this run issued: one per branch whose path carries a
  /// witness model, two per branch without one, one per discharged model
  /// assertion.  Derived.
  unsigned SolverChecks = 0;
  /// Branch sides found feasible by evaluating the condition under the
  /// path's witness model instead of a solver check.  Derived.
  unsigned WitnessSides = 0;
  /// Solver checks of this run that reached the SAT core.  Derived.
  unsigned SolverCoreCalls = 0;
  /// Model statements actually dispatched across all paths of this run.
  /// Shared prefixes execute once; only divergent suffixes are re-run.
  /// Derived.
  uint64_t StmtsExecuted = 0;
  /// Statements NOT re-executed because the shared prefix was restored from
  /// a checkpoint: the sum over resumed forks of the statements executed
  /// before the fork point.  StmtsExecuted + StmtsSkippedBySnapshot is what
  /// re-running the model once per path would dispatch (helper-memo hits
  /// aside).  Derived.
  uint64_t StmtsSkippedBySnapshot = 0;
  /// Calls to statically-pure model helpers answered from the per-run
  /// (function, argument-terms) summary memo.  Derived.
  unsigned HelperMemoHits = 0;
  /// Times the rewriter's root-rule loop hit its defensive iteration cap
  /// during this run (see smt::Rewriter::fixpointCapHits) — counts both the
  /// executor's own rewriter and its solver's.  Zero in a healthy rule set.
  uint64_t FixpointCapHits = 0;
};

/// Result of symbolically executing one opcode.  On failure, D carries the
/// structured diagnostic (Error mirrors D.Message for older call sites).
struct ExecResult {
  bool Ok = false;
  std::string Error;
  support::Diag D;
  itl::Trace Trace;
  /// Fresh variables standing for symbolic opcode fields, low-to-high.
  std::vector<const smt::Term *> OpcodeVars;
  ExecStats Stats;
};

/// Width in bits of the register designator \p R under \p M's declarations
/// (field-granular, e.g. PSTATE.EL is 2 bits); 0 if \p R is unknown.  Used
/// by the executor's assumption preamble and by the trace-cache key
/// derivation (cache/Fingerprint), which must agree on constraint-variable
/// widths.
unsigned registerWidth(const sail::Model &M, const itl::Reg &R);

/// The symbolic executor.  One instance per (model, builder); run() may be
/// called repeatedly.
class Executor {
public:
  Executor(const sail::Model &M, smt::TermBuilder &TB);

  /// Symbolically executes `decode(opcode)` under \p A.
  ExecResult run(const OpcodeSpec &Op, const Assumptions &A,
                 const ExecOptions &Opts = ExecOptions());

private:
  struct RunState;
  struct Machine; // the checkpointing frame-stack interpreter
  enum class Sides : uint8_t;

  /// Emits the run's preamble (assumption events, opcode term), which
  /// every path shares, refilling \p OpVars.  On failure marks \p RS
  /// failed and returns nullptr.
  const smt::Term *emitPreamble(const OpcodeSpec &Op, const Assumptions &A,
                                RunState &RS,
                                std::vector<const smt::Term *> &OpVars);

  // Step rules of the frame machine.

  /// The term (and events) of builtin \p E over its evaluated operands.
  const smt::Term *applyBuiltin(const sail::Expr &E,
                                const std::vector<const smt::Term *> &Args,
                                RunState &RS);
  /// Which sides of the simplified, non-constant branch condition \p S are
  /// feasible under the path condition; counts a pruned branch, and fails
  /// the run if the solver cannot decide.  The side \p RS's witness model
  /// satisfies needs no solver check.  Leaves \p RS a witness of the side
  /// it continues on (the then side of a fork) and, at a fork, the else
  /// side's in \p ElseWitness.
  Sides feasibleSides(const smt::Term *S, RunState &RS,
                      std::optional<smt::Env> &ElseWitness);
  /// Enters one side of a both-feasible fork: the Assert heading its
  /// divergent suffix (Fig. 6) and the path-condition conjunct.
  void takeSide(const smt::Term *Cond, const smt::Term *Named, bool Then,
                RunState &RS);
  /// Discharges model assertion \p S on its evaluated condition \p C.
  void dischargeAssert(const sail::Stmt &S, const smt::Term *C,
                       RunState &RS);

  const smt::Term *readRegister(const itl::Reg &R, unsigned Width,
                                RunState &RS);
  void writeRegister(const itl::Reg &R, const smt::Term *V, RunState &RS);
  /// Names \p V with a define-const if it is compound; returns the name.
  const smt::Term *nameValue(const smt::Term *V, RunState &RS);
  const smt::Term *pooledVar(smt::Sort S, RunState &RS);

  const sail::Model &M;
  smt::TermBuilder &TB;
  smt::Solver Solver;
  smt::Rewriter RW;
};

} // namespace islaris::isla

#endif // ISLARIS_ISLA_EXECUTOR_H
