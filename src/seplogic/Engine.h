//===- seplogic/Engine.h - The Islaris proof engine -------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The automated Hoare-double verifier for ITL traces: the C++ counterpart
/// of the Islaris separation logic (Figs. 5 and 11) driven by Lithium-style
/// deterministic proof search (§4.3).
///
/// Verification tasks are registered specs: pairs of a code address and a
/// Spec (function preconditions, loop invariants, handler invariants).  To
/// verify one spec, the engine assumes it (instantiating existentials with
/// fresh unknowns), then symbolically walks the instruction traces applying
/// the proof rules:
///
///  - register/memory events use findR/findM: a deterministic search of the
///    separation context, consulting the bitvector solver for address
///    containment, instead of backtracking over rule alternatives (§4.3);
///  - Assert adds the branch condition as an assumption (pruning the path
///    when the condition contradicts the context);
///  - Assume / AssumeReg become proof obligations discharged by the solver;
///  - at instruction boundaries, a provably matching `a @@ Q` chunk ends
///    the path by *proving* Q (hoare-instr-pre), with all registered specs
///    available coinductively (the paper's step-indexing / Löb argument);
///    otherwise execution continues into the next instruction trace
///    (hoare-instr);
///  - MMIO events step the spec(s) automaton (hoare-read-mem-mmio).
///
/// Every rule application is counted; solver time is accounted separately
/// so the Fig. 12 harness can report the automation/side-condition split.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SEPLOGIC_ENGINE_H
#define ISLARIS_SEPLOGIC_ENGINE_H

#include "itl/Trace.h"
#include "seplogic/Spec.h"
#include "smt/Solver.h"
#include "support/Diag.h"

#include <map>

namespace islaris::seplogic {

/// Proof-effort statistics (the "Coq time" analogue of Fig. 12).
struct ProofStats {
  unsigned EventsProcessed = 0;
  unsigned InstructionsWalked = 0;
  unsigned PathsVerified = 0;
  unsigned PathsPruned = 0;
  unsigned Entailments = 0;
  uint64_t SolverQueries = 0;
  uint64_t CacheHits = 0; ///< Side conditions answered from the cache.
  uint64_t SolverSatCalls = 0;  ///< Checks that reached the SAT core.
  uint64_t SolverMemoHits = 0;  ///< Checks answered by the solver memo.
  uint64_t SolverStoreHits = 0; ///< Checks answered by the persistent store.
  double TotalSeconds = 0;
  double SideCondSeconds = 0; ///< Spent inside the SMT solver.
  double automationSeconds() const {
    return TotalSeconds - SideCondSeconds;
  }
};

/// The verification engine.  One instance per program; the instruction map
/// plays the role of the persistent instr(a,t) chunks of Theorem 1.
class ProofEngine {
public:
  ProofEngine(smt::TermBuilder &TB,
              std::map<uint64_t, const itl::Trace *> Instrs,
              std::string PcReg = "_PC");

  /// Registers \p S as the invariant of the code at \p Addr.  All
  /// registered specs are available as `Addr @@ S` chunks in every
  /// verification context (Löb induction).
  void registerSpec(uint64_t Addr, const Spec *S);

  /// Verifies every registered spec.  Returns false and sets error() on
  /// the first failure.
  bool verifyAll();

  /// Verifies a single registered spec.
  bool verifySpec(uint64_t Addr, const Spec *S);

  const std::string &error() const { return Error; }
  /// Structured diagnostic of the last failure (Ok when no failure); its
  /// code distinguishes genuine proof failures from resource exhaustion,
  /// cancellation, and spec errors.
  const support::Diag &diag() const { return DiagV; }
  const ProofStats &stats() const { return Stats; }

  /// Installs per-check resource guards and a cancellation token on the
  /// engine's solver (see smt::Solver::setLimits).  When a guarded check
  /// gives up (Result::Unknown), the spec under verification fails with an
  /// attributed solver-budget/cancellation diagnostic — Unknown is never
  /// folded into "provable" or "unprovable".
  void setLimits(const support::RunLimits &L,
                 support::CancelToken Token = support::CancelToken()) {
    Solver.setLimits(L, std::move(Token));
  }

  /// Attaches a persistent side-condition store (shared, not owned) to the
  /// engine's solver; every discharged query is looked up in / written back
  /// to it.  See smt::Solver::setCache.
  void setSideCondCache(smt::SolverCache *C) { Solver.setCache(C); }

  /// Maximum instructions walked per verification path before giving up
  /// (a missing loop invariant shows up as exhaustion of this budget).
  unsigned MaxInstrsPerPath = 4096;

private:
  struct Ctx;
  enum class Step { Ok, Pruned, Failed };

  void assumeSpec(const Spec &S, Ctx &C);
  bool wpTrace(const itl::Trace &T, Ctx C, unsigned Budget);
  Step wpEvent(const itl::Event &E, Ctx &C);
  bool wpInstrEnd(Ctx C, unsigned Budget);
  bool entail(const Spec &Q, Ctx &C,
              const std::vector<const smt::Term *> &Args);
  /// Applies an assumed function contract (havoc + relational post) and
  /// resumes at the contract's return address.
  bool applyContract(const Contract &Co, Ctx C, unsigned Budget);

  // Lithium-style context search and side-condition helpers.
  const smt::Term *substTerm(const smt::Term *T, const Ctx &C);
  bool prove(const smt::Term *Goal, Ctx &C);
  bool pureSatisfiable(Ctx &C);
  std::optional<BitVec> concretize(const smt::Term *T, Ctx &C);
  /// Resolves Rec/Branch IO-spec nodes to the next Read/Write/Done node
  /// under the current path condition; null on undecidable branch.
  IoSpecPtr resolveIoState(IoSpecPtr S, Ctx &C);
  bool fail(const std::string &Msg,
            support::ErrorCode C = support::ErrorCode::ProofFailed);
  /// Records a solver give-up (Unknown) at a proof-search site; sticky for
  /// the current verifySpec so the verdict cannot be silently wrong.
  void noteSolverGaveUp(const std::string &Where);

  smt::TermBuilder &TB;
  smt::Solver Solver;
  smt::Rewriter RW;
  std::map<uint64_t, const itl::Trace *> Instrs;
  std::string PcReg;
  std::vector<std::pair<uint64_t, const Spec *>> Registered;
  std::string Error;
  support::Diag DiagV;
  /// A check() returned Unknown during this verifySpec: the walk may have
  /// taken unsound shortcuts, so the spec must not report success.
  bool GaveUp = false;
  /// Deferred registration error (ill-formed spec passed to registerSpec);
  /// reported by the next verifySpec/verifyAll instead of asserting.
  std::string RegError;
  ProofStats Stats;
  /// Side-condition memo: the exact (goal, path-condition) id sequence ->
  /// result.  Branch contexts share long pure prefixes, so the same query
  /// recurs many times across paths and loop iterations.  Keyed on the id
  /// vector itself, not a folded hash: a hash collision here would silently
  /// misprove a goal.
  struct IdSeqHash {
    size_t operator()(const std::vector<unsigned> &V) const {
      uint64_t H = 0xcbf29ce484222325ull;
      for (unsigned Id : V) {
        H ^= Id;
        H *= 1099511628211ull;
      }
      return size_t(H ^ (H >> 31));
    }
  };
  std::unordered_map<std::vector<unsigned>, bool, IdSeqHash> ProveCache;
  /// Monotonic counter making contract-havoc variable names unique, so
  /// printed goal closures stay unambiguous and cacheable across runs.
  unsigned HavocCounter = 0;
};

} // namespace islaris::seplogic

#endif // ISLARIS_SEPLOGIC_ENGINE_H
