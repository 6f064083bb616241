//===- smt/Solver.h - QF_BV satisfiability facade ---------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SMT solver used throughout the pipeline: by Isla's symbolic executor
/// for branch pruning, and by the separation-logic engine for side-condition
/// discharge ("a solver for bitvectors provided by Islaris", §2.5).
///
/// Architecture: assertions are simplified by the Rewriter first; anything
/// not decided syntactically is bit-blasted to CNF and handed to the CDCL
/// core.  The SAT instance and bit-blaster persist for the lifetime of the
/// Solver: goals are passed as *assumptions* (never asserted as unit
/// clauses), so the clause database stays satisfiable, push()/pop() is
/// trivially correct, and the Tseitin circuits of recurring subterms are
/// built once and reused across checks — the "scoped incrementality" half
/// of the side-condition cache.
///
/// A check that misses the memo and the store goes through two tiers and
/// then the core, in this order:
///
///  - model reuse: the model of the last Sat answer from this tier or the
///    core, then all zeros, each completed to every free variable of the
///    residual goals with zero/false defaults.  A candidate under which
///    every goal evaluates to true answers Sat, with that assignment as
///    the model (SolverStats::NumReused).  Callers use models only for the
///    verdict, to propose values whose uniqueness they prove, or as
///    witnesses any model serves, so cold models may depend on query
///    order; verdicts do not;
///  - decideUnsat (Decide.h): normalises the goals, closes their signed
///    and unsigned order literals, and enumerates variables with tiny
///    unsigned domains (at most 64 assignments, a fixed constant).  It
///    answers only Unsat (SolverStats::NumDecided);
///  - the core, on the original goals (SolverStats::NumSatCalls).
///
/// Every Sat answer's model is Evaluator-checked against the residual
/// goals before it is used or cached, by the Solver's own smt::Evaluator
/// (memo slots indexed by this builder's term ids).  A core model that
/// fails the check is answered Unknown (SolverStats::NumRejectedModels).
/// Tier and core answers are memoized and stored alike.  A Sat answer from
/// the store is checked the same way before it is installed; one that
/// fails is refused (the store counts it as a miss) and the goals are
/// solved as if the store had missed.
///
/// Callers read a Sat answer's model through model() and modelValue().
/// The symbolic executor keeps it as the witness of the branch side it
/// decided, so at the next branch it evaluates the condition under that
/// witness and checks only the side the witness does not satisfy.
///
/// Before the tiers, check() consults two caching layers:
///
///  - an in-memory memo table keyed on the canonical simplified goal set
///    (sorted hash-consed term ids), so a query repeated anywhere within a
///    run — across push/pop frames, paths, or specs — returns instantly
///    with the same answer and model;
///  - an optional persistent store (SolverCache, implemented by
///    cache::SideCondStore and attached only by the proof engine), keyed
///    on a builder-independent structural digest of the goal set (see
///    goalSetKey) so results survive across runs and processes.  The
///    digest is computed only when a store is attached.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SMT_SOLVER_H
#define ISLARIS_SMT_SOLVER_H

#include "smt/BitBlaster.h"
#include "smt/Evaluator.h"
#include "smt/Rewriter.h"
#include "smt/TermBuilder.h"
#include "support/Fingerprint.h"
#include "support/Guard.h"

#include <functional>
#include <memory>
#include <optional>
#include <tuple>

namespace islaris::smt {

/// Satisfiability result.  Unknown appears only when a resource guard is
/// installed (RunLimits budgets / cancellation, see Solver::setLimits) or a
/// fault injector spoofs it; the unlimited default solver is complete and
/// never returns it.  Callers MUST treat Unknown explicitly — folding it
/// into Sat or Unsat by a `==` comparison silently weakens or unsounds the
/// surrounding proof logic.
enum class Result { Sat, Unsat, Unknown };

/// Accumulated statistics, reported by the Fig. 12 benchmark harness.
struct SolverStats {
  uint64_t NumChecks = 0;
  uint64_t NumSyntactic = 0; ///< Checks decided without the SAT core.
  uint64_t NumMemoHits = 0;  ///< Checks answered by the in-run memo table.
  uint64_t NumStoreHits = 0; ///< Checks answered by the persistent store.
  uint64_t NumReused = 0;    ///< Checks answered Sat by a reused model.
  uint64_t NumDecided = 0;   ///< Checks refuted by decideUnsat (Decide.h).
  uint64_t NumSatCalls = 0;  ///< Checks that reached the SAT core.
  uint64_t NumUnknown = 0;   ///< Checks cut short by a guard or fault.
  /// Core models that failed the Evaluator check (answered Unknown).
  uint64_t NumRejectedModels = 0;
  uint64_t NumConflicts = 0;
  uint64_t TermsBlasted = 0; ///< Terms translated to CNF (mirror of blaster).
  uint64_t TermsReused = 0;  ///< Blaster cache hits: clauses reused.
  /// Times the Rewriter's root-rule loop hit its defensive iteration cap
  /// and returned a possibly-unnormalized term (see
  /// Rewriter::fixpointCapHits).  Zero in a healthy rule set.
  uint64_t FixpointCapHits = 0;
  double TotalSeconds = 0;
};

/// Interface to a (typically persistent) store of side-condition answers.
/// Implemented by cache::SideCondStore; declared here so the smt layer
/// stays free of I/O concerns.  Answers are grouped in bundles, one per
/// proof search: a Bundle is what a Solver consults, and inside it every
/// answer stays keyed by its own goal-set digest (Solver::goalSetKey), so a
/// bundle opened under a stale or colliding bundle key can only miss.
/// Implementations must be thread-safe (one store is shared by many
/// solvers); a Bundle serves one solver at a time.
class SolverCache {
public:
  virtual ~SolverCache();

  /// A cached answer.  For Sat results the model assigns every free
  /// variable of the goal set by (name, width) — width 0 encodes a
  /// boolean variable whose value is the low bit of a 1-bit vector.
  struct CachedResult {
    bool Sat = false;
    std::vector<std::tuple<std::string, unsigned, BitVec>> Model;
    bool operator==(const CachedResult &O) const {
      return Sat == O.Sat && Model == O.Model;
    }
  };

  /// Binds a stored answer to the goals it was looked up for; returns
  /// false when the answer does not describe them (a Sat model that fails
  /// the Evaluator check, or one naming other variables).
  using Install = std::function<bool(const CachedResult &)>;

  /// The answers one proof search uses.
  class Bundle {
  public:
    virtual ~Bundle();
    /// Offers the answer stored under goal-set key \p Key to \p I.
    /// \p Goals are the residual goals \p Key digests; the store keys on
    /// \p Key alone.  True when \p I accepted an answer.  A refused answer
    /// is dropped from the store and the lookup counts as a miss.
    virtual bool lookup(const support::Fingerprint &Key,
                        const std::vector<const Term *> &Goals,
                        const Install &I) = 0;
    /// Records the answer the solver found for \p Key.
    virtual void store(const support::Fingerprint &Key,
                       const CachedResult &R) = 0;
    /// Ends the proof search: persists the answers it used if any lookup
    /// missed.  Further lookups may follow (the bundle stays open).
    virtual void publish() = 0;
  };

  /// Opens the bundle of the proof search named by \p Key.  The key is a
  /// hint for where the answers are kept, not a proof identity.
  virtual std::unique_ptr<Bundle>
  openBundle(const support::Fingerprint &Key) = 0;
};

/// An incremental-interface QF_BV solver over a TermBuilder's terms.
class Solver {
public:
  explicit Solver(TermBuilder &TB);
  ~Solver();

  /// Pushes/pops an assertion scope.
  void push();
  void pop();

  /// Asserts a boolean term in the current scope.
  void assertTerm(const Term *T);

  /// Checks satisfiability of the asserted stack plus \p Assumptions.
  /// Under installed limits the answer may be Result::Unknown.
  Result check(const std::vector<const Term *> &Assumptions = {});

  /// Installs per-check resource guards: RunLimits' SolverCheckSeconds,
  /// SolverConflicts and SolverPropagations (0 = unlimited) become each
  /// SAT call's budget, and \p Token is polled before and inside every
  /// check.  A check cut short returns Result::Unknown, which is never
  /// memoized or persisted.  The guards apply to every subsequent check();
  /// pass default-constructed values to remove them.
  void setLimits(const support::RunLimits &L,
                 support::CancelToken Token = support::CancelToken()) {
    Limits = L;
    Cancel = std::move(Token);
  }
  const support::CancelToken &cancelToken() const { return Cancel; }

  /// True if \p T holds in every model of the current assertions
  /// (i.e. assertions ∧ ¬T is unsat).
  bool isValid(const Term *T);

  /// After a Sat answer from check(): concrete value of a term under the
  /// discovered model (variables directly, compound terms by evaluation).
  /// The model is invalidated by assertTerm()/pop(); querying it afterwards
  /// asserts, and in release builds degrades to the default (all-zeros)
  /// assignment rather than silently reporting a retracted scope's model.
  Value modelValue(const Term *Var);

  /// After a Sat answer from check(): the model itself, assigning the free
  /// variables of the residual goals (others read as zero/false).  Like
  /// modelValue(), invalidated by assertTerm()/pop().
  const Env &model() const {
    assert(HasModel && "model() without a Sat answer newer than the last "
                       "assertTerm()/pop()");
    return Model;
  }

  /// The evaluator this solver checks models with, for callers evaluating
  /// terms of this solver's builder.
  Evaluator &evaluator() { return Eval; }

  /// Asserted terms, innermost scope last (diagnostics).
  const std::vector<const Term *> &assertions() const { return Asserted; }

  /// Attaches \p B as the persistent side-condition store (not owned).
  /// Consulted after a memo miss; solved queries are written back.  Null
  /// detaches.
  void setCache(SolverCache::Bundle *B) { Persist = B; }
  SolverCache::Bundle *cache() const { return Persist; }

  /// The builder-independent store key of a residual goal set: a digest
  /// of the sorted, deduplicated structural digests of \p Goals plus the
  /// (name, width) declarations of their free variables \p Vars (width
  /// 0 = Bool), which it sorts by name.  Variables are hashed by name and
  /// width, never by id, so the same goals built in two TermBuilders key
  /// equal.  Returns nullopt when two distinct variables share a name —
  /// such a goal set would be ambiguous across builders, so it is excluded
  /// from cross-run caching (the id-keyed memo still applies).
  std::optional<support::Fingerprint>
  goalSetKey(const std::vector<const Term *> &Goals,
             std::vector<const Term *> &Vars);

  TermBuilder &builder() { return TB; }
  Rewriter &rewriter() { return RW; }
  const SolverStats &stats() const {
    // The rewriter owns the live counter; mirror it on read so callers see
    // an up-to-date value without the hot simplify path touching Stats.
    Stats.FixpointCapHits = RW.fixpointCapHits();
    return Stats;
  }

private:
  /// The free variables of \p Goals, each once.
  std::vector<const Term *> goalVars(const std::vector<const Term *> &Goals);
  // The helpers below take the residual goals' free variables, collected
  // once per memo miss; goalSetKey sorts them by name, and the store
  // helpers (installCached, exportResult) rely on that order, the order of
  // a stored model.
  bool reuseModel(const std::vector<const Term *> &Goals,
                  const std::vector<const Term *> &Vars);
  Result solveGoals(const std::vector<const Term *> &Goals,
                    const std::vector<const Term *> &Vars);
  bool installCached(const std::vector<const Term *> &Goals,
                     const std::vector<const Term *> &Vars,
                     const SolverCache::CachedResult &C);
  /// The structural digest of \p T, memoized in TermDigests.
  support::Fingerprint termDigest(const Term *T);
  SolverCache::CachedResult
  exportResult(const std::vector<const Term *> &Vars, Result R) const;
  void invalidateModel() {
    HasModel = false;
    Model.clear();
  }

  TermBuilder &TB;
  Rewriter RW;
  std::vector<const Term *> Asserted;
  std::vector<size_t> ScopeMarks;
  mutable SolverStats Stats;
  SolverCache::Bundle *Persist = nullptr;
  // Structural digests by term id (terms are immutable, ids are dense per
  // builder); filled only while a store is attached.
  std::vector<support::Fingerprint> TermDigests;
  std::vector<bool> HasDigest;
  // goalVars' visited marks by term id: a term is visited in the current
  // traversal when its mark equals VisitEpoch.
  std::vector<unsigned> VisitMark;
  unsigned VisitEpoch = 0;
  support::RunLimits Limits;
  support::CancelToken Cancel;
  // Checks every model before it is used or cached; its memo slots are
  // indexed by this builder's term ids.
  Evaluator Eval;

  // The persistent SAT core and Tseitin translation, created on the first
  // check that needs them and reused for the Solver's lifetime.  Goals are
  // only ever assumed, so the clause database stays satisfiable.
  std::unique_ptr<sat::Solver> Core;
  std::unique_ptr<BitBlaster> Blaster;

  // Model of the last Sat answer (goal variables only), extracted eagerly
  // so it cannot be invalidated by later clause additions.
  bool HasModel = false;
  Env Model;

  // The model of the last Sat answer from the reuse tier or the core: the
  // reuse tier's first candidate.  Unlike Model it survives assertTerm()
  // and pop(), and memo and store hits leave it alone.
  Env LastModel;

  // In-run memo: canonical goal-id set -> result + model.  Terms are
  // hash-consed, so ids identify goals and the key is builder-stable.
  struct MemoEntry {
    Result R;
    Env Model;
  };
  std::unordered_map<std::vector<unsigned>, MemoEntry, support::IdSeqHash>
      Memo;
};

} // namespace islaris::smt

#endif // ISLARIS_SMT_SOLVER_H
