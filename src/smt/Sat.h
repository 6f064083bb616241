//===- smt/Sat.h - CDCL SAT solver ------------------------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver (watched literals, VSIDS
/// branching, phase saving, first-UIP learning, Luby restarts).  This is the
/// decision kernel under the QF_BV solver that stands in for the external
/// SMT solver in Isla's architecture.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SMT_SAT_H
#define ISLARIS_SMT_SAT_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace islaris::smt::sat {

/// A boolean variable index (0-based).
using Var = int32_t;

/// A literal: variable with polarity, encoded as 2*var (+1 if negated).
class Lit {
public:
  Lit() : X(-2) {}
  Lit(Var V, bool Negated) : X(V + V + (Negated ? 1 : 0)) {}

  Var var() const { return X >> 1; }
  bool negated() const { return X & 1; }
  Lit operator~() const {
    Lit L;
    L.X = X ^ 1;
    return L;
  }
  int32_t index() const { return X; }
  bool operator==(const Lit &O) const { return X == O.X; }
  bool operator!=(const Lit &O) const { return X != O.X; }

private:
  int32_t X;
};

/// Ternary truth value.
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

/// Result of a solve call.  Unknown is only produced when a Budget is in
/// force and fires: the instance was neither proven satisfiable nor
/// unsatisfiable within the allotted resources.
enum class SatResult { Sat, Unsat, Unknown };

/// Per-solve resource budget.  Zero / null fields are unlimited; the
/// default-constructed budget never interrupts the search (the solver is
/// complete, exactly as before).
struct SatBudget {
  uint64_t MaxConflicts = 0;    ///< Conflicts allowed within one solve call.
  uint64_t MaxPropagations = 0; ///< Propagations allowed within one call.
  /// Wall-clock deadline; time_point::max() means none.  Checked every few
  /// hundred conflicts, so overshoot is bounded by one conflict batch.
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::max();
  /// Cooperative cancellation flag (borrowed); polled with the deadline.
  const std::atomic<bool> *Cancel = nullptr;

  bool unlimited() const {
    return MaxConflicts == 0 && MaxPropagations == 0 && !Cancel &&
           Deadline == std::chrono::steady_clock::time_point::max();
  }
};

/// A CDCL solver.  Usage: newVar()* -> addClause()* -> solve(assumptions).
/// Clauses persist across solve calls; assumptions do not.
class Solver {
public:
  Solver();

  /// Allocates a fresh variable and returns its index.
  Var newVar();
  int numVars() const { return int(Assigns.size()); }

  /// Adds a clause (disjunction of literals).  Returns false if the clause
  /// set is already unsatisfiable at level 0 (e.g. adding the empty clause).
  bool addClause(std::vector<Lit> Clause);
  bool addClause(Lit A) { return addClause(std::vector<Lit>{A}); }
  bool addClause(Lit A, Lit B) { return addClause(std::vector<Lit>{A, B}); }
  bool addClause(Lit A, Lit B, Lit C) {
    return addClause(std::vector<Lit>{A, B, C});
  }

  /// Solves under the given assumption literals.
  SatResult solve(const std::vector<Lit> &Assumptions = {});

  /// Installs the resource budget applied to every subsequent solve()
  /// (counters are measured per call, not cumulatively).  A solve cut short
  /// by the budget returns SatResult::Unknown with the solver left in a
  /// consistent root-level state — clauses learned before the interruption
  /// are kept and later calls may resume with a larger budget.
  void setBudget(const SatBudget &B) { Budget = B; }
  const SatBudget &budget() const { return Budget; }

  /// Model access after a Sat answer.
  bool modelValue(Var V) const { return Model[size_t(V)] == LBool::True; }

  /// Statistics.
  uint64_t numConflicts() const { return Conflicts; }

private:
  struct Clause {
    std::vector<Lit> Lits;
    double Activity = 0;
    bool Learnt = false;
    bool Deleted = false;
  };
  using ClauseRef = int32_t;
  static constexpr ClauseRef NoReason = -1;

  struct Watcher {
    ClauseRef CRef;
    Lit Blocker;
  };

  LBool value(Lit L) const {
    LBool V = Assigns[size_t(L.var())];
    if (V == LBool::Undef)
      return LBool::Undef;
    bool B = (V == LBool::True) != L.negated();
    return B ? LBool::True : LBool::False;
  }

  void attachClause(ClauseRef CR);
  void uncheckedEnqueue(Lit L, ClauseRef Reason);
  ClauseRef propagate();
  void analyze(ClauseRef Confl, std::vector<Lit> &OutLearnt, int &OutLevel);
  void cancelUntil(int Level);
  Lit pickBranchLit();
  void varBumpActivity(Var V);
  void varDecayActivity();
  void claBumpActivity(Clause &C);
  void reduceDB();
  int decisionLevel() const { return int(TrailLim.size()); }
  static uint64_t luby(uint64_t I);

  std::vector<Clause> Clauses;
  std::vector<std::vector<Watcher>> Watches; // indexed by literal index
  std::vector<LBool> Assigns;
  std::vector<LBool> Model;
  std::vector<bool> Phase; // saved phases
  std::vector<int> Level;
  std::vector<ClauseRef> Reason;
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;
  size_t QHead = 0;

  // VSIDS.
  std::vector<double> Activity;
  double VarInc = 1.0;
  double VarDecay = 0.95;
  double ClaInc = 1.0;
  std::vector<int32_t> HeapPos; // position in OrderHeap or -1
  std::vector<Var> OrderHeap;
  void heapInsert(Var V);
  void heapPercolateUp(int Pos);
  void heapPercolateDown(int Pos);
  Var heapRemoveMax();

  std::vector<uint8_t> Seen; // scratch for analyze()
  bool Unsat = false;
  SatBudget Budget;

  uint64_t Conflicts = 0, Propagations = 0;
  size_t NumOrigClauses = 0;
};

} // namespace islaris::smt::sat

#endif // ISLARIS_SMT_SAT_H
