//===- smt/Sat.cpp - CDCL SAT solver ----------------------------------------===//

#include "smt/Sat.h"

#include <algorithm>
#include <cassert>

using namespace islaris::smt::sat;

Solver::Solver() = default;

Var Solver::newVar() {
  Var V = Var(Assigns.size());
  Assigns.push_back(LBool::Undef);
  Phase.push_back(false);
  Level.push_back(0);
  Reason.push_back(NoReason);
  Activity.push_back(0.0);
  HeapPos.push_back(-1);
  Seen.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  heapInsert(V);
  return V;
}

//===----------------------------------------------------------------------===//
// Activity order heap (max-heap on Activity).
//===----------------------------------------------------------------------===//

void Solver::heapInsert(Var V) {
  if (HeapPos[size_t(V)] != -1)
    return;
  HeapPos[size_t(V)] = int32_t(OrderHeap.size());
  OrderHeap.push_back(V);
  heapPercolateUp(int(OrderHeap.size()) - 1);
}

void Solver::heapPercolateUp(int Pos) {
  Var V = OrderHeap[size_t(Pos)];
  while (Pos > 0) {
    int Parent = (Pos - 1) / 2;
    if (Activity[size_t(OrderHeap[size_t(Parent)])] >= Activity[size_t(V)])
      break;
    OrderHeap[size_t(Pos)] = OrderHeap[size_t(Parent)];
    HeapPos[size_t(OrderHeap[size_t(Pos)])] = Pos;
    Pos = Parent;
  }
  OrderHeap[size_t(Pos)] = V;
  HeapPos[size_t(V)] = Pos;
}

void Solver::heapPercolateDown(int Pos) {
  Var V = OrderHeap[size_t(Pos)];
  int N = int(OrderHeap.size());
  while (true) {
    int Child = 2 * Pos + 1;
    if (Child >= N)
      break;
    if (Child + 1 < N && Activity[size_t(OrderHeap[size_t(Child + 1)])] >
                             Activity[size_t(OrderHeap[size_t(Child)])])
      ++Child;
    if (Activity[size_t(OrderHeap[size_t(Child)])] <= Activity[size_t(V)])
      break;
    OrderHeap[size_t(Pos)] = OrderHeap[size_t(Child)];
    HeapPos[size_t(OrderHeap[size_t(Pos)])] = Pos;
    Pos = Child;
  }
  OrderHeap[size_t(Pos)] = V;
  HeapPos[size_t(V)] = Pos;
}

Var Solver::heapRemoveMax() {
  Var V = OrderHeap[0];
  HeapPos[size_t(V)] = -1;
  OrderHeap[0] = OrderHeap.back();
  OrderHeap.pop_back();
  if (!OrderHeap.empty()) {
    HeapPos[size_t(OrderHeap[0])] = 0;
    heapPercolateDown(0);
  }
  return V;
}

void Solver::varBumpActivity(Var V) {
  Activity[size_t(V)] += VarInc;
  if (Activity[size_t(V)] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    VarInc *= 1e-100;
  }
  if (HeapPos[size_t(V)] != -1)
    heapPercolateUp(HeapPos[size_t(V)]);
}

void Solver::varDecayActivity() { VarInc /= VarDecay; }

void Solver::claBumpActivity(Clause &C) {
  C.Activity += ClaInc;
  if (C.Activity > 1e20) {
    for (Clause &Cl : Clauses)
      Cl.Activity *= 1e-20;
    ClaInc *= 1e-20;
  }
}

//===----------------------------------------------------------------------===//
// Clause management.
//===----------------------------------------------------------------------===//

void Solver::attachClause(ClauseRef CR) {
  Clause &C = Clauses[size_t(CR)];
  assert(C.Lits.size() >= 2 && "cannot watch a unit clause");
  Watches[size_t((~C.Lits[0]).index())].push_back({CR, C.Lits[1]});
  Watches[size_t((~C.Lits[1]).index())].push_back({CR, C.Lits[0]});
}

bool Solver::addClause(std::vector<Lit> Clause) {
  assert(decisionLevel() == 0 && "clauses must be added at the root level");
  if (Unsat)
    return false;
  // Level-0 simplification: drop satisfied/tautological clauses, strip
  // falsified and duplicate literals.
  std::sort(Clause.begin(), Clause.end(),
            [](Lit A, Lit B) { return A.index() < B.index(); });
  std::vector<Lit> Out;
  Lit Prev;
  for (Lit L : Clause) {
    if (value(L) == LBool::True || (!Out.empty() && L == ~Prev))
      return true; // satisfied or tautology
    if (value(L) == LBool::False || (!Out.empty() && L == Prev))
      continue;
    Out.push_back(L);
    Prev = L;
  }
  if (Out.empty()) {
    Unsat = true;
    return false;
  }
  if (Out.size() == 1) {
    uncheckedEnqueue(Out[0], NoReason);
    if (propagate() != NoReason) {
      Unsat = true;
      return false;
    }
    return true;
  }
  ClauseRef CR = ClauseRef(Clauses.size());
  Clauses.push_back({std::move(Out), 0.0, false, false});
  ++NumOrigClauses;
  attachClause(CR);
  return true;
}

//===----------------------------------------------------------------------===//
// Propagation.
//===----------------------------------------------------------------------===//

void Solver::uncheckedEnqueue(Lit L, ClauseRef ReasonRef) {
  assert(value(L) == LBool::Undef && "enqueueing an assigned literal");
  Assigns[size_t(L.var())] = L.negated() ? LBool::False : LBool::True;
  Level[size_t(L.var())] = decisionLevel();
  Reason[size_t(L.var())] = ReasonRef;
  Phase[size_t(L.var())] = !L.negated();
  Trail.push_back(L);
}

Solver::ClauseRef Solver::propagate() {
  while (QHead < Trail.size()) {
    Lit P = Trail[QHead++];
    ++Propagations;
    std::vector<Watcher> &WS = Watches[size_t(P.index())];
    size_t I = 0, J = 0;
    while (I < WS.size()) {
      Watcher W = WS[I++];
      if (value(W.Blocker) == LBool::True) {
        WS[J++] = W;
        continue;
      }
      Clause &C = Clauses[size_t(W.CRef)];
      if (C.Deleted)
        continue; // lazily drop watchers of deleted clauses
      // Normalize so that the false literal is Lits[1].
      Lit NotP = ~P;
      if (C.Lits[0] == NotP)
        std::swap(C.Lits[0], C.Lits[1]);
      assert(C.Lits[1] == NotP && "watch invariant violated");
      // 0th watch true: keep watching.
      if (value(C.Lits[0]) == LBool::True) {
        WS[J++] = {W.CRef, C.Lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool FoundWatch = false;
      for (size_t K = 2; K < C.Lits.size(); ++K) {
        if (value(C.Lits[K]) != LBool::False) {
          std::swap(C.Lits[1], C.Lits[K]);
          Watches[size_t((~C.Lits[1]).index())].push_back(
              {W.CRef, C.Lits[0]});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Clause is unit or conflicting.
      WS[J++] = {W.CRef, C.Lits[0]};
      if (value(C.Lits[0]) == LBool::False) {
        // Conflict: copy remaining watchers and bail out.
        while (I < WS.size())
          WS[J++] = WS[I++];
        WS.resize(J);
        QHead = Trail.size();
        return W.CRef;
      }
      uncheckedEnqueue(C.Lits[0], W.CRef);
    }
    WS.resize(J);
  }
  return NoReason;
}

//===----------------------------------------------------------------------===//
// Conflict analysis (first UIP).
//===----------------------------------------------------------------------===//

void Solver::analyze(ClauseRef Confl, std::vector<Lit> &OutLearnt,
                     int &OutLevel) {
  OutLearnt.clear();
  OutLearnt.push_back(Lit()); // slot for the asserting literal
  int PathC = 0;
  Lit P;
  bool FirstIter = true;
  size_t Index = Trail.size();

  do {
    assert(Confl != NoReason && "no reason during analysis");
    Clause &C = Clauses[size_t(Confl)];
    if (C.Learnt)
      claBumpActivity(C);
    for (size_t K = FirstIter ? 0 : 1; K < C.Lits.size(); ++K) {
      Lit Q = C.Lits[K];
      Var V = Q.var();
      if (Seen[size_t(V)] || Level[size_t(V)] == 0)
        continue;
      Seen[size_t(V)] = 1;
      varBumpActivity(V);
      if (Level[size_t(V)] >= decisionLevel())
        ++PathC;
      else
        OutLearnt.push_back(Q);
    }
    // Select the next literal on the trail to expand.
    while (!Seen[size_t(Trail[Index - 1].var())])
      --Index;
    --Index;
    P = Trail[Index];
    Confl = Reason[size_t(P.var())];
    Seen[size_t(P.var())] = 0;
    --PathC;
    FirstIter = false;
  } while (PathC > 0);
  OutLearnt[0] = ~P;

  // Conflict-clause minimization: drop literals whose negation is implied
  // by the rest of the clause (their entire reason chain is already Seen
  // or at level 0).  Essential for the long clauses arising from blasted
  // bitvector circuits.
  std::vector<Var> ToClear;
  for (Lit L : OutLearnt)
    ToClear.push_back(L.var());
  auto litRedundant = [&](Lit L) {
    if (Reason[size_t(L.var())] == NoReason)
      return false;
    std::vector<Lit> Stack = {L};
    size_t MarkedFrom = ToClear.size();
    while (!Stack.empty()) {
      Lit Q = Stack.back();
      Stack.pop_back();
      assert(Reason[size_t(Q.var())] != NoReason && "decision on stack");
      const Clause &C = Clauses[size_t(Reason[size_t(Q.var())])];
      for (size_t K = 1; K < C.Lits.size(); ++K) {
        Lit R = C.Lits[K];
        Var V = R.var();
        if (Seen[size_t(V)] || Level[size_t(V)] == 0)
          continue;
        if (Reason[size_t(V)] == NoReason) {
          // Hit a decision: not redundant; undo the speculative marks.
          for (size_t I2 = MarkedFrom; I2 < ToClear.size(); ++I2)
            Seen[size_t(ToClear[I2])] = 0;
          ToClear.resize(MarkedFrom);
          return false;
        }
        Seen[size_t(V)] = 1;
        ToClear.push_back(V);
        Stack.push_back(R);
      }
    }
    return true;
  };
  size_t Kept = 1;
  for (size_t K = 1; K < OutLearnt.size(); ++K)
    if (!litRedundant(OutLearnt[K]))
      OutLearnt[Kept++] = OutLearnt[K];
  OutLearnt.resize(Kept);

  // Compute the backtrack level (second-highest level in the clause).
  OutLevel = 0;
  size_t MaxIdx = 1;
  for (size_t K = 1; K < OutLearnt.size(); ++K) {
    int L = Level[size_t(OutLearnt[K].var())];
    if (L > OutLevel) {
      OutLevel = L;
      MaxIdx = K;
    }
  }
  if (OutLearnt.size() > 1)
    std::swap(OutLearnt[1], OutLearnt[MaxIdx]);

  for (Var V : ToClear)
    Seen[size_t(V)] = 0;
}

void Solver::cancelUntil(int LevelTo) {
  if (decisionLevel() <= LevelTo)
    return;
  for (size_t I = Trail.size(); I-- > size_t(TrailLim[size_t(LevelTo)]);) {
    Var V = Trail[I].var();
    Assigns[size_t(V)] = LBool::Undef;
    Reason[size_t(V)] = NoReason;
    heapInsert(V);
  }
  Trail.resize(size_t(TrailLim[size_t(LevelTo)]));
  TrailLim.resize(size_t(LevelTo));
  QHead = Trail.size();
}

Lit Solver::pickBranchLit() {
  while (!OrderHeap.empty()) {
    Var V = OrderHeap[0];
    if (Assigns[size_t(V)] == LBool::Undef) {
      heapRemoveMax();
      return Lit(V, !Phase[size_t(V)]);
    }
    heapRemoveMax();
  }
  return Lit();
}

void Solver::reduceDB() {
  // Delete the least active half of the learnt clauses (never reasons,
  // never binary clauses).  Watchers are dropped lazily in propagate().
  std::vector<ClauseRef> Learnts;
  for (size_t I = NumOrigClauses; I < Clauses.size(); ++I)
    if (Clauses[I].Learnt && !Clauses[I].Deleted && Clauses[I].Lits.size() > 2)
      Learnts.push_back(ClauseRef(I));
  std::sort(Learnts.begin(), Learnts.end(), [&](ClauseRef A, ClauseRef B) {
    return Clauses[size_t(A)].Activity < Clauses[size_t(B)].Activity;
  });
  std::vector<bool> IsReason(Clauses.size(), false);
  for (Lit L : Trail)
    if (Reason[size_t(L.var())] != NoReason)
      IsReason[size_t(Reason[size_t(L.var())])] = true;
  for (size_t I = 0; I < Learnts.size() / 2; ++I)
    if (!IsReason[size_t(Learnts[I])])
      Clauses[size_t(Learnts[I])].Deleted = true;
}

uint64_t Solver::luby(uint64_t I) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  uint64_t K = 1;
  while ((uint64_t(1) << (K + 1)) - 1 <= I + 1)
    ++K;
  while ((uint64_t(1) << K) - 1 != I + 1) {
    I = I - ((uint64_t(1) << K) - 1) + 1 - 1;
    K = 1;
    while ((uint64_t(1) << (K + 1)) - 1 <= I + 1)
      ++K;
  }
  return uint64_t(1) << (K - 1);
}

//===----------------------------------------------------------------------===//
// Main search loop.
//===----------------------------------------------------------------------===//

SatResult Solver::solve(const std::vector<Lit> &Assumptions) {
  if (Unsat)
    return SatResult::Unsat;
  cancelUntil(0);
  if (propagate() != NoReason) {
    Unsat = true;
    return SatResult::Unsat;
  }

  uint64_t RestartNum = 0;
  uint64_t ConflictBudget = 64 * luby(RestartNum);
  uint64_t ConflictsThisRestart = 0;
  uint64_t MaxLearnts = 1000 + NumOrigClauses / 3;

  // Budget accounting is per solve call; a fired budget abandons the search
  // at the root level (learned clauses are kept — they are implied).
  const bool Budgeted = !Budget.unlimited();
  const uint64_t ConflictsAtStart = Conflicts;
  const uint64_t PropagationsAtStart = Propagations;
  uint64_t NextInterruptCheck = 0;
  auto interrupted = [&]() -> bool {
    if (!Budgeted)
      return false;
    if (Budget.MaxConflicts &&
        Conflicts - ConflictsAtStart >= Budget.MaxConflicts)
      return true;
    if (Budget.MaxPropagations &&
        Propagations - PropagationsAtStart >= Budget.MaxPropagations)
      return true;
    // Deadline/cancellation polls are rate-limited by conflict count: the
    // clock costs more than the arithmetic above.
    if (Conflicts >= NextInterruptCheck) {
      NextInterruptCheck = Conflicts + 256;
      if (Budget.Cancel && Budget.Cancel->load(std::memory_order_relaxed))
        return true;
      if (Budget.Deadline != std::chrono::steady_clock::time_point::max() &&
          std::chrono::steady_clock::now() >= Budget.Deadline)
        return true;
    }
    return false;
  };
  if (Budgeted) {
    NextInterruptCheck = Conflicts; // force an immediate clock/cancel poll
    if (interrupted()) {
      cancelUntil(0);
      return SatResult::Unknown;
    }
  }

  std::vector<Lit> Learnt;
  while (true) {
    if (interrupted()) {
      cancelUntil(0);
      return SatResult::Unknown;
    }
    ClauseRef Confl = propagate();
    if (Confl != NoReason) {
      ++Conflicts;
      ++ConflictsThisRestart;
      if (decisionLevel() == 0)
        return SatResult::Unsat;
      int BtLevel;
      analyze(Confl, Learnt, BtLevel);
      cancelUntil(BtLevel);
      if (Learnt.size() == 1) {
        uncheckedEnqueue(Learnt[0], NoReason);
      } else {
        ClauseRef CR = ClauseRef(Clauses.size());
        Clauses.push_back({Learnt, ClaInc, true, false});
        attachClause(CR);
        uncheckedEnqueue(Learnt[0], CR);
      }
      varDecayActivity();
      ClaInc *= (1 / 0.999);
      continue;
    }

    if (ConflictsThisRestart >= ConflictBudget) {
      ++RestartNum;
      ConflictBudget = 64 * luby(RestartNum);
      ConflictsThisRestart = 0;
      cancelUntil(0);
      continue;
    }
    if (Clauses.size() - NumOrigClauses > MaxLearnts) {
      reduceDB();
      MaxLearnts = MaxLearnts * 11 / 10;
    }

    // Place assumptions as pseudo-decisions, then branch.
    Lit Next;
    bool HaveNext = false;
    while (decisionLevel() < int(Assumptions.size())) {
      Lit A = Assumptions[size_t(decisionLevel())];
      if (value(A) == LBool::True) {
        TrailLim.push_back(int(Trail.size())); // dummy level
      } else if (value(A) == LBool::False) {
        // Restore the root level before returning: earlier assumptions may
        // already sit on the trail as pseudo-decisions, and the caller is
        // entitled to addClause() (which requires level 0) after any solve.
        cancelUntil(0);
        return SatResult::Unsat;
      } else {
        Next = A;
        HaveNext = true;
        break;
      }
    }
    if (!HaveNext) {
      Next = pickBranchLit();
      if (Next == Lit()) {
        // All variables assigned: a model.
        Model = Assigns;
        cancelUntil(0);
        return SatResult::Sat;
      }
    }
    TrailLim.push_back(int(Trail.size()));
    uncheckedEnqueue(Next, NoReason);
  }
}
