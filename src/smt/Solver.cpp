//===- smt/Solver.cpp - QF_BV satisfiability facade --------------------------===//

#include "smt/Solver.h"
#include "smt/Decide.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_set>

using namespace islaris;
using namespace islaris::smt;

SolverCache::~SolverCache() = default;

Solver::Solver(TermBuilder &TB) : TB(TB), RW(TB) {}

Solver::~Solver() = default;

void Solver::push() { ScopeMarks.push_back(Asserted.size()); }

void Solver::pop() {
  assert(!ScopeMarks.empty() && "pop without matching push");
  Asserted.resize(ScopeMarks.back());
  ScopeMarks.pop_back();
  // The last model described the popped scope; a modelValue() now would be
  // answered from a retracted assertion set.
  invalidateModel();
}

void Solver::assertTerm(const Term *T) {
  assert(T->isBool() && "assertions must be boolean");
  Asserted.push_back(T);
  invalidateModel();
}

static Value defaultValue(const Term *V) {
  return V->isBool() ? Value(false) : Value(BitVec::zeros(V->width()));
}

/// The free variables of \p Goals, each once.  One traversal with one
/// visited set: residual goals share the path condition's subterms.
static std::vector<const Term *>
goalVars(const std::vector<const Term *> &Goals) {
  std::vector<const Term *> Vars;
  std::unordered_set<const Term *> Seen;
  std::vector<const Term *> Stack(Goals.begin(), Goals.end());
  while (!Stack.empty()) {
    const Term *T = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(T).second)
      continue;
    if (T->isVar())
      Vars.push_back(T);
    for (const Term *Op : T->operands())
      Stack.push_back(Op);
  }
  return Vars;
}

/// printGoalClosure over the goals' free variables \p Vars.
static std::string printClosure(const std::vector<const Term *> &Goals,
                                const std::vector<const Term *> &Vars) {
  // Free-variable declarations, sorted by name.  Two distinct variables
  // printing the same name would make the closure ambiguous (the printed
  // formula conflates them); refuse to produce a key in that case.
  std::map<std::string, const Term *> Decls;
  for (const Term *V : Vars)
    if (!Decls.emplace(V->varName(), V).second)
      return std::string();
  std::vector<std::string> Printed;
  Printed.reserve(Goals.size());
  for (const Term *G : Goals)
    Printed.push_back(G->toString());
  std::sort(Printed.begin(), Printed.end());
  Printed.erase(std::unique(Printed.begin(), Printed.end()), Printed.end());

  std::string Out = "(goal-closure 1";
  for (const auto &[Name, V] : Decls) {
    Out += " (|" + Name + "| ";
    Out += std::to_string(V->isBool() ? 0u : V->width());
    Out += ")";
  }
  for (const std::string &P : Printed)
    Out += " (assert " + P + ")";
  Out += ")";
  return Out;
}

std::string
Solver::printGoalClosure(const std::vector<const Term *> &Goals) {
  return printClosure(Goals, goalVars(Goals));
}

bool Solver::reuseModel(const std::vector<const Term *> &Goals,
                        const std::vector<const Term *> &Vars) {
  // Newest goals first: a candidate that fails usually fails on the literal
  // just added to a path condition it already satisfies.
  std::vector<const Term *> Newest(Goals.rbegin(), Goals.rend());
  static const Env Zeros;
  const Env *Candidates[] = {&LastModel, &Zeros};
  for (const Env *From : Candidates) {
    Env Cand;
    Cand.reserve(Vars.size());
    bool Differs = false; // from the all-zeros candidate
    for (const Term *V : Vars) {
      auto It = From->find(V->varId());
      Value Def = defaultValue(V);
      if (It != From->end() && It->second != Def) {
        Cand.emplace(V->varId(), It->second);
        Differs = true;
      } else {
        Cand.emplace(V->varId(), std::move(Def));
      }
    }
    if (From == &LastModel && !Differs)
      continue; // identical to the next candidate
    if (satisfiesAll(Newest, Cand)) {
      Model = std::move(Cand);
      HasModel = true;
      return true;
    }
  }
  return false;
}

Result Solver::solveGoals(const std::vector<const Term *> &Goals,
                          const std::vector<const Term *> &Vars) {
  ++Stats.NumSatCalls;
  if (!Core) {
    Core = std::make_unique<sat::Solver>();
    Blaster = std::make_unique<BitBlaster>(*Core);
  }
  // Translate the run's limits into a per-call SAT budget (the one place
  // RunLimits meets the SAT core).  This is (re)installed on every call so
  // a deadline is measured from the start of this check, not from when the
  // limits were configured.
  sat::SatBudget B;
  B.MaxConflicts = Limits.SolverConflicts;
  B.MaxPropagations = Limits.SolverPropagations;
  if (Limits.SolverCheckSeconds > 0)
    B.Deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(Limits.SolverCheckSeconds));
  B.Cancel = Cancel.raw();
  Core->setBudget(B);
  uint64_t ConflictsBefore = Core->numConflicts();
  std::vector<sat::Lit> Assumps;
  Assumps.reserve(Goals.size());
  for (const Term *G : Goals)
    Assumps.push_back(Blaster->blastBool(G));
  sat::SatResult SR = Core->solve(Assumps);
  Stats.NumConflicts += Core->numConflicts() - ConflictsBefore;
  Stats.TermsBlasted = Blaster->stats().TermsBlasted;
  Stats.TermsReused = Blaster->stats().TermsReused;
  if (SR == sat::SatResult::Unknown) {
    ++Stats.NumUnknown;
    invalidateModel();
    return Result::Unknown;
  }
  if (SR != sat::SatResult::Sat) {
    invalidateModel();
    return Result::Unsat;
  }
  // Extract the goal variables' values now: the SAT model is a snapshot
  // that later checks overwrite, but this Env stays valid until the next
  // assertTerm()/pop().
  Model.clear();
  for (const Term *V : Vars)
    Model.emplace(V->varId(), Blaster->modelValue(V));
  if (!Vars.empty() &&
      support::FaultInjector::fire(support::FaultSite::SolverModel)) {
    // Injected corruption of the core's model: flip the lowest bit of the
    // first goal variable's value, standing in for a blaster or CDCL bug.
    Value &V = Model[Vars.front()->varId()];
    if (V.isBool())
      V = Value(!V.asBool());
    else
      V = Value(V.asBitVec().bvxor(BitVec(V.asBitVec().width(), 1)));
  }
  // Certify the model against the goals before it is used or cached.  A
  // model that fails is a solver bug, not a statement about the formula:
  // answer Unknown, which is never cached, so callers fail soundly.
  if (!satisfiesAll(Goals, Model)) {
    ++Stats.NumRejectedModels;
    ++Stats.NumUnknown;
    invalidateModel();
    return Result::Unknown;
  }
  HasModel = true;
  return Result::Sat;
}

bool Solver::installCached(const std::vector<const Term *> &Vars,
                           const SolverCache::CachedResult &C, Result &R) {
  if (!C.Sat) {
    invalidateModel();
    R = Result::Unsat;
    return true;
  }
  // Bind the stored (name, width, value) triples back to this builder's
  // variables.  Any mismatch means the entry does not describe this goal
  // set (e.g. a different-width variable of the same name): reject it and
  // fall back to solving.
  std::unordered_map<std::string, const Term *> ByName;
  for (const Term *V : Vars)
    ByName.emplace(V->varName(), V);
  Env M;
  for (const auto &[Name, Width, Bits] : C.Model) {
    auto It = ByName.find(Name);
    if (It == ByName.end())
      return false;
    const Term *V = It->second;
    if (V->isBool()) {
      if (Width != 0 || Bits.width() != 1)
        return false;
      M.emplace(V->varId(), Value(Bits.toUInt64() != 0));
    } else {
      if (Width != V->width() || Bits.width() != V->width())
        return false;
      M.emplace(V->varId(), Value(Bits));
    }
  }
  if (M.size() != ByName.size())
    return false; // some goal variable is unassigned
  Model = std::move(M);
  HasModel = true;
  R = Result::Sat;
  return true;
}

SolverCache::CachedResult
Solver::exportResult(const std::vector<const Term *> &Vars,
                     Result R) const {
  SolverCache::CachedResult C;
  C.Sat = R == Result::Sat;
  if (!C.Sat)
    return C;
  std::map<std::string, const Term *> ByName;
  for (const Term *V : Vars)
    ByName.emplace(V->varName(), V);
  for (const auto &[Name, V] : ByName) {
    auto It = Model.find(V->varId());
    Value Val = It != Model.end() ? It->second : defaultValue(V);
    if (V->isBool())
      C.Model.emplace_back(Name, 0u, BitVec(1, Val.asBool() ? 1 : 0));
    else
      C.Model.emplace_back(Name, V->width(), Val.asBitVec());
  }
  return C;
}

Result Solver::check(const std::vector<const Term *> &Assumptions) {
  auto Start = std::chrono::steady_clock::now();
  ++Stats.NumChecks;

  // A cancellation requested before we even start: answer Unknown at once
  // (the syntactic fast paths below would be sound, but a cancelled job
  // should stop doing work, not keep simplifying terms).
  if (Cancel.cancelled()) {
    ++Stats.NumUnknown;
    invalidateModel();
    return Result::Unknown;
  }

  // Simplify everything first; collect the residual (non-constant) goals.
  std::vector<const Term *> Goals;
  bool TriviallyUnsat = false;
  auto consider = [&](const Term *T) {
    const Term *S = RW.simplify(T);
    if (S->kind() == Kind::ConstBool) {
      if (!S->constBool())
        TriviallyUnsat = true;
      return;
    }
    Goals.push_back(S);
  };
  for (const Term *T : Asserted)
    consider(T);
  for (const Term *T : Assumptions)
    consider(T);

  Result R;
  if (TriviallyUnsat) {
    ++Stats.NumSyntactic;
    invalidateModel();
    R = Result::Unsat;
  } else if (Goals.empty()) {
    // All assertions simplified to true: the empty model satisfies them.
    // No SAT instance or blaster is built for this.
    ++Stats.NumSyntactic;
    Model.clear();
    HasModel = true;
    R = Result::Sat;
  } else if (support::FaultInjector::fire(support::FaultSite::SolverUnknown)) {
    // Injected spurious give-up on the non-syntactic path, standing in for
    // an external solver timing out.  Deliberately before the memo/store
    // lookups so a repeated query can fail on one attempt and succeed on a
    // retry — and, like a real Unknown, it is never cached.
    ++Stats.NumUnknown;
    invalidateModel();
    R = Result::Unknown;
  } else {
    // Canonical goal-set key: sorted, deduplicated hash-consed ids.
    std::vector<unsigned> Key;
    Key.reserve(Goals.size());
    for (const Term *G : Goals)
      Key.push_back(G->id());
    std::sort(Key.begin(), Key.end());
    Key.erase(std::unique(Key.begin(), Key.end()), Key.end());

    auto Hit = Memo.find(Key);
    if (Hit != Memo.end()) {
      ++Stats.NumMemoHits;
      R = Hit->second.R;
      Model = Hit->second.Model;
      HasModel = R == Result::Sat;
    } else {
      std::vector<const Term *> Vars = goalVars(Goals);
      std::string Closure =
          Persist ? printClosure(Goals, Vars) : std::string();
      bool Answered = false;
      if (!Closure.empty())
        if (auto Cached = Persist->lookup(Closure))
          if (installCached(Vars, *Cached, R)) {
            ++Stats.NumStoreHits;
            Answered = true;
          }
      if (!Answered) {
        if (reuseModel(Goals, Vars)) {
          ++Stats.NumReused;
          R = Result::Sat;
        } else if (decideUnsat(Goals)) {
          ++Stats.NumDecided;
          invalidateModel();
          R = Result::Unsat;
        } else {
          R = solveGoals(Goals, Vars);
        }
        if (R == Result::Sat)
          LastModel = Model;
        // An Unknown is a statement about this run (its budget, or a core
        // model that failed its check), not about the formula: memoizing or
        // persisting it would convert a transient condition into a cached
        // wrong-ish answer.
        if (R != Result::Unknown && !Closure.empty())
          Persist->store(Closure, exportResult(Vars, R));
      }
      if (R != Result::Unknown)
        Memo.emplace(std::move(Key), MemoEntry{R, Model});
    }
  }

  Stats.TotalSeconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return R;
}

bool Solver::isValid(const Term *T) {
  auto Start = std::chrono::steady_clock::now();
  const Term *S = RW.simplify(T);
  if (S->kind() == Kind::ConstBool && S->constBool()) {
    ++Stats.NumChecks;
    ++Stats.NumSyntactic;
    // The fast path is still a check: account its (tiny) time so the
    // automation/side-condition split stays consistent.
    Stats.TotalSeconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - Start)
                              .count();
    return true;
  }
  return check({TB.notTerm(S)}) == Result::Unsat;
}

Value Solver::modelValue(const Term *Var) {
  const Term *S = RW.simplify(Var);
  if (S->kind() == Kind::ConstBool)
    return Value(S->constBool());
  if (S->kind() == Kind::ConstBV)
    return Value(S->constBV());
  assert(HasModel && "modelValue without a Sat answer newer than the last "
                     "assertTerm()/pop()");
  if (!HasModel)
    return defaultValue(S);
  if (S->kind() == Kind::Var) {
    auto It = Model.find(S->varId());
    return It != Model.end() ? It->second : defaultValue(S);
  }
  // Compound term: evaluate under the model, defaulting variables the
  // model does not constrain.
  Env E = Model;
  for (const Term *V : collectVars(S))
    E.emplace(V->varId(), defaultValue(V));
  auto Val = evaluate(S, E);
  return Val ? *Val : defaultValue(S);
}
