//===- smt/Solver.cpp - QF_BV satisfiability facade --------------------------===//

#include "smt/Solver.h"
#include "smt/Decide.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <chrono>

using namespace islaris;
using namespace islaris::smt;

SolverCache::~SolverCache() = default;
SolverCache::Bundle::~Bundle() = default;

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

std::vector<const Term *>
Solver::goalVars(const std::vector<const Term *> &Goals) {
  // One traversal marking term ids with a per-call epoch: residual goals
  // share the path condition's subterms.
  if (VisitMark.size() < TB.numTerms())
    VisitMark.resize(TB.numTerms(), 0);
  if (++VisitEpoch == 0) { // wrapped: forget every old mark
    std::fill(VisitMark.begin(), VisitMark.end(), 0);
    VisitEpoch = 1;
  }
  std::vector<const Term *> Vars;
  std::vector<const Term *> Stack(Goals.begin(), Goals.end());
  while (!Stack.empty()) {
    const Term *T = Stack.back();
    Stack.pop_back();
    if (VisitMark[T->id()] == VisitEpoch)
      continue;
    VisitMark[T->id()] = VisitEpoch;
    if (T->isVar())
      Vars.push_back(T);
    for (const Term *Op : T->operands())
      Stack.push_back(Op);
  }
  return Vars;
}

support::Fingerprint Solver::termDigest(const Term *Root) {
  if (HasDigest.size() <= Root->id()) {
    HasDigest.resize(TB.numTerms());
    TermDigests.resize(TB.numTerms());
  }
  // Post-order over the not-yet-digested part of the DAG: a node is
  // digested once all its operands are.
  std::vector<const Term *> Stack = {Root};
  while (!Stack.empty()) {
    const Term *T = Stack.back();
    if (HasDigest[T->id()]) {
      Stack.pop_back();
      continue;
    }
    bool Ready = true;
    for (const Term *Op : T->operands())
      if (!HasDigest[Op->id()]) {
        Stack.push_back(Op);
        Ready = false;
      }
    if (!Ready)
      continue;
    Stack.pop_back();
    support::WordHasher H;
    H.word(uint64_t(T->kind())).word(T->isBool() ? 0 : T->width());
    switch (T->kind()) {
    case Kind::ConstBV: {
      const BitVec &V = T->constBV();
      for (unsigned I = 0; I < V.numWords(); ++I)
        H.word(I == 0 ? V.low64() : V.lshr(64 * I).low64());
      break;
    }
    case Kind::Var:
      // By name and width (hashed above), never by id: the digest must
      // agree across builders.
      H.str(T->varName());
      break;
    default:
      // A constant's value, an extract's bounds, an extension's amount.
      H.word(T->attrA()).word(T->attrB());
      break;
    }
    H.word(T->numOperands());
    for (const Term *Op : T->operands())
      H.fingerprint(TermDigests[Op->id()]);
    TermDigests[T->id()] = H.digest();
    HasDigest[T->id()] = true;
  }
  return TermDigests[Root->id()];
}

std::optional<support::Fingerprint>
Solver::goalSetKey(const std::vector<const Term *> &Goals,
                   std::vector<const Term *> &Vars) {
  // Declarations sorted by name.  Two distinct variables of one name would
  // make the key ambiguous across builders; refuse to produce one.
  std::sort(Vars.begin(), Vars.end(), [](const Term *A, const Term *B) {
    return A->varName() < B->varName();
  });
  for (size_t I = 1; I < Vars.size(); ++I)
    if (Vars[I - 1]->varName() == Vars[I]->varName())
      return std::nullopt;
  std::vector<support::Fingerprint> Digests;
  Digests.reserve(Goals.size());
  for (const Term *G : Goals)
    Digests.push_back(termDigest(G));
  std::sort(Digests.begin(), Digests.end());
  Digests.erase(std::unique(Digests.begin(), Digests.end()), Digests.end());

  support::WordHasher H;
  H.str("islaris-goal-set").word(2);
  H.word(Vars.size());
  for (const Term *V : Vars)
    H.str(V->varName()).word(V->isBool() ? 0 : V->width());
  H.word(Digests.size());
  for (const support::Fingerprint &D : Digests)
    H.fingerprint(D);
  return H.digest();
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
    if (Eval.satisfiesAll(Newest, Cand)) {
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
  if (!Eval.satisfiesAll(Goals, Model)) {
    ++Stats.NumRejectedModels;
    ++Stats.NumUnknown;
    invalidateModel();
    return Result::Unknown;
  }
  HasModel = true;
  return Result::Sat;
}

bool Solver::installCached(const std::vector<const Term *> &Goals,
                           const std::vector<const Term *> &Vars,
                           const SolverCache::CachedResult &C) {
  if (!C.Sat) {
    invalidateModel();
    return true;
  }
  // Bind the stored (name, width, value) triples back to this builder's
  // variables; both lists are sorted by name.  Any mismatch means the
  // answer does not describe this goal set (e.g. a different-width
  // variable of the same name): refuse it and fall back to solving.
  if (C.Model.size() != Vars.size())
    return false; // some goal variable is unassigned, or a stray one is
  Env M;
  M.reserve(Vars.size());
  for (size_t I = 0; I < Vars.size(); ++I) {
    const auto &[Name, Width, Bits] = C.Model[I];
    const Term *V = Vars[I];
    if (Name != V->varName())
      return false;
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
  // The store is outside the trusted base like the core: a Sat answer is
  // installed only if the goals evaluate to true under its model.
  if (!Eval.satisfiesAll(Goals, M))
    return false;
  Model = std::move(M);
  HasModel = true;
  return true;
}

SolverCache::CachedResult
Solver::exportResult(const std::vector<const Term *> &Vars,
                     Result R) const {
  SolverCache::CachedResult C;
  C.Sat = R == Result::Sat;
  if (!C.Sat)
    return C;
  C.Model.reserve(Vars.size());
  for (const Term *V : Vars) {
    auto It = Model.find(V->varId());
    Value Val = It != Model.end() ? It->second : defaultValue(V);
    if (V->isBool())
      C.Model.emplace_back(V->varName(), 0u, BitVec(1, Val.asBool()));
    else
      C.Model.emplace_back(V->varName(), V->width(), Val.asBitVec());
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
      std::optional<support::Fingerprint> StoreKey;
      if (Persist)
        StoreKey = goalSetKey(Goals, Vars);
      bool Answered = false;
      if (StoreKey &&
          Persist->lookup(*StoreKey, Goals,
                          [&](const SolverCache::CachedResult &C) {
                            if (!installCached(Goals, Vars, C))
                              return false;
                            R = C.Sat ? Result::Sat : Result::Unsat;
                            return true;
                          })) {
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
        if (R != Result::Unknown && StoreKey)
          Persist->store(*StoreKey, exportResult(Vars, R));
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
  return *Eval.evaluate(S, Model, Evaluator::Unassigned::Zero);
}
