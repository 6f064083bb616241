//===- seplogic/Engine.cpp - The Islaris proof engine ---------------------------===//

#include "seplogic/Engine.h"

#include "smt/Evaluator.h"

#include <chrono>

using namespace islaris;
using namespace islaris::seplogic;
using islaris::itl::Event;
using islaris::itl::EventKind;
using islaris::itl::Reg;
using islaris::itl::RegHash;
using islaris::itl::Trace;
using smt::Term;

/// The separation context a verification path carries (the "P" of a Hoare
/// double {P} t, in flattened Lithium form).
struct ProofEngine::Ctx {
  std::unordered_map<Reg, const Term *, RegHash> Regs;
  std::vector<MemChunk> Mems;
  std::vector<MemArrayChunk> Arrays;
  std::vector<MmioChunk> Mmios;
  std::vector<InstrPreChunk> InstrPres;
  std::vector<ContractChunk> Contracts;
  std::vector<const Term *> Pure;
  IoSpecPtr Io;
  /// Bindings of the current instruction's trace variables.
  std::unordered_map<uint32_t, const Term *> Subst;
};

ProofEngine::ProofEngine(smt::TermBuilder &TB,
                         std::map<uint64_t, const itl::Trace *> Instrs,
                         std::string PcReg)
    : TB(TB), Solver(TB), RW(TB), Instrs(std::move(Instrs)),
      PcReg(std::move(PcReg)) {}

void ProofEngine::registerSpec(uint64_t Addr, const Spec *S) {
  if (!S->params().empty()) {
    // Ill-formed specification: deferred to the next verify call so the
    // caller gets a clean SpecError instead of an abort (or, under NDEBUG,
    // an open spec silently treated as closed).
    if (RegError.empty())
      RegError = "registered spec " + S->name() + " at " +
                 BitVec(64, Addr).toHexString() +
                 " must be closed (has parameters)";
    return;
  }
  Registered.emplace_back(Addr, S);
}

bool ProofEngine::fail(const std::string &Msg, support::ErrorCode C) {
  if (Error.empty()) {
    Error = Msg;
    DiagV = support::Diag::error(C, "proof-engine", Msg);
  }
  return false;
}

void ProofEngine::noteSolverGaveUp(const std::string &Where) {
  GaveUp = true;
  bool Cancelled = Solver.cancelToken().cancelled();
  fail("solver gave up on " + Where +
           (Cancelled ? " (cancelled)" : " (budget exhausted)"),
       Cancelled ? support::ErrorCode::Cancelled
                 : support::ErrorCode::SolverBudgetExceeded);
}

//===----------------------------------------------------------------------===//
// Side-condition helpers.
//===----------------------------------------------------------------------===//

const Term *ProofEngine::substTerm(const Term *T, const Ctx &C) {
  if (C.Subst.empty())
    return T;
  return TB.substitute(T, C.Subst);
}

bool ProofEngine::prove(const Term *Goal, Ctx &C) {
  const Term *G = RW.simplify(substTerm(Goal, C));
  if (G->kind() == smt::Kind::ConstBool)
    return G->constBool();
  // Side-condition memoization keyed on the goal plus the path condition
  // (terms are hash-consed, so ids identify them exactly).
  std::vector<unsigned> Key;
  Key.reserve(C.Pure.size() + 1);
  Key.push_back(G->id());
  for (const Term *P : C.Pure)
    Key.push_back(P->id());
  auto Hit = ProveCache.find(Key);
  if (Hit != ProveCache.end()) {
    ++Stats.CacheHits;
    return Hit->second;
  }
  std::vector<const Term *> Query = C.Pure;
  Query.push_back(TB.notTerm(G));
  smt::Result CR = Solver.check(Query);
  if (CR == smt::Result::Unknown) {
    // "Not proven" is the sound answer, but it must not be memoized (a
    // retry with a fresh budget may well prove it) and the spec as a whole
    // must not succeed, so the give-up is recorded stickily.
    noteSolverGaveUp("side condition " + G->toString().substr(0, 120));
    return false;
  }
  bool R = CR == smt::Result::Unsat;
  ProveCache.emplace(std::move(Key), R);
  return R;
}

bool ProofEngine::pureSatisfiable(Ctx &C) {
  smt::Result CR = Solver.check(C.Pure);
  if (CR == smt::Result::Unknown) {
    // Answering "unsatisfiable" here would PRUNE a possibly-feasible path —
    // an unsound skip.  Keep walking the path (sound, possibly wasted work)
    // and record the give-up so the verdict is failure, not silent success.
    noteSolverGaveUp("path-condition satisfiability");
    return true;
  }
  return CR == smt::Result::Sat;
}

std::optional<BitVec> ProofEngine::concretize(const Term *T, Ctx &C) {
  const Term *S = RW.simplify(substTerm(T, C));
  if (S->kind() == smt::Kind::ConstBV)
    return S->constBV();
  // Ask the solver for a model of the path condition, evaluate a candidate
  // value, then confirm it is the only one.
  smt::Result CR = Solver.check(C.Pure);
  if (CR == smt::Result::Unknown) {
    noteSolverGaveUp("concretization of " + S->toString().substr(0, 120));
    return std::nullopt;
  }
  if (CR != smt::Result::Sat)
    return std::nullopt; // vacuous path; caller prunes via asserts
  smt::Value Val = Solver.modelValue(S);
  if (!Val.isBitVec())
    return std::nullopt;
  const Term *Eq = TB.eqTerm(S, TB.constBV(Val.asBitVec()));
  if (!prove(Eq, C))
    return std::nullopt;
  return Val.asBitVec();
}

IoSpecPtr ProofEngine::resolveIoState(IoSpecPtr S, Ctx &C) {
  for (int Fuel = 0; S && Fuel < 64; ++Fuel) {
    switch (S->kind()) {
    case IoSpecNode::Kind::Rec:
      S = S->unfold();
      continue;
    case IoSpecNode::Kind::Branch:
      if (prove(S->cond(), C)) {
        S = S->thenSpec();
        continue;
      }
      if (prove(TB.notTerm(S->cond()), C)) {
        S = S->elseSpec();
        continue;
      }
      return nullptr; // undecidable branch
    default:
      return S;
    }
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Assuming a spec.
//===----------------------------------------------------------------------===//

void ProofEngine::assumeSpec(const Spec &S, Ctx &C) {
  // The spec's existentials become the task's unknowns directly.  This
  // matters because other specs (e.g. the postcondition referenced by an
  // `r @@ Q` chunk, Fig. 8) mention the same variables; instantiating
  // fresh copies here would sever that connection.  Each verification task
  // has an independent context, so sharing the variables across tasks is
  // sound (they are unconstrained unknowns).
  auto inst = [&](const Term *T) { return T; };

  for (const RegChunk &R : S.regs())
    C.Regs[R.R] = inst(R.V);
  for (const RegColChunk &Col : S.regCols())
    for (const RegChunk &R : Col.Regs)
      C.Regs[R.R] = inst(R.V);
  for (const MemChunk &M : S.mems())
    C.Mems.push_back({inst(M.Addr), inst(M.Val), M.NBytes});
  for (const MemArrayChunk &A : S.arrays()) {
    MemArrayChunk NA;
    NA.Base = inst(A.Base);
    NA.ElemBytes = A.ElemBytes;
    for (const Term *E : A.Elems)
      NA.Elems.push_back(inst(E));
    C.Arrays.push_back(std::move(NA));
  }
  for (const MmioChunk &M : S.mmios())
    C.Mmios.push_back(M);
  for (const InstrPreChunk &I : S.instrPres()) {
    std::vector<const Term *> Args;
    for (const Term *A : I.Args)
      Args.push_back(inst(A));
    C.InstrPres.push_back({inst(I.Addr), I.Q, std::move(Args)});
  }
  for (const ContractChunk &Co : S.contracts())
    C.Contracts.push_back({inst(Co.Addr), Co.C});
  for (const Term *P : S.pures())
    C.Pure.push_back(inst(P));
  if (S.ioSpec())
    C.Io = S.ioSpec();
  // Note: the IO spec state is shared by identity; existentials inside IO
  // continuations are created on the fly by the automaton.
}

//===----------------------------------------------------------------------===//
// Entailment: context |= Spec (hoare-instr-pre / instr-pre-intro).
//===----------------------------------------------------------------------===//

bool ProofEngine::entail(const Spec &Q, Ctx &C,
                         const std::vector<const Term *> &Args) {
  ++Stats.Entailments;
  std::unordered_map<uint32_t, const Term *> Bind;
  std::unordered_map<uint32_t, bool> IsEvar;
  for (const Term *E : Q.exists())
    IsEvar[E->varId()] = true;
  // Parameters are bound up front by the @@ chunk's arguments.
  if (Args.size() != Q.params().size())
    return fail("entailment of " + Q.name() +
                    ": instr-pre argument count mismatch (" +
                    std::to_string(Args.size()) + " vs " +
                    std::to_string(Q.params().size()) + ")",
                support::ErrorCode::SpecError);
  for (size_t I = 0; I < Args.size(); ++I)
    Bind[Q.params()[I]->varId()] = Args[I];

  auto applyBind = [&](const Term *T) {
    return RW.simplify(TB.substitute(T, Bind));
  };
  // Unifies a spec pattern against a context value: an unbound existential
  // binds; anything else must be provably equal.
  auto unify = [&](const Term *Pattern, const Term *Val,
                   const std::string &What) {
    const Term *P = applyBind(Pattern);
    if (P->isVar() && IsEvar.count(P->varId()) && !Bind.count(P->varId())) {
      Bind[P->varId()] = Val;
      return true;
    }
    if (prove(TB.eqTerm(P, Val), C))
      return true;
    return fail("entailment of " + Q.name() + ": " + What +
                ": cannot prove " + P->toString() + " == " + Val->toString());
  };

  auto matchReg = [&](const RegChunk &R) {
    auto It = C.Regs.find(R.R);
    if (It == C.Regs.end())
      return fail("entailment of " + Q.name() + ": context has no " +
                  R.R.toString() + " |->R chunk");
    return unify(R.V, It->second, "register " + R.R.toString());
  };

  for (const RegChunk &R : Q.regs())
    if (!matchReg(R))
      return false;
  for (const RegColChunk &Col : Q.regCols())
    for (const RegChunk &R : Col.Regs)
      if (!matchReg(R))
        return false;

  for (const MemChunk &M : Q.mems()) {
    const Term *Addr = applyBind(M.Addr);
    bool Found = false;
    for (const MemChunk &CM : C.Mems) {
      if (CM.NBytes != M.NBytes)
        continue;
      if (!prove(TB.eqTerm(Addr, CM.Addr), C))
        continue;
      if (!unify(M.Val, CM.Val, "memory at " + Addr->toString()))
        return false;
      Found = true;
      break;
    }
    if (!Found)
      return fail("entailment of " + Q.name() +
                  ": no |->M chunk at " + Addr->toString());
  }

  for (const MemArrayChunk &A : Q.arrays()) {
    const Term *Base = applyBind(A.Base);
    bool Found = false;
    for (const MemArrayChunk &CA : C.Arrays) {
      if (CA.ElemBytes != A.ElemBytes || CA.Elems.size() != A.Elems.size())
        continue;
      if (!prove(TB.eqTerm(Base, CA.Base), C))
        continue;
      for (size_t I = 0; I < A.Elems.size(); ++I)
        if (!unify(A.Elems[I], CA.Elems[I],
                   "array element " + std::to_string(I)))
          return false;
      Found = true;
      break;
    }
    if (!Found)
      return fail("entailment of " + Q.name() +
                  ": no matching |->*M chunk at " + Base->toString());
  }

  for (const MmioChunk &M : Q.mmios()) {
    bool Found = false;
    for (const MmioChunk &CM : C.Mmios)
      Found = Found || (CM.Base == M.Base && CM.Size == M.Size);
    if (!Found)
      return fail("entailment of " + Q.name() + ": missing |->IO chunk");
  }

  for (const InstrPreChunk &I : Q.instrPres()) {
    const Term *Addr = applyBind(I.Addr);
    bool Found = false;
    for (const InstrPreChunk &CI : C.InstrPres) {
      if (CI.Q != I.Q || CI.Args.size() != I.Args.size())
        continue;
      if (!prove(TB.eqTerm(Addr, CI.Addr), C))
        continue;
      // Argument matching may bind existentials (e.g. an invariant's
      // "original value" binder determined only by the continuation);
      // roll the bindings back if this candidate fails.
      auto Snapshot = Bind;
      std::string SavedError = Error;
      support::Diag SavedDiag = DiagV;
      bool ArgsOk = true;
      for (size_t K = 0; ArgsOk && K < I.Args.size(); ++K)
        ArgsOk = unify(I.Args[K], CI.Args[K],
                       "@@ argument " + std::to_string(K));
      if (ArgsOk) {
        Found = true;
        break;
      }
      Bind = std::move(Snapshot);
      Error = std::move(SavedError);
      DiagV = std::move(SavedDiag);
    }
    if (!Found)
      return fail("entailment of " + Q.name() + ": missing @@ chunk at " +
                  Addr->toString());
  }

  for (const ContractChunk &Co : Q.contracts()) {
    const Term *Addr = applyBind(Co.Addr);
    bool Found = false;
    for (const ContractChunk &CC : C.Contracts)
      if (CC.C == Co.C && prove(TB.eqTerm(Addr, CC.Addr), C)) {
        Found = true;
        break;
      }
    if (!Found)
      return fail("entailment of " + Q.name() +
                  ": missing contract chunk at " + Addr->toString());
  }

  if (Q.ioSpec()) {
    // Compare automaton states up to one recursion unfolding.
    IoSpecPtr Want = Q.ioSpec(), Have = C.Io;
    auto same = [](const IoSpecPtr &A, const IoSpecPtr &B) {
      if (A == B)
        return true;
      if (A && A->kind() == IoSpecNode::Kind::Rec && A->unfold() == B)
        return true;
      if (B && B->kind() == IoSpecNode::Kind::Rec && B->unfold() == A)
        return true;
      return false;
    };
    if (!same(Want, Have)) {
      // The context state may be an unresolved Branch/Rec node (resolution
      // is lazy); normalize both sides under the path condition.
      IoSpecPtr RHave = Have ? resolveIoState(Have, C) : nullptr;
      IoSpecPtr RWant = Want ? resolveIoState(Want, C) : nullptr;
      if (!(RHave && RWant && same(RHave, RWant)))
        return fail("entailment of " + Q.name() +
                    ": IO specification state mismatch");
    }
  }

  for (const Term *P : Q.pures())
    if (!prove(applyBind(P), C))
      return fail("entailment of " + Q.name() + ": pure goal not provable: " +
                  applyBind(P)->toString());

  // Existentials that never reached a binding position are sound to leave
  // uninstantiated: every obligation mentioning them was proven with the
  // variable universally quantified, which is stronger than the required
  // existential statement (this occurs when an invariant re-proves itself
  // and a pattern variable matches the identical context unknown).
  return true;
}

//===----------------------------------------------------------------------===//
// Weakest-precondition walk over trace events.
//===----------------------------------------------------------------------===//

ProofEngine::Step ProofEngine::wpEvent(const Event &E, Ctx &C) {
  ++Stats.EventsProcessed;
  switch (E.K) {
  case EventKind::DeclareConst:
    return Step::Ok; // hoare-declare-const: stays an unknown until read

  case EventKind::DefineConst: // hoare-define-const
    C.Subst[E.Var->varId()] = RW.simplify(substTerm(E.Expr, C));
    return Step::Ok;

  case EventKind::ReadReg: { // hoare-read-reg via findR
    auto It = C.Regs.find(E.R);
    if (It == C.Regs.end()) {
      fail("read of register " + E.R.toString() +
           " without a points-to chunk (add it to the spec)");
      return Step::Failed;
    }
    if (E.Val->isVar() && !C.Subst.count(E.Val->varId())) {
      C.Subst[E.Val->varId()] = It->second;
      return Step::Ok;
    }
    C.Pure.push_back(TB.eqTerm(substTerm(E.Val, C), It->second));
    return Step::Ok;
  }

  case EventKind::AssumeReg: { // hoare-assume-reg: an obligation
    auto It = C.Regs.find(E.R);
    if (It == C.Regs.end()) {
      fail("assume-reg on register " + E.R.toString() +
           " without a points-to chunk");
      return Step::Failed;
    }
    if (!prove(TB.eqTerm(E.Val, It->second), C)) {
      fail("assume-reg obligation failed for " + E.R.toString() +
           ": expected " + E.Val->toString() + ", context has " +
           It->second->toString());
      return Step::Failed;
    }
    return Step::Ok;
  }

  case EventKind::WriteReg: { // hoare-write-reg
    auto It = C.Regs.find(E.R);
    if (It == C.Regs.end()) {
      fail("write of register " + E.R.toString() +
           " without a points-to chunk");
      return Step::Failed;
    }
    It->second = RW.simplify(substTerm(E.Val, C));
    return Step::Ok;
  }

  case EventKind::Assert: { // hoare-assert: an assumption; prune if absurd
    const Term *T = RW.simplify(substTerm(E.Expr, C));
    if (T->kind() == smt::Kind::ConstBool) {
      if (T->constBool())
        return Step::Ok;
      ++Stats.PathsPruned;
      return Step::Pruned;
    }
    C.Pure.push_back(T);
    if (!pureSatisfiable(C)) {
      ++Stats.PathsPruned;
      return Step::Pruned;
    }
    return Step::Ok;
  }

  case EventKind::Assume: { // Isla assumption: an obligation
    if (!prove(E.Expr, C)) {
      fail("Isla assumption not discharged: " + E.Expr->toString());
      return Step::Failed;
    }
    return Step::Ok;
  }

  case EventKind::ReadMem: { // findM over Mems, Arrays, Mmios
    const Term *Addr = RW.simplify(substTerm(E.Addr, C));
    auto deliver = [&](const Term *Val) {
      if (E.Val->isVar() && !C.Subst.count(E.Val->varId()))
        C.Subst[E.Val->varId()] = Val;
      else
        C.Pure.push_back(TB.eqTerm(substTerm(E.Val, C), Val));
    };
    for (const MemChunk &M : C.Mems) {
      if (M.NBytes != E.NBytes)
        continue;
      if (!prove(TB.eqTerm(Addr, M.Addr), C))
        continue;
      deliver(M.Val);
      return Step::Ok;
    }
    for (const MemArrayChunk &A : C.Arrays) {
      if (A.ElemBytes != E.NBytes)
        continue;
      unsigned Count = unsigned(A.Elems.size());
      const Term *Off = TB.bvSub(Addr, A.Base);
      const Term *InRange = TB.andTerm(
          TB.bvUlt(Off, TB.constBV(64, uint64_t(Count) * A.ElemBytes)),
          TB.eqTerm(TB.bvURem(Off, TB.constBV(64, A.ElemBytes)),
                    TB.constBV(64, 0)));
      if (!prove(InRange, C))
        continue;
      const Term *Idx = TB.bvUDiv(Off, TB.constBV(64, A.ElemBytes));
      Idx = RW.simplify(Idx);
      // hoare-read-mem-array: select the element (an ite chain for a
      // symbolic index).
      const Term *Val = A.Elems[Count - 1];
      for (unsigned K = Count - 1; K-- > 0;)
        Val = TB.iteTerm(TB.eqTerm(Idx, TB.constBV(64, K)), A.Elems[K], Val);
      deliver(RW.simplify(Val));
      return Step::Ok;
    }
    if (auto CA = concretize(Addr, C)) {
      uint64_t A = CA->toUInt64();
      for (const MmioChunk &M : C.Mmios) {
        if (A < M.Base || A + E.NBytes > M.Base + M.Size)
          continue;
        // hoare-read-mem-mmio: step the spec(s) automaton.
        IoSpecPtr S = resolveIoState(C.Io, C);
        if (!S || S->kind() != IoSpecNode::Kind::Read || S->addr() != A ||
            S->nbytes() != E.NBytes) {
          fail("MMIO read at " + Addr->toString() +
               " not allowed by the IO specification");
          return Step::Failed;
        }
        const Term *V = E.Val->isVar() && !C.Subst.count(E.Val->varId())
                            ? E.Val
                            : substTerm(E.Val, C);
        C.Io = S->applyRead(V, TB);
        return Step::Ok;
      }
    }
    fail("memory read at " + Addr->toString() +
         " matches no |->M / |->*M / |->IO chunk");
    return Step::Failed;
  }

  case EventKind::WriteMem: {
    const Term *Addr = RW.simplify(substTerm(E.Addr, C));
    const Term *Val = RW.simplify(substTerm(E.Val, C));
    for (MemChunk &M : C.Mems) {
      if (M.NBytes != E.NBytes)
        continue;
      if (!prove(TB.eqTerm(Addr, M.Addr), C))
        continue;
      M.Val = Val;
      return Step::Ok;
    }
    for (MemArrayChunk &A : C.Arrays) {
      if (A.ElemBytes != E.NBytes)
        continue;
      unsigned Count = unsigned(A.Elems.size());
      const Term *Off = TB.bvSub(Addr, A.Base);
      const Term *InRange = TB.andTerm(
          TB.bvUlt(Off, TB.constBV(64, uint64_t(Count) * A.ElemBytes)),
          TB.eqTerm(TB.bvURem(Off, TB.constBV(64, A.ElemBytes)),
                    TB.constBV(64, 0)));
      if (!prove(InRange, C))
        continue;
      const Term *Idx = RW.simplify(
          TB.bvUDiv(Off, TB.constBV(64, A.ElemBytes)));
      if (auto CIdx = concretize(Idx, C)) {
        A.Elems[size_t(CIdx->toUInt64())] = Val;
      } else {
        for (unsigned K = 0; K < Count; ++K)
          A.Elems[K] = RW.simplify(TB.iteTerm(
              TB.eqTerm(Idx, TB.constBV(64, K)), Val, A.Elems[K]));
      }
      return Step::Ok;
    }
    if (auto CA = concretize(Addr, C)) {
      uint64_t A = CA->toUInt64();
      for (const MmioChunk &M : C.Mmios) {
        if (A < M.Base || A + E.NBytes > M.Base + M.Size)
          continue;
        IoSpecPtr S = resolveIoState(C.Io, C);
        if (!S || S->kind() != IoSpecNode::Kind::Write || S->addr() != A ||
            S->nbytes() != E.NBytes) {
          fail("MMIO write at " + Addr->toString() +
               " not allowed by the IO specification");
          return Step::Failed;
        }
        if (!prove(S->writeAllowed(Val, TB), C)) {
          fail("MMIO write value not allowed by the IO specification");
          return Step::Failed;
        }
        C.Io = S->next();
        return Step::Ok;
      }
    }
    fail("memory write at " + Addr->toString() +
         " matches no |->M / |->*M / |->IO chunk");
    return Step::Failed;
  }
  }
  fail("internal: unhandled event kind");
  return Step::Failed;
}

bool ProofEngine::wpTrace(const Trace &T, Ctx C, unsigned Budget) {
  // Cooperative cancellation: one relaxed atomic load per event batch (the
  // SAT core polls the same token at much finer grain).
  if (Solver.cancelToken().cancelled())
    return fail("proof search cancelled", support::ErrorCode::Cancelled);
  for (const Event &E : T.Events) {
    Step S = wpEvent(E, C);
    if (S == Step::Failed)
      return false;
    if (S == Step::Pruned)
      return true;
  }
  if (T.hasCases()) { // hoare-cases
    for (const Trace &Sub : T.Cases)
      if (!wpTrace(Sub, C, Budget))
        return false;
    return true;
  }
  return wpInstrEnd(std::move(C), Budget);
}

bool ProofEngine::wpInstrEnd(Ctx C, unsigned Budget) {
  auto PcIt = C.Regs.find(Reg(PcReg));
  if (PcIt == C.Regs.end())
    return fail("no points-to chunk for the PC register " + PcReg);
  const Term *Pc = PcIt->second;

  // hoare-instr-pre: a provably matching a @@ Q ends the path by proving Q.
  for (const InstrPreChunk &I : C.InstrPres) {
    if (!prove(TB.eqTerm(Pc, I.Addr), C))
      continue;
    if (!entail(*I.Q, C, I.Args))
      return false;
    ++Stats.PathsVerified;
    return true;
  }

  // Assumed function contract: havoc clobbers, assume the relational post,
  // resume at the return address.
  for (const ContractChunk &Co : C.Contracts) {
    if (!prove(TB.eqTerm(Pc, Co.Addr), C))
      continue;
    return applyContract(*Co.C, std::move(C), Budget);
  }

  // hoare-instr: continue into the next instruction's trace.
  auto CA = concretize(Pc, C);
  if (!CA)
    return fail("jump target " + Pc->toString() +
                " is neither a known instruction nor a @@ chunk");
  auto It = Instrs.find(CA->toUInt64());
  if (It == Instrs.end())
    return fail("jump to " + CA->toHexString() +
                ": no instruction and no @@ chunk there (E(a) termination "
                "is not part of any registered spec)");
  if (Budget == 0)
    return fail("instruction budget exhausted at " + CA->toHexString() +
                    " (missing loop invariant?)",
                support::ErrorCode::InstrBudgetExhausted);
  ++Stats.InstructionsWalked;
  C.Subst.clear(); // trace variables are per instruction
  return wpTrace(*It->second, std::move(C), Budget - 1);
}

bool ProofEngine::applyContract(const Contract &Co, Ctx C, unsigned Budget) {
  auto RetIt = C.Regs.find(Co.RetReg);
  if (RetIt == C.Regs.end())
    return fail("contract " + Co.Name + ": no chunk for return register " +
                Co.RetReg.toString());
  const Term *Ret = RetIt->second;

  // Snapshot pre-call values, then havoc the clobbers.  A contract post
  // reading a register the context does not own is a spec bug: flag it and
  // hand the post a throwaway unknown so evaluation stays defined, then
  // fail the path with a SpecError below.
  std::unordered_map<Reg, const Term *, RegHash> Pre = C.Regs;
  bool UnownedRead = false;
  std::string UnownedName;
  auto unowned = [&](const Reg &R) -> const Term * {
    UnownedRead = true;
    if (UnownedName.empty())
      UnownedName = R.toString();
    return TB.freshVar(smt::Sort::bitvec(64),
                       "unowned" + std::to_string(++HavocCounter));
  };
  auto preVal = [&](const Reg &R) -> const Term * {
    auto It = Pre.find(R);
    if (It == Pre.end())
      return unowned(R);
    return It->second;
  };
  for (const Reg &R : Co.Clobbers) {
    auto It = C.Regs.find(R);
    if (It == C.Regs.end())
      return fail("contract " + Co.Name + ": no chunk for clobbered " +
                  R.toString());
    // Number the havoc variables: several applications of the same
    // contract along one path must not print identically, or the goal
    // closures fed to the cross-run side-condition cache would be
    // ambiguous (and excluded from caching).
    It->second =
        TB.freshVar(smt::Sort::bitvec(It->second->width()),
                    "ret" + std::to_string(++HavocCounter) + "_" +
                        R.toString());
  }
  auto postVal = [&](const Reg &R) -> const Term * {
    auto It = C.Regs.find(R);
    if (It == C.Regs.end())
      return unowned(R);
    return It->second;
  };
  if (Co.Post)
    for (const Term *P : Co.Post(TB, preVal, postVal))
      C.Pure.push_back(P);
  if (UnownedRead)
    return fail("contract " + Co.Name + ": post reads register " +
                    UnownedName + " the context does not own",
                support::ErrorCode::SpecError);

  C.Regs[Reg(PcReg)] = Ret;
  return wpInstrEnd(std::move(C), Budget);
}

//===----------------------------------------------------------------------===//
// Entry points.
//===----------------------------------------------------------------------===//

void ProofEngine::setSideCondCache(smt::SolverCache *Store,
                                   const support::Fingerprint &ProgramKey) {
  SideCond = Store;
  this->ProgramKey = ProgramKey;
  Bundle.reset();
  Solver.setCache(nullptr);
}

void ProofEngine::openBundle() {
  if (!SideCond || Bundle)
    return;
  support::Fingerprinter FP;
  FP.str("islaris-proof-bundle").fingerprint(ProgramKey);
  FP.u64(Registered.size());
  for (const auto &[Addr, S] : Registered)
    FP.u64(Addr).str(S->name());
  Bundle = SideCond->openBundle(FP.digest());
  Solver.setCache(Bundle.get());
}

void ProofEngine::publishBundle() {
  if (!Bundle)
    return;
  auto Start = std::chrono::steady_clock::now();
  Bundle->publish();
  double Secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Stats.SideCondSeconds += Secs;
  Stats.TotalSeconds += Secs;
}

bool ProofEngine::verifySpec(uint64_t Addr, const Spec *S) {
  openBundle();
  bool Ok = verifyOne(Addr, S);
  publishBundle();
  return Ok;
}

bool ProofEngine::verifyOne(uint64_t Addr, const Spec *S) {
  Error.clear();
  DiagV = support::Diag();
  GaveUp = false;
  if (!RegError.empty())
    return fail(RegError, support::ErrorCode::SpecError);
  auto Start = std::chrono::steady_clock::now();
  double SolverBefore = Solver.stats().TotalSeconds;

  Ctx C;
  assumeSpec(*S, C);
  // Löb: all registered specs are available in the context.
  for (const auto &[A, Q] : Registered)
    C.InstrPres.push_back({TB.constBV(64, A), Q, {}});
  // Entry: the PC starts at the spec's address.
  C.Regs[Reg(PcReg)] = TB.constBV(64, Addr);

  auto It = Instrs.find(Addr);
  bool Ok;
  if (It == Instrs.end()) {
    Ok = fail("registered spec at " + BitVec(64, Addr).toHexString() +
              " has no instruction");
  } else {
    ++Stats.InstructionsWalked;
    Ok = wpTrace(*It->second, std::move(C), MaxInstrsPerPath);
  }

  if (GaveUp) {
    // Some check() during the walk answered Unknown.  Whatever verdict the
    // walk reached may rest on a missed prune or an unproven equality, so
    // it is withdrawn; the sticky diagnostic attributes the give-up.
    Ok = false;
    if (Error.empty())
      noteSolverGaveUp("proof search (give-up rolled back by a "
                       "speculative entailment)");
    else if (!DiagV)
      DiagV = support::Diag::error(
          Solver.cancelToken().cancelled()
              ? support::ErrorCode::Cancelled
              : support::ErrorCode::SolverBudgetExceeded,
          "proof-engine", Error);
  }

  Stats.SolverQueries = Solver.stats().NumChecks;
  Stats.SolverSatCalls = Solver.stats().NumSatCalls;
  Stats.SolverMemoHits = Solver.stats().NumMemoHits;
  Stats.SolverStoreHits = Solver.stats().NumStoreHits;
  Stats.SideCondSeconds += Solver.stats().TotalSeconds - SolverBefore;
  Stats.TotalSeconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Ok;
}

bool ProofEngine::verifyAll() {
  openBundle();
  bool Ok = true;
  for (const auto &[Addr, S] : Registered)
    if (!verifyOne(Addr, S)) {
      Ok = false;
      break;
    }
  publishBundle();
  return Ok;
}
