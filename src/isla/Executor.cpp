//===- isla/Executor.cpp - Symbolic execution of mini-Sail --------------------===//

#include "isla/Executor.h"

#include "smt/Evaluator.h"
#include "support/FaultInjector.h"

#include <chrono>
#include <cstddef>
#include <map>
#include <stdexcept>

using namespace islaris;
using namespace islaris::isla;
using islaris::itl::Event;
using islaris::itl::Reg;
using islaris::itl::RegHash;
using islaris::itl::Trace;
using islaris::sail::BinOp;
using islaris::sail::Builtin;
using islaris::sail::Expr;
using islaris::sail::ExprKind;
using islaris::sail::Stmt;
using islaris::sail::StmtKind;
using islaris::sail::UnOp;
using smt::Sort;
using smt::Term;

/// Per-path mutable state.  The frame machine keeps one and checkpoints it
/// at forks.
struct Executor::RunState {
  const ExecOptions *Opts = nullptr;
  ExecStats *Stats = nullptr; ///< The run's counters, shared by its paths.

  std::vector<Event> Events;
  std::unordered_map<Reg, const Term *, RegHash> RegCache;
  std::unordered_map<Reg, bool, RegHash> ReadEmitted;
  std::unordered_map<Reg, bool, RegHash> Written;
  std::vector<const Term *> PathCond;

  std::vector<const Term *> *VarPool = nullptr;
  size_t VarCursor = 0;

  /// Locals of the current call frame (swapped on call/return).
  std::vector<const Term *> Locals;

  unsigned Depth = 0;
  std::string Error;
  support::ErrorCode Code = support::ErrorCode::Ok;
  // Resource guards for the enclosing run() (shared across its paths).
  const std::atomic<bool> *CancelFlag = nullptr;
  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::time_point::max();
  uint64_t StmtsSinceClock = 0;

  bool failed() const { return !Error.empty(); }
  void fail(int Line, const std::string &Msg,
            support::ErrorCode C = support::ErrorCode::ModelError) {
    if (Error.empty()) {
      Error = "line " + std::to_string(Line) + ": " + Msg;
      Code = C;
    }
  }
  /// Guard failures are not tied to a model source line.
  void failGuard(support::ErrorCode C, const std::string &Msg) {
    if (Error.empty()) {
      Error = Msg;
      Code = C;
    }
  }

  /// Statement-granular guard poll: cancellation every statement (one
  /// relaxed atomic load), the wall clock every 256 statements.
  bool guardTripped() {
    if (CancelFlag && CancelFlag->load(std::memory_order_relaxed)) {
      failGuard(support::ErrorCode::Cancelled,
                "trace generation cancelled");
      return true;
    }
    if (Deadline != std::chrono::steady_clock::time_point::max() &&
        ++StmtsSinceClock >= 256) {
      StmtsSinceClock = 0;
      if (std::chrono::steady_clock::now() >= Deadline) {
        failGuard(support::ErrorCode::DeadlineExceeded,
                  "trace generation deadline exceeded");
        return true;
      }
    }
    return false;
  }
};


unsigned islaris::isla::registerWidth(const sail::Model &M,
                                      const itl::Reg &R) {
  const sail::RegisterDecl *RD = M.findRegister(R.Base);
  if (!RD)
    return 0;
  if (!R.hasField())
    return RD->Width;
  return RD->hasField(R.Field) ? RD->fieldWidth(R.Field) : 0;
}

Executor::Executor(const sail::Model &M, smt::TermBuilder &TB)
    : M(M), TB(TB), Solver(TB), RW(TB) {}

const Term *Executor::pooledVar(Sort S, RunState &RS) {
  std::vector<const Term *> &Pool = *RS.VarPool;
  if (RS.VarCursor < Pool.size()) {
    const Term *V = Pool[RS.VarCursor];
    if (V->sort() != S)
      Pool[RS.VarCursor] = V = TB.freshVar(S);
    ++RS.VarCursor;
    return V;
  }
  const Term *V = TB.freshVar(S);
  Pool.push_back(V);
  ++RS.VarCursor;
  return V;
}

/// Selection-only simplification for trace values: resolves extracts over
/// concats/extensions (so a discarded-flags concat like Fig. 2's
/// AddWithCarry result collapses away) but deliberately keeps arithmetic
/// intact — the 128-bit addition "vestige" of Fig. 3 stays visible, as in
/// Isla's real output.
static const Term *selectSimplify(smt::TermBuilder &TB, const Term *T) {
  using smt::Kind;
  // Simplify children first.
  std::vector<const Term *> Ops;
  bool Changed = false;
  for (const Term *Op : T->operands()) {
    const Term *S = selectSimplify(TB, Op);
    Changed |= S != Op;
    Ops.push_back(S);
  }
  if (T->kind() == Kind::Extract) {
    const Term *Op = Ops[0];
    unsigned Hi = T->attrA(), Lo = T->attrB();
    if (Op->kind() == Kind::Concat) {
      unsigned LoW = Op->operand(1)->width();
      if (Hi < LoW)
        return selectSimplify(TB, TB.extract(Hi, Lo, Op->operand(1)));
      if (Lo >= LoW)
        return selectSimplify(
            TB, TB.extract(Hi - LoW, Lo - LoW, Op->operand(0)));
    }
    if ((Op->kind() == Kind::ZeroExtend || Op->kind() == Kind::SignExtend) &&
        Hi < Op->operand(0)->width())
      return selectSimplify(TB, TB.extract(Hi, Lo, Op->operand(0)));
  }
  return Changed ? TB.rebuild(T, Ops) : T;
}

const Term *Executor::nameValue(const Term *V, RunState &RS) {
  V = selectSimplify(TB, V);
  if (V->isVar() || V->isConst())
    return V;
  const Term *Name = pooledVar(V->sort(), RS);
  RS.Events.push_back(Event::defineConst(Name, V));
  return Name;
}

const Term *Executor::readRegister(const Reg &R, unsigned Width,
                                   RunState &RS) {
  auto It = RS.RegCache.find(R);
  if (It != RS.RegCache.end()) {
    bool Emitted = RS.ReadEmitted[R];
    if (!Emitted) {
      RS.Events.push_back(Event::readReg(R, It->second));
      RS.ReadEmitted[R] = true;
    } else if (!RS.Opts->CacheRegReads && !RS.Written[R]) {
      // Unsimplified baseline: every model-level read is its own event with
      // a fresh unknown (later reads still denote the same register value;
      // the ITL read semantics re-establishes the equality).
      const Term *V = pooledVar(Sort::bitvec(Width), RS);
      RS.Events.push_back(Event::declareConst(V));
      RS.Events.push_back(Event::readReg(R, V));
      return V;
    }
    return It->second;
  }
  const Term *V = pooledVar(Sort::bitvec(Width), RS);
  RS.Events.push_back(Event::declareConst(V));
  RS.Events.push_back(Event::readReg(R, V));
  RS.RegCache[R] = V;
  RS.ReadEmitted[R] = true;
  return V;
}

void Executor::writeRegister(const Reg &R, const Term *V, RunState &RS) {
  const Term *Named = nameValue(V, RS);
  RS.Events.push_back(Event::writeReg(R, Named));
  RS.RegCache[R] = Named;
  RS.ReadEmitted[R] = true;
  RS.Written[R] = true;
}

//===----------------------------------------------------------------------===//
// Step rules of the frame machine.  They take already-evaluated operands;
// naming the result stays with the caller.
//===----------------------------------------------------------------------===//

static const Term *applyUnary(smt::TermBuilder &TB, UnOp Op, const Term *V) {
  switch (Op) {
  case UnOp::BoolNot:
    return TB.notTerm(V);
  case UnOp::BvNot:
    return TB.bvNot(V);
  case UnOp::BvNeg:
    return TB.bvNeg(V);
  }
  return nullptr;
}

static const Term *applyBinary(smt::TermBuilder &TB, BinOp Op, const Term *L,
                               const Term *R) {
  switch (Op) {
  case BinOp::BoolAnd:
    return TB.andTerm(L, R);
  case BinOp::BoolOr:
    return TB.orTerm(L, R);
  case BinOp::Eq:
    return TB.eqTerm(L, R);
  case BinOp::Ne:
    return TB.notTerm(TB.eqTerm(L, R));
  case BinOp::Add:
    return TB.bvAdd(L, R);
  case BinOp::Sub:
    return TB.bvSub(L, R);
  case BinOp::Mul:
    return TB.bvMul(L, R);
  case BinOp::UDiv:
    return TB.bvUDiv(L, R);
  case BinOp::URem:
    return TB.bvURem(L, R);
  case BinOp::BvAnd:
    return TB.bvAnd(L, R);
  case BinOp::BvOr:
    return TB.bvOr(L, R);
  case BinOp::BvXor:
    return TB.bvXor(L, R);
  case BinOp::Shl:
    return TB.bvShl(L, TB.zextTo(L->width(), R));
  case BinOp::LShr:
    return TB.bvLShr(L, TB.zextTo(L->width(), R));
  case BinOp::AShr:
    return TB.bvAShr(L, TB.zextTo(L->width(), R));
  case BinOp::ULt:
    return TB.bvUlt(L, R);
  case BinOp::ULe:
    return TB.bvUle(L, R);
  case BinOp::SLt:
    return TB.bvSlt(L, R);
  case BinOp::SLe:
    return TB.bvSle(L, R);
  case BinOp::Concat:
    return TB.concat(L, R);
  }
  return nullptr;
}

/// Operands a call evaluates, in order: a builtin's width or size literal
/// is resolved into the Expr, not evaluated.
static size_t callOperands(const Expr &E) {
  switch (E.BuiltinKind) {
  case Builtin::None:
    return E.Args.size();
  case Builtin::WriteMem:
    return 2; // address, data
  default:
    return 1;
  }
}

const Term *Executor::applyBuiltin(const Expr &E,
                                   const std::vector<const Term *> &Args,
                                   RunState &RS) {
  const Term *V = Args[0];
  switch (E.BuiltinKind) {
  case Builtin::ZeroExtend:
    return TB.zeroExtend(E.ExtWidth - V->width(), V);
  case Builtin::SignExtend:
    return TB.signExtend(E.ExtWidth - V->width(), V);
  case Builtin::Truncate:
    return TB.extract(E.ExtWidth - 1, 0, V);
  case Builtin::ReverseBits: {
    if (V->kind() == smt::Kind::ConstBV)
      return TB.constBV(V->constBV().reverseBits());
    // Structural expansion: the result is bit 0 of the input (as the new
    // MSB) down to bit w-1 (as the new LSB).
    const Term *R = TB.extract(0, 0, V);
    for (unsigned I = 1; I < V->width(); ++I)
      R = TB.concat(R, TB.extract(I, I, V));
    return R;
  }
  case Builtin::ReadMem: {
    const Term *D = pooledVar(Sort::bitvec(E.MemBytes * 8), RS);
    RS.Events.push_back(Event::declareConst(D));
    RS.Events.push_back(Event::readMem(D, V, E.MemBytes));
    return D;
  }
  case Builtin::WriteMem:
    RS.Events.push_back(
        Event::writeMem(V, nameValue(Args[1], RS), E.MemBytes));
    return TB.constBV(1, 0); // unit placeholder
  case Builtin::None:
    break;
  }
  return nullptr;
}

enum class Executor::Sides : uint8_t { Failed, Then, Else, Both };

Executor::Sides Executor::feasibleSides(const Term *S, RunState &RS) {
  // Ask the solver which sides are reachable under the current path
  // condition (this is Isla's branch pruning).  An Unknown on either side
  // means we cannot *soundly* prune or fork — treating it as Sat would fork
  // on a possibly-infeasible side, treating it as Unsat would prune a
  // possibly-feasible one — so the run fails with an attributed
  // solver-budget diagnostic instead.
  std::vector<const Term *> Base = RS.PathCond;
  Base.push_back(S);
  RS.Stats->SolverQueries += 2;
  smt::Result TrueRes = Solver.check(Base);
  Base.back() = TB.notTerm(S);
  smt::Result FalseRes = Solver.check(Base);
  if (TrueRes == smt::Result::Unknown || FalseRes == smt::Result::Unknown) {
    RS.failGuard(RS.CancelFlag &&
                         RS.CancelFlag->load(std::memory_order_relaxed)
                     ? support::ErrorCode::Cancelled
                     : support::ErrorCode::SolverBudgetExceeded,
                 "solver gave up deciding a branch condition");
    return Sides::Failed;
  }
  bool TrueSat = TrueRes == smt::Result::Sat;
  bool FalseSat = FalseRes == smt::Result::Sat;
  if (!TrueSat && !FalseSat) {
    // The path condition itself became unsatisfiable — an executor
    // invariant violation (paths only ever enter feasible sides).
    RS.failGuard(support::ErrorCode::Internal,
                 "internal: path condition became unsatisfiable");
    return Sides::Failed;
  }
  if (TrueSat && FalseSat)
    return Sides::Both;
  ++RS.Stats->PrunedBranches;
  return TrueSat ? Sides::Then : Sides::Else;
}

void Executor::takeSide(const Term *Cond, const Term *Named, bool Then,
                        RunState &RS) {
  RS.Events.push_back(Event::assertE(Then ? Named : TB.notTerm(Named)));
  RS.PathCond.push_back(Then ? Cond : TB.notTerm(Cond));
}

void Executor::dischargeAssert(const Stmt &S, const Term *C, RunState &RS) {
  const Term *CS = RW.simplify(C);
  if (CS->kind() == smt::Kind::ConstBool) {
    if (!CS->constBool())
      RS.fail(S.Line, "model assertion failed: " + S.Message);
    return;
  }
  std::vector<const Term *> Query = RS.PathCond;
  Query.push_back(TB.notTerm(CS));
  ++RS.Stats->SolverQueries;
  smt::Result QR = Solver.check(Query);
  if (QR == smt::Result::Unknown)
    RS.failGuard(support::ErrorCode::SolverBudgetExceeded,
                 "solver gave up on model assertion: " + S.Message);
  else if (QR == smt::Result::Sat)
    RS.fail(S.Line, "model assertion not provable: " + S.Message);
}

//===----------------------------------------------------------------------===//
// The frame machine.
//
// A recursive walker cannot resume a flipped branch without re-running the
// model, so the executor runs a defunctionalized frame-stack machine:
// control is an explicit stack of copyable frames
// (statements AND expressions — forks can occur inside expression-position
// calls), values an explicit operand stack.  A both-feasible branch deep
// inside nested calls is then checkpointable by value-copying the two
// stacks plus the mutable RunState maps; restoring a checkpoint and
// appending the flipped assertion continues the run as if the shared prefix
// had been re-executed — except it wasn't, which is the whole point.
//
// Every fork's checkpoint becomes a work item, queued at once; the worklist
// pops in the LIFO order of a DFS.
//
// Determinism invariants (what makes a resumed path identical to
// re-running the model along it; the golden corpus in tests/snapshot_test
// pins the resulting traces):
//  * events and path conditions are append-only, so a checkpoint stores
//    only their lengths and restore truncates;
//  * pooled variable naming is position-stable: restoring VarCursor makes
//    the flipped path draw exactly the variables a re-execution of the
//    prefix would re-draw;
//  * the branch condition is named (define-const, shared prefix) BEFORE the
//    checkpoint and asserted AFTER it, so the merged tree diverges exactly
//    at the Assert events (Fig. 6).
//===----------------------------------------------------------------------===//

struct Executor::Machine {
  enum class FK : uint8_t {
    Stmt,         ///< Dispatch one statement.
    BlockStep,    ///< Run the next statement of a block body.
    AssignLocal,  ///< Store popped value into S->LocalIdx.
    WriteReg,     ///< writeRegister(popped value).
    IfCond,       ///< Decide a popped branch condition (the fork point).
    Drop,         ///< Discard a popped value (ExprStmt).
    ReturnValue,  ///< Store popped value in the return slot, unwind.
    AssertCond,   ///< Discharge a popped assert condition.
    Expr,         ///< Dispatch one expression.
    ApplyUnary,   ///< Combine 1 popped operand.
    ApplyBinary,  ///< Combine 2 popped operands.
    IfExprCond,   ///< Branch-free ite: decide const vs. symbolic.
    IteJoin,      ///< Combine popped then/else into an ite term.
    ApplySlice,   ///< Extract from a popped operand.
    CallArgsDone, ///< Apply a builtin or enter the callee.
    CallExit,     ///< Restore caller locals, push the return value.
  };

  /// One continuation frame.  Everything is an immutable AST pointer, an
  /// index, or a hash-consed term, so frames (and thus checkpoints) are plain
  /// value copies.
  struct Frame {
    FK K;
    const Stmt *S = nullptr;
    const Expr *E = nullptr;
    const std::vector<sail::StmtPtr> *Body = nullptr;
    size_t Idx = 0;
    const Term *T = nullptr; ///< IteJoin: the simplified condition.
    // CallExit bookkeeping.
    const sail::FunctionDecl *F = nullptr;
    std::vector<const Term *> Saved; ///< Caller's locals.
    bool Returned = false;
    // Pure-helper memo bookkeeping (CallExit frames of candidates only).
    bool MemoCand = false;
    size_t EventsAtEntry = 0;
    unsigned QueriesAtEntry = 0;
    std::vector<const Term *> MemoArgs;
  };

  /// Everything a path needs to continue from a point of another path as
  /// if it had executed the prefix up to it.  save() and restore() are the
  /// only places that build or unpack one, so a new piece of machine state
  /// is checkpointed in one place.
  struct Checkpoint {
    std::vector<Frame> Control;
    std::vector<const Term *> Values;
    std::vector<const Term *> Locals;
    std::unordered_map<Reg, const Term *, RegHash> RegCache;
    std::unordered_map<Reg, bool, RegHash> ReadEmitted;
    std::unordered_map<Reg, bool, RegHash> Written;
    size_t EventsLen = 0;
    size_t PathCondLen = 0;
    size_t VarCursor = 0;
    unsigned Depth = 0;
    uint64_t PathStmts = 0; ///< Logical path length at the checkpoint.
  };

  /// A both-feasible fork, checkpointed between naming its condition and
  /// asserting the then side.
  struct Fork {
    Checkpoint At;
    const Stmt *IfStmt = nullptr;
    const Term *Cond = nullptr;  ///< Simplified condition (path-cond form).
    const Term *Named = nullptr; ///< Named condition (event form).
  };

  Executor &X;
  RunState RS;
  ExecStats &Stats;
  std::vector<Frame> Control;
  std::vector<const Term *> Values;
  std::vector<Fork> Work; ///< Unexplored resumptions, by At.EventsLen.
  /// Per-run summaries of statically-pure helpers, keyed on the hash-consed
  /// argument terms.  Exact-pointer lookups only, so the (nondeterministic)
  /// map ordering never leaks into the trace.
  std::map<std::pair<const sail::FunctionDecl *, std::vector<const Term *>>,
           const Term *>
      Memo;
  uint64_t PathStmts = 0; ///< Logical statements of the current path.

  Machine(Executor &X, const RunState &Base)
      : X(X), RS(Base), Stats(*Base.Stats) {}

  void push(FK K, const Stmt *S = nullptr, const Expr *E = nullptr) {
    Frame Fr;
    Fr.K = K;
    Fr.S = S;
    Fr.E = E;
    Control.push_back(std::move(Fr));
  }
  void pushExpr(const Expr &E) { push(FK::Expr, nullptr, &E); }
  /// Pushes \p K for \p S, then the statement's value expression.
  void pushValue(FK K, const Stmt &S) {
    push(K, &S);
    pushExpr(*S.Value);
  }
  /// Pushes \p K for \p E, then its first \p N operands (reversed push =
  /// in-order dispatch).
  void pushOperands(FK K, const Expr &E, size_t N) {
    push(K, nullptr, &E);
    for (size_t I = N; I-- > 0;)
      pushExpr(*E.Args[I]);
  }
  void pushBlock(const std::vector<sail::StmtPtr> &Body) {
    Frame Fr;
    Fr.K = FK::BlockStep;
    Fr.Body = &Body;
    Control.push_back(std::move(Fr));
  }
  const Term *popValue() {
    const Term *V = Values.back();
    Values.pop_back();
    return V;
  }
  /// Tail of every compound expression result: name each intermediate in
  /// the unsimplified baseline.
  void finish(const Term *V) {
    if (!RS.Opts->SinksOnly)
      V = X.nameValue(V, RS);
    Values.push_back(V);
  }

  /// Return-statement unwinding: pop frames down to (and keeping) the
  /// innermost CallExit, which then sees Returned = true.
  void unwindReturn() {
    for (size_t I = Control.size(); I-- > 0;) {
      if (Control[I].K == FK::CallExit) {
        Control[I].Returned = true;
        Control.resize(I + 1);
        return;
      }
    }
    Control.clear();
  }

  void enterFunction(const sail::FunctionDecl &F,
                     std::vector<const Term *> Args) {
    if (++RS.Depth > 128) {
      RS.fail(F.Line, "call depth limit exceeded in " + F.Name);
      --RS.Depth;
      return;
    }
    bool Cand = F.IsPure;
    if (Cand) {
      auto It = Memo.find({&F, Args});
      if (It != Memo.end()) {
        ++Stats.HelperMemoHits;
        --RS.Depth;
        Values.push_back(It->second);
        return;
      }
    }
    Frame CE;
    CE.K = FK::CallExit;
    CE.F = &F;
    CE.Saved = std::move(RS.Locals);
    CE.MemoCand = Cand;
    CE.EventsAtEntry = RS.Events.size();
    CE.QueriesAtEntry = Stats.SolverQueries;
    if (Cand)
      CE.MemoArgs = Args;
    RS.Locals.assign(F.NumLocals + 1, nullptr); // +1: return slot at back()
    for (size_t I = 0; I < Args.size(); ++I)
      RS.Locals[I] = Args[I];
    RS.Locals.back() = X.TB.constBV(1, 0); // unit default
    Control.push_back(std::move(CE));
    push(FK::Stmt, F.Body.get());
  }

  Checkpoint save() const {
    return {Control,          Values,
            RS.Locals,        RS.RegCache,
            RS.ReadEmitted,   RS.Written,
            RS.Events.size(), RS.PathCond.size(),
            RS.VarCursor,     RS.Depth,
            PathStmts};
  }

  /// Continues from \p C: the prefix it stands for is NOT re-executed,
  /// which is the engine's entire reason to exist.
  void restore(Checkpoint C) {
    Stats.StmtsSkippedBySnapshot += C.PathStmts;
    RS.Events.resize(C.EventsLen);
    RS.PathCond.resize(C.PathCondLen);
    Control = std::move(C.Control);
    Values = std::move(C.Values);
    RS.Locals = std::move(C.Locals);
    RS.RegCache = std::move(C.RegCache);
    RS.ReadEmitted = std::move(C.ReadEmitted);
    RS.Written = std::move(C.Written);
    RS.VarCursor = C.VarCursor;
    RS.Depth = C.Depth;
    PathStmts = C.PathStmts;
  }

  /// Decides a symbolic branch condition: the solver prunes one-sided
  /// branches; a both-feasible branch becomes a Fork.
  void decide(const Stmt &S) {
    const Term *CS = X.RW.simplify(popValue());
    if (CS->kind() == smt::Kind::ConstBool) {
      pushBlock(CS->constBool() ? S.Body : S.Else);
      return;
    }
    Sides Sd = X.feasibleSides(CS, RS);
    if (Sd == Sides::Failed)
      return;
    if (Sd != Sides::Both) {
      pushBlock(Sd == Sides::Then ? S.Body : S.Else);
      return;
    }
    // Both feasible: name the condition (shared prefix), checkpoint, then
    // assert the chosen side (head of the divergent suffix, Fig. 6).  Forks
    // are queued in the order they are taken, i.e. by increasing event
    // length, so the worklist pops exactly LIFO and a resumption never
    // outlives a shallower one whose restore would truncate its shared
    // prefix.
    const Term *Named = X.nameValue(CS, RS);
    Work.push_back({save(), &S, CS, Named});
    X.takeSide(CS, Named, true, RS);
    pushBlock(S.Body);
  }

  /// Starts the next path from the deepest work item: restore its
  /// checkpoint, then assert the negated named condition and take the else
  /// side.
  void resumeWork() {
    Fork F = std::move(Work.back());
    Work.pop_back();
    restore(std::move(F.At));
    X.takeSide(F.Cond, F.Named, false, RS);
    pushBlock(F.IfStmt->Else);
  }

  /// Runs the current path to its end.
  void run() {
    while (!Control.empty() && !RS.failed())
      step();
  }

  void execStmtFrame(const Stmt &S) {
    ++Stats.StmtsExecuted;
    ++PathStmts;
    if (RS.guardTripped())
      return;
    switch (S.Kind) {
    case StmtKind::Block:
      pushBlock(S.Body);
      return;
    case StmtKind::Let:
    case StmtKind::Assign:
      pushValue(FK::AssignLocal, S);
      return;
    case StmtKind::RegWrite:
      pushValue(FK::WriteReg, S);
      return;
    case StmtKind::If:
      pushValue(FK::IfCond, S);
      return;
    case StmtKind::ExprStmt:
      pushValue(FK::Drop, S);
      return;
    case StmtKind::Return:
      if (S.Value)
        pushValue(FK::ReturnValue, S);
      else
        unwindReturn();
      return;
    case StmtKind::Throw:
      RS.fail(S.Line, "reachable model exception: " + S.Message);
      return;
    case StmtKind::Assert:
      pushValue(FK::AssertCond, S);
      return;
    }
    RS.fail(S.Line, "internal: unhandled statement");
  }

  void evalExprFrame(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::BitsLit:
      Values.push_back(X.TB.constBV(E.BitsVal));
      return;
    case ExprKind::BoolLit:
      Values.push_back(X.TB.constBool(E.BoolVal));
      return;
    case ExprKind::IntLit:
      RS.fail(E.Line, "internal: unresolved decimal literal");
      return;
    case ExprKind::VarRef: {
      const Term *V = RS.Locals[size_t(E.LocalIdx)];
      if (!V) {
        RS.fail(E.Line, "internal: read of uninitialized local",
                support::ErrorCode::Internal);
        return;
      }
      Values.push_back(V);
      return;
    }
    case ExprKind::RegRead:
      Values.push_back(
          X.readRegister(Reg(E.Name, E.Field), E.Ty.Width, RS));
      return;
    case ExprKind::Call:
      pushOperands(FK::CallArgsDone, E, callOperands(E));
      return;
    case ExprKind::Unary:
      pushOperands(FK::ApplyUnary, E, 1);
      return;
    case ExprKind::Binary:
      pushOperands(FK::ApplyBinary, E, 2);
      return;
    case ExprKind::IfExpr:
      pushOperands(FK::IfExprCond, E, 1);
      return;
    case ExprKind::Slice:
      pushOperands(FK::ApplySlice, E, 1);
      return;
    }
    RS.fail(E.Line, "internal: unhandled expression");
  }

  void step() {
    Frame Fr = std::move(Control.back());
    Control.pop_back();
    switch (Fr.K) {
    case FK::Stmt:
      execStmtFrame(*Fr.S);
      return;
    case FK::BlockStep: {
      if (Fr.Idx >= Fr.Body->size())
        return;
      const Stmt *Child = (*Fr.Body)[Fr.Idx].get();
      ++Fr.Idx;
      Control.push_back(std::move(Fr));
      push(FK::Stmt, Child);
      return;
    }
    case FK::AssignLocal:
      RS.Locals[size_t(Fr.S->LocalIdx)] = popValue();
      return;
    case FK::WriteReg:
      X.writeRegister(Reg(Fr.S->Name, Fr.S->Field), popValue(), RS);
      return;
    case FK::IfCond:
      decide(*Fr.S);
      return;
    case FK::Drop:
      popValue();
      return;
    case FK::ReturnValue:
      RS.Locals.back() = popValue();
      unwindReturn();
      return;
    case FK::AssertCond:
      X.dischargeAssert(*Fr.S, popValue(), RS);
      return;
    case FK::Expr:
      evalExprFrame(*Fr.E);
      return;
    case FK::ApplyUnary:
      finish(applyUnary(X.TB, Fr.E->UOp, popValue()));
      return;
    case FK::ApplyBinary: {
      const Term *R = popValue();
      const Term *L = popValue();
      finish(applyBinary(X.TB, Fr.E->BOp, L, R));
      return;
    }
    case FK::IfExprCond: {
      const Term *CS = X.RW.simplify(popValue());
      if (CS->kind() == smt::Kind::ConstBool) {
        // Tail position in the recursive engine: the chosen arm's own
        // dispatch decides naming, no extra finish() here.
        pushExpr(*Fr.E->Args[CS->constBool() ? 1 : 2]);
        return;
      }
      push(FK::IteJoin, nullptr, Fr.E);
      Control.back().T = CS;
      pushExpr(*Fr.E->Args[2]); // else, dispatched second
      pushExpr(*Fr.E->Args[1]); // then, dispatched first
      return;
    }
    case FK::IteJoin: {
      const Term *El = popValue();
      const Term *Th = popValue();
      finish(X.TB.iteTerm(Fr.T, Th, El));
      return;
    }
    case FK::ApplySlice:
      finish(X.TB.extract(Fr.E->SliceHi, Fr.E->SliceLo, popValue()));
      return;
    case FK::CallArgsDone: {
      size_t N = callOperands(*Fr.E);
      std::vector<const Term *> Args(Values.end() - ptrdiff_t(N),
                                     Values.end());
      Values.resize(Values.size() - N);
      // Builtins return raw (early-return in the recursive engine: no
      // naming even in the unsimplified baseline).
      if (Fr.E->BuiltinKind != Builtin::None)
        Values.push_back(X.applyBuiltin(*Fr.E, Args, RS));
      else
        enterFunction(*Fr.E->Callee, std::move(Args));
      return;
    }
    case FK::CallExit: {
      const Term *Ret = RS.Locals.back();
      RS.Locals = std::move(Fr.Saved);
      --RS.Depth;
      if (!Fr.Returned && !Fr.F->RetTy.isUnit()) {
        RS.fail(Fr.F->Line,
                "function " + Fr.F->Name + " fell off the end");
        return;
      }
      // A candidate's summary is stored only if the call was dynamically
      // effect-free on this path: no events (covers forks, register and
      // memory traffic, and baseline-mode naming) and no solver queries
      // (covers prunes and asserts, whose feasibility is path-dependent).
      if (Fr.MemoCand && RS.Events.size() == Fr.EventsAtEntry &&
          Stats.SolverQueries == Fr.QueriesAtEntry && Ret)
        Memo.emplace(std::make_pair(Fr.F, std::move(Fr.MemoArgs)), Ret);
      Values.push_back(Ret);
      return;
    }
    }
  }
};

//===----------------------------------------------------------------------===//
// The driver: the path loop, then the trace merge.
//===----------------------------------------------------------------------===//
static bool eventEquals(const Event &A, const Event &B) {
  return A.K == B.K && A.R == B.R && A.Val == B.Val && A.Addr == B.Addr &&
         A.NBytes == B.NBytes && A.Var == B.Var && A.Expr == B.Expr;
}

/// Merges linear event paths (sharing deterministic prefixes) into a tree.
/// Violated merge invariants (only possible if path enumeration produced an
/// inconsistent set) are reported through \p Err instead of asserting, so a
/// Release build fails the run cleanly rather than mis-merging.
static Trace mergePaths(const std::vector<std::vector<Event>> &Paths,
                        std::vector<size_t> Members, size_t From,
                        std::string &Err) {
  Trace T;
  // Extend the common prefix.
  while (true) {
    const std::vector<Event> &First = Paths[Members[0]];
    bool AllHave = From < First.size();
    for (size_t M : Members)
      AllHave = AllHave && From < Paths[M].size() &&
                eventEquals(Paths[M][From], First[From]);
    if (!AllHave)
      break;
    T.Events.push_back(First[From]);
    ++From;
  }
  if (Members.size() == 1)
    return T; // exhausted a single path
  // Group by the divergence event (first-occurrence order).
  std::vector<std::vector<size_t>> Groups;
  for (size_t M : Members) {
    if (From >= Paths[M].size()) {
      Err = "internal: path is a strict prefix of another path";
      return T;
    }
    bool Placed = false;
    for (auto &G : Groups) {
      if (eventEquals(Paths[G[0]][From], Paths[M][From])) {
        G.push_back(M);
        Placed = true;
        break;
      }
    }
    if (!Placed)
      Groups.push_back({M});
  }
  if (Groups.size() <= 1) {
    Err = "internal: divergence with a single group";
    return T;
  }
  for (auto &G : Groups) {
    T.Cases.push_back(mergePaths(Paths, std::move(G), From, Err));
    if (!Err.empty())
      return T;
  }
  return T;
}

/// Installs the per-check solver guards for a run and computes its deadline.
/// The guards are not part of the trace-cache fingerprint: a guarded failure
/// is never cached, and a success is budget-independent.
static std::chrono::steady_clock::time_point
installGuards(smt::Solver &Solver, const ExecOptions &Opts) {
  Solver.setLimits(Opts.Limits, Opts.Cancel);

  auto Deadline = std::chrono::steady_clock::time_point::max();
  if (Opts.Limits.InstrSeconds > 0)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(Opts.Limits.InstrSeconds));
  return Deadline;
}

const Term *Executor::emitPreamble(const OpcodeSpec &Op, const Assumptions &A,
                                   RunState &RS,
                                   std::vector<const Term *> &OpVars) {
  OpVars.clear();
  // Assumption preamble: concrete assumed values first (Fig. 3 lines 2-3),
  // then constrained registers as declare/read/assume triples.
  for (const auto &[R, V] : A.Concrete) {
    RS.Events.push_back(Event::assumeReg(R, TB.constBV(V)));
    RS.RegCache[R] = TB.constBV(V);
  }
  for (const auto &[R, F] : A.Constraints) {
    if (!M.findRegister(R.Base)) {
      RS.failGuard(support::ErrorCode::UnknownRegister,
                   "constraint on unknown register " + R.Base);
      return nullptr;
    }
    unsigned W = registerWidth(M, R);
    const Term *V = pooledVar(Sort::bitvec(W), RS);
    const Term *P = F(TB, V);
    RS.Events.push_back(Event::declareConst(V));
    RS.Events.push_back(Event::readReg(R, V));
    RS.Events.push_back(Event::assumeE(P));
    RS.RegCache[R] = V;
    RS.ReadEmitted[R] = true;
    RS.PathCond.push_back(P);
  }

  // Build the opcode term: concrete segments folded, symbolic runs as
  // fresh variables (partially symbolic opcodes, §3).
  std::vector<const Term *> SegmentsLowFirst;
  unsigned I = 0;
  while (I < 32) {
    unsigned J = I;
    bool Sym = Op.SymMask.bit(I);
    while (J < 32 && Op.SymMask.bit(J) == Sym)
      ++J;
    if (Sym) {
      const Term *V = pooledVar(Sort::bitvec(J - I), RS);
      RS.Events.push_back(Event::declareConst(V));
      SegmentsLowFirst.push_back(V);
      OpVars.push_back(V);
    } else {
      SegmentsLowFirst.push_back(TB.constBV(Op.Bits.extract(J - 1, I)));
    }
    I = J;
  }
  const Term *Opcode = SegmentsLowFirst[0];
  for (size_t K = 1; K < SegmentsLowFirst.size(); ++K)
    Opcode = TB.concat(SegmentsLowFirst[K], Opcode);
  return Opcode;
}

ExecResult Executor::run(const OpcodeSpec &Op, const Assumptions &A,
                         const ExecOptions &Opts) {
  ExecResult Res;
  auto failRun = [&Res](support::ErrorCode C,
                        const std::string &Msg) -> ExecResult & {
    Res.Ok = false;
    Res.Error = Msg;
    Res.D = support::Diag::error(C, "executor", Msg);
    return Res;
  };

  // Chaos hooks: exec-throw exercises the batch driver's exception
  // containment, exec-step the ordinary Diag failure path.
  if (support::FaultInjector::fire(support::FaultSite::ExecThrow))
    throw std::runtime_error("injected executor fault (exec-throw)");
  if (support::FaultInjector::fire(support::FaultSite::ExecStep))
    return failRun(support::ErrorCode::InjectedFault,
                   "injected executor fault (exec-step)");

  auto Deadline = installGuards(Solver, Opts);

  const sail::FunctionDecl *Decode = M.findFunction("decode");
  if (!Decode || Decode->Params.size() != 1 ||
      Decode->Params[0].Ty != sail::Type::bits(32)) {
    return failRun(support::ErrorCode::ModelError,
                   "model has no decode(bits(32)) entry point");
  }

  ExecStats Stats;
  uint64_t MemoHitsBefore = Solver.stats().NumMemoHits;
  uint64_t StoreHitsBefore = Solver.stats().NumStoreHits;
  uint64_t CapHitsBefore =
      RW.fixpointCapHits() + Solver.stats().FixpointCapHits;

  // What every path starts from: the run's counters, the variable pool
  // shared by all paths (position-stable naming), and the guards.
  std::vector<const Term *> VarPool;
  RunState Base;
  Base.Opts = &Opts;
  Base.Stats = &Stats;
  Base.VarPool = &VarPool;
  Base.CancelFlag = Opts.Cancel.raw();
  Base.Deadline = Deadline;
  Machine Mc(*this, Base);

  // The first path runs the preamble and the decode entry; every later one
  // resumes the machine's next work item, a fork checkpoint extending that
  // shared prefix.
  std::vector<std::vector<Event>> PathEvents;
  do {
    // Budgets are checked before each path is (re)started.
    if (PathEvents.size() >= Opts.MaxPaths) {
      return failRun(support::ErrorCode::PathBudgetExceeded,
                     "path budget exceeded (model blow-up?)");
    }
    if (Opts.Cancel.cancelled())
      return failRun(support::ErrorCode::Cancelled,
                     "trace generation cancelled");
    if (Deadline != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() >= Deadline)
      return failRun(support::ErrorCode::DeadlineExceeded,
                     "trace generation deadline exceeded");

    if (!PathEvents.empty())
      Mc.resumeWork();
    else if (const Term *Opcode = emitPreamble(Op, A, Mc.RS, Res.OpcodeVars))
      Mc.enterFunction(*Decode, {Opcode});
    Mc.run();
    if (Mc.RS.failed())
      return failRun(Mc.RS.Code == support::ErrorCode::Ok
                         ? support::ErrorCode::ModelError
                         : Mc.RS.Code,
                     Mc.RS.Error);
    PathEvents.push_back(Mc.RS.Events); // copy: checkpoints share the prefix
  } while (!Mc.Work.empty());

  std::vector<size_t> All(PathEvents.size());
  for (size_t K = 0; K < All.size(); ++K)
    All[K] = K;
  std::string MergeErr;
  Res.Trace = mergePaths(PathEvents, std::move(All), 0, MergeErr);
  if (!MergeErr.empty())
    return failRun(support::ErrorCode::Internal, MergeErr);
  Stats.Paths = unsigned(PathEvents.size());
  Stats.Events = Res.Trace.countEvents();
  Stats.SolverMemoHits =
      unsigned(Solver.stats().NumMemoHits - MemoHitsBefore);
  Stats.SolverStoreHits =
      unsigned(Solver.stats().NumStoreHits - StoreHitsBefore);
  Stats.FixpointCapHits = RW.fixpointCapHits() +
                          Solver.stats().FixpointCapHits - CapHitsBefore;
  Res.Stats = Stats;
  Res.Ok = true;
  return Res;
}
