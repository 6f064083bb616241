//===- itl/OpSem.cpp - ITL operational semantics ------------------------------===//

#include "itl/OpSem.h"

using namespace islaris;
using namespace islaris::itl;
using smt::Value;

std::string Label::toString() const {
  switch (K) {
  case Kind::Read:
    return "R(" + Addr.toHexString() + ", " + Data.toString() + ")";
  case Kind::Write:
    return "W(" + Addr.toHexString() + ", " + Data.toString() + ")";
  case Kind::End:
    return "E(" + Addr.toHexString() + ")";
  }
  return "<label>";
}

bool MachineState::isMapped(uint64_t Addr, unsigned N) const {
  for (unsigned I = 0; I < N; ++I)
    if (!Mem.count(Addr + I))
      return false;
  return true;
}

BitVec MachineState::loadBytes(uint64_t Addr, unsigned N) const {
  assert(N >= 1 && isMapped(Addr, N) && "loadBytes of unmapped memory");
  std::vector<uint8_t> Bytes(N);
  for (unsigned I = 0; I < N; ++I)
    Bytes[I] = Mem.at(Addr + I);
  return BitVec::fromBytes(Bytes);
}

namespace {

/// Outcome of trying to evaluate an event operand.
struct EvalOut {
  bool Ok = false;
  Value V;
};

EvalOut tryEval(smt::Evaluator &Eval, const smt::Term *T,
                const smt::Env &Env) {
  auto R = Eval.evaluate(T, Env);
  if (!R)
    return {};
  return {true, *R};
}

} // namespace

void Interpreter::fetchNext(MachineState Sigma, std::vector<Label> Labels,
                            unsigned Fuel, std::vector<PathResult> &Out) {
  // step-nil / step-nil-end: read the PC, fetch the instruction trace.
  const Value *Pc = Sigma.getReg(Reg(Sigma.PcReg));
  if (!Pc || !Pc->isBitVec()) {
    Out.push_back({Outcome::Bottom, std::move(Labels), std::move(Sigma),
                   "PC register " + Sigma.PcReg + " is not a bitvector"});
    return;
  }
  if (!Pc->asBitVec().fitsUInt64()) {
    Out.push_back({Outcome::Bottom, std::move(Labels), std::move(Sigma),
                   "PC out of addressable range"});
    return;
  }
  uint64_t Addr = Pc->asBitVec().toUInt64();
  auto It = Sigma.Instrs.find(Addr);
  if (It == Sigma.Instrs.end()) {
    // step-nil-end: visible termination event E(a), configuration TOP.
    Labels.push_back(Label::end(BitVec(64, Addr)));
    Out.push_back({Outcome::Top, std::move(Labels), std::move(Sigma), ""});
    return;
  }
  if (Fuel == 0) {
    Out.push_back(
        {Outcome::OutOfFuel, std::move(Labels), std::move(Sigma), ""});
    return;
  }
  execTrace(*It->second, 0, std::move(Sigma), smt::Env(), std::move(Labels),
            Fuel - 1, /*FetchAtEnd=*/true, Out);
}

void Interpreter::execTrace(const Trace &T, size_t EventIdx,
                            MachineState Sigma, smt::Env Env,
                            std::vector<Label> Labels, unsigned Fuel,
                            bool FetchAtEnd, std::vector<PathResult> &Out) {
  auto bottom = [&](const std::string &Why) {
    Out.push_back({Outcome::Bottom, Labels, Sigma, Why});
  };
  auto top = [&]() { Out.push_back({Outcome::Top, Labels, Sigma, ""}); };
  auto stuck = [&](const std::string &Why) {
    Out.push_back({Outcome::Stuck, Labels, Sigma, Why});
  };

  for (size_t I = EventIdx; I < T.Events.size(); ++I) {
    const Event &E = T.Events[I];
    switch (E.K) {
    case EventKind::DeclareConst:
      // step-declare-const: the variable stays unbound until determined.
      break;

    case EventKind::DefineConst: {
      // step-define-const: e must evaluate (no forward references).
      EvalOut V = tryEval(Eval, E.Expr, Env);
      if (!V.Ok)
        return stuck("define-const of an undetermined expression");
      Env[E.Var->varId()] = V.V;
      break;
    }

    case EventKind::ReadReg: {
      const Value *RV = Sigma.getReg(E.R);
      if (!RV)
        // step-fail: no rule applies when the register is absent.
        return bottom("read of absent register " + E.R.toString());
      if (E.Val->isVar() && !Env.count(E.Val->varId())) {
        // Lazy resolution of step-declare-const: only the binding that
        // makes step-read-reg-eq applicable avoids TOP.
        Env[E.Val->varId()] = *RV;
        break;
      }
      EvalOut V = tryEval(Eval, E.Val, Env);
      if (!V.Ok)
        return stuck("read-reg with undetermined value pattern");
      if (V.V != *RV)
        return top(); // step-read-reg-neq
      break;          // step-read-reg-eq
    }

    case EventKind::AssumeReg: {
      // step-assume-reg-true, else step-fail (this is how Isla's
      // assumptions become proof obligations).
      const Value *RV = Sigma.getReg(E.R);
      EvalOut V = tryEval(Eval, E.Val, Env);
      if (!V.Ok)
        return stuck("assume-reg with undetermined value");
      if (!RV || V.V != *RV)
        return bottom("assume-reg violated for " + E.R.toString());
      break;
    }

    case EventKind::WriteReg: {
      EvalOut V = tryEval(Eval, E.Val, Env);
      if (!V.Ok)
        return stuck("write-reg of undetermined value");
      Sigma.setReg(E.R, V.V);
      break;
    }

    case EventKind::ReadMem: {
      EvalOut A = tryEval(Eval, E.Addr, Env);
      if (!A.Ok)
        return stuck("read-mem with undetermined address");
      if (!A.V.asBitVec().fitsUInt64())
        return bottom("read-mem address out of range");
      uint64_t Addr = A.V.asBitVec().toUInt64();
      if (Sigma.isMapped(Addr, E.NBytes)) {
        BitVec Stored = Sigma.loadBytes(Addr, E.NBytes);
        if (E.Val->isVar() && !Env.count(E.Val->varId())) {
          Env[E.Val->varId()] = Value(Stored);
          break; // step-read-mem-eq via the only non-TOP binding
        }
        EvalOut V = tryEval(Eval, E.Val, Env);
        if (!V.Ok)
          return stuck("read-mem with undetermined value pattern");
        if (V.V != Value(Stored))
          return top(); // step-read-mem-neq
        break;
      }
      // step-read-mem-event: unmapped memory is a visible MMIO read; the
      // device (oracle) chooses the value.
      BitVec Data;
      if (E.Val->isVar() && !Env.count(E.Val->varId())) {
        if (!Oracle)
          return stuck("MMIO read without an oracle");
        Data = Oracle->mmioRead(Addr, E.NBytes);
        assert(Data.width() == E.NBytes * 8 && "oracle width mismatch");
        Env[E.Val->varId()] = Value(Data);
      } else {
        EvalOut V = tryEval(Eval, E.Val, Env);
        if (!V.Ok)
          return stuck("MMIO read with undetermined value pattern");
        Data = V.V.asBitVec();
      }
      Labels.push_back(Label::read(BitVec(64, Addr), Data));
      break;
    }

    case EventKind::WriteMem: {
      EvalOut A = tryEval(Eval, E.Addr, Env);
      EvalOut V = tryEval(Eval, E.Val, Env);
      if (!A.Ok || !V.Ok)
        return stuck("write-mem with undetermined operands");
      if (!A.V.asBitVec().fitsUInt64())
        return bottom("write-mem address out of range");
      uint64_t Addr = A.V.asBitVec().toUInt64();
      assert(V.V.asBitVec().width() == E.NBytes * 8 &&
             "write-mem width mismatch");
      if (Sigma.isMapped(Addr, E.NBytes)) {
        Sigma.storeBytes(Addr, V.V.asBitVec().toBytes()); // step-write-mem
      } else {
        // step-write-mem-event: visible MMIO write.
        Labels.push_back(Label::write(BitVec(64, Addr), V.V.asBitVec()));
      }
      break;
    }

    case EventKind::Assert: {
      EvalOut V = tryEval(Eval, E.Expr, Env);
      if (!V.Ok)
        return stuck("assert of undetermined expression");
      if (!V.V.asBool())
        return top(); // step-assert-false
      break;          // step-assert-true
    }

    case EventKind::Assume: {
      EvalOut V = tryEval(Eval, E.Expr, Env);
      if (!V.Ok)
        return stuck("assume of undetermined expression");
      if (!V.V.asBool())
        return bottom("assume violated"); // step-fail
      break;                              // step-assume-true
    }
    }
  }

  if (T.hasCases()) {
    // step-cases: explore every subtrace with the full current state.
    for (const Trace &Sub : T.Cases)
      execTrace(Sub, 0, Sigma, Env, Labels, Fuel, FetchAtEnd, Out);
    return;
  }

  if (FetchAtEnd)
    return fetchNext(std::move(Sigma), std::move(Labels), Fuel, Out);
  Out.push_back({Outcome::Top, std::move(Labels), std::move(Sigma), ""});
}

std::vector<PathResult> Interpreter::runTrace(const Trace &T,
                                              MachineState Sigma) {
  std::vector<PathResult> Out;
  execTrace(T, 0, std::move(Sigma), smt::Env(), {}, 0, /*FetchAtEnd=*/false,
            Out);
  return Out;
}

std::vector<PathResult> Interpreter::runProgram(MachineState Sigma,
                                                unsigned MaxInstrs) {
  std::vector<PathResult> Out;
  fetchNext(std::move(Sigma), {}, MaxInstrs, Out);
  return Out;
}
