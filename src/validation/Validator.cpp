//===- validation/Validator.cpp - Trace translation validation -----------------===//

#include "validation/Validator.h"

#include "sail/Interpreter.h"
#include "smt/Evaluator.h"

#include <chrono>
#include <random>

using namespace islaris;
using namespace islaris::validation;
using islaris::itl::Event;
using islaris::itl::EventKind;
using islaris::itl::Label;
using islaris::itl::MachineState;
using islaris::itl::Reg;
using islaris::itl::Trace;
using smt::Term;
using smt::Value;

namespace {

/// Deterministic memoizing MMIO oracle shared by the concrete and ITL
/// runs so both observe the same device values.
class MemoOracle : public itl::MmioOracle {
public:
  explicit MemoOracle(uint64_t Seed) : Rng(Seed) {}
  BitVec mmioRead(uint64_t Addr, unsigned NBytes) override {
    auto Key = std::make_pair(Addr, NBytes);
    auto It = Memo.find(Key);
    if (It != Memo.end())
      return It->second;
    BitVec V = BitVec(NBytes * 8, Rng());
    Memo.emplace(Key, V);
    return V;
  }

private:
  struct H {
    size_t operator()(const std::pair<uint64_t, unsigned> &P) const {
      return std::hash<uint64_t>()(P.first) * 31 + P.second;
    }
  };
  std::mt19937_64 Rng;
  std::unordered_map<std::pair<uint64_t, unsigned>, BitVec, H> Memo;
};

/// Flattens the trace tree into its linear paths.
void collectPaths(const Trace &T, std::vector<const Event *> Prefix,
                  std::vector<std::vector<const Event *>> &Out) {
  for (const Event &E : T.Events)
    Prefix.push_back(&E);
  if (!T.hasCases()) {
    Out.push_back(std::move(Prefix));
    return;
  }
  for (const Trace &Sub : T.Cases)
    collectPaths(Sub, Prefix, Out);
}

/// A fully initialized random machine state covering every register the
/// model declares.
MachineState baseState(const sail::Model &M, const std::string &PcName,
                       std::mt19937_64 &Rng) {
  MachineState S;
  S.PcReg = PcName;
  for (const sail::RegisterDecl &R : M.Registers) {
    if (R.IsStruct) {
      for (const auto &[F, W] : R.Fields)
        S.setReg(Reg(R.Name, F), Value(BitVec(W, Rng())));
    } else {
      S.setReg(Reg(R.Name), Value(BitVec(R.Width, Rng())));
    }
  }
  // Keep the PC sane (aligned, away from the address-space edges).
  S.setReg(Reg(PcName), Value(BitVec(64, (Rng() & 0xfffffff0ull) + 0x10000)));
  return S;
}

/// Compares a concrete run against all ITL paths: no BOTTOM/STUCK, and
/// some path reproduces the concrete final state and labels.
bool agree(const MachineState &ConcreteFinal,
           const std::vector<Label> &ConcreteLabels,
           const std::vector<itl::PathResult> &TracePaths,
           std::string &Error) {
  for (const auto &P : TracePaths) {
    if (P.Out == itl::Outcome::Bottom || P.Out == itl::Outcome::Stuck) {
      Error = "trace path reached " +
              std::string(P.Out == itl::Outcome::Bottom ? "BOTTOM" : "STUCK") +
              ": " + P.Reason;
      return false;
    }
  }
  for (const auto &P : TracePaths) {
    if (P.Labels.size() != ConcreteLabels.size())
      continue;
    bool LabelsEq = true;
    for (size_t I = 0; I < P.Labels.size(); ++I)
      LabelsEq = LabelsEq && P.Labels[I] == ConcreteLabels[I];
    if (!LabelsEq)
      continue;
    if (P.Final.Regs.size() != ConcreteFinal.Regs.size())
      continue;
    bool RegsEq = true;
    for (const auto &[R, V] : ConcreteFinal.Regs) {
      const Value *PV = P.Final.getReg(R);
      RegsEq = RegsEq && PV && *PV == V;
    }
    if (!RegsEq)
      continue;
    if (P.Final.Mem != ConcreteFinal.Mem)
      continue;
    return true;
  }
  Error = "no trace path reproduces the concrete execution";
  return false;
}

/// Runs one concrete-vs-trace comparison from \p Init.
bool runComparison(const sail::Model &M, smt::TermBuilder &TB,
                   uint32_t Opcode, const Trace &T, MachineState Init,
                   uint64_t OracleSeed, std::string &Error) {
  MemoOracle OracleA(OracleSeed), OracleB(OracleSeed);
  MachineState ForModel = Init;
  sail::Interpreter CI(M, &OracleA);
  auto CR = CI.callFunction("decode", {Value(BitVec(32, Opcode))}, ForModel);
  if (!CR.Ok) {
    Error = "concrete model raised an exception the trace does not have: " +
            CR.Error;
    return false;
  }
  itl::Interpreter TI(TB, &OracleB);
  auto Paths = TI.runTrace(T, std::move(Init));
  return agree(ForModel, CI.labels(), Paths, Error);
}

} // namespace

ValidationResult islaris::validation::validateInstruction(
    const sail::Model &M, smt::TermBuilder &TB, uint32_t Opcode,
    const isla::Assumptions &A, const Trace &T, const std::string &PcName,
    unsigned RandomTrials, uint64_t Seed, const support::RunLimits &Limits,
    support::CancelToken Cancel) {
  using support::Diag;
  using support::ErrorCode;
  ValidationResult Res;
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 1);

  std::vector<std::vector<const Event *>> Paths;
  collectPaths(T, {}, Paths);
  Res.Paths = unsigned(Paths.size());

  smt::Solver Solver(TB);

  // Resource guards (ROADMAP follow-up): the harness's RunLimits bound the
  // internal solver per check(), InstrSeconds caps the whole validation's
  // wall clock, and the CancelToken is polled between trials (the solver
  // polls it inside checks).
  Solver.setLimits(Limits, Cancel);
  auto Start = std::chrono::steady_clock::now();
  auto guardFired = [&]() {
    if (Cancel.cancelled()) {
      Res.D = Diag::error(ErrorCode::Cancelled, "validation",
                          "validation cancelled");
      Res.Error = Res.D.Message;
      return true;
    }
    if (Limits.InstrSeconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
                .count() > Limits.InstrSeconds) {
      Res.D = Diag::error(ErrorCode::DeadlineExceeded, "validation",
                          "validation deadline exceeded");
      Res.Error = Res.D.Message;
      return true;
    }
    return false;
  };

  // Per-path witness states.
  for (const auto &Path : Paths) {
    if (guardFired())
      return Res;
    // Gather the path condition and the read bindings.
    std::vector<const Term *> Cond;
    std::vector<std::pair<Reg, const Term *>> RegReads;
    std::vector<std::pair<const Term *, const Term *>> MemReads; // (v, addr)
    std::vector<unsigned> MemReadSizes;
    std::unordered_map<Reg, bool, itl::RegHash> SeenReg;
    for (const Event *E : Path) {
      switch (E->K) {
      case EventKind::Assert:
      case EventKind::Assume:
        Cond.push_back(E->Expr);
        break;
      case EventKind::ReadReg:
        if (E->Val->isVar() && !SeenReg[E->R]) {
          RegReads.emplace_back(E->R, E->Val);
          SeenReg[E->R] = true;
        }
        break;
      case EventKind::ReadMem:
        MemReads.emplace_back(E->Val, E->Addr);
        MemReadSizes.push_back(E->NBytes);
        break;
      default:
        break;
      }
    }
    if (Solver.check(Cond) != smt::Result::Sat) {
      // Unreachable under the recorded conditions alone; executors only
      // emit feasible paths, so treat as covered-vacuous.
      ++Res.PathsCovered;
      continue;
    }
    // Model values for every variable mentioned on the path.
    smt::Env Env;
    auto addVarsOf = [&](const Term *X) {
      for (const Term *V : smt::collectVars(X))
        if (!Env.count(V->varId()))
          Env[V->varId()] = Solver.modelValue(V);
    };
    for (const Term *C : Cond)
      addVarsOf(C);
    for (const auto &[R, V] : RegReads)
      addVarsOf(V);
    for (size_t I = 0; I < MemReads.size(); ++I) {
      addVarsOf(MemReads[I].first);
      addVarsOf(MemReads[I].second);
    }

    MachineState Init = baseState(M, PcName, Rng);
    for (const auto &[R, C] : A.Concrete)
      Init.setReg(R, Value(C));
    for (const auto &[R, V] : RegReads) {
      auto It = Env.find(V->varId());
      if (It != Env.end())
        Init.setReg(R, It->second);
    }
    bool Consistent = true;
    for (size_t I = 0; I < MemReads.size(); ++I) {
      auto AV = Solver.evaluator().evaluate(MemReads[I].second, Env);
      auto DV = Solver.evaluator().evaluate(MemReads[I].first, Env);
      if (!AV || !DV || !AV->asBitVec().fitsUInt64()) {
        Consistent = false;
        break;
      }
      uint64_t Addr = AV->asBitVec().toUInt64();
      std::vector<uint8_t> Bytes = DV->asBitVec().toBytes();
      for (size_t B = 0; B < Bytes.size(); ++B) {
        auto It = Init.Mem.find(Addr + B);
        if (It != Init.Mem.end() && It->second != Bytes[B]) {
          Consistent = false; // overlapping reads with conflicting values
          break;
        }
        Init.Mem[Addr + B] = Bytes[B];
      }
    }
    if (!Consistent)
      continue;

    std::string Error;
    ++Res.Trials;
    if (!runComparison(M, TB, Opcode, T, std::move(Init), Seed ^ Rng(),
                       Error)) {
      Res.Error = "path witness: " + Error;
      Res.D = Diag::error(ErrorCode::ModelError, "validation", Res.Error);
      return Res;
    }
    ++Res.PathsCovered;
  }

  // Randomized trials (respecting the concrete assumptions; constrained
  // registers get a solver witness of their constraint).
  for (unsigned Trial = 0; Trial < RandomTrials; ++Trial) {
    if (guardFired())
      return Res;
    MachineState Init = baseState(M, PcName, Rng);
    for (const auto &[R, C] : A.Concrete)
      Init.setReg(R, Value(C));
    for (const auto &[R, F] : A.Constraints) {
      const Value *Cur = Init.getReg(R);
      assert(Cur && "constraint on an undeclared register");
      const Term *V = TB.freshVar(
          smt::Sort::bitvec(Cur->asBitVec().width()), "wit");
      if (Solver.check({F(TB, V)}) == smt::Result::Sat)
        Init.setReg(R, Solver.modelValue(V));
    }
    std::string Error;
    ++Res.Trials;
    if (!runComparison(M, TB, Opcode, T, std::move(Init), Seed ^ Rng(),
                       Error)) {
      Res.Error = "random trial: " + Error;
      Res.D = Diag::error(ErrorCode::ModelError, "validation", Res.Error);
      return Res;
    }
  }

  Res.Ok = true;
  return Res;
}
