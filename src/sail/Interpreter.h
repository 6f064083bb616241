//===- sail/Interpreter.h - Concrete mini-Sail execution --------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct (concrete) semantics of mini-Sail models, executing against an
/// itl::MachineState.  This is the reference semantics used by translation
/// validation (§5) and by differential tests of the symbolic executor: the
/// same instruction run (a) concretely here and (b) via its Isla trace under
/// the ITL semantics must agree on final states and visible labels.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SAIL_INTERPRETER_H
#define ISLARIS_SAIL_INTERPRETER_H

#include "itl/OpSem.h"
#include "sail/Ast.h"

#include <optional>

namespace islaris::sail {

/// Outcome of executing a model function.
struct ExecResult {
  bool Ok = false;
  std::string Error; ///< throw()/assert message or runtime error.
};

/// Concrete interpreter over a resolved Model.  Mutates the MachineState
/// passed to callFunction; unmapped memory accesses go through the MMIO
/// oracle and are recorded as labels, mirroring Fig. 10.
class Interpreter {
public:
  Interpreter(const Model &M, itl::MmioOracle *Oracle = nullptr)
      : M(M), Oracle(Oracle) {}

  /// Calls \p Name with \p Args against \p State.  The conventional entry
  /// point for one instruction is callFunction("decode", {opcode}, State).
  ExecResult callFunction(const std::string &Name,
                          const std::vector<smt::Value> &Args,
                          itl::MachineState &State);

  /// Visible MMIO labels accumulated since construction.
  const std::vector<itl::Label> &labels() const { return Labels; }

private:
  struct Frame {
    std::vector<std::optional<smt::Value>> Locals;
  };
  enum class FlowKind { Normal, Returned };

  /// Statement execution; Returned carries the value in RetVal.
  std::optional<FlowKind> execStmt(const Stmt &S, Frame &F,
                                   itl::MachineState &State);
  std::optional<smt::Value> evalExpr(const Expr &E, Frame &F,
                                     itl::MachineState &State);
  std::optional<smt::Value> callImpl(const FunctionDecl &Fn,
                                     std::vector<smt::Value> Args,
                                     itl::MachineState &State);
  bool err(int Line, const std::string &Msg);

  const Model &M;
  itl::MmioOracle *Oracle;
  std::vector<itl::Label> Labels;
  std::string Error;
  smt::Value RetVal;
  unsigned Depth = 0;
};

} // namespace islaris::sail

#endif // ISLARIS_SAIL_INTERPRETER_H
