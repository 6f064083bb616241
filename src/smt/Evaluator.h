//===- smt/Evaluator.h - Concrete term evaluation --------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The big-step semantics e ↓ v of SMT expressions (used by the ITL
/// operational semantics of Fig. 10 and by property tests).
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SMT_EVALUATOR_H
#define ISLARIS_SMT_EVALUATOR_H

#include "smt/Term.h"

#include <optional>
#include <unordered_map>
#include <variant>

namespace islaris::smt {

/// A concrete SMT value: a bitvector or a boolean.
class Value {
public:
  Value() : V(false) {}
  Value(BitVec BV) : V(std::move(BV)) {}
  Value(bool B) : V(B) {}

  bool isBool() const { return std::holds_alternative<bool>(V); }
  bool isBitVec() const { return !isBool(); }
  bool asBool() const {
    assert(isBool() && "value is not a boolean");
    return std::get<bool>(V);
  }
  const BitVec &asBitVec() const {
    assert(isBitVec() && "value is not a bitvector");
    return std::get<BitVec>(V);
  }

  Sort sort() const {
    return isBool() ? Sort::boolean() : Sort::bitvec(asBitVec().width());
  }

  bool operator==(const Value &O) const { return V == O.V; }
  bool operator!=(const Value &O) const { return !(*this == O); }

  std::string toString() const {
    if (isBool())
      return asBool() ? "true" : "false";
    return asBitVec().toString();
  }

private:
  std::variant<BitVec, bool> V;
};

/// A variable assignment: var id -> concrete value.
using Env = std::unordered_map<uint32_t, Value>;

/// Evaluates terms under variable assignments.  One call memoizes its node
/// values in slots indexed by term id, valid while the slot's mark equals
/// the call's epoch, so a shared subterm is evaluated once per call and no
/// lookup hashes.  The slots are kept across calls (a new call only bumps
/// the epoch), so a caller that evaluates repeatedly holds one Evaluator:
/// every Solver does.  The terms of one call must come from one builder
/// (ids are dense per builder); successive calls may mix builders.
class Evaluator {
public:
  /// What a variable \p E does not assign evaluates to.
  enum class Unassigned : uint8_t {
    Fail, ///< the evaluation fails (nullopt / false)
    Zero, ///< zero / false, the default every model completion uses
  };

  /// Evaluates \p T under \p E.  Asserts on sort errors (terms are built
  /// well-sorted).
  std::optional<Value> evaluate(const Term *T, const Env &E,
                                Unassigned U = Unassigned::Fail);

  /// True iff every term of \p Goals evaluates to true under \p E.  The
  /// goals share one call's memo, so their common subterms are evaluated
  /// once; the pass stops at the first goal that is false or mentions an
  /// unassigned variable.
  bool satisfiesAll(const std::vector<const Term *> &Goals, const Env &E);

  /// Nodes evaluated over this Evaluator's lifetime (memo hits excluded).
  uint64_t nodesEvaluated() const { return NodesEvaluated; }

private:
  /// Starts a call whose largest term id is \p MaxId.
  void begin(const Env &E, Unassigned U, unsigned MaxId);
  /// Evaluates \p Root into its slot; false if a variable is unassigned.
  bool run(const Term *Root);
  std::optional<Value> evalNode(const Term *T);
  const Value &slot(const Term *T) const { return Vals[Slot[T->id()]]; }

  const Env *E = nullptr;
  Unassigned U = Unassigned::Fail;
  // Slot[id] indexes Vals while Mark[id] == Epoch.  A 16-bit mark keeps
  // the per-term cost at six bytes; the wrap, every 65535 calls, clears
  // the marks once.
  std::vector<uint16_t> Mark;
  std::vector<uint32_t> Slot;
  std::vector<Value> Vals;
  std::vector<std::pair<const Term *, bool>> Stack; ///< run()'s, reused
  uint16_t Epoch = 0;
  uint64_t NodesEvaluated = 0;
};

} // namespace islaris::smt

#endif // ISLARIS_SMT_EVALUATOR_H
