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

/// Evaluates \p T under \p E.  Returns nullopt if a variable is unassigned.
/// Asserts on sort errors (terms are built well-sorted).
std::optional<Value> evaluate(const Term *T, const Env &E);

/// True iff every term of \p Goals evaluates to true under \p E.  The goals
/// are evaluated in one pass whose memo is shared across them, so the
/// subterms they have in common are evaluated once; the pass stops at the
/// first goal that is false or mentions an unassigned variable.
bool satisfiesAll(const std::vector<const Term *> &Goals, const Env &E);

} // namespace islaris::smt

#endif // ISLARIS_SMT_EVALUATOR_H
