//===- smt/Evaluator.cpp - Concrete term evaluation -------------------------===//

#include "smt/Evaluator.h"

#include <algorithm>

using namespace islaris;
using namespace islaris::smt;

void Evaluator::begin(const Env &Env, Unassigned Mode, unsigned MaxId) {
  E = &Env;
  U = Mode;
  if (Mark.size() <= MaxId) {
    Mark.resize(MaxId + 1, 0);
    Slot.resize(MaxId + 1);
  }
  if (++Epoch == 0) { // wrapped: forget every old mark
    std::fill(Mark.begin(), Mark.end(), 0);
    Epoch = 1;
  }
  Vals.clear();
}

bool Evaluator::run(const Term *Root) {
  // Iterative post-order.  Operands have smaller ids than the terms built
  // over them, so begin() sized the slots for every node below the roots.
  Stack.assign(1, {Root, false});
  while (!Stack.empty()) {
    auto [T, Expanded] = Stack.back();
    Stack.pop_back();
    if (Mark[T->id()] == Epoch)
      continue;
    if (!Expanded) {
      Stack.push_back({T, true});
      for (const Term *Op : T->operands())
        if (Mark[Op->id()] != Epoch)
          Stack.push_back({Op, false});
      continue;
    }
    std::optional<Value> V = evalNode(T);
    if (!V)
      return false;
    ++NodesEvaluated;
    Mark[T->id()] = Epoch;
    Slot[T->id()] = uint32_t(Vals.size());
    Vals.push_back(std::move(*V));
  }
  return true;
}

std::optional<Value> Evaluator::evaluate(const Term *T, const Env &Env,
                                         Unassigned Mode) {
  if (T->numOperands() == 0) { // a leaf needs no memo
    E = &Env;
    U = Mode;
    ++NodesEvaluated;
    return evalNode(T);
  }
  begin(Env, Mode, T->id());
  if (!run(T))
    return std::nullopt;
  return slot(T);
}

bool Evaluator::satisfiesAll(const std::vector<const Term *> &Goals,
                             const Env &Env) {
  if (Goals.empty())
    return true;
  unsigned MaxId = 0;
  for (const Term *G : Goals)
    MaxId = std::max(MaxId, G->id());
  begin(Env, Unassigned::Fail, MaxId);
  for (const Term *G : Goals)
    if (!run(G) || !slot(G).asBool())
      return false;
  return true;
}

std::optional<Value> Evaluator::evalNode(const Term *T) {
  auto op = [&](unsigned I) -> const Value & { return slot(T->operand(I)); };
  auto bv = [&](unsigned I) -> const BitVec & { return op(I).asBitVec(); };
  auto b = [&](unsigned I) { return op(I).asBool(); };
  switch (T->kind()) {
  case Kind::ConstBV:
    return Value(T->constBV());
  case Kind::ConstBool:
    return Value(T->constBool());
  case Kind::Var: {
    auto It = E->find(T->varId());
    if (It == E->end()) {
      if (U == Unassigned::Fail)
        return std::nullopt;
      return T->isBool() ? Value(false) : Value(BitVec::zeros(T->width()));
    }
    assert(It->second.sort() == T->sort() && "environment sort mismatch");
    return It->second;
  }
  case Kind::Not:
    return Value(!b(0));
  case Kind::And:
    return Value(b(0) && b(1));
  case Kind::Or:
    return Value(b(0) || b(1));
  case Kind::Implies:
    return Value(!b(0) || b(1));
  case Kind::Ite:
    return b(0) ? op(1) : op(2);
  case Kind::Eq:
    return Value(op(0) == op(1));
  case Kind::BVAdd:
    return Value(bv(0).add(bv(1)));
  case Kind::BVSub:
    return Value(bv(0).sub(bv(1)));
  case Kind::BVMul:
    return Value(bv(0).mul(bv(1)));
  case Kind::BVUDiv:
    return Value(bv(0).udiv(bv(1)));
  case Kind::BVURem:
    return Value(bv(0).urem(bv(1)));
  case Kind::BVSDiv:
    return Value(bv(0).sdiv(bv(1)));
  case Kind::BVSRem:
    return Value(bv(0).srem(bv(1)));
  case Kind::BVNeg:
    return Value(bv(0).neg());
  case Kind::BVAnd:
    return Value(bv(0).bvand(bv(1)));
  case Kind::BVOr:
    return Value(bv(0).bvor(bv(1)));
  case Kind::BVXor:
    return Value(bv(0).bvxor(bv(1)));
  case Kind::BVNot:
    return Value(bv(0).bvnot());
  case Kind::BVShl:
    return Value(bv(0).shl(bv(1)));
  case Kind::BVLShr:
    return Value(bv(0).lshr(bv(1)));
  case Kind::BVAShr:
    return Value(bv(0).ashr(bv(1)));
  case Kind::BVUlt:
    return Value(bv(0).ult(bv(1)));
  case Kind::BVUle:
    return Value(bv(0).ule(bv(1)));
  case Kind::BVSlt:
    return Value(bv(0).slt(bv(1)));
  case Kind::BVSle:
    return Value(bv(0).sle(bv(1)));
  case Kind::Extract:
    return Value(bv(0).extract(T->attrA(), T->attrB()));
  case Kind::Concat:
    return Value(bv(0).concat(bv(1)));
  case Kind::ZeroExtend:
    return Value(bv(0).zext(T->attrA()));
  case Kind::SignExtend:
    return Value(bv(0).sext(T->attrA()));
  }
  assert(false && "unhandled term kind");
  return std::nullopt;
}
