//===- smt/Evaluator.cpp - Concrete term evaluation -------------------------===//

#include "smt/Evaluator.h"

using namespace islaris;
using namespace islaris::smt;

namespace {

/// Iterative post-order evaluator with memoization.  The memo outlives one
/// run(), so a visitor evaluating several roots shares their subterms.
class EvalVisitor {
public:
  explicit EvalVisitor(const Env &E) : E(E) {}

  std::optional<Value> run(const Term *Root) {
    std::vector<std::pair<const Term *, bool>> Stack = {{Root, false}};
    while (!Stack.empty()) {
      auto [T, Expanded] = Stack.back();
      Stack.pop_back();
      if (Memo.count(T))
        continue;
      if (!Expanded) {
        Stack.push_back({T, true});
        for (const Term *Op : T->operands())
          Stack.push_back({Op, false});
        continue;
      }
      std::optional<Value> V = evalNode(T);
      if (!V)
        return std::nullopt;
      Memo.emplace(T, std::move(*V));
    }
    return Memo.at(Root);
  }

private:
  const Value &op(const Term *T, unsigned I) { return Memo.at(T->operand(I)); }
  const BitVec &bv(const Term *T, unsigned I) { return op(T, I).asBitVec(); }
  bool b(const Term *T, unsigned I) { return op(T, I).asBool(); }

  std::optional<Value> evalNode(const Term *T) {
    switch (T->kind()) {
    case Kind::ConstBV:
      return Value(T->constBV());
    case Kind::ConstBool:
      return Value(T->constBool());
    case Kind::Var: {
      auto It = E.find(T->varId());
      if (It == E.end())
        return std::nullopt;
      assert(It->second.sort() == T->sort() && "environment sort mismatch");
      return It->second;
    }
    case Kind::Not:
      return Value(!b(T, 0));
    case Kind::And:
      return Value(b(T, 0) && b(T, 1));
    case Kind::Or:
      return Value(b(T, 0) || b(T, 1));
    case Kind::Implies:
      return Value(!b(T, 0) || b(T, 1));
    case Kind::Ite:
      return b(T, 0) ? op(T, 1) : op(T, 2);
    case Kind::Eq:
      return Value(op(T, 0) == op(T, 1));
    case Kind::BVAdd:
      return Value(bv(T, 0).add(bv(T, 1)));
    case Kind::BVSub:
      return Value(bv(T, 0).sub(bv(T, 1)));
    case Kind::BVMul:
      return Value(bv(T, 0).mul(bv(T, 1)));
    case Kind::BVUDiv:
      return Value(bv(T, 0).udiv(bv(T, 1)));
    case Kind::BVURem:
      return Value(bv(T, 0).urem(bv(T, 1)));
    case Kind::BVSDiv:
      return Value(bv(T, 0).sdiv(bv(T, 1)));
    case Kind::BVSRem:
      return Value(bv(T, 0).srem(bv(T, 1)));
    case Kind::BVNeg:
      return Value(bv(T, 0).neg());
    case Kind::BVAnd:
      return Value(bv(T, 0).bvand(bv(T, 1)));
    case Kind::BVOr:
      return Value(bv(T, 0).bvor(bv(T, 1)));
    case Kind::BVXor:
      return Value(bv(T, 0).bvxor(bv(T, 1)));
    case Kind::BVNot:
      return Value(bv(T, 0).bvnot());
    case Kind::BVShl:
      return Value(bv(T, 0).shl(bv(T, 1)));
    case Kind::BVLShr:
      return Value(bv(T, 0).lshr(bv(T, 1)));
    case Kind::BVAShr:
      return Value(bv(T, 0).ashr(bv(T, 1)));
    case Kind::BVUlt:
      return Value(bv(T, 0).ult(bv(T, 1)));
    case Kind::BVUle:
      return Value(bv(T, 0).ule(bv(T, 1)));
    case Kind::BVSlt:
      return Value(bv(T, 0).slt(bv(T, 1)));
    case Kind::BVSle:
      return Value(bv(T, 0).sle(bv(T, 1)));
    case Kind::Extract:
      return Value(bv(T, 0).extract(T->attrA(), T->attrB()));
    case Kind::Concat:
      return Value(bv(T, 0).concat(bv(T, 1)));
    case Kind::ZeroExtend:
      return Value(bv(T, 0).zext(T->attrA()));
    case Kind::SignExtend:
      return Value(bv(T, 0).sext(T->attrA()));
    }
    assert(false && "unhandled term kind");
    return std::nullopt;
  }

  const Env &E;
  std::unordered_map<const Term *, Value> Memo;
};

} // namespace

std::optional<Value> islaris::smt::evaluate(const Term *T, const Env &E) {
  return EvalVisitor(E).run(T);
}

bool islaris::smt::satisfiesAll(const std::vector<const Term *> &Goals,
                                const Env &E) {
  EvalVisitor V(E);
  for (const Term *G : Goals) {
    std::optional<Value> R = V.run(G);
    if (!R || !R->asBool())
      return false;
  }
  return true;
}
