//===- smt/TermBuilder.h - Hash-consing term factory -----------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factory and owner for Term nodes.  All construction goes through here so
/// that structurally equal terms are pointer-equal.  Construction performs
/// only trivial constant folding; deeper simplification lives in Rewriter.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SMT_TERMBUILDER_H
#define ISLARIS_SMT_TERMBUILDER_H

#include "smt/Term.h"

#include <memory>
#include <unordered_map>

namespace islaris::smt {

/// Owns and uniques Term nodes.  Not thread-safe; one builder per pipeline.
class TermBuilder {
public:
  TermBuilder();
  ~TermBuilder();
  TermBuilder(const TermBuilder &) = delete;
  TermBuilder &operator=(const TermBuilder &) = delete;

  //===------------------------------------------------------------------===//
  // Leaves.
  //===------------------------------------------------------------------===//

  const Term *constBV(const BitVec &V);
  const Term *constBV(unsigned Width, uint64_t V) {
    return constBV(BitVec(Width, V));
  }
  const Term *constBool(bool V);
  const Term *trueTerm() { return constBool(true); }
  const Term *falseTerm() { return constBool(false); }

  /// Creates a fresh variable with an automatically numbered name
  /// ("v0", "v1", ...), matching Isla's naming scheme.
  const Term *freshVar(Sort S);
  /// Creates a fresh variable with an explicit display name.
  const Term *freshVar(Sort S, const std::string &Name);
  /// Looks up a previously created variable by id; null if unknown.
  const Term *varById(uint32_t Id) const;

  //===------------------------------------------------------------------===//
  // Boolean layer.
  //===------------------------------------------------------------------===//

  const Term *notTerm(const Term *T);
  const Term *andTerm(const Term *L, const Term *R);
  const Term *orTerm(const Term *L, const Term *R);
  const Term *impliesTerm(const Term *L, const Term *R);
  const Term *iteTerm(const Term *C, const Term *T, const Term *E);
  const Term *eqTerm(const Term *L, const Term *R);
  const Term *distinctTerm(const Term *L, const Term *R) {
    return notTerm(eqTerm(L, R));
  }

  //===------------------------------------------------------------------===//
  // Bitvector layer.
  //===------------------------------------------------------------------===//

  const Term *bvAdd(const Term *L, const Term *R);
  const Term *bvSub(const Term *L, const Term *R);
  const Term *bvMul(const Term *L, const Term *R);
  const Term *bvUDiv(const Term *L, const Term *R);
  const Term *bvURem(const Term *L, const Term *R);
  const Term *bvSDiv(const Term *L, const Term *R);
  const Term *bvSRem(const Term *L, const Term *R);
  const Term *bvNeg(const Term *T);
  const Term *bvAnd(const Term *L, const Term *R);
  const Term *bvOr(const Term *L, const Term *R);
  const Term *bvXor(const Term *L, const Term *R);
  const Term *bvNot(const Term *T);
  const Term *bvShl(const Term *L, const Term *R);
  const Term *bvLShr(const Term *L, const Term *R);
  const Term *bvAShr(const Term *L, const Term *R);
  const Term *bvUlt(const Term *L, const Term *R);
  const Term *bvUle(const Term *L, const Term *R);
  const Term *bvSlt(const Term *L, const Term *R);
  const Term *bvSle(const Term *L, const Term *R);

  const Term *extract(unsigned Hi, unsigned Lo, const Term *T);
  const Term *concat(const Term *Hi, const Term *Lo);
  const Term *zeroExtend(unsigned Extra, const Term *T);
  const Term *signExtend(unsigned Extra, const Term *T);
  /// Zero-extends or truncates \p T to exactly \p Width bits.
  const Term *zextTo(unsigned Width, const Term *T);

  /// A node of \p Shape's kind (and extract/extension attributes) over
  /// \p Ops, built through the folding constructors above.  Leaves return
  /// \p Shape itself.  \p Shape may belong to another builder.
  const Term *rebuild(const Term *Shape, const std::vector<const Term *> &Ops);

  /// Substitutes variables in \p T according to \p Map (varId -> term).
  /// Unmapped variables are left in place.
  const Term *substitute(const Term *T,
                         const std::unordered_map<uint32_t, const Term *> &Map);

  /// Number of terms created so far (diagnostics / stats).
  unsigned numTerms() const { return NextId; }
  uint32_t numVars() const { return NextVarId; }

private:
  const Term *make(Kind K, Sort Ty, std::vector<const Term *> Ops,
                   const BitVec &Const, const std::string &Name, uint32_t A,
                   uint32_t B);
  const Term *binOp(Kind K, Sort Ty, const Term *L, const Term *R);

  struct Key;
  struct KeyHash;
  struct KeyEq;
  std::vector<std::unique_ptr<Term>> Terms;
  std::unordered_map<size_t, std::vector<const Term *>> Table;
  std::vector<const Term *> VarsById;
  unsigned NextId = 0;
  uint32_t NextVarId = 0;
};

} // namespace islaris::smt

#endif // ISLARIS_SMT_TERMBUILDER_H
