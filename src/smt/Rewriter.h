//===- smt/Rewriter.h - Algebraic term simplification ----------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bottom-up algebraic simplification of QF_BV terms.  Isla performs
/// "additional simplification of traces" (§3); this rewriter implements the
/// rules needed both for that trace simplification and for cheap discharge
/// of separation-logic side conditions before falling back to the SAT-based
/// solver.  All rules are semantics-preserving; soundness is property-tested
/// against the concrete evaluator.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SMT_REWRITER_H
#define ISLARIS_SMT_REWRITER_H

#include "smt/TermBuilder.h"

#include <unordered_map>

namespace islaris::smt {

/// A memoizing bottom-up simplifier.  Create one per builder; the memo cache
/// persists across calls.
class Rewriter {
public:
  explicit Rewriter(TermBuilder &TB) : TB(TB) {}

  /// Returns a simplified term equivalent to \p T.
  const Term *simplify(const Term *T);

  /// Times the root-rule loop exhausted its 64-iteration defensive cap and
  /// returned a term that might not be fully normalized.  Persistently zero
  /// in a healthy rule set; a nonzero value after a rules change means two
  /// rules are ping-ponging (a regression that was previously silent).
  /// Surfaced through SolverStats/ExecStats as FixpointCapHits.
  uint64_t fixpointCapHits() const { return CapHits; }

private:
  /// Applies root rules to an already-children-simplified term; returns the
  /// input if no rule fires.
  const Term *applyRules(const Term *T);

  TermBuilder &TB;
  std::unordered_map<const Term *, const Term *> Memo;
  uint64_t CapHits = 0;
};

} // namespace islaris::smt

#endif // ISLARIS_SMT_REWRITER_H
