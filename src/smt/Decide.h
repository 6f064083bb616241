//===- smt/Decide.h - Unsat-only decision tier -----------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A refutation procedure that Solver::check runs on a residual goal set
/// after a memo and store miss, before the SAT core.  It answers only
/// "unsatisfiable" or "don't know"; every Sat answer and model still comes
/// from the core, on the original goals.
///
/// Three steps, each on a private copy of the goals in a scratch
/// TermBuilder (the caller's builder and its Rewriter are never touched):
///
///  1. Normalise: eliminate definitions `v = t`, lift operators over ite
///     trees whose leaves are constants, substitute top-level literals into
///     the other goals' Boolean structure, fold `a < b ∨ a = b` to `a ≤ b`,
///     and decide bitvector equalities whose linear normal forms (a sum of
///     coefficient × atom plus a constant, mod 2^w) differ by a constant.
///  2. Order closure: the signed and unsigned ≤/</=/≠ literals between
///     terms and constants are contradictory if they form a strict cycle,
///     or put a ≠ between two terms on a ≤-cycle.  A disjunction each of
///     whose disjuncts closes the order this way refutes the goals too.
///  3. Tiny-domain split: variables with small unsigned bounds (from
///     `x + k ≤u c`, `x + k <u c`, and `x ≤u y` with `y` bounded) are
///     enumerated when the product of their domains is at most 64; the
///     goals are refuted only if steps 1–2 refute every assignment.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SMT_DECIDE_H
#define ISLARIS_SMT_DECIDE_H

#include "smt/Term.h"

#include <vector>

namespace islaris::smt {

/// True only if the conjunction of \p Goals (Boolean terms) is
/// unsatisfiable.  False means "not refuted", not "satisfiable".  Goal sets
/// without an order literal or an arithmetic equality are rejected by an
/// O(goals) shape check before any work is done.
bool decideUnsat(const std::vector<const Term *> &Goals);

} // namespace islaris::smt

#endif // ISLARIS_SMT_DECIDE_H
