//===- smt/BitBlaster.h - QF_BV to CNF translation -------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tseitin-style translation of QF_BV terms to CNF over a sat::Solver.
/// Each bitvector term maps to a little-endian vector of literals; each
/// boolean term to a single literal.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SMT_BITBLASTER_H
#define ISLARIS_SMT_BITBLASTER_H

#include "smt/Evaluator.h"
#include "smt/Sat.h"
#include "smt/Term.h"

#include <unordered_map>
#include <utility>
#include <vector>

namespace islaris::smt {

/// Translation-reuse counters: how much of the CNF built for earlier checks
/// was shared by later ones (a long-lived blaster makes TermsReused grow).
struct BlastStats {
  uint64_t TermsBlasted = 0; ///< Cache misses: terms translated to clauses.
  uint64_t TermsReused = 0;  ///< Cache hits: existing circuits reused.
};

/// Translates terms into clauses of an underlying SAT solver.  Terms are
/// hash-consed, so the per-instance caches stay valid for as long as the
/// TermBuilder lives: a blaster shared across checks reuses every circuit
/// it has ever built.  Below the terms, gates are shared too: each gate is
/// keyed on its normalised inputs, so two equal gates, from different terms
/// or different checks, are one variable.  The gate cache lives exactly as
/// long as the blaster's sat::Solver, so a cached literal's defining clauses
/// are always in that instance.
class BitBlaster {
public:
  explicit BitBlaster(sat::Solver &S);

  /// Returns the literal representing boolean term \p T.
  sat::Lit blastBool(const Term *T);

  /// Returns the literals (LSB first) representing bitvector term \p T.
  const std::vector<sat::Lit> &blastBV(const Term *T);

  /// Reads back a model value for \p T after a Sat answer.
  Value modelValue(const Term *T);

  const BlastStats &stats() const { return BStats; }

private:
  using Bits = std::vector<sat::Lit>;

  sat::Lit freshLit();

  /// The gate kinds, the first word of a gate's key.
  enum class GateOp : int32_t { And, AndN, Xor, Xor3, Mux, Maj };
  /// The output of the gate keyed {Op, Ins[0..N)}: the cached literal, or
  /// a fresh one, flagged true, that the caller defines with clauses.
  std::pair<sat::Lit, bool> gate(GateOp Op, const sat::Lit *Ins, size_t N);

  /// The gate constructors.  Each folds constants and equal or complementary
  /// inputs, moves input polarities out where the function allows, and keys
  /// what is left in a canonical order.
  sat::Lit litAnd(sat::Lit A, sat::Lit B);
  sat::Lit litOr(sat::Lit A, sat::Lit B);
  /// The conjunction of \p Ls as one gate: n+1 clauses.
  sat::Lit litAndN(Bits Ls);
  sat::Lit litXor(sat::Lit A, sat::Lit B);
  /// A full adder's sum: one 8-clause gate.
  sat::Lit litXor3(sat::Lit A, sat::Lit B, sat::Lit C);
  sat::Lit litMux(sat::Lit C, sat::Lit T, sat::Lit E);
  /// A full adder's carry: one 6-clause gate.
  sat::Lit litMajority(sat::Lit A, sat::Lit B, sat::Lit C);
  sat::Lit constLit(bool B) const { return B ? TrueLit : ~TrueLit; }

  Bits addBits(const Bits &A, const Bits &B, sat::Lit CarryIn);
  Bits negBits(const Bits &A);
  Bits mulBits(const Bits &A, const Bits &B);
  Bits shiftBits(const Bits &A, const Bits &Amount, bool Left,
                 sat::Lit Fill);
  sat::Lit ultBits(const Bits &A, const Bits &B);
  sat::Lit uleBits(const Bits &A, const Bits &B);
  sat::Lit sltBits(const Bits &A, const Bits &B);
  sat::Lit eqBits(const Bits &A, const Bits &B);
  /// Encodes division/remainder via the multiplication relation at double
  /// width (exactness enforced), honoring the SMT-LIB div-by-zero cases.
  void divRem(const Bits &N, const Bits &D, Bits &Quot, Bits &Rem);

  Bits blastNode(const Term *T);

  sat::Solver &S;
  sat::Lit TrueLit;
  BlastStats BStats;
  std::unordered_map<const Term *, Bits> BVCache;
  std::unordered_map<const Term *, sat::Lit> BoolCache;
  /// Gate outputs by key: the GateOp, then the input literals' indices.
  struct KeyHash {
    size_t operator()(const std::vector<int32_t> &K) const {
      uint64_t H = 0xcbf29ce484222325ull; // FNV-1a over the words
      for (int32_t X : K)
        H = (H ^ uint32_t(X)) * 0x100000001b3ull;
      return size_t(H ^ (H >> 32));
    }
  };
  std::unordered_map<std::vector<int32_t>, sat::Lit, KeyHash> Gates;
  std::vector<int32_t> Key; ///< the probe gate() builds, reused
  /// Cached quotient/remainder pairs so bvudiv/bvurem over the same
  /// operands share one circuit.  Keyed by (dividend, divisor).
  struct PairHash {
    size_t operator()(const std::pair<const Term *, const Term *> &P) const {
      return std::hash<const void *>()(P.first) * 31 +
             std::hash<const void *>()(P.second);
    }
  };
  std::unordered_map<std::pair<const Term *, const Term *>,
                     std::pair<Bits, Bits>, PairHash>
      DivCache;
};

} // namespace islaris::smt

#endif // ISLARIS_SMT_BITBLASTER_H
