//===- tests/smt_test.cpp - Term/Rewriter/BitBlaster/Solver tests ------------===//

#include "SideCondShapes.h"
#include "frontend/CaseStudies.h"
#include "smt/BitBlaster.h"
#include "smt/Decide.h"
#include "smt/Evaluator.h"
#include "smt/Rewriter.h"
#include "smt/Solver.h"
#include "smt/TermBuilder.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <random>

using namespace islaris;
using namespace islaris::smt;

namespace {

TEST(TermTest, HashConsing) {
  TermBuilder TB;
  const Term *A = TB.constBV(64, 42);
  const Term *B = TB.constBV(64, 42);
  EXPECT_EQ(A, B);
  const Term *X = TB.freshVar(Sort::bitvec(64), "x");
  const Term *S1 = TB.bvAdd(X, A);
  const Term *S2 = TB.bvAdd(X, B);
  EXPECT_EQ(S1, S2);
  // Distinct fresh variables are never merged.
  EXPECT_NE(TB.freshVar(Sort::bitvec(8)), TB.freshVar(Sort::bitvec(8)));
}

TEST(TermTest, ConstantFoldingOnConstruction) {
  TermBuilder TB;
  const Term *S = TB.bvAdd(TB.constBV(8, 200), TB.constBV(8, 100));
  ASSERT_EQ(S->kind(), Kind::ConstBV);
  EXPECT_EQ(S->constBV().toUInt64(), (200 + 100) & 0xffu);
  EXPECT_EQ(TB.eqTerm(TB.constBV(8, 1), TB.constBV(8, 2)), TB.falseTerm());
  EXPECT_EQ(TB.bvUlt(TB.constBV(8, 1), TB.constBV(8, 2)), TB.trueTerm());
}

TEST(TermTest, PrintingMatchesIslaSyntax) {
  // The Fig. 3 expression: (bvadd ((_ extract 63 0) ((_ zero_extend 64)
  // v38)) #x0000000000000040).
  TermBuilder TB;
  const Term *V38 = TB.freshVar(Sort::bitvec(64), "v38");
  const Term *E = TB.bvAdd(TB.extract(63, 0, TB.zeroExtend(64, V38)),
                           TB.constBV(64, 0x40));
  // Note: extract(63,0) of a 128-bit term does not fold away at build time.
  EXPECT_EQ(E->toString(), "(bvadd ((_ extract 63 0) ((_ zero_extend 64) "
                           "v38)) #x0000000000000040)");
}

TEST(EvaluatorTest, BasicEvaluation) {
  TermBuilder TB;
  const Term *X = TB.freshVar(Sort::bitvec(16), "x");
  const Term *E = TB.bvMul(TB.bvAdd(X, TB.constBV(16, 1)), TB.constBV(16, 3));
  Env En;
  EXPECT_FALSE(Evaluator().evaluate(E, En).has_value());
  En[X->varId()] = Value(BitVec(16, 10));
  auto V = Evaluator().evaluate(E, En);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asBitVec().toUInt64(), 33u);
}

TEST(EvaluatorTest, IteAndBool) {
  TermBuilder TB;
  const Term *B = TB.freshVar(Sort::boolean(), "b");
  const Term *E =
      TB.iteTerm(B, TB.constBV(8, 1), TB.constBV(8, 2));
  Env En;
  En[B->varId()] = Value(true);
  EXPECT_EQ(Evaluator().evaluate(E, En)->asBitVec().toUInt64(), 1u);
  En[B->varId()] = Value(false);
  EXPECT_EQ(Evaluator().evaluate(E, En)->asBitVec().toUInt64(), 2u);
}

TEST(EvaluatorTest, SatisfiesAllNeedsEveryGoalTrue) {
  TermBuilder TB;
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  const Term *Y = TB.freshVar(Sort::bitvec(8), "y");
  std::vector<const Term *> G = {TB.bvUlt(X, TB.constBV(8, 10)),
                                 TB.notTerm(TB.eqTerm(X, TB.constBV(8, 3)))};
  Env En;
  EXPECT_FALSE(Evaluator().satisfiesAll(G, En)); // x unassigned
  En[X->varId()] = Value(BitVec(8, 5));
  EXPECT_TRUE(Evaluator().satisfiesAll(G, En));
  EXPECT_TRUE(Evaluator().satisfiesAll({}, En));
  En[X->varId()] = Value(BitVec(8, 3));
  EXPECT_FALSE(Evaluator().satisfiesAll(G, En));
  En[X->varId()] = Value(BitVec(8, 5));
  G.push_back(TB.bvUlt(X, Y));
  EXPECT_FALSE(Evaluator().satisfiesAll(G, En)); // y unassigned
}

TEST(EvaluatorTest, InterleavedBuildersWithOverlappingIds) {
  // Two builders hand out the same ids to different terms; one Evaluator
  // alternating between them must never read the other's slots.
  TermBuilder A, B;
  const Term *X = A.freshVar(Sort::bitvec(8), "x");
  const Term *Y = B.freshVar(Sort::bitvec(8), "y");
  const Term *EA = A.bvAdd(X, A.constBV(8, 1));
  const Term *EB = B.bvMul(Y, B.constBV(8, 3));
  ASSERT_EQ(X->id(), Y->id());
  ASSERT_EQ(EA->id(), EB->id());
  Env En;
  En[X->varId()] = Value(BitVec(8, 10)); // X and Y share var id 0
  ASSERT_EQ(X->varId(), Y->varId());
  Evaluator Ev;
  for (int Round = 0; Round < 3; ++Round) {
    EXPECT_EQ(Ev.evaluate(EA, En)->asBitVec().toUInt64(), 11u);
    EXPECT_EQ(Ev.evaluate(EB, En)->asBitVec().toUInt64(), 30u);
  }
  EXPECT_TRUE(Ev.satisfiesAll({A.eqTerm(EA, A.constBV(8, 11))}, En));
  EXPECT_TRUE(Ev.satisfiesAll({B.eqTerm(EB, B.constBV(8, 30))}, En));
}

TEST(EvaluatorTest, EpochWrapForgetsOldSlots) {
  TermBuilder TB;
  const Term *X = TB.freshVar(Sort::bitvec(16), "x");
  const Term *E = TB.bvAdd(TB.bvMul(X, X), TB.constBV(16, 1));
  Evaluator Ev;
  Env En;
  // Well past one wrap of the 16-bit epoch, with x changing every call so
  // a slot surviving from an earlier call would show as a wrong value.
  for (uint64_t I = 0; I < 70000; ++I) {
    En[X->varId()] = Value(BitVec(16, I));
    uint64_t Want = (I * I + 1) & 0xffff;
    std::optional<Value> V = Ev.evaluate(E, En);
    ASSERT_TRUE(V.has_value());
    ASSERT_EQ(V->asBitVec().toUInt64(), Want) << "call " << I;
  }
}

TEST(EvaluatorTest, SatisfiesAllStopsAtTheFirstFalseGoal) {
  TermBuilder TB;
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  const Term *False = TB.bvUlt(X, TB.constBV(8, 1)); // x = 5: false
  // A goal over a long chain of its own nodes.
  const Term *Chain = X;
  for (unsigned I = 0; I < 50; ++I)
    Chain = TB.bvAdd(TB.bvMul(Chain, TB.constBV(8, 3)), TB.constBV(8, I));
  const Term *Long = TB.notTerm(TB.eqTerm(Chain, TB.constBV(8, 0)));
  Env En;
  En[X->varId()] = Value(BitVec(8, 5));
  Evaluator Ev;
  uint64_t Before = Ev.nodesEvaluated();
  EXPECT_FALSE(Ev.satisfiesAll({False, Long}, En));
  EXPECT_EQ(Ev.nodesEvaluated() - Before, 3u); // x, #x01, (bvult x #x01)
  Before = Ev.nodesEvaluated();
  Ev.satisfiesAll({Long, False}, En);
  EXPECT_GT(Ev.nodesEvaluated() - Before, 100u);
}

TEST(RewriterTest, Fig3PatternCollapses) {
  // extract(63,0)(zext(64, x) + 0x40) must collapse to x + 0x40 (the
  // simplification enabling readable memcpy side conditions).
  TermBuilder TB;
  Rewriter RW(TB);
  const Term *X = TB.freshVar(Sort::bitvec(64), "x");
  const Term *E = TB.bvAdd(TB.zeroExtend(64, X), TB.constBV(128, 0x40));
  const Term *S = RW.simplify(TB.extract(63, 0, E));
  EXPECT_EQ(S, TB.bvAdd(X, TB.constBV(64, 0x40)));
}

TEST(RewriterTest, AddChainNormalization) {
  TermBuilder TB;
  Rewriter RW(TB);
  const Term *X = TB.freshVar(Sort::bitvec(64), "x");
  const Term *E = TB.bvAdd(TB.bvAdd(X, TB.constBV(64, 4)), TB.constBV(64, 4));
  EXPECT_EQ(RW.simplify(E), TB.bvAdd(X, TB.constBV(64, 8)));
  // x + 0 -> x, x - x -> 0.
  EXPECT_EQ(RW.simplify(TB.bvAdd(X, TB.constBV(64, 0))), X);
  EXPECT_EQ(RW.simplify(TB.bvSub(X, X)), TB.constBV(64, 0));
}

TEST(RewriterTest, EqualitySolvesForVariable) {
  TermBuilder TB;
  Rewriter RW(TB);
  const Term *X = TB.freshVar(Sort::bitvec(64), "x");
  // (x + 4) = 10  ->  x = 6.
  const Term *E =
      TB.eqTerm(TB.bvAdd(X, TB.constBV(64, 4)), TB.constBV(64, 10));
  EXPECT_EQ(RW.simplify(E), TB.eqTerm(X, TB.constBV(64, 6)));
  // zext(x) = wide constant with nonzero high bits is false.
  const Term *E2 = TB.eqTerm(TB.zeroExtend(64, X),
                             TB.constBV(BitVec::ones(128)));
  EXPECT_EQ(RW.simplify(E2), TB.falseTerm());
}

// Random term generator for soundness properties.
class RandomTermGen {
public:
  RandomTermGen(TermBuilder &TB, std::mt19937 &Rng, unsigned NumVars)
      : TB(TB), Rng(Rng) {
    for (unsigned I = 0; I < NumVars; ++I)
      Vars.push_back(TB.freshVar(Sort::bitvec(8)));
  }

  const Term *gen(int Depth) {
    if (Depth == 0 || Rng() % 4 == 0) {
      if (Rng() % 2)
        return Vars[Rng() % Vars.size()];
      return TB.constBV(8, Rng());
    }
    switch (Rng() % 18) {
    case 0:
      return TB.bvAdd(gen(Depth - 1), gen(Depth - 1));
    case 1:
      return TB.bvSub(gen(Depth - 1), gen(Depth - 1));
    case 2:
      return TB.bvMul(gen(Depth - 1), gen(Depth - 1));
    case 3:
      return TB.bvAnd(gen(Depth - 1), gen(Depth - 1));
    case 4:
      return TB.bvOr(gen(Depth - 1), gen(Depth - 1));
    case 5:
      return TB.bvXor(gen(Depth - 1), gen(Depth - 1));
    case 6:
      return TB.bvNot(gen(Depth - 1));
    case 7:
      return TB.bvShl(gen(Depth - 1), gen(Depth - 1));
    case 8:
      return TB.bvLShr(gen(Depth - 1), gen(Depth - 1));
    case 9: {
      const Term *T = gen(Depth - 1);
      return TB.extract(7, 0, TB.zeroExtend(8, T));
    }
    case 10:
      return TB.iteTerm(genBool(Depth - 1), gen(Depth - 1), gen(Depth - 1));
    case 11:
      return TB.bvAShr(gen(Depth - 1), gen(Depth - 1));
    case 12:
      return TB.bvNeg(gen(Depth - 1));
    case 13:
      return TB.bvSDiv(gen(Depth - 1), gen(Depth - 1));
    case 14:
      return TB.bvSRem(gen(Depth - 1), gen(Depth - 1));
    case 15: {
      // Slice out of a sign-extension.
      const Term *T = gen(Depth - 1);
      return TB.extract(9, 2, TB.signExtend(8, T));
    }
    case 16: {
      // Slice out of a concatenation.
      const Term *A = gen(Depth - 1), *B = gen(Depth - 1);
      return TB.extract(11, 4, TB.concat(A, B));
    }
    default:
      return TB.bvUDiv(gen(Depth - 1), gen(Depth - 1));
    }
  }

  const Term *genBool(int Depth) {
    if (Depth == 0)
      return TB.constBool(Rng() % 2);
    switch (Rng() % 8) {
    case 0:
      return TB.eqTerm(gen(Depth - 1), gen(Depth - 1));
    case 1:
      return TB.bvUlt(gen(Depth - 1), gen(Depth - 1));
    case 2:
      return TB.bvSle(gen(Depth - 1), gen(Depth - 1));
    case 3:
      return TB.bvSlt(gen(Depth - 1), gen(Depth - 1));
    case 4:
      return TB.bvUle(gen(Depth - 1), gen(Depth - 1));
    case 5:
      return TB.orTerm(genBool(Depth - 1), genBool(Depth - 1));
    case 6:
      return TB.notTerm(genBool(Depth - 1));
    default:
      return TB.andTerm(genBool(Depth - 1), genBool(Depth - 1));
    }
  }

  Env randomEnv() {
    Env E;
    for (const Term *V : Vars)
      E[V->varId()] = Value(BitVec(8, Rng()));
    return E;
  }

private:
  TermBuilder &TB;
  std::mt19937 &Rng;
  std::vector<const Term *> Vars;
};

class RewriterSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(RewriterSoundnessTest, SimplifyPreservesSemantics) {
  std::mt19937 Rng(unsigned(GetParam()) * 2654435761u + 1);
  TermBuilder TB;
  Rewriter RW(TB);
  RandomTermGen Gen(TB, Rng, 4);
  for (int Round = 0; Round < 60; ++Round) {
    const Term *T = Gen.gen(4);
    const Term *S = RW.simplify(T);
    for (int Trial = 0; Trial < 10; ++Trial) {
      Env E = Gen.randomEnv();
      auto V1 = Evaluator().evaluate(T, E);
      auto V2 = Evaluator().evaluate(S, E);
      ASSERT_TRUE(V1 && V2);
      EXPECT_EQ(*V1, *V2) << "original: " << T->toString()
                          << "\nsimplified: " << S->toString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriterSoundnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

//===----------------------------------------------------------------------===//
// End-to-end solver tests.
//===----------------------------------------------------------------------===//

TEST(SolverTest, SimpleSatWithModel) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(16), "x");
  // x + 3 == 10 and x < 100.
  S.assertTerm(TB.eqTerm(TB.bvAdd(X, TB.constBV(16, 3)), TB.constBV(16, 10)));
  S.assertTerm(TB.bvUlt(X, TB.constBV(16, 100)));
  ASSERT_EQ(S.check(), Result::Sat);
  EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), 7u);
}

TEST(SolverTest, UnsatByContradiction) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  S.assertTerm(TB.bvUlt(X, TB.constBV(8, 4)));
  S.assertTerm(TB.bvUlt(TB.constBV(8, 9), X));
  EXPECT_EQ(S.check(), Result::Unsat);
}

TEST(SolverTest, PushPop) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  S.assertTerm(TB.bvUlt(X, TB.constBV(8, 4)));
  S.push();
  S.assertTerm(TB.bvUlt(TB.constBV(8, 9), X));
  EXPECT_EQ(S.check(), Result::Unsat);
  S.pop();
  EXPECT_EQ(S.check(), Result::Sat);
}

TEST(SolverTest, ValidityOfBvIdentity) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(12), "x");
  const Term *Y = TB.freshVar(Sort::bitvec(12), "y");
  // (x ^ y) ^ y == x is valid.
  EXPECT_TRUE(S.isValid(TB.eqTerm(TB.bvXor(TB.bvXor(X, Y), Y), X)));
  // x + y == x is not valid.
  EXPECT_FALSE(S.isValid(TB.eqTerm(TB.bvAdd(X, Y), X)));
}

TEST(SolverTest, MulDivRelation) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  const Term *Y = TB.freshVar(Sort::bitvec(8), "y");
  // y != 0 -> (x / y) * y + (x % y) == x  must be valid.
  const Term *Prop = TB.impliesTerm(
      TB.distinctTerm(Y, TB.constBV(8, 0)),
      TB.eqTerm(TB.bvAdd(TB.bvMul(TB.bvUDiv(X, Y), Y), TB.bvURem(X, Y)), X));
  EXPECT_TRUE(S.isValid(Prop));
}

TEST(SolverTest, DivByZeroConvention) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  EXPECT_TRUE(S.isValid(
      TB.eqTerm(TB.bvUDiv(X, TB.constBV(8, 0)), TB.constBV(8, 0xff))));
  EXPECT_TRUE(S.isValid(TB.eqTerm(TB.bvURem(X, TB.constBV(8, 0)), X)));
}

TEST(SolverTest, ShiftSemantics) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  const Term *A = TB.freshVar(Sort::bitvec(8), "a");
  // Shifting by >= width gives zero.
  EXPECT_TRUE(S.isValid(TB.impliesTerm(
      TB.bvUle(TB.constBV(8, 8), A),
      TB.eqTerm(TB.bvShl(X, A), TB.constBV(8, 0)))));
  // (x << 1) == x + x.
  EXPECT_TRUE(S.isValid(
      TB.eqTerm(TB.bvShl(X, TB.constBV(8, 1)), TB.bvAdd(X, X))));
}

TEST(SolverTest, SignedComparison) {
  TermBuilder TB;
  Solver S(TB);
  // 0x80 <s 0 <s 0x7f at width 8.
  EXPECT_TRUE(S.isValid(TB.bvSlt(TB.constBV(8, 0x80), TB.constBV(8, 0))));
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  // x <s 0  <->  msb(x) == 1.
  const Term *P = TB.eqTerm(
      TB.bvSlt(X, TB.constBV(8, 0)),
      TB.eqTerm(TB.extract(7, 7, X), TB.constBV(1, 1)));
  EXPECT_TRUE(S.isValid(P));
}

class SolverVsEvalTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverVsEvalTest, SatModelsSatisfyFormulaAndUnsatHasNoWitness) {
  std::mt19937 Rng(unsigned(GetParam()) * 48271u + 7);
  TermBuilder TB;
  RandomTermGen Gen(TB, Rng, 3);
  for (int Round = 0; Round < 25; ++Round) {
    const Term *F = Gen.genBool(3);
    Solver S(TB);
    S.assertTerm(F);
    Result R = S.check();
    if (R == Result::Sat) {
      // Read the model back and evaluate.
      Env E;
      for (const Term *V : collectVars(F))
        E[V->varId()] = S.modelValue(V);
      auto V = Evaluator().evaluate(F, E);
      ASSERT_TRUE(V.has_value());
      EXPECT_TRUE(V->asBool()) << F->toString();
    } else {
      // Randomized refutation check: no sampled assignment may satisfy F.
      for (int Trial = 0; Trial < 200; ++Trial) {
        Env E = Gen.randomEnv();
        auto V = Evaluator().evaluate(F, E);
        if (V) {
          EXPECT_FALSE(V->asBool()) << F->toString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverVsEvalTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SolverTest, SubstituteComposes) {
  TermBuilder TB;
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  const Term *Y = TB.freshVar(Sort::bitvec(8), "y");
  const Term *E = TB.bvAdd(X, TB.bvMul(Y, TB.constBV(8, 2)));
  std::unordered_map<uint32_t, const Term *> M;
  M[X->varId()] = TB.constBV(8, 3);
  M[Y->varId()] = TB.constBV(8, 5);
  const Term *R = TB.substitute(E, M);
  ASSERT_EQ(R->kind(), Kind::ConstBV);
  EXPECT_EQ(R->constBV().toUInt64(), 13u);
}

//===----------------------------------------------------------------------===//
// Side-condition cache: memo table, model invalidation, persistent store.
//===----------------------------------------------------------------------===//

// Regression: modelValue() after pop()/assertTerm() used to answer from the
// retracted scope's model.  The model must be invalidated by any state
// mutation and repopulated by the next Sat check.
TEST(SolverTest, ModelInvalidatedAcrossPushPop) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  S.assertTerm(TB.bvUlt(X, TB.constBV(8, 10)));
  S.push();
  S.assertTerm(TB.eqTerm(X, TB.constBV(8, 7)));
  ASSERT_EQ(S.check(), Result::Sat);
  EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), 7u);
  S.pop();
  S.assertTerm(TB.eqTerm(X, TB.constBV(8, 3)));
#ifndef NDEBUG
  EXPECT_DEATH(S.modelValue(X), "modelValue without a Sat answer");
#endif
  ASSERT_EQ(S.check(), Result::Sat);
  EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), 3u);
}

// A memo hit must return the identical verdict and model as the cold solve,
// without another SAT call.
TEST(SolverTest, MemoHitMatchesColdSolve) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(16), "x");
  S.assertTerm(TB.eqTerm(TB.bvAdd(X, TB.constBV(16, 3)), TB.constBV(16, 10)));
  S.assertTerm(TB.bvUlt(X, TB.constBV(16, 100)));
  ASSERT_EQ(S.check(), Result::Sat);
  uint64_t Cold = S.modelValue(X).asBitVec().toUInt64();
  EXPECT_EQ(S.stats().NumSatCalls, 1u);

  ASSERT_EQ(S.check(), Result::Sat); // identical goal set: memo answers
  EXPECT_EQ(S.stats().NumSatCalls, 1u);
  EXPECT_EQ(S.stats().NumMemoHits, 1u);
  EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), Cold);

  S.push(); // an empty frame does not change the canonical goal set
  ASSERT_EQ(S.check(), Result::Sat);
  EXPECT_EQ(S.stats().NumMemoHits, 2u);
  S.pop();

  S.push();
  S.assertTerm(TB.bvUlt(TB.constBV(16, 50), X)); // now unsat (x = 7)
  EXPECT_EQ(S.check(), Result::Unsat); // refuted by the decision tier
  EXPECT_EQ(S.stats().NumDecided, 1u);
  EXPECT_EQ(S.check(), Result::Unsat); // unsat results memoize too
  EXPECT_EQ(S.stats().NumDecided, 1u);
  EXPECT_EQ(S.stats().NumMemoHits, 3u);
  EXPECT_EQ(S.stats().NumSatCalls, 1u);
  S.pop();
}

// Trivial paths: no SAT core is ever constructed, yet checks are counted
// and an (empty) model is available after a syntactic Sat.
TEST(SolverTest, TrivialCheckPathsStaySyntactic) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  EXPECT_EQ(S.check(), Result::Sat); // nothing asserted
  EXPECT_EQ(S.stats().NumSyntactic, 1u);
  EXPECT_EQ(S.stats().NumSatCalls, 0u);
  EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), 0u); // default model

  S.assertTerm(TB.trueTerm());
  EXPECT_EQ(S.check(), Result::Sat); // simplifies to the empty goal set
  EXPECT_TRUE(S.isValid(TB.trueTerm()));
  S.assertTerm(TB.falseTerm());
  EXPECT_EQ(S.check(), Result::Unsat);
  EXPECT_EQ(S.stats().NumSyntactic, 4u);
  EXPECT_EQ(S.stats().NumSatCalls, 0u);
}

namespace {
/// In-memory store bundle capturing store()/lookup() traffic.
struct FakeSolverCache : SolverCache::Bundle {
  std::map<support::Fingerprint, SolverCache::CachedResult> M;
  bool lookup(const support::Fingerprint &K, const std::vector<const Term *> &,
              const SolverCache::Install &I) override {
    auto It = M.find(K);
    return It != M.end() && I(It->second);
  }
  void store(const support::Fingerprint &K,
             const SolverCache::CachedResult &R) override {
    M.emplace(K, R);
  }
  void publish() override {}
};
} // namespace

// A persistent-cache hit in a *different* TermBuilder (new ids, same
// printed closure) must return the same verdict and model values with no
// SAT call.
TEST(SolverTest, PersistentCacheRoundTripAcrossBuilders) {
  FakeSolverCache Cache;
  uint64_t Cold;
  {
    TermBuilder TB;
    Solver S(TB);
    S.setCache(&Cache);
    const Term *X = TB.freshVar(Sort::bitvec(16), "x");
    S.assertTerm(
        TB.eqTerm(TB.bvAdd(X, TB.constBV(16, 3)), TB.constBV(16, 10)));
    ASSERT_EQ(S.check(), Result::Sat);
    Cold = S.modelValue(X).asBitVec().toUInt64();
    EXPECT_EQ(S.stats().NumSatCalls, 1u);
    EXPECT_EQ(Cache.M.size(), 1u);
  }
  {
    TermBuilder TB;
    const Term *Pad = TB.freshVar(Sort::bitvec(8), "pad"); // shift var ids
    (void)Pad;
    Solver S(TB);
    S.setCache(&Cache);
    const Term *X = TB.freshVar(Sort::bitvec(16), "x");
    S.assertTerm(
        TB.eqTerm(TB.bvAdd(X, TB.constBV(16, 3)), TB.constBV(16, 10)));
    ASSERT_EQ(S.check(), Result::Sat);
    EXPECT_EQ(S.stats().NumSatCalls, 0u);
    EXPECT_EQ(S.stats().NumStoreHits, 1u);
    EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), Cold);
  }
}

// Two distinct variables printing the same name make the printed closure
// ambiguous; such queries must never reach the persistent cache (the
// id-keyed memo still works).
TEST(SolverTest, AmbiguousNamesSkipPersistentCache) {
  FakeSolverCache Cache;
  TermBuilder TB;
  Solver S(TB);
  S.setCache(&Cache);
  const Term *X1 = TB.freshVar(Sort::bitvec(8), "x");
  const Term *X2 = TB.freshVar(Sort::bitvec(8), "x");
  ASSERT_NE(X1, X2);
  S.assertTerm(TB.bvUlt(X1, TB.constBV(8, 5)));
  S.assertTerm(TB.bvUlt(TB.constBV(8, 9), X2));
  EXPECT_EQ(S.check(), Result::Sat); // satisfiable: x1 and x2 are distinct
  EXPECT_TRUE(Cache.M.empty());
  EXPECT_EQ(S.check(), Result::Sat);
  EXPECT_EQ(S.stats().NumMemoHits, 1u);
}

/// The printed closure of a goal set, the store key of earlier formats:
/// sorted (name, width) declarations of the free variables, then the
/// sorted, deduplicated printed goals.
std::string printClosure(const std::vector<const Term *> &Goals) {
  std::map<std::string, unsigned> Decls;
  std::vector<std::string> Printed;
  for (const Term *G : Goals) {
    for (const Term *V : collectVars(G))
      Decls.emplace(V->varName(), V->isBool() ? 0u : V->width());
    Printed.push_back(G->toString());
  }
  std::sort(Printed.begin(), Printed.end());
  Printed.erase(std::unique(Printed.begin(), Printed.end()), Printed.end());
  std::string Out = "(goal-closure 1";
  for (const auto &[Name, Width] : Decls)
    Out += " (|" + Name + "| " + std::to_string(Width) + ")";
  for (const std::string &P : Printed)
    Out += " (assert " + P + ")";
  return Out + ")";
}

/// A store that answers nothing and records each goal set it is asked
/// for: its key and its printed closure, in lookup order.
struct RecordingStore : SolverCache {
  std::mutex Mu;
  std::vector<std::pair<support::Fingerprint, std::string>> Seen;

  struct Recorder : Bundle {
    RecordingStore &S;
    explicit Recorder(RecordingStore &S) : S(S) {}
    bool lookup(const support::Fingerprint &K,
                const std::vector<const Term *> &Goals,
                const Install &) override {
      std::lock_guard<std::mutex> L(S.Mu);
      S.Seen.emplace_back(K, printClosure(Goals));
      return false;
    }
    void store(const support::Fingerprint &, const CachedResult &) override {}
    void publish() override {}
  };
  std::unique_ptr<Bundle> openBundle(const support::Fingerprint &) override {
    return std::make_unique<Recorder>(*this);
  }
};

// The store key replaced the printed closure: over every goal set the nine
// studies send to the store on a cold run, two goal sets get equal keys
// exactly when their printed closures are equal, and the same studies built
// again in new TermBuilders ask for the same keys in the same order.
TEST(SolverTest, GoalSetKeysAgreeWithPrintedClosures) {
  RecordingStore First, Second;
  frontend::SuiteOptions Opts;
  Opts.Threads = 1;
  for (RecordingStore *R : {&First, &Second}) {
    Opts.SideCond = R;
    for (const frontend::CaseResult &C : frontend::runAllCaseStudies(Opts))
      EXPECT_TRUE(C.Ok) << C.Name << ": " << C.Error;
  }
  ASSERT_GT(First.Seen.size(), 400u);
  EXPECT_EQ(First.Seen, Second.Seen);

  std::map<support::Fingerprint, std::string> ClosureOf;
  std::map<std::string, support::Fingerprint> KeyOf;
  for (const auto &[K, C] : First.Seen) {
    auto [KIt, KNew] = ClosureOf.emplace(K, C);
    EXPECT_EQ(KIt->second, C) << "one key, two closures";
    auto [CIt, CNew] = KeyOf.emplace(C, K);
    EXPECT_EQ(CIt->second, K) << "one closure, two keys: " << C;
  }
  EXPECT_EQ(ClosureOf.size(), KeyOf.size());
}

// The blaster survives across checks: re-solving related goals reuses the
// previously built circuits instead of re-blasting the whole CNF.
TEST(SolverTest, IncrementalBlastingReusesCircuits) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(32), "x");
  const Term *Y = TB.freshVar(Sort::bitvec(32), "y");
  const Term *Sum = TB.bvAdd(TB.bvMul(X, Y), Y);
  S.assertTerm(TB.bvUlt(Sum, TB.constBV(32, 1000)));
  S.push();
  S.assertTerm(TB.eqTerm(X, TB.constBV(32, 2)));
  ASSERT_EQ(S.check(), Result::Sat);
  uint64_t BlastedAfterFirst = S.stats().TermsBlasted;
  S.pop();
  S.push();
  S.assertTerm(TB.eqTerm(X, TB.constBV(32, 3))); // fresh goal, shared Sum
  ASSERT_EQ(S.check(), Result::Sat);
  S.pop();
  EXPECT_EQ(S.stats().NumSatCalls, 2u);
  EXPECT_GT(S.stats().TermsReused, 0u);
  // The second check must not have re-blasted the shared circuit: only a
  // handful of new terms (the new equality) get translated.
  EXPECT_LT(S.stats().TermsBlasted - BlastedAfterFirst,
            BlastedAfterFirst);
}

//===----------------------------------------------------------------------===//
// BitBlaster against the Evaluator.
//===----------------------------------------------------------------------===//

/// Drives a BitBlaster over its own sat::Solver, with no Rewriter in
/// between.  Inputs are pinned by assumptions, so one blaster serves every
/// check made through it and its gates are shared across them.  A check
/// goes both ways: the output equal to the Evaluator's value is Sat (and
/// reads back as that value), and the output different from it is Unsat.
/// The "different" side is a miter built here from raw clauses, so it
/// leans on none of the blaster's gates.
class BlastOracle {
public:
  BlastOracle() : Blaster(Core) {}

  sat::Solver &core() { return Core; }

  /// The literals of \p T, LSB first; one literal for a boolean term.
  std::vector<sat::Lit> bits(const Term *T) {
    if (T->isBool())
      return {Blaster.blastBool(T)};
    return Blaster.blastBV(T);
  }

  /// Checks \p T under the assignment \p In of its variables \p Vars.
  void check(const Term *T, const std::vector<const Term *> &Vars,
             const Env &In) {
    std::optional<Value> Want = Eval.evaluate(T, In);
    ASSERT_TRUE(Want.has_value());
    std::vector<sat::Lit> Pins;
    for (const Term *V : Vars)
      pin(bits(V), In.at(V->varId()), Pins);
    std::string Where = T->toString() + " under" + describe(Vars, In) +
                        " = " + Want->toString();

    std::vector<sat::Lit> Equal = Pins;
    pin(bits(T), *Want, Equal);
    ASSERT_EQ(Core.solve(Equal), sat::SatResult::Sat) << Where;
    EXPECT_EQ(Blaster.modelValue(T), *Want) << Where;

    const Miter &M = miter(T);
    std::vector<sat::Lit> Differ = Pins;
    pin(M.Expect, *Want, Differ);
    Differ.push_back(M.Differs);
    EXPECT_EQ(Core.solve(Differ), sat::SatResult::Unsat) << Where;
  }

private:
  /// Fresh literals Expect and Differs with Differs -> (bits(T) != Expect).
  struct Miter {
    std::vector<sat::Lit> Expect;
    sat::Lit Differs;
  };

  static void pin(const std::vector<sat::Lit> &Ls, const Value &V,
                  std::vector<sat::Lit> &Out) {
    for (size_t I = 0; I < Ls.size(); ++I) {
      bool B = V.isBool() ? V.asBool() : V.asBitVec().bit(unsigned(I));
      Out.push_back(B ? Ls[I] : ~Ls[I]);
    }
  }

  static std::string describe(const std::vector<const Term *> &Vars,
                              const Env &In) {
    std::string S;
    for (const Term *V : Vars) {
      S += ' ';
      S += V->toString();
      S += '=';
      S += In.at(V->varId()).toString();
    }
    return S;
  }

  sat::Lit fresh() { return sat::Lit(Core.newVar(), false); }

  const Miter &miter(const Term *T) {
    auto It = Miters.find(T);
    if (It != Miters.end())
      return It->second;
    Miter M;
    M.Differs = fresh();
    std::vector<sat::Lit> Any = {~M.Differs};
    for (sat::Lit O : bits(T)) {
      sat::Lit E = fresh(), X = fresh();
      Core.addClause(~X, O, E); // X -> O != E
      Core.addClause(~X, ~O, ~E);
      M.Expect.push_back(E);
      Any.push_back(X);
    }
    Core.addClause(Any);
    return Miters.emplace(T, std::move(M)).first->second;
  }

  sat::Solver Core;
  BitBlaster Blaster;
  Evaluator Eval;
  std::unordered_map<const Term *, Miter> Miters;
};

/// Inputs for a term over \p Vars: every assignment when the variables hold
/// at most 9 bits together; otherwise every combination of the edge values
/// 0, 1, all-ones, the sign bit and the sign bit minus 1, plus seeded random
/// assignments (half of the values small, so shift amounts and divisors
/// stay in range).
std::vector<Env> blastInputs(const std::vector<const Term *> &Vars,
                             std::mt19937_64 &Rng) {
  auto widthOf = [](const Term *V) { return V->isBool() ? 1u : V->width(); };
  unsigned Bits = 0;
  for (const Term *V : Vars)
    Bits += widthOf(V);
  std::vector<Env> Out;
  if (Bits <= 9) {
    for (uint64_t A = 0; A < (uint64_t(1) << Bits); ++A) {
      Env E;
      unsigned Shift = 0;
      for (const Term *V : Vars) {
        uint64_t Part = A >> Shift;
        E[V->varId()] = V->isBool() ? Value(bool(Part & 1))
                                    : Value(BitVec(V->width(), Part));
        Shift += widthOf(V);
      }
      Out.push_back(std::move(E));
    }
    return Out;
  }
  auto edges = [](const Term *V) {
    if (V->isBool())
      return std::vector<Value>{Value(false), Value(true)};
    unsigned W = V->width();
    BitVec Sign = BitVec(W, 1).shl(W - 1);
    return std::vector<Value>{BitVec(W, 0), BitVec(W, 1), BitVec::ones(W),
                              Sign, Sign.sub(BitVec(W, 1))};
  };
  Out.push_back(Env());
  for (const Term *V : Vars) {
    std::vector<Env> Next;
    for (const Env &E : Out)
      for (const Value &Edge : edges(V)) {
        Next.push_back(E);
        Next.back()[V->varId()] = Edge;
      }
    Out = std::move(Next);
  }
  for (int I = 0; I < 24; ++I) {
    Env E;
    for (const Term *V : Vars) {
      if (V->isBool()) {
        E[V->varId()] = Value(bool(Rng() & 1));
        continue;
      }
      unsigned W = V->width();
      BitVec R(W, Rng());
      for (unsigned Lo = 64; Lo < W; Lo += 64)
        R = R.bvor(BitVec(W, Rng()).shl(Lo));
      if (Rng() & 1)
        R = BitVec(W, Rng() % (2 * W));
      E[V->varId()] = Value(R);
    }
    Out.push_back(std::move(E));
  }
  return Out;
}

void checkAll(BlastOracle &O, const std::vector<const Term *> &Terms,
              std::mt19937_64 &Rng) {
  for (const Term *T : Terms) {
    std::vector<const Term *> Vars = collectVars(T);
    std::sort(Vars.begin(), Vars.end(), [](const Term *A, const Term *B) {
      return A->varId() < B->varId();
    });
    for (const Env &In : blastInputs(Vars, Rng)) {
      O.check(T, Vars, In);
      if (::testing::Test::HasFailure())
        return;
    }
  }
}

/// The operands every width's terms are built from.
struct BlastVars {
  BlastVars(TermBuilder &TB, unsigned W)
      : X(TB.freshVar(Sort::bitvec(W), "x")),
        Y(TB.freshVar(Sort::bitvec(W), "y")),
        B(TB.freshVar(Sort::boolean(), "b")),
        P(TB.freshVar(Sort::boolean(), "p")),
        Q(TB.freshVar(Sort::boolean(), "q")) {}
  const Term *X, *Y, *B, *P, *Q;
};

class BlastDifferentialTest : public ::testing::TestWithParam<unsigned> {};

// Every kind blastBool and blastNode translate, exhaustively at widths 1-4
// and on edge and random values above.  Multiplication and division run at
// 16 bits or less.
TEST_P(BlastDifferentialTest, EveryKindAgreesWithTheEvaluator) {
  unsigned W = GetParam();
  std::mt19937_64 Rng(W * 7919 + 1);
  TermBuilder TB;
  BlastVars V(TB, W);
  const Term *X = V.X, *Y = V.Y, *B = V.B, *P = V.P, *Q = V.Q;
  std::vector<const Term *> Terms = {
      TB.bvAdd(X, Y),
      TB.bvSub(X, Y),
      TB.bvNeg(X),
      TB.bvAnd(X, Y),
      TB.bvOr(X, Y),
      TB.bvXor(X, Y),
      TB.bvNot(X),
      TB.bvShl(X, Y),
      TB.bvLShr(X, Y),
      TB.bvAShr(X, Y),
      TB.concat(X, Y),
      TB.zeroExtend(3, X),
      TB.signExtend(3, X),
      TB.extract(W - 1, W / 2, X),
      TB.extract((W - 1) / 2, 0, Y),
      TB.iteTerm(B, X, Y),
      TB.bvAdd(X, TB.constBV(W, 0xa5a5a5a5a5a5a5a5ull)),
      TB.eqTerm(X, Y),
      TB.eqTerm(X, TB.constBV(W, 0x5a5a5a5a5a5a5a5aull)),
      TB.bvUlt(X, Y),
      TB.bvUle(X, Y),
      TB.bvSlt(X, Y),
      TB.bvSle(X, Y),
      TB.notTerm(B),
      TB.andTerm(B, P),
      TB.orTerm(B, P),
      TB.impliesTerm(B, P),
      TB.iteTerm(B, P, Q),
      TB.eqTerm(B, P),
      TB.eqTerm(B, TB.trueTerm()),
  };
  if (W <= 16)
    for (const Term *T : {TB.bvMul(X, Y), TB.bvUDiv(X, Y), TB.bvURem(X, Y),
                          TB.bvSDiv(X, Y), TB.bvSRem(X, Y)})
      Terms.push_back(T);
  BlastOracle O;
  checkAll(O, Terms, Rng);
}

/// \p X rebuilt as a term the builder does not fold back to \p X, with the
/// same literals once blasted.
const Term *sameBits(TermBuilder &TB, const Term *X) {
  return TB.extract(X->width() - 1, 0, TB.concat(X, X));
}

// The shapes where a gate's normalisation can go wrong: repeated,
// complementary and constant inputs, which TermBuilder leaves unfolded.
TEST_P(BlastDifferentialTest, DegenerateShapesAgreeWithTheEvaluator) {
  unsigned W = GetParam();
  std::mt19937_64 Rng(W * 104729 + 5);
  TermBuilder TB;
  BlastVars V(TB, W);
  const Term *X = V.X, *Y = V.Y, *B = V.B, *P = V.P, *Q = V.Q;
  const Term *NotX = TB.bvNot(X), *X2 = sameBits(TB, X);
  const Term *Zero = TB.constBV(W, 0), *One = TB.constBV(W, 1);
  const Term *Ones = TB.constBV(BitVec::ones(W));
  std::vector<const Term *> Terms = {
      TB.bvAdd(X, NotX),
      TB.bvSub(X, X2),
      TB.bvAdd(X, X2),
      TB.bvAdd(TB.bvAdd(X, X2), X),
      TB.bvAdd(X, Zero),
      TB.bvAdd(X, One),
      TB.bvAdd(One, X),
      TB.bvAdd(X, Ones),
      TB.bvSub(X, One),
      TB.bvSub(Zero, X),
      TB.bvSub(X, NotX),
      TB.bvAdd(X, TB.bvXor(X, Y)),
      TB.bvUlt(X, X2),
      TB.bvUle(X, X2),
      TB.bvSlt(X, X2),
      TB.bvSle(X, X2),
      TB.bvUlt(X, NotX),
      TB.bvSlt(NotX, X),
      TB.bvUlt(X, Zero),
      TB.bvUle(Ones, X),
      TB.eqTerm(X, NotX),
      TB.eqTerm(X, X2),
      TB.eqTerm(X, TB.bvAnd(X, Y)),
      TB.bvXor(X, X2),
      TB.bvXor(X, NotX),
      TB.bvAnd(X, NotX),
      TB.bvOr(X, NotX),
      TB.bvAnd(X, X2),
      TB.bvShl(X, X),
      TB.bvAShr(X, X),
      TB.iteTerm(B, X, X2),
      TB.iteTerm(B, X, NotX),
      TB.iteTerm(B, NotX, TB.bvNot(Y)),
      TB.iteTerm(TB.notTerm(B), X, Y),
      TB.iteTerm(B, X, Zero),
      TB.iteTerm(B, X, Ones),
      TB.iteTerm(B, Zero, X),
      TB.iteTerm(B, Ones, X),
      TB.iteTerm(B, B, P),
      TB.iteTerm(B, TB.notTerm(B), P),
      TB.iteTerm(B, P, B),
      TB.iteTerm(B, P, TB.notTerm(B)),
      TB.iteTerm(B, P, TB.notTerm(P)),
      TB.iteTerm(B, TB.trueTerm(), P),
      TB.iteTerm(B, P, TB.falseTerm()),
      TB.iteTerm(TB.notTerm(B), P, Q),
      TB.andTerm(B, TB.notTerm(B)),
      TB.orTerm(B, TB.notTerm(B)),
      TB.eqTerm(B, TB.notTerm(B)),
      TB.impliesTerm(B, B),
  };
  if (W <= 16)
    for (const Term *T : {TB.bvMul(X, X2), TB.bvMul(X, Ones),
                          TB.bvUDiv(X, X2), TB.bvSRem(X, X2)})
      Terms.push_back(T);
  BlastOracle O;
  checkAll(O, Terms, Rng);
}

INSTANTIATE_TEST_SUITE_P(Widths, BlastDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u, 32u, 64u,
                                           128u));

// A second term whose circuit is gate-for-gate equal to an earlier one's
// (commuted operands, a comparison written the other way round, a negation
// written as a subtraction) reuses those gates: blasting it adds no
// variable.  Each second term is then checked against the Evaluator.
TEST(BlastSharingTest, EqualCircuitsAddNoVariables) {
  std::mt19937_64 Rng(77);
  TermBuilder TB;
  BlastVars V(TB, 8);
  const Term *X = V.X, *Y = V.Y, *B = V.B, *P = V.P, *Q = V.Q;
  const std::pair<const Term *, const Term *> Pairs[] = {
      {TB.bvAdd(X, Y), TB.bvAdd(Y, X)},
      {TB.bvAnd(X, Y), TB.bvAnd(Y, X)},
      {TB.bvOr(X, Y), TB.bvOr(Y, X)},
      {TB.bvXor(X, Y), TB.bvXor(Y, X)},
      {TB.bvNeg(X), TB.bvSub(TB.constBV(8, 0), X)},
      {TB.bvUlt(X, Y), TB.notTerm(TB.bvUle(Y, X))},
      {TB.bvSlt(X, Y), TB.notTerm(TB.bvSle(Y, X))},
      {TB.eqTerm(X, Y), TB.eqTerm(Y, X)},
      {TB.iteTerm(B, X, Y), TB.iteTerm(TB.notTerm(B), Y, X)},
      {TB.andTerm(B, P), TB.andTerm(P, B)},
      {TB.eqTerm(B, P), TB.eqTerm(P, B)},
      {TB.iteTerm(B, P, Q), TB.iteTerm(TB.notTerm(B), Q, P)},
  };
  BlastOracle O;
  for (auto [First, Second] : Pairs) {
    O.bits(First);
    int Before = O.core().numVars();
    O.bits(Second);
    EXPECT_EQ(O.core().numVars(), Before)
        << Second->toString() << " after " << First->toString();
    checkAll(O, {Second}, Rng);
  }
}

//===----------------------------------------------------------------------===//
// Model-reuse tier and model certification.
//===----------------------------------------------------------------------===//

/// After a Sat answer: reads the goal variables' values back through
/// modelValue and checks that every goal evaluates to true under them.
void expectModelSatisfies(Solver &S, const std::vector<const Term *> &Goals,
                          const std::string &Where) {
  Env E;
  for (const Term *G : Goals)
    for (const Term *V : collectVars(G))
      E[V->varId()] = S.modelValue(V);
  for (const Term *G : Goals) {
    auto V = Evaluator().evaluate(G, E);
    ASSERT_TRUE(V.has_value()) << Where;
    EXPECT_TRUE(V->asBool()) << Where << ": " << G->toString();
  }
}

// Executor::feasibleSides checks PC ∧ s and PC ∧ ¬s, then extends PC by a
// Sat side.  Once the core has found a model of the path condition, the
// branches that model (or all zeros) satisfies are answered without it.
TEST(SolverTest, LastModelAnswersTheOtherBranch) {
  TermBuilder TB;
  Solver S(TB);
  const Term *X = TB.freshVar(Sort::bitvec(8), "x");
  const Term *Y = TB.freshVar(Sort::bitvec(8), "y");
  auto C = [&](uint64_t V) { return TB.constBV(8, V); };
  auto Counts = [&] {
    return std::make_tuple(S.stats().NumReused, S.stats().NumSatCalls);
  };
  // A reused answer: counted once, no core call, and modelValue agrees
  // with evaluating every goal under the model it returned.
  auto ExpectReused = [&](const std::vector<const Term *> &G) {
    auto [Reused, Core] = Counts();
    ASSERT_EQ(S.check(G), Result::Sat);
    EXPECT_EQ(S.stats().NumReused, Reused + 1);
    EXPECT_EQ(S.stats().NumSatCalls, Core);
    expectModelSatisfies(S, G, "reused");
    for (const Term *Goal : G)
      EXPECT_EQ(S.modelValue(Goal), Value(true)) << Goal->toString();
  };

  // x + 3 = 10 pins x to 7, so every model below is predictable.
  std::vector<const Term *> PC = {TB.eqTerm(TB.bvAdd(X, C(3)), C(10))};
  auto With = [&](const Term *Side) {
    std::vector<const Term *> G;
    G.reserve(PC.size() + 1);
    G.insert(G.end(), PC.begin(), PC.end());
    G.push_back(Side);
    return G;
  };

  // Branch on x <u 8.  A fresh solver has no last model and all zeros
  // falsifies x = 7: the core answers Sat with x = 7.  The else side is
  // Unsat, so the tier does not answer it and the last model stays.
  const Term *S1 = TB.bvUlt(X, C(8));
  ASSERT_EQ(S.check(With(S1)), Result::Sat);
  EXPECT_EQ(Counts(), std::make_tuple(uint64_t(0), uint64_t(1)));
  EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), 7u);
  ASSERT_EQ(S.check(With(TB.notTerm(S1))), Result::Unsat);
  EXPECT_EQ(S.stats().NumReused, 0u);
  PC.push_back(S1);

  // Branch on y <u 16, y a new variable.  The last model (x = 7, y at its
  // default 0) answers the then side.  It falsifies the else side, as do
  // all zeros, so the core answers that one with some y >= 16.
  const Term *S2 = TB.bvUlt(Y, C(16));
  ExpectReused(With(S2));
  EXPECT_EQ(S.modelValue(Y).asBitVec().toUInt64(), 0u);
  uint64_t Core = S.stats().NumSatCalls;
  ASSERT_EQ(S.check(With(TB.notTerm(S2))), Result::Sat);
  EXPECT_EQ(S.stats().NumSatCalls, Core + 1);
  EXPECT_GE(S.modelValue(Y).asBitVec().toUInt64(), 16u);

  // Exploring the else side: its first branch (y != 0) is answered by the
  // core model of the else side's own feasibility check.
  PC.push_back(TB.notTerm(S2));
  ExpectReused(With(TB.notTerm(TB.eqTerm(Y, C(0)))));
  EXPECT_GE(S.modelValue(Y).asBitVec().toUInt64(), 16u);

  // Push/pop and assertions leave the last model in place: the asserted
  // path condition plus a fresh branch is answered from it again.
  S.push();
  for (const Term *G : PC)
    S.assertTerm(G);
  ExpectReused({TB.bvUlt(C(2), Y)});
  S.pop();
}

// A Sat answer from the reuse tier is stored like the core's: a second
// builder gets it from the store, with the same model and no tier or core.
TEST(SolverTest, ReusedModelRoundTripsThroughTheStore) {
  FakeSolverCache Cache;
  auto Goals = [](TermBuilder &TB) {
    const Term *X = TB.freshVar(Sort::bitvec(16), "x");
    const Term *Y = TB.freshVar(Sort::bitvec(16), "y");
    const Term *PC =
        TB.eqTerm(TB.bvAdd(X, TB.constBV(16, 3)), TB.constBV(16, 10));
    return std::make_tuple(X, Y, PC, TB.bvUlt(Y, X));
  };
  {
    TermBuilder TB;
    Solver S(TB);
    S.setCache(&Cache);
    auto [X, Y, PC, Lt] = Goals(TB);
    ASSERT_EQ(S.check({PC}), Result::Sat); // the core: x = 7
    ASSERT_EQ(S.check({PC, Lt}), Result::Sat); // reused: x = 7, y = 0
    EXPECT_EQ(S.stats().NumSatCalls, 1u);
    EXPECT_EQ(S.stats().NumReused, 1u);
    EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), 7u);
    EXPECT_EQ(S.modelValue(Y).asBitVec().toUInt64(), 0u);
    EXPECT_EQ(Cache.M.size(), 2u);
  }
  {
    TermBuilder TB;
    const Term *Pad = TB.freshVar(Sort::bitvec(8), "pad"); // shift var ids
    (void)Pad;
    Solver S(TB);
    S.setCache(&Cache);
    auto [X, Y, PC, Lt] = Goals(TB);
    ASSERT_EQ(S.check({PC, Lt}), Result::Sat);
    EXPECT_EQ(S.stats().NumStoreHits, 1u);
    EXPECT_EQ(S.stats().NumReused, 0u);
    EXPECT_EQ(S.stats().NumSatCalls, 0u);
    EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), 7u);
    EXPECT_EQ(S.modelValue(Y).asBitVec().toUInt64(), 0u);
  }
}

// A core model is checked against the goals before it is used or cached.
// With x + 3 = 10 the model is unique, so a flipped bit is always caught:
// the answer is Unknown, nothing is memoized or stored, and the next check
// reaches the core again and is Sat.
TEST(SolverTest, CorruptCoreModelIsRejected) {
  support::FaultInjector FI(/*Seed=*/5);
  FI.failFirst(support::FaultSite::SolverModel, 1);
  support::FaultInjector *Saved = support::FaultInjector::active();
  support::FaultInjector::setActive(&FI);
  FakeSolverCache Cache;
  TermBuilder TB;
  Solver S(TB);
  S.setCache(&Cache);
  const Term *X = TB.freshVar(Sort::bitvec(16), "x");
  S.assertTerm(TB.eqTerm(TB.bvAdd(X, TB.constBV(16, 3)), TB.constBV(16, 10)));
  Result First = S.check();
  Result Second = S.check();
  support::FaultInjector::setActive(Saved);

  EXPECT_EQ(First, Result::Unknown);
  EXPECT_EQ(FI.injected(support::FaultSite::SolverModel), 1u);
  ASSERT_EQ(Second, Result::Sat);
  EXPECT_EQ(S.stats().NumRejectedModels, 1u);
  EXPECT_EQ(S.stats().NumUnknown, 1u);
  EXPECT_EQ(S.stats().NumMemoHits, 0u);
  EXPECT_EQ(S.stats().NumSatCalls, 2u);
  EXPECT_EQ(S.modelValue(X).asBitVec().toUInt64(), 7u);
  EXPECT_EQ(Cache.M.size(), 1u); // only the certified answer was stored
}

//===----------------------------------------------------------------------===//
// Unsat-only decision tier (Decide.h).
//===----------------------------------------------------------------------===//

struct LoggedShape {
  const char *Name;
  std::function<shapes::Goals(TermBuilder &, bool Perturb)> Build;
};

std::vector<LoggedShape> loggedShapes() {
  return {
      {"binary-search select chain, RV",
       [](TermBuilder &TB, bool P) {
         return shapes::binarySearchSelect(TB, 4, shapes::Flags::RV, P);
       }},
      {"binary-search select chain, Arm NZCV",
       [](TermBuilder &TB, bool P) {
         return shapes::binarySearchSelect(TB, 4, shapes::Flags::ArmNZCV, P);
       }},
      {"linear add/sub disequality", shapes::linearCancel},
      {"signed order chain", shapes::orderChain},
  };
}

// The four shapes that dominated SAT-core time are refuted by the tier:
// no check reaches the core.
TEST(DecideTest, LoggedShapesAreDecidedBeforeTheCore) {
  for (const LoggedShape &Sh : loggedShapes()) {
    TermBuilder TB;
    Solver S(TB);
    EXPECT_EQ(S.check(Sh.Build(TB, false)), Result::Unsat) << Sh.Name;
    EXPECT_EQ(S.stats().NumSatCalls, 0u) << Sh.Name;
    EXPECT_EQ(S.stats().NumDecided, 1u) << Sh.Name;
  }
}

// One literal changed makes each shape satisfiable: the tier must let it
// through to the core or the model-reuse tier (two shapes are satisfied by
// all zeros), whose model satisfies every goal.
TEST(DecideTest, PerturbedShapesReachTheCoreWithAModel) {
  for (const LoggedShape &Sh : loggedShapes()) {
    TermBuilder TB;
    Solver S(TB);
    shapes::Goals G = Sh.Build(TB, true);
    ASSERT_EQ(S.check(G), Result::Sat) << Sh.Name;
    EXPECT_EQ(S.stats().NumSatCalls + S.stats().NumReused, 1u) << Sh.Name;
    EXPECT_EQ(S.stats().NumDecided, 0u) << Sh.Name;
    expectModelSatisfies(S, G, Sh.Name);
  }
}

/// Random conjunctions of order literals, linear equalities and bounded
/// select chains over three variables of width 3 or 4.  The literals of one
/// conjunction compare pairs from a small shared pool, so cycles, repeated
/// atoms and complementary literals come up often.
class DecideGen {
public:
  DecideGen(TermBuilder &TB, std::mt19937 &Rng, unsigned W)
      : TB(TB), Rng(Rng), W(W) {
    for (int I = 0; I < 3; ++I)
      Vars.push_back(TB.freshVar(Sort::bitvec(W), "x" + std::to_string(I)));
  }

  const std::vector<const Term *> &vars() const { return Vars; }

  shapes::Goals conjunction() {
    Pool.clear();
    for (unsigned I = 0, N = 2 + Rng() % 3; I < N; ++I)
      Pool.emplace_back(term(), term());
    shapes::Goals G;
    for (unsigned I = 0, N = 2 + Rng() % 5; I < N; ++I)
      G.push_back(literal(2));
    return G;
  }

private:
  const Term *var() { return Vars[Rng() % Vars.size()]; }
  const Term *konst() { return TB.constBV(W, Rng()); }

  /// A variable, constant, linear combination or select chain.
  const Term *term() {
    switch (Rng() % 9) {
    case 0:
      return konst();
    case 1:
      return TB.bvAdd(var(), konst());
    case 2:
      return TB.bvSub(TB.bvAdd(var(), konst()), TB.bvSub(var(), var()));
    case 3:
      return TB.bvAdd(TB.bvNot(var()), TB.bvMul(var(), konst()));
    case 4: { // bounded select chain
      const Term *Idx = var();
      return TB.iteTerm(TB.eqTerm(Idx, TB.constBV(W, 0)), var(),
                        TB.iteTerm(TB.eqTerm(Idx, TB.constBV(W, 1)), var(),
                                   var()));
    }
    default:
      return var();
    }
  }

  /// A pool pair in either orientation.
  std::pair<const Term *, const Term *> pair() {
    auto [A, B] = Pool[Rng() % Pool.size()];
    return Rng() % 2 ? std::make_pair(A, B) : std::make_pair(B, A);
  }

  const Term *literal(int Depth) {
    auto [A, B] = pair();
    switch (Rng() % (Depth > 0 ? 9 : 7)) {
    case 0:
      return TB.bvUle(A, B);
    case 1:
      return TB.bvUlt(A, B);
    case 2:
      return TB.bvSle(A, B);
    case 3:
      return TB.bvSlt(A, B);
    case 4: // linear equality or disequality
      return Rng() % 2 ? TB.eqTerm(A, B) : TB.notTerm(TB.eqTerm(A, B));
    case 5: // a small bound, feeding the tiny-domain split
      return Rng() % 2 ? TB.bvUle(var(), TB.constBV(W, Rng() % 4))
                       : TB.bvUlt(TB.bvAdd(var(), konst()),
                                  TB.constBV(W, Rng() % 4));
    case 6: { // a < b ∨ a = b, which the tier folds to a ≤ b
      const Term *Lt = Rng() % 2 ? TB.bvUlt(A, B) : TB.bvSlt(A, B);
      return TB.orTerm(Lt, Rng() % 2 ? TB.eqTerm(A, B) : TB.eqTerm(B, A));
    }
    case 7:
      return TB.orTerm(literal(Depth - 1), literal(Depth - 1));
    default:
      return TB.notTerm(literal(Depth - 1));
    }
  }

  TermBuilder &TB;
  std::mt19937 &Rng;
  unsigned W;
  std::vector<const Term *> Vars;
  std::vector<std::pair<const Term *, const Term *>> Pool;
};

class DecideSoundnessTest : public ::testing::TestWithParam<int> {};

// Whenever the tier says Unsat, no assignment satisfies the goals.
TEST_P(DecideSoundnessTest, UnsatVerdictsHaveNoModel) {
  std::mt19937 Rng(unsigned(GetParam()) * 2246822519u + 11);
  unsigned W = GetParam() % 3 == 0 ? 4 : 3;
  TermBuilder TB;
  DecideGen Gen(TB, Rng, W);
  const std::vector<const Term *> &Vars = Gen.vars();
  unsigned Decided = 0;
  for (int Round = 0; Round < 200; ++Round) {
    shapes::Goals G = Gen.conjunction();
    if (!decideUnsat(G))
      continue;
    ++Decided;
    Env E;
    for (uint64_t A = 0; A < (uint64_t(1) << (W * Vars.size())); ++A) {
      for (size_t I = 0; I < Vars.size(); ++I)
        E[Vars[I]->varId()] = Value(BitVec(W, A >> (W * I)));
      bool Model = std::all_of(G.begin(), G.end(), [&](const Term *Goal) {
        auto V = Evaluator().evaluate(Goal, E);
        return V && V->asBool();
      });
      ASSERT_FALSE(Model) << "refuted but satisfiable at assignment " << A;
    }
  }
  // The generator must exercise the tier, not only its shape check.
  EXPECT_GT(Decided, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecideSoundnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class ModelReuseSoundnessTest : public ::testing::TestWithParam<int> {};

// Random goal sets checked in sequence on one Solver, so each Sat answer's
// model is a candidate for the sets after it.  Every answer agrees with
// exhaustive enumeration, and every Sat model makes every goal true.
TEST_P(ModelReuseSoundnessTest, AnswersAgreeWithEnumeration) {
  std::mt19937 Rng(unsigned(GetParam()) * 2654435761u + 3);
  unsigned W = GetParam() % 2 ? 3 : 4;
  TermBuilder TB;
  DecideGen Gen(TB, Rng, W);
  const std::vector<const Term *> &Vars = Gen.vars();
  Solver S(TB);
  shapes::Goals Prev;
  for (int Round = 0; Round < 200; ++Round) {
    // Half the sets extend the previous one by a literal, as a path
    // condition grows; the rest are fresh.
    shapes::Goals G = Gen.conjunction();
    if (Rng() % 2 && !Prev.empty()) {
      G.resize(1);
      G.insert(G.begin(), Prev.begin(), Prev.end());
    }
    uint64_t Reused = S.stats().NumReused;
    Result R = S.check(G);
    ASSERT_NE(R, Result::Unknown);
    bool Satisfiable = false;
    Env E;
    for (uint64_t A = 0; A < (uint64_t(1) << (W * Vars.size())); ++A) {
      for (size_t I = 0; I < Vars.size(); ++I)
        E[Vars[I]->varId()] = Value(BitVec(W, A >> (W * I)));
      Satisfiable = std::all_of(G.begin(), G.end(), [&](const Term *Goal) {
        auto V = Evaluator().evaluate(Goal, E);
        return V && V->asBool();
      });
      if (Satisfiable)
        break;
    }
    ASSERT_EQ(R == Result::Sat, Satisfiable)
        << "round " << Round << (S.stats().NumReused > Reused ? " (reused)"
                                                              : "");
    if (R != Result::Sat)
      continue;
    expectModelSatisfies(S, G, "round " + std::to_string(Round));
    Prev = G;
  }
  // The sequence must exercise the tier, not only the core.
  EXPECT_GT(S.stats().NumReused, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelReuseSoundnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

} // namespace
