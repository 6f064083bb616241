//===- bench/bench_solver.cpp - Bitvector-automation micro-benchmarks (E8) ---------===//
//
// The paper attributes much of its verification time to "the bitvector
// automation" (§6).  These google-benchmark micro-benchmarks measure our
// QF_BV solver on the side-condition shapes the case studies generate:
// address containment, flag-condition implications, move-wide patching
// equalities, the rbit spec/trace equivalence, and the three shapes that
// dominated SAT-core time before the Unsat-only decision tier (Decide.h):
// binary-search select chains, linear add/sub disequalities and signed
// order chains; and Isla's branch pruning, whose Sat checks the
// model-reuse tier answers.
//
//===----------------------------------------------------------------------===//

#include "../tests/SideCondShapes.h"
#include "smt/Solver.h"

#include <benchmark/benchmark.h>

using namespace islaris;
using namespace islaris::smt;

namespace {

/// Array containment: prove (base + i) - base < n under i < n.
void BM_AddressContainment(benchmark::State &State) {
  for (auto _ : State) {
    TermBuilder TB;
    Solver S(TB);
    const Term *Base = TB.freshVar(Sort::bitvec(64), "base");
    const Term *I = TB.freshVar(Sort::bitvec(64), "i");
    S.assertTerm(TB.bvUlt(I, TB.constBV(64, uint64_t(State.range(0)))));
    const Term *Off = TB.bvSub(TB.bvAdd(Base, I), Base);
    bool Ok = S.isValid(
        TB.bvUlt(Off, TB.constBV(64, uint64_t(State.range(0)))));
    if (!Ok)
      State.SkipWithError("containment not proven");
  }
}
BENCHMARK(BM_AddressContainment)->Arg(4)->Arg(16)->Arg(64);

/// Flag implication: the cmp/b.ne side condition of the memcpy loop.
void BM_FlagCondition(benchmark::State &State) {
  for (auto _ : State) {
    TermBuilder TB;
    Solver S(TB);
    const Term *N = TB.constBV(64, 4);
    const Term *M = TB.freshVar(Sort::bitvec(64), "m");
    const Term *M1 = TB.bvAdd(M, TB.constBV(64, 1));
    S.assertTerm(TB.bvUlt(M, N));
    S.assertTerm(TB.notTerm(TB.eqTerm(TB.bvSub(N, M1), TB.constBV(64, 0))));
    bool Ok = S.isValid(TB.bvUlt(M1, N));
    if (!Ok)
      State.SkipWithError("flag implication not proven");
  }
}
BENCHMARK(BM_FlagCondition);

/// The pKVM move-wide relocation equality: masked-insert chain equals the
/// shift-or composition.
void BM_MoveWidePatch(benchmark::State &State) {
  for (auto _ : State) {
    TermBuilder TB;
    Solver S(TB);
    const Term *Imm[4] = {
        TB.freshVar(Sort::bitvec(16), "i0"),
        TB.freshVar(Sort::bitvec(16), "i1"),
        TB.freshVar(Sort::bitvec(16), "i2"),
        TB.freshVar(Sort::bitvec(16), "i3"),
    };
    // movz/movk chain.
    const Term *V = TB.zeroExtend(48, Imm[0]);
    for (int K = 1; K < 4; ++K) {
      const Term *Mask = TB.constBV(BitVec(64, 0xffffull).shl(16 * K));
      V = TB.bvOr(TB.bvAnd(V, TB.bvNot(Mask)),
                  TB.bvShl(TB.zeroExtend(48, Imm[K]),
                           TB.constBV(64, 16 * K)));
    }
    // Shift-or composition.
    const Term *W = TB.zeroExtend(48, Imm[0]);
    for (int K = 1; K < 4; ++K)
      W = TB.bvOr(W, TB.bvShl(TB.zeroExtend(48, Imm[K]),
                              TB.constBV(64, 16 * K)));
    if (!S.isValid(TB.eqTerm(V, W)))
      State.SkipWithError("move-wide equality not proven");
  }
}
BENCHMARK(BM_MoveWidePatch);

/// The rbit side condition: concat-of-extracts equals shift-and-mask.
void BM_RbitEquivalence(benchmark::State &State) {
  unsigned W = unsigned(State.range(0));
  for (auto _ : State) {
    TermBuilder TB;
    Solver S(TB);
    const Term *X = TB.freshVar(Sort::bitvec(W), "x");
    const Term *A = TB.extract(0, 0, X);
    for (unsigned I = 1; I < W; ++I)
      A = TB.concat(A, TB.extract(I, I, X));
    const Term *B = TB.constBV(W, 0);
    for (unsigned I = 0; I < W; ++I)
      B = TB.bvOr(B, TB.bvShl(TB.bvAnd(TB.bvLShr(X, TB.constBV(W, I)),
                                       TB.constBV(W, 1)),
                              TB.constBV(W, W - 1 - I)));
    if (!S.isValid(TB.eqTerm(A, B)))
      State.SkipWithError("rbit equivalence not proven");
  }
}
BENCHMARK(BM_RbitEquivalence)->Arg(8)->Arg(32)->Arg(64);

/// Warm re-check of an identical side condition: after the first solve the
/// in-run memo table answers, so this measures the cached query path the
/// proof engine hits whenever branch contexts share pure prefixes.
void BM_MemoizedRecheck(benchmark::State &State) {
  TermBuilder TB;
  Solver S(TB);
  const Term *Base = TB.freshVar(Sort::bitvec(64), "base");
  const Term *I = TB.freshVar(Sort::bitvec(64), "i");
  S.assertTerm(TB.bvUlt(I, TB.constBV(64, 64)));
  const Term *Off = TB.bvSub(TB.bvAdd(Base, I), Base);
  const Term *Goal = TB.bvUlt(Off, TB.constBV(64, 64));
  if (!S.isValid(Goal)) { // cold solve populating the memo
    State.SkipWithError("containment not proven");
    return;
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(S.isValid(Goal));
}
BENCHMARK(BM_MemoizedRecheck);

/// Incremental push/pop with a *fresh* goal per frame: the shared context
/// circuit ((base + i) - base) is bit-blasted once and its clauses reused,
/// so each iteration only blasts the new comparison constant.  Before the
/// persistent-core rework every frame rebuilt the entire CNF.
void BM_IncrementalReblast(benchmark::State &State) {
  TermBuilder TB;
  Solver S(TB);
  const Term *Base = TB.freshVar(Sort::bitvec(64), "base");
  const Term *I = TB.freshVar(Sort::bitvec(64), "i");
  S.assertTerm(TB.bvUlt(I, TB.constBV(64, 64)));
  const Term *Off = TB.bvSub(TB.bvAdd(Base, I), Base);
  uint64_t K = 64;
  for (auto _ : State) {
    S.push();
    S.assertTerm(TB.bvUlt(Off, TB.constBV(64, ++K)));
    benchmark::DoNotOptimize(int(S.check()));
    S.pop();
  }
}
BENCHMARK(BM_IncrementalReblast);

/// Sorted-array lower-bound implication (binary search back-edge).
void BM_SortedImplication(benchmark::State &State) {
  for (auto _ : State) {
    TermBuilder TB;
    Solver S(TB);
    const Term *Key = TB.freshVar(Sort::bitvec(64), "key");
    const Term *E0 = TB.freshVar(Sort::bitvec(64), "e0");
    const Term *E1 = TB.freshVar(Sort::bitvec(64), "e1");
    S.assertTerm(TB.bvSle(E0, E1));
    S.assertTerm(TB.bvSlt(E1, Key));
    if (!S.isValid(TB.bvSlt(E0, Key)))
      State.SkipWithError("transitivity not proven");
  }
}
BENCHMARK(BM_SortedImplication);

/// One cold check of a goal set; fails the benchmark on a wrong verdict.
void checkShape(benchmark::State &State, const shapes::Goals &G,
                TermBuilder &TB, Result Want) {
  Solver S(TB);
  Result R = S.check(G);
  benchmark::DoNotOptimize(R);
  if (R != Want)
    State.SkipWithError("wrong verdict");
}

/// The binary-search select chain over N elements, RV (arg 1 = 0) or Arm
/// NZCV (arg 1 = 1) flags.  N = 4 has 25 (lo, hi) cases and is refuted by
/// the tier; N = 8 has 81, above the 64-case cap, so it measures the tier's
/// failed attempt plus the SAT core.
void BM_BinarySearchSelect(benchmark::State &State) {
  auto F = State.range(1) ? shapes::Flags::ArmNZCV : shapes::Flags::RV;
  for (auto _ : State) {
    TermBuilder TB;
    checkShape(State,
               shapes::binarySearchSelect(TB, unsigned(State.range(0)), F),
               TB, Result::Unsat);
  }
}
BENCHMARK(BM_BinarySearchSelect)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);

/// memcpy's `(p+1) - (4 - (c2-1)) != p - (4-c2)`: refuted by linear forms.
void BM_LinearCancel(benchmark::State &State) {
  for (auto _ : State) {
    TermBuilder TB;
    checkShape(State, shapes::linearCancel(TB), TB, Result::Unsat);
  }
}
BENCHMARK(BM_LinearCancel);

/// `e0 <= e1 <= e2 <= e3` with `e2 < e1`: refuted by the order closure.
void BM_OrderChain(benchmark::State &State) {
  for (auto _ : State) {
    TermBuilder TB;
    checkShape(State, shapes::orderChain(TB), TB, Result::Unsat);
  }
}
BENCHMARK(BM_OrderChain);

/// Branch pruning with both sides of each branch checked on one Solver, as
/// Executor::feasibleSides does only on a path without a witness model
/// (after a constraint preamble); a path with one settles the side its
/// witness satisfies by evaluation and checks only the other.  The path
/// condition grows by one literal per step.  The path is an unrolled loop
/// over a length the precondition pins (`len + N = 3N`), so the loop-exit
/// side `len <= k` is pruned; every third step instead branches on a fresh
/// byte `d < 128`, with both sides feasible.  The then side is taken.
/// Counters per iteration: checks that reached the SAT core and checks
/// answered by a reused model.
void BM_BranchFeasibility(benchmark::State &State) {
  unsigned Steps = unsigned(State.range(0));
  uint64_t SatCalls = 0, Reused = 0;
  for (auto _ : State) {
    TermBuilder TB;
    Solver S(TB);
    auto C = [&](uint64_t V) { return TB.constBV(64, V); };
    auto Fresh = [&](const std::string &Name) {
      return TB.freshVar(Sort::bitvec(64), Name);
    };
    const Term *Len = Fresh("len");
    std::vector<const Term *> PC = {
        TB.eqTerm(TB.bvAdd(Len, C(Steps)), C(3 * uint64_t(Steps)))};
    for (unsigned K = 0; K < Steps; ++K) {
      bool Data = K % 3 == 2;
      const Term *Cond =
          Data ? TB.bvUlt(Fresh("d" + std::to_string(K)), C(128))
               : TB.bvUlt(C(K), Len);
      PC.push_back(Cond);
      Result Then = S.check(PC);
      PC.back() = TB.notTerm(Cond);
      Result Else = S.check(PC);
      if (Then != Result::Sat || Else != (Data ? Result::Sat : Result::Unsat))
        State.SkipWithError("wrong branch verdict");
      PC.back() = Cond;
    }
    SatCalls += S.stats().NumSatCalls;
    Reused += S.stats().NumReused;
  }
  State.counters["sat_calls"] =
      benchmark::Counter(double(SatCalls), benchmark::Counter::kAvgIterations);
  State.counters["reused"] =
      benchmark::Counter(double(Reused), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BranchFeasibility)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
