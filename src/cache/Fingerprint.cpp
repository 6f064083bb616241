//===- cache/Fingerprint.cpp - Content-addressed trace-cache keys -------------===//

#include "cache/Fingerprint.h"

#include "sail/Printer.h"
#include "smt/TermBuilder.h"

#include <mutex>
#include <unordered_map>

using namespace islaris;
using namespace islaris::cache;

Fingerprint islaris::cache::fingerprintModel(const sail::Model &M) {
  // Memoized by the model's process-unique Uid, NOT its address: hot
  // reloads (and test suites running many servers) parse and free Model
  // instances, and a recycled heap address must never resurrect a dead
  // model's fingerprint into fresh cache keys.  Entries for dead models
  // linger, but they are 24 bytes per parse ever performed.
  static std::mutex Mu;
  static std::unordered_map<uint64_t, Fingerprint> Memo;
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Memo.find(M.Uid);
    if (It != Memo.end())
      return It->second;
  }
  // Print outside the lock: printing a large model is the expensive part,
  // and a duplicated computation yields the identical fingerprint.
  Fingerprinter FP;
  FP.str(sail::printModel(M));
  Fingerprint F = FP.digest();
  std::lock_guard<std::mutex> L(Mu);
  Memo.emplace(M.Uid, F);
  return F;
}

Fingerprint islaris::cache::traceCacheKey(const std::string &ArchName,
                                          const sail::Model &M,
                                          const isla::OpcodeSpec &Op,
                                          const isla::Assumptions &A,
                                          const isla::ExecOptions &Opts) {
  Fingerprinter FP;
  FP.str("islaris-trace-key-v1");
  FP.str(ArchName);
  Fingerprint MF = fingerprintModel(M);
  FP.fingerprint(MF);
  FP.bitvec(Op.Bits).bitvec(Op.SymMask);

  FP.u64(A.Concrete.size());
  for (const auto &[R, V] : A.Concrete) {
    FP.str(R.toString());
    FP.bitvec(V);
  }
  FP.u64(A.Constraints.size());
  for (const auto &[R, F] : A.Constraints) {
    FP.str(R.toString());
    // Render the predicate against a scratch builder whose first variable
    // stands for the register's initial value.  Constraint closures receive
    // the builder as a parameter (RegConstraintFn), so they are
    // builder-agnostic and this rendering is deterministic.
    unsigned W = isla::registerWidth(M, R);
    FP.u64(W);
    smt::TermBuilder Scratch;
    const smt::Term *Var =
        Scratch.freshVar(smt::Sort::bitvec(W ? W : 64), "k0");
    const smt::Term *Pred = F(Scratch, Var);
    FP.str(Pred ? Pred->toString() : "<null>");
  }

  FP.boolean(Opts.CacheRegReads);
  FP.boolean(Opts.SinksOnly);
  FP.u64(Opts.MaxPaths);
  return FP.digest();
}
