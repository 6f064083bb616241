//===- frontend/CsCommon.h - Shared case-study helpers ----------*- C++ -*-===//
//
// Internal helpers shared by the cs_*.cpp case studies (not part of the
// public API).
//
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_FRONTEND_CSCOMMON_H
#define ISLARIS_FRONTEND_CSCOMMON_H

#include "frontend/CaseStudies.h"
#include "frontend/Verifier.h"

namespace islaris::frontend {

/// Fills a CaseResult for a study whose generateTraces call failed: the
/// verifier's structured diagnostic (guard trip, injected fault, corrupt
/// cache, model error) is carried into the row so the suite can tell an
/// infrastructure failure from a proof failure.
inline CaseResult genFailed(CaseResult R, Verifier &V,
                            const std::string &Err) {
  R.Ok = false;
  R.Error = Err;
  R.D = V.diag();
  if (R.D.ok())
    R.D = support::Diag::error(support::ErrorCode::ModelError, "isla", Err);
  return R;
}

/// Fills the bookkeeping fields of a CaseResult from a finished Verifier.
inline CaseResult finishResult(CaseResult R, Verifier &V, bool Ok,
                               unsigned SpecSize, unsigned Hints) {
  R.Ok = Ok;
  if (!Ok) {
    R.Error = V.engine().error();
    R.D = V.engine().diag();
    if (R.D.ok())
      R.D = support::Diag::error(support::ErrorCode::ProofFailed,
                                 "proof-engine", R.Error);
  }
  R.AsmInstrs = V.genStats().Instructions;
  R.ItlEvents = V.genStats().ItlEvents;
  R.IslaSeconds = V.genStats().Seconds;
  R.TracesExecuted = V.genStats().Executed;
  R.CacheHits = V.genStats().CacheHits;
  R.Deduped = V.genStats().Deduped;
  R.IslaMemoHits = V.genStats().SolverMemoHits;
  R.IslaStmts = V.genStats().StmtsExecuted;
  R.IslaStmtsSkipped = V.genStats().StmtsSkipped;
  R.HelperMemoHits = V.genStats().HelperMemoHits;
  R.FixpointCapHits = V.genStats().FixpointCapHits;
  R.Retries = V.genStats().Retries;
  R.Quarantined = V.genStats().Quarantined;
  R.SpecSize = SpecSize;
  R.Hints = Hints;
  R.Proof = V.engine().stats();
  return R;
}

/// The CNVZ_regs collection of Fig. 8: the four condition flags, with
/// existential values owned by \p S.
inline seplogic::RegColChunk nzcvCol(seplogic::Spec &S) {
  seplogic::RegColChunk C;
  C.Name = "CNVZ_regs";
  for (const char *F : {"N", "Z", "C", "V"})
    C.Regs.push_back(
        {itl::Reg("PSTATE", F), S.evar(1, std::string("f") + F)});
  return C;
}

/// The DAIF interrupt-mask bits, existential.
inline seplogic::RegColChunk daifCol(seplogic::Spec &S) {
  seplogic::RegColChunk C;
  C.Name = "DAIF_regs";
  for (const char *F : {"D", "A", "I", "F"})
    C.Regs.push_back(
        {itl::Reg("PSTATE", F), S.evar(1, std::string("m") + F)});
  return C;
}

/// An Armv8-A EL1 user-code configuration: assumptions EL=1, SP=1,
/// SCTLR_EL1=0 (alignment checking off).
inline isla::Assumptions armEl1Assumptions() {
  isla::Assumptions A;
  A.assume(itl::Reg("PSTATE", "EL"), BitVec(2, 0b01));
  A.assume(itl::Reg("PSTATE", "SP"), BitVec(1, 1));
  A.assume(itl::Reg("SCTLR_EL1"), BitVec(64, 0));
  return A;
}

/// Adds the sys_regs collection matching armEl1Assumptions to \p S.
inline void addArmEl1SysRegs(seplogic::Spec &S, smt::TermBuilder &TB) {
  seplogic::RegColChunk C;
  C.Name = "sys_regs";
  C.Regs.push_back({itl::Reg("PSTATE", "EL"), TB.constBV(2, 0b01)});
  C.Regs.push_back({itl::Reg("PSTATE", "SP"), TB.constBV(1, 1)});
  C.Regs.push_back({itl::Reg("SCTLR_EL1"), TB.constBV(64, 0)});
  S.regCol(std::move(C));
}

} // namespace islaris::frontend

#endif // ISLARIS_FRONTEND_CSCOMMON_H
