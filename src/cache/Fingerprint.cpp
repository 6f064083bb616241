//===- cache/Fingerprint.cpp - Content-addressed trace-cache keys -------------===//

#include "cache/Fingerprint.h"

#include "sail/Printer.h"
#include "smt/TermBuilder.h"

#include <mutex>
#include <unordered_map>

using namespace islaris;
using namespace islaris::cache;

static constexpr uint64_t FnvPrime = 0x100000001b3ull;

static uint64_t rotl64(uint64_t V, unsigned S) {
  return (V << S) | (V >> (64 - S));
}

/// Murmur3 fmix64 avalanche.
static uint64_t fmix64(uint64_t K) {
  K ^= K >> 33;
  K *= 0xff51afd7ed558ccdull;
  K ^= K >> 33;
  K *= 0xc4ceb9fe1a85ec53ull;
  K ^= K >> 33;
  return K;
}

std::string Fingerprint::toHex() const {
  static const char *Digits = "0123456789abcdef";
  std::string S(32, '0');
  for (unsigned I = 0; I < 16; ++I) {
    S[15 - I] = Digits[(Hi >> (4 * I)) & 0xf];
    S[31 - I] = Digits[(Lo >> (4 * I)) & 0xf];
  }
  return S;
}

bool Fingerprint::fromHex(const std::string &Text, Fingerprint &Out) {
  if (Text.size() != 32)
    return false;
  uint64_t Parts[2] = {0, 0};
  for (unsigned I = 0; I < 32; ++I) {
    char C = Text[I];
    uint64_t D;
    if (C >= '0' && C <= '9')
      D = uint64_t(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = uint64_t(C - 'a' + 10);
    else
      return false;
    Parts[I / 16] = (Parts[I / 16] << 4) | D;
  }
  Out.Hi = Parts[0];
  Out.Lo = Parts[1];
  return true;
}

Fingerprinter &Fingerprinter::bytes(const void *Data, size_t N) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I) {
    H1 = (H1 ^ P[I]) * FnvPrime;
    // Second lane: same FNV step over a bit-flipped stream, plus a rotate,
    // so the lanes decorrelate.
    H2 = rotl64((H2 ^ (P[I] ^ 0xa5u)) * FnvPrime, 1);
  }
  Len += N;
  return *this;
}

Fingerprinter &Fingerprinter::u64(uint64_t V) {
  unsigned char Buf[8];
  for (unsigned I = 0; I < 8; ++I)
    Buf[I] = (unsigned char)(V >> (8 * I)); // fixed little-endian encoding
  return bytes(Buf, 8);
}

Fingerprinter &Fingerprinter::str(const std::string &S) {
  u64(S.size());
  return bytes(S.data(), S.size());
}

Fingerprinter &Fingerprinter::bitvec(const BitVec &V) {
  u64(V.width());
  return str(V.toString());
}

Fingerprint Fingerprinter::digest() const {
  Fingerprint F;
  F.Hi = fmix64(H1 ^ Len);
  F.Lo = fmix64(H2 ^ rotl64(Len, 32) ^ H1);
  return F;
}

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
  FP.u64(MF.Hi).u64(MF.Lo);
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
