//===- support/Fingerprint.h - 128-bit content fingerprints -----*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 128-bit key type of every persistent store and its two hashers:
/// Fingerprinter, behind trace-cache keys (cache/Fingerprint.h) and
/// proof-bundle keys (seplogic::ProofEngine), and WordHasher, behind
/// side-condition goal-set keys (smt::Solver::goalSetKey).  Fingerprinter is a small
/// self-contained two-lane FNV-1a variant with a murmur-style final
/// avalanche — no external dependencies, deterministic across platforms
/// and runs (callers never hash pointers or addresses).
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_FINGERPRINT_H
#define ISLARIS_SUPPORT_FINGERPRINT_H

#include "support/BitVec.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace islaris::support {

/// A 128-bit content fingerprint.
struct Fingerprint {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const Fingerprint &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const Fingerprint &O) const { return !(*this == O); }
  bool operator<(const Fingerprint &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }

  /// 32 lowercase hex characters (filename-safe).
  std::string toHex() const;
  /// Parses the toHex() form; false on malformed input.
  static bool fromHex(std::string_view Text, Fingerprint &Out);
};

struct FingerprintHash {
  size_t operator()(const Fingerprint &F) const {
    return size_t(F.Hi ^ (F.Lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental hasher producing a Fingerprint.  All inputs are
/// length-prefixed, so adjacent fields cannot alias ("ab"+"c" != "a"+"bc").
class Fingerprinter {
public:
  Fingerprinter &bytes(const void *Data, size_t N);
  Fingerprinter &str(const std::string &S);
  Fingerprinter &u64(uint64_t V);
  Fingerprinter &boolean(bool V) { return u64(V ? 1 : 0); }
  Fingerprinter &bitvec(const BitVec &V);
  Fingerprinter &fingerprint(const Fingerprint &F) {
    return u64(F.Hi).u64(F.Lo);
  }

  /// Finalizes (avalanche mix).  The hasher may keep absorbing afterwards;
  /// digest() is a pure function of everything absorbed so far.
  Fingerprint digest() const;

private:
  uint64_t H1 = 0xcbf29ce484222325ull; // FNV-1a offset basis
  uint64_t H2 = 0x84222325cbf29ce4ull; // rotated basis for the second lane
  uint64_t Len = 0;
};

/// Murmur3's fmix64 avalanche.
inline uint64_t fmix64(uint64_t K) {
  K ^= K >> 33;
  K *= 0xff51afd7ed558ccdull;
  K ^= K >> 33;
  K *= 0xc4ceb9fe1a85ec53ull;
  K ^= K >> 33;
  return K;
}

/// The word at \p P as a little-endian number, whatever the host's byte
/// order or the pointer's alignment, so durable hashes agree across hosts.
/// Only the first \p N bytes are read when \p N < 8; the rest of the word is
/// zero.
inline uint64_t loadLE64(const char *P, size_t N = 8) {
  unsigned char B[8] = {};
  std::memcpy(B, P, N < 8 ? N : 8);
  uint64_t W = 0;
  std::memcpy(&W, B, 8);
  if constexpr (std::endian::native == std::endian::big)
    W = __builtin_bswap64(W);
  return W;
}

/// A 128-bit hasher over 64-bit words: two independently seeded and mixed
/// lanes.  It absorbs a word at a time, several times faster than
/// Fingerprinter's bytes, for keys computed on hot paths (smt::Solver's
/// goal-set keys digest every term of a warm run).  Its digests differ
/// from Fingerprinter's; like it, it is deterministic across platforms.
class WordHasher {
public:
  WordHasher &word(uint64_t W) {
    A = fmix64(A ^ W) + 0x165667b19e3779f9ull;
    B = (B ^ fmix64(W + 0x27d4eb2f165667c5ull)) * 0x100000001b3ull;
    B = (B << 29) | (B >> 35);
    ++N;
    return *this;
  }
  /// The length, then the bytes, 8 to a word (loadLE64).
  WordHasher &str(const std::string &S);
  WordHasher &fingerprint(const Fingerprint &F) {
    return word(F.Hi).word(F.Lo);
  }
  Fingerprint digest() const {
    return {fmix64(A ^ N), fmix64(B ^ (N << 32) ^ A)};
  }

private:
  uint64_t A = 0x9e3779b97f4a7c15ull;
  uint64_t B = 0xc2b2ae3d27d4eb4full;
  uint64_t N = 0; ///< Words absorbed.
};

/// Hash of a sequence of hash-consed term ids (FNV-1a over the ids), for
/// the in-run memos keyed on the id vector itself: smt::Solver's goal-set
/// memo and seplogic::ProofEngine's side-condition memo.
struct IdSeqHash {
  size_t operator()(const std::vector<unsigned> &V) const {
    uint64_t H = 0xcbf29ce484222325ull;
    for (unsigned Id : V) {
      H ^= Id;
      H *= 1099511628211ull;
    }
    return size_t(H ^ (H >> 31));
  }
};

} // namespace islaris::support

#endif // ISLARIS_SUPPORT_FINGERPRINT_H
