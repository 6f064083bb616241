//===- support/Fingerprint.cpp - 128-bit content fingerprints ----------------===//

#include "support/Fingerprint.h"

#include "support/Parse.h"

using namespace islaris;
using namespace islaris::support;

static constexpr uint64_t FnvPrime = 0x100000001b3ull;

static uint64_t rotl64(uint64_t V, unsigned S) {
  return (V << S) | (V >> (64 - S));
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

bool Fingerprint::fromHex(std::string_view Text, Fingerprint &Out) {
  uint64_t Hi = 0, Lo = 0;
  if (Text.size() != 32 || !parseHex64(Text.substr(0, 16), Hi) ||
      !parseHex64(Text.substr(16), Lo))
    return false;
  Out = {Hi, Lo};
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

WordHasher &WordHasher::str(const std::string &S) {
  word(S.size());
  for (size_t I = 0; I < S.size(); I += 8)
    word(loadLE64(S.data() + I, S.size() - I));
  return *this;
}
