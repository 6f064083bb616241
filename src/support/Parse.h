//===- support/Parse.h - Strict parsing of untrusted numbers ----*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validating parsers for numbers that arrive as untrusted bytes — record
/// headers (support/Record), the fields inside wire and journal payloads
/// (support/Wire), store entry payloads, ITL trace text, objdump listings.
/// `std::stoul` throws on non-numeric input and silently wraps "-1" to
/// 4294967295; both behaviours violate the durability contract (a corrupt
/// entry degrades to a miss / parse error, never a crash or a wrong value).
/// Every number parsed out of input data must come through here.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_PARSE_H
#define ISLARIS_SUPPORT_PARSE_H

#include <cstdint>
#include <string_view>

namespace islaris::support {

/// Parses a non-negative decimal integer in [0, Max].  Accepts exactly
/// [0-9]+ — rejects the empty string, signs (so "-1" cannot wrap), hex,
/// whitespace, trailing junk, and anything that overflows uint64_t or
/// exceeds Max.  Returns false instead of throwing.
inline bool parseUnsigned(std::string_view S, uint64_t Max, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    unsigned D = unsigned(C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  if (V > Max)
    return false;
  Out = V;
  return true;
}

/// Narrow-result overload for the common width/count fields.  Max above
/// UINT32_MAX is clamped so the result always fits the output type.
inline bool parseUnsigned(std::string_view S, uint64_t Max, unsigned &Out) {
  uint64_t V = 0;
  if (!parseUnsigned(S, Max < 0xFFFFFFFFu ? Max : 0xFFFFFFFFu, V))
    return false;
  Out = unsigned(V);
  return true;
}

/// True when \p S is non-empty and only lowercase hex digits, the one form
/// keys, checksums and shard names are written in.
inline bool isLowerHex(std::string_view S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}

/// Parses a hexadecimal integer in [0, Max]: one or more hex digits of
/// either case and nothing else.  Rejects the empty string, a "0x" prefix,
/// anything that overflows uint64_t and anything above Max.
inline bool parseHex(std::string_view S, uint64_t Max, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    unsigned D = 0;
    if (C >= '0' && C <= '9')
      D = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = unsigned(C - 'a' + 10);
    else if (C >= 'A' && C <= 'F')
      D = unsigned(C - 'A' + 10);
    else
      return false;
    if (V >> 60)
      return false;
    V = V << 4 | D;
  }
  if (V > Max)
    return false;
  Out = V;
  return true;
}

/// Parses exactly 16 lowercase hex digits (a 64-bit checksum).
inline bool parseHex64(std::string_view S, uint64_t &Out) {
  return S.size() == 16 && isLowerHex(S) && parseHex(S, UINT64_MAX, Out);
}

} // namespace islaris::support

#endif // ISLARIS_SUPPORT_PARSE_H
