//===- support/Parse.h - Strict parsing of untrusted numbers ----*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every number the program reads comes through here: tool flags, the
/// environment, model text, and untrusted bytes — record headers, wire and
/// journal payload fields, store entries, ITL trace text, objdump listings.
/// Each parser takes the whole token and returns false instead of throwing,
/// wrapping, truncating or reading junk as 0 (as strtoul, atoi, atof and
/// std::stoul do; CI greps src/ and tools/ for them).  There is no octal.
/// Cursor is the read position the text formats share: store entry headers
/// and side-condition bundles match it literally, and itl::TraceParser
/// tokenizes through it.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_PARSE_H
#define ISLARIS_SUPPORT_PARSE_H

#include <charconv>
#include <cmath>
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

/// Parses an integer in [0, Max] written in decimal ("010" is ten), or as
/// "0x"/"0X" and hex digits: the form of seeds and sizes.
inline bool parseInteger(std::string_view S, uint64_t Max, uint64_t &Out) {
  if (S.size() > 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X'))
    return parseHex(S.substr(2), Max, Out);
  return parseUnsigned(S, Max, Out);
}

/// Parses a finite double: decimal ("0.25", "1e-3") or a hexfloat as "%a"
/// prints it ("0x1.8p+1"), with an optional '-'.  Rejects '+', whitespace,
/// "inf", "nan" and "1e999".  Does not allocate.
inline bool parseDouble(std::string_view S, double &Out) {
  bool Neg = !S.empty() && S[0] == '-';
  S.remove_prefix(Neg ? 1 : 0);
  std::chars_format Fmt = std::chars_format::general;
  if (S.size() > 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X')) {
    S.remove_prefix(2);
    Fmt = std::chars_format::hex;
  }
  if (S.empty() || S[0] == '-')
    return false;
  double V = 0;
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), V, Fmt);
  if (Ec != std::errc() || End != S.data() + S.size() || !std::isfinite(V))
    return false;
  Out = Neg ? -V : V;
  return true;
}

/// Parses exactly 16 lowercase hex digits (a 64-bit checksum).
inline bool parseHex64(std::string_view S, uint64_t &Out) {
  return S.size() == 16 && isLowerHex(S) && parseHex(S, UINT64_MAX, Out);
}

/// A read position in untrusted text.  Every step is bounds-checked: a
/// failed match consumes nothing, and nothing reads past the end.
struct Cursor {
  std::string_view S;
  size_t P = 0;

  bool atEnd() const { return P == S.size(); }
  /// True if the input continues with \p C.
  bool at(char C) const { return P < S.size() && S[P] == C; }
  /// Consumes \p L if the input continues with it.
  bool lit(std::string_view L) {
    if (S.substr(P, L.size()) != L)
      return false;
    P += L.size();
    return true;
  }
  /// Consumes the text up to the next \p C (not \p C itself).
  bool until(char C, std::string_view &Out) {
    size_t E = S.find(C, P);
    if (E == std::string_view::npos)
      return false;
    Out = S.substr(P, E - P);
    P = E;
    return true;
  }
  /// Consumes and returns the longest run of characters satisfying \p Pred.
  template <typename PredT> std::string_view span(PredT Pred) {
    size_t B = P;
    while (P < S.size() && Pred(S[P]))
      ++P;
    return S.substr(B, P - B);
  }
  /// Consumes and returns the next \p N characters (fewer at the end).
  std::string_view take(size_t N) {
    std::string_view R = S.substr(P, N);
    P += R.size();
    return R;
  }
};

} // namespace islaris::support

#endif // ISLARIS_SUPPORT_PARSE_H
