//===- support/Wire.h - Shared field-level wire codec -----------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The field-level codec shared by the run-journal CaseResult rows and the
/// islarisd wire protocol: the fields inside a record's payload, once
/// support/Record.h has checked the record around them.  Values are
/// space-separated tokens; strings are length-prefixed ("<len>:<bytes>") so
/// embedded spaces, parens and newlines survive; doubles travel as
/// hexfloats so a decoded value is bit-for-bit the encoded one, not a
/// decimal approximation.
///
/// Decoding is fail-soft: any malformed field (a number support/Parse.h
/// refuses, a string longer than the bytes left) trips Cursor::Fail and
/// every later read degrades to a zero value, so callers validate once at
/// the end instead of threading error returns through every field.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_WIRE_H
#define ISLARIS_SUPPORT_WIRE_H

#include "support/Parse.h"

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace islaris::support::wire {

inline void putStr(std::ostringstream &OS, const std::string &S) {
  OS << S.size() << ":" << S << " ";
}

inline void putU64(std::ostringstream &OS, uint64_t V) { OS << V << " "; }

inline void putF(std::ostringstream &OS, double D) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%a", D);
  OS << Buf << " ";
}

/// Sequential token reader over the encoded form; any malformed field trips
/// Fail and every later read degrades to a zero value.  Every number goes
/// through support/Parse.h, so "-1" or "abc" fails instead of wrapping or
/// reading as 0, and a string length must fit the bytes that remain.
struct Cursor {
  std::string_view T;
  size_t P = 0;
  bool Fail = false;

  explicit Cursor(std::string_view T) : T(T) {}

  void skip() {
    while (P < T.size() && T[P] == ' ')
      ++P;
  }
  std::string_view tok() {
    skip();
    size_t S = P;
    while (P < T.size() && T[P] != ' ')
      ++P;
    if (P == S)
      Fail = true;
    return T.substr(S, P - S);
  }
  uint64_t u64() {
    uint64_t V = 0;
    Fail |= !parseUnsigned(tok(), UINT64_MAX, V);
    return V;
  }
  double f() {
    double D = 0;
    Fail |= !parseDouble(tok(), D);
    return D;
  }
  /// A length-prefixed string, as a view into the encoded form.
  std::string_view strView() {
    skip();
    size_t Colon = T.find(':', P);
    uint64_t Len = 0;
    if (Colon == std::string_view::npos ||
        !parseUnsigned(T.substr(P, Colon - P), T.size() - Colon - 1, Len)) {
      Fail = true;
      return {};
    }
    P = Colon + 1 + size_t(Len);
    return T.substr(Colon + 1, size_t(Len));
  }
  std::string str() { return std::string(strView()); }
};

} // namespace islaris::support::wire

#endif // ISLARIS_SUPPORT_WIRE_H
