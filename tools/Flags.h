//===- tools/Flags.h - Command-line flag values -----------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag-value reader of islarisd, islaris-cli, cachectl and netchaos.
/// Values go through support/Parse.h; a missing or malformed one prints
/// "<tool>: --flag: bad value 'x'" and exits 2 before the tool starts
/// anything, so it is never read as 0 or a default.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_TOOLS_FLAGS_H
#define ISLARIS_TOOLS_FLAGS_H

#include "support/Parse.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace islaris::tools {

/// Walks argv: next() returns each argument in turn, and after a flag the
/// caller reads its value with one of the typed readers.
class Flags {
public:
  Flags(const char *Tool, int Argc, char **Argv, int First = 1)
      : Tool(Tool), Argc(Argc), Argv(Argv), I(First) {}

  bool more() const { return I < Argc; }
  std::string_view next() { return Flag = Argv[I++]; }

  const char *str() {
    if (I >= Argc)
      bad("");
    return Argv[I++];
  }
  /// Decimal, decimal or 0x-hex, and bare hex integers in [0, Max].
  uint64_t count(uint64_t Max = UINT64_MAX) {
    return num(support::parseUnsigned, Max);
  }
  uint64_t integer(uint64_t Max = UINT64_MAX) {
    return num(support::parseInteger, Max);
  }
  uint64_t hex(uint64_t Max) { return num(support::parseHex, Max); }
  /// A finite decimal number in [0, Max]; the default bounds seconds and
  /// milliseconds far past any useful timeout, and within what a clock
  /// duration holds.
  double real(double Max = 1e9) {
    const char *V = str();
    double D = 0;
    if (!support::parseDouble(V, D) || D < 0 || D > Max)
      bad(V);
    return D;
  }

  [[noreturn]] void bad(std::string_view Value) const {
    std::fprintf(stderr, "%s: %.*s: bad value '%.*s'\n", Tool,
                 int(Flag.size()), Flag.data(), int(Value.size()),
                 Value.data());
    std::exit(2);
  }

private:
  uint64_t num(bool (*Parse)(std::string_view, uint64_t, uint64_t &),
               uint64_t Max) {
    const char *V = str();
    uint64_t N = 0;
    if (!Parse(V, Max, N))
      bad(V);
    return N;
  }

  const char *Tool;
  int Argc;
  char **Argv;
  int I;
  std::string_view Flag;
};

} // namespace islaris::tools

#endif // ISLARIS_TOOLS_FLAGS_H
