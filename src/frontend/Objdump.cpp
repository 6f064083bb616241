//===- frontend/Objdump.cpp - Annotated objdump input ----------------------------===//

#include "frontend/Objdump.h"

#include "support/Parse.h"

#include <sstream>

using namespace islaris;
using namespace islaris::frontend;

namespace {

bool isHexString(const std::string &S) {
  return !S.empty() &&
         S.find_first_not_of("0123456789abcdefABCDEF") == std::string::npos;
}

} // namespace

std::optional<ObjdumpImage>
islaris::frontend::parseObjdump(const std::string &Text, std::string &Error) {
  ObjdumpImage Img;
  std::istringstream In(Text);
  std::string Line;
  int LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    // Strip leading whitespace.
    size_t Start = Line.find_first_not_of(" \t");
    if (Start == std::string::npos)
      continue;
    std::string Body = Line.substr(Start);

    // Symbol header: "0000000000400000 <memcpy>:".
    {
      std::istringstream LS(Body);
      std::string AddrTok, SymTok;
      if (LS >> AddrTok >> SymTok && isHexString(AddrTok) &&
          SymTok.size() > 3 && SymTok.front() == '<' &&
          SymTok.back() == ':' && SymTok[SymTok.size() - 2] == '>') {
        uint64_t Addr = 0;
        if (!support::parseHex(AddrTok, UINT64_MAX, Addr)) {
          Error = "line " + std::to_string(LineNo) + ": symbol address '" +
                  AddrTok + "' does not fit 64 bits";
          return std::nullopt;
        }
        Img.Symbols[SymTok.substr(1, SymTok.size() - 3)] = Addr;
        continue;
      }
    }

    // Code line: "400000:\tb40000e2 \tcbz x2, ...".
    size_t Colon = Body.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string AddrTok = Body.substr(0, Colon);
    if (!isHexString(AddrTok))
      continue;
    std::istringstream LS(Body.substr(Colon + 1));
    std::string OpTok;
    if (!(LS >> OpTok))
      continue;
    uint64_t Addr = 0, Op = 0;
    if (!support::parseHex(AddrTok, UINT64_MAX, Addr)) {
      Error = "line " + std::to_string(LineNo) + ": address '" + AddrTok +
              "' does not fit 64 bits";
      return std::nullopt;
    }
    if (!support::parseHex(OpTok, 0xffffffffu, Op)) {
      Error = "line " + std::to_string(LineNo) +
              ": expected a 32-bit opcode after the address, got '" + OpTok +
              "'";
      return std::nullopt;
    }
    if (Img.Code.count(Addr)) {
      Error = "line " + std::to_string(LineNo) + ": duplicate address " +
              AddrTok;
      return std::nullopt;
    }
    Img.Code[Addr] = uint32_t(Op);
  }
  return Img;
}
