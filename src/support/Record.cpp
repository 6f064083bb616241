//===- support/Record.cpp - Checksummed-record codec --------------------------===//

#include "support/Record.h"

#include "support/Parse.h"

#include <cinttypes>
#include <cstdio>

using namespace islaris;
using namespace islaris::support;

uint64_t islaris::support::fnv1a64(std::string_view Data) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string islaris::support::encodeRecord(std::string_view Magic,
                                           uint64_t Version,
                                           std::string_view Tag,
                                           std::string_view Payload) {
  char Sum[17];
  std::snprintf(Sum, sizeof Sum, "%016" PRIx64, fnv1a64(Payload));
  std::string Out;
  Out.reserve(Magic.size() + Tag.size() + Payload.size() + 64);
  Out.append("(").append(Magic).append(" ").append(std::to_string(Version));
  Out.append(" ").append(Tag).append(" ");
  Out.append(std::to_string(Payload.size())).append(" ").append(Sum);
  Out.append(")\n").append(Payload).append("\n");
  return Out;
}

RecordParse islaris::support::parseRecord(std::string_view Buf,
                                          std::string_view Magic,
                                          uint64_t Version,
                                          uint64_t MaxPayload) {
  constexpr size_t NPos = std::string_view::npos;
  RecordParse R;
  auto Bad = [&R](const char *Why) {
    R.S = RecordParse::Malformed;
    R.Why = Why;
    return R;
  };
  // "(<magic> ": a strict prefix of it may still grow into a record; a byte
  // that departs from it never can.
  size_t Open = Magic.size() + 2;
  for (size_t I = 0; I < Open && I < Buf.size(); ++I)
    if (Buf[I] != (I == 0 ? '(' : I <= Magic.size() ? Magic[I - 1] : ' '))
      return Bad("bad record magic");
  size_t NL = Buf.size() < Open ? NPos : Buf.find('\n', Open);
  if (NL == NPos)
    return R; // the header is not all here yet

  // "<version> <tag> <len> <fnv64-hex>)" up to the newline.
  std::string_view H = Buf.substr(Open, NL - Open);
  if (H.empty() || H.back() != ')')
    return Bad("malformed record header");
  H.remove_suffix(1);
  size_t Sp = H.find(' ');
  uint64_t V = 0;
  if (!parseUnsigned(H.substr(0, Sp), UINT64_MAX, V))
    return Bad("malformed record version");
  if (V != Version) {
    R.S = RecordParse::BadVersion;
    return R;
  }
  std::string_view Fields = Sp == NPos ? std::string_view() : H.substr(Sp + 1);
  size_t Sp1 = Fields.find(' ');
  size_t Sp2 = Sp1 == NPos ? NPos : Fields.find(' ', Sp1 + 1);
  if (Sp1 == 0 || Sp2 == NPos || Fields.find(' ', Sp2 + 1) != NPos)
    return Bad("malformed record header");
  std::string_view Tag = Fields.substr(0, Sp1);
  uint64_t Len = 0, Sum = 0;
  if (!parseUnsigned(Fields.substr(Sp1 + 1, Sp2 - Sp1 - 1), UINT64_MAX, Len))
    return Bad("malformed record length");
  if (Len > MaxPayload)
    return Bad("record payload exceeds its bound");
  if (!parseHex64(Fields.substr(Sp2 + 1), Sum))
    return Bad("malformed record checksum");

  size_t Body = NL + 1;
  if (Buf.size() - Body <= Len)
    return R; // the payload and its newline are not all here yet
  std::string_view Payload = Buf.substr(Body, size_t(Len));
  if (Buf[Body + Len] != '\n')
    return Bad("missing record terminator");
  if (fnv1a64(Payload) != Sum)
    return Bad("record checksum mismatch");
  R.S = RecordParse::Ok;
  R.Tag = Tag;
  R.Payload = Payload;
  R.Consumed = Body + size_t(Len) + 1;
  return R;
}
