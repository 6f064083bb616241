//===- support/Record.cpp - Checksummed-record codec --------------------------===//

#include "support/Record.h"

#include "support/Fingerprint.h"
#include "support/Parse.h"

#include <bit>
#include <cassert>
#include <cinttypes>
#include <cstdio>

using namespace islaris;
using namespace islaris::support;

/// One lane step: xor the word in, multiply, rotate, multiply.  Both
/// multipliers are odd, so the step is a bijection of the lane and of the
/// word.
static uint64_t laneStep(uint64_t Lane, uint64_t W) {
  return std::rotl((Lane ^ W) * 0x9e3779b97f4a7c15ull, 31) *
         0xff51afd7ed558ccdull;
}

uint64_t islaris::support::recordChecksum(std::string_view Data) {
  const char *P = Data.data();
  size_t N = Data.size(), I = 0;
  uint64_t A = 0x165667b19e3779f9ull, B = 0x27d4eb2f165667c5ull,
           C = 0xc2b2ae3d27d4eb4full, D = 0x9e3779b97f4a7c15ull;
  for (; I + 32 <= N; I += 32) {
    A = laneStep(A, loadLE64(P + I));
    B = laneStep(B, loadLE64(P + I + 8));
    C = laneStep(C, loadLE64(P + I + 16));
    D = laneStep(D, loadLE64(P + I + 24));
  }
  // The last 0-31 bytes: whole words, then the zero-padded tail word.
  size_t Left = N - I;
  if (Left > 0)
    A = laneStep(A, loadLE64(P + I, Left));
  if (Left > 8)
    B = laneStep(B, loadLE64(P + I + 8, Left - 8));
  if (Left > 16)
    C = laneStep(C, loadLE64(P + I + 16, Left - 16));
  if (Left > 24)
    D = laneStep(D, loadLE64(P + I + 24, Left - 24));
  // Rotate-and-add is a bijection of each lane with the others fixed, and
  // so are the length xor and fmix64.
  uint64_t H =
      std::rotl(A, 1) + std::rotl(B, 7) + std::rotl(C, 12) + std::rotl(D, 18);
  return fmix64(H ^ N);
}

uint64_t islaris::support::fnv1a64(std::string_view Data) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// The sum a record header carries: the payload's checksum, with the tag's
/// folded in so that a flipped tag cannot file a record under another key
/// or frame type.
static uint64_t recordSum(std::string_view Tag, std::string_view Payload) {
  return recordChecksum(Payload) ^ std::rotl(recordChecksum(Tag), 32);
}

/// "(<magic> <version> <tag> <len> <sum-hex>)\n" for \p Payload.
static std::string recordHeader(std::string_view Magic, uint64_t Version,
                                std::string_view Tag,
                                std::string_view Payload) {
  char Sum[17];
  std::snprintf(Sum, sizeof Sum, "%016" PRIx64, recordSum(Tag, Payload));
  std::string H;
  H.reserve(recordHeaderRoom(Magic, Tag));
  H.append("(").append(Magic).append(" ").append(std::to_string(Version));
  H.append(" ").append(Tag).append(" ");
  H.append(std::to_string(Payload.size())).append(" ").append(Sum);
  H.append(")\n");
  return H;
}

std::string islaris::support::encodeRecord(std::string_view Magic,
                                           uint64_t Version,
                                           std::string_view Tag,
                                           std::string_view Payload) {
  std::string Out = recordHeader(Magic, Version, Tag, Payload);
  Out.reserve(Out.size() + Payload.size() + 1);
  Out.append(Payload).append("\n");
  return Out;
}

size_t islaris::support::sealRecord(std::string &Buf, size_t Begin,
                                    size_t End, std::string_view Magic,
                                    uint64_t Version, std::string_view Tag) {
  std::string_view Payload = std::string_view(Buf).substr(Begin, End - Begin);
  std::string H = recordHeader(Magic, Version, Tag, Payload);
  assert(H.size() <= Begin && End < Buf.size());
  Buf.replace(Begin - H.size(), H.size(), H);
  Buf[End] = '\n';
  return Begin - H.size();
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

  // "<version> <tag> <len> <sum-hex>)" up to the newline.
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
  if (recordSum(Tag, Payload) != Sum)
    return Bad("record checksum mismatch");
  R.S = RecordParse::Ok;
  R.Tag = Tag;
  R.Payload = Payload;
  R.Consumed = Body + size_t(Len) + 1;
  return R;
}
