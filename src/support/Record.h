//===- support/Record.h - Checksummed-record codec --------------*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one record grammar every byte from outside the program arrives in:
/// islarisd wire frames, run-journal records and store entry files.
///
///   (<magic> <version> <tag> <payload-len> <sum-hex>)\n<payload>\n
///
/// A record is self-delimiting (the length directs the reader, so the
/// payload is binary-safe) and individually checksummed: the sum is
/// recordChecksum(payload) xor recordChecksum(tag) rotated by 32 bits,
/// written as exactly 16 lowercase hex digits.  The tag is one space-free
/// token whose meaning belongs to the caller: a frame type, a journal key,
/// an entry's key.  parseRecord checks everything else, so callers only
/// choose what an incomplete, foreign-version or malformed record means to
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_RECORD_H
#define ISLARIS_SUPPORT_RECORD_H

#include <cstdint>
#include <string>
#include <string_view>

namespace islaris::support {

/// The record checksum: four 64-bit lanes, each absorbing every fourth
/// little-endian word of \p Data (the last one zero-padded), then the
/// length and an fmix64 finish.  Every lane step is a bijection of the
/// lane's state and of its word, and the finish is a bijection of each lane
/// with the others fixed, so any change to a single word of the payload
/// (every single-bit flip among them) changes the sum.
uint64_t recordChecksum(std::string_view Data);

/// 64-bit FNV-1a over \p Data, one byte at a time: a stable digest of
/// reply and entry bytes for code outside the record codec.
uint64_t fnv1a64(std::string_view Data);

/// Serializes one record.
std::string encodeRecord(std::string_view Magic, uint64_t Version,
                         std::string_view Tag, std::string_view Payload);

/// The most bytes a record header with \p Magic and \p Tag can take.
constexpr size_t recordHeaderRoom(std::string_view Magic,
                                  std::string_view Tag) {
  // "(" magic " " version " " tag " " len " " sum ")\n"
  return Magic.size() + Tag.size() + 20 + 20 + 16 + 7;
}

/// Makes a record around a payload already in place, Buf[Begin, End),
/// without copying it: writes the header so that it ends at \p Begin (the
/// recordHeaderRoom bytes before it are free) and the terminator at \p End
/// (inside \p Buf).  Returns the offset the record starts at.
size_t sealRecord(std::string &Buf, size_t Begin, size_t End,
                  std::string_view Magic, uint64_t Version,
                  std::string_view Tag);

struct RecordParse {
  enum Status {
    Ok,         ///< Tag, Payload and Consumed describe the first record.
    NeedMore,   ///< A strict prefix of a record, as far as it goes.
    BadVersion, ///< A well-formed opening with another version number.
    Malformed,  ///< No prefix of a valid record; Why names the first fault.
  } S = NeedMore;
  std::string_view Tag, Payload; ///< Views into the parsed buffer.
  size_t Consumed = 0;           ///< Bytes of the whole record.
  const char *Why = "";
};

/// Parses the record at the start of \p Buf.  The payload length must be
/// at most \p MaxPayload; a length that does not yet fit the bytes that
/// remain is NeedMore.  The version is read before the other fields, so a
/// future layout is BadVersion whatever its fields look like.  Never
/// allocates.
RecordParse parseRecord(std::string_view Buf, std::string_view Magic,
                        uint64_t Version, uint64_t MaxPayload);

} // namespace islaris::support

#endif // ISLARIS_SUPPORT_RECORD_H
