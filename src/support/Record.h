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
///   (<magic> <version> <tag> <payload-len> <fnv64-hex>)\n<payload>\n
///
/// A record is self-delimiting (the length directs the reader, so the
/// payload is binary-safe) and individually checksummed (64-bit FNV-1a,
/// exactly 16 lowercase hex digits).  The tag is one space-free token whose
/// meaning belongs to the caller: a frame type, a journal key, an entry's
/// key.  parseRecord checks everything else, so callers only choose what
/// an incomplete, foreign-version or malformed record means to them.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_RECORD_H
#define ISLARIS_SUPPORT_RECORD_H

#include <cstdint>
#include <string>
#include <string_view>

namespace islaris::support {

/// 64-bit FNV-1a over \p Data: the record checksum.
uint64_t fnv1a64(std::string_view Data);

/// Serializes one record.
std::string encodeRecord(std::string_view Magic, uint64_t Version,
                         std::string_view Tag, std::string_view Payload);

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
