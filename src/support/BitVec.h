//===- support/BitVec.h - Arbitrary-width bitvectors ----------*- C++ -*-===//
//
// Part of Islaris-CPP, a reproduction of "Islaris: Verification of Machine
// Code Against Authoritative ISA Semantics" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width two's-complement bitvectors of arbitrary width.
///
/// ITL values, SMT constants, register contents, and memory bytes are all
/// bitvectors (Fig. 4 of the paper).  Widths from 1 to BitVec::MaxWidth are
/// supported; all arithmetic wraps modulo 2^width as in SMT-LIB QF_BV.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_SUPPORT_BITVEC_H
#define ISLARIS_SUPPORT_BITVEC_H

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace islaris {

/// An immutable fixed-width bitvector with SMT-LIB QF_BV semantics.
///
/// The value is stored little-endian in 64-bit words; bits above the width
/// are kept zero (canonical form), which makes unsigned comparison and
/// equality plain word comparisons.
class BitVec {
public:
  /// Maximum supported width in bits.  Generous enough for the 128-bit
  /// intermediate additions the Arm model performs (Fig. 3) and for wide
  /// memory values.
  static constexpr unsigned MaxWidth = 4096;

  /// Constructs the 1-bit zero vector.
  BitVec() : BitVec(1, 0) {}

  /// Constructs a \p Width-bit vector holding \p Value (truncated).
  BitVec(unsigned Width, uint64_t Value);

  /// Constructs the \p Width-bit zero vector.
  static BitVec zeros(unsigned Width) { return BitVec(Width, 0); }

  /// Constructs the \p Width-bit all-ones vector.
  static BitVec ones(unsigned Width);

  /// Parses "#x<hex>", "#b<bits>", "0x<hex>", or "0b<bits>" (SMT-LIB and C
  /// style).  The width is the number of digits times 4 (hex) or 1 (binary).
  /// Returns false and leaves \p Out untouched on malformed input.
  static bool fromString(std::string_view Text, BitVec &Out);

  /// Builds a vector from raw little-endian bytes; width is 8 * size.
  static BitVec fromBytes(const std::vector<uint8_t> &Bytes);

  unsigned width() const { return Width; }
  unsigned numWords() const { return (Width + 63) / 64; }

  /// Returns bit \p I (0 = least significant).
  bool bit(unsigned I) const {
    assert(I < Width && "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  bool isZero() const;
  bool isAllOnes() const;
  /// Most significant (sign) bit.
  bool sign() const { return bit(Width - 1); }

  /// Returns the value as a uint64_t.  Requires the value to fit (all bits
  /// above 63 must be zero); asserts otherwise.
  uint64_t toUInt64() const;
  /// True if the value fits in a uint64_t.
  bool fitsUInt64() const;
  /// Returns the low 64 bits regardless of width.
  uint64_t low64() const { return Words[0]; }
  /// Sign-extends the value into an int64_t.  Requires width <= 64.
  int64_t toInt64() const;

  /// Little-endian byte encoding; requires width to be a multiple of 8.
  /// This is enc(b) from Fig. 10.
  std::vector<uint8_t> toBytes() const;

  //===------------------------------------------------------------------===//
  // QF_BV operations.  Binary operations require equal widths.
  //===------------------------------------------------------------------===//

  BitVec add(const BitVec &O) const;
  BitVec sub(const BitVec &O) const;
  BitVec neg() const;
  BitVec mul(const BitVec &O) const;
  /// SMT-LIB bvudiv: division by zero yields all-ones.
  BitVec udiv(const BitVec &O) const;
  /// SMT-LIB bvurem: remainder by zero yields the dividend.
  BitVec urem(const BitVec &O) const;
  BitVec sdiv(const BitVec &O) const;
  BitVec srem(const BitVec &O) const;

  BitVec bvand(const BitVec &O) const;
  BitVec bvor(const BitVec &O) const;
  BitVec bvxor(const BitVec &O) const;
  BitVec bvnot() const;

  /// Logical shifts; the shift amount is the *value* of \p O (saturating:
  /// shifting by >= width yields zero, or sign-fill for ashr).
  BitVec shl(const BitVec &O) const;
  BitVec lshr(const BitVec &O) const;
  BitVec ashr(const BitVec &O) const;
  BitVec shl(unsigned Amount) const;
  BitVec lshr(unsigned Amount) const;
  BitVec ashr(unsigned Amount) const;

  /// SMT-LIB (_ extract Hi Lo): bits Lo..Hi inclusive, width Hi-Lo+1.
  BitVec extract(unsigned Hi, unsigned Lo) const;
  /// SMT-LIB concat: *this forms the high bits, \p Low the low bits.
  BitVec concat(const BitVec &Low) const;
  /// Zero-extends by \p Extra additional bits.
  BitVec zext(unsigned Extra) const;
  /// Sign-extends by \p Extra additional bits.
  BitVec sext(unsigned Extra) const;
  /// Zero-extends or truncates to exactly \p NewWidth bits.
  BitVec zextTo(unsigned NewWidth) const;

  /// Replaces bits Lo..Lo+V.width()-1 with \p V.
  BitVec insertSlice(unsigned Lo, const BitVec &V) const;

  /// Reverses the order of all bits (the Arm rbit instruction).
  BitVec reverseBits() const;

  bool eq(const BitVec &O) const;
  bool ult(const BitVec &O) const;
  bool ule(const BitVec &O) const { return !O.ult(*this); }
  bool slt(const BitVec &O) const;
  bool sle(const BitVec &O) const { return !O.slt(*this); }

  bool operator==(const BitVec &O) const { return eq(O); }
  bool operator!=(const BitVec &O) const { return !eq(O); }

  /// SMT-LIB rendering: "#b..." for widths not divisible by 4, else "#x...".
  std::string toString() const;
  /// Hex rendering "0x..." regardless of width.
  std::string toHexString() const;

  /// Hash suitable for unordered containers.
  size_t hash() const;

private:
  explicit BitVec(unsigned Width) : Width(Width), Words((Width + 63) / 64) {
    assert(Width >= 1 && Width <= MaxWidth && "unsupported bitvector width");
  }

  /// Zeroes any bits above the width (restores canonical form).
  void clearUnusedBits();

  unsigned Width;
  std::vector<uint64_t> Words;
};

} // namespace islaris

#endif // ISLARIS_SUPPORT_BITVEC_H
