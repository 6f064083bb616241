//===- support/BitVec.cpp - Arbitrary-width bitvectors --------------------===//

#include "support/BitVec.h"

#include <algorithm>

using namespace islaris;

BitVec::BitVec(unsigned Width, uint64_t Value) : BitVec(Width) {
  Words[0] = Value;
  clearUnusedBits();
}

BitVec BitVec::ones(unsigned Width) {
  BitVec R(Width);
  for (uint64_t &W : R.Words)
    W = ~uint64_t(0);
  R.clearUnusedBits();
  return R;
}

void BitVec::clearUnusedBits() {
  unsigned Rem = Width % 64;
  if (Rem != 0)
    Words.back() &= (~uint64_t(0)) >> (64 - Rem);
}

bool BitVec::fromString(std::string_view Text, BitVec &Out) {
  if (Text.size() < 3)
    return false;
  unsigned DigitBits;
  if (Text[0] == '#' || Text[0] == '0') {
    char Kind = Text[1];
    if (Kind == 'x' || Kind == 'X')
      DigitBits = 4;
    else if (Kind == 'b' || Kind == 'B')
      DigitBits = 1;
    else
      return false;
  } else {
    return false;
  }
  std::string_view Digits = Text.substr(2);
  if (Digits.empty())
    return false;
  unsigned Width = Digits.size() * DigitBits;
  if (Width > MaxWidth)
    return false;
  BitVec R(Width);
  unsigned Pos = Width;
  for (char C : Digits) {
    unsigned V;
    if (C >= '0' && C <= '9')
      V = C - '0';
    else if (C >= 'a' && C <= 'f')
      V = C - 'a' + 10;
    else if (C >= 'A' && C <= 'F')
      V = C - 'A' + 10;
    else
      return false;
    if (DigitBits == 1 && V > 1)
      return false;
    Pos -= DigitBits;
    R.Words[Pos / 64] |= uint64_t(V) << (Pos % 64);
    // A hex digit can straddle a word boundary.
    if (DigitBits == 4 && Pos % 64 > 60 && Pos / 64 + 1 < R.Words.size())
      R.Words[Pos / 64 + 1] |= uint64_t(V) >> (64 - Pos % 64);
  }
  R.clearUnusedBits();
  Out = R;
  return true;
}

BitVec BitVec::fromBytes(const std::vector<uint8_t> &Bytes) {
  assert(!Bytes.empty() && "cannot build an empty bitvector");
  BitVec R(unsigned(Bytes.size() * 8));
  for (size_t I = 0; I < Bytes.size(); ++I)
    R.Words[I / 8] |= uint64_t(Bytes[I]) << ((I % 8) * 8);
  return R;
}

bool BitVec::isZero() const {
  return std::all_of(Words.begin(), Words.end(),
                     [](uint64_t W) { return W == 0; });
}

bool BitVec::isAllOnes() const { return eq(ones(Width)); }

bool BitVec::fitsUInt64() const {
  for (size_t I = 1; I < Words.size(); ++I)
    if (Words[I] != 0)
      return false;
  return true;
}

uint64_t BitVec::toUInt64() const {
  assert(fitsUInt64() && "value does not fit in 64 bits");
  return Words[0];
}

int64_t BitVec::toInt64() const {
  assert(Width <= 64 && "toInt64 requires width <= 64");
  uint64_t V = Words[0];
  if (Width < 64 && sign())
    V |= (~uint64_t(0)) << Width;
  return int64_t(V);
}

std::vector<uint8_t> BitVec::toBytes() const {
  assert(Width % 8 == 0 && "byte encoding requires a multiple-of-8 width");
  std::vector<uint8_t> Bytes(Width / 8);
  for (size_t I = 0; I < Bytes.size(); ++I)
    Bytes[I] = uint8_t(Words[I / 8] >> ((I % 8) * 8));
  return Bytes;
}

BitVec BitVec::add(const BitVec &O) const {
  assert(Width == O.Width && "width mismatch");
  BitVec R(Width);
  uint64_t Carry = 0;
  for (size_t I = 0; I < Words.size(); ++I) {
    uint64_t A = Words[I], B = O.Words[I];
    uint64_t S = A + B;
    uint64_t C1 = S < A;
    uint64_t S2 = S + Carry;
    uint64_t C2 = S2 < S;
    R.Words[I] = S2;
    Carry = C1 | C2;
  }
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::sub(const BitVec &O) const { return add(O.neg()); }

BitVec BitVec::neg() const { return bvnot().add(BitVec(Width, 1)); }

BitVec BitVec::mul(const BitVec &O) const {
  assert(Width == O.Width && "width mismatch");
  BitVec R(Width);
  // Schoolbook multiplication over 32-bit halves to keep carries in 64 bits.
  size_t NHalves = Words.size() * 2;
  auto half = [](const std::vector<uint64_t> &W, size_t I) -> uint64_t {
    uint64_t Word = W[I / 2];
    return (I % 2) ? (Word >> 32) : (Word & 0xffffffffu);
  };
  std::vector<uint64_t> Acc(NHalves, 0);
  for (size_t I = 0; I < NHalves; ++I) {
    uint64_t Carry = 0;
    uint64_t A = half(Words, I);
    if (A == 0)
      continue;
    for (size_t J = 0; I + J < NHalves; ++J) {
      uint64_t Prod = A * half(O.Words, J) + Acc[I + J] + Carry;
      Acc[I + J] = Prod & 0xffffffffu;
      Carry = Prod >> 32;
    }
  }
  for (size_t I = 0; I < Words.size(); ++I)
    R.Words[I] = Acc[2 * I] | (Acc[2 * I + 1] << 32);
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::udiv(const BitVec &O) const {
  assert(Width == O.Width && "width mismatch");
  if (O.isZero())
    return ones(Width); // SMT-LIB convention.
  // Long division bit by bit; widths here are small, so this is fine.
  BitVec Quot(Width);
  BitVec Rem(Width);
  for (unsigned I = Width; I-- > 0;) {
    Rem = Rem.shl(1);
    if (bit(I))
      Rem.Words[0] |= 1;
    if (!Rem.ult(O)) {
      Rem = Rem.sub(O);
      Quot.Words[I / 64] |= uint64_t(1) << (I % 64);
    }
  }
  return Quot;
}

BitVec BitVec::urem(const BitVec &O) const {
  if (O.isZero())
    return *this; // SMT-LIB convention.
  return sub(udiv(O).mul(O));
}

BitVec BitVec::sdiv(const BitVec &O) const {
  // SMT-LIB bvsdiv: truncating signed division.
  bool NegA = sign(), NegB = O.sign();
  BitVec A = NegA ? neg() : *this;
  BitVec B = NegB ? O.neg() : O;
  if (O.isZero())
    return NegA ? BitVec(Width, 1) : ones(Width);
  BitVec Q = A.udiv(B);
  return (NegA != NegB) ? Q.neg() : Q;
}

BitVec BitVec::srem(const BitVec &O) const {
  if (O.isZero())
    return *this;
  bool NegA = sign();
  BitVec A = NegA ? neg() : *this;
  BitVec B = O.sign() ? O.neg() : O;
  BitVec R = A.urem(B);
  return NegA ? R.neg() : R;
}

BitVec BitVec::bvand(const BitVec &O) const {
  assert(Width == O.Width && "width mismatch");
  BitVec R(Width);
  for (size_t I = 0; I < Words.size(); ++I)
    R.Words[I] = Words[I] & O.Words[I];
  return R;
}

BitVec BitVec::bvor(const BitVec &O) const {
  assert(Width == O.Width && "width mismatch");
  BitVec R(Width);
  for (size_t I = 0; I < Words.size(); ++I)
    R.Words[I] = Words[I] | O.Words[I];
  return R;
}

BitVec BitVec::bvxor(const BitVec &O) const {
  assert(Width == O.Width && "width mismatch");
  BitVec R(Width);
  for (size_t I = 0; I < Words.size(); ++I)
    R.Words[I] = Words[I] ^ O.Words[I];
  return R;
}

BitVec BitVec::bvnot() const {
  BitVec R(Width);
  for (size_t I = 0; I < Words.size(); ++I)
    R.Words[I] = ~Words[I];
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::shl(unsigned Amount) const {
  if (Amount >= Width)
    return zeros(Width);
  BitVec R(Width);
  unsigned WordShift = Amount / 64, BitShift = Amount % 64;
  for (size_t I = Words.size(); I-- > WordShift;) {
    uint64_t V = Words[I - WordShift] << BitShift;
    if (BitShift != 0 && I > WordShift)
      V |= Words[I - WordShift - 1] >> (64 - BitShift);
    R.Words[I] = V;
  }
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::lshr(unsigned Amount) const {
  if (Amount >= Width)
    return zeros(Width);
  BitVec R(Width);
  unsigned WordShift = Amount / 64, BitShift = Amount % 64;
  for (size_t I = 0; I + WordShift < Words.size(); ++I) {
    uint64_t V = Words[I + WordShift] >> BitShift;
    if (BitShift != 0 && I + WordShift + 1 < Words.size())
      V |= Words[I + WordShift + 1] << (64 - BitShift);
    R.Words[I] = V;
  }
  return R;
}

BitVec BitVec::ashr(unsigned Amount) const {
  bool Neg = sign();
  if (Amount >= Width)
    return Neg ? ones(Width) : zeros(Width);
  BitVec R = lshr(Amount);
  if (Neg) {
    // Fill the vacated high bits with ones.
    for (unsigned I = Width - Amount; I < Width; ++I)
      R.Words[I / 64] |= uint64_t(1) << (I % 64);
  }
  return R;
}

static unsigned shiftAmountOf(const BitVec &O, unsigned Width) {
  // Any amount >= width saturates, so clamping to Width is exact.
  for (unsigned I = 64; I < O.width(); ++I)
    if (O.bit(I))
      return Width;
  uint64_t Low = O.low64();
  return Low >= Width ? Width : unsigned(Low);
}

BitVec BitVec::shl(const BitVec &O) const {
  return shl(shiftAmountOf(O, Width));
}
BitVec BitVec::lshr(const BitVec &O) const {
  return lshr(shiftAmountOf(O, Width));
}
BitVec BitVec::ashr(const BitVec &O) const {
  return ashr(shiftAmountOf(O, Width));
}

BitVec BitVec::extract(unsigned Hi, unsigned Lo) const {
  assert(Lo <= Hi && Hi < Width && "bad extract range");
  BitVec Shifted = lshr(Lo);
  BitVec R(Hi - Lo + 1);
  for (size_t I = 0; I < R.Words.size(); ++I)
    R.Words[I] = Shifted.Words[I];
  R.clearUnusedBits();
  return R;
}

BitVec BitVec::concat(const BitVec &Low) const {
  BitVec R(Width + Low.Width);
  for (size_t I = 0; I < Low.Words.size(); ++I)
    R.Words[I] = Low.Words[I];
  // OR in the high part shifted by Low.Width.
  BitVec Hi = zextTo(R.Width).shl(Low.Width);
  for (size_t I = 0; I < R.Words.size(); ++I)
    R.Words[I] |= Hi.Words[I];
  return R;
}

BitVec BitVec::zext(unsigned Extra) const { return zextTo(Width + Extra); }

BitVec BitVec::sext(unsigned Extra) const {
  unsigned NewWidth = Width + Extra;
  BitVec R = zextTo(NewWidth);
  if (sign())
    for (unsigned I = Width; I < NewWidth; ++I)
      R.Words[I / 64] |= uint64_t(1) << (I % 64);
  return R;
}

BitVec BitVec::zextTo(unsigned NewWidth) const {
  if (NewWidth < Width)
    return extract(NewWidth - 1, 0);
  BitVec R(NewWidth);
  for (size_t I = 0; I < Words.size(); ++I)
    R.Words[I] = Words[I];
  return R;
}

BitVec BitVec::insertSlice(unsigned Lo, const BitVec &V) const {
  assert(Lo + V.Width <= Width && "slice out of range");
  BitVec R = *this;
  for (unsigned I = 0; I < V.Width; ++I) {
    unsigned Pos = Lo + I;
    uint64_t Mask = uint64_t(1) << (Pos % 64);
    if (V.bit(I))
      R.Words[Pos / 64] |= Mask;
    else
      R.Words[Pos / 64] &= ~Mask;
  }
  return R;
}

BitVec BitVec::reverseBits() const {
  BitVec R(Width);
  for (unsigned I = 0; I < Width; ++I)
    if (bit(I))
      R.Words[(Width - 1 - I) / 64] |= uint64_t(1) << ((Width - 1 - I) % 64);
  return R;
}

bool BitVec::eq(const BitVec &O) const {
  return Width == O.Width && Words == O.Words;
}

bool BitVec::ult(const BitVec &O) const {
  assert(Width == O.Width && "width mismatch");
  for (size_t I = Words.size(); I-- > 0;) {
    if (Words[I] != O.Words[I])
      return Words[I] < O.Words[I];
  }
  return false;
}

bool BitVec::slt(const BitVec &O) const {
  bool SA = sign(), SB = O.sign();
  if (SA != SB)
    return SA;
  return ult(O);
}

std::string BitVec::toString() const {
  if (Width % 4 != 0) {
    std::string S = "#b";
    for (unsigned I = Width; I-- > 0;)
      S += bit(I) ? '1' : '0';
    return S;
  }
  static const char *Hex = "0123456789abcdef";
  std::string S = "#x";
  for (unsigned I = Width; I >= 4; I -= 4) {
    unsigned Nibble = 0;
    for (unsigned B = 0; B < 4; ++B)
      if (bit(I - 4 + B))
        Nibble |= 1u << B;
    S += Hex[Nibble];
  }
  return S;
}

std::string BitVec::toHexString() const {
  static const char *Hex = "0123456789abcdef";
  std::string S;
  unsigned NumNibbles = (Width + 3) / 4;
  for (unsigned N = NumNibbles; N-- > 0;) {
    unsigned Nibble = 0;
    for (unsigned B = 0; B < 4; ++B) {
      unsigned Pos = N * 4 + B;
      if (Pos < Width && bit(Pos))
        Nibble |= 1u << B;
    }
    S += Hex[Nibble];
  }
  return "0x" + S;
}

size_t BitVec::hash() const {
  size_t H = std::hash<unsigned>()(Width);
  for (uint64_t W : Words)
    H = H * 1099511628211ULL + std::hash<uint64_t>()(W);
  return H;
}
