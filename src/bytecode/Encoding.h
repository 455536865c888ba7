//===- bytecode/Encoding.h - LEB128 byte stream helpers --------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compact little-endian byte stream primitives for the split-layer
/// bytecode container: ULEB128 / zig-zag SLEB128 integers, raw 64-bit
/// floats, and length-prefixed strings. Compactness matters because the
/// paper reports bytecode-size growth of vectorized vs scalar bytecode
/// (about 5x) — we measure the same ratio on this encoding.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_BYTECODE_ENCODING_H
#define VAPOR_BYTECODE_ENCODING_H

#include "support/Support.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace vapor {
namespace bytecode {

class ByteWriter {
public:
  void writeU64(uint64_t V) {
    do {
      uint8_t Byte = V & 0x7f;
      V >>= 7;
      if (V)
        Byte |= 0x80;
      Bytes.push_back(Byte);
    } while (V);
  }

  void writeI64(int64_t V) {
    // Zig-zag so small negative numbers stay small.
    writeU64((static_cast<uint64_t>(V) << 1) ^
             static_cast<uint64_t>(V >> 63));
  }

  void writeU8(uint8_t V) { Bytes.push_back(V); }

  void writeF64(double V) {
    uint64_t Raw;
    std::memcpy(&Raw, &V, 8);
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(Raw >> (8 * I)));
  }

  void writeString(const std::string &S) {
    writeU64(S.size());
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> take() { return std::move(Bytes); }
  size_t size() const { return Bytes.size(); }

private:
  std::vector<uint8_t> Bytes;
};

/// Reader with explicit error state: decoding is the one place in the
/// system that consumes external data, so it must never abort on malformed
/// input.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : P(Data), End(Data + Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Data)
      : ByteReader(Data.data(), Data.size()) {}

  bool failed() const { return Failed; }
  bool atEnd() const { return P == End; }
  size_t remaining() const { return static_cast<size_t>(End - P); }

  uint64_t readU64() {
    if (P != End && *P < 0x80) // One byte: most ids and counts.
      return *P++;
    uint64_t V = 0;
    unsigned Shift = 0;
    while (true) {
      if (P == End || Shift >= 64)
        return fail();
      uint8_t Byte = *P++;
      V |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
      if (!(Byte & 0x80))
        return V;
      Shift += 7;
    }
  }

  int64_t readI64() {
    uint64_t Z = readU64();
    return static_cast<int64_t>((Z >> 1) ^ (~(Z & 1) + 1));
  }

  uint8_t readU8() {
    if (P == End)
      return static_cast<uint8_t>(fail());
    return *P++;
  }

  double readF64() {
    if (End - P < 8) {
      fail();
      return 0;
    }
    uint64_t Raw = 0;
    for (int I = 0; I < 8; ++I)
      Raw |= static_cast<uint64_t>(*P++) << (8 * I);
    double V;
    std::memcpy(&V, &Raw, 8);
    return V;
  }

  std::string readString() {
    uint64_t Len = readU64();
    if (Failed || static_cast<uint64_t>(End - P) < Len) {
      fail();
      return {};
    }
    std::string S(reinterpret_cast<const char *>(P), Len);
    P += Len;
    return S;
  }

private:
  uint64_t fail() {
    Failed = true;
    return 0;
  }

  const uint8_t *P;
  const uint8_t *End;
  bool Failed = false;
};

} // namespace bytecode
} // namespace vapor

#endif // VAPOR_BYTECODE_ENCODING_H
