//===- ir/ScalarOps.h - Lane-level arithmetic semantics --------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single definition of lane-level arithmetic used by both the IR
/// evaluator (golden model) and the target virtual machines. Lanes are
/// stored as raw 64-bit payloads; these helpers decode by element kind,
/// compute with two's-complement wraparound (ints) or IEEE (floats), and
/// re-encode with masking to the element width.
///
/// Every helper is always-inline. The VM's kind-templated handlers call
/// them with a constant kind and opcode, and only an inlined body lets
/// those switches fold so each lane becomes straight-line arithmetic;
/// left to its heuristics, GCC keeps thousands of out-of-line calls in
/// the handler table. A call it cannot inline is a build error, so that
/// regression cannot come back silently.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_IR_SCALAROPS_H
#define VAPOR_IR_SCALAROPS_H

#include "ir/Opcode.h"
#include "ir/Type.h"
#include "support/Support.h"

#include <bit>
#include <cmath>
#include <cstdint>

namespace vapor {
namespace ir {

/// \returns the lane payload mask for kind \p K.
VAPOR_ALWAYS_INLINE constexpr uint64_t laneMask(ScalarKind K) {
  unsigned Bytes = scalarSize(K);
  if (K == ScalarKind::I1)
    return 1;
  return Bytes >= 8 ? ~0ULL : ((1ULL << (Bytes * 8)) - 1);
}

/// Decodes \p Raw as a signed 64-bit integer (sign- or zero-extending
/// according to the signedness of \p K).
VAPOR_ALWAYS_INLINE int64_t decodeInt(ScalarKind K, uint64_t Raw) {
  assert(isIntKind(K) || K == ScalarKind::I1);
  Raw &= laneMask(K);
  if (!isSignedKind(K))
    return static_cast<int64_t>(Raw);
  unsigned Bits = scalarSize(K) * 8;
  if (Bits == 64)
    return static_cast<int64_t>(Raw);
  uint64_t SignBit = 1ULL << (Bits - 1);
  return static_cast<int64_t>((Raw ^ SignBit)) - static_cast<int64_t>(SignBit);
}

VAPOR_ALWAYS_INLINE uint64_t encodeInt(ScalarKind K, int64_t V) {
  return static_cast<uint64_t>(V) & laneMask(K);
}

VAPOR_ALWAYS_INLINE double decodeFP(ScalarKind K, uint64_t Raw) {
  assert(isFloatKind(K));
  if (K == ScalarKind::F32)
    return std::bit_cast<float>(static_cast<uint32_t>(Raw));
  return std::bit_cast<double>(Raw);
}

VAPOR_ALWAYS_INLINE uint64_t encodeFP(ScalarKind K, double V) {
  assert(isFloatKind(K));
  if (K == ScalarKind::F32)
    return std::bit_cast<uint32_t>(static_cast<float>(V));
  return std::bit_cast<uint64_t>(V);
}

/// Integer division (\p Rem false) or remainder of the decoded lanes
/// \p X and \p Y of kind \p K, with one total definition, RISC-V's:
/// x / 0 is all ones, x % 0 is x, and the one overflowing quotient,
/// MIN / -1, is MIN with remainder 0. Unsigned kinds divide unsigned.
/// No operand traps, so no executor computing through here can.
VAPOR_ALWAYS_INLINE int64_t divRemInt(ScalarKind K, bool Rem, int64_t X,
                                      int64_t Y) {
  if (Y == 0)
    return Rem ? X : -1; // -1 encodes as all ones in every kind.
  if (!isSignedKind(K)) {
    const uint64_t UX = static_cast<uint64_t>(X);
    const uint64_t UY = static_cast<uint64_t>(Y);
    return static_cast<int64_t>(Rem ? UX % UY : UX / UY);
  }
  if (Y == -1) // Wrapping negation: MIN / -1 is MIN.
    return Rem ? 0 : static_cast<int64_t>(0 - static_cast<uint64_t>(X));
  return Rem ? X % Y : X / Y;
}

/// Applies binary arithmetic opcode \p Op on lanes of kind \p K.
VAPOR_ALWAYS_INLINE uint64_t applyBinop(Opcode Op, ScalarKind K, uint64_t A,
                                        uint64_t B) {
  if (isFloatKind(K)) {
    double X = decodeFP(K, A), Y = decodeFP(K, B);
    double R;
    switch (Op) {
    case Opcode::Add:
      R = X + Y;
      break;
    case Opcode::Sub:
      R = X - Y;
      break;
    case Opcode::Mul:
      R = X * Y;
      break;
    case Opcode::Div:
      R = X / Y;
      break;
    case Opcode::Min:
      R = X < Y ? X : Y;
      break;
    case Opcode::Max:
      R = X > Y ? X : Y;
      break;
    default:
      vapor_unreachable("bad float binop");
    }
    // Compute in the element precision, not in double, so f32 kernels see
    // f32 rounding at every step (matches the hardware being modeled).
    if (K == ScalarKind::F32)
      R = static_cast<float>(R);
    return encodeFP(K, R);
  }
  int64_t X = decodeInt(K, A), Y = decodeInt(K, B);
  int64_t R;
  // Saturating range of kind K. Narrow kinds only (<= 2 bytes, verified),
  // so the clamp bounds always fit int64 with room to spare and the
  // unclamped sum/difference of two in-range values cannot overflow.
  auto SignedClamp = [&](int64_t V) {
    int64_t Hi = static_cast<int64_t>(laneMask(K) >> 1); // 2^(bits-1)-1
    int64_t Lo = -Hi - 1;
    return V < Lo ? Lo : (V > Hi ? Hi : V);
  };
  auto UnsignedClamp = [&](int64_t V) {
    int64_t Hi = static_cast<int64_t>(laneMask(K)); // 2^bits - 1
    return V < 0 ? 0 : (V > Hi ? Hi : V);
  };
  switch (Op) {
  case Opcode::AddSatS:
    return encodeInt(K, SignedClamp(X + Y));
  case Opcode::SubSatS:
    return encodeInt(K, SignedClamp(X - Y));
  case Opcode::AddSatU:
    // Unsigned kinds zero-extend in decodeInt, so X, Y are in [0, 2^bits).
    return encodeInt(K, UnsignedClamp(X + Y));
  case Opcode::SubSatU:
    return encodeInt(K, UnsignedClamp(X - Y));
  case Opcode::Add:
    R = static_cast<int64_t>(static_cast<uint64_t>(X) +
                             static_cast<uint64_t>(Y));
    break;
  case Opcode::Sub:
    R = static_cast<int64_t>(static_cast<uint64_t>(X) -
                             static_cast<uint64_t>(Y));
    break;
  case Opcode::Mul:
    R = static_cast<int64_t>(static_cast<uint64_t>(X) *
                             static_cast<uint64_t>(Y));
    break;
  case Opcode::Div:
  case Opcode::Rem:
    R = divRemInt(K, Op == Opcode::Rem, X, Y);
    break;
  case Opcode::Min:
  case Opcode::Max: {
    // Unsigned kinds order unsigned, as in applyCompare. Narrower
    // unsigned lanes decode zero-extended, so only U64 needs it.
    bool Less = isSignedKind(K) ? X < Y
                                : static_cast<uint64_t>(X) <
                                      static_cast<uint64_t>(Y);
    R = Less == (Op == Opcode::Min) ? X : Y;
    break;
  }
  case Opcode::And:
    R = X & Y;
    break;
  case Opcode::Or:
    R = X | Y;
    break;
  case Opcode::Xor:
    R = X ^ Y;
    break;
  case Opcode::Shl:
    R = static_cast<int64_t>(static_cast<uint64_t>(X)
                             << (static_cast<uint64_t>(Y) &
                                 (scalarSize(K) * 8 - 1)));
    break;
  case Opcode::ShrL:
    R = static_cast<int64_t>((static_cast<uint64_t>(X) & laneMask(K)) >>
                             (static_cast<uint64_t>(Y) &
                              (scalarSize(K) * 8 - 1)));
    break;
  case Opcode::ShrA:
    R = X >> (static_cast<uint64_t>(Y) & (scalarSize(K) * 8 - 1));
    break;
  default:
    vapor_unreachable("bad int binop");
  }
  return encodeInt(K, R);
}

/// Compile-time-kind variant of applyBinop for hot interpreter loops.
/// Bit-identical to applyBinop(Op, K, A, B) for every input: the f32
/// arithmetic cases compute directly in float instead of taking the
/// float->double->float round trip. That is exact, not approximate --
/// f32 sums/products are exact in double (<= 48 significant bits), and
/// for sub/div the 53-bit intermediate is wide enough (>= 2p+2 = 50
/// bits) that the double rounding is innocuous [Figueroa 1995], so the
/// final float equals the one the double path produces. min/max select
/// an operand unchanged. Everything else forwards to applyBinop.
template <Opcode Op, ScalarKind K>
VAPOR_ALWAYS_INLINE uint64_t applyBinopT(uint64_t A, uint64_t B) {
  if constexpr (K == ScalarKind::F32 &&
                (Op == Opcode::Add || Op == Opcode::Sub ||
                 Op == Opcode::Mul || Op == Opcode::Div ||
                 Op == Opcode::Min || Op == Opcode::Max)) {
    float X = std::bit_cast<float>(static_cast<uint32_t>(A));
    float Y = std::bit_cast<float>(static_cast<uint32_t>(B));
    float R;
    if constexpr (Op == Opcode::Add)
      R = X + Y;
    else if constexpr (Op == Opcode::Sub)
      R = X - Y;
    else if constexpr (Op == Opcode::Mul)
      R = X * Y;
    else if constexpr (Op == Opcode::Div)
      R = X / Y;
    else if constexpr (Op == Opcode::Min)
      R = X < Y ? X : Y;
    else
      R = X > Y ? X : Y;
    return std::bit_cast<uint32_t>(R);
  } else {
    return applyBinop(Op, K, A, B);
  }
}

VAPOR_ALWAYS_INLINE uint64_t applyUnop(Opcode Op, ScalarKind K, uint64_t A) {
  if (isFloatKind(K)) {
    double X = decodeFP(K, A);
    switch (Op) {
    case Opcode::Neg:
      return encodeFP(K, -X);
    case Opcode::Abs:
      return encodeFP(K, std::fabs(X));
    case Opcode::Sqrt:
      return encodeFP(K, K == ScalarKind::F32
                             ? static_cast<double>(
                                   std::sqrt(static_cast<float>(X)))
                             : std::sqrt(X));
    default:
      vapor_unreachable("bad float unop");
    }
  }
  int64_t X = decodeInt(K, A);
  // Negated in uint64, so -INT64_MIN wraps to itself as the hardware's neg.
  const int64_t NegX = static_cast<int64_t>(0 - static_cast<uint64_t>(X));
  switch (Op) {
  case Opcode::Neg:
    return encodeInt(K, NegX);
  case Opcode::Abs:
    return encodeInt(K, X < 0 ? NegX : X);
  default:
    vapor_unreachable("bad int unop");
  }
}

/// \returns 1 or 0 for comparison \p Op on lanes of kind \p K. Unsigned
/// kinds compare unsigned; floats compare IEEE (no NaN ordering games).
VAPOR_ALWAYS_INLINE uint64_t applyCompare(Opcode Op, ScalarKind K, uint64_t A,
                                          uint64_t B) {
  int Rel; // -1, 0, 1
  if (isFloatKind(K)) {
    double X = decodeFP(K, A), Y = decodeFP(K, B);
    Rel = X < Y ? -1 : (X > Y ? 1 : 0);
  } else if (isSignedKind(K) || K == ScalarKind::I1) {
    int64_t X = decodeInt(K, A), Y = decodeInt(K, B);
    Rel = X < Y ? -1 : (X > Y ? 1 : 0);
  } else {
    uint64_t X = A & laneMask(K), Y = B & laneMask(K);
    Rel = X < Y ? -1 : (X > Y ? 1 : 0);
  }
  switch (Op) {
  case Opcode::CmpEQ:
    return Rel == 0;
  case Opcode::CmpNE:
    return Rel != 0;
  case Opcode::CmpLT:
    return Rel < 0;
  case Opcode::CmpLE:
    return Rel <= 0;
  case Opcode::CmpGT:
    return Rel > 0;
  case Opcode::CmpGE:
    return Rel >= 0;
  default:
    vapor_unreachable("bad compare opcode");
  }
}

/// Converts one lane from kind \p Src to kind \p Dst with C semantics
/// (truncation, sign/zero extension, int<->fp, fp narrowing).
VAPOR_ALWAYS_INLINE uint64_t applyConvert(ScalarKind Src, ScalarKind Dst,
                                          uint64_t Raw) {
  if (isFloatKind(Src) && isFloatKind(Dst))
    return encodeFP(Dst, decodeFP(Src, Raw));
  if (isFloatKind(Src)) {
    double X = decodeFP(Src, Raw);
    return encodeInt(Dst, static_cast<int64_t>(X));
  }
  if (isFloatKind(Dst)) {
    int64_t X = decodeInt(Src, Raw);
    if (isSignedKind(Src) || Src == ScalarKind::I1 ||
        Src == ScalarKind::I64)
      return encodeFP(Dst, static_cast<double>(X));
    return encodeFP(Dst, static_cast<double>(static_cast<uint64_t>(X) &
                                             laneMask(Src)));
  }
  return encodeInt(Dst, decodeInt(Src, Raw));
}

} // namespace ir
} // namespace vapor

#endif // VAPOR_IR_SCALAROPS_H
