//===- support/Support.h - Small shared utilities -------------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction. See README.md for the project
// overview and DESIGN.md for the system inventory.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assertion helpers, alignment arithmetic, the content-hash mixer, and a
/// deterministic RNG shared by every Vapor library. Nothing here depends
/// on any other module.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_SUPPORT_SUPPORT_H
#define VAPOR_SUPPORT_SUPPORT_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace vapor {

/// Marks a point in the code that must never be reached. Prints \p Msg and
/// aborts; unlike assert() it also fires in release builds, because reaching
/// one of these always means a compiler-internal invariant was violated.
[[noreturn]] inline void unreachable(const char *Msg, const char *File,
                                     int Line) {
  std::fprintf(stderr, "UNREACHABLE at %s:%d: %s\n", File, Line, Msg);
  std::abort();
}

#define vapor_unreachable(MSG) ::vapor::unreachable(MSG, __FILE__, __LINE__)

/// Inlining controls for hot interpreter paths. The dispatch loop leans on
/// small always-inline gates in front of out-of-line slow paths; without
/// the attribute, GCC leaves e.g. the fault-injection hook as a real call
/// on every checked vector access.
#if defined(__GNUC__) || defined(__clang__)
#define VAPOR_ALWAYS_INLINE inline __attribute__((always_inline))
#define VAPOR_NOINLINE __attribute__((noinline))
#else
#define VAPOR_ALWAYS_INLINE inline
#define VAPOR_NOINLINE
#endif

/// Reports a fatal usage error (malformed input to a tool-level API) and
/// aborts. Library code prefers returning diagnostics; this is the backstop.
[[noreturn]] inline void fatalError(const std::string &Msg) {
  std::fprintf(stderr, "fatal error: %s\n", Msg.c_str());
  std::abort();
}

/// \returns \p Value rounded down to the nearest multiple of \p Align.
/// \p Align must be a power of two.
constexpr uint64_t alignDown(uint64_t Value, uint64_t Align) {
  return Value & ~(Align - 1);
}

/// \returns \p Value rounded up to the nearest multiple of \p Align.
/// \p Align must be a power of two.
constexpr uint64_t alignUp(uint64_t Value, uint64_t Align) {
  return (Value + Align - 1) & ~(Align - 1);
}

/// \returns true if \p Value is a multiple of \p Align (power of two).
constexpr bool isAligned(uint64_t Value, uint64_t Align) {
  return (Value & (Align - 1)) == 0;
}

/// \returns true if \p Value is a power of two (and nonzero).
constexpr bool isPowerOf2(uint64_t Value) {
  return Value != 0 && (Value & (Value - 1)) == 0;
}

/// Folds the 64-bit word \p W into the running hash \p H. This is the one
/// mixer behind every content hash in the system: IR functions, bytecode,
/// cache keys, certificates and elision plans. Each round is an
/// xor-multiply-xorshift. For a fixed \p W it permutes \p H, so two word
/// sequences of equal length that differ in exactly one word never collide.
/// It reads values only, so a hash repeats across processes.
///
/// It is fast, not collision resistant: whoever picks the input can make a
/// later word cancel an earlier difference. An equal hash is never proof
/// of equal content; the code cache compares content on every hit.
constexpr uint64_t hashCombine(uint64_t H, uint64_t W) {
  H = (H ^ W) * 0x9e3779b97f4a7c15ULL;
  return H ^ (H >> 32);
}

/// Folds \p Len raw bytes into \p Seed a word at a time (host byte order).
/// The length goes first, so a zero-padded tail word cannot alias a
/// longer input.
inline uint64_t hashBytes(const void *Data, size_t Len, uint64_t Seed = 0) {
  uint64_t H = hashCombine(Seed, Len);
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (; Len >= 8; P += 8, Len -= 8) {
    uint64_t W;
    std::memcpy(&W, P, 8);
    H = hashCombine(H, W);
  }
  if (Len != 0) {
    uint64_t W = 0;
    std::memcpy(&W, P, Len);
    H = hashCombine(H, W);
  }
  return H;
}

/// Deterministic 64-bit splitmix generator. Used to fill benchmark arrays
/// so every run (and every target) sees identical input data.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// \returns a uniformly distributed integer in [0, Bound).
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound > 0 && "nextBelow requires a positive bound");
    return next() % Bound;
  }

  /// \returns a float in [0, 1).
  double nextUnit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

private:
  uint64_t State;
};

} // namespace vapor

#endif // VAPOR_SUPPORT_SUPPORT_H
