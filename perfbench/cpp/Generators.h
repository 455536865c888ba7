//===- perfbench/cpp/Generators.h - Seeded workload generators -*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything a workload draws from its seed: the key set (with the
/// seeded placement of external arrays), the per-pass key order, the Zipf
/// request stream and the open-loop arrival schedule. Each is a pure
/// function of its arguments and knows nothing about the pipeline, so the
/// generator tests run without it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATORS_H
#define PERFBENCH_GENERATORS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// SplitMix64: the whole benchmark's random source.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// Derives an independent stream seed for (\p Seed, \p Stream, \p Index).
uint64_t streamSeed(uint64_t Seed, uint64_t Stream, uint64_t Index = 0);

/// One unit of kernel-flow work: (kernel, target, engine, placement).
struct Key {
  uint32_t Kernel = 0; ///< Index into kernels::allKernels().
  uint32_t Target = 0; ///< Index into target::allTargets().
  bool Native = false; ///< RunOptions::UseNative.
  uint32_t Misalign = 0; ///< RunOptions::ExternalMisalign (bytes).
  bool operator==(const Key &O) const {
    return Kernel == O.Kernel && Target == O.Target && Native == O.Native &&
           Misalign == O.Misalign;
  }
};

/// Placement of a key's external arrays: bytes mod 32, a multiple of
/// \p ElemBytes (the widest external element). 0 when \p ElemBytes is 0,
/// i.e. the kernel has no external arrays.
uint32_t drawMisalign(uint64_t Seed, uint32_t KeyIndex, uint32_t ElemBytes);

/// The full key set, in canonical order (kernel-major, then target, then
/// VM before native). \p ExtElemBytes[k] is kernel k's widest external
/// element size, 0 for kernels without external arrays. With \p
/// WithPlacement false every placement is 0 (the server has no placement
/// knob).
std::vector<Key> makeKeys(uint64_t Seed,
                          const std::vector<uint32_t> &ExtElemBytes,
                          uint32_t NumTargets, bool WithPlacement = true);

/// The key order of pass \p Pass: a seeded permutation of [0, N).
std::vector<uint32_t> passOrder(uint64_t Seed, uint64_t Pass, size_t N);

/// Zipf(s) over ranks [0, N): P(rank r) ~ 1 / (r+1)^s.
class Zipf {
public:
  Zipf(size_t N, double S);
  size_t draw(Rng &R) const;
  double probability(size_t Rank) const;

private:
  std::vector<double> Cdf;
};

/// Which key holds each popularity rank. Fixed (seed-independent), so
/// every seed of a workload serves the same popularity profile and only
/// the request draws change.
std::vector<uint32_t> popularityRanking(size_t N);

/// One request of the open-loop stream.
struct Arrival {
  double AtSec = 0;  ///< Scheduled send time from the start of the phase.
  uint32_t Key = 0;  ///< Index into the key set.
  uint32_t Conn = 0; ///< Connection (and tenant) that sends it.
};

/// Poisson arrivals for \p Seconds at \p Rate per second, ramping
/// linearly from a fifth of \p Rate over the first \p RampSeconds; keys
/// drawn Zipf(\p S) through popularityRanking, connections round-robin.
std::vector<Arrival> arrivalSchedule(uint64_t Seed, double Rate,
                                     double Seconds, double RampSeconds,
                                     size_t NumKeys, double S, uint32_t Conns);

} // namespace perfbench

#endif // PERFBENCH_GENERATORS_H
