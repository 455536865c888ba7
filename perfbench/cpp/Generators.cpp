//===- perfbench/cpp/Generators.cpp - Seeded workload generators ----------===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t perfbench::streamSeed(uint64_t Seed, uint64_t Stream,
                               uint64_t Index) {
  Rng R(Seed ^ (Stream * 0x9e3779b97f4a7c15ull));
  R.next();
  return R.next() ^ (Index * 0xd1b54a32d192ed03ull);
}

namespace {
enum : uint64_t { StreamPlacement = 1, StreamPass = 2, StreamArrivals = 3 };
} // namespace

uint32_t perfbench::drawMisalign(uint64_t Seed, uint32_t KeyIndex,
                                 uint32_t ElemBytes) {
  if (ElemBytes == 0)
    return 0;
  Rng R(streamSeed(Seed, StreamPlacement, KeyIndex));
  return static_cast<uint32_t>(R.below(32 / ElemBytes)) * ElemBytes;
}

std::vector<Key> perfbench::makeKeys(uint64_t Seed,
                                     const std::vector<uint32_t> &ExtElemBytes,
                                     uint32_t NumTargets, bool WithPlacement) {
  std::vector<Key> Keys;
  for (uint32_t K = 0; K < ExtElemBytes.size(); ++K)
    for (uint32_t T = 0; T < NumTargets; ++T)
      for (bool Native : {false, true}) {
        Key Ky;
        Ky.Kernel = K;
        Ky.Target = T;
        Ky.Native = Native;
        const uint32_t Index = static_cast<uint32_t>(Keys.size());
        Ky.Misalign =
            WithPlacement ? drawMisalign(Seed, Index, ExtElemBytes[K]) : 0;
        Keys.push_back(Ky);
      }
  return Keys;
}

std::vector<uint32_t> perfbench::passOrder(uint64_t Seed, uint64_t Pass,
                                           size_t N) {
  std::vector<uint32_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0u);
  Rng R(streamSeed(Seed, StreamPass, Pass));
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

Zipf::Zipf(size_t N, double S) : Cdf(N) {
  double Sum = 0;
  for (size_t R = 0; R < N; ++R) {
    Sum += 1.0 / std::pow(static_cast<double>(R + 1), S);
    Cdf[R] = Sum;
  }
  for (double &C : Cdf)
    C /= Sum;
}

size_t Zipf::draw(Rng &R) const {
  const double U = R.unit();
  size_t Rank = static_cast<size_t>(
      std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
  return std::min(Rank, Cdf.size() - 1);
}

double Zipf::probability(size_t Rank) const {
  return Rank == 0 ? Cdf[0] : Cdf[Rank] - Cdf[Rank - 1];
}

std::vector<uint32_t> perfbench::popularityRanking(size_t N) {
  // A constant seed: the ranking is part of the workload's definition,
  // not of a run's inputs.
  return passOrder(/*Seed=*/0x5a17f00dull, /*Pass=*/0, N);
}

std::vector<Arrival> perfbench::arrivalSchedule(uint64_t Seed, double Rate,
                                                double Seconds,
                                                double RampSeconds,
                                                size_t NumKeys, double S,
                                                uint32_t Conns) {
  std::vector<Arrival> Out;
  if (Rate <= 0 || Seconds <= 0 || NumKeys == 0 || Conns == 0)
    return Out;
  const std::vector<uint32_t> Ranking = popularityRanking(NumKeys);
  const Zipf Z(NumKeys, S);
  Rng R(streamSeed(Seed, StreamArrivals));
  double T = 0;
  while (true) {
    T += -std::log(1.0 - R.unit()) / Rate;
    if (T >= Seconds)
      break;
    // Thinning keeps the ramp a Poisson process.
    const double Keep = T < RampSeconds ? 0.2 + 0.8 * T / RampSeconds : 1.0;
    if (R.unit() >= Keep)
      continue;
    Arrival A;
    A.AtSec = T;
    A.Key = Ranking[Z.draw(R)];
    A.Conn = static_cast<uint32_t>(Out.size() % Conns);
    Out.push_back(A);
  }
  return Out;
}
