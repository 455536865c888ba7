//===- bench/BenchUtil.h - Shared benchmark-harness helpers ----*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table formatting and mean helpers shared by the per-figure benchmark
/// binaries. Every binary prints the rows/series of one paper figure or
/// table (see DESIGN.md's per-experiment index) from the deterministic
/// cycle models, so runs are exactly reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_BENCH_BENCHUTIL_H
#define VAPOR_BENCH_BENCHUTIL_H

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace vapor {
namespace bench {

inline void printHeader(const std::string &Title) {
  std::printf("\n== %s ==\n", Title.c_str());
}

inline void printRow(const std::string &Name,
                     const std::vector<std::pair<std::string, double>> &Cols) {
  std::printf("%-18s", Name.c_str());
  for (const auto &[Label, V] : Cols) {
    (void)Label;
    std::printf("  %10.3f", V);
  }
  std::printf("\n");
}

inline void printColumnLabels(const std::vector<std::string> &Labels) {
  std::printf("%-18s", "kernel");
  for (const auto &L : Labels)
    std::printf("  %10s", L.c_str());
  std::printf("\n");
}

inline double arithMean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += X;
  return S / static_cast<double>(Xs.size());
}

inline double harmonicMean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += 1.0 / X;
  return static_cast<double>(Xs.size()) / S;
}

/// \returns the median of \p Xs (the mean of the middle two for an even
/// count), or 0 for none.
inline double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

inline double geoMean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += std::log(X);
  return std::exp(S / static_cast<double>(Xs.size()));
}

} // namespace bench
} // namespace vapor

#endif // VAPOR_BENCH_BENCHUTIL_H
