//===- perfbench/cpp/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction's benchmark. See ../README.md for
// why each workload exists and what every metric means.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0;
};

struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< Extra report lines (digests, checks).
};

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// Closed-loop serving throughput (requests/s) over the serve_zipf key
/// set: the number the open-loop rate was frozen from.
bool calibrateServe(uint64_t Seed, double &OpsPerSec, std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
