//===- perfbench/cpp/Ledger.h - Statistics and span attribution -*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for the end-to-end metrics, and the layer ledger of a
/// traced run: every obs span's self time (its duration minus the part
/// its child spans cover), summed per op under the root span that op
/// opened.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include "obs/Obs.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (\p P in [0, 100]) of unsorted \p V; 0 if empty.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);
/// Geometric mean of the positive values of \p V; 0 if there are none.
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);

/// Latency statistics of a run cut into blocks of consecutive work: each
/// statistic is computed per block and the run reports the median over
/// blocks, so a host stall that hits one block does not move it.
struct BlockStats {
  double P50 = 0, P85 = 0, P90 = 0, P99 = 0, Geomean = 0;
  double Rate = 0; ///< Median over blocks of ops per second.
  size_t Blocks = 0;
};
/// \p Latencies[b] holds block b's op latencies; \p Seconds[b] its wall
/// time (0 to skip the rate).
BlockStats blockStats(const std::vector<std::vector<double>> &Latencies,
                      const std::vector<double> &Seconds);

/// The ledger of one root span (one op).
struct OpLedger {
  double TotalUs = 0; ///< The root span's duration.
  /// "cat/name" -> summed self time of that span kind under the root,
  /// the root's own self time included.
  std::map<std::string, double> SelfUs;
  double self(const std::string &CatName) const {
    auto It = SelfUs.find(CatName);
    return It == SelfUs.end() ? 0 : It->second;
  }
};

/// Attributes every complete event of \p Events to the nearest enclosing
/// span named \p RootCat/\p RootName on the same thread, and keys each
/// root by the string value of its argument \p KeyArg. Spans outside any
/// root are ignored.
std::map<std::string, OpLedger> attributeSpans(
    const std::vector<vapor::obs::Event> &Events, const std::string &RootCat,
    const std::string &RootName, const std::string &KeyArg);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
