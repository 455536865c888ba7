//===- vapor/Sweep.h - Shared kernel x target sweep driver -----*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The helpers shared by every driver that walks the kernel x target
/// matrix (the fig5/fig6/table3/vm_throughput benches and the crashtest
/// tool): the job-count policy, registry lookups, and the Fig. 6
/// split-over-native cell. The drivers fan cells out with
/// support::parallelFor (support/ThreadPool.h).
///
/// Cells are independent by construction -- each evaluation builds its
/// own MemoryImage, the fault-injection controller is thread-local, and
/// the code cache is content-addressed -- so a parallel sweep computes
/// exactly the numbers the serial sweep does; only the merge order
/// differs, and every driver merges order-independently (sums, or
/// index-addressed result slots printed in registry order).
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_VAPOR_SWEEP_H
#define VAPOR_VAPOR_SWEEP_H

#include "kernels/Kernels.h"
#include "target/Target.h"

#include <string>
#include <vector>

namespace vapor {
namespace sweep {

/// Parses a --jobs/VAPOR_JOBS value. \returns false when \p Text is not
/// a plain decimal number (empty, trailing junk, out of range) — the
/// caller rejects it; silently treating garbage as 0 is how a zero-worker
/// pool request happens. On success \p Out is the parsed value clamped
/// to >= 1 (0 means "serial", which one worker is).
bool parseJobs(const char *Text, unsigned &Out);

/// Worker count for the sweep drivers: the VAPOR_JOBS environment
/// variable when it parses cleanly (clamped to >= 1; 1 forces serial),
/// else the host's hardware concurrency. A garbage or zero VAPOR_JOBS
/// never produces a zero-worker pool.
unsigned defaultJobs();

/// \returns the kernel named \p Name in \p All, or nullptr.
const kernels::Kernel *
kernelByNameOrNull(const std::vector<kernels::Kernel> &All,
                   const std::string &Name);

/// \returns the target named \p Name in \p All, or nullptr.
const target::TargetDesc *
targetByNameOrNull(const std::vector<target::TargetDesc> &All,
                   const std::string &Name);

/// One Fig. 6 cell: modeled cycles of the split-vectorized flow and the
/// natively-vectorized flow for (kernel, target) at the strong tier.
struct SplitNativeCell {
  uint64_t SplitCycles = 0;
  uint64_t NativeCycles = 0;
  bool Scalarized = false; ///< The online compiler scalarized the split
                           ///< code on this target.
  double ratio() const {
    return static_cast<double>(SplitCycles) /
           static_cast<double>(NativeCycles);
  }
};

/// Evaluates one Fig. 6 cell (each call on its own MemoryImage; safe to
/// run concurrently across cells).
SplitNativeCell splitOverNativeCell(const kernels::Kernel &K,
                                    const target::TargetDesc &T);

} // namespace sweep
} // namespace vapor

#endif // VAPOR_VAPOR_SWEEP_H
