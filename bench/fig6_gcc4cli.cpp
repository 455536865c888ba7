//===- bench/fig6_gcc4cli.cpp - Paper Figure 6 (a), (b), (c) ----------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Figure 6: "gcc4cli: normalized vectorization times, ratio (D)/(F), lower
// is better" — execution time of split-vectorized code compiled by the
// strong online compiler, normalized by natively-vectorized code, for all
// 32 kernels on SSE, AltiVec, and NEON, with the harmonic mean the paper
// reports (0.8x..1x).
//
// Pass "sse", "altivec" or "neon" to print one sub-figure. Cells are
// evaluated across the sweep pool (VAPOR_JOBS overrides the worker
// count); the modeled cycles are deterministic counters, so the printed
// numbers are identical to a serial run.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"
#include "vapor/Pipeline.h"
#include "vapor/Sweep.h"

#include <cstring>

using namespace vapor;
using namespace vapor::bench;

namespace {

void figure6(const target::TargetDesc &T, const char *Caption,
             unsigned Jobs) {
  printHeader(std::string("Figure 6") + Caption +
              ": gcc4cli, normalized execution time "
              "(split / native, lower is better)");
  printColumnLabels({"split-cyc", "native-cyc", "normalized"});

  std::vector<kernels::Kernel> All = kernels::allKernels();
  std::vector<sweep::SplitNativeCell> Cells(All.size());
  support::parallelFor(Jobs, All.size(), [&](size_t I) {
    Cells[I] = sweep::splitOverNativeCell(All[I], T);
  });

  std::vector<double> Ratios;
  for (size_t I = 0; I < All.size(); ++I) {
    const sweep::SplitNativeCell &C = Cells[I];
    Ratios.push_back(C.ratio());
    std::string Name = All[I].Name;
    if (C.Scalarized)
      Name += "*"; // Scalarized on this target (e.g. f64 on AltiVec).
    printRow(Name, {{"s", static_cast<double>(C.SplitCycles)},
                    {"n", static_cast<double>(C.NativeCycles)},
                    {"r", C.ratio()}});
  }
  std::printf("%-18s  %10s  %10s  %10.3f\n", "Har.Mean", "", "",
              harmonicMean(Ratios));
  std::printf("(* = scalarized by the online compiler on this target)\n");
}

} // namespace

int main(int argc, char **argv) {
  auto Sink = obs::TraceSink::fromEnv("VAPOR_TRACE");
  // A bare target name picks one panel; flags (e.g. benchmark's) are
  // ignored.
  bool All = argc <= 1 || argv[1][0] == '-';
  auto Want = [&](const char *Name) {
    return All || std::strcmp(argv[1], Name) == 0;
  };
  if (!Want("sse") && !Want("altivec") && !Want("neon")) {
    std::fprintf(stderr, "fig6_gcc4cli: unknown target '%s' (expected sse, "
                         "altivec or neon)\n", argv[1]);
    return 2;
  }
  unsigned Jobs = sweep::defaultJobs();
  if (Want("sse"))
    figure6(target::sseTarget(), "(a) SSE (128-bit)", Jobs);
  if (Want("altivec"))
    figure6(target::altivecTarget(), "(b) AltiVec (128-bit)", Jobs);
  if (Want("neon"))
    figure6(target::neonTarget(), "(c) NEON (64-bit)", Jobs);
  return 0;
}
