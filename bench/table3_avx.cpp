//===- bench/table3_avx.cpp - Paper Table 3 ---------------------------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Table 3: "IACA simulation for AVX" — static cycles per iteration of the
// vectorized loop, native vs split, for eight floating-point kernels. As
// in the paper, the split flow is compiled by an older code generator
// (no scaled-index addressing, no accumulator register promotion), which
// is where its extra cycles come from; the differences "are not related
// to the split compilation approach" (Sec. V-B).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"
#include "target/Iaca.h"
#include "vapor/Pipeline.h"
#include "vapor/Sweep.h"

#include <cstdio>
#include <map>

using namespace vapor;
using namespace vapor::bench;

int main() {
  auto Sink = obs::TraceSink::fromEnv("VAPOR_TRACE");
  printHeader("Table 3: IACA-style static throughput for AVX "
              "(cycles per vectorized-loop iteration)");

  // The paper's reported values for reference in the printed table.
  const std::map<std::string, std::pair<int, int>> Paper = {
      {"dissolve_fp", {2, 3}}, {"sfir_fp", {2, 4}}, {"interp_fp", {4, 6}},
      {"mmm_fp", {1, 2}},      {"saxpy_fp", {2, 2}}, {"dscal_fp", {2, 3}},
      {"saxpy_dp", {2, 3}},    {"dscal_dp", {2, 3}},
  };
  const char *Order[] = {"dissolve_fp", "sfir_fp",  "interp_fp", "mmm_fp",
                         "saxpy_fp",    "dscal_fp", "saxpy_dp",  "dscal_dp"};
  constexpr size_t NumRows = sizeof(Order) / sizeof(Order[0]);

  // Rows run across the sweep pool; IACA cycles are static and
  // deterministic, so the table matches a serial run.
  struct Row {
    uint64_t Native = 0, Split = 0;
  };
  Row Rows[NumRows];
  support::parallelFor(sweep::defaultJobs(), NumRows, [&](size_t I) {
    kernels::Kernel K = kernels::kernelByName(Order[I]);
    RunOptions Native;
    Native.Target = target::avxTarget();
    RunOutcome NativeOut = runKernel(K, Flow::NativeVectorized, Native);

    RunOptions Split = Native;
    Split.FoldAddressing = false;     // Older GCC codegen profile.
    Split.PromoteAccumulators = false;
    RunOutcome SplitOut = runKernel(K, Flow::SplitVectorized, Split);
    Rows[I] = {
        target::analyzeVectorLoop(NativeOut.Compiled->Code, Native.Target)
            .Cycles,
        target::analyzeVectorLoop(SplitOut.Compiled->Code, Split.Target)
            .Cycles};
  });

  std::printf("%-14s %8s %8s   %14s\n", "kernel", "native", "split",
              "(paper: n/s)");
  for (size_t I = 0; I < NumRows; ++I) {
    auto P = Paper.at(Order[I]);
    std::printf("%-14s %8llu %8llu   %10d/%d\n", Order[I],
                static_cast<unsigned long long>(Rows[I].Native),
                static_cast<unsigned long long>(Rows[I].Split), P.first,
                P.second);
  }
  std::printf("\nShape check: split >= native per kernel; deltas come from\n"
              "addressing and accumulator-promotion codegen differences.\n");
  return 0;
}
