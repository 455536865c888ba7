//===- bench/fig5_mono.cpp - Paper Figure 5 (a) and (b) --------------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Figure 5: "Mono: normalized vectorization impact, ratio of (A/C)/(E/F),
// higher is better" — the speedup vectorization yields under the
// resource-constrained (weak, Mono-like) JIT, normalized by the speedup it
// yields under native compilation, per kernel, on SSE and AltiVec.
//
// The binary prints both sub-figures; pass "sse" or "altivec" to print
// just one. Per-kernel cells run across the sweep pool (VAPOR_JOBS
// overrides the worker count); the modeled cycles are deterministic, so
// the printed numbers match a serial run.
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

double vectorizationImpact(const kernels::Kernel &K,
                           const target::TargetDesc &T, bool Weak) {
  RunOptions O;
  O.Target = T;
  O.Tier = Weak ? jit::Tier::Weak : jit::Tier::Strong;
  Flow VecFlow = Weak ? Flow::SplitVectorized : Flow::NativeVectorized;
  Flow ScaFlow = Weak ? Flow::SplitScalar : Flow::NativeScalar;
  uint64_t Vec = runKernel(K, VecFlow, O).Cycles;
  uint64_t Sca = runKernel(K, ScaFlow, O).Cycles;
  return static_cast<double>(Sca) / static_cast<double>(Vec);
}

void figure5(const target::TargetDesc &T, const char *Caption,
             unsigned Jobs) {
  printHeader(std::string("Figure 5") + Caption +
              ": Mono JIT, normalized vectorization impact "
              "(split speedup / native speedup, higher is better)");
  printColumnLabels({"split-spdp", "native-spdp", "normalized"});

  std::vector<kernels::Kernel> Table2 = kernels::table2Kernels();
  std::vector<kernels::Kernel> Poly = kernels::polybenchKernels();
  struct Impact {
    double Split = 0, Native = 0;
  };
  std::vector<Impact> T2(Table2.size()), P(Poly.size());
  support::parallelFor(Jobs, Table2.size() + Poly.size(), [&](size_t I) {
    const kernels::Kernel &K =
        I < Table2.size() ? Table2[I] : Poly[I - Table2.size()];
    Impact &R = I < Table2.size() ? T2[I] : P[I - Table2.size()];
    R.Split = vectorizationImpact(K, T, /*Weak=*/true);
    R.Native = vectorizationImpact(K, T, /*Weak=*/false);
  });

  std::vector<double> Normalized;
  auto Emit = [&](const std::string &Name, double SplitImpact,
                  double NativeImpact) {
    double Norm = SplitImpact / NativeImpact;
    Normalized.push_back(Norm);
    printRow(Name, {{"s", SplitImpact}, {"n", NativeImpact}, {"r", Norm}});
  };

  for (size_t I = 0; I < Table2.size(); ++I)
    Emit(Table2[I].Name, T2[I].Split, T2[I].Native);
  // The paper plots one bar for the Polybench suite average.
  std::vector<double> PolyS, PolyN;
  for (const Impact &R : P) {
    PolyS.push_back(R.Split);
    PolyN.push_back(R.Native);
  }
  Emit("polybench_avg", arithMean(PolyS), arithMean(PolyN));

  std::printf("%-18s  %10s  %10s  %10.3f\n", "Arith.Mean", "", "",
              arithMean(Normalized));
}

} // namespace

int main(int argc, char **argv) {
  auto Sink = obs::TraceSink::fromEnv("VAPOR_TRACE");
  bool DoSse = true, DoAltivec = true;
  if (argc > 1 && argv[1][0] != '-') { // Flags (e.g. benchmark's) ignored.
    DoSse = std::strcmp(argv[1], "sse") == 0;
    DoAltivec = std::strcmp(argv[1], "altivec") == 0;
    if (!DoSse && !DoAltivec) {
      std::fprintf(stderr, "fig5_mono: unknown target '%s' (expected sse "
                           "or altivec)\n", argv[1]);
      return 2;
    }
  }
  unsigned Jobs = sweep::defaultJobs();
  if (DoSse)
    figure5(target::sseTarget(), "(a) SSE (128-bit)", Jobs);
  if (DoAltivec)
    figure5(target::altivecTarget(), "(b) AltiVec (128-bit)", Jobs);
  return 0;
}
