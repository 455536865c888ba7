//===- bench/tiering_latency.cpp - Tiered cold-start latency ----------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Measures what RunOptions::Tiered buys and what it costs, on every
// kernel x {sse, altivec} cell of the split-vectorized flow:
//
//  - COLD time-to-first-result (TTFR): an eager cold run pays vectorize +
//    encode + decode + verify + vector JIT before the first result; a
//    tiered cold run enters the one cold tier, the forced-scalar JIT --
//    for a kernel flow, which has no decoded module yet, that is
//    compiled scalar bytecode -- and defers the vector compile to the
//    background. Every cell records the tiers its cold runs entered and
//    executed; the summary is the all-cell geomean speedup, the worst
//    cell, and the slowest cells by name.
//  - STEADY state: after hotness-driven promotion converges (the entry
//    tier reaches the eager tier, artifacts warm in the CodeCache), a
//    tiered run pays only the hotness tick on top of the eager warm
//    path. Eager and tiered reps alternate; a cell's steady ratio is the
//    median of its per-pair ratios. Tiered steady throughput must stay
//    within 5% of eager.
//
//   tiering_latency [--json [PATH]]
//
// --json writes the machine-readable report (BENCH_tiering.json by
// default) consumed by scripts/perf_gate.py --tiering-floor.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "jit/CodeCache.h"
#include "jit/Tiering.h"
#include "kernels/Kernels.h"
#include "vapor/Pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace vapor;

namespace {

using Clock = std::chrono::steady_clock;

/// Cold TTFR reps (each from a cleared cache) and steady-state reps
/// (warm). Medians tame scheduler noise without google-benchmark.
constexpr int ColdReps = 7;
constexpr int SteadyReps = 25;
/// Promotion-convergence bound: tiered runs (each followed by an engine
/// drain) before we give up waiting for the entry tier to reach the
/// eager tier.
constexpr int MaxPromoteRuns = 300;
/// Cells named in the summary, slowest cold speedup first.
constexpr size_t SlowestReported = 5;

struct Cell {
  std::string Kernel, Target;
  double EagerColdUs = 0;   ///< Median cold TTFR, eager.
  double TieredColdUs = 0;  ///< Median cold TTFR, tiered.
  double EagerSteadyUs = 0; ///< Median warm-cache eager run.
  double TieredSteadyUs = 0;///< Median promoted+warm tiered run.
  double ColdSpeedup = 0;   ///< EagerColdUs / TieredColdUs.
  double SteadyRatio = 0;   ///< Median over reps of eager / tiered.
  unsigned ColdEntered = 0; ///< One bit per ExecTier a cold run entered.
  unsigned ColdExecuted = 0;///< One bit per ExecTier a cold run ran on.
  int PromoteRuns = -1; ///< Tiered runs until promotion converged.
};

/// The tier names of a Cell tier mask, best first, each wrapped in
/// \p Quote and joined by \p Sep.
std::string tierList(unsigned Mask, const char *Quote, const char *Sep) {
  std::string S;
  for (unsigned T = 0; T <= static_cast<unsigned>(ExecTier::Interpreter);
       ++T)
    if (Mask & (1u << T))
      S += (S.empty() ? "" : Sep) + std::string(Quote) +
           tierName(static_cast<ExecTier>(T)) + Quote;
  return S;
}

double wallMicros(const std::function<void()> &F) {
  auto T0 = Clock::now();
  F();
  return std::chrono::duration<double, std::micro>(Clock::now() - T0)
      .count();
}

/// Distinct hotness-key salt per (cell, purpose, rep) so no measurement
/// inherits another's promotion state on the process-global engine.
uint64_t salt(size_t CellIdx, int Purpose, int Rep) {
  return (CellIdx + 1) * 1000000 + Purpose * 1000 + Rep;
}

Cell measure(size_t CellIdx, const kernels::Kernel &K,
             const std::string &TName, const target::TargetDesc &T) {
  Cell C;
  C.Kernel = K.Name;
  C.Target = TName;

  RunOptions Eager;
  Eager.Target = T;
  RunOptions Tiered = Eager;
  Tiered.Tiered = true;

  // Cold TTFR, INTERLEAVED like the steady state below so host-speed
  // drift lands on both sides of the ratio. Every rep starts from an
  // empty cache: the eager run pays the full compile pipeline before its
  // first result; the tiered run (fresh salt: the first invocation of a
  // new hotness key) enters the cold tier, which skips the vectorizer
  // and the vector lowering.
  std::vector<double> ColdE, ColdT;
  for (int R = 0; R < ColdReps; ++R) {
    jit::cache::clear();
    ColdE.push_back(wallMicros(
        [&] { runKernel(K, Flow::SplitVectorized, Eager); }));
    jit::cache::clear();
    Tiered.TieringSalt = salt(CellIdx, 1, R);
    RunOutcome Out;
    ColdT.push_back(wallMicros(
        [&] { Out = runKernel(K, Flow::SplitVectorized, Tiered); }));
    C.ColdEntered |= 1u << static_cast<unsigned>(Out.EntryTier);
    C.ColdExecuted |= 1u << static_cast<unsigned>(Out.Tier);
  }
  C.EagerColdUs = bench::median(ColdE);
  C.TieredColdUs = bench::median(ColdT);

  // Promotion convergence: one salt, repeated invocations with a drain
  // after each so background compiles land deterministically; stop when
  // the entry tier reaches the eager tier (Vectorized here).
  jit::cache::clear();
  Tiered.TieringSalt = salt(CellIdx, 2, 0);
  for (int R = 0; R < MaxPromoteRuns; ++R) {
    RunOutcome Out = runKernel(K, Flow::SplitVectorized, Tiered);
    jit::tiering::engine().drain();
    if (Out.Terminal.ok() && Out.EntryTier == ExecTier::Vectorized) {
      C.PromoteRuns = R + 1;
      break;
    }
  }
  if (C.PromoteRuns < 0)
    std::printf("WARNING %s/%s: promotion did not converge in %d runs\n",
                K.Name.c_str(), TName.c_str(), MaxPromoteRuns);

  // Steady state, INTERLEAVED: after promotion the tiered run is the
  // eager warm path plus one hotness tick. Each rep runs eager then
  // tiered back to back, so host-speed drift lands on both sides of that
  // rep's ratio; the median over reps rejects the reps a preemption hit.
  // A ratio of two independent minima would let one lucky rep on either
  // side move the cell by a third.
  std::vector<double> VE, VT, Ratio;
  runKernel(K, Flow::SplitVectorized, Eager);
  runKernel(K, Flow::SplitVectorized, Tiered);
  for (int R = 0; R < SteadyReps; ++R) {
    VE.push_back(wallMicros(
        [&] { runKernel(K, Flow::SplitVectorized, Eager); }));
    VT.push_back(wallMicros(
        [&] { runKernel(K, Flow::SplitVectorized, Tiered); }));
    Ratio.push_back(VT.back() > 0 ? VE.back() / VT.back() : 0);
  }
  C.EagerSteadyUs = bench::median(VE);
  C.TieredSteadyUs = bench::median(VT);
  C.SteadyRatio = bench::median(Ratio);

  C.ColdSpeedup =
      C.TieredColdUs > 0 ? C.EagerColdUs / C.TieredColdUs : 0;
  return C;
}

} // namespace

int main(int argc, char **argv) {
  const char *JsonPath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0) {
      JsonPath = "BENCH_tiering.json";
      if (I + 1 < argc && argv[I + 1][0] != '-')
        JsonPath = argv[++I];
    } else {
      std::printf("usage: tiering_latency [--json [PATH]]\n");
      return 2;
    }
  }

  jit::tiering::engine().reset();
  // Small thresholds keep the convergence loop (and CI) short without
  // changing what is measured: cold TTFR has no compiles either way,
  // and steady state is measured after promotion regardless of when it
  // happened.
  jit::tiering::Config Cfg;
  Cfg.HotVectorized = 4;
  Cfg.HotNative = 12;
  jit::tiering::engine().setConfig(Cfg);

  bench::printHeader(
      "Tiered execution: cold time-to-first-result and steady state vs "
      "eager, split-vectorized");
  std::printf("%-14s %-8s %11s %11s %8s %10s %10s %7s %s\n", "kernel",
              "target", "eager-cold", "tier-cold", "speedup", "eager-ss",
              "tier-ss", "ratio", "cold-tier");

  std::vector<Cell> Cells;
  size_t Idx = 0;
  for (auto [TName, T] :
       {std::pair<const char *, target::TargetDesc>{"sse",
                                                    target::sseTarget()},
        {"altivec", target::altivecTarget()}}) {
    for (const kernels::Kernel &K : kernels::allKernels()) {
      Cell C = measure(Idx++, K, TName, T);
      std::printf("%-14s %-8s %10.1fus %10.1fus %7.1fx %9.2fus %9.2fus "
                  "%7.3f %s\n",
                  C.Kernel.c_str(), C.Target.c_str(), C.EagerColdUs,
                  C.TieredColdUs, C.ColdSpeedup, C.EagerSteadyUs,
                  C.TieredSteadyUs, C.SteadyRatio,
                  tierList(C.ColdExecuted, "", "+").c_str());
      Cells.push_back(std::move(C));
    }
  }
  jit::tiering::engine().reset();
  jit::tiering::engine().setConfig(jit::tiering::Config{});
  jit::cache::clear();

  std::vector<double> Cold, Steady;
  unsigned BelowEager = 0;
  for (const Cell &C : Cells) {
    Cold.push_back(C.ColdSpeedup);
    Steady.push_back(C.SteadyRatio);
    BelowEager += C.ColdSpeedup < 1.0;
  }
  std::vector<const Cell *> Slowest;
  for (const Cell &C : Cells)
    Slowest.push_back(&C);
  std::sort(Slowest.begin(), Slowest.end(), [](const Cell *A, const Cell *B) {
    return A->ColdSpeedup < B->ColdSpeedup;
  });
  Slowest.resize(std::min(Slowest.size(), SlowestReported));
  const double ColdGeomean = bench::geoMean(Cold);
  const double SteadyGeomean = bench::geoMean(Steady);
  const double SteadyMin = *std::min_element(Steady.begin(), Steady.end());
  std::printf("\ncold-speedup geomean %.2fx over %zu cells, worst %.3fx "
              "(%s/%s), %u cells below eager\nslowest cold cells:",
              ColdGeomean, Cells.size(), Slowest.front()->ColdSpeedup,
              Slowest.front()->Kernel.c_str(),
              Slowest.front()->Target.c_str(), BelowEager);
  for (const Cell *C : Slowest)
    std::printf(" %s/%s %.3fx", C->Kernel.c_str(), C->Target.c_str(),
                C->ColdSpeedup);
  std::printf("\nsteady-ratio geomean %.3f min %.3f\n", SteadyGeomean,
              SteadyMin);

  if (!JsonPath)
    return 0;
  std::ofstream OS(JsonPath);
  if (!OS) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath);
    return 1;
  }
  char Buf[640];
  std::snprintf(Buf, sizeof(Buf),
                "{\n  \"schema\": \"vapor-bench-tiering-v3\",\n"
                "  \"flow\": \"split_vectorized\",\n"
                "  \"cold_speedup_geomean\": %.3f,\n"
                "  \"cold_speedup_min\": %.3f,\n"
                "  \"cold_cells_below_eager\": %u,\n"
                "  \"steady_ratio_geomean\": %.4f,\n"
                "  \"steady_ratio_min\": %.4f,\n"
                "  \"slowest_cold_cells\": [\n",
                ColdGeomean, Slowest.front()->ColdSpeedup, BelowEager,
                SteadyGeomean, SteadyMin);
  OS << Buf;
  for (size_t I = 0; I < Slowest.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"kernel\": \"%s\", \"target\": \"%s\", "
                  "\"cold_speedup\": %.3f}%s\n",
                  Slowest[I]->Kernel.c_str(), Slowest[I]->Target.c_str(),
                  Slowest[I]->ColdSpeedup,
                  I + 1 < Slowest.size() ? "," : "");
    OS << Buf;
  }
  OS << "  ],\n  \"cells\": [\n";
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    std::snprintf(
        Buf, sizeof(Buf),
        "    {\"kernel\": \"%s\", \"target\": \"%s\", "
        "\"eager_cold_us\": %.2f, \"tiered_cold_us\": %.2f, "
        "\"cold_speedup\": %.3f, \"cold_entry_tiers\": [%s], "
        "\"cold_exec_tiers\": [%s], \"eager_steady_us\": %.3f, "
        "\"tiered_steady_us\": %.3f, \"steady_ratio\": %.4f, "
        "\"promote_runs\": %d}%s\n",
        C.Kernel.c_str(), C.Target.c_str(), C.EagerColdUs, C.TieredColdUs,
        C.ColdSpeedup, tierList(C.ColdEntered, "\"", ", ").c_str(),
        tierList(C.ColdExecuted, "\"", ", ").c_str(), C.EagerSteadyUs,
        C.TieredSteadyUs, C.SteadyRatio, C.PromoteRuns,
        I + 1 < Cells.size() ? "," : "");
    OS << Buf;
  }
  OS << "  ]\n}\n";
  std::printf("wrote %s\n", JsonPath);
  return 0;
}
