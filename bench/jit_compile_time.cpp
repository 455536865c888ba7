//===- bench/jit_compile_time.cpp - JIT compile time (Sec. V-A(c)) ----------===//
//
// Part of the Vapor SIMD reproduction.
//
// "We observed a similar increase of 4.85x/5.37x in compile time on
// x86/PowerPC, respectively, confirming that JIT compilation time is
// proportional to the bytecode size. Overall, the JIT compile time
// remained negligible ... in the microsecond range."
//
// Built on google-benchmark: wall-clock time of the online compiler on
// scalar vs vectorized bytecode, followed by a printed ratio summary, a
// cold-vs-warm measurement of the content-addressed code cache on the
// executor's integrated compile path, and the verifier's cost per KB of
// bytecode for every kernel on every SIMD target.
//
//   jit_compile_time [--verify-json PATH] [google-benchmark flags]
//
// --verify-json writes the verifier matrix to PATH, which
// scripts/perf_gate.py --verify-linear gates. Use
// --benchmark_filter=NONE to skip the timed micro-runs and only produce
// the summaries.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "bytecode/Bytecode.h"
#include "jit/CodeCache.h"
#include "jit/Jit.h"
#include "kernels/Kernels.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"
#include "verify/Verify.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

using namespace vapor;

namespace {

struct Prepared {
  ir::Function Scalar{""};
  ir::Function Vector{""};
  size_t ScalarBytes = 0;
  size_t VectorBytes = 0;
};

Prepared prepare(const std::string &Name) {
  kernels::Kernel K = kernels::kernelByName(Name);
  Prepared P;
  P.Scalar = K.Source;
  P.Vector = vectorizer::vectorize(K.Source).Output;
  P.ScalarBytes = bytecode::encodedSize(P.Scalar);
  P.VectorBytes = bytecode::encodedSize(P.Vector);
  return P;
}

void jitOnce(const ir::Function &F, const target::TargetDesc &T) {
  auto RT = jit::RuntimeInfo::unknown(F.Arrays.size());
  auto CR = jit::compile(F, T, RT);
  benchmark::DoNotOptimize(CR.Code.Instrs.data());
}

void BM_JitScalarBytecode(benchmark::State &State,
                          const std::string &Kernel,
                          target::TargetDesc T) {
  Prepared P = prepare(Kernel);
  for (auto _ : State)
    jitOnce(P.Scalar, T);
  State.counters["bytecode_bytes"] = static_cast<double>(P.ScalarBytes);
}

void BM_JitVectorBytecode(benchmark::State &State,
                          const std::string &Kernel,
                          target::TargetDesc T) {
  Prepared P = prepare(Kernel);
  for (auto _ : State)
    jitOnce(P.Vector, T);
  State.counters["bytecode_bytes"] = static_cast<double>(P.VectorBytes);
}

const char *SampleKernels[] = {"saxpy_fp", "sfir_s16", "dissolve_s8",
                               "convolve_s32", "mmm_fp"};

void registerAll() {
  for (const char *K : SampleKernels) {
    for (auto [TName, T] :
         {std::pair<const char *, target::TargetDesc>{"sse",
                                                      target::sseTarget()},
          {"altivec", target::altivecTarget()}}) {
      benchmark::RegisterBenchmark(
          (std::string("jit_scalar/") + K + "/" + TName).c_str(),
          [K = std::string(K), T](benchmark::State &S) {
            BM_JitScalarBytecode(S, K, T);
          });
      benchmark::RegisterBenchmark(
          (std::string("jit_vector/") + K + "/" + TName).c_str(),
          [K = std::string(K), T](benchmark::State &S) {
            BM_JitVectorBytecode(S, K, T);
          });
    }
  }
}

/// After the timed runs, print the paper-style summary: compile-time
/// ratio vs bytecode-size ratio across the whole suite, measured once.
void printRatioSummary() {
  using Clock = std::chrono::steady_clock;
  bench::printHeader(
      "JIT compile time: vectorized vs scalar bytecode (paper: ~4.85x on "
      "x86 / ~5.37x on PowerPC, proportional to bytecode size)");
  bench::printColumnLabels({"time-ratio", "size-ratio", "us-vector"});

  for (auto [TName, T] :
       {std::pair<const char *, target::TargetDesc>{"sse",
                                                    target::sseTarget()},
        {"altivec", target::altivecTarget()}}) {
    std::vector<double> TimeRatios, SizeRatios;
    double SumVecMicros = 0;
    unsigned Count = 0;
    for (const kernels::Kernel &K : kernels::allKernels()) {
      Prepared P;
      P.Scalar = K.Source;
      auto VR = vectorizer::vectorize(K.Source);
      if (!VR.anyVectorized())
        continue;
      P.Vector = std::move(VR.Output);
      auto Time = [&](const ir::Function &F) {
        // Median of repeated runs to tame scheduler noise.
        std::vector<double> Micros;
        for (int Rep = 0; Rep < 7; ++Rep) {
          auto T0 = Clock::now();
          jitOnce(F, T);
          auto T1 = Clock::now();
          Micros.push_back(
              std::chrono::duration<double, std::micro>(T1 - T0).count());
        }
        std::sort(Micros.begin(), Micros.end());
        return Micros[Micros.size() / 2];
      };
      double ScalarUs = Time(P.Scalar);
      double VectorUs = Time(P.Vector);
      TimeRatios.push_back(VectorUs / ScalarUs);
      SizeRatios.push_back(
          static_cast<double>(bytecode::encodedSize(P.Vector)) /
          static_cast<double>(bytecode::encodedSize(P.Scalar)));
      SumVecMicros += VectorUs;
      ++Count;
    }
    bench::printRow(std::string("avg/") + TName,
                    {{"t", bench::arithMean(TimeRatios)},
                     {"s", bench::arithMean(SizeRatios)},
                     {"us", SumVecMicros / Count}});
  }
}

/// Cold-vs-warm measurement of the content-addressed code cache on the
/// executor's integrated compile path (Pipeline::runKernel). Cold runs
/// start from a cleared cache and pay hash + verify + compile + decode;
/// warm runs repeat the identical request and pay only the hash and
/// lookup.
void printCacheSummary() {
  bench::printHeader(
      "Online-stage code cache: compile path cold (empty cache) vs warm "
      "(content hit), split-vectorized on sse");
  std::printf("%-14s %10s %10s %10s\n", "kernel", "cold-us", "warm-us",
              "speedup");

  for (const char *Name : SampleKernels) {
    kernels::Kernel K = kernels::kernelByName(Name);
    RunOptions O;
    O.Target = target::sseTarget();
    // Median of repeated cold/warm pairs; each pair starts from a
    // cleared cache so "cold" really compiles.
    std::vector<double> Cold, Warm;
    for (int Rep = 0; Rep < 7; ++Rep) {
      jit::cache::clear();
      Cold.push_back(runKernel(K, Flow::SplitVectorized, O).CompileMicros);
      Warm.push_back(runKernel(K, Flow::SplitVectorized, O).CompileMicros);
    }
    std::sort(Cold.begin(), Cold.end());
    std::sort(Warm.begin(), Warm.end());
    const double ColdUs = Cold[Cold.size() / 2];
    const double WarmUs = Warm[Warm.size() / 2];
    std::printf("%-14s %10.2f %10.3f %9.0fx\n", Name, ColdUs, WarmUs,
                ColdUs / WarmUs);
  }
  jit::cache::clear();
}

/// The verifier's cost per KB of split bytecode, per kernel: the static
/// gate must stay linear in module size like the JIT (paper Sec. I). Each
/// call verifies one SIMD target, the way the executor's gate does. The
/// cells are timed round-robin for VerifyReps rounds and each keeps its
/// median, so a slow spell of the host hits every kernel alike: the gate
/// compares kernels with each other, never with another host. A kernel's
/// us/KB is the mean of its per-target medians over its encoded size.
void printVerifySummary(const char *JsonPath) {
  constexpr int VerifyReps = 31;
  using Clock = std::chrono::steady_clock;
  bench::printHeader("Verifier cost per KB of split bytecode, every kernel "
                     "on every SIMD target (median of " +
                     std::to_string(VerifyReps) + " interleaved calls)");
  std::vector<target::TargetDesc> Simd;
  for (const target::TargetDesc &T : target::allTargets())
    if (T.hasSimd())
      Simd.push_back(T);

  struct Row {
    std::string Kernel;
    ir::Function Module{""};
    size_t Bytes = 0;
    std::vector<std::vector<double>> Micros; ///< Per target, per rep.
    std::vector<double> MedianUs;            ///< Per target.
    double UsPerKB = 0;
  };
  std::vector<Row> Rows;
  for (const kernels::Kernel &K : kernels::allKernels()) {
    Row R;
    R.Kernel = K.Name;
    std::vector<uint8_t> Bytes =
        bytecode::encode(vectorizer::vectorize(K.Source).Output);
    auto Decoded = bytecode::decode(Bytes);
    if (!Decoded) {
      std::fprintf(stderr, "%s: %s\n", K.Name.c_str(),
                   Decoded.status().str().c_str());
      std::exit(1);
    }
    R.Module = std::move(*Decoded);
    R.Bytes = Bytes.size();
    R.Micros.resize(Simd.size());
    Rows.push_back(std::move(R));
  }

  std::vector<verify::VerifyOptions> Opts(Simd.size());
  for (size_t T = 0; T < Simd.size(); ++T)
    Opts[T].Targets = {Simd[T]};
  for (int Rep = -1; Rep < VerifyReps; ++Rep) // Rep -1 warms up.
    for (Row &R : Rows)
      for (size_t T = 0; T < Simd.size(); ++T) {
        auto T0 = Clock::now();
        verify::Report V = verify::verifyModule(R.Module, Opts[T]);
        auto T1 = Clock::now();
        benchmark::DoNotOptimize(V.ObligationsProved);
        if (!V.ok()) {
          std::fprintf(stderr, "%s on %s: %s", R.Kernel.c_str(),
                       Simd[T].Name.c_str(), V.str().c_str());
          std::exit(1);
        }
        if (Rep >= 0)
          R.Micros[T].push_back(
              std::chrono::duration<double, std::micro>(T1 - T0).count());
      }

  std::vector<double> PerKB;
  for (Row &R : Rows) {
    for (std::vector<double> &M : R.Micros) {
      std::sort(M.begin(), M.end());
      R.MedianUs.push_back(M[M.size() / 2]);
    }
    R.UsPerKB = bench::arithMean(R.MedianUs) * 1024.0 /
                static_cast<double>(R.Bytes);
    PerKB.push_back(R.UsPerKB);
  }
  std::sort(PerKB.begin(), PerKB.end());
  const double Median = PerKB[PerKB.size() / 2];
  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    return A.UsPerKB > B.UsPerKB;
  });
  std::printf("%-16s %7s", "kernel", "bytes");
  for (const target::TargetDesc &T : Simd)
    std::printf(" %9s", (T.Name + "-us").c_str());
  std::printf(" %8s %8s\n", "us/KB", "x-median");
  for (const Row &R : Rows) {
    std::printf("%-16s %7zu", R.Kernel.c_str(), R.Bytes);
    for (double U : R.MedianUs)
      std::printf(" %9.1f", U);
    std::printf(" %8.1f %8.2f\n", R.UsPerKB, R.UsPerKB / Median);
  }
  std::printf("median %.1f us/KB; worst %s at %.2fx the median\n", Median,
              Rows.front().Kernel.c_str(), Rows.front().UsPerKB / Median);

  if (!JsonPath)
    return;
  std::ofstream OS(JsonPath);
  if (!OS) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath);
    std::exit(1);
  }
  char Buf[256];
  OS << "{\n  \"bench\": \"jit_compile_time\",\n"
        "  \"schema\": \"vapor-bench-verify-v1\",\n";
  std::snprintf(Buf, sizeof(Buf),
                "  \"reps\": %d,\n  \"median_us_per_kb\": %.2f,\n"
                "  \"targets\": [",
                VerifyReps, Median);
  OS << Buf;
  for (size_t T = 0; T < Simd.size(); ++T)
    OS << (T ? ", " : "") << "\"" << Simd[T].Name << "\"";
  OS << "],\n  \"kernels\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"kernel\": \"%s\", \"bytes\": %zu, "
                  "\"us_per_kb\": %.2f, \"us_per_call\": {",
                  R.Kernel.c_str(), R.Bytes, R.UsPerKB);
    OS << Buf;
    for (size_t T = 0; T < Simd.size(); ++T) {
      std::snprintf(Buf, sizeof(Buf), "%s\"%s\": %.2f", T ? ", " : "",
                    Simd[T].Name.c_str(), R.MedianUs[T]);
      OS << Buf;
    }
    OS << "}}" << (I + 1 < Rows.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
  std::printf("wrote %s\n", JsonPath);
}

} // namespace

int main(int argc, char **argv) {
  // Peel off our own --verify-json PATH before google-benchmark sees
  // argv -- it rejects flags it does not recognize.
  const char *VerifyJsonPath = nullptr;
  std::vector<char *> Args;
  Args.push_back(argv[0]);
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--verify-json") == 0) {
      if (I + 1 == argc) {
        std::fprintf(stderr, "--verify-json needs a PATH\n");
        return 2;
      }
      VerifyJsonPath = argv[++I];
    } else {
      Args.push_back(argv[I]);
    }
  }
  int BenchArgc = static_cast<int>(Args.size());

  registerAll();
  benchmark::Initialize(&BenchArgc, Args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  printRatioSummary();
  printCacheSummary();
  printVerifySummary(VerifyJsonPath);
  return 0;
}
