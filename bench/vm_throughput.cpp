//===- bench/vm_throughput.cpp - VM dispatch-speed microbenchmark ----------===//
//
// Part of the Vapor SIMD reproduction.
//
// Every figure in the repro is produced by replaying kernels through the
// target VM, so its dispatch speed bounds how fast the whole experiment
// matrix runs. This binary measures the host-side throughput of the
// pre-decoded interpreter with and without the macro-op fusion peephole,
// on every registry kernel x all five modelled targets (sse, altivec,
// neon, avx, scalar): 180 cells.
//
//   vm_throughput          print the human-readable measurements
//   vm_throughput --json [PATH]
//                          also write the machine-readable baseline
//                          (headline throughput, per-cell fused/unfused
//                          rows, and Fig. 6 harmonic means for every
//                          target) to PATH (default BENCH_vm.json in
//                          the working directory)
//
// Each cell decodes the same MachineIR twice, fused and unfused, and
// times them in interleaved batches of 2^18 dispatched ops (about a
// millisecond), alternating which program goes first: 11 reps in each of
// three passes over the matrix. A rep's ratio is unfused time over fused
// time, and the cell's fused_speedup is the median of its 33 ratios, so
// a host speed step, a preemption or a noisy pass moves some reps, not
// the cell.
// scripts/perf_gate.py holds every cell and the geomean above floors.
//
// The headline ns_per_dispatched_op (the perf gate's absolute metric) is
// the fused ns/op of aligned split-vectorized saxpy_fp on sse -- the
// configuration every sweep actually runs -- as the median of that cell's
// 33 batches, reported next to the ON-but-idle tracing overhead. Timing
// runs are serial on purpose (wall-clock timing under an oversubscribed
// pool measures contention, not dispatch); only the deterministic Fig. 6
// cycle sweep uses the thread pool.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"
#include "target/VM.h"
#include "vapor/Pipeline.h"
#include "vapor/Sweep.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <tuple>

using namespace vapor;
using namespace vapor::bench;

namespace {

using Clock = std::chrono::steady_clock;

/// Passes over the matrix, interleaved reps per cell and pass, and the
/// dispatched ops one timed batch of a program runs (about a millisecond
/// on a 4-ns/op host). The batch is a fixed amount of work, not a time
/// slice, so every build and host replays a kernel the same number of
/// times over the same evolving memory image. A cell's reps are spread
/// over three passes, seconds apart, so a burst of host noise that
/// lands on one pass moves a third of them: never the median.
constexpr int Passes = 3;
constexpr int PassReps = 11;
constexpr uint64_t CellBatchOps = uint64_t(1) << 18;

/// A VM over one decoded program of a prepared run, parameters bound.
std::unique_ptr<target::VM>
boundVM(const std::shared_ptr<const target::DecodedProgram> &Prog,
        const RunOutcome &Out, const kernels::Kernel &K) {
  auto M = std::make_unique<target::VM>(Prog, *Out.Mem);
  for (const auto &P : K.IntParams)
    M->setParamInt(P.first, P.second);
  for (const auto &P : K.FPParams)
    M->setParamFP(P.first, P.second);
  return M;
}

/// Warm-up run; a run that traps would time the halted VM, not the
/// kernel, so it is fatal. \returns the dispatched ops of one run.
uint64_t warmUp(target::VM &M, const std::string &What) {
  status::Status S = M.run();
  if (!S.ok())
    fatalError("vm_throughput: " + What + ": " + S.str());
  return M.instrsExecuted();
}

double timeRuns(target::VM &M, unsigned Runs) {
  auto T0 = Clock::now();
  for (unsigned I = 0; I < Runs; ++I)
    M.run();
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Measures the fused program's dispatch cost in the default observability
/// state (compiled in, no sink installed: "ON-but-idle") and with the
/// master switch dark, alternating 16-run batches between the two modes
/// and keeping each mode's *fastest* batch. Host noise (frequency steps,
/// neighbors, interrupts) only ever adds time, so the per-mode minimum
/// over thousands of interleaved ~50us batches converges on the true
/// dispatch cost for both modes; a mode-per-window mean at this overhead
/// scale measures only noise and would flap the perf gate's 2% check
/// (scripts/perf_gate.py --obs-overhead).
std::pair<double, double> measureObsOverhead(const RunOutcome &Out,
                                             const target::TargetDesc &T,
                                             const kernels::Kernel &K,
                                             double Seconds = 0.6) {
  auto M = boundVM(
      target::DecodedProgram::build(Out.Compiled->Code, T, *Out.Mem, false, true), Out,
      K);
  uint64_t OpsPerRun = warmUp(*M, K.Name + " on " + T.Name);
  double Total = 0;
  double MinIdle = 1e30, MinOff = 1e30;
  do {
    double DIdle = timeRuns(*M, 16);
    bool Prev = obs::setEnabled(false);
    double DOff = timeRuns(*M, 16);
    obs::setEnabled(Prev);
    MinIdle = std::min(MinIdle, DIdle);
    MinOff = std::min(MinOff, DOff);
    Total += DIdle + DOff;
  } while (Total < Seconds);

  double BatchOps = static_cast<double>(OpsPerRun) * 16.0;
  return {MinIdle * 1e9 / BatchOps, MinOff * 1e9 / BatchOps};
}

/// One benchmark cell: kernel x target, measured fused and unfused.
struct Cell {
  std::string Kernel;
  std::string Target;
  uint64_t OpsPerRun = 0;
  uint32_t PreFusionOps = 0; ///< Static ops before the peephole.
  uint32_t SuperOps = 0;     ///< Superops the peephole emitted.
  /// Per rep: unfused/fused time ratio, and ns per dispatched op of each.
  std::vector<double> Ratio, NsU, NsF;
  double speedup() const { return median(Ratio); }
};

/// Times the fused and the unfused program of one prepared run in
/// PassReps interleaved batch pairs and appends them to \p C. Both
/// programs come from the same MachineIR and run over the same memory
/// image, so each pair sees the same data and, a millisecond apart, the
/// same host speed.
void measureCell(const RunOutcome &Out, const target::TargetDesc &T,
                 const kernels::Kernel &K, Cell &C) {
  auto ProgU =
      target::DecodedProgram::build(Out.Compiled->Code, T, *Out.Mem, false, false);
  auto ProgF =
      target::DecodedProgram::build(Out.Compiled->Code, T, *Out.Mem, false, true);
  auto MU = boundVM(ProgU, Out, K);
  auto MF = boundVM(ProgF, Out, K);
  std::string What = K.Name + " on " + T.Name;
  uint64_t Ops = warmUp(*MU, What);
  if (warmUp(*MF, What) != Ops)
    fatalError("vm_throughput: " + What + ": fusion changed the op count");

  unsigned Runs = static_cast<unsigned>(
      std::max<uint64_t>(1, CellBatchOps / std::max<uint64_t>(Ops, 1)));
  double OpsPerBatch = static_cast<double>(Ops) * Runs;
  for (int R = 0; R < PassReps; ++R) {
    double TU, TF;
    if (R % 2) {
      TF = timeRuns(*MF, Runs);
      TU = timeRuns(*MU, Runs);
    } else {
      TU = timeRuns(*MU, Runs);
      TF = timeRuns(*MF, Runs);
    }
    C.Ratio.push_back(TU / TF);
    C.NsU.push_back(TU * 1e9 / OpsPerBatch);
    C.NsF.push_back(TF * 1e9 / OpsPerBatch);
  }
  C.Kernel = K.Name;
  C.Target = T.Name;
  C.OpsPerRun = Ops;
  C.PreFusionOps = ProgF->PreFusionOps;
  C.SuperOps = ProgF->FusedOps;
}

double figure6HarmonicMean(const target::TargetDesc &T,
                           const std::vector<kernels::Kernel> &All,
                           unsigned Jobs) {
  std::vector<sweep::SplitNativeCell> Cells(All.size());
  support::parallelFor(Jobs, All.size(), [&](size_t I) {
    Cells[I] = sweep::splitOverNativeCell(All[I], T);
  });
  std::vector<double> Ratios;
  for (const sweep::SplitNativeCell &C : Cells)
    Ratios.push_back(C.ratio());
  return harmonicMean(Ratios);
}

} // namespace

int main(int argc, char **argv) {
  bool Json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const char *JsonPath = argc > 2 ? argv[2] : "BENCH_vm.json";

  auto Sink = obs::TraceSink::fromEnv("VAPOR_TRACE");
  std::vector<kernels::Kernel> All = kernels::allKernels();
  const target::TargetDesc Targets[] = {
      target::sseTarget(), target::altivecTarget(), target::neonTarget(),
      target::avxTarget(), target::scalarTarget()};

  // The headline cell (saxpy_fp x sse, fused) also gets the obs-overhead
  // measurement: the default state has obs compiled in, no per-dispatch
  // cost, counters live ("ON-but-idle"); NsObsOff re-measures with the
  // master switch dark. scripts/perf_gate.py --obs-overhead holds
  // idle <= off * 1.02.
  const Cell *Headline = nullptr;
  double NsObsIdle = 0, NsObsOff = 0;
  std::vector<Cell> Cells(All.size() * std::size(Targets));
  for (int Pass = 0; Pass < Passes; ++Pass) {
    size_t I = 0;
    for (const kernels::Kernel &K : All) {
      for (const target::TargetDesc &T : Targets) {
        RunOptions O;
        O.Target = T;
        RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
        measureCell(Out, T, K, Cells[I]);
        if (Pass == 0 && K.Name == "saxpy_fp" && T.Name == "sse") {
          Headline = &Cells[I];
          std::tie(NsObsIdle, NsObsOff) = measureObsOverhead(Out, T, K);
        }
        ++I;
      }
    }
  }
  if (!Headline)
    fatalError("vm_throughput: the registry has no saxpy_fp");
  double NsHeadline = median(Headline->NsF);

  printHeader("VM dispatch throughput (split-vectorized, strong tier, "
              "fused vs unfused, median of " +
              std::to_string(Passes * PassReps) + " interleaved reps)");
  std::printf("%-16s %-8s %10s %10s %10s %9s %8s\n", "kernel", "target",
              "ops/run", "ns/op-unf", "ns/op-fus", "superops", "speedup");
  std::vector<double> Speedups;
  for (const Cell &C : Cells) {
    std::printf("%-16s %-8s %10llu %10.3f %10.3f %4u/%-4u %8.3f\n",
                C.Kernel.c_str(), C.Target.c_str(),
                static_cast<unsigned long long>(C.OpsPerRun), median(C.NsU),
                median(C.NsF), C.SuperOps, C.PreFusionOps, C.speedup());
    Speedups.push_back(C.speedup());
  }
  std::vector<const Cell *> Slowest;
  for (const Cell &C : Cells)
    Slowest.push_back(&C);
  std::sort(Slowest.begin(), Slowest.end(),
            [](const Cell *A, const Cell *B) {
              return A->speedup() < B->speedup();
            });
  size_t Below1 = std::count_if(Speedups.begin(), Speedups.end(),
                                [](double X) { return X < 1.0; });
  std::printf("\nfused speedup over %zu cells: geomean %.3f, %zu below 1, "
              "slowest:",
              Cells.size(), geoMean(Speedups), Below1);
  for (size_t I = 0; I < 3 && I < Slowest.size(); ++I)
    std::printf(" %s/%s %.3f", Slowest[I]->Kernel.c_str(),
                Slowest[I]->Target.c_str(), Slowest[I]->speedup());
  std::printf("\nheadline (saxpy_fp, sse, fused):\n");
  std::printf("machine ops / sec     %12.3e\n", 1e9 / NsHeadline);
  std::printf("ns / dispatched op    %12.2f\n", NsHeadline);
  std::printf("ns / op, obs idle     %12.2f\n", NsObsIdle);
  std::printf("ns / op, obs off      %12.2f  (tracing overhead %+.2f%%)\n",
              NsObsOff, 100.0 * (NsObsIdle - NsObsOff) / NsObsOff);

  if (!Json)
    return 0;

  unsigned Jobs = sweep::defaultJobs();
  double HM[4] = {figure6HarmonicMean(target::sseTarget(), All, Jobs),
                  figure6HarmonicMean(target::altivecTarget(), All, Jobs),
                  figure6HarmonicMean(target::neonTarget(), All, Jobs),
                  figure6HarmonicMean(target::avxTarget(), All, Jobs)};
  std::ofstream OS(JsonPath);
  if (!OS)
    fatalError(std::string("cannot write ") + JsonPath);
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\n"
                "  \"bench\": \"vm_throughput\",\n"
                "  \"kernel\": \"saxpy_fp\",\n"
                "  \"target\": \"sse\",\n"
                "  \"fused\": true,\n"
                "  \"vm_ops_per_sec\": %.4e,\n"
                "  \"ns_per_dispatched_op\": %.3f,\n"
                "  \"ns_per_op_obs_idle\": %.3f,\n"
                "  \"ns_per_op_obs_off\": %.3f,\n"
                "  \"cell_reps\": %d,\n"
                "  \"fused_speedup_geomean\": %.4f,\n"
                "  \"cells\": [\n",
                1e9 / NsHeadline, NsHeadline, NsObsIdle, NsObsOff,
                Passes * PassReps,
                geoMean(Speedups));
  OS << Buf;
  for (size_t I = 0; I < Cells.size(); ++I) {
    const Cell &C = Cells[I];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"kernel\": \"%s\", \"target\": \"%s\", "
                  "\"ops_per_run\": %llu, "
                  "\"ns_per_op_unfused\": %.3f, \"ns_per_op_fused\": %.3f, "
                  "\"fused_speedup\": %.4f, "
                  "\"static_ops\": %u, \"superops\": %u}%s\n",
                  C.Kernel.c_str(), C.Target.c_str(),
                  static_cast<unsigned long long>(C.OpsPerRun),
                  median(C.NsU), median(C.NsF), C.speedup(), C.PreFusionOps,
                  C.SuperOps,
                  I + 1 < Cells.size() ? "," : "");
    OS << Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "  ],\n"
                "  \"fig6_harmonic_mean\": {\n"
                "    \"sse\": %.4f,\n"
                "    \"altivec\": %.4f,\n"
                "    \"neon\": %.4f,\n"
                "    \"avx\": %.4f\n"
                "  }\n"
                "}\n",
                HM[0], HM[1], HM[2], HM[3]);
  OS << Buf;
  std::printf("wrote %s\n", JsonPath);
  return 0;
}
