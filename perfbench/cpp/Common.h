//===- perfbench/cpp/Common.h - Shared workload machinery ------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pieces both workload families use: golden outputs, clocks, the
/// per-key layer replay that times the layers the program has no span
/// for, and the metric table.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Workloads.h"

#include "kernels/Kernels.h"
#include "server/Protocol.h"
#include "target/MemoryImage.h"
#include "target/Target.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

namespace kernels = vapor::kernels;
namespace target = vapor::target;
namespace server = vapor::server;

using Clock = std::chrono::steady_clock;

inline double usSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}

/// Golden outputs of one kernel's source arrays, from the IR evaluator.
struct Golden {
  struct Array {
    std::string Name;
    bool IsFP = false;
    std::vector<int64_t> I;
    std::vector<double> F;
  };
  std::vector<Array> Arrays;
  double Tolerance = 0;
};

/// Evaluates \p K's source with its own fill (the kernel flows), or with
/// defaultFill(\p ServerSeed) when \p ServerFill is set (what the server
/// runs for a module).
Golden computeGolden(const kernels::Kernel &K, bool ServerFill,
                     uint64_t ServerSeed = 7);

/// Source arrays are a prefix of the image; the vectorizer's "__vt*"
/// scratch arrays follow and are not compared.
bool matchesGolden(const Golden &G, const target::MemoryImage &Mem);
/// vapor-replay's check of a response's lane dump.
bool matchesGolden(const Golden &G, const server::RunResponse &Resp);

/// Widest external-array element (bytes); 0 when the kernel has none.
uint32_t externalElemBytes(const kernels::Kernel &K);

/// Median wall time of one op's layers that have no span in the program,
/// measured by calling the public function on the op's inputs.
struct LayerCost {
  double EncodeUs = 0;
  double DecodeUs = 0;
  double CertUs = 0;  ///< analysis::checkCertificate.
  double PlanUs = 0;  ///< jit::buildElisionPlan minus its checkCertificate.
  double LayoutFillUs = 0;
  double VmExecUs = 0;
  double EmitUs = 0;  ///< codegen::compileNative.
  double NativeExecUs = 0;
  double CacheKeyUs = 0; ///< Code-cache key hashing of one run.
  double IacaUs = 0;     ///< target::analyzeVectorLoop on the lowering.
  double CopyUs = 0;     ///< Copying the machine code into the outcome.
  bool HasCert = false;
  uint64_t PreFusionOps = 0; ///< Of the VM program (0 for native).
  uint64_t FusedOps = 0;
};

struct ReplayCase {
  /// Workload binding: fill, parameters, external arrays.
  const kernels::Kernel *Work = nullptr;
  /// The vectorizer output the op encodes; null when the op does not
  /// encode (server requests arrive encoded).
  const vapor::ir::Function *Vectorized = nullptr;
  const std::vector<uint8_t> *Bytes = nullptr;
  vapor::target::TargetDesc Target;
  uint32_t Misalign = 0;
  bool ForceScalar = false; ///< The ScalarJit tier's lowering.
  bool Native = false;
};

/// Replays every case \p Rounds times and keeps each layer's median.
/// Rounds go round-robin over the cases, so no case replays on caches
/// its own previous round left hot (an op never does either). Must run
/// with no trace sink installed.
std::vector<LayerCost> replayLayers(const std::vector<ReplayCase> &Cases,
                                    int Rounds = 3);

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Appends the ledger check of a traced report: the additive layer times
/// plus vapor.unattributed_us against the traced and untraced means.
void ledgerNote(Report &R);

/// Process peak resident set (VmHWM) in MiB.
double peakRssMb();

/// cold_start (\p Cold) and hot_loop.
void runKernelFlow(const Config &C, bool Cold, Report &R);
/// serve_zipf. \returns false when the server could not be started.
bool runServe(const Config &C, Report &R, std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
