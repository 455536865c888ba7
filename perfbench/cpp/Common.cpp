//===- perfbench/cpp/Common.cpp - Shared workload machinery ---------------===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Ledger.h"

#include "analysis/Certificate.h"
#include "bytecode/Bytecode.h"
#include "codegen/NativeJit.h"
#include "ir/Interp.h"
#include "jit/CodeCache.h"
#include "jit/Elision.h"
#include "jit/Jit.h"
#include "target/Iaca.h"
#include "target/VM.h"
#include "vapor/FillAdapters.h"
#include "verify/Verify.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sys/resource.h>

using namespace perfbench;
using namespace vapor;

Golden perfbench::computeGolden(const kernels::Kernel &K, bool ServerFill,
                                uint64_t ServerSeed) {
  ir::Evaluator E(K.Source, {});
  E.allocAllArrays();
  detail::EvalFill Fill(E);
  if (ServerFill)
    kernels::defaultFill(Fill, K.Source, ServerSeed);
  else
    K.fill(Fill);
  detail::setParams(
      K, K.Source, [&](const std::string &N, int64_t V) { E.setParamInt(N, V); },
      [&](const std::string &N, double V) { E.setParamFP(N, V); });
  E.run();
  Golden G;
  G.Tolerance = K.Tolerance;
  for (uint32_t A = 0; A < K.Source.Arrays.size(); ++A) {
    const ir::ArrayInfo &AI = K.Source.Arrays[A];
    Golden::Array GA;
    GA.Name = AI.Name;
    GA.IsFP = ir::isFloatKind(AI.Elem);
    for (uint64_t I = 0; I < AI.NumElems; ++I) {
      if (GA.IsFP)
        GA.F.push_back(E.peekFP(A, I));
      else
        GA.I.push_back(E.peekInt(A, I));
    }
    G.Arrays.push_back(std::move(GA));
  }
  return G;
}

static bool fpMatches(double Want, double Got, double Tolerance) {
  double Tol = Tolerance * std::max(1.0, std::fabs(Want));
  return std::fabs(Want - Got) <= Tol || (std::isnan(Want) && std::isnan(Got));
}

bool perfbench::matchesGolden(const Golden &G, const target::MemoryImage &Mem) {
  if (Mem.arrayCount() < G.Arrays.size())
    return false;
  for (uint32_t A = 0; A < G.Arrays.size(); ++A) {
    const Golden::Array &GA = G.Arrays[A];
    if (GA.IsFP) {
      for (uint64_t I = 0; I < GA.F.size(); ++I)
        if (!fpMatches(GA.F[I], Mem.peekFP(A, I), G.Tolerance))
          return false;
    } else {
      for (uint64_t I = 0; I < GA.I.size(); ++I)
        if (Mem.peekInt(A, I) != GA.I[I])
          return false;
    }
  }
  return true;
}

bool perfbench::matchesGolden(const Golden &G,
                              const server::RunResponse &Resp) {
  if (Resp.Arrays.size() < G.Arrays.size())
    return false;
  for (size_t A = G.Arrays.size(); A < Resp.Arrays.size(); ++A)
    if (Resp.Arrays[A].Name.rfind("__vt", 0) != 0)
      return false;
  for (size_t A = 0; A < G.Arrays.size(); ++A) {
    const Golden::Array &GA = G.Arrays[A];
    const server::ArrayDump &D = Resp.Arrays[A];
    const size_t Want = GA.IsFP ? GA.F.size() : GA.I.size();
    if (D.Name != GA.Name || (D.IsFP != 0) != GA.IsFP || D.Lanes.size() != Want)
      return false;
    for (size_t I = 0; I < Want; ++I) {
      if (GA.IsFP) {
        double Got;
        std::memcpy(&Got, &D.Lanes[I], sizeof(Got));
        if (!fpMatches(GA.F[I], Got, G.Tolerance))
          return false;
      } else if (static_cast<int64_t>(D.Lanes[I]) != GA.I[I]) {
        return false;
      }
    }
  }
  return true;
}

uint32_t perfbench::externalElemBytes(const kernels::Kernel &K) {
  uint32_t Max = 0;
  for (const ir::ArrayInfo &AI : K.Source.Arrays)
    if (K.ExternalArrays.count(AI.Name))
      Max = std::max<uint32_t>(Max, ir::scalarSize(AI.Elem));
  return Max;
}

namespace {

/// Lays out \p Module the way Executor::runModule does and fills it.
std::unique_ptr<target::MemoryImage> layoutAndFill(const ReplayCase &C,
                                                   const ir::Function &Module) {
  auto Mem = std::make_unique<target::MemoryImage>();
  for (const ir::ArrayInfo &AI : Module.Arrays)
    Mem->addArray(AI, C.Work->ExternalArrays.count(AI.Name) ? C.Misalign : 0);
  detail::MemFill Fill(*Mem);
  C.Work->fill(Fill);
  return Mem;
}

template <typename Exec> void bindParams(const ReplayCase &C,
                                         const ir::Function &Module, Exec &E) {
  detail::setParams(
      *C.Work, Module,
      [&](const std::string &N, int64_t V) { E.setParamInt(N, V); },
      [&](const std::string &N, double V) { E.setParamFP(N, V); });
}

} // namespace

namespace {

/// One case's replay: the untimed inputs the timed calls need (module,
/// certificate, lowering, runtime knowledge), then timed rounds.
class Replayer {
public:
  explicit Replayer(const ReplayCase &C) : C(C) {
    auto Decoded = bytecode::decode(*C.Bytes);
    if (!Decoded)
      return;
    Module = std::make_unique<ir::Function>(Decoded.take());
    if (!C.ForceScalar) {
      verify::VerifyOptions VO;
      VO.Targets = {C.Target};
      verify::Report Rep = verify::verifyModule(*Module, VO);
      if (Rep.ok() && !Rep.Certificates.empty())
        Cert = std::make_shared<const analysis::SafetyCertificate>(
            std::move(Rep.Certificates.front()));
    }
    std::unique_ptr<target::MemoryImage> Layout = layoutAndFill(C, *Module);
    for (uint32_t A = 0; A < Module->Arrays.size(); ++A) {
      if (C.Work->ExternalArrays.count(Module->Arrays[A].Name))
        RT.Arrays.push_back({false, 0});
      else
        RT.Arrays.push_back({true, Layout->base(A)});
    }
    JO.ForceScalarize = C.ForceScalar;
    CR = jit::compile(*Module, C.Target, RT, JO);
    detail::setParams(
        *C.Work, *Module,
        [&](const std::string &N, int64_t V) { IntVals[N] = V; },
        [](const std::string &, double) {});
  }

  void round() {
    if (!Module)
      return;
    if (C.Vectorized) {
      auto T0 = Clock::now();
      std::vector<uint8_t> B = bytecode::encode(*C.Vectorized);
      Times["encode"].push_back(usSince(T0));
    }
    auto T0 = Clock::now();
    auto D = bytecode::decode(*C.Bytes);
    Times["decode"].push_back(usSince(T0));

    T0 = Clock::now();
    std::unique_ptr<target::MemoryImage> Mem = layoutAndFill(C, *Module);
    Times["layout"].push_back(usSince(T0));

    // The keys a cached run computes: bytes, function, compile, placement.
    T0 = Clock::now();
    uint64_t H = jit::cache::hashBytes(C.Bytes->data(), C.Bytes->size());
    H ^= ir::hashFunction(*Module);
    H ^= jit::cache::compileKey(H, C.Target, JO, RT);
    H ^= jit::cache::hashPlacement(*Mem);
    Times["keys"].push_back(usSince(T0));
    (void)H;

    T0 = Clock::now();
    target::IacaReport Iaca = target::analyzeVectorLoop(CR.Code, C.Target);
    Times["iaca"].push_back(usSince(T0));
    (void)Iaca;

    T0 = Clock::now();
    target::MFunction Copy = CR.Code;
    Times["copy"].push_back(usSince(T0));

    target::ElisionPlan Plan;
    if (Cert) {
      analysis::ParamFn PF = [this](const std::string &N) {
        auto It = IntVals.find(N);
        return It == IntVals.end() ? std::optional<int64_t>()
                                   : std::optional<int64_t>(It->second);
      };
      T0 = Clock::now();
      (void)analysis::checkCertificate(*Module, *Cert);
      const double CertUs = usSince(T0);
      T0 = Clock::now();
      Plan = jit::buildElisionPlan(*Module, Cert.get(), C.Target, *Mem,
                                   target::ElisionMode::On, PF);
      Times["cert"].push_back(CertUs);
      Times["plan"].push_back(std::max(0.0, usSince(T0) - CertUs));
    }
    const target::ElisionPlan *PlanPtr =
        Plan.Mode != target::ElisionMode::Off ? &Plan : nullptr;

    if (C.Native) {
      codegen::NativeOptions NO;
      NO.Plan = PlanPtr;
      T0 = Clock::now();
      auto NU = codegen::compileNative(CR.Code, C.Target, *Mem, NO);
      Times["emit"].push_back(usSince(T0));
      if (!NU.ok())
        return;
      std::shared_ptr<const codegen::NativeUnit> Unit = NU.take();
      T0 = Clock::now();
      codegen::NativeExec E(Unit, *Mem);
      bindParams(C, *Module, E);
      (void)E.run();
      Times["nexec"].push_back(usSince(T0));
      return;
    }
    if (!Prog)
      Prog = target::DecodedProgram::build(CR.Code, C.Target, *Mem,
                                           /*Weak=*/false, /*Fuse=*/true,
                                           PlanPtr);
    T0 = Clock::now();
    target::VM M(Prog, *Mem);
    M.setTrapRecording(true);
    bindParams(C, *Module, M);
    (void)M.run();
    Times["vexec"].push_back(usSince(T0));
  }

  LayerCost cost() {
    LayerCost Out;
    Out.HasCert = Cert != nullptr;
    if (Prog) {
      Out.PreFusionOps = Prog->PreFusionOps;
      Out.FusedOps = Prog->FusedOps;
    }
    auto Med = [&](const char *K) { return median(Times[K]); };
    Out.EncodeUs = Med("encode");
    Out.DecodeUs = Med("decode");
    Out.CertUs = Med("cert");
    Out.PlanUs = Med("plan");
    Out.LayoutFillUs = Med("layout");
    Out.VmExecUs = Med("vexec");
    Out.EmitUs = Med("emit");
    Out.NativeExecUs = Med("nexec");
    Out.CacheKeyUs = Med("keys");
    Out.IacaUs = Med("iaca");
    Out.CopyUs = Med("copy");
    return Out;
  }

private:
  const ReplayCase C;
  std::unique_ptr<ir::Function> Module;
  std::shared_ptr<const analysis::SafetyCertificate> Cert;
  jit::RuntimeInfo RT;
  jit::Options JO;
  jit::CompileResult CR;
  std::map<std::string, int64_t> IntVals;
  std::shared_ptr<const target::DecodedProgram> Prog;
  std::map<std::string, std::vector<double>> Times;
};

} // namespace

std::vector<LayerCost>
perfbench::replayLayers(const std::vector<ReplayCase> &Cases, int Rounds) {
  std::vector<std::unique_ptr<Replayer>> Rs;
  for (const ReplayCase &C : Cases)
    Rs.push_back(std::make_unique<Replayer>(C));
  for (int R = 0; R < Rounds; ++R)
    for (auto &Rp : Rs)
      Rp->round();
  std::vector<LayerCost> Out;
  for (auto &Rp : Rs)
    Out.push_back(Rp->cost());
  return Out;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"vectorizer.self_us", "us"},
      {"vectorizer.vectorized_loop_ratio", "ratio"},
      {"bytecode.encode_us", "us"},
      {"bytecode.decode_us", "us"},
      {"bytecode.module_bytes", "B"},
      {"verify.self_us", "us"},
      {"verify.obligations_per_op", "count"},
      {"analysis.cert_check_us", "us"},
      {"jit.lower_self_us", "us"},
      {"jit.compiles_per_op", "count"},
      {"jit.elision_plan_us", "us"},
      {"jit.checks_elided_per_op", "count"},
      {"jit.cache_hit_ratio", "ratio"},
      {"jit.cache_evictions", "count"},
      {"jit.cache_key_us", "us"},
      {"jit.tiering_promotions", "count"},
      {"jit.tiering_cold_entry_ratio", "ratio"},
      {"jit.tiering_compile_us", "us"},
      {"jit.tiering_queue_wait_us", "us"},
      {"target.predecode_self_us", "us"},
      {"target.vm_exec_us", "us"},
      {"target.vm_ops_dispatched_per_op", "count"},
      {"target.fusion_ratio", "ratio"},
      {"target.iaca_us", "us"},
      {"codegen.emit_us", "us"},
      {"codegen.exec_us", "us"},
      {"codegen.inline_op_ratio", "ratio"},
      {"vapor.layout_fill_us", "us"},
      {"vapor.result_copy_us", "us"},
      {"vapor.best_tier_ratio", "ratio"},
      {"vapor.demotions_per_op", "count"},
      {"vapor.retries_per_op", "count"},
      {"vapor.unattributed_us", "us"},
      {"server.request_encode_us", "us"},
      {"server.response_decode_us", "us"},
      {"server.response_bytes", "B"},
      {"server.exec_us", "us"},
      {"server.outside_exec_us", "us"},
      {"server.rejected_ratio", "ratio"},
      {"server.generator_late_us", "us"},
      {"server.late_send_ratio", "ratio"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.traced_mean_us", "us"},
      {"obs.untraced_mean_us", "us"},
  };
  return M;
}

void perfbench::ledgerNote(Report &R) {
  // Not parts of an op's latency: the exec span is split into the rows
  // inside it, lateness is part of outside_exec, tiering times are per
  // background compile.
  static const std::set<std::string> NotAdditive = {
      "server.exec_us", "server.generator_late_us", "jit.tiering_compile_us",
      "jit.tiering_queue_wait_us", "obs.traced_mean_us",
      "obs.untraced_mean_us"};
  double Sum = 0, Traced = 0, Untraced = 0, Overhead = 0;
  for (const Metric &M : R.Metrics) {
    if (M.Name == "obs.traced_mean_us")
      Traced = M.Value;
    else if (M.Name == "obs.untraced_mean_us")
      Untraced = M.Value;
    else if (M.Name == "obs.trace_overhead_pct")
      Overhead = M.Value;
    else if (M.Unit == "us" && !NotAdditive.count(M.Name))
      Sum += M.Value;
  }
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "ledger: layers + unattributed = %.1f us = traced mean %.1f "
                "us; untraced mean %.1f us; trace overhead %.2f%%",
                Sum, Traced, Untraced, Overhead);
  R.Notes.push_back(Buf);
}

double perfbench::peakRssMb() {
  rusage U{};
  if (::getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}
