//===- perfbench/cpp/KernelFlows.cpp - cold_start and hot_loop ------------===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
// Both workloads walk every (kernel, target, engine, placement) key once
// per pass in a fresh seeded order, one thread, closed loop. cold_start
// clears the code cache before every op, so each op is a first
// invocation and the online stage dominates; hot_loop warms the cache in
// set-up, so the compile layers shrink to cache hits and execution
// dominates.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Generators.h"
#include "HostSpeed.h"
#include "Ledger.h"

#include "bytecode/Bytecode.h"
#include "jit/CodeCache.h"
#include "obs/Obs.h"
#include "target/Target.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

using namespace perfbench;
using namespace vapor;

namespace {

struct FlowState {
  std::vector<kernels::Kernel> Ks;
  std::vector<target::TargetDesc> Ts;
  std::vector<Key> Keys;
  std::vector<Golden> Gold; ///< Per kernel: outputs do not depend on the
                            ///< target, engine or placement.
};

/// Set-up: registry, key set, golden outputs, and (hot_loop) one run of
/// every key so every cache layer holds the key's artifacts.
void setupFlow(FlowState &S, uint64_t Seed, bool Warm) {
  S.Ks = kernels::allKernels();
  S.Ts = target::allTargets();
  std::vector<uint32_t> Ext;
  for (const kernels::Kernel &K : S.Ks)
    Ext.push_back(externalElemBytes(K));
  S.Keys = makeKeys(Seed, Ext, static_cast<uint32_t>(S.Ts.size()));
  S.Gold.clear();
  for (const kernels::Kernel &K : S.Ks)
    S.Gold.push_back(computeGolden(K, /*ServerFill=*/false));
  jit::cache::clear();
  if (Warm)
    for (const Key &Ky : S.Keys) {
      RunOptions O;
      O.Target = S.Ts[Ky.Target];
      O.UseNative = Ky.Native;
      O.ExternalMisalign = Ky.Misalign;
      (void)runKernel(S.Ks[Ky.Kernel], Flow::SplitVectorized, O);
    }
}

RunOptions optionsFor(const FlowState &S, const Key &Ky) {
  RunOptions O;
  O.Target = S.Ts[Ky.Target];
  O.UseNative = Ky.Native;
  O.ExternalMisalign = Ky.Misalign;
  return O;
}

struct OpRec {
  uint32_t KeyIdx = 0;
  double Us = 0;
  bool Ok = false;
  ExecTier Tier = ExecTier::Vectorized;
  uint32_t Demotions = 0;
  uint32_t Retries = 0;
  uint64_t Cycles = 0;
  uint64_t BytecodeBytes = 0;
  uint64_t LoopsVectorized = 0;
  uint64_t Loops = 0;
  uint64_t Elided = 0;
  uint64_t InlineOps = 0;
  uint64_t HelperOps = 0;
  bool ModuleMiss = false;
  bool NativeMiss = false;
  double SliceUs = 0; ///< Reference slice time around the op.
};

struct Phase {
  std::vector<OpRec> Ops; ///< Pass after pass, Keys.size() ops each.
  std::vector<double> PassSec; ///< Wall time of each pass, slices excluded.
  std::vector<obs::Event> Events; ///< Traced phases only.
  std::vector<double> PassSliceUs; ///< Mean reference slice per pass.
  jit::cache::Stats CacheBefore, CacheAfter;
  std::map<std::string, uint64_t> CounterDelta;
};

const char *const PhaseCounters[] = {
    "vm.ops_dispatched", "jit.compiles", "verify.obligations_proved",
    "verify.obligations_failed"};

uint64_t mix(uint64_t H, uint64_t V) {
  return (H ^ V) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}

/// Ops between reference slices (HostSpeed.h): at about 1 ms an op on
/// cold_start, a 0.7-ms slice every 24 ops costs 3% of the phase and
/// follows the host's speed switches, which come seconds apart.
constexpr size_t OpsPerSlice = 24;

/// Passes per statistics block: 6 passes hold 2160 ops, so a block's p99
/// has over twenty samples beyond it and is not set by one stalled op.
constexpr size_t PassesPerBlock = 6;

/// Whole passes until \p Seconds have elapsed, so every phase runs the
/// same key mix. \p AfterBlock, if set, runs after every PassesPerBlock
/// passes, outside the passes' timing.
Phase runPhase(const FlowState &S, uint64_t Seed, double Seconds, bool Cold,
               bool Traced, uint64_t &Pass, uint64_t &OpId, Report &R,
               const std::function<void()> &AfterBlock = {}) {
  Phase P;
  std::map<std::string, uint64_t> C0;
  for (const char *N : PhaseCounters)
    C0[N] = obs::counterValue(N);
  P.CacheBefore = jit::cache::stats();
  std::unique_ptr<obs::TraceSink> Sink;
  if (Traced)
    Sink = std::make_unique<obs::TraceSink>("", size_t(1) << 22);

  // Slices[k] runs just before op k * OpsPerSlice; one more closes the
  // phase, so every op lies between two slices.
  std::vector<double> Slices;
  const auto Start = Clock::now();
  do {
    const auto PassStart = Clock::now();
    const std::vector<uint32_t> Order = passOrder(Seed, Pass++, S.Keys.size());
    double PassSlices = 0;
    for (uint32_t KI : Order) {
      if (P.Ops.size() % OpsPerSlice == 0) {
        Slices.push_back(referenceSliceUs());
        PassSlices += Slices.back();
      }
      const Key &Ky = S.Keys[KI];
      const kernels::Kernel &K = S.Ks[Ky.Kernel];
      const RunOptions O = optionsFor(S, Ky);
      if (Cold)
        jit::cache::clear();
      jit::cache::Stats Before;
      if (Traced)
        Before = jit::cache::stats();
      OpRec Rec;
      Rec.KeyIdx = KI;
      RunOutcome Out;
      {
        std::optional<obs::Span> Root;
        if (Traced) {
          Root.emplace("bench", "op");
          Root->arg("op", OpId);
        }
        const auto T0 = Clock::now();
        Out = runKernel(K, Flow::SplitVectorized, O);
        Rec.Us = usSince(T0);
      }
      ++OpId;
      if (Traced) {
        jit::cache::Stats After = jit::cache::stats();
        Rec.ModuleMiss = After.ModuleMisses > Before.ModuleMisses;
        Rec.NativeMiss = After.NativeMisses > Before.NativeMisses;
      }
      // A terminal failure is a failed op; only wrong output makes the
      // run incorrect.
      Rec.Ok = Out.Terminal.ok() && Out.Mem;
      const bool Wrong = Rec.Ok && !matchesGolden(S.Gold[Ky.Kernel], *Out.Mem);
      if (!Rec.Ok || Wrong) {
        Rec.Ok = false;
        ++R.Failed;
        R.Correct = R.Correct && !Wrong;
        R.Notes.push_back(std::string(Wrong ? "MISMATCH " : "FAILED ") +
                          K.Name + " " + O.Target.Name +
                          (Ky.Native ? " native" : " vm") + " misalign " +
                          std::to_string(Ky.Misalign) + " tier " +
                          tierName(Out.Tier));
      }
      Rec.Tier = Out.Tier;
      Rec.Demotions = static_cast<uint32_t>(Out.Demotions.size());
      Rec.Retries = Out.Retries;
      Rec.Cycles = Out.Cycles;
      Rec.BytecodeBytes = Out.BytecodeBytes;
      for (const vectorizer::LoopReport &L : Out.LoopDecisions) {
        ++Rec.Loops;
        Rec.LoopsVectorized += L.Vectorized ? 1 : 0;
      }
      Rec.Elided = Out.AlignElided + Out.BoundsElided;
      Rec.InlineOps = Out.NativeCode.InlineOps;
      Rec.HelperOps = Out.NativeCode.HelperOps;
      P.Ops.push_back(Rec);
    }
    P.PassSec.push_back((usSince(PassStart) - PassSlices) / 1e6);
    if (AfterBlock && P.PassSec.size() % PassesPerBlock == 0)
      AfterBlock();
  } while (usSince(Start) < Seconds * 1e6);

  Slices.push_back(referenceSliceUs());
  for (size_t I = 0; I < P.Ops.size(); ++I) {
    const size_t K = I / OpsPerSlice;
    P.Ops[I].SliceUs = 0.5 * (Slices[K] + Slices[K + 1]);
  }
  for (size_t Pass = 0; Pass < P.PassSec.size(); ++Pass) {
    std::vector<double> In;
    for (size_t I = Pass * S.Keys.size(); I < (Pass + 1) * S.Keys.size(); ++I)
      In.push_back(P.Ops[I].SliceUs);
    P.PassSliceUs.push_back(mean(In));
  }

  if (Sink) {
    P.Events = Sink->events();
    Sink.reset();
  }
  P.CacheAfter = jit::cache::stats();
  for (const char *N : PhaseCounters)
    P.CounterDelta[N] = obs::counterValue(N) - C0[N];
  R.Attempted += P.Ops.size();
  return P;
}

bool bestTier(const Key &Ky, ExecTier T) {
  return T == (Ky.Native ? ExecTier::Native : ExecTier::Vectorized);
}

void addMetric(Report &R, const std::string &Name, double V,
               const std::string &Unit, uint64_t N) {
  R.Metrics.push_back({Name, V, Unit, N});
}

/// End-to-end metrics of an untraced phase. Wall times are scaled to the
/// nominal host (HostSpeed.h); the unscaled ones are printed as wall_*.
void endToEnd(const FlowState &S, const Phase &P, const Setups &Setup,
              Report &R) {
  const size_t NumBlocks =
      std::max<size_t>(1, P.PassSec.size() / PassesPerBlock);
  std::vector<std::vector<double>> BlockLat(NumBlocks), WallLat(NumBlocks);
  std::vector<double> BlockSec(NumBlocks), WallSec(NumBlocks);
  for (size_t Pass = 0; Pass < P.PassSec.size(); ++Pass) {
    const size_t B = std::min(NumBlocks - 1, Pass / PassesPerBlock);
    BlockSec[B] += atNominal(P.PassSec[Pass], P.PassSliceUs[Pass]);
    WallSec[B] += P.PassSec[Pass];
  }
  std::map<uint32_t, uint64_t> KeyCycles;
  std::set<std::pair<uint32_t, uint64_t>> Modules;
  std::vector<double> SliceUs;
  uint64_t Inconsistent = 0, Ok = 0;
  for (size_t I = 0; I < P.Ops.size(); ++I) {
    const OpRec &O = P.Ops[I];
    if (I % OpsPerSlice == 0)
      SliceUs.push_back(O.SliceUs);
    if (!O.Ok)
      continue;
    ++Ok;
    const size_t B = std::min(NumBlocks - 1, I / S.Keys.size() / PassesPerBlock);
    BlockLat[B].push_back(atNominal(O.Us, O.SliceUs));
    WallLat[B].push_back(O.Us);
    if (O.Cycles) {
      auto Ins = KeyCycles.emplace(O.KeyIdx, O.Cycles);
      Inconsistent += !Ins.second && Ins.first->second != O.Cycles;
    }
    Modules.insert({S.Keys[O.KeyIdx].Kernel, O.BytecodeBytes});
  }
  // Every pass runs every key once, so the geomean over keys (in key
  // order) equals the geomean over ops and repeats bit for bit.
  std::vector<double> Cyc;
  for (const auto &KV : KeyCycles)
    Cyc.push_back(static_cast<double>(KV.second));
  uint64_t Bytes = 0;
  for (const auto &M : Modules)
    Bytes += M.second;
  const BlockStats B = blockStats(BlockLat, BlockSec);
  addMetric(R, "latency_us_p50", B.P50, "us", Ok);
  addMetric(R, "latency_us_p85", B.P85, "us", Ok);
  addMetric(R, "latency_us_p90", B.P90, "us", Ok);
  addMetric(R, "latency_us_p99", B.P99, "us", Ok);
  addMetric(R, "latency_us_geomean", B.Geomean, "us", Ok);
  addMetric(R, "ops_per_s", B.Rate, "1/s", Ok);
  const BlockStats W = blockStats(WallLat, WallSec);
  addMetric(R, "wall_latency_us_p50", W.P50, "us", Ok);
  addMetric(R, "wall_latency_us_p85", W.P85, "us", Ok);
  addMetric(R, "wall_latency_us_geomean", W.Geomean, "us", Ok);
  addMetric(R, "wall_ops_per_s", W.Rate, "1/s", Ok);
  addMetric(R, "host_slice_us", median(SliceUs), "us", SliceUs.size());
  R.Notes.push_back("statistics: median over " + std::to_string(B.Blocks) +
                    " blocks of " + std::to_string(PassesPerBlock) +
                    " passes");
  addMetric(R, "fail_ratio",
            P.Ops.empty() ? 0.0 : double(P.Ops.size() - Ok) / P.Ops.size(),
            "ratio", P.Ops.size());
  addMetric(R, "peak_rss_mb", peakRssMb(), "MiB", 1);
  addMetric(R, "modeled_cycles_geomean", geomean(Cyc), "cycles", Cyc.size());
  addMetric(R, "bytecode_bytes", static_cast<double>(Bytes), "B",
            Modules.size());
  addMetric(R, "setup_s", median(Setup.Nominal), "s", Setup.Nominal.size());
  addMetric(R, "wall_setup_s", median(Setup.Wall), "s", Setup.Wall.size());
  if (Inconsistent)
    R.Notes.push_back("WARNING " + std::to_string(Inconsistent) +
                      " ops disagreed with their key's modeled cycles");
}

/// The per-layer ledger of a traced phase, checked against \p Untraced.
void perLayer(const FlowState &S, const Phase &P, const Phase &Untraced,
              Report &R) {
  // Replay each key once the sink is gone: the layers without a span.
  std::map<uint32_t, vectorizer::Result> VR;
  std::map<uint32_t, std::vector<uint8_t>> Bytes;
  std::set<uint32_t> Ran;
  for (const OpRec &O : P.Ops)
    Ran.insert(O.KeyIdx);
  std::vector<ReplayCase> Cases;
  for (uint32_t KI : Ran) {
    const Key &Ky = S.Keys[KI];
    if (!VR.count(Ky.Kernel)) {
      VR.emplace(Ky.Kernel, vectorizer::vectorize(S.Ks[Ky.Kernel].Source, {}));
      Bytes[Ky.Kernel] = bytecode::encode(VR.at(Ky.Kernel).Output);
    }
    ReplayCase C;
    C.Work = &S.Ks[Ky.Kernel];
    C.Vectorized = &VR.at(Ky.Kernel).Output;
    C.Bytes = &Bytes.at(Ky.Kernel);
    C.Target = S.Ts[Ky.Target];
    C.Misalign = Ky.Misalign;
    C.Native = Ky.Native;
    Cases.push_back(C);
  }
  const std::vector<LayerCost> Costs = replayLayers(Cases);
  std::map<uint32_t, LayerCost> Cost;
  size_t CaseIdx = 0;
  for (uint32_t KI : Ran)
    Cost[KI] = Costs[CaseIdx++];

  const std::map<std::string, OpLedger> Ledger =
      attributeSpans(P.Events, "bench", "op", "op");
  uint64_t FirstOp = 0;
  // Ops were numbered consecutively; recover the first id of the phase.
  if (!Ledger.empty()) {
    FirstOp = UINT64_MAX;
    for (const auto &KV : Ledger)
      FirstOp = std::min<uint64_t>(FirstOp, std::stoull(KV.first));
  }

  std::map<std::string, double> Sum;
  uint64_t Loops = 0, LoopsVec = 0, ModBytes = 0, Elided = 0, Inline = 0,
           Helper = 0, Best = 0, Demos = 0, Retries = 0, PreF = 0, Fused = 0,
           Missing = 0, N = 0;
  for (size_t I = 0; I < P.Ops.size(); ++I) {
    const OpRec &O = P.Ops[I];
    const Key &Ky = S.Keys[O.KeyIdx];
    const LayerCost &LC = Cost.at(O.KeyIdx);
    auto It = Ledger.find(std::to_string(FirstOp + I));
    if (It == Ledger.end()) {
      ++Missing;
      continue;
    }
    ++N;
    const OpLedger &L = It->second;
    const bool Native = O.Tier == ExecTier::Native;
    const bool Planned = LC.HasCert && (Native || O.Tier == ExecTier::Vectorized);
    std::map<std::string, double> Op = {
        {"vectorizer.self_us", L.self("vectorizer/vectorize")},
        {"bytecode.encode_us", LC.EncodeUs},
        {"bytecode.decode_us", O.ModuleMiss ? LC.DecodeUs : 0},
        {"verify.self_us", L.self("verify/verifyModule")},
        {"analysis.cert_check_us", Planned ? LC.CertUs : 0},
        {"jit.lower_self_us", L.self("jit/compile")},
        {"jit.elision_plan_us", Planned ? LC.PlanUs : 0},
        {"target.predecode_self_us", L.self("vm/decode+fuse")},
        {"target.vm_exec_us", Native ? 0 : LC.VmExecUs},
        {"codegen.emit_us", O.NativeMiss ? LC.EmitUs : 0},
        {"codegen.exec_us", Native ? LC.NativeExecUs : 0},
        {"vapor.layout_fill_us", LC.LayoutFillUs},
        {"jit.cache_key_us", LC.CacheKeyUs},
        {"target.iaca_us", LC.IacaUs},
        {"vapor.result_copy_us", LC.CopyUs},
    };
    double Named = 0;
    for (const auto &KV : Op) {
      Sum[KV.first] += KV.second;
      Named += KV.second;
    }
    Sum["vapor.unattributed_us"] += L.TotalUs - Named;
    Sum["obs.traced_mean_us"] += L.TotalUs;
    Loops += O.Loops;
    LoopsVec += O.LoopsVectorized;
    ModBytes += O.BytecodeBytes;
    Elided += O.Elided;
    Inline += O.InlineOps;
    Helper += O.HelperOps;
    Best += bestTier(Ky, O.Tier) ? 1 : 0;
    Demos += O.Demotions;
    Retries += O.Retries;
    if (!Native) {
      PreF += LC.PreFusionOps;
      Fused += LC.FusedOps;
    }
  }
  if (Missing)
    R.Notes.push_back("WARNING " + std::to_string(Missing) +
                      " traced ops had no root span");

  const double Ops = static_cast<double>(P.Ops.size());
  auto ratio = [](uint64_t A, uint64_t B) {
    return B ? static_cast<double>(A) / static_cast<double>(B) : 0.0;
  };
  const jit::cache::Stats &A = P.CacheBefore, &B = P.CacheAfter;
  const uint64_t Hits = (B.ModuleHits - A.ModuleHits) +
                        (B.VerifyHits - A.VerifyHits) +
                        (B.CompileHits - A.CompileHits) +
                        (B.ProgramHits - A.ProgramHits) +
                        (B.NativeHits - A.NativeHits);
  const uint64_t Misses = (B.ModuleMisses - A.ModuleMisses) +
                          (B.VerifyMisses - A.VerifyMisses) +
                          (B.CompileMisses - A.CompileMisses) +
                          (B.ProgramMisses - A.ProgramMisses) +
                          (B.NativeMisses - A.NativeMisses);
  std::vector<double> UntracedLat;
  for (const OpRec &O : Untraced.Ops)
    UntracedLat.push_back(O.Us);
  const double UntracedMean = mean(UntracedLat);
  const double TracedMean = N ? Sum["obs.traced_mean_us"] / N : 0;

  std::map<std::string, double> V;
  for (const auto &KV : Sum)
    V[KV.first] = N ? KV.second / N : 0;
  V["vectorizer.vectorized_loop_ratio"] = ratio(LoopsVec, Loops);
  V["bytecode.module_bytes"] = ratio(ModBytes, P.Ops.size());
  V["verify.obligations_per_op"] =
      ratio(P.CounterDelta.at("verify.obligations_proved") +
                P.CounterDelta.at("verify.obligations_failed"),
            P.Ops.size());
  V["jit.compiles_per_op"] = ratio(P.CounterDelta.at("jit.compiles"), P.Ops.size());
  V["jit.checks_elided_per_op"] = ratio(Elided, P.Ops.size());
  V["jit.cache_hit_ratio"] = ratio(Hits, Hits + Misses);
  V["jit.cache_evictions"] = static_cast<double>(B.Evictions - A.Evictions);
  V["target.vm_ops_dispatched_per_op"] =
      ratio(P.CounterDelta.at("vm.ops_dispatched"), P.Ops.size());
  V["target.fusion_ratio"] = ratio(Fused, PreF);
  V["codegen.inline_op_ratio"] = ratio(Inline, Inline + Helper);
  V["vapor.best_tier_ratio"] = ratio(Best, P.Ops.size());
  V["vapor.demotions_per_op"] = ratio(Demos, P.Ops.size());
  V["vapor.retries_per_op"] = ratio(Retries, P.Ops.size());
  V["obs.untraced_mean_us"] = UntracedMean;
  V["obs.traced_mean_us"] = TracedMean;
  V["obs.trace_overhead_pct"] =
      UntracedMean > 0 ? 100.0 * (TracedMean - UntracedMean) / UntracedMean : 0;
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    auto It = V.find(Name);
    addMetric(R, Name, It == V.end() ? 0.0 : It->second, Unit,
              static_cast<uint64_t>(Ops));
  }

  // Exact per-key counts of the keys whose placement no seed changes:
  // two runs agree on this digest whatever their seeds.
  std::map<uint32_t, uint64_t> PerKey;
  for (const OpRec &O : P.Ops) {
    const Key &Ky = S.Keys[O.KeyIdx];
    if (externalElemBytes(S.Ks[Ky.Kernel]))
      continue;
    uint64_t H = mix(mix(mix(0, O.Cycles), O.BytecodeBytes), O.Elided);
    H = mix(mix(H, O.LoopsVectorized), O.InlineOps);
    PerKey[O.KeyIdx] = H;
  }
  uint64_t Digest = 0;
  for (const auto &KV : PerKey)
    Digest = mix(mix(Digest, KV.first), KV.second);
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "per-key-digest %016llx",
                static_cast<unsigned long long>(Digest));
  R.Notes.push_back(Buf);
}

} // namespace

void perfbench::runKernelFlow(const Config &C, bool Cold, Report &R) {
  FlowState S;
  // Set-up is repeated and its median reported: one set-up is a few
  // hundred milliseconds, too short to ride out host swings. Host speed
  // also drifts over tens of seconds, so the untraced cold_start run sets
  // up once more after every block of passes (a set-up there leaves the
  // same state: the next op clears the cache anyway). hot_loop's set-up
  // warms every key, too long to repeat between blocks: 7 before the run.
  Setups Setup;
  auto setUp = [&] {
    Setup.time([&] { setupFlow(S, C.Seed, /*Warm=*/!Cold); });
  };
  for (int I = 0, E = C.Trace || Cold ? 1 : 7; I < E; ++I)
    setUp();

  uint64_t Pass = 0, OpId = 0;
  if (!C.Trace) {
    Phase P = runPhase(S, C.Seed, C.Seconds, Cold, false, Pass, OpId, R,
                       Cold ? std::function<void()>(setUp) : nullptr);
    endToEnd(S, P, Setup, R);
    return;
  }
  // Traced run: an untraced half, then a traced half of the same mix;
  // their mean latencies give the tracing overhead.
  Phase U = runPhase(S, C.Seed, C.Seconds / 2, Cold, false, Pass, OpId, R);
  Phase T = runPhase(S, C.Seed, C.Seconds / 2, Cold, true, Pass, OpId, R);
  perLayer(S, T, U, R);
  ledgerNote(R);
  uint64_t Digest = 0;
  for (uint32_t KI : passOrder(C.Seed, 0, S.Keys.size()))
    Digest = mix(Digest, KI);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "order-digest %016llx",
                static_cast<unsigned long long>(Digest));
  R.Notes.push_back(Buf);
}
