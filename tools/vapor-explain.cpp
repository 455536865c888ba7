//===- tools/vapor-explain.cpp - End-to-end decision report CLI -----------===//
//
// Part of the Vapor SIMD reproduction.
//
// Usage:
//   vapor-explain <kernel> [target] [--tier weak|strong] [--native]
//                 [--trace <path>]
//
// Prints the human-readable end-to-end decision report for one kernel:
// what the offline vectorizer decided per loop and why (strategy,
// versioning, peeling, reductions, dependence VF cap), the bytecode
// interchange sizes, the verifier's proof-obligation summary, and — per
// target — the online compiler's strategy record (memory lowering mix,
// guard folds, resolved VF), the code-cache traffic, the executed tier of
// the fault-tolerant chain, and the modeled cycle cost. With --native the
// chain enters at the Native tier and the report adds the host CPU
// feature probe, the encoding set the emitter actually used, and the
// per-MachineIR-op split between inline x86-64 and calls into the VM's
// handlers (from RunOutcome::NativeCode). Everything comes
// from the same structured records the pipeline itself acts on
// (vectorizer::LoopReport, verify::Report, jit::StrategyStats,
// RunOutcome), not from parsing logs, so the report cannot drift from the
// implementation.
//
// --trace additionally writes a Chrome-trace JSON of the explained runs.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "codegen/NativeJit.h"
#include "jit/CodeCache.h"
#include "jit/Tiering.h"
#include "kernels/Kernels.h"
#include "obs/Obs.h"
#include "target/Iaca.h"
#include "target/Target.h"
#include "vapor/Executor.h"
#include "vapor/Pipeline.h"
#include "vapor/Sweep.h"
#include "vectorizer/Vectorizer.h"
#include "verify/Verify.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace vapor;

namespace {

int usage() {
  std::printf("usage: vapor-explain <kernel> [target] [--tier weak|strong] "
              "[--native] [--elide on|off|audit] [--tiered] "
              "[--trace <path>]\n");
  return 2;
}

const char *tierNameRaw(uint8_t T) {
  return T == jit::tiering::NoTier ? "none"
                                   : tierName(static_cast<ExecTier>(T));
}

/// The --tiered addendum: drive the kernel through the hotness engine run
/// by run (draining the background queue between invocations so the
/// timeline is deterministic) and print the engine's own transition
/// record for the key -- the same KeyReport the tests assert on.
void printTieredTimeline(const kernels::Kernel &K,
                         const target::TargetDesc &T, jit::Tier Tier,
                         bool Native, target::ElisionMode Elide) {
  std::printf("\n== Tiered promotion timeline: %s ==\n", T.Name.c_str());
  RunOptions O;
  O.Target = T;
  O.Tier = Tier;
  O.UseNative = Native;
  O.Elide = Elide;
  O.Tiered = true;
  O.TieringSalt = std::hash<std::string>{}("explain:" + T.Name);

  jit::tiering::Config C = jit::tiering::engine().config();
  std::printf("  thresholds: vectorized at %llu invocations, native at "
              "%llu%s\n",
              static_cast<unsigned long long>(C.HotVectorized),
              static_cast<unsigned long long>(C.HotNative),
              Native ? "" : " (native tier not requested)");
  const ExecTier Best = Native ? ExecTier::Native : ExecTier::Vectorized;
  const unsigned Runs = (Native ? C.HotNative : C.HotVectorized) + 4;
  for (unsigned R = 1; R <= Runs; ++R) {
    RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
    std::printf("  run %2u: entered %-14s executed %-14s %llu cycles\n", R,
                tierName(Out.EntryTier), tierName(Out.Tier),
                static_cast<unsigned long long>(Out.Cycles));
    jit::tiering::engine().drain(); // Promotions land before the next run.
    if (Out.EntryTier == Best)
      break;
  }

  uint64_t Key = Executor(K, O).tieringKey();
  auto Rep = jit::tiering::engine().keyReport(Key);
  if (!Rep) {
    std::printf("  (no hotness row for this key)\n");
    return;
  }
  std::printf("  hotness key %016llx: %llu invocations, ready tier %s, "
              "pin %s%s\n",
              static_cast<unsigned long long>(Rep->Key),
              static_cast<unsigned long long>(Rep->Invocations),
              tierNameRaw(Rep->ReadyTier), tierNameRaw(Rep->PinTier),
              Rep->CompileInFlight ? ", compile in flight" : "");
  for (const jit::tiering::TransitionEvent &Ev : Rep->Events) {
    switch (Ev.What) {
    case jit::tiering::TransitionEvent::Promoted:
      std::printf("    at invocation %llu: promoted entry %s -> %s "
                  "(queued %.0f us, compiled %.0f us off-thread)\n",
                  static_cast<unsigned long long>(Ev.AtInvocation),
                  tierNameRaw(Ev.FromTier), tierNameRaw(Ev.ToTier),
                  Ev.QueueWaitMicros, Ev.CompileMicros);
      break;
    case jit::tiering::TransitionEvent::CompileFailed:
      std::printf("    at invocation %llu: background compile FAILED; "
                  "pinned at %s (queued %.0f us, compiled %.0f us)\n",
                  static_cast<unsigned long long>(Ev.AtInvocation),
                  tierNameRaw(Ev.ToTier), Ev.QueueWaitMicros,
                  Ev.CompileMicros);
      break;
    case jit::tiering::TransitionEvent::Demoted:
      std::printf("    at invocation %llu: run demoted; pinned at %s "
                  "(was ready at %s)\n",
                  static_cast<unsigned long long>(Ev.AtInvocation),
                  tierNameRaw(Ev.ToTier), tierNameRaw(Ev.FromTier));
      break;
    }
  }
  if (Rep->Events.empty())
    std::printf("    (no transitions recorded)\n");
}

/// The proof-carrying elision record: what the checker granted against
/// this placement and what each certified access decided.
void printElisionReport(const RunOutcome &Out) {
  std::printf("  check elision: mode %s — %u align + %u bounds checks "
              "elided, %u kept, %u facts rejected\n",
              target::elisionModeName(Out.ElideMode), Out.AlignElided,
              Out.BoundsElided, Out.ChecksKept, Out.ElideFactsRejected);
  if (!Out.ElideCheckerError.empty())
    std::printf("    checker rejected certificate: %s\n",
                Out.ElideCheckerError.c_str());
  for (const std::string &D : Out.ElideDecisions)
    std::printf("    %s\n", D.c_str());
  if (Out.ElideMode == target::ElisionMode::Audit)
    std::printf("    audit: %llu align + %llu bounds would-have-fired\n",
                static_cast<unsigned long long>(Out.AuditAlignFired),
                static_cast<unsigned long long>(Out.AuditBoundsFired));
}

/// The --native addendum: which encodings the emitter picked and how much
/// of the MachineIR stayed inline vs runs on the VM's handlers.
void printNativeReport(const RunOutcome &Out) {
  if (Out.Tier != ExecTier::Native) {
    std::printf("  native code: none (tier demoted before native ran)\n");
    return;
  }
  const codegen::NativeStats &N = Out.NativeCode;
  std::printf("  native code: %llu bytes for %llu MachineIR instrs "
              "(encoding set: %s)\n",
              static_cast<unsigned long long>(N.CodeBytes),
              static_cast<unsigned long long>(N.MInstrs),
              N.FeaturesUsed.c_str());
  std::printf("  lowering split: %llu inline x86-64, %llu VM handler "
              "calls, %llu packed SIMD chunks (%llu 256-bit VEX)\n",
              static_cast<unsigned long long>(N.InlineOps),
              static_cast<unsigned long long>(N.HelperOps),
              static_cast<unsigned long long>(N.PackedOps),
              static_cast<unsigned long long>(N.VexChunks));
  for (unsigned I = 0; I < codegen::NumMOps; ++I) {
    uint32_t Inl = N.InlineByOp[I], Hlp = N.HelperByOp[I];
    if (!Inl && !Hlp)
      continue;
    std::printf("    %-10s %5u inline, %5u VM handler\n",
                target::mopMnemonic(static_cast<target::MOp>(I)), Inl, Hlp);
  }
}

void printLoopDecision(const vectorizer::LoopReport &L) {
  if (!L.Vectorized) {
    std::printf("  loop %u: NOT vectorized — %s\n", L.SrcLoop,
                L.Reason.c_str());
    return;
  }
  std::printf("  loop %u: vectorized (%s)\n", L.SrcLoop, L.Strategy.c_str());
  if (L.MinElemBytes)
    std::printf("    VF: symbolic — each target resolves VSBytes / %uB "
                "(smallest vector element)\n",
                L.MinElemBytes);
  std::printf("    alignment versioning: %s\n",
              L.Versioned ? "yes (guarded aligned fast path + fall-back)"
                          : "no");
  std::printf("    loop peeling: %s\n",
              L.Peeled ? "yes (fall-back peels to align the store)" : "no");
  if (L.Reductions)
    std::printf("    reductions vectorized: %u\n", L.Reductions);
  if (L.MaxReductions)
    std::printf("    horizontal-max epilogues: %u (striped-DP reduc_max "
                "collapse)\n",
                L.MaxReductions);
  if (L.SatOps)
    std::printf("    saturating ops vectorized: %u (clamping lanes, "
                "never combined across partial accumulators)\n",
                L.SatOps);
  if (L.MaxSafeVF)
    std::printf("    dependence limit: VF <= %lld (maxvf hint)\n",
                static_cast<long long>(L.MaxSafeVF));
}

void explainOnTarget(const kernels::Kernel &K, const target::TargetDesc &T,
                     jit::Tier Tier, bool Native,
                     target::ElisionMode Elide) {
  std::printf("\n== Online stage: %s (%s tier) ==\n", T.Name.c_str(),
              Tier == jit::Tier::Strong ? "strong" : "weak");
  if (T.VSBytes)
    std::printf("  target: %uB vectors, misaligned loads %s, permute "
                "realignment %s\n",
                T.VSBytes, T.HasMisaligned ? "yes" : "no",
                T.HasPermRealign ? "yes" : "no");
  else
    std::printf("  target: no SIMD (vector bytecode is scalar-expanded)\n");

  jit::cache::Stats Before = jit::cache::stats();
  RunOptions O;
  O.Target = T;
  O.Tier = Tier;
  O.UseNative = Native;
  O.Elide = Elide;
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  jit::cache::Stats After = jit::cache::stats();

  const jit::StrategyStats S =
      Out.Compiled ? Out.Compiled->Strategy : jit::StrategyStats{};
  std::printf("  JIT strategy: %u aligned, %u unaligned, %u permute, "
              "%u scalar memory accesses\n",
              S.MemAligned, S.MemUnaligned, S.MemPerm, S.MemScalar);
  std::printf("  version guards: %u folded taken, %u folded not-taken, "
              "%u left as runtime checks\n",
              S.GuardsFoldedTrue, S.GuardsFoldedFalse, S.GuardsRuntime);
  for (const vectorizer::LoopReport &L : Out.LoopDecisions)
    if (L.Vectorized && L.MinElemBytes && T.VSBytes)
      std::printf("  loop %u resolved VF: %u lanes (%uB / %uB)\n", L.SrcLoop,
                  T.VSBytes / L.MinElemBytes, T.VSBytes, L.MinElemBytes);
  if (Out.Scalarized)
    std::printf("  lowering: scalarized end-to-end on this target\n");
  printElisionReport(Out);
  std::printf("  compile time: %.1f us; code cache this run: %llu hits, "
              "%llu misses\n",
              Out.CompileMicros,
              static_cast<unsigned long long>(After.hits() - Before.hits()),
              static_cast<unsigned long long>(After.misses() -
                                              Before.misses()));

  std::printf("\n== Execution: %s ==\n", T.Name.c_str());
  std::printf("  executed tier: %s%s\n", tierName(Out.Tier),
              Out.Demotions.empty() ? " (no demotions)" : "");
  for (const status::Status &D : Out.Demotions)
    std::printf("  demotion: %s\n", D.str().c_str());
  if (Out.Retries)
    std::printf("  deoptimizing retries: %u\n", Out.Retries);
  if (Native)
    printNativeReport(Out);
  std::printf("  modeled cycles: %llu\n",
              static_cast<unsigned long long>(Out.Cycles));
  target::IacaReport Iaca;
  if (Out.Compiled)
    Iaca = target::analyzeVectorLoop(Out.Compiled->Code, T);
  if (Iaca.Found)
    std::printf("  vector loop (IACA-style): %llu cycles/iter, %u loads, "
                "%u stores, %u ALU ops\n",
                static_cast<unsigned long long>(Iaca.Cycles), Iaca.Loads,
                Iaca.Stores, Iaca.AluOps);

  std::string Err;
  std::printf("  golden check: %s\n",
              checkAgainstGolden(K, Out, Err) ? "match" : Err.c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string KernelName, TargetName;
  jit::Tier Tier = jit::Tier::Strong;
  bool Native = false;
  bool Tiered = false;
  target::ElisionMode Elide = target::ElisionMode::On;
  const char *TracePath = nullptr;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--tier") && I + 1 < argc) {
      ++I;
      if (!std::strcmp(argv[I], "weak"))
        Tier = jit::Tier::Weak;
      else if (!std::strcmp(argv[I], "strong"))
        Tier = jit::Tier::Strong;
      else {
        std::printf("unknown tier '%s'\n", argv[I]);
        return usage();
      }
    } else if (!std::strcmp(argv[I], "--elide") && I + 1 < argc) {
      ++I;
      if (!std::strcmp(argv[I], "on"))
        Elide = target::ElisionMode::On;
      else if (!std::strcmp(argv[I], "off"))
        Elide = target::ElisionMode::Off;
      else if (!std::strcmp(argv[I], "audit"))
        Elide = target::ElisionMode::Audit;
      else {
        std::printf("unknown elision mode '%s'\n", argv[I]);
        return usage();
      }
    } else if (!std::strcmp(argv[I], "--native"))
      Native = true;
    else if (!std::strcmp(argv[I], "--tiered"))
      Tiered = true;
    else if (!std::strcmp(argv[I], "--trace") && I + 1 < argc)
      TracePath = argv[++I];
    else if (argv[I][0] == '-') {
      std::printf("unknown option '%s'\n", argv[I]);
      return usage();
    } else if (KernelName.empty())
      KernelName = argv[I];
    else if (TargetName.empty())
      TargetName = argv[I];
    else
      return usage();
  }
  if (KernelName.empty())
    return usage();

  std::vector<kernels::Kernel> Ks = kernels::allKernels();
  std::vector<target::TargetDesc> Ts = target::allTargets();
  const kernels::Kernel *K = sweep::kernelByNameOrNull(Ks, KernelName);
  if (!K) {
    std::printf("unknown kernel '%s'\n", KernelName.c_str());
    return 2;
  }
  if (!TargetName.empty()) {
    const target::TargetDesc *T = sweep::targetByNameOrNull(Ts, TargetName);
    if (!T) {
      std::printf("unknown target '%s'\n", TargetName.c_str());
      return 2;
    }
    Ts = {*T};
  }

  std::unique_ptr<obs::TraceSink> Sink;
  if (TracePath)
    Sink = std::make_unique<obs::TraceSink>(TracePath);

  std::printf("vapor-explain: %s (suite: %s)\n", K->Name.c_str(),
              K->Suite.c_str());
  if (Native)
    std::printf("native tier requested: host CPU features %s (%s)\n",
                codegen::hostFeatures().str().c_str(),
                codegen::supported() ? "supported"
                                     : "unsupported; will demote to the VM");

  // --- Offline stage: target-independent, runs once. ---
  std::printf("\n== Offline stage (vectorize once) ==\n");
  vectorizer::Result VR = vectorizer::vectorize(K->Source);
  for (const vectorizer::LoopReport &L : VR.Loops)
    printLoopDecision(L);
  if (VR.Loops.empty())
    std::printf("  (no loops)\n");

  std::vector<uint8_t> Encoded = bytecode::encode(VR.Output);
  std::printf("  split bytecode: %zu bytes encoded\n", Encoded.size());
  auto Decoded = bytecode::decode(Encoded);
  if (!Decoded) {
    std::printf("  decode FAILED: %s\n", Decoded.status().str().c_str());
    return 1;
  }

  // --- Verifier gate: obligations for every explained target at once. ---
  std::printf("\n== Verifier gate ==\n");
  verify::VerifyOptions VO;
  VO.Targets = Ts;
  verify::Report Rep = verify::verifyModule(*Decoded, VO);
  std::printf("  %s: %llu proof obligations proved, %llu failed "
              "(%u target%s checked, %llu min/max scenario fork%s)\n",
              Rep.ok() ? "ok" : "REJECTED",
              static_cast<unsigned long long>(Rep.ObligationsProved),
              static_cast<unsigned long long>(Rep.ObligationsFailed),
              Rep.TargetsChecked, Rep.TargetsChecked == 1 ? "" : "s",
              static_cast<unsigned long long>(Rep.ScenarioForks),
              Rep.ScenarioForks == 1 ? "" : "s");
  if (!Rep.ok())
    std::printf("%s\n", Rep.str().c_str());
  for (const analysis::SafetyCertificate &C : Rep.Certificates) {
    size_t Align = 0, Bounds = 0;
    for (const analysis::AccessFact &F : C.Facts) {
      Align += F.HasAlign;
      Bounds += F.HasBounds;
    }
    std::printf("  certificate [%s]: %zu access facts (%zu align, %zu "
                "bounds) — hash %016llx\n",
                C.TargetName.c_str(), C.Facts.size(), Align, Bounds,
                static_cast<unsigned long long>(
                    analysis::certificateHash(C)));
  }

  // --- Online stage + execution, per target. ---
  for (const target::TargetDesc &T : Ts) {
    explainOnTarget(*K, T, Tier, Native, Elide);
    if (Tiered)
      printTieredTimeline(*K, T, Tier, Native, Elide);
  }
  return 0;
}
