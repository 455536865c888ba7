//===- tests/fusion_test.cpp - Macro-op fusion correctness ----------------===//
//
// Part of the Vapor SIMD reproduction.
//
// The fusion peephole (target/VM.cpp) is a pure dispatch optimization:
// it must never change results, modeled cycles, instruction counts, or
// trap attribution. These tests pin that contract across the full
// kernel x target matrix:
//
//   * every kernel, on every target, is golden-exact with fusion ON and
//     OFF, with identical modeled cycles and executed tier;
//   * superops really form (the peephole is not silently disabled), the
//     static cost/count sums are fusion-invariant, and every origIndex
//     maps into the pre-fusion program;
//   * an alignment trap inside a superop reports the same pre-fusion
//     TrapInfo (op index, address, required alignment) as the unfused
//     program -- the executor's deoptimization decision keys off these.
//
//===----------------------------------------------------------------------===//

#include "vapor/Pipeline.h"

#include "jit/CodeCache.h"
#include "jit/Jit.h"
#include "support/FaultInject.h"
#include "support/ThreadPool.h"
#include "vapor/Sweep.h"
#include "target/MemoryImage.h"
#include "target/VM.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

using namespace vapor;
using target::DecodedProgram;
using target::OpCls;
using target::TargetDesc;

namespace {

/// The fixed experiment matrix these tests sweep. Sizes are asserted so
/// a grown kernel set or target registry widens the sweep instead of
/// silently shrinking it.
TEST(FusionMatrix, SweepShape) {
  EXPECT_EQ(kernels::allKernels().size(), kernels::ExpectedKernelCount);
  EXPECT_EQ(target::allTargets().size(), 5u);
}

RunOutcome runSplit(const kernels::Kernel &K, const TargetDesc &T,
                    bool Fuse) {
  RunOptions O;
  O.Target = T;
  O.FuseOps = Fuse;
  return runKernel(K, Flow::SplitVectorized, O);
}

class FusionGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FusionGoldenTest, GoldenExactAndCycleInvariantOnEveryTarget) {
  kernels::Kernel K = kernels::kernelByName(GetParam());
  for (const TargetDesc &T : target::allTargets()) {
    RunOutcome Unfused = runSplit(K, T, /*Fuse=*/false);
    RunOutcome Fused = runSplit(K, T, /*Fuse=*/true);

    std::string Err;
    EXPECT_TRUE(checkAgainstGolden(K, Unfused, Err))
        << T.Name << " unfused: " << Err;
    EXPECT_TRUE(checkAgainstGolden(K, Fused, Err))
        << T.Name << " fused: " << Err;

    // Fusion must be invisible to everything but dispatch count.
    EXPECT_EQ(Fused.Cycles, Unfused.Cycles) << T.Name;
    EXPECT_EQ(Fused.Tier, Unfused.Tier) << T.Name;
    EXPECT_EQ(Fused.Scalarized, Unfused.Scalarized) << T.Name;
    EXPECT_EQ(Fused.Retries, Unfused.Retries) << T.Name;
    EXPECT_EQ(Fused.Demotions.size(), Unfused.Demotions.size()) << T.Name;
  }
}

std::vector<std::string> allKernelNames() {
  std::vector<std::string> Names;
  for (const kernels::Kernel &K : kernels::allKernels())
    Names.push_back(K.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, FusionGoldenTest,
                         ::testing::ValuesIn(allKernelNames()),
                         [](const auto &Info) { return Info.param; });

/// The code cache's hit/miss tallies are now relaxed atomics bumped
/// outside the store mutex, so a parallel sweep must tally exactly what
/// the serial sweep does — lost updates under contention would show up
/// as a parallel count falling short. Warm the cache first: against a
/// warm cache every sweep is pure hits with a deterministic per-cell
/// lookup pattern, so the serial and parallel deltas must be equal
/// field-for-field, not merely in total.
TEST(FusionSweep, CacheStatsSerialAndParallelTallyEqually) {
  std::vector<kernels::Kernel> All = kernels::allKernels();
  const TargetDesc T = target::sseTarget();
  auto SweepOnce = [&](unsigned Jobs) {
    support::parallelFor(Jobs, All.size(), [&](size_t I) {
      (void)sweep::splitOverNativeCell(All[I], T);
    });
  };

  SweepOnce(1); // Warm: populate every cell's entries.

  jit::cache::resetStats();
  SweepOnce(1);
  jit::cache::Stats Serial = jit::cache::stats();

  jit::cache::resetStats();
  SweepOnce(4);
  jit::cache::Stats Parallel = jit::cache::stats();

  EXPECT_EQ(Serial.ModuleHits, Parallel.ModuleHits);
  EXPECT_EQ(Serial.ModuleMisses, Parallel.ModuleMisses);
  EXPECT_EQ(Serial.VerifyHits, Parallel.VerifyHits);
  EXPECT_EQ(Serial.VerifyMisses, Parallel.VerifyMisses);
  EXPECT_EQ(Serial.CompileHits, Parallel.CompileHits);
  EXPECT_EQ(Serial.CompileMisses, Parallel.CompileMisses);
  EXPECT_EQ(Serial.ProgramHits, Parallel.ProgramHits);
  EXPECT_EQ(Serial.ProgramMisses, Parallel.ProgramMisses);
  EXPECT_GT(Serial.ModuleHits + Serial.VerifyHits + Serial.CompileHits +
                Serial.ProgramHits,
            0u)
      << "warm sweep recorded no hits; the comparison is vacuous";
}

/// The peephole actually fires, and its static accounting is invariant:
/// superop Cost/Counts are the constituents' sums, so the whole-program
/// sums match the unfused decode exactly.
TEST(FusionProgram, SuperopsFormAndAccountingIsInvariant) {
  kernels::Kernel K = kernels::kernelByName("saxpy_fp");
  RunOutcome Out = runSplit(K, target::sseTarget(), /*Fuse=*/true);
  auto Unfused = DecodedProgram::build(Out.Compiled->Code, target::sseTarget(),
                                       *Out.Mem, /*Weak=*/false,
                                       /*Fuse=*/false);
  auto Fused = DecodedProgram::build(Out.Compiled->Code, target::sseTarget(),
                                     *Out.Mem, /*Weak=*/false,
                                     /*Fuse=*/true);

  EXPECT_EQ(Unfused->FusedOps, 0u);
  EXPECT_GT(Fused->FusedOps, 0u) << "peephole found nothing in saxpy_fp";
  EXPECT_EQ(Fused->PreFusionOps, Unfused->Code.size());
  EXPECT_LT(Fused->Code.size(), Unfused->Code.size());

  uint64_t CostU = 0, CountU = 0, CostF = 0, CountF = 0;
  for (const DecodedProgram::DOp &Op : Unfused->Code) {
    CostU += Op.Cost;
    CountU += Op.Counts;
  }
  uint32_t Supers = 0;
  for (uint32_t PC = 0; PC < Fused->Code.size(); ++PC) {
    const DecodedProgram::DOp &Op = Fused->Code[PC];
    CostF += Op.Cost;
    CountF += Op.Counts;
    if (Op.Cls == OpCls::Fused || Op.Cls == OpCls::FusedBr)
      ++Supers;
    EXPECT_LT(Fused->origIndex(PC), Unfused->Code.size())
        << "origIndex out of pre-fusion range at PC " << PC;
  }
  EXPECT_EQ(Supers, Fused->FusedOps);
  EXPECT_EQ(CostF, CostU) << "fusion changed the static cost sum";
  EXPECT_EQ(CountF, CountU) << "fusion changed the instruction count sum";
}

class ImageFill : public kernels::FillSink {
public:
  explicit ImageFill(target::MemoryImage &Image) : Mem(Image) {}
  void pokeInt(uint32_t Arr, uint64_t Elem, int64_t V) override {
    Mem.pokeInt(Arr, Elem, V);
  }
  void pokeFP(uint32_t Arr, uint64_t Elem, double V) override {
    Mem.pokeFP(Arr, Elem, V);
  }

private:
  target::MemoryImage &Mem;
};

struct TrapRun {
  bool Trapped = false;
  target::TrapInfo Info;
  uint64_t BaseSum = 0; ///< Placement fingerprint (bases must match).
};

/// Compiles \p Mod the way the split pipeline would and runs it with
/// trap recording under a freshly built program with fusion on or off,
/// with the VmAlign fault-injection site armed to fire on its
/// \p FireAt'th dynamic hit (the repo's way of forcing alignment traps;
/// crashtest and the executor tests use the same mechanism).
TrapRun runWithInjectedTrap(const kernels::Kernel &K,
                            const ir::Function &Mod, const TargetDesc &T,
                            uint64_t FireAt, bool Fuse) {
  target::MemoryImage Mem;
  jit::RuntimeInfo RT;
  for (uint32_t A = 0; A < Mod.Arrays.size(); ++A) {
    bool Ext = K.ExternalArrays.count(Mod.Arrays[A].Name) != 0;
    Mem.addArray(Mod.Arrays[A], 0);
    if (Ext)
      RT.Arrays.push_back({false, 0});
    else
      RT.Arrays.push_back({true, Mem.base(A)});
  }
  auto CR = jit::compile(Mod, T, RT, {});
  auto Prog = DecodedProgram::build(CR.Code, T, Mem, /*Weak=*/false, Fuse);
  target::VM Vm(Prog, Mem);
  Vm.setTrapRecording(true);
  ImageFill Fill(Mem);
  K.fill(Fill);
  for (ir::ValueId P : Mod.Params) {
    const std::string &Name = Mod.Values[P].Name;
    if (ir::isFloatKind(Mod.typeOf(P).Elem)) {
      auto It = K.FPParams.find(Name);
      Vm.setParamFP(Name, It == K.FPParams.end() ? 1.0 : It->second);
    } else {
      auto It = K.IntParams.find(Name);
      Vm.setParamInt(Name, It == K.IntParams.end() ? 0 : It->second);
    }
  }
  {
    // Armed around run() only: both programs execute the same sequence
    // of checked accesses, so the FireAt'th hit is the same access.
    faultinject::ScopedFault F(faultinject::SiteClass::VmAlign, FireAt);
    (void)Vm.run();
  }
  TrapRun R;
  R.Trapped = Vm.trapped();
  R.Info = Vm.trapInfo();
  for (uint32_t A = 0; A < Mod.Arrays.size(); ++A)
    R.BaseSum += Mem.base(A);
  return R;
}

/// An alignment trap inside a fusible loop body must report the SAME
/// pre-fusion TrapInfo whether the trapping access was absorbed into a
/// superop or not: the executor's deoptimization decision and the
/// verifier's mutation test key off OpIndex exactly. The trap is forced
/// through the VmAlign injection site; fusion preserves the dynamic
/// sequence of checked accesses, so firing on the N'th hit picks the
/// same access in both programs.
TEST(FusionTrap, AttributionMatchesUnfusedProgram) {
  unsigned TrappingConfigs = 0;
  for (const char *Name : {"saxpy_fp", "sfir_fp", "convolve_s32"}) {
    kernels::Kernel K = kernels::kernelByName(Name);
    auto VR = vectorizer::vectorize(K.Source, {});
    const ir::Function &Mod = VR.Output;

    for (const TargetDesc &T : {target::sseTarget(),
                                target::altivecTarget(),
                                target::avxTarget()})
      for (uint64_t FireAt : {0u, 1u, 7u}) {
        TrapRun U = runWithInjectedTrap(K, Mod, T, FireAt, /*Fuse=*/false);
        TrapRun F = runWithInjectedTrap(K, Mod, T, FireAt, /*Fuse=*/true);
        ASSERT_EQ(U.BaseSum, F.BaseSum)
            << "placement differed between the two runs";
        ASSERT_EQ(U.Trapped, F.Trapped)
            << Name << " on " << T.Name << " fire=" << FireAt
            << ": fusion changed trap behavior";
        if (!U.Trapped)
          continue;
        ++TrappingConfigs;
        EXPECT_EQ(F.Info.TrapKind, U.Info.TrapKind) << T.Name;
        EXPECT_EQ(F.Info.OpIndex, U.Info.OpIndex)
            << Name << " on " << T.Name << " fire=" << FireAt
            << ": fused trap attributed to a different pre-fusion op";
        EXPECT_NE(F.Info.OpIndex, ~0u) << "trap without a faulting op";
        EXPECT_EQ(F.Info.Address, U.Info.Address) << T.Name;
        EXPECT_EQ(F.Info.RequiredAlign, U.Info.RequiredAlign) << T.Name;
        EXPECT_EQ(F.Info.IsStore, U.Info.IsStore) << T.Name;
        EXPECT_EQ(F.Info.Target, U.Info.Target) << T.Name;
      }
  }
  EXPECT_GT(TrappingConfigs, 0u)
      << "no injected fault ever trapped; attribution check was vacuous";
}

} // namespace
