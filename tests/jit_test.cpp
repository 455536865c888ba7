//===- tests/jit_test.cpp - Online compiler tests -------------------------===//
//
// Part of the Vapor SIMD reproduction.
//
// End-to-end property: scalar source -> offline vectorizer -> split
// bytecode -> JIT -> VM must compute exactly what the scalar source
// computes, on every target, both tiers, aligned or not.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Interp.h"
#include "ir/Verifier.h"
#include "jit/Jit.h"
#include "kernels/Kernels.h"
#include "support/Support.h"
#include "target/Iaca.h"
#include "target/VM.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::target;

namespace {

/// One full execution of a compiled kernel.
struct PipelineRun {
  MFunction Code;
  std::unique_ptr<MemoryImage> Mem;
  uint64_t Cycles = 0;
  bool Scalarized = false;
};

struct PipelineConfig {
  TargetDesc Target = sseTarget();
  jit::Tier Tier = jit::Tier::Strong;
  uint32_t Misalign = 0; ///< Runtime base misalignment of kernel arrays.
  bool KnownBases = true;
  int64_t N = 64;
};

/// Vectorizes \p Scalar, JIT-compiles for the configured target, fills
/// memory deterministically, runs, and returns code + memory + cycles.
PipelineRun runPipeline(const Function &Scalar, const PipelineConfig &Cfg) {
  auto VR = vectorizer::vectorize(Scalar);
  verifyOrDie(VR.Output);

  PipelineRun Run;
  Run.Mem = std::make_unique<MemoryImage>();
  for (size_t A = 0; A < VR.Output.Arrays.size(); ++A) {
    const ArrayInfo &AI = VR.Output.Arrays[A];
    bool Scratch = AI.Name.rfind("__vt", 0) == 0;
    Run.Mem->addArray(AI, Scratch ? 0 : Cfg.Misalign);
  }
  jit::RuntimeInfo RT = Cfg.KnownBases
                            ? jit::RuntimeInfo::fromMemory(*Run.Mem)
                            : jit::RuntimeInfo::unknown(
                                  VR.Output.Arrays.size());

  jit::Options JO;
  JO.CompilerTier = Cfg.Tier;
  auto CR = jit::compile(VR.Output, Cfg.Target, RT, JO);
  Run.Scalarized = CR.Scalarized;
  Run.Code = std::move(CR.Code);

  SplitMix64 Rng(99);
  for (uint32_t A = 0; A < VR.Output.Arrays.size(); ++A) {
    const ArrayInfo &AI = VR.Output.Arrays[A];
    if (AI.Name.rfind("__vt", 0) == 0)
      continue;
    for (uint64_t I = 0; I < AI.NumElems; ++I) {
      if (isFloatKind(AI.Elem))
        Run.Mem->pokeFP(A, I, (Rng.nextUnit() - 0.5) * 8.0);
      else
        Run.Mem->pokeInt(A, I, static_cast<int64_t>(Rng.nextBelow(200)) -
                                   100);
    }
  }

  VM Machine(Run.Code, Cfg.Target, *Run.Mem,
             Cfg.Tier == jit::Tier::Weak);
  for (ValueId P : VR.Output.Params) {
    const std::string &Name = VR.Output.Values[P].Name;
    if (Name == "n")
      Machine.setParamInt("n", Cfg.N);
    else if (isFloatKind(VR.Output.typeOf(P).Elem))
      Machine.setParamFP(Name, 1.25);
    else
      Machine.setParamInt(Name, 3);
  }
  Machine.run();
  Run.Cycles = Machine.cycles();
  return Run;
}

/// Golden output from the scalar source under the IR evaluator, with the
/// same memory fill and parameter conventions.
std::vector<double> goldenOutput(const Function &Scalar, uint32_t OutArr,
                                 int64_t N) {
  Evaluator E(Scalar, {});
  E.allocAllArrays();
  SplitMix64 Rng(99);
  for (uint32_t A = 0; A < Scalar.Arrays.size(); ++A) {
    const ArrayInfo &AI = Scalar.Arrays[A];
    for (uint64_t I = 0; I < AI.NumElems; ++I) {
      if (isFloatKind(AI.Elem))
        E.pokeFP(A, I, (Rng.nextUnit() - 0.5) * 8.0);
      else
        E.pokeInt(A, I, static_cast<int64_t>(Rng.nextBelow(200)) - 100);
    }
  }
  for (ValueId P : Scalar.Params) {
    if (Scalar.Values[P].Name == "n")
      E.setParamInt("n", N);
    else if (isFloatKind(Scalar.typeOf(P).Elem))
      E.setParamFP(Scalar.Values[P].Name, 1.25);
    else
      E.setParamInt(Scalar.Values[P].Name, 3);
  }
  E.run();
  std::vector<double> Out;
  for (uint64_t I = 0; I < Scalar.Arrays[OutArr].NumElems; ++I)
    Out.push_back(isFloatKind(Scalar.Arrays[OutArr].Elem)
                      ? E.peekFP(OutArr, I)
                      : static_cast<double>(E.peekInt(OutArr, I)));
  return Out;
}

void expectMatchesGolden(const Function &Scalar, uint32_t OutArr,
                         const PipelineConfig &Cfg, double Tol = 0) {
  std::vector<double> Want = goldenOutput(Scalar, OutArr, Cfg.N);
  PipelineRun Run = runPipeline(Scalar, Cfg);
  const ArrayInfo &AI = Scalar.Arrays[OutArr];
  for (uint64_t I = 0; I < AI.NumElems; ++I) {
    double Got = isFloatKind(AI.Elem)
                     ? Run.Mem->peekFP(OutArr, I)
                     : static_cast<double>(Run.Mem->peekInt(OutArr, I));
    if (Tol == 0)
      EXPECT_EQ(Want[I], Got) << "elem " << I << " target "
                              << Cfg.Target.Name;
    else
      EXPECT_NEAR(Want[I], Got, Tol) << "elem " << I << " target "
                                     << Cfg.Target.Name;
  }
}

//===--- Kernels (shared with the vectorizer tests' shapes) -------------------//

Function buildSaxpy(uint32_t &YArr, uint32_t Align = 32) {
  Function F("saxpy");
  uint32_t X = F.addArray("x", ScalarKind::F32, 80, Align);
  YArr = F.addArray("y", ScalarKind::F32, 80, Align);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  ValueId Alpha = F.addParam("alpha", Type::scalar(ScalarKind::F32));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  B.store(YArr, L.indVar(),
          B.add(B.load(YArr, L.indVar()), B.mul(Alpha, B.load(X, L.indVar()))));
  B.endLoop(L);
  verifyOrDie(F);
  return F;
}

Function buildSumOffset(uint32_t &OutArr) {
  Function F("sum_off");
  uint32_t A = F.addArray("a", ScalarKind::F32, 96, 32);
  OutArr = F.addArray("out", ScalarKind::F32, 1, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  ValueId Zero = B.constFP(ScalarKind::F32, 0);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  ValueId Phi = B.addCarried(L, Zero);
  B.setCarriedNext(L, Phi,
                   B.add(Phi, B.load(A, B.add(L.indVar(), B.constIdx(2)))));
  B.endLoop(L);
  B.store(OutArr, B.constIdx(0), B.carriedResult(L, Phi));
  verifyOrDie(F);
  return F;
}

Function buildDissolve(uint32_t &OArr) {
  Function F("dissolve");
  uint32_t A = F.addArray("a", ScalarKind::U8, 80, 32);
  uint32_t Bd = F.addArray("b", ScalarKind::U8, 80, 32);
  OArr = F.addArray("o", ScalarKind::U8, 80, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  ValueId WA = B.convert(ScalarKind::U16, B.load(A, L.indVar()));
  ValueId WB = B.convert(ScalarKind::U16, B.load(Bd, L.indVar()));
  ValueId Sh = B.shrl(B.mul(WA, WB), B.constInt(ScalarKind::U16, 8));
  B.store(OArr, L.indVar(), B.convert(ScalarKind::U8, Sh));
  B.endLoop(L);
  verifyOrDie(F);
  return F;
}

Function buildDscalDp(uint32_t &XArr) {
  Function F("dscal_dp");
  XArr = F.addArray("x", ScalarKind::F64, 64, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  ValueId Alpha = F.addParam("alpha", Type::scalar(ScalarKind::F64));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  B.store(XArr, L.indVar(), B.mul(B.load(XArr, L.indVar()), Alpha));
  B.endLoop(L);
  verifyOrDie(F);
  return F;
}

//===--- Correctness across the whole matrix ----------------------------------//

struct MatrixParam {
  const char *TargetName;
  jit::Tier Tier;
};

class JitMatrixTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(JitMatrixTest, SaxpyCorrectEverywhere) {
  auto Targets = allTargets();
  PipelineConfig Cfg;
  Cfg.Target = Targets[std::get<0>(GetParam())];
  Cfg.Tier = std::get<1>(GetParam()) ? jit::Tier::Strong : jit::Tier::Weak;
  for (int64_t N : {64, 61, 3}) {
    Cfg.N = N;
    uint32_t Y;
    Function F = buildSaxpy(Y);
    expectMatchesGolden(F, Y, Cfg);
  }
}

TEST_P(JitMatrixTest, RealignedReductionCorrectEverywhere) {
  auto Targets = allTargets();
  PipelineConfig Cfg;
  Cfg.Target = Targets[std::get<0>(GetParam())];
  Cfg.Tier = std::get<1>(GetParam()) ? jit::Tier::Strong : jit::Tier::Weak;
  Cfg.N = 61;
  uint32_t Out;
  Function F = buildSumOffset(Out);
  expectMatchesGolden(F, Out, Cfg, 1e-3);
}

TEST_P(JitMatrixTest, WideningKernelCorrectEverywhere) {
  auto Targets = allTargets();
  PipelineConfig Cfg;
  Cfg.Target = Targets[std::get<0>(GetParam())];
  Cfg.Tier = std::get<1>(GetParam()) ? jit::Tier::Strong : jit::Tier::Weak;
  Cfg.N = 77;
  uint32_t O;
  Function F = buildDissolve(O);
  expectMatchesGolden(F, O, Cfg);
}

INSTANTIATE_TEST_SUITE_P(AllTargetsBothTiers, JitMatrixTest,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 2)));

//===--- Strategy selection ----------------------------------------------------//

TEST(JitStrategyTest, SseUsesMisalignedLoadsNotChains) {
  uint32_t Out;
  Function F = buildSumOffset(Out); // a[i+2]: misaligned by 8 bytes.
  auto VR = vectorizer::vectorize(F);
  MemoryImage Mem;
  for (const auto &A : VR.Output.Arrays)
    Mem.addArray(A, 0);
  auto CR = jit::compile(VR.Output, sseTarget(),
                         jit::RuntimeInfo::fromMemory(Mem));
  std::string S = CR.Code.str();
  EXPECT_NE(S.find("vload.u"), std::string::npos) << S;
  // The realignment chain must be dead: no vperm, no getperm, and no
  // align_load-style masked loads.
  EXPECT_EQ(S.find("vperm"), std::string::npos) << S;
  EXPECT_EQ(S.find("getperm"), std::string::npos) << S;
}

TEST(JitStrategyTest, AltivecKeepsExplicitRealignment) {
  uint32_t Out;
  Function F = buildSumOffset(Out);
  auto VR = vectorizer::vectorize(F);
  MemoryImage Mem;
  for (const auto &A : VR.Output.Arrays)
    Mem.addArray(A, 0);
  auto CR = jit::compile(VR.Output, altivecTarget(),
                         jit::RuntimeInfo::fromMemory(Mem));
  std::string S = CR.Code.str();
  EXPECT_NE(S.find("vperm"), std::string::npos) << S;
  EXPECT_NE(S.find("getperm"), std::string::npos) << S;
  // AltiVec has no misaligned accesses at all.
  EXPECT_EQ(S.find("vload.u"), std::string::npos) << S;
  EXPECT_EQ(S.find("vstore.u"), std::string::npos) << S;
}

TEST(JitStrategyTest, ScalarTargetScalarizesCleanly) {
  uint32_t Out;
  Function F = buildSumOffset(Out);
  auto VR = vectorizer::vectorize(F);
  MemoryImage Mem;
  for (const auto &A : VR.Output.Arrays)
    Mem.addArray(A, 0);
  auto CR = jit::compile(VR.Output, scalarTarget(),
                         jit::RuntimeInfo::fromMemory(Mem));
  EXPECT_TRUE(CR.Scalarized);
  std::string S = CR.Code.str();
  // No vector machine ops at all; the chain is gone, not scalarized.
  EXPECT_EQ(S.find("vload"), std::string::npos) << S;
  EXPECT_EQ(S.find("vperm"), std::string::npos);
  EXPECT_EQ(S.find("vsplat"), std::string::npos);
}

TEST(JitStrategyTest, AltivecScalarizesF64Kernels) {
  uint32_t X;
  Function F = buildDscalDp(X);
  auto VR = vectorizer::vectorize(F);
  MemoryImage Mem;
  for (const auto &A : VR.Output.Arrays)
    Mem.addArray(A, 0);
  auto CR = jit::compile(VR.Output, altivecTarget(),
                         jit::RuntimeInfo::fromMemory(Mem));
  EXPECT_TRUE(CR.Scalarized);
  EXPECT_NE(CR.ScalarizeReason.find("f64"), std::string::npos)
      << CR.ScalarizeReason;
  // And it still computes correctly.
  PipelineConfig Cfg;
  Cfg.Target = altivecTarget();
  expectMatchesGolden(F, X, Cfg);
}

TEST(JitStrategyTest, NeonFallsBackToLibraryForWidening) {
  uint32_t O;
  Function F = buildDissolve(O);
  auto VR = vectorizer::vectorize(F);
  MemoryImage Mem;
  for (const auto &A : VR.Output.Arrays)
    Mem.addArray(A, 0);
  auto CR = jit::compile(VR.Output, neonTarget(),
                         jit::RuntimeInfo::fromMemory(Mem));
  EXPECT_FALSE(CR.Scalarized);
  std::string S = CR.Code.str();
  EXPECT_NE(S.find("calllib"), std::string::npos) << S;
}

//===--- Guard resolution -------------------------------------------------------//

TEST(JitGuardTest, StrongTierFoldsGuardWithKnownBases) {
  uint32_t Y;
  Function F = buildSaxpy(Y, /*Align=*/4); // Unknown static alignment.
  auto VR = vectorizer::vectorize(F);
  ASSERT_NE(VR.Output.str().find("bases_aligned"), std::string::npos);
  MemoryImage Mem;
  for (const auto &A : VR.Output.Arrays)
    Mem.addArray(A, 0); // Runtime-aligned.
  auto CR = jit::compile(VR.Output, sseTarget(),
                         jit::RuntimeInfo::fromMemory(Mem));
  std::string S = CR.Code.str();
  // Statically resolved: no if, single (aligned) version.
  EXPECT_EQ(S.find("if "), std::string::npos) << S;
  EXPECT_NE(S.find("vload.a"), std::string::npos);
}

/// The paper's MMM_fp observation (Sec. V-A): Mono cannot fold an
/// alignment test nested inside an outer loop, so the runtime check
/// executes per outer iteration. Top-level guards DO fold even on the
/// weak tier (Mono generated the single aligned version of mix-streams).
TEST(JitGuardTest, WeakTierFoldsTopLevelButNotNestedGuards) {
  // saxpy's guard is top level: folded even by the weak tier.
  uint32_t Y;
  Function FS = buildSaxpy(Y, 4);
  auto VRS = vectorizer::vectorize(FS);
  MemoryImage MemS;
  for (const auto &A : VRS.Output.Arrays)
    MemS.addArray(A, 0);
  jit::Options JO;
  JO.CompilerTier = jit::Tier::Weak;
  auto CRS = jit::compile(VRS.Output, sseTarget(),
                          jit::RuntimeInfo::fromMemory(MemS), JO);
  EXPECT_EQ(CRS.Code.str().find("if "), std::string::npos);

  // A vectorized loop nested in an outer loop: the guard lands inside the
  // outer loop and the weak tier keeps the runtime check.
  Function FN("nest");
  uint32_t A = FN.addArray("a", ScalarKind::F32, 16 * 16, 4);
  ValueId N = FN.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(FN);
  auto LI = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  auto LJ = B.beginLoop(B.constIdx(0), B.constIdx(16), B.constIdx(1));
  ValueId Idx = B.add(B.mul(LI.indVar(), B.constIdx(16)), LJ.indVar());
  FN.IsSplitLayer = false;
  B.store(A, Idx, B.mul(B.load(A, Idx), B.load(A, Idx)));
  B.endLoop(LJ);
  B.endLoop(LI);
  verifyOrDie(FN);
  auto VRN = vectorizer::vectorize(FN);
  ASSERT_NE(VRN.Output.str().find("bases_aligned"), std::string::npos);
  MemoryImage MemN;
  for (const auto &Arr : VRN.Output.Arrays)
    MemN.addArray(Arr, 0);
  auto CRN = jit::compile(VRN.Output, sseTarget(),
                          jit::RuntimeInfo::fromMemory(MemN), JO);
  EXPECT_NE(CRN.Code.str().find("if "), std::string::npos);
  // The strong tier folds it regardless of nesting.
  jit::Options Strong;
  auto CRStrong = jit::compile(VRN.Output, sseTarget(),
                               jit::RuntimeInfo::fromMemory(MemN), Strong);
  EXPECT_EQ(CRStrong.Code.str().find("if "), std::string::npos);
}

TEST(JitGuardTest, UnknownBasesForceRuntimeCheckEvenOnStrong) {
  uint32_t Y;
  Function F = buildSaxpy(Y, 4);
  auto VR = vectorizer::vectorize(F);
  auto CR = jit::compile(VR.Output, sseTarget(),
                         jit::RuntimeInfo::unknown(VR.Output.Arrays.size()));
  std::string S = CR.Code.str();
  EXPECT_NE(S.find("if "), std::string::npos) << S;
}

TEST(JitGuardTest, MisalignedRuntimeTakesFallbackAndStaysCorrect) {
  uint32_t Y;
  Function F = buildSaxpy(Y, 4);
  for (auto Tier : {jit::Tier::Strong, jit::Tier::Weak}) {
    PipelineConfig Cfg;
    Cfg.Target = sseTarget();
    Cfg.Tier = Tier;
    Cfg.Misalign = 8; // Bases NOT vector-aligned at run time.
    Cfg.N = 61;
    expectMatchesGolden(F, Y, Cfg);
  }
}

//===--- Performance-shape sanity ----------------------------------------------//

TEST(JitPerfShapeTest, VectorizationBeatsScalarOnSse) {
  uint32_t Y;
  Function F = buildSaxpy(Y);
  PipelineConfig Vec;
  Vec.Target = sseTarget();
  PipelineConfig Sca;
  Sca.Target = scalarTarget();
  uint64_t VecCycles = runPipeline(F, Vec).Cycles;
  uint64_t ScaCycles = runPipeline(F, Sca).Cycles;
  EXPECT_LT(VecCycles * 2, ScaCycles)
      << "vector " << VecCycles << " scalar " << ScaCycles;
}

TEST(JitPerfShapeTest, AlignedRuntimeBeatsMisalignedRuntime) {
  uint32_t Y;
  Function F = buildSaxpy(Y, /*Align=*/4); // Versioned kernel.
  PipelineConfig Aligned;
  Aligned.Target = sseTarget();
  PipelineConfig Mis = Aligned;
  Mis.Misalign = 8;
  EXPECT_LT(runPipeline(F, Aligned).Cycles, runPipeline(F, Mis).Cycles);
}

TEST(JitPerfShapeTest, WeakTierSlowerThanStrong) {
  uint32_t Y;
  Function F = buildSaxpy(Y);
  PipelineConfig Strong;
  Strong.Target = sseTarget();
  PipelineConfig Weak = Strong;
  Weak.Tier = jit::Tier::Weak;
  EXPECT_LE(runPipeline(F, Strong).Cycles, runPipeline(F, Weak).Cycles);
}

TEST(JitPerfShapeTest, LegacyProfileAddsCyclesPerIteration) {
  uint32_t Out;
  Function F = buildSumOffset(Out);
  auto VR = vectorizer::vectorize(F);
  MemoryImage Mem;
  for (const auto &A : VR.Output.Arrays)
    Mem.addArray(A, 0);
  auto RT = jit::RuntimeInfo::fromMemory(Mem);

  jit::Options Modern;
  jit::Options Legacy;
  Legacy.FoldAddressing = false;
  Legacy.PromoteAccumulators = false;
  auto ModernCode = jit::compile(VR.Output, avxTarget(), RT, Modern);
  auto LegacyCode = jit::compile(VR.Output, avxTarget(), RT, Legacy);
  IacaReport RM = analyzeVectorLoop(ModernCode.Code, avxTarget());
  IacaReport RL = analyzeVectorLoop(LegacyCode.Code, avxTarget());
  ASSERT_TRUE(RM.Found);
  ASSERT_TRUE(RL.Found);
  EXPECT_LT(RM.Cycles, RL.Cycles);
}

} // namespace

namespace {

/// The dependence-distance hint in action across targets: a distance-4
/// i32 recurrence runs VECTOR code where VF <= 4 (SSE/NEON, VF 4/2) and
/// is scalarized where VF would be 8 (AVX) — per-target adaptivity the
/// offline compiler cannot decide (paper Sec. III-B(b)).
TEST(DepHintJitTest, JitScalarizesWhenVFExceedsHint) {
  Function F("recur");
  uint32_t A = F.addArray("a", ScalarKind::I32, 256, 4);
  uint32_t Bd = F.addArray("b", ScalarKind::I32, 256, 4);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(4), N, B.constIdx(1));
  ValueId Prev = B.load(A, B.sub(L.indVar(), B.constIdx(4)));
  B.store(A, L.indVar(), B.add(Prev, B.load(Bd, L.indVar())));
  B.endLoop(L);
  verifyOrDie(F);

  auto VR = vectorizer::vectorize(F);
  ASSERT_TRUE(VR.anyVectorized());

  // Golden result.
  Evaluator E(F, {});
  E.allocAllArrays();
  for (int I = 0; I < 256; ++I) {
    E.pokeInt(A, I, I % 9);
    E.pokeInt(Bd, I, I % 7);
  }
  E.setParamInt("n", 200);
  E.run();

  struct Expect {
    TargetDesc T;
    bool VectorCode;
  } Cases[] = {
      {sseTarget(), true},   // VF 4 == hint.
      {neonTarget(), true},  // VF 2 < hint.
      {avxTarget(), false},  // VF 8 > hint: loop scalarized.
  };
  for (const auto &C : Cases) {
    MemoryImage Mem;
    for (const auto &Arr : VR.Output.Arrays)
      Mem.addArray(Arr, 0);
    for (int I = 0; I < 256; ++I) {
      Mem.pokeInt(0, I, I % 9);
      Mem.pokeInt(1, I, I % 7);
    }
    auto CR = jit::compile(VR.Output, C.T,
                           jit::RuntimeInfo::fromMemory(Mem));
    std::string S = CR.Code.str();
    bool HasVectorLoads = S.find("vload") != std::string::npos;
    EXPECT_EQ(HasVectorLoads, C.VectorCode) << C.T.Name << "\n" << S;
    VM Machine(CR.Code, C.T, Mem);
    Machine.setParamInt("n", 200);
    Machine.run();
    for (int I = 0; I < 200; ++I)
      ASSERT_EQ(Mem.peekInt(0, I), E.peekInt(0, I))
          << C.T.Name << " i=" << I;
  }
}

//===--- Strong-tier loop-invariant code motion ------------------------------//

/// Every register \p L defines: induction variable, carried phis and every
/// instruction of its body, nested regions included.
void loopDefs(const MFunction &M, const MLoop &L, std::set<MReg> &Out) {
  Out.insert(L.IndVar);
  for (const MLoop::CarriedVar &C : L.Carried)
    Out.insert(C.Phi);
  std::function<void(const MRegion &)> Walk = [&](const MRegion &R) {
    for (const MNodeRef &N : R.Nodes) {
      if (N.Kind == MNodeKind::Instr && M.Instrs[N.Index].Dst != NoReg)
        Out.insert(M.Instrs[N.Index].Dst);
      else if (N.Kind == MNodeKind::Loop)
        loopDefs(M, M.Loops[N.Index], Out);
      else if (N.Kind == MNodeKind::If) {
        Walk(M.Ifs[N.Index].Then);
        Walk(M.Ifs[N.Index].Else);
      }
    }
  };
  Walk(L.Body);
}

/// Instructions that sit before a loop in its region but were emitted
/// inside it. Registers are numbered in creation order, and a loop's
/// induction variable is created right before its body is emitted, so such
/// an instruction defines a register newer than the induction variable.
/// LoadBase is exempt: bases are emitted into the function entry wherever
/// they are first used.
unsigned hoistedCount(const MFunction &M, const MRegion &R) {
  unsigned N = 0;
  for (size_t P = 0; P < R.Nodes.size(); ++P) {
    const MNodeRef &Node = R.Nodes[P];
    if (Node.Kind == MNodeKind::If) {
      N += hoistedCount(M, M.Ifs[Node.Index].Then);
      N += hoistedCount(M, M.Ifs[Node.Index].Else);
      continue;
    }
    if (Node.Kind != MNodeKind::Loop)
      continue;
    const MLoop &L = M.Loops[Node.Index];
    N += hoistedCount(M, L.Body);
    for (size_t Q = 0; Q < P; ++Q) {
      if (R.Nodes[Q].Kind != MNodeKind::Instr)
        continue;
      const MInstr &I = M.Instrs[R.Nodes[Q].Index];
      N += I.Op != MOp::LoadBase && I.Dst != NoReg && I.Dst > L.IndVar;
    }
  }
  return N;
}

/// Lowers every kernel's vectorized module for every target at \p Tier,
/// bases known and aligned, and hands each result to \p Check.
void forEveryLowering(
    jit::Tier Tier,
    const std::function<void(const std::string &, const MFunction &)> &Check) {
  for (const kernels::Kernel &K : kernels::allKernels()) {
    auto VR = vectorizer::vectorize(K.Source);
    MemoryImage Mem;
    for (const ArrayInfo &AI : VR.Output.Arrays)
      Mem.addArray(AI, 0);
    jit::Options JO;
    JO.CompilerTier = Tier;
    for (const TargetDesc &T : allTargets()) {
      auto CR = jit::compile(VR.Output, T, jit::RuntimeInfo::fromMemory(Mem),
                             JO);
      Check(K.Name + "/" + T.Name, CR.Code);
    }
  }
}

TEST(JitLicmTest, StrongTierReachesTheFixpoint) {
  unsigned Hoisted = 0;
  forEveryLowering(jit::Tier::Strong, [&](const std::string &Cell,
                                          const MFunction &M) {
    Hoisted += hoistedCount(M, M.Body);
    for (const MLoop &L : M.Loops) {
      std::set<MReg> Defs;
      loopDefs(M, L, Defs);
      for (const MNodeRef &N : L.Body.Nodes) {
        if (N.Kind != MNodeKind::Instr)
          continue;
        const MInstr &I = M.Instrs[N.Index];
        EXPECT_FALSE(isHoistable(I.Op) &&
                     std::none_of(I.Srcs.begin(), I.Srcs.end(),
                                  [&](MReg S) { return Defs.count(S); }))
            << Cell << ": loop body keeps invariant instruction #"
            << N.Index << "\n"
            << M.str();
      }
    }
  });
  // The detector the weak tier is checked with sees the strong tier's
  // hoists.
  EXPECT_GT(Hoisted, 0u);
}

TEST(JitLicmTest, WeakTierHoistsNothing) {
  forEveryLowering(jit::Tier::Weak,
                   [&](const std::string &Cell, const MFunction &M) {
                     EXPECT_EQ(hoistedCount(M, M.Body), 0u)
                         << Cell << "\n"
                         << M.str();
                   });
}

} // namespace
