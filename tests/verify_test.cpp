//===- tests/verify_test.cpp - Static verifier tests ----------------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Two halves: (1) the verifier accepts everything the real offline
// compiler ships — zero false positives over every kernel, every target,
// through the actual encode/decode interchange path; (2) synthetic
// modules with planted violations of each analysis are flagged with the
// right check category.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "bytecode/Bytecode.h"
#include "ir/Builder.h"
#include "kernels/Kernels.h"
#include "target/Target.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::verify;

namespace {

Function shipped(const kernels::Kernel &K) {
  auto VR = vectorizer::vectorize(K.Source, {});
  std::vector<uint8_t> Enc = bytecode::encode(VR.Output);
  auto Dec = bytecode::decode(Enc);
  EXPECT_TRUE(Dec) << Dec.status().str();
  return Dec ? Dec.take() : Function("");
}

bool hasDiag(const Report &R, Check C, Severity S,
             const std::string &WhyPart = "") {
  for (const Diagnostic &D : R.Diags)
    if (D.Analysis == C && D.Sev == S &&
        (WhyPart.empty() || D.Why.find(WhyPart) != std::string::npos))
      return true;
  return false;
}

VerifyOptions sseOnly() {
  VerifyOptions O;
  O.Targets = {target::sseTarget()};
  return O;
}

//===--- Zero false positives over the real compiler output ---------------===//

class VerifyKernelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VerifyKernelTest, ShippedBytecodeVerifiesCleanOnAllTargets) {
  kernels::Kernel K = kernels::kernelByName(GetParam());
  Function Mod = shipped(K);
  Report R = verifyModule(Mod);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.count(Severity::Warning), 0u) << R.str();
  EXPECT_EQ(R.ObligationsFailed, 0u) << R.str();
  EXPECT_EQ(R.TargetsChecked, target::allTargets().size());
}

TEST_P(VerifyKernelTest, ScalarSourceVerifiesClean) {
  kernels::Kernel K = kernels::kernelByName(GetParam());
  Report R = verifyModule(K.Source);
  EXPECT_TRUE(R.ok()) << R.str();
}

std::vector<std::string> kernelNames() {
  std::vector<std::string> N;
  for (const kernels::Kernel &K : kernels::allKernels())
    N.push_back(K.Name);
  return N;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, VerifyKernelTest,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

//===--- Alignment analysis ------------------------------------------------===//

TEST(VerifyAlignment, UnprovableAlignedLoadIsFlagged) {
  Function F("t");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 4);
  IrBuilder B(F);
  B.aload(A, P); // Arbitrary index, 4-byte base: never provably aligned.

  Report R = verifyModule(F, sseOnly());
  EXPECT_FALSE(R.ok()) << R.str();
  EXPECT_TRUE(hasDiag(R, Check::Alignment, Severity::Error, "aload"))
      << R.str();
  EXPECT_EQ(R.ObligationsFailed, 1u);
}

TEST(VerifyAlignment, AlignedBaseConstIndexProves) {
  Function F("t");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  B.aload(A, B.constIdx(8));

  Report R = verifyModule(F); // All five targets.
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.ObligationsFailed, 0u) << R.str();
}

TEST(VerifyAlignment, MisalignedConstIndexIsFlagged) {
  Function F("t");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  B.aload(A, B.constIdx(1)); // One element past an aligned base.

  Report R = verifyModule(F, sseOnly());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Alignment, Severity::Error, "residue"))
      << R.str();
}

TEST(VerifyAlignment, GuardAssumptionDischargesUnalignedBase) {
  // if (bases_aligned(a)) astore a[0]  -- provable only inside the arm.
  Function F("t");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 4);
  IrBuilder B(F);
  ValueId V = B.initUniform(B.constFP(ScalarKind::F32, 1.0));
  ValueId G = B.versionGuard(GuardKind::BasesAligned, {A});
  uint32_t If = B.beginIf(G);
  B.astore(A, B.constIdx(0), V);
  B.beginElse(If);
  B.ustore(A, B.constIdx(0), V, AlignHint{});
  B.endIf(If);

  Report R = verifyModule(F);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(VerifyAlignment, ScalarTargetHasNoObligations) {
  Function F("t");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 4);
  IrBuilder B(F);
  B.aload(A, P);

  VerifyOptions O;
  O.Targets = {target::scalarTarget()};
  Report R = verifyModule(F, O);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.ObligationsProved + R.ObligationsFailed, 0u);
}

//===--- Hint consistency --------------------------------------------------===//

TEST(VerifyHints, LyingMisClaimIsFlagged) {
  Function F("t");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  ValueId V = B.initUniform(B.constFP(ScalarKind::F32, 1.0));
  // Actual residue is 1 element; hint claims perfectly aligned.
  B.ustore(A, B.constIdx(1), V, AlignHint{0, 32, false});

  Report R = verifyModule(F, sseOnly());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::HintConsistency, Severity::Error))
      << R.str();
}

TEST(VerifyHints, TruthfulMisClaimIsAccepted) {
  Function F("t");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  ValueId V = B.initUniform(B.constFP(ScalarKind::F32, 1.0));
  B.ustore(A, B.constIdx(1), V, AlignHint{4, 32, false});

  Report R = verifyModule(F);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(VerifyHints, NonReferenceModulusIsFlagged) {
  Function F("t");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  ValueId V = B.initUniform(B.constFP(ScalarKind::F32, 1.0));
  B.ustore(A, B.constIdx(0), V, AlignHint{0, 16, false});

  Report R = verifyModule(F, sseOnly());
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::HintConsistency, Severity::Error,
                      "reference modulus"))
      << R.str();
}

TEST(VerifyHints, OverclaimedMaxSafeVFIsFlagged) {
  Function F("t");
  F.IsSplitLayer = true;
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  ValueId X = B.aload(A, B.add(L.indVar(), B.constIdx(2)));
  B.astore(A, L.indVar(), X);
  B.endLoop(L);
  F.Loops[L.LoopIdx].Role = LoopRole::VecMain;
  F.Loops[L.LoopIdx].MaxSafeVF = 8; // Real dependence distance is 2.

  Report R = verifyModule(F, sseOnly());
  EXPECT_TRUE(hasDiag(R, Check::HintConsistency, Severity::Error,
                      "max_safe_vf 8"))
      << R.str();
}

//===--- Idiom chains ------------------------------------------------------===//

TEST(VerifyIdioms, RealignTokenOfWrongArrayIsFlagged) {
  Function F("t");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  uint32_t Bb = F.addArray("b", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  ValueId V1 = B.alignLoad(A, B.constIdx(0));
  ValueId V2 = B.alignLoad(A, B.constIdx(8));
  ValueId RT = B.getRT(Bb, B.constIdx(0), AlignHint{}); // Wrong array.
  B.realignLoad(V1, V2, RT, A, B.constIdx(0), AlignHint{});

  Report R = verifyModule(F, sseOnly());
  EXPECT_TRUE(hasDiag(R, Check::IdiomChains, Severity::Error, "get_rt"))
      << R.str();
}

TEST(VerifyIdioms, UnpairedWidenMultIsWarned) {
  Function F("t");
  F.IsSplitLayer = true;
  F.addArray("a", ScalarKind::I16, 512, 32);
  IrBuilder B(F);
  ValueId V = B.initUniform(B.constInt(ScalarKind::I16, 3));
  B.widenMultLo(V, V); // No matching widen_mult_hi: lanes dropped.

  Report R = verifyModule(F, sseOnly());
  EXPECT_TRUE(
      hasDiag(R, Check::IdiomChains, Severity::Warning, "widen_mult_hi"))
      << R.str();
}

//===--- Guard analysis ----------------------------------------------------===//

TEST(VerifyGuards, DanglingGuardIsWarned) {
  Function F("t");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 4);
  IrBuilder B(F);
  B.versionGuard(GuardKind::BasesAligned, {A}); // Result unused.

  Report R = verifyModule(F, sseOnly());
  EXPECT_TRUE(hasDiag(R, Check::Guards, Severity::Warning, "never"))
      << R.str();
}

//===--- Scenario walk -----------------------------------------------------===//
//
// The walk forks a scenario at every undecided min/max, copies the state
// into every loop body and if arm, and names each unprovable access by the
// first scenario that failed it. These tests pin that behaviour: the exact
// path of a failing scenario, that a binding never leaks out of the arm,
// branch or loop body that made it, and the scenario budget's clamp.

/// The alignment error on instruction \p Idx for \p Tgt, or "".
std::string alignmentError(const Report &R, uint32_t Idx,
                           const std::string &Tgt = "sse") {
  for (const Diagnostic &D : R.Diags)
    if (D.Analysis == Check::Alignment && D.Sev == Severity::Error &&
        D.InstrIdx == Idx && D.Target == Tgt)
      return D.Why;
  return "";
}

/// The instruction that defines \p V.
uint32_t defOf(const Function &F, ValueId V) { return F.Values[V].A; }

TEST(VerifyScenarios, TopLevelFailureReportsTopScenario) {
  Function F("t");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 4);
  IrBuilder B(F);
  ValueId X = B.aload(A, P);

  Report R = verifyModule(F, sseOnly());
  EXPECT_EQ(alignmentError(R, defOf(F, X)),
            "cannot prove 16B alignment of aload #" +
                std::to_string(defOf(F, X)) + " on array 'a'; scenario <top>")
      << R.str();
}

TEST(VerifyScenarios, ForkInLoopInAlignedArmReportsItsPath) {
  // if (bases_aligned(a)) for (i = 0; i < n; ++i) aload a[min(p, i)]:
  // unprovable in both scenarios of the min; the first one walked (p >= i,
  // so the min is i) is the one reported.
  Function F("t");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 4);
  IrBuilder B(F);
  ValueId G = B.versionGuard(GuardKind::BasesAligned, {A});
  uint32_t If = B.beginIf(G);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  ValueId M = B.smin(P, L.indVar());
  ValueId X = B.aload(A, M);
  B.endLoop(L);
  B.beginElse(If);
  B.endIf(If);

  Report R = verifyModule(F, sseOnly());
  EXPECT_EQ(alignmentError(R, defOf(F, X)),
            "cannot prove 16B alignment of aload #" +
                std::to_string(defOf(F, X)) + " on array 'a'; scenario " +
                "/aligned" + std::to_string(If) + "/L" +
                std::to_string(L.LoopIdx) + "/i" +
                std::to_string(defOf(F, M)) + "+")
      << R.str();
  EXPECT_EQ(R.ObligationsFailed, 1u);
}

TEST(VerifyScenarios, AlignedArmAssumptionStaysInItsArm) {
  // The guarded arm may assume a 16B-aligned base; the fall-back arm and
  // the code after the if may not. A leaked assumption would prove all
  // three accesses.
  Function F("t");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 4);
  IrBuilder B(F);
  ValueId Zero = B.constIdx(0);
  ValueId G = B.versionGuard(GuardKind::BasesAligned, {A});
  uint32_t If = B.beginIf(G);
  ValueId InArm = B.aload(A, Zero);
  B.beginElse(If);
  ValueId InFallback = B.aload(A, Zero);
  B.endIf(If);
  ValueId After = B.aload(A, Zero);

  Report R = verifyModule(F, sseOnly());
  EXPECT_EQ(alignmentError(R, defOf(F, InArm)), "") << R.str();
  EXPECT_NE(alignmentError(R, defOf(F, InFallback))
                .find("; scenario /fallback" + std::to_string(If)),
            std::string::npos)
      << R.str();
  EXPECT_NE(alignmentError(R, defOf(F, After)).find("; scenario <top>"),
            std::string::npos)
      << R.str();
  EXPECT_EQ(R.ObligationsProved, 1u);
  EXPECT_EQ(R.ObligationsFailed, 2u);
}

TEST(VerifyScenarios, IfArmSignChoiceStaysInItsArm) {
  // Each arm splits on p - 8 itself. Had the then-arm's choice (p >= 8,
  // so min(p, 8) = 8) leaked into the else arm, its access would prove.
  Function F("t");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  ValueId C8 = B.constIdx(8);
  uint32_t If = B.beginIf(B.cmp(Opcode::CmpLT, P, N));
  ValueId MThen = B.smin(P, C8);
  ValueId XThen = B.aload(A, MThen);
  B.beginElse(If);
  ValueId MElse = B.smin(P, C8);
  ValueId XElse = B.aload(A, MElse);
  B.endIf(If);

  Report R = verifyModule(F, sseOnly());
  const std::string I = std::to_string(If);
  EXPECT_NE(alignmentError(R, defOf(F, XThen))
                .find("; scenario /then" + I + "/i" +
                      std::to_string(defOf(F, MThen)) + "-"),
            std::string::npos)
      << R.str();
  EXPECT_NE(alignmentError(R, defOf(F, XElse))
                .find("; scenario /else" + I + "/i" +
                      std::to_string(defOf(F, MElse)) + "-"),
            std::string::npos)
      << R.str();
  EXPECT_EQ(R.ObligationsFailed, 2u);
}

TEST(VerifyScenarios, ForkBranchesKeepTheirOwnBindings) {
  // m = min(8, p) forks on 8 - p: the "+" branch binds m = p (unprovable),
  // the "-" branch m = 8 (provable). m2 = max(8, p) reuses each branch's
  // choice: 8 under "+", p under "-". Either branch reading the other's
  // binding or choice would prove an access that must fail.
  Function F("t");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  ValueId C8 = B.constIdx(8);
  ValueId M = B.smin(C8, P);
  ValueId X = B.aload(A, M);
  ValueId M2 = B.smax(C8, P);
  ValueId X2 = B.aload(A, M2);

  Report R = verifyModule(F, sseOnly());
  const std::string Fork = "; scenario /i" + std::to_string(defOf(F, M));
  EXPECT_NE(alignmentError(R, defOf(F, X)).find(Fork + "+"),
            std::string::npos)
      << R.str();
  EXPECT_NE(alignmentError(R, defOf(F, X2)).find(Fork + "-"),
            std::string::npos)
      << R.str();
  EXPECT_EQ(R.ObligationsFailed, 2u);
}

TEST(VerifyScenarios, ReportCountsTheForksItWalked) {
  // One split on 8 - p, which the max then reuses: one fork per SIMD
  // target, none when the budget leaves no room for a second scenario.
  Function F("t");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  ValueId C8 = B.constIdx(8);
  B.aload(A, B.smin(C8, P));
  B.aload(A, B.smax(C8, P));

  EXPECT_EQ(verifyModule(F, sseOnly()).ScenarioForks, 1u);
  size_t Simd = 0;
  for (const target::TargetDesc &T : target::allTargets())
    Simd += T.hasSimd();
  EXPECT_EQ(verifyModule(F).ScenarioForks, Simd);
  VerifyOptions O;
  O.ScenarioBudget = 1;
  EXPECT_EQ(verifyModule(F, O).ScenarioForks, 0u);
}

TEST(VerifyScenarios, LoopBodyForkDoesNotOutliveTheLoop) {
  // The body splits on p - 8; after the loop the same min must split
  // afresh. Had the body's "p >= 8" scenario survived the loop, the access
  // after it would read min(p, 8) = 8 and prove.
  Function F("t");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  ValueId C8 = B.constIdx(8);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  ValueId MIn = B.smin(P, C8);
  ValueId XIn = B.aload(A, MIn);
  B.endLoop(L);
  ValueId MAfter = B.smin(P, C8);
  ValueId XAfter = B.aload(A, MAfter);

  Report R = verifyModule(F, sseOnly());
  EXPECT_NE(alignmentError(R, defOf(F, XIn))
                .find("; scenario /L" + std::to_string(L.LoopIdx) + "/i" +
                      std::to_string(defOf(F, MIn)) + "-"),
            std::string::npos)
      << R.str();
  EXPECT_NE(alignmentError(R, defOf(F, XAfter))
                .find("; scenario /i" + std::to_string(defOf(F, MAfter)) +
                      "-"),
            std::string::npos)
      << R.str();
  EXPECT_EQ(R.ObligationsFailed, 2u);
}

TEST(VerifyScenarios, ExhaustedBudgetNotesOnceAndFailsTheClampedAccess) {
  // Both scenarios of min(8, 8p) and max(8, 8p) prove; with room for only
  // one scenario the walk may not fork, so both results turn opaque and
  // both accesses fail on every SIMD target, under one note per target.
  Function F("t");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  uint32_t A = F.addArray("a", ScalarKind::F32, 512, 32);
  IrBuilder B(F);
  ValueId C8 = B.constIdx(8);
  ValueId Q = B.mul(P, C8);
  B.aload(A, B.smin(C8, Q));
  B.aload(A, B.smax(C8, Q));

  Report Full = verifyModule(F);
  EXPECT_TRUE(Full.ok()) << Full.str();
  EXPECT_EQ(Full.ObligationsFailed, 0u) << Full.str();

  VerifyOptions O;
  O.ScenarioBudget = 1;
  Report R = verifyModule(F, O);
  EXPECT_FALSE(R.ok());
  size_t Simd = 0;
  for (const target::TargetDesc &T : target::allTargets()) {
    size_t Notes = 0;
    for (const Diagnostic &D : R.Diags)
      Notes += D.Sev == Severity::Note && D.Target == T.Name &&
               D.Why.find("scenario budget exhausted") != std::string::npos;
    EXPECT_EQ(Notes, T.hasSimd() ? 1u : 0u) << T.Name << "\n" << R.str(true);
    Simd += T.hasSimd();
  }
  EXPECT_EQ(R.ObligationsFailed, 2 * Simd) << R.str();
  EXPECT_EQ(R.ObligationsProved, 0u) << R.str();
}

//===--- Structure gating --------------------------------------------------===//

TEST(VerifyStructure, MalformedModuleStopsAtStructure) {
  Function F("bad");
  F.IsSplitLayer = true;
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  Instr I;
  I.Op = Opcode::Add;
  I.Ops = {P}; // Wrong operand count.
  I.Ty = Type::scalar(ScalarKind::I64);
  B.emit(std::move(I));

  Report R = verifyModule(F, sseOnly());
  EXPECT_FALSE(R.ok());
  for (const Diagnostic &D : R.Diags)
    EXPECT_EQ(D.Analysis, Check::Structure) << D.str();
}

} // namespace
