//===- tests/executor_test.cpp - Degradation-chain unit tests -------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Exercises every demotion edge of the fault-tolerant executor
// (vapor/Executor.h) under deterministic fault injection, and audits
// that no abort() is reachable from runKernel for any injected fault —
// the property the crashtest sweep (tools/vapor-crashtest) then scales
// to every kernel x target x site.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "support/FaultInject.h"
#include "vapor/Executor.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::kernels;
using faultinject::ScopedFault;
using faultinject::SiteClass;

namespace {

Kernel kernelByName(const std::string &Name) {
  for (Kernel &K : allKernels())
    if (K.Name == Name)
      return K;
  ADD_FAILURE() << "missing kernel " << Name;
  return allKernels().front();
}

/// Runs split-vectorized on sse and checks the result against golden.
RunOutcome runChecked(const Kernel &K) {
  RunOptions O;
  O.Target = target::sseTarget();
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
  return Out;
}

//===--- Clean runs -------------------------------------------------------===//

TEST(ExecutorTest, CleanRunExecutesAtVectorizedTier) {
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::Vectorized);
  EXPECT_TRUE(Out.Demotions.empty());
  EXPECT_EQ(Out.Retries, 0u);
  EXPECT_GT(Out.Cycles, 0u);
}

TEST(ExecutorTest, CleanRunCyclesMatchPreExecutorPath) {
  // The executor must be a pure refactor for clean runs: deterministic
  // cycle model, so two runs agree exactly.
  const Kernel K = kernelByName("sfir_fp");
  RunOptions O;
  O.Target = target::avxTarget();
  uint64_t A = runKernel(K, Flow::SplitVectorized, O).Cycles;
  uint64_t B = runKernel(K, Flow::SplitVectorized, O).Cycles;
  EXPECT_EQ(A, B);
}

TEST(ExecutorTest, SplitScalarFlowReportsScalarBytecodeTier) {
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  RunOutcome Out = runKernel(K, Flow::SplitScalar, O);
  EXPECT_EQ(Out.Tier, ExecTier::ScalarBytecode);
  EXPECT_TRUE(Out.Demotions.empty());
}

//===--- One edge per test ------------------------------------------------===//

TEST(ExecutorTest, VerifyFailureDemotesToScalarJit) {
  ScopedFault F(SiteClass::Verify);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Verify);
  EXPECT_EQ(Out.Demotions[0].code(), status::Code::VerificationFailed);
  EXPECT_TRUE(Out.Scalarized); // Forced-scalar code actually ran.
  EXPECT_EQ(Out.Retries, 0u);  // A demotion, not a deopt retry.
}

TEST(ExecutorTest, JitFailureDemotesToScalarJit) {
  ScopedFault F(SiteClass::JitLower);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  // The module decoded, so the forced-scalar re-JIT of it runs next.
  EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Jit);
  EXPECT_EQ(Out.Demotions[0].code(), status::Code::UnsupportedIdiom);
  EXPECT_TRUE(Out.Scalarized);
  EXPECT_EQ(Out.Retries, 0u);
}

TEST(ExecutorTest, VmTrapDeoptimizesToScalarJitAndCountsRetry) {
  ScopedFault F(SiteClass::VmAlign);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
  EXPECT_EQ(Out.Retries, 1u);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Vm);
  EXPECT_EQ(Out.Demotions[0].code(), status::Code::AlignmentTrap);
  // The Vm-layer Status carries the structured trap rendering.
  EXPECT_NE(Out.Demotions[0].context().find("alignment trap"),
            std::string::npos);
}

TEST(ExecutorTest, DecodeFailureDemotesToScalarBytecode) {
  ScopedFault F(SiteClass::Decode);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  // One-shot fault: the scalar re-encode decodes fine.
  EXPECT_EQ(Out.Tier, ExecTier::ScalarBytecode);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Bytecode);
}

TEST(ExecutorTest, StickyDecodeFailureFallsBackToInterpreter) {
  ScopedFault F(SiteClass::Decode, 0, /*Sticky=*/true);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::Interpreter);
  ASSERT_EQ(Out.Demotions.size(), 2u); // Vectorized + scalar decode.
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Bytecode);
  EXPECT_EQ(Out.Demotions[1].layer(), status::Layer::Bytecode);
  EXPECT_GT(Out.Cycles, 0u); // The dynamic-op proxy still reports cost.
  EXPECT_EQ(Out.BytecodeBytes, 0u); // No JIT consumed any bytecode.
}

TEST(ExecutorTest, StickyJitFailureFallsBackToInterpreter) {
  ScopedFault F(SiteClass::JitLower, 0, /*Sticky=*/true);
  RunOutcome Out = runChecked(kernelByName("saxpy_fp"));
  EXPECT_EQ(Out.Tier, ExecTier::Interpreter);
  ASSERT_EQ(Out.Demotions.size(), 3u); // Vectorized, ScalarJit, scalar.
  for (const status::Status &St : Out.Demotions)
    EXPECT_EQ(St.layer(), status::Layer::Jit);
}

//===--- One chain for both flows -----------------------------------------===//

std::vector<status::Layer> layersOf(const RunOutcome &Out) {
  std::vector<status::Layer> L;
  for (const status::Status &St : Out.Demotions)
    L.push_back(St.layer());
  return L;
}

// saxpy_fp through runKernel (trusted kernel flow) and through
// runEncodedModule (fail-closed server flow) under the same fault. The
// flows share every edge down to ScalarJit, so wherever the kernel flow
// stops there the server flow reads the same tier, demotion layers and
// retries. Only a fault that also breaks ScalarJit tells them apart:
// the kernel flow goes on down the chain, the server flow stops with a
// Terminal Status.
TEST(ExecutorTest, KernelAndServerFlowsShareOneChain) {
  const Kernel K = kernelByName("saxpy_fp");
  ModuleWorkload W;
  W.Name = K.Name;
  W.Bytecode = bytecode::encode(vectorizer::vectorize(K.Source).Output);
  W.IntParams = K.IntParams;
  W.FPParams = K.FPParams;
  Kernel Golden = K; // The server flow fills with the seeded default.
  Golden.Fill = [Seed = W.FillSeed](FillSink &Sink, const ir::Function &F) {
    defaultFill(Sink, F, Seed);
  };

  struct Row {
    SiteClass Class;
    bool Sticky;
    ExecTier KernelTier;
  };
  const Row Rows[] = {
      {SiteClass::Verify, false, ExecTier::ScalarJit},
      {SiteClass::JitLower, false, ExecTier::ScalarJit},
      {SiteClass::VmAlign, false, ExecTier::ScalarJit},
      // The gate and the trap do not fire on forced-scalar code.
      {SiteClass::Verify, true, ExecTier::ScalarJit},
      {SiteClass::VmAlign, true, ExecTier::ScalarJit},
      {SiteClass::JitLower, true, ExecTier::Interpreter},
  };
  for (const Row &R : Rows) {
    SCOPED_TRACE(std::string(faultinject::siteClassName(R.Class)) +
                 (R.Sticky ? " sticky" : " one-shot"));
    RunOutcome Kern, Serv;
    {
      ScopedFault F(R.Class, 0, R.Sticky);
      Kern = runChecked(K);
    }
    {
      ScopedFault F(R.Class, 0, R.Sticky);
      Serv = runEncodedModule(W, RunOptions());
    }
    EXPECT_EQ(Kern.Tier, R.KernelTier);
    EXPECT_TRUE(Kern.Terminal.ok()) << Kern.Terminal.str();
    ASSERT_FALSE(Kern.Demotions.empty());
    if (R.KernelTier == ExecTier::ScalarJit) {
      ASSERT_TRUE(Serv.Terminal.ok()) << Serv.Terminal.str();
      EXPECT_EQ(Serv.Tier, Kern.Tier);
      EXPECT_EQ(layersOf(Serv), layersOf(Kern));
      EXPECT_EQ(Serv.Retries, Kern.Retries);
      std::string Err;
      EXPECT_TRUE(checkAgainstGolden(Golden, Serv, Err)) << Err;
    } else {
      // The server flow fails closed at ScalarJit on the same failure
      // that sent the kernel flow past it.
      EXPECT_FALSE(Serv.Terminal.ok());
      EXPECT_EQ(Serv.Tier, ExecTier::ScalarJit);
      EXPECT_EQ(Serv.Terminal.layer(), Kern.Demotions[1].layer());
      EXPECT_EQ(layersOf(Serv),
                std::vector<status::Layer>{Kern.Demotions[0].layer()});
      EXPECT_EQ(Serv.Retries, Kern.Retries);
    }
  }
}

//===--- Chain composition ------------------------------------------------===//

TEST(ExecutorTest, InterpreterTierMatchesGoldenOnEveryKernel) {
  // The bottom tier must hold the golden contract for all kernels, since
  // it is what every other failure ultimately lands on.
  ScopedFault F(SiteClass::Decode, 0, /*Sticky=*/true);
  for (const Kernel &K : allKernels()) {
    RunOptions O;
    O.Target = target::sseTarget();
    RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
    EXPECT_EQ(Out.Tier, ExecTier::Interpreter) << K.Name;
    std::string Err;
    EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
  }
}

TEST(ExecutorTest, DeoptRetainsCorrectResultsUnderMisalignedExternals) {
  // A runtime trap with externally misaligned buffers: the deoptimized
  // scalar re-JIT must still produce golden-exact results in the same
  // (misaligned) memory layout.
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  O.ExternalMisalign = 4;
  ScopedFault F(SiteClass::VmAlign);
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
  EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
  EXPECT_EQ(Out.Retries, 1u);
}

TEST(ExecutorTest, CompileMicrosAccumulatesAcrossRetries) {
  const Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  RunOutcome Clean = runKernel(K, Flow::SplitVectorized, O);
  ScopedFault F(SiteClass::VmAlign);
  RunOutcome Deopt = runKernel(K, Flow::SplitVectorized, O);
  // Two compiles happened; wall time is noisy, so only assert presence.
  EXPECT_GT(Deopt.CompileMicros, 0.0);
  EXPECT_GT(Clean.CompileMicros, 0.0);
}

//===--- Honest reporting -------------------------------------------------===//

TEST(ExecutorTest, GoldenMismatchErrorNamesTheExecutedTier) {
  const Kernel K = kernelByName("saxpy_fp");
  RunOutcome Out = runChecked(K);
  // Corrupt one output element so the golden check fails, then confirm
  // the error string names the tier that produced the results.
  Out.Mem->pokeFP(0, 0, 12345678.0);
  std::string Err;
  ASSERT_FALSE(checkAgainstGolden(K, Out, Err));
  EXPECT_NE(Err.find("[tier vectorized]"), std::string::npos) << Err;

  ScopedFault F(SiteClass::Verify);
  RunOutcome Demoted = runChecked(K);
  Demoted.Mem->pokeFP(0, 0, 12345678.0);
  ASSERT_FALSE(checkAgainstGolden(K, Demoted, Err));
  EXPECT_NE(Err.find("[tier scalar-jit]"), std::string::npos) << Err;
}

TEST(ExecutorTest, TierNamesAreStable) {
  EXPECT_STREQ(tierName(ExecTier::Vectorized), "vectorized");
  EXPECT_STREQ(tierName(ExecTier::ScalarJit), "scalar-jit");
  EXPECT_STREQ(tierName(ExecTier::ScalarBytecode), "scalar-bytecode");
  EXPECT_STREQ(tierName(ExecTier::Interpreter), "interpreter");
}

//===--- Death audit ------------------------------------------------------===//

// The point of the whole subsystem: no abort() is reachable from
// runKernel's split flows under any injected fault. Each case runs the
// full chain in a death-test-free process section; reaching the golden
// check alive IS the property. As a belt-and-braces audit, the sticky
// variants push through every demotion edge in one process.
TEST(ExecutorAbortAuditTest, NoAbortReachableUnderAnyInjectedFault) {
  const Kernel K = kernelByName("sfir_s16");
  for (SiteClass C : {SiteClass::Decode, SiteClass::Verify,
                      SiteClass::JitLower, SiteClass::VmAlign}) {
    for (bool Sticky : {false, true}) {
      ScopedFault F(C, 0, Sticky);
      for (const target::TargetDesc &T : target::allTargets()) {
        RunOptions O;
        O.Target = T;
        RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
        std::string Err;
        EXPECT_TRUE(checkAgainstGolden(K, Out, Err))
            << faultinject::siteClassName(C) << (Sticky ? " sticky" : "")
            << " on " << T.Name << ": " << Err;
      }
    }
  }
}

} // namespace
