//===- tests/pipeline_test.cpp - System-level property tests --------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Properties of the whole pipeline that correspond to the paper's four
// stated sub-goals (Sec. I): performance competitive with native
// compilation, negligible JIT compilation time, low overhead for scalar
// execution, and bytecode compaction.
//
//===----------------------------------------------------------------------===//

#include "target/Iaca.h"
#include "vapor/Pipeline.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::kernels;

namespace {

/// Sub-goal "low overhead for scalar execution": on a machine without
/// SIMD, executing the *vectorized* bytecode (scalar-expanded by the JIT)
/// must stay close to executing plain scalar bytecode. The residual
/// overhead comes from multi-step conversion chains and epilogue
/// structure; it must never balloon.
TEST(PipelinePropertyTest, ScalarExecutionOverheadBounded) {
  RunOptions O;
  O.Target = target::scalarTarget();
  for (const Kernel &K : allKernels()) {
    uint64_t Vec = runKernel(K, Flow::SplitVectorized, O).Cycles;
    uint64_t Sca = runKernel(K, Flow::SplitScalar, O).Cycles;
    EXPECT_LE(Vec, Sca * 17 / 10)
        << K.Name << ": scalarized-vector " << Vec << " vs scalar " << Sca;
  }
}

/// Sub-goal "performance competitive with native compilation": the strong
/// online compiler must stay within a modest factor of the monolithic
/// baseline on every kernel and every execution target (the paper's
/// Fig. 6 clusters around 1x).
TEST(PipelinePropertyTest, SplitWithinFactorOfNative) {
  for (const auto &T : {target::sseTarget(), target::altivecTarget(),
                        target::neonTarget()}) {
    RunOptions O;
    O.Target = T;
    for (const Kernel &K : allKernels()) {
      uint64_t Split = runKernel(K, Flow::SplitVectorized, O).Cycles;
      uint64_t Native = runKernel(K, Flow::NativeVectorized, O).Cycles;
      EXPECT_LE(Split, Native * 14 / 10)
          << K.Name << " on " << T.Name << ": split " << Split
          << " vs native " << Native;
    }
  }
}

/// Vectorization must pay off: on a vector target, split-vectorized code
/// beats split-scalar code for every kernel the vectorizer transformed.
TEST(PipelinePropertyTest, VectorizationProfitableOnSse) {
  RunOptions O;
  O.Target = target::sseTarget();
  for (const Kernel &K : allKernels()) {
    RunOutcome Vec = runKernel(K, Flow::SplitVectorized, O);
    if (!Vec.AnyLoopVectorized)
      continue;
    uint64_t Sca = runKernel(K, Flow::SplitScalar, O).Cycles;
    EXPECT_LT(Vec.Cycles, Sca) << K.Name;
  }
}

/// Sub-goal "bytecode compaction" (measured as growth): vectorized
/// bytecode grows, but within sane bounds (the paper reports ~5x average;
/// individual kernels vary with versioning and peel structure).
TEST(PipelinePropertyTest, BytecodeGrowthBounded) {
  RunOptions O;
  double Sum = 0;
  unsigned Count = 0;
  for (const Kernel &K : allKernels()) {
    RunOutcome Vec = runKernel(K, Flow::SplitVectorized, O);
    if (!Vec.AnyLoopVectorized)
      continue;
    uint64_t Sca = runKernel(K, Flow::SplitScalar, O).BytecodeBytes;
    double Ratio = static_cast<double>(Vec.BytecodeBytes) / Sca;
    EXPECT_GE(Ratio, 1.5) << K.Name;
    EXPECT_LE(Ratio, 16.0) << K.Name;
    Sum += Ratio;
    ++Count;
  }
  double Avg = Sum / Count;
  EXPECT_GE(Avg, 3.0);
  EXPECT_LE(Avg, 8.0);
}

/// The IACA analyzer must find a vector main loop in every kernel the
/// vectorizer handled when compiled for AVX (Table 3's precondition).
TEST(PipelinePropertyTest, IacaFindsVectorLoops) {
  RunOptions O;
  O.Target = target::avxTarget();
  for (const char *Name : {"dissolve_fp", "sfir_fp", "interp_fp", "mmm_fp",
                           "saxpy_fp", "dscal_fp", "saxpy_dp", "dscal_dp"}) {
    RunOutcome Out = runKernel(kernelByName(Name), Flow::SplitVectorized, O);
    ASSERT_NE(Out.Compiled, nullptr) << Name;
    target::IacaReport R =
        target::analyzeVectorLoop(Out.Compiled->Code, O.Target);
    EXPECT_TRUE(R.Found) << Name;
    EXPECT_GE(R.Cycles, 1u) << Name;
  }
}

/// The weak tier never beats the strong tier, and the legacy codegen
/// profile never beats the modern one.
TEST(PipelinePropertyTest, TierAndProfileOrdering) {
  for (const char *Name : {"saxpy_fp", "sfir_s16", "convolve_s32"}) {
    Kernel K = kernelByName(Name);
    RunOptions Strong;
    Strong.Target = target::sseTarget();
    RunOptions Weak = Strong;
    Weak.Tier = jit::Tier::Weak;
    RunOptions Legacy = Strong;
    Legacy.FoldAddressing = false;
    Legacy.PromoteAccumulators = false;
    uint64_t CS = runKernel(K, Flow::SplitVectorized, Strong).Cycles;
    uint64_t CW = runKernel(K, Flow::SplitVectorized, Weak).Cycles;
    uint64_t CL = runKernel(K, Flow::SplitVectorized, Legacy).Cycles;
    EXPECT_LE(CS, CW) << Name;
    EXPECT_LE(CS, CL) << Name;
  }
}

/// Determinism: two identical runs produce identical cycle counts (the
/// whole harness is a deterministic model — figures are reproducible).
TEST(PipelinePropertyTest, RunsAreDeterministic) {
  Kernel K = kernelByName("convolve_s32");
  RunOptions O;
  O.Target = target::altivecTarget();
  uint64_t A = runKernel(K, Flow::SplitVectorized, O).Cycles;
  uint64_t B = runKernel(K, Flow::SplitVectorized, O).Cycles;
  EXPECT_EQ(A, B);
}

/// Scalar flows are tier-insensitive in outcome and exactly match the
/// native scalar baseline under the strong tier (same codegen).
TEST(PipelinePropertyTest, ScalarFlowsAgree) {
  Kernel K = kernelByName("dscal_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  uint64_t SplitSca = runKernel(K, Flow::SplitScalar, O).Cycles;
  uint64_t NativeSca = runKernel(K, Flow::NativeScalar, O).Cycles;
  EXPECT_EQ(SplitSca, NativeSca);
}

TEST(PipelinePropertyTest, FlowNamesStable) {
  EXPECT_STREQ(flowName(Flow::SplitVectorized), "split-vectorized");
  EXPECT_STREQ(flowName(Flow::NativeScalar), "native-scalar");
}

} // namespace
