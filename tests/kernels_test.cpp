//===- tests/kernels_test.cpp - Full-suite integration tests --------------===//
//
// Part of the Vapor SIMD reproduction.
//
// The repository's strongest correctness gate: every kernel of the paper's
// suite, compiled through every flow of Fig. 4, on every target, must
// reproduce the golden scalar semantics.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::kernels;

namespace {

std::vector<std::string> kernelNames() {
  std::vector<std::string> Names;
  for (const Kernel &K : allKernels())
    Names.push_back(K.Name);
  return Names;
}

class KernelSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelSuiteTest, SourceVerifies) {
  Kernel K = kernelByName(GetParam());
  EXPECT_TRUE(ir::verify(K.Source).empty());
  EXPECT_FALSE(K.Source.IsSplitLayer);
}

TEST_P(KernelSuiteTest, SplitVectorizedCorrectOnAllTargetsBothTiers) {
  Kernel K = kernelByName(GetParam());
  for (const auto &T : target::allTargets()) {
    for (jit::Tier Tier : {jit::Tier::Strong, jit::Tier::Weak}) {
      RunOptions O;
      O.Target = T;
      O.Tier = Tier;
      RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
      std::string Err;
      EXPECT_TRUE(checkAgainstGolden(K, Out, Err))
          << Err << " on " << T.Name << " tier "
          << (Tier == jit::Tier::Strong ? "strong" : "weak");
    }
  }
}

TEST_P(KernelSuiteTest, SplitScalarAndNativeFlowsCorrect) {
  Kernel K = kernelByName(GetParam());
  RunOptions O;
  O.Target = target::sseTarget();
  for (Flow F : {Flow::SplitScalar, Flow::NativeVectorized,
                 Flow::NativeScalar}) {
    RunOutcome Out = runKernel(K, F, O);
    std::string Err;
    EXPECT_TRUE(checkAgainstGolden(K, Out, Err))
        << Err << " flow " << flowName(F);
  }
}

// MisalignedExternalBuffersStayCorrect runs in external_buffers_test.cpp,
// over the kernels that have external arrays.

TEST_P(KernelSuiteTest, AblationRunStaysCorrect) {
  Kernel K = kernelByName(GetParam());
  RunOptions O;
  O.Target = target::altivecTarget(); // The most alignment-sensitive.
  O.VecOpts.EnableAlignmentOpts = false;
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSuiteTest,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

//===--- Suite-level expectations ----------------------------------------------//

TEST(KernelInventoryTest, MatchesPaperTable2) {
  // 16 paper Table 2 kernels, then the 4 striped saturating-DP kernels.
  auto Ks = table2Kernels();
  ASSERT_EQ(Ks.size(), 20u);
  EXPECT_EQ(Ks[0].Name, "dissolve_s8");
  EXPECT_EQ(Ks[15].Name, "saxpy_dp");
  EXPECT_EQ(Ks[16].Name, "ssv_u8");
  EXPECT_EQ(Ks[17].Name, "ssv_s8");
  EXPECT_EQ(Ks[18].Name, "vit_s16");
  EXPECT_EQ(Ks[19].Name, "vit_u16");
  auto Poly = polybenchKernels();
  EXPECT_EQ(Poly.size(), 16u);
  EXPECT_EQ(allKernels().size(), ExpectedKernelCount);
  EXPECT_EQ(Ks.size() + Poly.size(), ExpectedKernelCount);
}

TEST(KernelInventoryTest, VectorizationCoverage) {
  // Most of the suite must actually vectorize; seidel (and mix_streams
  // until the SLP pass runs) legitimately stay scalar.
  unsigned Vectorized = 0;
  std::vector<std::string> Stayed;
  for (const Kernel &K : allKernels()) {
    auto R = vectorizer::vectorize(K.Source);
    if (R.anyVectorized())
      ++Vectorized;
    else
      Stayed.push_back(K.Name);
  }
  std::string StayedList;
  for (const auto &S : Stayed)
    StayedList += S + " ";
  EXPECT_GE(Vectorized, 28u) << "non-vectorized: " << StayedList;
  // seidel must NOT vectorize: in-place distance-1 recurrence.
  auto Seidel = vectorizer::vectorize(kernelByName("seidel_fp").Source);
  EXPECT_FALSE(Seidel.anyVectorized());
}

TEST(KernelPerfTest, VectorizedKernelsBeatScalarOnSse) {
  // Spot-check the headline property on a few representative kernels.
  for (const char *Name :
       {"saxpy_fp", "dissolve_s8", "sfir_s16", "mmm_fp"}) {
    Kernel K = kernelByName(Name);
    RunOptions O;
    O.Target = target::sseTarget();
    uint64_t Vec = runKernel(K, Flow::SplitVectorized, O).Cycles;
    uint64_t Sca = runKernel(K, Flow::SplitScalar, O).Cycles;
    EXPECT_LT(Vec, Sca) << Name;
  }
}

TEST(KernelPerfTest, BytecodeGrowsWhenVectorized) {
  // Sec. V-A(c): vectorized bytecode is several times larger.
  Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  uint64_t VecBytes = runKernel(K, Flow::SplitVectorized, O).BytecodeBytes;
  uint64_t ScaBytes = runKernel(K, Flow::SplitScalar, O).BytecodeBytes;
  EXPECT_GT(VecBytes, 2 * ScaBytes);
}

} // namespace
