//===- tests/external_buffers_test.cpp - Misaligned external buffers ------===//
//
// Part of the Vapor SIMD reproduction.
//
// A misaligned placement only reaches the arrays the embedding
// application supplies (Kernel::ExternalArrays), so these cases run over
// exactly the kernels that have such arrays: the split-vectorized flow
// must stay golden-exact, and the native tier bit-exact against the VM.
// The suite and instantiation names are those of kernels_test.cpp and
// codegen_test.cpp, which ran these cases over every kernel and skipped
// the rest; keeping them keeps each case's test id.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeJit.h"
#include "vapor/Pipeline.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace vapor;
using namespace vapor::kernels;

namespace {

std::vector<std::string> externalKernelNames() {
  std::vector<std::string> Names;
  for (const Kernel &K : allKernels())
    if (!K.ExternalArrays.empty())
      Names.push_back(K.Name);
  return Names;
}

std::string paramName(const ::testing::TestParamInfo<std::string> &Info) {
  std::string N = Info.param;
  for (char &C : N)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return N;
}

// A registry change that drops (or adds) a kernel with external arrays
// must show here, not as a suite that silently instantiates fewer cases.
TEST(ExternalKernelsTest, ExactlyTheSixKernelsWithExternalArrays) {
  EXPECT_EQ(externalKernelNames(),
            (std::vector<std::string>{"sad_s8", "mix_streams_s16", "ssv_u8",
                                      "ssv_s8", "vit_s16", "vit_u16"}));
}

class KernelSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelSuiteTest, MisalignedExternalBuffersStayCorrect) {
  Kernel K = kernelByName(GetParam());
  RunOptions O;
  O.Target = target::sseTarget();
  O.ExternalMisalign = 8;
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSuiteTest,
                         ::testing::ValuesIn(externalKernelNames()),
                         paramName);

class NativeKernelTest : public ::testing::TestWithParam<std::string> {};

// Misaligned external buffers push the JIT down its unaligned/versioned
// lowering paths (realignment tokens, vperm, peeling) -- the native
// encodings for all of those must still match the VM bit for bit: the
// full memory images (every element, pad byte and alignment gap) agree.
TEST_P(NativeKernelTest, BitExactUnderMisalignedExternals) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  Kernel K = kernelByName(GetParam());
  for (uint32_t Mis : {4u, 8u}) {
    RunOptions O;
    O.Target = target::sseTarget();
    O.ExternalMisalign = Mis;
    O.UseNative = true;
    RunOutcome Native = runKernel(K, Flow::SplitVectorized, O);
    O.UseNative = false;
    RunOutcome Vm = runKernel(K, Flow::SplitVectorized, O);
    std::string What = K.Name + " mis=" + std::to_string(Mis);
    ASSERT_EQ(Native.Tier, ExecTier::Native)
        << What << " demoted: "
        << (Native.Demotions.empty() ? "?" : Native.Demotions[0].str());
    ASSERT_TRUE(Native.Mem && Vm.Mem) << What;
    ASSERT_EQ(Native.Mem->highAddr(), Vm.Mem->highAddr()) << What;
    size_t Size = Native.Mem->highAddr() - Native.Mem->lowAddr();
    EXPECT_EQ(std::memcmp(Native.Mem->data(), Vm.Mem->data(), Size), 0)
        << What << ": native and VM memory images differ";
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, NativeKernelTest,
                         ::testing::ValuesIn(externalKernelNames()),
                         paramName);

} // namespace
