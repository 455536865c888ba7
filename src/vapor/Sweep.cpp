//===- vapor/Sweep.cpp - Shared kernel x target sweep driver ----------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "vapor/Sweep.h"

#include "support/ThreadPool.h"
#include "vapor/Pipeline.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

using namespace vapor;

bool sweep::parseJobs(const char *Text, unsigned &Out) {
  if (!Text || !*Text)
    return false;
  // strtol accepts leading whitespace and a sign; neither is a jobs
  // count. Reject everything but plain digits up front so "-1", " 4",
  // and "abc" all fail instead of folding to something surprising.
  for (const char *P = Text; *P; ++P)
    if (!std::isdigit(static_cast<unsigned char>(*P)))
      return false;
  errno = 0;
  char *End = nullptr;
  long N = std::strtol(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || N < 0 || N > INT_MAX)
    return false;
  Out = N == 0 ? 1u : static_cast<unsigned>(N);
  return true;
}

unsigned sweep::defaultJobs() {
  if (const char *Env = std::getenv("VAPOR_JOBS")) {
    unsigned N = 0;
    if (parseJobs(Env, N))
      return N;
  }
  return support::ThreadPool::defaultWorkerCount();
}

const kernels::Kernel *
sweep::kernelByNameOrNull(const std::vector<kernels::Kernel> &All,
                          const std::string &Name) {
  for (const kernels::Kernel &K : All)
    if (K.Name == Name)
      return &K;
  return nullptr;
}

const target::TargetDesc *
sweep::targetByNameOrNull(const std::vector<target::TargetDesc> &All,
                          const std::string &Name) {
  for (const target::TargetDesc &T : All)
    if (T.Name == Name)
      return &T;
  return nullptr;
}

sweep::SplitNativeCell
sweep::splitOverNativeCell(const kernels::Kernel &K,
                           const target::TargetDesc &T) {
  RunOptions O;
  O.Target = T;
  O.Tier = jit::Tier::Strong;
  RunOutcome Split = runKernel(K, Flow::SplitVectorized, O);
  RunOutcome Native = runKernel(K, Flow::NativeVectorized, O);
  SplitNativeCell C;
  C.SplitCycles = Split.Cycles;
  C.NativeCycles = Native.Cycles;
  C.Scalarized = Split.Scalarized;
  return C;
}
