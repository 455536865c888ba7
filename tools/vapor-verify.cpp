//===- tools/vapor-verify.cpp - Split-bytecode verifier CLI ---------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Usage:
//   vapor-verify --all-kernels [--notes]
//   vapor-verify <kernel-name> [target-name] [--notes]
//
// Runs the offline vectorizer on the named kernel(s), pushes the result
// through the real encode/decode interchange path, and statically
// verifies the decoded module: alignment-safety proofs for every
// lowering strategy of every requested target, hint re-derivation, guard
// and idiom-chain analysis. Exit status is the number of modules with
// verification errors (0 = everything proved).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "kernels/Kernels.h"
#include "target/Target.h"
#include "vectorizer/Vectorizer.h"
#include "verify/Verify.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace vapor;

namespace {

/// Vectorize + encode + decode: exactly what the split pipeline hands to
/// an online compiler.
bool shipKernel(const kernels::Kernel &K, ir::Function &Out,
                size_t &Bytes) {
  auto VR = vectorizer::vectorize(K.Source, {});
  std::vector<uint8_t> Encoded = bytecode::encode(VR.Output);
  Bytes = Encoded.size();
  auto Decoded = bytecode::decode(Encoded);
  if (!Decoded) {
    std::printf("%-16s round-trip FAILED: %s\n", K.Name.c_str(),
                Decoded.status().str().c_str());
    return false;
  }
  Out = Decoded.take();
  return true;
}

int verifyOne(const kernels::Kernel &K, const verify::VerifyOptions &VO,
              bool Notes) {
  ir::Function Mod("");
  size_t Bytes = 0;
  if (!shipKernel(K, Mod, Bytes))
    return 1;
  verify::Report R = verify::verifyModule(Mod, VO);
  std::printf("%-16s %5zuB  %4llu/%llu obligations  %zu errors  "
              "%zu warnings  %s\n",
              K.Name.c_str(), Bytes,
              (unsigned long long)R.ObligationsProved,
              (unsigned long long)(R.ObligationsProved +
                                   R.ObligationsFailed),
              R.count(verify::Severity::Error),
              R.count(verify::Severity::Warning),
              R.ok() ? "OK" : "FAILED");
  for (const verify::Diagnostic &D : R.Diags) {
    if (D.Sev == verify::Severity::Note && !Notes)
      continue;
    std::printf("    %s\n", D.str().c_str());
  }
  return R.ok() ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  bool All = false, Notes = false;
  std::string KernelName, TargetName;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--all-kernels"))
      All = true;
    else if (!std::strcmp(argv[I], "--notes"))
      Notes = true;
    else if (KernelName.empty())
      KernelName = argv[I];
    else
      TargetName = argv[I];
  }
  if (!All && KernelName.empty()) {
    std::printf("usage: vapor-verify --all-kernels [--notes]\n"
                "       vapor-verify <kernel> [target] [--notes]\n");
    return 2;
  }

  verify::VerifyOptions VO;
  if (!TargetName.empty()) {
    bool Found = false;
    for (const target::TargetDesc &T : target::allTargets())
      if (T.Name == TargetName) {
        VO.Targets = {T};
        Found = true;
      }
    if (!Found) {
      std::printf("unknown target '%s' (try: sse altivec neon avx "
                  "scalar)\n",
                  TargetName.c_str());
      return 2;
    }
  }

  std::vector<kernels::Kernel> Ks;
  if (All)
    Ks = kernels::allKernels();
  else
    Ks.push_back(kernels::kernelByName(KernelName));

  int Failed = 0;
  for (const kernels::Kernel &K : Ks)
    Failed += verifyOne(K, VO, Notes);
  if (All)
    std::printf("%zu kernels verified, %d failed\n", Ks.size(), Failed);
  return Failed;
}
