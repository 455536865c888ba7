//===- examples/portable_deploy.cpp - One bytecode, five machines ----------===//
//
// Part of the Vapor SIMD reproduction.
//
// The deployment scenario the paper motivates: a vendor ships ONE
// vectorized bytecode; every device's online compiler turns it into the
// best code its SIMD unit supports. This example serializes the bytecode
// of a realignment-heavy kernel (sum += a[i+2], paper Fig. 2/3), then
// "deploys" the byte stream to all five machine models and reports what
// each JIT chose to do with the realignment idioms.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "jit/Jit.h"
#include "target/VM.h"
#include "vectorizer/Vectorizer.h"

#include <cstdio>
#include <cstring>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::target;

namespace {

/// What the online compiler did with the vector loads.
const char *loadStrategy(const MFunction &Code) {
  std::string S = Code.str();
  if (S.find("vperm") != std::string::npos)
    return "explicit realignment (lvsr+vperm)";
  if (S.find("vload.u") != std::string::npos)
    return "misaligned vector loads";
  if (S.find("vload.a") != std::string::npos)
    return "aligned vector loads";
  return "scalar loads (scalarized)";
}

} // namespace

int main() {
  // The paper's running example: a misaligned reduction.
  Function F("sum_offset");
  uint32_t A = F.addArray("a", ScalarKind::F32, 4096 + 64, 4);
  uint32_t Out = F.addArray("out", ScalarKind::F32, 4, 4);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  ValueId Zero = B.constFP(ScalarKind::F32, 0);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  ValueId Phi = B.addCarried(L, Zero);
  B.setCarriedNext(L, Phi,
                   B.add(Phi, B.load(A, B.add(L.indVar(), B.constIdx(2)))));
  B.endLoop(L);
  B.store(Out, B.constIdx(0), B.carriedResult(L, Phi));
  verifyOrDie(F);

  // Vectorize once; serialize the split layer — this is "the shipped app".
  auto VR = vectorizer::vectorize(F);
  std::vector<uint8_t> Shipped = bytecode::encode(VR.Output);
  std::printf("shipped bytecode: %zu bytes (scalar source would be %zu)\n\n",
              Shipped.size(), bytecode::encodedSize(F));

  std::printf("%-8s %6s %12s  %-36s %s\n", "target", "VS", "cycles",
              "realignment handling", "result");
  for (const TargetDesc &T : allTargets()) {
    // Each device decodes the same bytes...
    auto Decoded = bytecode::decode(Shipped);
    if (!Decoded) {
      std::printf("decode failed: %s\n", Decoded.status().str().c_str());
      return 1;
    }
    // ...lays out its own memory, and JIT-compiles.
    MemoryImage Mem;
    for (const auto &Arr : Decoded->Arrays)
      Mem.addArray(Arr, 0);
    double Want = 0;
    for (int I = 0; I < 4096 + 64; ++I) {
      Mem.pokeFP(A, I, (I % 17) * 0.25);
      if (I >= 2 && I < 4002)
        Want += (I % 17) * 0.25;
    }
    auto CR = jit::compile(*Decoded, T, jit::RuntimeInfo::fromMemory(Mem));
    VM Machine(CR.Code, T, Mem);
    Machine.setParamInt("n", 4000);
    Machine.run();
    double Got = Mem.peekFP(Out, 0);
    std::printf("%-8s %6u %12llu  %-36s %s\n", T.Name.c_str(), T.VSBytes,
                static_cast<unsigned long long>(Machine.cycles()),
                loadStrategy(CR.Code),
                std::abs(Got - Want) < 1.0 ? "correct" : "WRONG");
  }
  return 0;
}
