//===- tests/verify_mutation_test.cpp - Verifier mutation properties ------===//
//
// Part of the Vapor SIMD reproduction.
//
// Property: corrupting any vectorizer claim in a shipped module — mis/mod
// hints, misalignment provenance, loop_bound pairing, max_safe_vf limits,
// version-guard shape — must be caught by the static verifier. Ground
// truth comes from the cycle-model VMs in trap-recording mode: whenever a
// mutant actually traps at runtime, the verifier must have reported an
// error for that target beforehand (no false negatives); and the
// unmutated module must neither trap nor be flagged (no false positives).
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "bytecode/Bytecode.h"
#include "jit/Jit.h"
#include "kernels/Kernels.h"
#include "target/MemoryImage.h"
#include "target/VM.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::verify;
using target::TargetDesc;

namespace {

Function shipped(const kernels::Kernel &K) {
  auto VR = vectorizer::vectorize(K.Source, {});
  std::vector<uint8_t> Enc = bytecode::encode(VR.Output);
  auto Dec = bytecode::decode(Enc);
  EXPECT_TRUE(Dec) << Dec.status().str();
  return Dec ? Dec.take() : Function("");
}

struct Mutant {
  std::string Desc;
  Function Mod{""};
  /// Mutants that can produce a runtime alignment fault (vs purely
  /// structural lies); these are cross-checked against the VM.
  bool AlignmentClass = false;
};

std::vector<Mutant> mutantsOf(const Function &M) {
  std::vector<Mutant> Out;
  auto Add = [&](std::string Desc, bool AlignClass,
                 const std::function<void(Function &)> &Mutate) {
    Mutant Mu;
    Mu.Desc = std::move(Desc);
    Mu.Mod = M;
    Mu.AlignmentClass = AlignClass;
    Mutate(Mu.Mod);
    Out.push_back(std::move(Mu));
  };

  for (uint32_t I = 0; I < M.Instrs.size(); ++I) {
    const Instr &Ins = M.Instrs[I];
    std::string At = std::string(opcodeMnemonic(Ins.Op)) + " #" +
                     std::to_string(I);
    if (Ins.Hint.known() && Ins.Array < M.Arrays.size()) {
      int64_t ES = scalarSize(M.Arrays[Ins.Array].Elem);
      Add("mis+" + std::to_string(ES) + " at " + At, true,
          [I, ES](Function &F) {
            F.Instrs[I].Hint.Mis =
                (F.Instrs[I].Hint.Mis + (int32_t)ES) % 32;
          });
      Add("mod 32->16 at " + At, false,
          [I](Function &F) { F.Instrs[I].Hint.Mod = 16; });
      if (Ins.Hint.IfJitAligns)
        Add("drop if-jit-aligns at " + At, true, [I](Function &F) {
          F.Instrs[I].Hint.IfJitAligns = false;
        });
    }
    if (Ins.Op == Opcode::GetMisalign)
      Add("provenance offset +1 at " + At, true,
          [I](Function &F) { F.Instrs[I].IntImm += 1; });
    if (Ins.Op == Opcode::LoopBound)
      Add("swap vector/scalar counts at " + At, false, [I](Function &F) {
        std::swap(F.Instrs[I].Ops[0], F.Instrs[I].Ops[1]);
      });
    if (Ins.Op == Opcode::VersionGuard &&
        Ins.Guard == GuardKind::BasesAligned) {
      Add("drop guarded array at " + At, true,
          [I](Function &F) { F.Instrs[I].GuardArgs.pop_back(); });
      Add("guard kind swap at " + At, true, [I](Function &F) {
        F.Instrs[I].Guard = GuardKind::TypeSupported;
        F.Instrs[I].TyParam = ScalarKind::F32;
      });
    }
  }
  for (uint32_t L = 0; L < M.Loops.size(); ++L) {
    if (M.Loops[L].MaxSafeVF == 0)
      continue;
    std::string At = "loop " + std::to_string(L);
    Add("max_safe_vf -> 0 at " + At, false,
        [L](Function &F) { F.Loops[L].MaxSafeVF = 0; });
    Add("max_safe_vf x2 at " + At, false,
        [L](Function &F) { F.Loops[L].MaxSafeVF *= 2; });
  }
  return Out;
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

/// Compiles and runs \p Mod the way the split pipeline would (strong
/// tier, external arrays placed at \p Mis bytes past alignment) with the
/// VM recording instead of aborting on alignment traps.
bool trapsAtRuntime(const kernels::Kernel &K, const Function &Mod,
                    const TargetDesc &T, uint32_t Mis) {
  target::MemoryImage Mem;
  jit::RuntimeInfo RT;
  for (uint32_t A = 0; A < Mod.Arrays.size(); ++A) {
    bool Ext = K.ExternalArrays.count(Mod.Arrays[A].Name) != 0;
    Mem.addArray(Mod.Arrays[A], Ext ? Mis : 0);
    if (Ext)
      RT.Arrays.push_back({false, 0});
    else
      RT.Arrays.push_back({true, Mem.base(A)});
  }
  auto CR = jit::compile(Mod, T, RT, {});
  target::VM Vm(CR.Code, T, Mem, /*Weak=*/false);
  Vm.setTrapRecording(true);
  ImageFill Fill(Mem);
  K.fill(Fill);
  for (ValueId P : Mod.Params) {
    const std::string &Name = Mod.Values[P].Name;
    if (isFloatKind(Mod.typeOf(P).Elem)) {
      auto It = K.FPParams.find(Name);
      Vm.setParamFP(Name, It == K.FPParams.end() ? 1.0 : It->second);
    } else {
      auto It = K.IntParams.find(Name);
      Vm.setParamInt(Name, It == K.IntParams.end() ? 0 : It->second);
    }
  }
  status::Status St = Vm.run();
  EXPECT_EQ(St.ok(), !Vm.trapped()); // Status and flag must agree.
  if (!Vm.trapped())
    return false;

  // The recorded trap must be structurally coherent: the executor's
  // deoptimization decision and these tests key off the fields, not the
  // message string.
  const target::TrapInfo &TI = Vm.trapInfo();
  EXPECT_EQ(TI.TrapKind, target::TrapInfo::Kind::Alignment);
  EXPECT_NE(TI.OpIndex, ~0u) << "alignment trap without a faulting op";
  EXPECT_GE(TI.RequiredAlign, 2u);
  EXPECT_EQ(TI.RequiredAlign & (TI.RequiredAlign - 1), 0u)
      << "required alignment must be a power of two";
  EXPECT_NE(TI.Address % TI.RequiredAlign, 0u)
      << "recorded address is actually aligned";
  EXPECT_EQ(TI.Target, T.Name);
  EXPECT_EQ(St.code(), status::Code::AlignmentTrap);
  EXPECT_EQ(St.layer(), status::Layer::Vm);
  // The human rendering stays derived from the same structure.
  EXPECT_EQ(Vm.trapMessage(), TI.str());
  EXPECT_NE(TI.str().find("alignment trap"), std::string::npos);
  return true;
}

class MutationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MutationTest, EveryCorruptedClaimIsFlagged) {
  kernels::Kernel K = kernels::kernelByName(GetParam());
  Function Base = shipped(K);

  // No false positives or false traps on the unmutated module.
  Report Clean = verifyModule(Base);
  ASSERT_TRUE(Clean.ok()) << Clean.str();
  std::vector<TargetDesc> SimdTargets = {
      target::sseTarget(), target::altivecTarget(), target::avxTarget()};
  for (const TargetDesc &T : SimdTargets)
    for (uint32_t Mis : {0u, 8u})
      ASSERT_FALSE(trapsAtRuntime(K, Base, T, Mis))
          << "clean module trapped on " << T.Name << " mis=" << Mis;

  std::vector<Mutant> Mutants = mutantsOf(Base);
  bool AnyClaim = false;
  for (const Instr &I : Base.Instrs)
    AnyClaim |= I.Hint.known() || I.Op == Opcode::LoopBound ||
                I.Op == Opcode::GetMisalign ||
                I.Op == Opcode::VersionGuard;
  for (const LoopStmt &L : Base.Loops)
    AnyClaim |= L.MaxSafeVF != 0;
  if (AnyClaim)
    ASSERT_FALSE(Mutants.empty()) << "mutation enumeration went vacuous";

  for (const Mutant &Mu : Mutants) {
    Report R = verifyModule(Mu.Mod);
    size_t Flagged =
        R.count(Severity::Error) + R.count(Severity::Warning);
    EXPECT_GE(Flagged, 1u)
        << "undetected mutation: " << Mu.Desc << "\n"
        << R.str(true);

    // Ground truth: a mutant that truly faults must carry an error.
    if (!Mu.AlignmentClass)
      continue;
    for (const TargetDesc &T : SimdTargets)
      for (uint32_t Mis : {0u, 8u})
        if (trapsAtRuntime(K, Mu.Mod, T, Mis))
          EXPECT_GE(R.count(Severity::Error), 1u)
              << "mutant traps on " << T.Name << " mis=" << Mis
              << " but verifier reported no error: " << Mu.Desc;
  }
}

std::vector<std::string> kernelNames() {
  std::vector<std::string> N;
  for (const kernels::Kernel &K : kernels::allKernels())
    N.push_back(K.Name);
  return N;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, MutationTest,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

} // namespace
