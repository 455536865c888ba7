//===- tests/elision_test.cpp - Proof-carrying elision properties ---------===//
//
// Part of the Vapor SIMD reproduction.
//
// Properties of the proof-carrying check-elision pipeline
// (verify -> analysis/Certificate -> jit/Elision -> VM + native JIT):
//
//  1. Certificate mutation: corrupting ANY field of a shipped certificate
//     — content hash, machine binding, access identity, alignment width,
//     base requirements, claimed spans/extents/ranges — must be caught by
//     the independent checker (structurally, by alignment replay, or by
//     the plan builder's target binding). A corrupted certificate must
//     also never alias the original in the cache (certificateHash).
//  2. Transparency: elision On, Off, and Audit produce bit-identical
//     results across every kernel x target x external placement, on both
//     the VM and the native tier.
//  3. Audit soundness: with every check kept live, no elidable check's
//     predicate ever fires on a clean run.
//  4. Stand-down: an active fault-injection controller forces On -> Off
//     so an injected fault can never be masked by an elided check.
//
//===----------------------------------------------------------------------===//

#include "analysis/Certificate.h"
#include "bytecode/Bytecode.h"
#include "jit/Elision.h"
#include "kernels/Kernels.h"
#include "support/FaultInject.h"
#include "target/MemoryImage.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::analysis;
using target::TargetDesc;

namespace {

ir::Function shipped(const kernels::Kernel &K) {
  auto VR = vectorizer::vectorize(K.Source, {});
  std::vector<uint8_t> Enc = bytecode::encode(VR.Output);
  auto Dec = bytecode::decode(Enc);
  EXPECT_TRUE(Dec) << Dec.status().str();
  return Dec ? Dec.take() : ir::Function("");
}

/// The per-target certificate the verifier ships for \p F, if any.
std::optional<SafetyCertificate> certFor(const ir::Function &F,
                                         const TargetDesc &T) {
  verify::VerifyOptions VO;
  VO.Targets = {T};
  verify::Report R = verify::verifyModule(F, VO);
  if (!R.ok() || R.Certificates.empty())
    return std::nullopt;
  return std::move(R.Certificates.front());
}

//===--- 1. Certificate mutation property ---------------------------------===//

struct CertMutant {
  std::string Desc;
  SafetyCertificate C;
  size_t FactIdx = ~size_t(0); ///< Mutated fact, if fact-level.
  /// Caught only by the alignment-replay checker, not structurally.
  bool AlignReplayClass = false;
  /// Caught only by the plan builder's (target, VSBytes) binding.
  bool TargetBindingClass = false;
};

std::vector<CertMutant> certMutantsOf(const ir::Function &F,
                                      const SafetyCertificate &Base) {
  std::vector<CertMutant> Out;
  auto Add = [&](std::string Desc, size_t FactIdx,
                 const std::function<void(SafetyCertificate &)> &Mutate) {
    CertMutant Mu;
    Mu.Desc = std::move(Desc);
    Mu.C = Base;
    Mu.FactIdx = FactIdx;
    Mutate(Mu.C);
    Out.push_back(std::move(Mu));
  };

  Add("content hash +1", ~size_t(0),
      [](SafetyCertificate &C) { C.FnHash += 1; });
  {
    CertMutant Mu;
    Mu.Desc = "machine binding VSBytes x2";
    Mu.C = Base;
    Mu.C.VSBytes *= 2;
    Mu.TargetBindingClass = true;
    Out.push_back(std::move(Mu));
  }
  {
    CertMutant Mu;
    Mu.Desc = "machine binding target rename";
    Mu.C = Base;
    Mu.C.TargetName += "-forged";
    Mu.TargetBindingClass = true;
    Out.push_back(std::move(Mu));
  }

  for (size_t N = 0; N < Base.Facts.size(); ++N) {
    const AccessFact &Fa = Base.Facts[N];
    std::string At = "fact " + std::to_string(N) + " (#" +
                     std::to_string(Fa.InstrIdx) + "): ";
    Add(At + "instruction index out of range", N, [N, &F](auto &C) {
      C.Facts[N].InstrIdx = static_cast<uint32_t>(F.Instrs.size());
    });
    Add(At + "array identity +1", N,
        [N](auto &C) { C.Facts[N].Array += 1; });
    Add(At + "claims nothing", N, [N](auto &C) {
      C.Facts[N].HasAlign = false;
      C.Facts[N].HasBounds = false;
    });

    if (Fa.HasAlign) {
      Add(At + "alignment width x2", N,
          [N](auto &C) { C.Facts[N].AlignElems *= 2; });
      // Weakening the runtime precondition on the accessed array's own
      // base to bare element granularity claims alignment holds in worlds
      // the proof never covered: structural validation still passes (the
      // requirement stays element-granular), so the independent replay is
      // the layer that must refuse to re-derive residue 0.
      for (size_t R = 0; R < Fa.BaseReqs.size(); ++R) {
        const BaseAlignReq &Req = Fa.BaseReqs[R];
        if (Req.Array != Fa.Array || Fa.AlignElems <= 1)
          continue;
        int64_t ES = ir::scalarSize(F.Arrays[Req.Array].Elem);
        if (ES <= 0 || Req.Bytes <= static_cast<uint64_t>(ES))
          continue;
        CertMutant Mu;
        Mu.Desc = At + "own-base requirement weakened to element size";
        Mu.C = Base;
        Mu.C.Facts[N].BaseReqs[R].Bytes = static_cast<uint64_t>(ES);
        Mu.FactIdx = N;
        Mu.AlignReplayClass = true;
        Out.push_back(std::move(Mu));
      }
    }
    if (Fa.HasBounds) {
      Add(At + "claimed extent +1", N,
          [N](auto &C) { C.Facts[N].NumElems += 1; });
      Add(At + "claimed span +1", N,
          [N](auto &C) { C.Facts[N].SpanElems += 1; });
      Add(At + "index value retargeted", N,
          [N](auto &C) { C.Facts[N].IndexVal += 1; });
      if (!Fa.DynamicRange) {
        Add(At + "static max widened +1", N,
            [N](auto &C) { C.Facts[N].MaxIdx += 1; });
        Add(At + "static min widened -1", N,
            [N](auto &C) { C.Facts[N].MinIdx -= 1; });
      } else {
        Add(At + "dynamic range flagged static", N, [N](auto &C) {
          C.Facts[N].DynamicRange = false;
          C.Facts[N].MinIdx = 0;
          C.Facts[N].MaxIdx = 0;
        });
      }
    }
  }
  return Out;
}

class ElisionMutationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ElisionMutationTest, CheckerRejectsEveryCorruption) {
  kernels::Kernel K = kernels::kernelByName(GetParam());
  ir::Function F = shipped(K);

  size_t CertsSeen = 0, MutantsSeen = 0;
  for (const TargetDesc &T : target::allTargets()) {
    std::optional<SafetyCertificate> Cert = certFor(F, T);
    if (!Cert)
      continue;
    ++CertsSeen;

    // The honest certificate must pass the full checker stack.
    ASSERT_EQ(checkCertificate(F, *Cert), "") << T.Name;

    target::MemoryImage Image;
    for (const ir::ArrayInfo &A : F.Arrays)
      Image.addArray(A, 0);
    ParamFn NoParams = [](const std::string &) {
      return std::optional<int64_t>();
    };

    for (const CertMutant &Mu : certMutantsOf(F, *Cert)) {
      ++MutantsSeen;
      // Cache-keying: a corrupted certificate never aliases the original.
      EXPECT_NE(certificateHash(Mu.C), certificateHash(*Cert))
          << T.Name << ": " << Mu.Desc;

      if (Mu.TargetBindingClass) {
        // Structural validation cannot see the run's target; the plan
        // builder's binding check is the responsible layer.
        target::ElisionPlan P = jit::buildElisionPlan(
            F, &Mu.C, T, Image, target::ElisionMode::On, NoParams);
        EXPECT_FALSE(P.CheckerError.empty())
            << T.Name << ": " << Mu.Desc << " accepted by the plan builder";
        EXPECT_EQ(P.AlignElided + P.BoundsElided, 0u)
            << T.Name << ": " << Mu.Desc << " still granted elisions";
        continue;
      }

      std::string StructErr = checkCertificate(F, Mu.C);
      if (!StructErr.empty())
        continue; // Caught structurally.
      if (Mu.AlignReplayClass &&
          checkAlignFact(F, Mu.C, Mu.C.Facts[Mu.FactIdx]) ==
              FactVerdict::Rejected)
        continue; // Caught by the independent alignment replay.
      ADD_FAILURE() << T.Name << ": undetected certificate corruption: "
                    << Mu.Desc;
    }
  }
  // The property must not pass vacuously on kernels that certify.
  if (CertsSeen)
    EXPECT_GT(MutantsSeen, 0u) << "mutation enumeration went vacuous";
}

//===--- 2-4. End-to-end transparency, audit soundness, stand-down --------===//

RunOutcome runWith(const kernels::Kernel &K, const TargetDesc &T,
                   uint32_t Mis, target::ElisionMode Mode, bool Native) {
  RunOptions O;
  O.Target = T;
  O.ExternalMisalign = Mis;
  O.Elide = Mode;
  O.UseNative = Native;
  return runKernel(K, Flow::SplitVectorized, O);
}

const TargetDesc &T0() {
  static TargetDesc T = target::sseTarget();
  return T;
}

class ElisionRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ElisionRunTest, OnOffAuditBitExactOnVm) {
  kernels::Kernel K = kernels::kernelByName(GetParam());
  uint32_t Granted = 0;
  for (const TargetDesc &T : target::allTargets()) {
    for (uint32_t Mis : {0u, 8u}) {
      std::string Err;
      RunOutcome On = runWith(K, T, Mis, target::ElisionMode::On, false);
      EXPECT_TRUE(checkAgainstGolden(K, On, Err))
          << T.Name << " mis=" << Mis << " elide=on: " << Err;
      Granted += On.AlignElided + On.BoundsElided;

      RunOutcome Off = runWith(K, T, Mis, target::ElisionMode::Off, false);
      EXPECT_TRUE(checkAgainstGolden(K, Off, Err))
          << T.Name << " mis=" << Mis << " elide=off: " << Err;
      EXPECT_EQ(Off.ElideMode, target::ElisionMode::Off);
      EXPECT_EQ(Off.AlignElided + Off.BoundsElided, 0u);

      // Both modes must complete at the same tier: elision may never
      // introduce a demotion (or paper one over).
      EXPECT_EQ(On.Tier, Off.Tier) << T.Name << " mis=" << Mis;

      RunOutcome Audit =
          runWith(K, T, Mis, target::ElisionMode::Audit, false);
      EXPECT_TRUE(checkAgainstGolden(K, Audit, Err))
          << T.Name << " mis=" << Mis << " elide=audit: " << Err;
      EXPECT_EQ(Audit.AuditAlignFired, 0u)
          << T.Name << " mis=" << Mis
          << ": elidable align check would have fired";
      EXPECT_EQ(Audit.AuditBoundsFired, 0u)
          << T.Name << " mis=" << Mis
          << ": elidable bounds check would have fired";
    }
  }
  // Transparency must not hold vacuously across the whole sweep: at
  // least one (target, placement) of a vectorized kernel elides.
  RunOutcome Probe =
      runWith(K, T0(), 0, target::ElisionMode::On, false);
  if (Probe.AnyLoopVectorized && !Probe.Scalarized &&
      Probe.Demotions.empty())
    EXPECT_GT(Granted, 0u) << "no elision granted anywhere for " << K.Name;
}

TEST_P(ElisionRunTest, OnOffBitExactOnNativeTier) {
  kernels::Kernel K = kernels::kernelByName(GetParam());
  for (const TargetDesc &T : target::allTargets()) {
    for (uint32_t Mis : {0u, 8u}) {
      std::string Err;
      RunOutcome On = runWith(K, T, Mis, target::ElisionMode::On, true);
      EXPECT_TRUE(checkAgainstGolden(K, On, Err))
          << T.Name << " mis=" << Mis << " native elide=on: " << Err;
      RunOutcome Off = runWith(K, T, Mis, target::ElisionMode::Off, true);
      EXPECT_TRUE(checkAgainstGolden(K, Off, Err))
          << T.Name << " mis=" << Mis << " native elide=off: " << Err;
      EXPECT_EQ(On.Tier, Off.Tier) << T.Name << " mis=" << Mis;

      RunOutcome Audit = runWith(K, T, Mis, target::ElisionMode::Audit, true);
      EXPECT_TRUE(checkAgainstGolden(K, Audit, Err))
          << T.Name << " mis=" << Mis << " native elide=audit: " << Err;
      EXPECT_EQ(Audit.AuditAlignFired + Audit.AuditBoundsFired, 0u)
          << T.Name << " mis=" << Mis
          << ": native elidable check would have fired";
    }
  }
}

TEST_P(ElisionRunTest, FaultInjectionForcesStandDown) {
  kernels::Kernel K = kernels::kernelByName(GetParam());
  // Armed controller, far-future trigger: nothing fires, but the run is
  // instrumented — elision must stand down from On to Off on its own.
  faultinject::ScopedFault Fault(faultinject::SiteClass::VmAlign,
                                 /*FireAt=*/~0ull >> 1);
  RunOutcome Out = runWith(K, T0(), 0, target::ElisionMode::On, false);
  EXPECT_EQ(Out.ElideMode, target::ElisionMode::Off);
  EXPECT_EQ(Out.AlignElided + Out.BoundsElided, 0u);
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
}

std::vector<std::string> kernelNames() {
  std::vector<std::string> N;
  for (const kernels::Kernel &K : kernels::allKernels())
    N.push_back(K.Name);
  return N;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ElisionMutationTest,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

INSTANTIATE_TEST_SUITE_P(AllKernels, ElisionRunTest,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

} // namespace
