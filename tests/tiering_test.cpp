//===- tests/tiering_test.cpp - Tiered background compilation -------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Two layers of coverage for jit/Tiering.h:
//
//  - Engine unit tests against LOCAL Engine instances: the promotion
//    ladder's threshold arithmetic, the one-in-flight-compile claim, the
//    queue bound, compile-failure pins, demotion pins, generation expiry,
//    and the bounded hotness table.
//
//  - Executor-level tests through the process-global engine: the one
//    cold entry (ScalarJit, never the interpreter) and golden-exact
//    results across a forced promotion mid-sweep on every kernel x target,
//    SplitScalar running eager, promotion-vs-demotion interleaving under
//    fault injection (a function that trapped at Vectorized must not be
//    re-promoted into the failing tier until the cache is invalidated),
//    fail-closed server-mode entry, and a TSan-targeted concurrent
//    promote/execute churn.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "jit/CodeCache.h"
#include "jit/Tiering.h"
#include "support/FaultInject.h"
#include "vapor/Executor.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace vapor;
using namespace vapor::kernels;
using jit::tiering::ColdTier;
using jit::tiering::Config;
using jit::tiering::Decision;
using jit::tiering::Engine;
using jit::tiering::EngineStats;
using jit::tiering::KeyReport;
using jit::tiering::NoTier;
using jit::tiering::TransitionEvent;

namespace {

// The engine stores tiers as raw uint8_t (no layering dependency on
// vapor::ExecTier); the unit tests mirror that. Values match ExecTier.
constexpr uint8_t TVec = 1;
constexpr uint8_t TScalarJit = 2;
constexpr uint8_t TScalarBytecode = 3;
static_assert(ColdTier == TScalarJit);

Config smallConfig() {
  Config C;
  C.HotVectorized = 2;
  C.HotNative = 4;
  return C;
}

//===--- Engine unit tests (local instances) ------------------------------===//

TEST(TieringEngineTest, ColdEntriesStayColdBelowThreshold) {
  Engine E;
  Config C;
  C.HotVectorized = 3;
  E.setConfig(C);
  for (int I = 1; I <= 2; ++I) {
    Decision D = E.onInvoke(/*Key=*/1, /*EagerTier=*/TVec);
    EXPECT_EQ(D.EntryTier, TScalarJit);
    EXPECT_FALSE(D.ShouldCompile);
    EXPECT_EQ(D.Invocations, static_cast<uint64_t>(I));
  }
  EXPECT_EQ(E.stats().Invocations, 2u);
  EXPECT_EQ(E.stats().Promotions, 0u);
}

TEST(TieringEngineTest, ThresholdClaimsExactlyOneCompile) {
  Engine E;
  Config C;
  C.HotVectorized = 3;
  E.setConfig(C);
  E.onInvoke(1, TVec);
  E.onInvoke(1, TVec);
  Decision D = E.onInvoke(1, TVec);
  ASSERT_TRUE(D.ShouldCompile);
  EXPECT_EQ(D.CompileTier, TVec);
  EXPECT_EQ(D.EntryTier, TScalarJit); // This invocation still runs cold.
  // The claim is held until the compile finishes: no double-claim.
  Decision D2 = E.onInvoke(1, TVec);
  EXPECT_FALSE(D2.ShouldCompile);
}

TEST(TieringEngineTest, CompileSuccessPromotesNextInvocation) {
  Engine E;
  E.setConfig(smallConfig());
  E.onInvoke(1, TVec);
  Decision D = E.onInvoke(1, TVec);
  ASSERT_TRUE(D.ShouldCompile);
  E.enqueueCompile(1, D.EntryTier, D.CompileTier, [] { return true; });
  E.drain();
  Decision After = E.onInvoke(1, TVec);
  EXPECT_EQ(After.EntryTier, TVec);
  EXPECT_FALSE(After.ShouldCompile); // Already at the eager tier.
  EngineStats S = E.stats();
  EXPECT_EQ(S.Promotions, 1u);
  EXPECT_EQ(S.CompilesOk, 1u);
  EXPECT_EQ(S.CompilesFailed, 0u);

  auto R = E.keyReport(1);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->ReadyTier, TVec);
  EXPECT_EQ(R->PinTier, NoTier);
  EXPECT_FALSE(R->CompileInFlight);
  ASSERT_EQ(R->Events.size(), 1u);
  EXPECT_EQ(R->Events[0].What, TransitionEvent::Promoted);
  EXPECT_EQ(R->Events[0].AtInvocation, 2u);
  EXPECT_EQ(R->Events[0].ToTier, TVec);
  EXPECT_GE(R->Events[0].CompileMicros, 0.0);
}

TEST(TieringEngineTest, CompileFailurePinsStrictlyBelowTarget) {
  Engine E;
  E.setConfig(smallConfig());
  E.onInvoke(1, TVec);
  Decision D = E.onInvoke(1, TVec);
  ASSERT_TRUE(D.ShouldCompile);
  E.enqueueCompile(1, D.EntryTier, D.CompileTier, [] { return false; });
  E.drain();
  EngineStats S = E.stats();
  EXPECT_EQ(S.CompilesFailed, 1u);
  EXPECT_EQ(S.Pins, 1u);
  EXPECT_EQ(S.Promotions, 0u);
  auto R = E.keyReport(1);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->PinTier, TVec + 1); // Strictly below the doomed tier.
  ASSERT_EQ(R->Events.size(), 1u);
  EXPECT_EQ(R->Events[0].What, TransitionEvent::CompileFailed);
  // The ladder never re-claims the same doomed step.
  for (int I = 0; I < 8; ++I)
    EXPECT_FALSE(E.onInvoke(1, TVec).ShouldCompile) << I;
  EXPECT_EQ(E.stats().CompilesFailed, 1u);
}

TEST(TieringEngineTest, DemotionPinBlocksRepromotionAndCapsEntry) {
  Engine E;
  E.setConfig(smallConfig());
  E.onInvoke(1, TVec);
  Decision D = E.onInvoke(1, TVec);
  ASSERT_TRUE(D.ShouldCompile);
  E.enqueueCompile(1, D.EntryTier, D.CompileTier, [] { return true; });
  E.drain();
  ASSERT_EQ(E.onInvoke(1, TVec).EntryTier, TVec);

  // The run demoted (e.g. a deopt retry finished at ScalarJit): the pin
  // caps every later entry and the ladder must not climb back.
  E.onOutcome(1, TScalarJit);
  EXPECT_EQ(E.stats().Pins, 1u);
  for (int I = 0; I < 6; ++I) {
    Decision After = E.onInvoke(1, TVec);
    EXPECT_EQ(After.EntryTier, TScalarJit) << I;
    EXPECT_FALSE(After.ShouldCompile) << I;
  }
  auto R = E.keyReport(1);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->PinTier, TScalarJit);
  ASSERT_GE(R->Events.size(), 2u);
  EXPECT_EQ(R->Events.back().What, TransitionEvent::Demoted);
}

TEST(TieringEngineTest, RedundantDemotionsRecordOnePin) {
  Engine E;
  E.setConfig(smallConfig());
  E.onInvoke(1, TVec);
  E.onOutcome(1, TScalarJit);
  E.onOutcome(1, TScalarJit); // Same pin again: no-op.
  E.onOutcome(1, TVec);       // Weaker pin: no-op.
  EXPECT_EQ(E.stats().Pins, 1u);
}

TEST(TieringEngineTest, PinClampsToColdTier) {
  Engine E;
  E.onInvoke(1, TVec);
  // A cold kernel-flow run executes ScalarBytecode; one that demoted
  // from there ends below it. Neither pin may push entry below cold.
  E.onOutcome(1, /*PinTier=*/TScalarBytecode);
  E.onOutcome(1, /*PinTier=*/TScalarBytecode + 3); // Beyond the bottom.
  auto R = E.keyReport(1);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->PinTier, TScalarJit);
  EXPECT_EQ(E.stats().Pins, 1u);
  EXPECT_EQ(E.onInvoke(1, TVec).EntryTier, TScalarJit);
}

TEST(TieringEngineTest, CacheInvalidationLiftsPinsButKeepsHotness) {
  Engine E;
  E.setConfig(smallConfig());
  E.onInvoke(1, TVec);
  Decision D = E.onInvoke(1, TVec);
  ASSERT_TRUE(D.ShouldCompile);
  E.enqueueCompile(1, D.EntryTier, D.CompileTier, [] { return true; });
  E.drain();
  E.onOutcome(1, TScalarJit);
  ASSERT_EQ(E.onInvoke(1, TVec).EntryTier, TScalarJit);

  // A cache clear dropped the promoted artifacts AND expired the pin:
  // readiness falls back to cold, and -- because hotness survives -- the
  // very next invocation re-claims the vectorized compile.
  jit::cache::clear();
  Decision After = E.onInvoke(1, TVec);
  EXPECT_EQ(After.EntryTier, TScalarJit);
  EXPECT_TRUE(After.ShouldCompile);
  EXPECT_EQ(After.CompileTier, TVec);
  auto R = E.keyReport(1);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->PinTier, NoTier);
}

TEST(TieringEngineTest, StaleCompileResultIsDiscardedAfterInvalidation) {
  Engine E;
  E.setConfig(smallConfig());
  E.onInvoke(1, TVec);
  Decision D = E.onInvoke(1, TVec);
  ASSERT_TRUE(D.ShouldCompile);
  // The cache is cleared while the compile runs: its artifact is gone, so
  // the result must NOT mark the entry ready at the better tier.
  E.enqueueCompile(1, D.EntryTier, D.CompileTier, [] {
    jit::cache::clear();
    return true;
  });
  E.drain();
  EXPECT_EQ(E.stats().Promotions, 0u);
  Decision After = E.onInvoke(1, TVec);
  EXPECT_EQ(After.EntryTier, TScalarJit);
}

TEST(TieringEngineTest, QueueBoundRejectsAndRetriesNextInvocation) {
  Engine E;
  Config C;
  C.HotVectorized = 1;
  C.MaxQueue = 1;
  E.setConfig(C);
  std::mutex M;
  std::condition_variable CV;
  bool Go = false;

  Decision D1 = E.onInvoke(1, TVec);
  ASSERT_TRUE(D1.ShouldCompile);
  E.enqueueCompile(1, D1.EntryTier, D1.CompileTier, [&] {
    std::unique_lock<std::mutex> L(M);
    CV.wait(L, [&] { return Go; });
    return true;
  });
  // A second key crosses its threshold while the queue is full: the claim
  // is rejected (counted), not blocked on.
  Decision D2 = E.onInvoke(2, TVec);
  EXPECT_FALSE(D2.ShouldCompile);
  EXPECT_EQ(E.stats().QueueRejects, 1u);
  {
    std::lock_guard<std::mutex> L(M);
    Go = true;
  }
  CV.notify_all();
  E.drain();
  // The rejected key retries on its next invocation.
  Decision D3 = E.onInvoke(2, TVec);
  EXPECT_TRUE(D3.ShouldCompile);
}

TEST(TieringEngineTest, HotnessTableStaysBounded) {
  Engine E;
  Config C;
  C.MaxEntries = 8;
  E.setConfig(C);
  for (uint64_t Key = 1; Key <= 100; ++Key)
    E.onInvoke(Key, TVec);
  EXPECT_LE(E.stats().Entries, 8u);
  // The most recently invoked key survives the batch evictions.
  EXPECT_TRUE(E.keyReport(100).has_value());
}

//===--- Executor-level: golden-exact across forced promotion -------------===//

std::vector<std::string> kernelNames() {
  std::vector<std::string> Names;
  for (const Kernel &K : allKernels())
    Names.push_back(K.Name);
  return Names;
}

class TieringSuiteTest : public ::testing::TestWithParam<std::string> {};

// Every kernel, every target: force promotion mid-sweep with tiny
// thresholds and require every single invocation -- cold entries, the
// runs racing the background compile, and the promoted warm entries --
// to reproduce the golden scalar semantics bit-exactly. The cold run
// enters the one cold tier, ScalarJit, and (no decoded module yet)
// executes compiled scalar bytecode; no run ever reaches the
// interpreter.
TEST_P(TieringSuiteTest, GoldenExactAcrossForcedPromotion) {
  Kernel K = kernelByName(GetParam());
  jit::tiering::engine().setConfig(smallConfig());
  uint64_t Salt = std::hash<std::string>{}(K.Name);
  for (const auto &T : target::allTargets()) {
    jit::cache::clear();
    RunOptions O;
    O.Target = T;
    O.Tiered = true;
    O.TieringSalt = ++Salt;
    bool Converged = false;
    for (int R = 0; R < 12; ++R) {
      RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
      ASSERT_TRUE(Out.Terminal.ok())
          << Out.Terminal.str() << " run " << R << " on " << T.Name;
      if (R == 0) {
        EXPECT_EQ(Out.EntryTier, ExecTier::ScalarJit)
            << "cold entry must be the forced-scalar JIT on " << T.Name;
        EXPECT_EQ(Out.Tier, ExecTier::ScalarBytecode)
            << "a cold kernel flow must run compiled scalar bytecode on "
            << T.Name;
      }
      EXPECT_NE(Out.EntryTier, ExecTier::Interpreter)
          << "run " << R << " on " << T.Name;
      EXPECT_NE(Out.Tier, ExecTier::Interpreter)
          << "run " << R << " on " << T.Name;
      std::string Err;
      EXPECT_TRUE(checkAgainstGolden(K, Out, Err))
          << Err << " run " << R << " on " << T.Name;
      jit::tiering::engine().drain();
      if (Out.EntryTier == ExecTier::Vectorized) {
        Converged = true;
        break;
      }
    }
    EXPECT_TRUE(Converged)
        << K.Name << " never promoted to Vectorized entry on " << T.Name;
  }
  jit::tiering::engine().reset();
}

INSTANTIATE_TEST_SUITE_P(AllKernels, TieringSuiteTest,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

// SplitScalar's eager tier (ScalarBytecode) already sits below the cold
// tier, so there is nothing to tier: the run is a plain eager run and
// the engine never sees it.
TEST(TieringFlowTest, TieredSplitScalarRunsEagerWithoutHotnessRow) {
  Kernel K = kernelByName("saxpy_fp");
  jit::tiering::engine().reset();
  jit::tiering::engine().setConfig(smallConfig());
  RunOptions O;
  O.Tiered = true;
  O.TieringSalt = 0x5CA1A;
  for (int R = 0; R < 6; ++R) {
    RunOutcome Out = runKernel(K, Flow::SplitScalar, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    EXPECT_EQ(Out.EntryTier, ExecTier::ScalarBytecode) << "run " << R;
    EXPECT_EQ(Out.Tier, ExecTier::ScalarBytecode) << "run " << R;
    std::string Err;
    EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err << " run " << R;
    jit::tiering::engine().drain();
  }
  EXPECT_FALSE(jit::tiering::engine()
                   .keyReport(Executor(K, O).tieringKey())
                   .has_value());
  EXPECT_EQ(jit::tiering::engine().stats().Entries, 0u);
  EXPECT_EQ(jit::tiering::engine().stats().Invocations, 0u);
  jit::tiering::engine().reset();
}

//===--- Promotion vs. demotion interleaving ------------------------------===//

// Promote a kernel to Vectorized entry, trap it there (sticky VmAlign),
// and require: the trap run demotes honestly and stays golden; the pin
// keeps every later run OUT of the failing tier; cache invalidation --
// and only cache invalidation -- lifts the pin and re-promotion works.
TEST(TieringInterleaveTest, TrappedFunctionIsNotRepromotedIntoFailingTier) {
  Kernel K = kernelByName("saxpy_fp");
  jit::tiering::engine().setConfig(smallConfig());
  jit::cache::clear();
  RunOptions O;
  O.Target = target::sseTarget();
  O.Tiered = true;
  O.TieringSalt = 0xDE0B6;

  // Promote: run + drain until the entry tier is Vectorized.
  RunOutcome Out;
  bool Promoted = false;
  for (int R = 0; R < 10 && !Promoted; ++R) {
    Out = runKernel(K, Flow::SplitVectorized, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    jit::tiering::engine().drain();
    Promoted = Out.EntryTier == ExecTier::Vectorized;
  }
  ASSERT_TRUE(Promoted);

  // Trap the promoted tier: the first checked vector access alignment-
  // traps (sticky, so the re-entered VM would trap again). The run must
  // deoptimize to ScalarJit, stay golden, and pin the function there.
  {
    faultinject::ScopedFault F(faultinject::SiteClass::VmAlign, 0,
                               /*Sticky=*/true);
    Out = runKernel(K, Flow::SplitVectorized, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    EXPECT_GE(Out.Retries, 1u);
    EXPECT_EQ(Out.Tier, ExecTier::ScalarJit);
    std::string Err;
    EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
  }

  // The fault is gone but the pin is not: every later invocation must
  // enter at (or below) ScalarJit, never back at Vectorized, and the
  // ladder must not enqueue a compile INTO the failing tier.
  uint64_t CompilesBefore = jit::tiering::engine().stats().CompilesOk +
                            jit::tiering::engine().stats().CompilesFailed;
  for (int R = 0; R < 6; ++R) {
    Out = runKernel(K, Flow::SplitVectorized, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    EXPECT_EQ(Out.EntryTier, ExecTier::ScalarJit) << "run " << R;
    std::string Err;
    EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err << " run " << R;
    jit::tiering::engine().drain();
  }
  EXPECT_EQ(jit::tiering::engine().stats().CompilesOk +
                jit::tiering::engine().stats().CompilesFailed,
            CompilesBefore)
      << "pinned function must not re-enter the compile queue";

  // Cache invalidation lifts the pin; the still-hot function re-promotes.
  jit::cache::clear();
  bool Repromoted = false;
  for (int R = 0; R < 10 && !Repromoted; ++R) {
    Out = runKernel(K, Flow::SplitVectorized, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    std::string Err;
    EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
    jit::tiering::engine().drain();
    Repromoted = Out.EntryTier == ExecTier::Vectorized;
  }
  EXPECT_TRUE(Repromoted);
  jit::tiering::engine().reset();
}

// A background compile that fails must pin exactly like a demotion: the
// next runs stay at the cold tier and the doomed step is never retried.
TEST(TieringInterleaveTest, BackgroundCompileFailurePinsViaEngine) {
  // Executor background compiles run on pool threads where test-thread
  // fault injection cannot reach (the controller is thread-local by
  // design), so this is exercised at the engine layer with a failing
  // compile callback -- the same path Executor::runTiered drives.
  Engine E;
  E.setConfig(smallConfig());
  E.onInvoke(7, TVec);
  Decision D = E.onInvoke(7, TVec);
  ASSERT_TRUE(D.ShouldCompile);
  E.enqueueCompile(7, D.EntryTier, D.CompileTier, [] { return false; });
  E.drain();
  for (int R = 0; R < 4; ++R) {
    Decision After = E.onInvoke(7, TVec);
    EXPECT_EQ(After.EntryTier, TScalarJit) << R;
    EXPECT_FALSE(After.ShouldCompile) << R;
  }
}

//===--- Fail-closed server mode ------------------------------------------===//

std::vector<uint8_t> encodedKernel(const char *Name) {
  for (const Kernel &K : allKernels())
    if (K.Name == Name) {
      auto VR = vectorizer::vectorize(K.Source, {});
      return bytecode::encode(VR.Output);
    }
  return {};
}

TEST(TieringServerModeTest, ColdEntersScalarJitAndPromotes) {
  ModuleWorkload W;
  W.Name = "dissolve_s8";
  W.Bytecode = encodedKernel("dissolve_s8");
  ASSERT_FALSE(W.Bytecode.empty());
  jit::tiering::engine().setConfig(smallConfig());
  jit::cache::clear();
  RunOptions O;
  O.Tiered = true;
  O.TieringSalt = 0x5E7;
  RunOutcome Out = runEncodedModule(W, O);
  ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
  // Fail-closed flows must NOT enter the unbounded interpreter cold; the
  // forced-scalar JIT is the cheapest admissible tier.
  EXPECT_EQ(Out.EntryTier, ExecTier::ScalarJit);
  EXPECT_EQ(Out.BytecodeBytes, W.Bytecode.size()); // What the JIT consumed.
  bool Converged = false;
  for (int R = 0; R < 10 && !Converged; ++R) {
    Out = runEncodedModule(W, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    jit::tiering::engine().drain();
    Converged = Out.EntryTier == ExecTier::Vectorized;
  }
  EXPECT_TRUE(Converged);
  jit::tiering::engine().reset();
}

TEST(TieringServerModeTest, DeadlineExceededDoesNotPin) {
  ModuleWorkload W;
  W.Name = "dissolve_s8";
  W.Bytecode = encodedKernel("dissolve_s8");
  ASSERT_FALSE(W.Bytecode.empty());
  jit::tiering::engine().setConfig(smallConfig());
  jit::cache::clear();
  RunOptions O;
  O.Tiered = true;
  O.TieringSalt = 0x5E8;
  O.DeadlineFuel = 3; // Nothing completes on this budget.
  RunOutcome Out = runEncodedModule(W, O);
  ASSERT_FALSE(Out.Terminal.ok());
  EXPECT_EQ(Out.Terminal.code(), status::Code::DeadlineExceeded);
  // A deadline says nothing about tier health: the function must still
  // promote normally once given fuel.
  O.DeadlineFuel = 0;
  bool Converged = false;
  for (int R = 0; R < 10 && !Converged; ++R) {
    Out = runEncodedModule(W, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    jit::tiering::engine().drain();
    Converged = Out.EntryTier == ExecTier::Vectorized;
  }
  EXPECT_TRUE(Converged);
  jit::tiering::engine().reset();
}

//===--- Hotness-row collisions -------------------------------------------===//
//
// A hotness row picks a tier and nothing else. Rows key on a hash that a
// crafted input can collide -- the module hash in server mode, the
// kernel name otherwise -- so two different functions can share one.
// The salt is the last word tieringKey folds, and hashCombine(H, Salt)
// is a bijection applied to H ^ Salt, so undoing it solves for the salt
// that puts a second function on the first one's row.

/// Undoes hashCombine's mixing: unmix(hashCombine(H, W)) == H ^ W.
uint64_t unmix(uint64_t K) {
  K ^= K >> 32; // The high half passed the xorshift unchanged.
  const uint64_t Odd = 0x9e3779b97f4a7c15ULL;
  uint64_t Inv = Odd; // Right mod 2^3; each Newton step doubles the bits.
  for (int I = 0; I < 5; ++I)
    Inv *= 2 - Odd * Inv;
  return K * Inv;
}

TEST(TieringCollisionTest, SharedRowOnlyPicksTheTier) {
  ASSERT_EQ(unmix(hashCombine(0x1234, 0xabcd)), 0x1234u ^ 0xabcdu);
  const Kernel KA = kernelByName("dissolve_s8");
  const Kernel KB = kernelByName("sfir_s16");
  ASSERT_EQ(KA.Tolerance, 0.0); // Integer kernels: golden is bit-exact.
  ASSERT_EQ(KB.Tolerance, 0.0);
  const uint64_t FillSeed = ModuleWorkload{}.FillSeed;
  jit::tiering::engine().setConfig(smallConfig());

  uint64_t Salt = 0xC011DE;
  for (bool Server : {false, true})
    for (bool AFirst : {true, false}) {
      SCOPED_TRACE(std::string(Server ? "runEncodedModule" : "runKernel") +
                   (AFirst ? ", dissolve_s8 first" : ", sfir_s16 first"));
      const Kernel &First = AFirst ? KA : KB;
      const Kernel &Second = AFirst ? KB : KA;
      RunOptions O;
      O.Target = target::sseTarget();
      O.Tiered = true;

      auto keyOf = [&](const Kernel &K, uint64_t S) {
        RunOptions OS = O;
        OS.TieringSalt = S;
        if (!Server)
          return Executor(K, OS).tieringKey();
        std::vector<uint8_t> Bytes = encodedKernel(K.Name.c_str());
        auto Module = bytecode::decode(Bytes);
        EXPECT_TRUE(Module.ok()) << Module.status().str();
        return Executor(K, OS,
                        std::make_shared<const ir::Function>(
                            std::move(*Module)),
                        Bytes.size())
            .tieringKey();
      };
      auto runChecked = [&](const Kernel &K, uint64_t S) {
        RunOptions OS = O;
        OS.TieringSalt = S;
        RunOutcome Out;
        Kernel Golden = K;
        if (Server) {
          ModuleWorkload W;
          W.Name = K.Name;
          W.Bytecode = encodedKernel(K.Name.c_str());
          W.IntParams = K.IntParams;
          W.FPParams = K.FPParams;
          Out = runEncodedModule(W, OS);
          Golden.Fill = [FillSeed](kernels::FillSink &Sink,
                                   const ir::Function &F) {
            kernels::defaultFill(Sink, F, FillSeed);
          };
        } else {
          Out = runKernel(K, Flow::SplitVectorized, OS);
        }
        EXPECT_TRUE(Out.Terminal.ok()) << K.Name << ": " << Out.Terminal.str();
        std::string Err;
        EXPECT_TRUE(Out.Terminal.ok() && checkAgainstGolden(Golden, Out, Err))
            << Err;
        jit::tiering::engine().drain();
        return Out.EntryTier;
      };

      const uint64_t SaltFirst = ++Salt;
      const uint64_t SaltSecond =
          unmix(keyOf(First, SaltFirst)) ^ unmix(keyOf(Second, 0));
      ASSERT_EQ(keyOf(First, SaltFirst), keyOf(Second, SaltSecond));

      jit::cache::clear();
      jit::tiering::engine().reset();
      bool Promoted = false;
      for (int R = 0; R < 10 && !Promoted; ++R)
        Promoted = runChecked(First, SaltFirst) == ExecTier::Vectorized;
      ASSERT_TRUE(Promoted);
      // The second function has never run, yet it enters at the tier the
      // first one earned on the shared row, and computes its own result.
      EXPECT_EQ(runChecked(Second, SaltSecond), ExecTier::Vectorized);
      EXPECT_EQ(runChecked(First, SaltFirst), ExecTier::Vectorized);
      EXPECT_EQ(runChecked(Second, SaltSecond), ExecTier::Vectorized);
    }
  jit::tiering::engine().reset();
}

//===--- vapor-explain support --------------------------------------------===//

// Executor::tieringKey is exposed exactly so vapor-explain can look up
// the promotion timeline after a sweep; require the report to carry a
// usable Promoted event with queue/compile timing.
TEST(TieringExplainTest, KeyReportRecordsPromotionTimeline) {
  Kernel K = kernelByName("sfir_s16");
  jit::tiering::engine().setConfig(smallConfig());
  jit::cache::clear();
  RunOptions O;
  O.Target = target::sseTarget();
  O.Tiered = true;
  O.TieringSalt = 0x71AE;
  bool Converged = false;
  for (int R = 0; R < 10 && !Converged; ++R) {
    RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    jit::tiering::engine().drain();
    Converged = Out.EntryTier == ExecTier::Vectorized;
  }
  ASSERT_TRUE(Converged);
  uint64_t Key = Executor(K, O).tieringKey();
  auto R = jit::tiering::engine().keyReport(Key);
  ASSERT_TRUE(R.has_value()) << "tieringKey must address the hotness row";
  EXPECT_GE(R->Invocations, 2u);
  EXPECT_EQ(R->ReadyTier, static_cast<uint8_t>(ExecTier::Vectorized));
  ASSERT_GE(R->Events.size(), 1u);
  const TransitionEvent &Ev = R->Events.front();
  EXPECT_EQ(Ev.What, TransitionEvent::Promoted);
  EXPECT_EQ(Ev.ToTier, static_cast<uint8_t>(ExecTier::Vectorized));
  EXPECT_GE(Ev.AtInvocation, 2u);
  EXPECT_GE(Ev.QueueWaitMicros, 0.0);
  EXPECT_GT(Ev.CompileMicros, 0.0);

  // A salt is a different function: distinct key, distinct row.
  RunOptions O2 = O;
  O2.TieringSalt = 0x71AF;
  EXPECT_NE(Executor(K, O2).tieringKey(), Key);
  jit::tiering::engine().reset();
}

//===--- Concurrent promote/execute churn (TSan target) -------------------===//

TEST(TieringChurnTest, ConcurrentPromoteExecuteAndInvalidateStayClean) {
  jit::tiering::engine().setConfig(smallConfig());
  jit::cache::clear();
  const char *Names[3] = {"saxpy_fp", "sfir_s16", "dissolve_s8"};
  std::atomic<uint64_t> Failures{0};
  std::atomic<uint64_t> GoldenBad{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      Kernel K = kernelByName(Names[T % 3]);
      RunOptions O;
      O.Target = target::sseTarget();
      O.Tiered = true;
      // Threads share salts so the same hotness rows race: two threads
      // drive saxpy_fp concurrently through promotion.
      O.TieringSalt = 0xC0FFEE + static_cast<uint64_t>(T % 3);
      for (int R = 0; R < 40; ++R) {
        RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
        if (!Out.Terminal.ok()) {
          ++Failures;
          continue;
        }
        if (R % 10 == 9) {
          std::string Err;
          if (!checkAgainstGolden(K, Out, Err))
            ++GoldenBad;
        }
        // One thread yanks the cache out from under everyone mid-churn:
        // promotions in flight go stale, promoted entries recompile.
        if (T == 0 && R % 13 == 12)
          jit::cache::clear();
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  jit::tiering::engine().drain();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(GoldenBad.load(), 0u);
  EXPECT_GT(jit::tiering::engine().stats().Invocations, 0u);
  jit::tiering::engine().reset();
}

} // namespace
