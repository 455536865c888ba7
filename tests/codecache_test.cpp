//===- tests/codecache_test.cpp - Code-cache memo tests -------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// The get-or-build memo behind jit::cache (CodeCache.h): its memory bound,
// cost-aware LRU and per-tenant accounting, hits that need equal content,
// and the same contract on every artifact kind.
//
// The module memo is the byte-exact probe: it charges twice the length of
// its key bytes, and the tests pass a decoder that accepts any bytes, so
// every module test controls entry sizes down to the byte. A decoder that
// refuses everything looks an entry up without inserting one.
//
// The kind tests drive each of the five entry points on one fixed key,
// with the real builders for compile, program and native.
//
//===----------------------------------------------------------------------===//

#include "codegen/CpuFeatures.h"
#include "ir/Function.h"
#include "jit/CodeCache.h"
#include "kernels/Kernels.h"
#include "support/FaultInject.h"
#include "target/MemoryImage.h"
#include "target/Target.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace vapor;
using namespace vapor::jit;

namespace {

/// Module-memo key bytes for key \p K that charge exactly \p Cost (even,
/// at least 16): the key word, zero-padded to half the cost.
std::vector<uint8_t> bytesOf(uint64_t K, size_t Cost = 16) {
  std::vector<uint8_t> B(Cost / 2);
  for (int I = 0; I < 8; ++I)
    B[I] = static_cast<uint8_t>(K >> (8 * I));
  return B;
}

/// Accepts any bytes; the module is named after the first key word.
Expected<ir::Function> anyDecode(const std::vector<uint8_t> &Bytes) {
  uint64_t K = 0;
  std::memcpy(&K, Bytes.data(), sizeof(K));
  return ir::Function(std::to_string(K));
}

/// Refuses everything: a hit still answers, a miss inserts nothing.
Expected<ir::Function> noDecode(const std::vector<uint8_t> &) {
  return Status::error(status::Code::MalformedModule, status::Layer::Bytecode,
                       "probe");
}

cache::CachedModule put(uint64_t K, size_t Cost) {
  auto M = cache::moduleFor(bytesOf(K, Cost), anyDecode);
  EXPECT_TRUE(M.ok());
  return M.ok() ? *M : cache::CachedModule{};
}

/// Whether key \p K's module is resident. Like any lookup, a hit
/// refreshes its recency.
bool resident(uint64_t K, size_t Cost) {
  return cache::moduleFor(bytesOf(K, Cost), noDecode).ok();
}

/// Every test starts from an empty, unbounded cache and leaves it that
/// way: the cache is process-global and other suites share it.
class CodeCacheTest : public ::testing::Test {
protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    cache::setCapacity(0);
    cache::clear();
    cache::resetStats();
  }
};

//===--- Capacity + LRU order ---------------------------------------------===//

TEST_F(CodeCacheTest, UnboundedNeverEvicts) {
  for (uint64_t K = 1; K <= 64; ++K)
    put(K, /*Cost=*/1 << 14);
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.BytesLive, 64u << 14);
  EXPECT_EQ(S.CapacityBytes, 0u);
  for (uint64_t K = 1; K <= 64; ++K)
    EXPECT_TRUE(resident(K, 1 << 14));
}

TEST_F(CodeCacheTest, EvictsLeastRecentlyUsedFirst) {
  cache::setCapacity(3500);
  put(1, 1000);
  put(2, 1000);
  put(3, 1000);
  // Refresh 1: recency is now [1, 3, 2] with 2 at the cold end.
  EXPECT_TRUE(resident(1, 1000));
  put(4, 1000);

  EXPECT_FALSE(resident(2, 1000)) << "cold entry must go first";
  EXPECT_TRUE(resident(1, 1000));
  EXPECT_TRUE(resident(3, 1000));
  EXPECT_TRUE(resident(4, 1000));
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.BytesLive, 3000u);
  EXPECT_LE(S.BytesLive, S.CapacityBytes);
}

TEST_F(CodeCacheTest, MixedCostsEvictUntilUnderBound) {
  cache::setCapacity(10000);
  put(1, 500);
  put(2, 500);
  put(3, 8000); // 9000 live.
  // One 6000-cost insert must pop BOTH cold small entries AND the big
  // one (500+500+8000) before the total fits again: cost-aware eviction
  // keeps evicting, it does not stop after one victim.
  put(4, 6000);
  EXPECT_FALSE(resident(1, 500));
  EXPECT_FALSE(resident(2, 500));
  EXPECT_FALSE(resident(3, 8000));
  EXPECT_TRUE(resident(4, 6000));
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.Evictions, 3u);
  EXPECT_EQ(S.BytesLive, 6000u);
}

TEST_F(CodeCacheTest, OversizedEntryIsServedButNeverResident) {
  cache::setCapacity(1000);
  cache::CachedModule Got = put(7, 5000);
  ASSERT_NE(Got.Fn, nullptr) << "the caller always gets the artifact";
  EXPECT_EQ(Got.Fn->Name, "7");
  EXPECT_FALSE(resident(7, 5000)) << "but it is not cached";
  cache::Stats S = cache::stats();
  EXPECT_LE(S.BytesLive, 1000u);
  EXPECT_GE(S.Evictions, 1u);
}

TEST_F(CodeCacheTest, ShrinkingCapacityEvictsImmediately) {
  put(1, 4000);
  put(2, 4000);
  EXPECT_EQ(cache::stats().BytesLive, 8000u);
  cache::setCapacity(4500);
  cache::Stats S = cache::stats();
  EXPECT_LE(S.BytesLive, 4500u);
  EXPECT_FALSE(resident(1, 4000)) << "older entry is the victim";
  EXPECT_TRUE(resident(2, 4000));
}

TEST_F(CodeCacheTest, VerifyEntriesShareTheRecencyList) {
  // The LRU list spans all artifact kinds: a cold verify entry is evicted
  // to make room for a module entry.
  cache::setCapacity(2000);
  unsigned Builds = 0;
  auto Verify = [&] {
    ++Builds;
    return cache::VerifyResult{true, "", nullptr}; // cost 256.
  };
  cache::verifyFor(11, target::sseTarget(), Verify);
  put(1, 1500); // 1756 live.
  put(2, 400);  // evicts the verify memo.
  EXPECT_TRUE(resident(1, 1500));
  EXPECT_TRUE(resident(2, 400));
  cache::verifyFor(11, target::sseTarget(), Verify);
  EXPECT_EQ(Builds, 2u) << "the verdict was evicted";
}

//===--- Per-tenant accounting --------------------------------------------===//

const cache::TenantStats *lineFor(const std::vector<cache::TenantStats> &All,
                                  const std::string &Name) {
  for (const cache::TenantStats &T : All)
    if (T.Tenant == Name)
      return &T;
  return nullptr;
}

TEST_F(CodeCacheTest, InsertionsAreAttributedToTheScopedTenant) {
  {
    cache::ScopedTenant T("tenant-a");
    EXPECT_EQ(cache::currentTenant(), "tenant-a");
    put(1, 1000);
    put(2, 2000);
    {
      cache::ScopedTenant Inner("tenant-b");
      EXPECT_EQ(cache::currentTenant(), "tenant-b");
      put(3, 4000);
    }
    EXPECT_EQ(cache::currentTenant(), "tenant-a") << "scopes nest";
  }
  EXPECT_EQ(cache::currentTenant(), "");

  auto All = cache::tenantStats();
  const cache::TenantStats *A = lineFor(All, "tenant-a");
  const cache::TenantStats *B = lineFor(All, "tenant-b");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(A->BytesLive, 3000u);
  EXPECT_EQ(A->Entries, 2u);
  EXPECT_EQ(A->Insertions, 2u);
  EXPECT_EQ(B->BytesLive, 4000u);
  EXPECT_EQ(B->Entries, 1u);
}

TEST_F(CodeCacheTest, EvictionsRefundTheOwningTenant) {
  cache::setCapacity(5000);
  {
    cache::ScopedTenant T("victim");
    put(1, 3000);
  }
  {
    cache::ScopedTenant T("survivor");
    put(2, 4000); // Evicts victim's.
  }
  auto All = cache::tenantStats();
  const cache::TenantStats *V = lineFor(All, "victim");
  const cache::TenantStats *S = lineFor(All, "survivor");
  ASSERT_NE(V, nullptr);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(V->BytesLive, 0u) << "evicted cost is refunded";
  EXPECT_EQ(V->Entries, 0u);
  EXPECT_EQ(V->Evictions, 1u);
  EXPECT_EQ(S->BytesLive, 4000u);
}

//===--- Serial vs parallel tallies ---------------------------------------===//

/// One tenant's deterministic workload over its own key range: I inserts
/// followed by one lookup per key (each is a hit). Key spaces are
/// disjoint across tenants so the expected tallies compose exactly.
void tallyWorkload(const std::string &Tenant, uint64_t KeyBase,
                   unsigned Inserts) {
  cache::ScopedTenant Scope(Tenant);
  for (unsigned I = 0; I < Inserts; ++I)
    put(KeyBase + I, 100);
  for (unsigned I = 0; I < Inserts; ++I)
    if (!resident(KeyBase + I, 100))
      ADD_FAILURE() << "unbounded cache lost " << Tenant << " key " << I;
}

TEST_F(CodeCacheTest, SerialAndParallelRunsTallyIdentically) {
  constexpr unsigned Tenants = 8;
  constexpr unsigned Inserts = 50;

  // Serial reference run under the "s<i>" tenant names.
  for (unsigned T = 0; T < Tenants; ++T)
    tallyWorkload("s" + std::to_string(T), 1000 * T, Inserts);
  cache::Stats Serial = cache::stats();

  // Same workload under real threads and the "p<i>" names. Lifetime
  // tenant counters survive clear() by design, so fresh names keep the
  // comparison honest.
  cache::clear();
  cache::resetStats();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Tenants; ++T)
    Threads.emplace_back(
        [T] { tallyWorkload("p" + std::to_string(T), 1000 * T, Inserts); });
  for (std::thread &Th : Threads)
    Th.join();
  cache::Stats Parallel = cache::stats();

  EXPECT_EQ(Serial.ModuleMisses, Parallel.ModuleMisses);
  EXPECT_EQ(Serial.ModuleHits, Parallel.ModuleHits);
  EXPECT_EQ(Serial.BytesLive, Parallel.BytesLive);
  EXPECT_EQ(Serial.Evictions, Parallel.Evictions);

  auto All = cache::tenantStats();
  for (unsigned T = 0; T < Tenants; ++T) {
    const cache::TenantStats *SL = lineFor(All, "s" + std::to_string(T));
    const cache::TenantStats *PL = lineFor(All, "p" + std::to_string(T));
    ASSERT_NE(SL, nullptr);
    ASSERT_NE(PL, nullptr);
    EXPECT_EQ(SL->Insertions, PL->Insertions);
    EXPECT_EQ(PL->BytesLive, 100u * Inserts);
    EXPECT_EQ(PL->Entries, Inserts);
  }
}

TEST_F(CodeCacheTest, BoundHoldsUnderParallelChurn) {
  constexpr size_t Capacity = 64 * 1024;
  cache::setCapacity(Capacity);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back([T] {
      cache::ScopedTenant Scope("churn-" + std::to_string(T));
      for (uint64_t I = 0; I < 300; ++I) {
        uint64_t Key = (uint64_t(T) << 32) | I;
        const size_t Cost = 512 + (I % 7) * 768;
        put(Key, Cost);
        resident(Key, Cost);
        const uint64_t Old = I / 2; // Recency.
        resident((uint64_t(T) << 32) | Old, 512 + (Old % 7) * 768);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  cache::Stats S = cache::stats();
  EXPECT_LE(S.BytesLive, Capacity) << "the bound is a hard invariant";
  EXPECT_GT(S.Evictions, 0u) << "churn at 8x capacity must evict";

  // The per-tenant residency ledger must agree with the global one.
  uint64_t TenantSum = 0;
  for (const cache::TenantStats &T : cache::tenantStats())
    TenantSum += T.BytesLive;
  EXPECT_EQ(TenantSum, S.BytesLive);
}

TEST_F(CodeCacheTest, ClearKeepsLifetimeCountersDropsResidency) {
  cache::setCapacity(1000);
  put(1, 800);
  put(2, 800); // Evicts 1.
  EXPECT_EQ(cache::stats().Evictions, 1u);
  cache::clear();
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.BytesLive, 0u);
  EXPECT_EQ(S.Evictions, 1u) << "clear() is not an eviction";
  EXPECT_FALSE(resident(2, 800));
}

//===--- Hits confirm content ---------------------------------------------===//

TEST_F(CodeCacheTest, HashCollisionIsAMissNotAnotherModule) {
  // Two 16-byte strings with equal hashBytes: the first words differ and
  // B's second word cancels the state difference (the mixer xors each
  // word into the state, so this takes no search).
  uint64_t WA[2] = {1, 2}, WB[2] = {3, 0};
  const uint64_t H0 = hashCombine(0, 16); // hashBytes folds the length.
  WB[1] = WA[1] ^ hashCombine(H0, WA[0]) ^ hashCombine(H0, WB[0]);
  std::vector<uint8_t> A(16), B(16);
  std::memcpy(A.data(), WA, 16);
  std::memcpy(B.data(), WB, 16);
  ASSERT_EQ(hashBytes(A.data(), 16), hashBytes(B.data(), 16));

  cache::CachedModule MA = *cache::moduleFor(A, anyDecode);
  ASSERT_NE(MA.Id, 0u);
  EXPECT_FALSE(cache::moduleFor(B, noDecode).ok())
      << "same hash, other bytes";
  cache::CachedModule MB = *cache::moduleFor(B, anyDecode);
  ASSERT_NE(MB.Fn, nullptr);
  EXPECT_EQ(MB.Fn->Name, "3") << "B is served its own module";
  EXPECT_EQ(MB.Id, 0u) << "uncached: A holds the slot";
  EXPECT_EQ(cache::moduleFor(A, noDecode)->Fn, MA.Fn);
  EXPECT_EQ(cache::moduleFor(A, noDecode)->Id, MA.Id);
}

TEST_F(CodeCacheTest, ModuleIdsNameOneByteStringForever) {
  cache::CachedModule First = put(1, 16);
  EXPECT_EQ(put(1, 16).Id, First.Id) << "same bytes, same entry";
  cache::CachedModule Other = put(2, 16);
  EXPECT_NE(Other.Id, First.Id);
  unsigned Builds = 0;
  auto Verify = [&] {
    ++Builds;
    return cache::VerifyResult{true, "", nullptr};
  };
  cache::verifyFor(First.Id, target::sseTarget(), Verify);
  cache::verifyFor(Other.Id, target::sseTarget(), Verify);
  EXPECT_EQ(Builds, 2u) << "a verdict answers one module id";
  cache::clear();
  cache::CachedModule Again = put(1, 16);
  EXPECT_NE(Again.Id, First.Id) << "ids are not reused after clear()";
  EXPECT_NE(Again.Id, Other.Id);
}

TEST_F(CodeCacheTest, DecodeErrorsAreNotMemoized) {
  auto R = cache::moduleFor(bytesOf(5), noDecode);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), status::Code::MalformedModule);
  EXPECT_EQ(cache::stats().BytesLive, 0u);
  EXPECT_TRUE(cache::moduleFor(bytesOf(5), anyDecode).ok())
      << "the next lookup decodes again";
}

//===--- Every kind: one contract -----------------------------------------===//

/// What the id-keyed kinds build from: saxpy's source laid out at fixed
/// bases, lowered once for sse.
struct World {
  kernels::Kernel K = kernels::kernelByName("saxpy_fp");
  target::TargetDesc T = target::sseTarget();
  target::MemoryImage Mem;
  RuntimeInfo RT;
  Options O;
  std::shared_ptr<const CompileResult> Code;

  World() {
    for (const ir::ArrayInfo &AI : K.Source.Arrays)
      Mem.addArray(AI, 0);
    RT = RuntimeInfo::fromMemory(Mem);
    auto R = compileChecked(K.Source, T, RT, O);
    EXPECT_TRUE(R.ok()) << R.status().str();
    if (R.ok())
      Code = std::make_shared<const CompileResult>(R.take());
  }
  uint64_t key(uint64_t ModuleId) const {
    return cache::compileKey(ModuleId, T, O, RT);
  }
};

const World &world() {
  static const World W;
  return W;
}

using Artifact = std::shared_ptr<const void>;

/// One kind's entry point on its one fixed key (module id \p Id for the
/// kinds that key on one), and the Stats fields its lookups land in.
struct MemoKind {
  const char *Name;
  Artifact (*Get)(uint64_t Id);
  uint64_t cache::Stats::*Hits;
  uint64_t cache::Stats::*Misses;
};

/// gtest would otherwise dump the struct's raw bytes into every listed test
/// name, and with them the addresses of Name and Get, which ASLR moves on
/// each run: ctest names would differ from one test discovery to the next.
void PrintTo(const MemoKind &K, std::ostream *OS) { *OS << K.Name; }

Artifact getModule(uint64_t) {
  return cache::moduleFor(bytesOf(0xabc, 64), anyDecode)->Fn;
}

Artifact getVerify(uint64_t Id) {
  return cache::verifyFor(Id, world().T, [] {
    return cache::VerifyResult{false, std::string(100, 'x'), nullptr};
  });
}

Artifact getCompile(uint64_t Id) {
  const World &W = world();
  return *cache::compileFor(Id, W.key(Id), W.K.Source, W.T, W.RT, W.O);
}

Artifact getProgram(uint64_t Id) {
  const World &W = world();
  return cache::programFor(Id, W.key(Id), W.Code->Code, W.T, W.Mem,
                           /*Weak=*/false, /*Fuse=*/true);
}

Artifact getNative(uint64_t Id) {
  const World &W = world();
  return *cache::nativeFor(Id, W.key(Id), W.Code->Code, W.T, W.Mem, {});
}

const MemoKind Kinds[] = {
    {"module", getModule, &cache::Stats::ModuleHits,
     &cache::Stats::ModuleMisses},
    {"verify", getVerify, &cache::Stats::VerifyHits,
     &cache::Stats::VerifyMisses},
    {"compile", getCompile, &cache::Stats::CompileHits,
     &cache::Stats::CompileMisses},
    {"program", getProgram, &cache::Stats::ProgramHits,
     &cache::Stats::ProgramMisses},
    {"native", getNative, &cache::Stats::NativeHits,
     &cache::Stats::NativeMisses},
};

TEST(MemoKindNameTest, ListedNamesCarryNoAddresses) {
  for (const MemoKind &K : Kinds)
    EXPECT_EQ(::testing::PrintToString(K), K.Name);
}

constexpr uint64_t Id = 42; ///< A module id nothing else in the suite uses.
constexpr size_t Filler = 64; ///< Module cost of the filler entries.
constexpr uint64_t FillerKey = 1000;

class MemoKindTest : public CodeCacheTest,
                     public ::testing::WithParamInterface<MemoKind> {
protected:
  void SetUp() override {
    if (GetParam().Get == getNative && !codegen::supported())
      GTEST_SKIP() << "no native tier on this host";
    ASSERT_NE(world().Code, nullptr);
    CodeCacheTest::SetUp();
  }
  Artifact get(uint64_t ModuleId = Id) { return GetParam().Get(ModuleId); }
  uint64_t hits() { return cache::stats().*GetParam().Hits; }
  /// A tenant name of this kind's own: lifetime tallies outlive clear().
  std::string tenant(const char *Role) {
    return std::string(Role) + "-" + GetParam().Name;
  }
  uint64_t misses() { return cache::stats().*GetParam().Misses; }
};

TEST_P(MemoKindTest, InsertIsCharged) {
  cache::ScopedTenant T(tenant("charged"));
  ASSERT_NE(get(), nullptr);
  cache::Stats S = cache::stats();
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 0u);
  EXPECT_GT(S.BytesLive, 0u);
  auto All = cache::tenantStats();
  const cache::TenantStats *L = lineFor(All, tenant("charged"));
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->Entries, 1u);
  EXPECT_EQ(L->Insertions, 1u);
  EXPECT_EQ(L->BytesLive, S.BytesLive);
  EXPECT_EQ(get(), get()) << "a hit serves the resident artifact";
  EXPECT_EQ(hits(), 2u);
  EXPECT_EQ(cache::stats().BytesLive, S.BytesLive) << "a hit charges nothing";
}

TEST_P(MemoKindTest, HitRefreshesRecency) {
  get();
  const size_t Cost = cache::stats().BytesLive;
  put(FillerKey, Filler);
  cache::setCapacity(Cost + 2 * Filler);
  get(); // Hit: the entry moves ahead of the first filler.
  put(FillerKey + 1, Filler);
  put(FillerKey + 2, Filler); // One over: the coldest entry goes.
  EXPECT_EQ(cache::stats().Evictions, 1u);
  EXPECT_FALSE(resident(FillerKey, Filler)) << "the filler was colder";
  const uint64_t Hits = hits();
  get();
  EXPECT_EQ(hits(), Hits + 1) << "the refreshed entry stayed resident";
}

TEST_P(MemoKindTest, EvictionRefundsTheOwningTenant) {
  {
    cache::ScopedTenant T(tenant("owner"));
    get();
  }
  const size_t Cost = cache::stats().BytesLive;
  cache::setCapacity(Cost + Filler - 1);
  {
    cache::ScopedTenant T("other");
    put(FillerKey, Filler); // Evicts the owner's entry.
  }
  auto All = cache::tenantStats();
  const cache::TenantStats *O = lineFor(All, tenant("owner"));
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(O->BytesLive, 0u);
  EXPECT_EQ(O->Entries, 0u);
  EXPECT_EQ(O->Evictions, 1u);
  EXPECT_EQ(cache::stats().BytesLive, Filler);
}

TEST_P(MemoKindTest, OversizedEntryIsServedButNeverResident) {
  cache::setCapacity(1);
  EXPECT_NE(get(), nullptr) << "the caller always gets the artifact";
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.BytesLive, 0u);
  EXPECT_EQ(S.Evictions, 1u);
  get();
  EXPECT_EQ(misses(), 2u) << "never resident, so never a hit";
}

TEST_P(MemoKindTest, StandsDownUnderFaultInjection) {
  faultinject::resetHits();
  faultinject::startCounting(); // Active, nothing armed.
  Artifact A = get();
  Artifact B = get();
  faultinject::disarm();
  faultinject::resetHits();
  EXPECT_NE(A, nullptr);
  EXPECT_NE(A, B) << "each call builds";
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.hits() + S.misses(), 0u) << "nothing counted";
  EXPECT_EQ(S.BytesLive, 0u) << "nothing inserted";
  get();
  EXPECT_EQ(misses(), 1u) << "nothing was memoized";
}

TEST_P(MemoKindTest, RacingBuildersShareOneEntry) {
  constexpr unsigned Threads = 8;
  std::vector<Artifact> Got(Threads);
  const std::string Racer = tenant("racer");
  std::atomic<bool> Go{false};
  std::vector<std::thread> Pool;
  for (unsigned I = 0; I < Threads; ++I)
    Pool.emplace_back([&, I] {
      cache::ScopedTenant T(Racer);
      while (!Go.load())
        std::this_thread::yield();
      Got[I] = get();
    });
  Go = true;
  for (std::thread &Th : Pool)
    Th.join();
  for (const Artifact &P : Got)
    EXPECT_EQ(P, Got[0]) << "every caller gets the winner's artifact";
  EXPECT_EQ(hits() + misses(), Threads);
  auto All = cache::tenantStats();
  const cache::TenantStats *L = lineFor(All, Racer);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->Entries, 1u) << "one entry stays resident";
  EXPECT_EQ(L->Insertions, 1u);
  EXPECT_EQ(L->BytesLive, cache::stats().BytesLive);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MemoKindTest, ::testing::ValuesIn(Kinds),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

/// The kinds that key on a module id stand down for id 0: the id of
/// bytes whose hash slot another module holds.
class IdKeyedMemoTest : public MemoKindTest {};

TEST_P(IdKeyedMemoTest, StandsDownForModuleIdZero) {
  Artifact A = get(0);
  Artifact B = get(0);
  EXPECT_NE(A, nullptr);
  EXPECT_NE(A, B) << "each call builds";
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.hits() + S.misses(), 0u) << "nothing counted";
  EXPECT_EQ(S.BytesLive, 0u) << "nothing inserted";
}

INSTANTIATE_TEST_SUITE_P(IdKeyedKinds, IdKeyedMemoTest,
                         ::testing::ValuesIn(std::begin(Kinds) + 1,
                                             std::end(Kinds)),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

TEST_F(CodeCacheTest, TotalsCoverEveryKind) {
  std::vector<const MemoKind *> Run;
  for (const MemoKind &K : Kinds)
    if (K.Get != getNative || codegen::supported())
      Run.push_back(&K);
  for (int Pass = 0; Pass < 2; ++Pass) // Every kind misses, then hits.
    for (const MemoKind *K : Run)
      K->Get(Id);
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.misses(), Run.size());
  EXPECT_EQ(S.hits(), Run.size());
}

} // namespace
