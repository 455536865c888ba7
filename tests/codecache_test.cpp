//===- tests/codecache_test.cpp - Bounded-cache eviction tests ------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// The memory-bound + cost-aware-LRU + per-tenant-accounting surface of
// jit::cache (CodeCache.h). The module memo is the probe of choice: its
// put takes an explicit cost, so every test controls entry sizes down to
// the byte, and hits/misses are observable through findModule. The last
// tests pin that a hit needs equal content, not just an equal hash.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "jit/CodeCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace vapor;
using namespace vapor::jit;

namespace {

ir::Function tinyFn(const std::string &Name) { return ir::Function(Name); }

/// The eight bytes of \p K: a distinct module-memo key per value.
std::vector<uint8_t> bytesOf(uint64_t K) {
  std::vector<uint8_t> B(8);
  for (int I = 0; I < 8; ++I)
    B[I] = static_cast<uint8_t>(K >> (8 * I));
  return B;
}

/// Every test starts from an empty, unbounded, enabled cache and leaves
/// it that way: the cache is process-global and other suites share it.
class CodeCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    cache::setEnabled(true);
    cache::setCapacity(0);
    cache::clear();
    cache::resetStats();
  }
  void TearDown() override {
    cache::setCapacity(0);
    cache::clear();
    cache::resetStats();
  }
};

//===--- Capacity + LRU order ---------------------------------------------===//

TEST_F(CodeCacheTest, UnboundedNeverEvicts) {
  for (uint64_t K = 1; K <= 64; ++K)
    cache::putModule(bytesOf(K), tinyFn("m"), /*Cost=*/1 << 20);
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.BytesLive, 64u << 20);
  EXPECT_EQ(S.CapacityBytes, 0u);
  for (uint64_t K = 1; K <= 64; ++K)
    EXPECT_NE(cache::findModule(bytesOf(K)).Fn, nullptr);
}

TEST_F(CodeCacheTest, EvictsLeastRecentlyUsedFirst) {
  cache::setCapacity(3500);
  cache::putModule(bytesOf(1), tinyFn("a"), 1000);
  cache::putModule(bytesOf(2), tinyFn("b"), 1000);
  cache::putModule(bytesOf(3), tinyFn("c"), 1000);
  // Refresh 1: recency is now [1, 3, 2] with 2 at the cold end.
  EXPECT_NE(cache::findModule(bytesOf(1)).Fn, nullptr);
  cache::putModule(bytesOf(4), tinyFn("d"), 1000);

  EXPECT_EQ(cache::findModule(bytesOf(2)).Fn, nullptr)
      << "cold entry must go first";
  EXPECT_NE(cache::findModule(bytesOf(1)).Fn, nullptr);
  EXPECT_NE(cache::findModule(bytesOf(3)).Fn, nullptr);
  EXPECT_NE(cache::findModule(bytesOf(4)).Fn, nullptr);
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.BytesLive, 3000u);
  EXPECT_LE(S.BytesLive, S.CapacityBytes);
}

TEST_F(CodeCacheTest, MixedCostsEvictUntilUnderBound) {
  cache::setCapacity(10000);
  cache::putModule(bytesOf(1), tinyFn("small1"), 500);
  cache::putModule(bytesOf(2), tinyFn("small2"), 500);
  cache::putModule(bytesOf(3), tinyFn("big"), 8000); // 9000 live.
  // One 6000-cost insert must pop BOTH cold small entries AND the big
  // one (500+500+8000) before the total fits again: cost-aware eviction
  // keeps evicting, it does not stop after one victim.
  cache::putModule(bytesOf(4), tinyFn("wide"), 6000);
  EXPECT_EQ(cache::findModule(bytesOf(1)).Fn, nullptr);
  EXPECT_EQ(cache::findModule(bytesOf(2)).Fn, nullptr);
  EXPECT_EQ(cache::findModule(bytesOf(3)).Fn, nullptr);
  EXPECT_NE(cache::findModule(bytesOf(4)).Fn, nullptr);
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.Evictions, 3u);
  EXPECT_EQ(S.BytesLive, 6000u);
}

TEST_F(CodeCacheTest, OversizedEntryIsServedButNeverResident) {
  cache::setCapacity(1000);
  auto Got = cache::putModule(bytesOf(7), tinyFn("huge"), 5000);
  ASSERT_NE(Got.Fn, nullptr) << "the caller always gets the artifact";
  EXPECT_EQ(Got.Fn->Name, "huge");
  EXPECT_EQ(cache::findModule(bytesOf(7)).Fn, nullptr)
      << "but it is not cached";
  cache::Stats S = cache::stats();
  EXPECT_LE(S.BytesLive, 1000u);
  EXPECT_GE(S.Evictions, 1u);
}

TEST_F(CodeCacheTest, ShrinkingCapacityEvictsImmediately) {
  cache::putModule(bytesOf(1), tinyFn("a"), 4000);
  cache::putModule(bytesOf(2), tinyFn("b"), 4000);
  EXPECT_EQ(cache::stats().BytesLive, 8000u);
  cache::setCapacity(4500);
  cache::Stats S = cache::stats();
  EXPECT_LE(S.BytesLive, 4500u);
  EXPECT_EQ(cache::findModule(bytesOf(1)).Fn, nullptr)
      << "older entry is the victim";
  EXPECT_NE(cache::findModule(bytesOf(2)).Fn, nullptr);
}

TEST_F(CodeCacheTest, VerifyEntriesShareTheRecencyList) {
  // The LRU list spans all artifact kinds: a cold verify entry is evicted
  // to make room for a module entry.
  cache::setCapacity(2000);
  cache::putVerify(11, 22, {true, "", nullptr}); // cost 256.
  cache::putModule(bytesOf(1), tinyFn("a"), 1500); // 1756 live.
  cache::putModule(bytesOf(2), tinyFn("b"), 400);  // evicts the verify memo.
  EXPECT_FALSE(cache::findVerify(11, 22).has_value());
  EXPECT_NE(cache::findModule(bytesOf(1)).Fn, nullptr);
  EXPECT_NE(cache::findModule(bytesOf(2)).Fn, nullptr);
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
    cache::putModule(bytesOf(1), tinyFn("a1"), 1000);
    cache::putModule(bytesOf(2), tinyFn("a2"), 2000);
    {
      cache::ScopedTenant Inner("tenant-b");
      EXPECT_EQ(cache::currentTenant(), "tenant-b");
      cache::putModule(bytesOf(3), tinyFn("b1"), 4000);
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
    cache::putModule(bytesOf(1), tinyFn("v"), 3000);
  }
  {
    cache::ScopedTenant T("survivor");
    cache::putModule(bytesOf(2), tinyFn("s"), 4000); // Evicts victim's.
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
/// followed by one find per key (each find is a hit). Key spaces are
/// disjoint across tenants so the expected tallies compose exactly.
void tallyWorkload(const std::string &Tenant, uint64_t KeyBase,
                   unsigned Inserts) {
  cache::ScopedTenant Scope(Tenant);
  for (unsigned I = 0; I < Inserts; ++I)
    cache::putModule(bytesOf(KeyBase + I), tinyFn("w"), 100);
  for (unsigned I = 0; I < Inserts; ++I)
    if (!cache::findModule(bytesOf(KeyBase + I)).Fn)
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
        cache::putModule(bytesOf(Key), tinyFn("c"), 512 + (I % 7) * 768);
        cache::findModule(bytesOf(Key));
        cache::findModule(bytesOf((uint64_t(T) << 32) | (I / 2))); // Recency.
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
  cache::putModule(bytesOf(1), tinyFn("a"), 800);
  cache::putModule(bytesOf(2), tinyFn("b"), 800); // Evicts 1.
  EXPECT_EQ(cache::stats().Evictions, 1u);
  cache::clear();
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.BytesLive, 0u);
  EXPECT_EQ(S.Evictions, 1u) << "clear() is not an eviction";
  EXPECT_EQ(cache::findModule(bytesOf(2)).Fn, nullptr);
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

  cache::CachedModule MA = cache::putModule(A, tinyFn("a"), 100);
  ASSERT_NE(MA.Id, 0u);
  EXPECT_EQ(cache::findModule(B).Fn, nullptr) << "same hash, other bytes";
  cache::CachedModule MB = cache::putModule(B, tinyFn("b"), 100);
  ASSERT_NE(MB.Fn, nullptr);
  EXPECT_EQ(MB.Fn->Name, "b") << "B is served its own module";
  EXPECT_EQ(MB.Id, 0u) << "uncached: A holds the slot";
  EXPECT_EQ(cache::findModule(A).Fn, MA.Fn);
  EXPECT_EQ(cache::findModule(A).Id, MA.Id);
}

TEST_F(CodeCacheTest, ModuleIdsNameOneByteStringForever) {
  cache::CachedModule First = cache::putModule(bytesOf(1), tinyFn("a"), 100);
  EXPECT_EQ(cache::putModule(bytesOf(1), tinyFn("a"), 100).Id, First.Id)
      << "same bytes, same entry";
  cache::CachedModule Other = cache::putModule(bytesOf(2), tinyFn("b"), 100);
  EXPECT_NE(Other.Id, First.Id);
  cache::putVerify(First.Id, 22, {true, "", nullptr});
  EXPECT_FALSE(cache::findVerify(Other.Id, 22).has_value());
  cache::clear();
  cache::CachedModule Again = cache::putModule(bytesOf(1), tinyFn("a"), 100);
  EXPECT_NE(Again.Id, First.Id) << "ids are not reused after clear()";
  EXPECT_NE(Again.Id, Other.Id);
}

} // namespace
