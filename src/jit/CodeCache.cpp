//===- jit/CodeCache.cpp - Content-addressed online-stage cache -------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"

#include "obs/Obs.h"
#include "support/FaultInject.h"

#include <atomic>
#include <algorithm>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>

using namespace vapor;
using namespace vapor::jit;
using namespace vapor::jit::cache;

namespace {

/// Which of the five maps an LRU node's key lives in (eviction needs to
/// erase from the right one).
enum class EKind : uint8_t { Module, Verify, Compile, Program, Native };

/// A memo key: the module id it belongs to and a hash of the rest. The
/// module map keys on the bytes hash alone (Module 0) and confirms the
/// bytes; the other four compare the module id exactly.
struct Key {
  uint64_t Module = 0;
  uint64_t Hash = 0;
  bool operator==(const Key &) const = default;
};
struct KeyHash {
  size_t operator()(const Key &K) const {
    return hashCombine(K.Module, K.Hash);
  }
};

/// One node of the unified recency list: enough to erase the entry and
/// refund its charge when it falls off the cold end.
struct LruNode {
  EKind Kind;
  Key K;
  size_t Cost;
  std::string Tenant;
};
using LruList = std::list<LruNode>;
using LruIt = LruList::iterator;

/// Map values wrap the artifact with its recency-list position so finds
/// can splice to the hot end and evictions can refund the exact charge.
template <typename T> struct Entry {
  T Value;
  LruIt It;
};

/// A module entry keeps the bytes it was decoded from: a hit must match
/// them, not just their hash.
struct ModuleSlot {
  std::vector<uint8_t> Bytes;
  CachedModule M;
};

template <typename T> using Memo = std::unordered_map<Key, Entry<T>, KeyHash>;

struct TenantUsage {
  uint64_t BytesLive = 0;
  uint64_t Entries = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
};

/// One mutex-guarded store for all five maps plus the recency list and
/// the capacity accounting: lookups are a hash plus a map probe, far off
/// any per-dispatch hot path, so a single lock is simpler than six and
/// contention is irrelevant at sweep granularity.
struct Store {
  std::mutex Mu;
  Memo<ModuleSlot> Modules;
  Memo<VerifyResult> Verifies;
  Memo<std::shared_ptr<const CompileResult>> Compiles;
  Memo<std::shared_ptr<const target::DecodedProgram>> Programs;
  Memo<std::shared_ptr<const codegen::NativeUnit>> Natives;
  uint64_t LastModuleId = 0; ///< Ids are never reused, clear() included.

  LruList Lru;            ///< Front = most recently used.
  size_t BytesLive = 0;   ///< Sum of resident entry costs.
  size_t Capacity = 0;    ///< 0 = unbounded.
  std::map<std::string, TenantUsage> Tenants;
};

Store &store() {
  static Store S;
  return S;
}

/// Hit/miss tallies live outside the store mutex as relaxed atomics:
/// they feed obs::Counter-style metrics and stats() must be readable
/// without taking the cache lock. A stats() snapshot concurrent with
/// lookups may be mid-update across fields; per-field totals are exact.
struct AtomicStats {
  std::atomic<uint64_t> ModuleHits{0}, ModuleMisses{0};
  std::atomic<uint64_t> VerifyHits{0}, VerifyMisses{0};
  std::atomic<uint64_t> CompileHits{0}, CompileMisses{0};
  std::atomic<uint64_t> ProgramHits{0}, ProgramMisses{0};
  std::atomic<uint64_t> NativeHits{0}, NativeMisses{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> BytesLive{0}; ///< Mirror of Store::BytesLive.
  std::atomic<uint64_t> Capacity{0};  ///< Mirror of Store::Capacity.
};

AtomicStats &counts() {
  static AtomicStats C;
  return C;
}

/// Bumps one cache tally and mirrors it into the named obs counter.
void bump(std::atomic<uint64_t> &Slot, obs::Counter &Obs) {
  Slot.fetch_add(1, std::memory_order_relaxed);
  Obs.add(1);
}

std::atomic<bool> GlobalSwitch{true};

/// The thread's ambient tenant attribution (empty = anonymous).
thread_local std::string CurrentTenantName;

//===--- Approximate entry costs ------------------------------------------===//
// Coarse but monotone-in-reality byte estimates; the bound is a memory
// *budget*, not an allocator audit, so each entry pays its dominant
// arrays plus a fixed overhead for the map/list/node bookkeeping.

constexpr size_t EntryOverhead = 256;

size_t costModule(const ir::Function &F) {
  size_t C = EntryOverhead + F.Name.size();
  C += F.Arrays.size() * 64;
  return C + 1024; // Body shape unknown here; callers pass encoded size.
}

size_t costVerify(const VerifyResult &R) {
  return EntryOverhead + R.Report.size() + (R.Cert ? 4096 : 0);
}

size_t costCompile(const CompileResult &R) {
  return EntryOverhead + R.Code.Instrs.size() * sizeof(target::MInstr) +
         R.Code.Regs.size() * sizeof(target::MRegInfo) +
         R.ScalarizeReason.size();
}

size_t costProgram(const target::DecodedProgram &P) {
  return EntryOverhead +
         P.Code.size() * sizeof(target::DecodedProgram::DOp) +
         P.AuxLanes.size() * sizeof(uint32_t) +
         P.OrigIndex.size() * sizeof(uint32_t);
}

size_t costNative(const codegen::NativeUnit &U) {
  return EntryOverhead + U.Stats.CodeBytes +
         U.Deferred.Code.size() * sizeof(target::DecodedProgram::DOp);
}

//===--- LRU plumbing (all called under Store::Mu) ------------------------===//

void touch(Store &S, LruIt It) {
  if (It != S.Lru.begin())
    S.Lru.splice(S.Lru.begin(), S.Lru, It);
}

/// Erases the map entry a cold-end node points at. The artifact itself
/// survives through any shared_ptrs already handed out.
void eraseEntry(Store &S, const LruNode &N) {
  switch (N.Kind) {
  case EKind::Module:
    S.Modules.erase(N.K);
    break;
  case EKind::Verify:
    S.Verifies.erase(N.K);
    break;
  case EKind::Compile:
    S.Compiles.erase(N.K);
    break;
  case EKind::Program:
    S.Programs.erase(N.K);
    break;
  case EKind::Native:
    S.Natives.erase(N.K);
    break;
  }
}

/// Evicts from the cold end until BytesLive is under the capacity.
/// No-op with capacity 0. Maintains the per-tenant refunds and the
/// eviction tallies (obs + atomic stats).
void evictOverCapacity(Store &S) {
  if (S.Capacity == 0)
    return;
  static obs::Counter Evicted("cache.evictions");
  while (S.BytesLive > S.Capacity && !S.Lru.empty()) {
    const LruNode &N = S.Lru.back();
    eraseEntry(S, N);
    S.BytesLive -= std::min(S.BytesLive, N.Cost);
    TenantUsage &T = S.Tenants[N.Tenant];
    T.BytesLive -= std::min(T.BytesLive, static_cast<uint64_t>(N.Cost));
    if (T.Entries)
      --T.Entries;
    ++T.Evictions;
    S.Lru.pop_back();
    bump(counts().Evictions, Evicted);
  }
  counts().BytesLive.store(S.BytesLive, std::memory_order_relaxed);
}

/// Charges a fresh insertion: pushes the hot-end node, attributes the
/// cost to the calling thread's tenant, then enforces the bound.
/// \returns the node's iterator for the map entry.
LruIt charge(Store &S, EKind Kind, Key K, size_t Cost) {
  S.Lru.push_front(LruNode{Kind, K, Cost, CurrentTenantName});
  S.BytesLive += Cost;
  TenantUsage &T = S.Tenants[CurrentTenantName];
  T.BytesLive += Cost;
  ++T.Entries;
  ++T.Insertions;
  counts().BytesLive.store(S.BytesLive, std::memory_order_relaxed);
  return S.Lru.begin();
}

} // namespace

bool cache::enabled() {
  return GlobalSwitch.load(std::memory_order_relaxed) &&
         !faultinject::controller().Active;
}

bool cache::setEnabled(bool On) {
  return GlobalSwitch.exchange(On, std::memory_order_relaxed);
}

namespace {
/// Bumped by every clear(). The tiering engine stamps demotion pins with
/// the generation they were recorded under; a pin from an older
/// generation has expired ("pinned below the failing tier until cache
/// invalidation"), and cached-artifact readiness expires with it.
std::atomic<uint64_t> Generation{1};
} // namespace

uint64_t cache::generation() {
  return Generation.load(std::memory_order_acquire);
}

void cache::clear() {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  Generation.fetch_add(1, std::memory_order_acq_rel);
  S.Modules.clear();
  S.Verifies.clear();
  S.Compiles.clear();
  S.Programs.clear();
  S.Natives.clear();
  S.Lru.clear();
  S.BytesLive = 0;
  counts().BytesLive.store(0, std::memory_order_relaxed);
  // Residency resets; lifetime insert/evict tallies survive (clear() is
  // not an eviction).
  for (auto &KV : S.Tenants) {
    KV.second.BytesLive = 0;
    KV.second.Entries = 0;
  }
}

size_t cache::setCapacity(size_t Bytes) {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  size_t Prev = S.Capacity;
  S.Capacity = Bytes;
  counts().Capacity.store(Bytes, std::memory_order_relaxed);
  evictOverCapacity(S); // Shrinking evicts immediately.
  return Prev;
}

size_t cache::capacity() {
  return counts().Capacity.load(std::memory_order_relaxed);
}

std::vector<TenantStats> cache::tenantStats() {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  std::vector<TenantStats> Out;
  Out.reserve(S.Tenants.size());
  for (const auto &KV : S.Tenants)
    Out.push_back({KV.first, KV.second.BytesLive, KV.second.Entries,
                   KV.second.Insertions, KV.second.Evictions});
  return Out; // std::map iteration is already name-sorted.
}

bool cache::forgetTenant(const std::string &Tenant) {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Tenants.find(Tenant);
  if (It == S.Tenants.end())
    return true;
  if (It->second.BytesLive != 0 || It->second.Entries != 0)
    return false; // Still resident: the eviction refund needs the line.
  S.Tenants.erase(It);
  return true;
}

const std::string &cache::currentTenant() { return CurrentTenantName; }

cache::ScopedTenant::ScopedTenant(std::string Name)
    : Prev(std::move(CurrentTenantName)) {
  CurrentTenantName = std::move(Name);
}

cache::ScopedTenant::~ScopedTenant() { CurrentTenantName = std::move(Prev); }

Stats cache::stats() {
  AtomicStats &C = counts();
  Stats S;
  S.ModuleHits = C.ModuleHits.load(std::memory_order_relaxed);
  S.ModuleMisses = C.ModuleMisses.load(std::memory_order_relaxed);
  S.VerifyHits = C.VerifyHits.load(std::memory_order_relaxed);
  S.VerifyMisses = C.VerifyMisses.load(std::memory_order_relaxed);
  S.CompileHits = C.CompileHits.load(std::memory_order_relaxed);
  S.CompileMisses = C.CompileMisses.load(std::memory_order_relaxed);
  S.ProgramHits = C.ProgramHits.load(std::memory_order_relaxed);
  S.ProgramMisses = C.ProgramMisses.load(std::memory_order_relaxed);
  S.NativeHits = C.NativeHits.load(std::memory_order_relaxed);
  S.NativeMisses = C.NativeMisses.load(std::memory_order_relaxed);
  S.Evictions = C.Evictions.load(std::memory_order_relaxed);
  S.BytesLive = C.BytesLive.load(std::memory_order_relaxed);
  S.CapacityBytes = C.Capacity.load(std::memory_order_relaxed);
  return S;
}

void cache::resetStats() {
  AtomicStats &C = counts();
  C.ModuleHits = 0;
  C.ModuleMisses = 0;
  C.VerifyHits = 0;
  C.VerifyMisses = 0;
  C.CompileHits = 0;
  C.CompileMisses = 0;
  C.ProgramHits = 0;
  C.ProgramMisses = 0;
  C.NativeHits = 0;
  C.NativeMisses = 0;
  C.Evictions = 0;
  // BytesLive/Capacity are state mirrors, not tallies: they survive.
}

uint64_t cache::hashTarget(const target::TargetDesc &T) {
  uint64_t H = hashBytes(T.Name.data(), T.Name.size(), 0x7a67);
  H = hashCombine(H, T.VSBytes);
  H = hashCombine(H, (uint64_t(T.HasMisaligned) << 3) |
                         (uint64_t(T.HasPermRealign) << 2) |
                         (uint64_t(T.LibFallbackForOps) << 1) |
                         uint64_t(T.X87ScalarFP));
  H = hashCombine(H, (uint64_t(T.ScalarRegs) << 32) | T.VectorRegs);
  H = hashCombine(H, T.UnsupportedKindMask);
  H = hashCombine(H, T.UnsupportedOpMask);
  const target::CostTable &C = T.Costs;
  const unsigned Cs[] = {C.RegOp,      C.AddrOp,    C.IntOp,     C.FpOp,
                         C.X87Op,      C.DivOp,     C.ConvertOp, C.ScalarLoad,
                         C.ScalarStore, C.VecLoadA, C.VecLoadU,  C.VecStoreA,
                         C.VecStoreU,  C.Shuffle,   C.WideMul,   C.DotOp,
                         C.ReduceOp,   C.SpillOp,   C.LibCall,   C.LoopIter};
  for (unsigned V : Cs)
    H = hashCombine(H, V);
  return H;
}

uint64_t cache::hashOptions(const Options &O) {
  return hashCombine(0x6f70, (uint64_t(O.CompilerTier == Tier::Weak) << 3) |
                                 (uint64_t(O.FoldAddressing) << 2) |
                                 (uint64_t(O.PromoteAccumulators) << 1) |
                                 uint64_t(O.ForceScalarize));
}

uint64_t cache::hashRuntime(const RuntimeInfo &RT) {
  uint64_t H = hashCombine(0x7274, RT.Arrays.size());
  for (const RuntimeInfo::ArrayRT &A : RT.Arrays) {
    H = hashCombine(H, A.KnownBase);
    H = hashCombine(H, A.Base);
  }
  return H;
}

uint64_t cache::hashPlacement(const target::MemoryImage &Image) {
  uint64_t H = hashCombine(0x706c, Image.arrayCount());
  for (uint32_t A = 0; A < Image.arrayCount(); ++A) {
    const ir::ArrayInfo &AI = Image.info(A);
    H = hashCombine(H, static_cast<uint64_t>(AI.Elem));
    H = hashCombine(H, AI.NumElems);
    H = hashCombine(H, Image.base(A));
  }
  H = hashCombine(H, Image.highAddr());
  return H;
}

uint64_t cache::compileKey(uint64_t ModuleId, const target::TargetDesc &T,
                           const Options &O, const RuntimeInfo &RT) {
  uint64_t H = hashCombine(0x636b, ModuleId);
  H = hashCombine(H, hashTarget(T));
  H = hashCombine(H, hashOptions(O));
  H = hashCombine(H, hashRuntime(RT));
  return H;
}

CachedModule cache::findModule(const std::vector<uint8_t> &Bytes) {
  static obs::Counter Hits("cache.module_hits"),
      Misses("cache.module_misses");
  const Key K{0, hashBytes(Bytes.data(), Bytes.size())};
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Modules.find(K);
  if (It == S.Modules.end() || It->second.Value.Bytes != Bytes) {
    bump(counts().ModuleMisses, Misses);
    return {};
  }
  touch(S, It->second.It);
  bump(counts().ModuleHits, Hits);
  return It->second.Value.M;
}

CachedModule cache::putModule(const std::vector<uint8_t> &Bytes,
                              ir::Function Module, size_t Cost) {
  if (Cost == 0)
    Cost = costModule(Module) + Bytes.size();
  const Key K{0, hashBytes(Bytes.data(), Bytes.size())};
  CachedModule Fresh{std::make_shared<const ir::Function>(std::move(Module)),
                     0};
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Modules.find(K);
  if (It != S.Modules.end()) {
    // Same bytes: under the thread pool two workers may decode them
    // concurrently; both results are identical, keep the first. Other
    // bytes with the same hash: serve this module uncached.
    if (It->second.Value.Bytes != Bytes)
      return Fresh;
    touch(S, It->second.It);
    return It->second.Value.M;
  }
  Fresh.Id = ++S.LastModuleId;
  LruIt N = charge(S, EKind::Module, K, Cost);
  auto &E = S.Modules[K];
  E.Value = ModuleSlot{Bytes, Fresh};
  E.It = N;
  // An entry costlier than the whole capacity is evicted immediately
  // (served but never resident), which erases the map node `E` refers
  // into; Fresh is a copy.
  evictOverCapacity(S);
  return Fresh;
}

std::optional<VerifyResult> cache::findVerify(uint64_t ModuleId,
                                              uint64_t TargetHash) {
  const Key K{ModuleId, TargetHash};
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  static obs::Counter Hits("cache.verify_hits"),
      Misses("cache.verify_misses");
  auto It = S.Verifies.find(K);
  if (It == S.Verifies.end()) {
    bump(counts().VerifyMisses, Misses);
    return std::nullopt;
  }
  touch(S, It->second.It);
  bump(counts().VerifyHits, Hits);
  return It->second.Value;
}

void cache::putVerify(uint64_t ModuleId, uint64_t TargetHash,
                      VerifyResult R) {
  const Key K{ModuleId, TargetHash};
  size_t Cost = costVerify(R);
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Verifies.find(K);
  if (It != S.Verifies.end()) {
    touch(S, It->second.It);
    return;
  }
  LruIt N = charge(S, EKind::Verify, K, Cost);
  auto &E = S.Verifies[K];
  E.Value = std::move(R);
  E.It = N;
  evictOverCapacity(S);
}

std::shared_ptr<const CompileResult> cache::findCompile(uint64_t ModuleId,
                                                        uint64_t CompKey) {
  const Key K{ModuleId, CompKey};
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  static obs::Counter Hits("cache.compile_hits"),
      Misses("cache.compile_misses");
  auto It = S.Compiles.find(K);
  if (It == S.Compiles.end()) {
    bump(counts().CompileMisses, Misses);
    return nullptr;
  }
  touch(S, It->second.It);
  bump(counts().CompileHits, Hits);
  return It->second.Value;
}

std::shared_ptr<const CompileResult>
cache::putCompile(uint64_t ModuleId, uint64_t CompKey, CompileResult R) {
  const Key K{ModuleId, CompKey};
  size_t Cost = costCompile(R);
  auto P = std::make_shared<const CompileResult>(std::move(R));
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Compiles.find(K);
  if (It != S.Compiles.end()) {
    touch(S, It->second.It);
    return It->second.Value;
  }
  LruIt N = charge(S, EKind::Compile, K, Cost);
  auto &E = S.Compiles[K];
  E.Value = std::move(P);
  E.It = N;
  // As in putModule: eviction may erase this very entry (oversized
  // case), so copy out before enforcing the bound.
  auto Ret = E.Value;
  evictOverCapacity(S);
  return Ret;
}

namespace {

/// Key contribution of an elision plan. Null and Off-mode plans hash
/// alike (both decode/compile to the unelided artifact).
uint64_t planKey(const target::ElisionPlan *Plan) {
  if (!Plan || Plan->Mode == target::ElisionMode::Off)
    return 0;
  return cache::hashCombine(static_cast<uint64_t>(Plan->Mode), Plan->Hash);
}

} // namespace

std::shared_ptr<const target::DecodedProgram>
cache::programFor(uint64_t ModuleId, uint64_t CompKey,
                  const target::MFunction &Code, const target::TargetDesc &T,
                  const target::MemoryImage &Image, bool Weak, bool Fuse,
                  const target::ElisionPlan *Plan) {
  uint64_t H = hashCombine(0x7067, CompKey);
  H = hashCombine(H, hashPlacement(Image));
  H = hashCombine(H, (uint64_t(Weak) << 1) | uint64_t(Fuse));
  const Key K{ModuleId, hashCombine(H, planKey(Plan))};
  static obs::Counter Hits("cache.program_hits"),
      Misses("cache.program_misses");
  Store &S = store();
  {
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Programs.find(K);
    if (It != S.Programs.end()) {
      touch(S, It->second.It);
      bump(counts().ProgramHits, Hits);
      return It->second.Value;
    }
    bump(counts().ProgramMisses, Misses);
  }
  // Build outside the lock (decode+fusion is the expensive part); ties
  // between concurrent builders of the same key resolve first-writer-wins
  // and the artifacts are identical anyway.
  auto P = target::DecodedProgram::build(Code, T, Image, Weak, Fuse, Plan);
  size_t Cost = costProgram(*P);
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Programs.find(K);
  if (It != S.Programs.end()) {
    touch(S, It->second.It);
    return It->second.Value;
  }
  LruIt N = charge(S, EKind::Program, K, Cost);
  auto &E = S.Programs[K];
  E.Value = std::move(P);
  E.It = N;
  // As in putModule: eviction may erase this very entry (oversized
  // case), so copy out before enforcing the bound.
  auto Ret = E.Value;
  evictOverCapacity(S);
  return Ret;
}

Expected<std::shared_ptr<const codegen::NativeUnit>>
cache::nativeFor(uint64_t ModuleId, uint64_t CompKey,
                 const target::MFunction &Code, const target::TargetDesc &T,
                 const target::MemoryImage &Image,
                 const codegen::NativeOptions &NO) {
  // The unit bakes array base addresses (placement) and its encodings
  // depend on the feature mask, so both join the key alongside the
  // compile key that already covers function/target/options/runtime.
  uint64_t H = hashCombine(0x6e76, CompKey);
  H = hashCombine(H, hashPlacement(Image));
  H = hashCombine(H, NO.Features.bits());
  const Key K{ModuleId, hashCombine(H, planKey(NO.Plan))};
  static obs::Counter Hits("cache.native_hits"),
      Misses("cache.native_misses");
  Store &S = store();
  {
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Natives.find(K);
    if (It != S.Natives.end()) {
      touch(S, It->second.It);
      bump(counts().NativeHits, Hits);
      return Expected<std::shared_ptr<const codegen::NativeUnit>>(
          It->second.Value);
    }
    bump(counts().NativeMisses, Misses);
  }
  // Compile outside the lock; first writer wins as with programFor.
  auto R = codegen::compileNative(Code, T, Image, NO);
  if (!R.ok())
    return R;
  std::shared_ptr<const codegen::NativeUnit> U = R.take();
  size_t Cost = costNative(*U);
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Natives.find(K);
  if (It != S.Natives.end()) {
    touch(S, It->second.It);
    return Expected<std::shared_ptr<const codegen::NativeUnit>>(
        It->second.Value);
  }
  LruIt N = charge(S, EKind::Native, K, Cost);
  auto &E = S.Natives[K];
  E.Value = std::move(U);
  E.It = N;
  // As in putModule: eviction may erase this very entry (oversized
  // case), so copy out before enforcing the bound.
  auto Ret = E.Value;
  evictOverCapacity(S);
  return Expected<std::shared_ptr<const codegen::NativeUnit>>(
      std::move(Ret));
}
