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

/// The five artifact kinds, in Stats field order.
enum class Kind : uint8_t { Module, Verify, Compile, Program, Native };
constexpr size_t NumKinds = 5;

/// A memo key: the artifact kind, the module id it belongs to, and a
/// hash of the rest. The module memo keys on the bytes hash alone
/// (Module 0) and confirms the bytes; the other kinds compare the module
/// id exactly.
struct Key {
  Kind K = Kind::Module;
  uint64_t Module = 0;
  uint64_t Hash = 0;
  bool operator==(const Key &) const = default;
};
struct KeyHash {
  size_t operator()(const Key &K) const {
    return hashCombine(hashCombine(static_cast<uint64_t>(K.K), K.Module),
                       K.Hash);
  }
};

/// One node of the recency list: enough to erase the entry and refund
/// its charge when it falls off the cold end.
struct LruNode {
  Key K;
  size_t Cost;
  std::string Tenant;
};
using LruList = std::list<LruNode>;
using LruIt = LruList::iterator;

/// A resident artifact (type-erased; its Key says which kind) with its
/// recency-list position, so hits can splice to the hot end and
/// evictions can refund the exact charge.
struct Slot {
  std::shared_ptr<const void> Value;
  LruIt It;
};

/// A module entry keeps the bytes it was decoded from: a hit must match
/// them, not just their hash.
struct ModuleSlot {
  std::vector<uint8_t> Bytes;
  CachedModule M;
};

struct TenantUsage {
  uint64_t BytesLive = 0;
  uint64_t Entries = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
};

/// One mutex-guarded store for every entry plus the recency list and
/// the capacity accounting: lookups are a hash plus a map probe, far off
/// any per-dispatch hot path, so a single lock is simpler than several
/// and contention is irrelevant at sweep granularity.
struct Store {
  std::mutex Mu;
  std::unordered_map<Key, Slot, KeyHash> Entries;
  LruList Lru;            ///< Front = most recently used.
  size_t BytesLive = 0;   ///< Sum of resident entry costs.
  size_t Capacity = 0;    ///< 0 = unbounded.
  std::map<std::string, TenantUsage> Tenants;
};

Store &store() {
  static Store S;
  return S;
}

/// Module ids are never reused, clear() included.
std::atomic<uint64_t> LastModuleId{0};

/// One kind's hit/miss tallies. They live outside the store mutex as
/// relaxed atomics, mirrored into obs counters: stats() must be readable
/// without taking the cache lock. A stats() snapshot concurrent with
/// lookups may be mid-update across fields; per-field totals are exact.
struct Tally {
  obs::Counter ObsHits, ObsMisses;
  std::atomic<uint64_t> Hits{0}, Misses{0};
};

Tally &tally(Kind K) {
  static Tally T[NumKinds] = {
      {obs::Counter("cache.module_hits"), obs::Counter("cache.module_misses")},
      {obs::Counter("cache.verify_hits"), obs::Counter("cache.verify_misses")},
      {obs::Counter("cache.compile_hits"),
       obs::Counter("cache.compile_misses")},
      {obs::Counter("cache.program_hits"),
       obs::Counter("cache.program_misses")},
      {obs::Counter("cache.native_hits"), obs::Counter("cache.native_misses")},
  };
  return T[static_cast<size_t>(K)];
}

/// The Stats fields each kind's tallies land in.
constexpr uint64_t Stats::*HitField[NumKinds] = {
    &Stats::ModuleHits, &Stats::VerifyHits, &Stats::CompileHits,
    &Stats::ProgramHits, &Stats::NativeHits};
constexpr uint64_t Stats::*MissField[NumKinds] = {
    &Stats::ModuleMisses, &Stats::VerifyMisses, &Stats::CompileMisses,
    &Stats::ProgramMisses, &Stats::NativeMisses};

std::atomic<uint64_t> Evictions{0};
std::atomic<uint64_t> BytesLiveMirror{0}; ///< Mirror of Store::BytesLive.
std::atomic<uint64_t> CapacityMirror{0};  ///< Mirror of Store::Capacity.

/// The thread's ambient tenant attribution (empty = anonymous).
thread_local std::string CurrentTenantName;

//===--- Approximate entry costs ------------------------------------------===//
// Coarse but monotone-in-reality byte estimates; the bound is a memory
// *budget*, not an allocator audit, so each entry pays its dominant
// arrays plus a fixed overhead for the map/list/node bookkeeping.

constexpr size_t EntryOverhead = 256;

/// The decode, plus the bytes the entry keeps to confirm hits.
size_t cost(const ModuleSlot &M) { return 2 * M.Bytes.size(); }

size_t cost(const VerifyResult &R) {
  return EntryOverhead + R.Report.size() + (R.Cert ? 4096 : 0);
}

size_t cost(const CompileResult &R) {
  return EntryOverhead + R.Code.Instrs.size() * sizeof(target::MInstr) +
         R.Code.Regs.size() * sizeof(target::MRegInfo) +
         R.ScalarizeReason.size();
}

size_t cost(const target::DecodedProgram &P) {
  return EntryOverhead +
         P.Code.size() * sizeof(target::DecodedProgram::DOp) +
         P.AuxLanes.size() * sizeof(uint32_t) +
         P.OrigIndex.size() * sizeof(uint32_t);
}

size_t cost(const codegen::NativeUnit &U) {
  return EntryOverhead + U.Stats.CodeBytes +
         U.Deferred.Code.size() * sizeof(target::DecodedProgram::DOp);
}

//===--- LRU plumbing (all called under Store::Mu) ------------------------===//

void touch(Store &S, LruIt It) {
  if (It != S.Lru.begin())
    S.Lru.splice(S.Lru.begin(), S.Lru, It);
}

/// Evicts from the cold end until BytesLive is under the capacity.
/// No-op with capacity 0. Maintains the per-tenant refunds and the
/// eviction tallies (obs + atomic stats). An evicted artifact survives
/// through any shared_ptrs already handed out.
void evictOverCapacity(Store &S) {
  if (S.Capacity == 0)
    return;
  static obs::Counter Evicted("cache.evictions");
  while (S.BytesLive > S.Capacity && !S.Lru.empty()) {
    const LruNode &N = S.Lru.back();
    S.Entries.erase(N.K);
    S.BytesLive -= std::min(S.BytesLive, N.Cost);
    TenantUsage &T = S.Tenants[N.Tenant];
    T.BytesLive -= std::min(T.BytesLive, static_cast<uint64_t>(N.Cost));
    if (T.Entries)
      --T.Entries;
    ++T.Evictions;
    S.Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
    Evicted.add(1);
  }
  BytesLiveMirror.store(S.BytesLive, std::memory_order_relaxed);
}

/// Charges a fresh insertion: pushes the hot-end node and attributes the
/// cost to the calling thread's tenant. \returns the node's iterator for
/// the entry.
LruIt charge(Store &S, const Key &K, size_t Cost) {
  S.Lru.push_front(LruNode{K, Cost, CurrentTenantName});
  S.BytesLive += Cost;
  TenantUsage &T = S.Tenants[CurrentTenantName];
  T.BytesLive += Cost;
  ++T.Entries;
  ++T.Insertions;
  BytesLiveMirror.store(S.BytesLive, std::memory_order_relaxed);
  return S.Lru.begin();
}

//===--- The memo ---------------------------------------------------------===//

template <typename T> using Built = Expected<std::shared_ptr<const T>>;

/// What the memo hands back. Memoized is false when the memo stood down
/// or another artifact holds the key (a module-hash collision): the
/// caller then serves Value uncached.
template <typename T> struct Got {
  std::shared_ptr<const T> Value;
  bool Memoized = false;
};

/// Every resident artifact answers its key, except a module entry, which
/// also compares bytes.
struct AnyMatch {
  template <typename T> bool operator()(const T &) const { return true; }
};

/// The memo stands down while this thread injects faults, and for the
/// artifacts of an uncached module (id 0).
bool standsDown(const Key &K) {
  return faultinject::controller().Active ||
         (K.K != Kind::Module && K.Module == 0);
}

/// The one get-or-build body behind every entry point: look \p K up
/// under the lock; on a miss, run \p Build outside it (decode, lowering
/// and compiles are the expensive part), then insert first-writer-wins,
/// charge, and evict down to the capacity. A racing builder of the same
/// key gets the winner's artifact (both are identical anyway). A failed
/// build is returned and never memoized.
template <typename T, typename BuildFn, typename MatchFn = AnyMatch>
Expected<Got<T>> getOrBuild(const Key &K, BuildFn &&Build,
                            MatchFn Match = {}) {
  const bool Memo = !standsDown(K);
  Store &S = store();
  if (Memo) {
    std::lock_guard<std::mutex> L(S.Mu);
    Tally &C = tally(K.K);
    auto It = S.Entries.find(K);
    if (It != S.Entries.end() &&
        Match(*static_cast<const T *>(It->second.Value.get()))) {
      touch(S, It->second.It);
      C.Hits.fetch_add(1, std::memory_order_relaxed);
      C.ObsHits.add(1);
      return Got<T>{std::static_pointer_cast<const T>(It->second.Value), true};
    }
    C.Misses.fetch_add(1, std::memory_order_relaxed);
    C.ObsMisses.add(1);
  }
  Built<T> B = Build();
  if (!B)
    return B.status();
  std::shared_ptr<const T> V = B.take();
  if (!Memo)
    return Got<T>{std::move(V), false};
  const size_t Cost = cost(*V);
  std::lock_guard<std::mutex> L(S.Mu);
  auto [It, Fresh] = S.Entries.try_emplace(K);
  if (!Fresh) {
    // A racing builder of the same key inserted first: serve its entry.
    // Another artifact under the key (a module-hash collision) keeps the
    // slot, and V is served uncached.
    if (!Match(*static_cast<const T *>(It->second.Value.get())))
      return Got<T>{std::move(V), false};
    touch(S, It->second.It);
    return Got<T>{std::static_pointer_cast<const T>(It->second.Value), true};
  }
  It->second = Slot{V, charge(S, K, Cost)};
  // An entry costlier than the whole capacity is evicted at once: served
  // through V, never resident.
  evictOverCapacity(S);
  return Got<T>{std::move(V), true};
}

/// The artifact of an entry point whose build may fail.
template <typename T>
Built<T> valueOf(Expected<Got<T>> G) {
  if (!G)
    return G.status();
  return std::move(G->Value);
}

/// Key contribution of an elision plan. Null and Off-mode plans hash
/// alike (both decode/compile to the unelided artifact).
uint64_t planKey(const target::ElisionPlan *Plan) {
  if (!Plan || Plan->Mode == target::ElisionMode::Off)
    return 0;
  return hashCombine(static_cast<uint64_t>(Plan->Mode), Plan->Hash);
}

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
  S.Entries.clear();
  S.Lru.clear();
  S.BytesLive = 0;
  BytesLiveMirror.store(0, std::memory_order_relaxed);
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
  CapacityMirror.store(Bytes, std::memory_order_relaxed);
  evictOverCapacity(S); // Shrinking evicts immediately.
  return Prev;
}

size_t cache::capacity() {
  return CapacityMirror.load(std::memory_order_relaxed);
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
  Stats S;
  for (size_t K = 0; K < NumKinds; ++K) {
    const Tally &C = tally(static_cast<Kind>(K));
    S.*HitField[K] = C.Hits.load(std::memory_order_relaxed);
    S.*MissField[K] = C.Misses.load(std::memory_order_relaxed);
  }
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.BytesLive = BytesLiveMirror.load(std::memory_order_relaxed);
  S.CapacityBytes = CapacityMirror.load(std::memory_order_relaxed);
  return S;
}

void cache::resetStats() {
  for (size_t K = 0; K < NumKinds; ++K) {
    Tally &C = tally(static_cast<Kind>(K));
    C.Hits = 0;
    C.Misses = 0;
  }
  Evictions = 0;
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
  // The jit::Options knobs: tier, codegen profile, forced scalarization.
  H = hashCombine(H, hashCombine(0x6f70,
                                 (uint64_t(O.CompilerTier == Tier::Weak) << 3) |
                                     (uint64_t(O.FoldAddressing) << 2) |
                                     (uint64_t(O.PromoteAccumulators) << 1) |
                                     uint64_t(O.ForceScalarize)));
  // What the JIT knows about the runtime: per-array known base and base.
  uint64_t R = hashCombine(0x7274, RT.Arrays.size());
  for (const RuntimeInfo::ArrayRT &A : RT.Arrays) {
    R = hashCombine(R, A.KnownBase);
    R = hashCombine(R, A.Base);
  }
  return hashCombine(H, R);
}

Expected<CachedModule> cache::moduleFor(const std::vector<uint8_t> &Bytes,
                                        Decoder Decode) {
  auto G = getOrBuild<ModuleSlot>(
      Key{Kind::Module, 0, hashBytes(Bytes.data(), Bytes.size())},
      [&]() -> Built<ModuleSlot> {
        Expected<ir::Function> F = Decode(Bytes);
        if (!F)
          return F.status();
        return std::make_shared<const ModuleSlot>(ModuleSlot{
            Bytes, {std::make_shared<const ir::Function>(F.take()),
                    LastModuleId.fetch_add(1, std::memory_order_relaxed) +
                        1}});
      },
      [&](const ModuleSlot &M) { return M.Bytes == Bytes; });
  if (!G)
    return G.status();
  return CachedModule{G->Value->M.Fn, G->Memoized ? G->Value->M.Id : 0};
}

std::shared_ptr<const VerifyResult>
cache::verifyFor(uint64_t ModuleId, const target::TargetDesc &T,
                 const std::function<VerifyResult()> &Verify) {
  return getOrBuild<VerifyResult>(
             Key{Kind::Verify, ModuleId, hashTarget(T)},
             [&]() -> Built<VerifyResult> {
               return std::make_shared<const VerifyResult>(Verify());
             })
      ->Value;
}

Expected<std::shared_ptr<const CompileResult>>
cache::compileFor(uint64_t ModuleId, uint64_t CompKey,
                  const ir::Function &Module, const target::TargetDesc &T,
                  const RuntimeInfo &RT, const Options &O) {
  return valueOf(getOrBuild<CompileResult>(
      Key{Kind::Compile, ModuleId, CompKey}, [&]() -> Built<CompileResult> {
        Expected<CompileResult> R = compileChecked(Module, T, RT, O);
        if (!R)
          return R.status();
        return std::make_shared<const CompileResult>(R.take());
      }));
}

std::shared_ptr<const target::DecodedProgram>
cache::programFor(uint64_t ModuleId, uint64_t CompKey,
                  const target::MFunction &Code, const target::TargetDesc &T,
                  const target::MemoryImage &Image, bool Weak, bool Fuse,
                  const target::ElisionPlan *Plan) {
  uint64_t H = hashCombine(0x7067, CompKey);
  H = hashCombine(H, hashPlacement(Image));
  H = hashCombine(H, (uint64_t(Weak) << 1) | uint64_t(Fuse));
  return getOrBuild<target::DecodedProgram>(
             Key{Kind::Program, ModuleId, hashCombine(H, planKey(Plan))},
             [&]() -> Built<target::DecodedProgram> {
               return target::DecodedProgram::build(Code, T, Image, Weak,
                                                    Fuse, Plan);
             })
      ->Value;
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
  return valueOf(getOrBuild<codegen::NativeUnit>(
      Key{Kind::Native, ModuleId, hashCombine(H, planKey(NO.Plan))},
      [&] { return codegen::compileNative(Code, T, Image, NO); }));
}
