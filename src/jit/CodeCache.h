//===- jit/CodeCache.h - Content-addressed online-stage cache --*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide content-addressed cache for every deterministic product
/// of the online stage. The bench sweeps, the parallel crashtest driver
/// and the server run the same (kernel, target, placement) cell over and
/// over; each cell's decode, verify, JIT lowering, VM pre-decode+fusion
/// and native compile are pure functions of their inputs, so the cache
/// memoizes all five:
///
///   module   key = the encoded bytecode bytes
///            -> the decoded ir::Function and its module id;
///   verify   key = (module id, target hash)
///            -> the verifier's verdict, rendered report and certificate;
///   compile  key = (module id, target hash, jit::Options hash,
///                   RuntimeInfo hash)
///            -> the CompileResult (machine code + scalarization info);
///   program  key = (module id, compile key, placement hash, weak-tier,
///                   fuse, elision plan)
///            -> the VM's immutable DecodedProgram, shared by every VM
///               that runs that code against that placement;
///   native   key = (module id, compile key, placement hash, encoding
///                   set, elision plan)
///            -> the sealed x86-64 NativeUnit.
///
/// Every kind goes through one get-or-build memo behind a typed entry
/// point (moduleFor, verifyFor, compileFor, programFor, nativeFor): look
/// the key up under the lock; on a miss, build outside it, then insert
/// first-writer-wins (a racing builder of the same key is handed the
/// winner's artifact), charge the entry to the recency list and the
/// calling tenant, and evict down to the capacity. A build that fails
/// (decode, lowering or native compile) returns its Status and is never
/// memoized. The cache runs the builders it links itself; vapor_jit links
/// neither the decoder nor the verifier (which links vapor_jit), so their
/// callers pass them in.
///
/// No hit rests on a hash of tenant input. A module entry answers only
/// the exact bytes it was decoded from (a hit compares them), and hands
/// out a process-unique module id; every later memo keys on that id, so
/// two different byte strings never share a module, a verdict or any
/// code, whatever their hashes. The remaining key parts hash values the
/// process derives itself: the target description, the options, the
/// module's own array layout, and the elision plan the checker built.
/// Keys read values only -- no pointers -- so results are identical
/// whether the sweep runs serial or across the thread pool.
///
/// The memo stands down -- it builds, inserts nothing and counts nothing
/// -- whenever this thread's fault-injection controller is active:
/// instrumented runs must actually execute every stage so site counters
/// stay deterministic, and a result produced under an injected fault must
/// never be memoized. This keeps the crashtest's fault counts
/// bit-identical with the cache compiled in. It also stands down for
/// module id 0, the id of bytes whose hash slot another module holds.
///
/// All entries are immutable once inserted and handed out as
/// shared_ptr-to-const; one mutex guards the memo, so sweep workers share
/// one cache safely.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_JIT_CODECACHE_H
#define VAPOR_JIT_CODECACHE_H

#include "analysis/Certificate.h"
#include "codegen/NativeJit.h"
#include "jit/Jit.h"
#include "support/Support.h"
#include "target/VM.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace vapor {
namespace jit {
namespace cache {

/// Drops every entry (all five kinds), the LRU list, and the live-byte
/// charges (global and per-tenant). Entries already handed out stay
/// alive through their shared_ptrs. Eviction/insertion counters keep
/// their totals (clear() is not an eviction).
void clear();

/// Monotonic invalidation generation: starts at 1 and is bumped by every
/// clear(). The tiering engine (jit/Tiering.h) stamps its promotion
/// state and demotion pins with this, so a full cache invalidation also
/// expires "function is ready at tier X" claims and "never re-promote
/// into tier Y" pins -- both describe artifacts/failures of the cleared
/// generation.
uint64_t generation();

struct Stats {
  uint64_t ModuleHits = 0, ModuleMisses = 0;
  uint64_t VerifyHits = 0, VerifyMisses = 0;
  uint64_t CompileHits = 0, CompileMisses = 0;
  uint64_t ProgramHits = 0, ProgramMisses = 0;
  uint64_t NativeHits = 0, NativeMisses = 0;
  /// Memory-bound telemetry (capacity-driven LRU eviction; see
  /// setCapacity). BytesLive counts the approximate cost of resident
  /// entries; Evictions counts entries dropped to stay under the bound.
  uint64_t Evictions = 0;
  uint64_t BytesLive = 0;
  uint64_t CapacityBytes = 0; ///< 0 = unbounded.

  /// Lookups over every kind, for callers that report one hit count.
  uint64_t hits() const {
    return ModuleHits + VerifyHits + CompileHits + ProgramHits + NativeHits;
  }
  uint64_t misses() const {
    return ModuleMisses + VerifyMisses + CompileMisses + ProgramMisses +
           NativeMisses;
  }
};
Stats stats();
void resetStats();

//===--- Memory bound + cost-aware LRU ------------------------------------===//
//
// Every entry carries an approximate byte cost (machine-code bytes,
// decoded-op array sizes, report lengths -- see the cost functions in
// CodeCache.cpp). With a nonzero capacity the cache maintains one
// recency list across all five kinds and evicts from the cold end,
// cheapest-to-keep last: a hit refreshes recency, an insert charges its
// cost and then evicts least-recently-used entries (of any kind) until
// the total is back under the bound. Capacity 0 (the default) disables
// eviction entirely and is byte-identical to the unbounded cache.
//
// The invariant with a nonzero capacity is BytesLive <= CapacityBytes at
// every return -- an entry larger than the whole capacity is evicted
// immediately after insertion (its caller keeps it via the returned
// shared_ptr; it is simply never resident).

/// Sets the total-cost budget in approximate bytes (0 = unbounded) and
/// \returns the previous capacity. Shrinking evicts immediately.
size_t setCapacity(size_t Bytes);
size_t capacity();

//===--- Per-tenant accounting --------------------------------------------===//
//
// The execution service attributes cache residency to the tenant whose
// request inserted each entry. Attribution is ambient (a thread-local
// tenant name) so no entry point takes a tenant argument; the
// empty name is the anonymous/default tenant every non-server caller
// charges to.

struct TenantStats {
  std::string Tenant;
  uint64_t BytesLive = 0;   ///< Resident cost attributed to this tenant.
  uint64_t Entries = 0;     ///< Resident entry count.
  uint64_t Insertions = 0;  ///< Lifetime inserts attributed.
  uint64_t Evictions = 0;   ///< Lifetime evictions of this tenant's entries.
};
/// Snapshot of every tenant ever charged, sorted by name.
std::vector<TenantStats> tenantStats();

/// Drops \p Tenant's accounting line (lifetime tallies included) iff it
/// has no resident bytes or entries; \returns true when the line is
/// gone (or never existed). The execution service retires idle tenants
/// through this so the per-tenant map stays bounded when hostile
/// clients invent unique tenant names.
bool forgetTenant(const std::string &Tenant);

/// The tenant name new insertions are attributed to on this thread.
const std::string &currentTenant();

/// RAII tenant attribution: sets the thread's tenant for the scope,
/// restoring the previous one (scopes nest).
class ScopedTenant {
public:
  explicit ScopedTenant(std::string Name);
  ~ScopedTenant();
  ScopedTenant(const ScopedTenant &) = delete;
  ScopedTenant &operator=(const ScopedTenant &) = delete;

private:
  std::string Prev;
};

//===--- Key ingredients --------------------------------------------------===//
// Combine with a module id (moduleFor). Every hash covers all
// semantically relevant fields of its input; none reads a pointer.

/// Raw bytes and single words fold in through the shared word-at-a-time
/// mixer (support/Support.h). It is fast, not collision resistant: no
/// memo trusts a hash match as proof of equal content.
using vapor::hashBytes;
using vapor::hashCombine;

/// Hash of everything the JIT and VM read from a TargetDesc (name,
/// widths, feature flags, register counts, legality masks, cost table).
uint64_t hashTarget(const target::TargetDesc &T);

/// Hash of \p Image's placement: per-array element kind, length, and
/// resolved base address, plus the image bounds. Two images with equal
/// placement hashes can share one DecodedProgram (its baked bases are
/// valid for both).
uint64_t hashPlacement(const target::MemoryImage &Image);

//===--- Module (decode) memo ---------------------------------------------===//

/// A decoded module with the id the memos below key on. Each insertion
/// takes a fresh id and none is ever reused (clear() included), so an id
/// names one byte string for the life of the process.
struct CachedModule {
  std::shared_ptr<const ir::Function> Fn;
  uint64_t Id = 0; ///< 0 = not cached.
};

/// What the module memo runs on a miss: bytecode::decode in production
/// (vapor_jit does not link the bytecode library).
using Decoder = Expected<ir::Function> (*)(const std::vector<uint8_t> &);

/// The module decoded from exactly \p Bytes. A hit compares the stored
/// bytes, so two byte strings that hash alike never share one. A miss
/// runs \p Decode and charges twice the encoded size: the decode, plus
/// the bytes the entry keeps to confirm hits. The id is 0 when the memo
/// stood down, or when another byte string with the same hash holds the
/// slot; that module is served uncached.
Expected<CachedModule> moduleFor(const std::vector<uint8_t> &Bytes,
                                 Decoder Decode);

//===--- Verify memo ------------------------------------------------------===//

struct VerifyResult {
  bool Ok = false;
  std::string Report; ///< Rendered findings (empty when Ok).
  /// The per-target safety certificate the verifier emitted (null when
  /// it proved nothing). Cached alongside the verdict so elision plans
  /// can be rebuilt per placement without re-running the verifier.
  std::shared_ptr<const analysis::SafetyCertificate> Cert;
};

/// The verdict on module \p ModuleId for target \p T. A miss runs
/// \p Verify (the verifier links vapor_jit, not the other way round).
std::shared_ptr<const VerifyResult>
verifyFor(uint64_t ModuleId, const target::TargetDesc &T,
          const std::function<VerifyResult()> &Verify);

//===--- Compile memo -----------------------------------------------------===//

/// The compile key for (\p ModuleId, target \p T, options \p O, runtime
/// \p RT). Also the prefix of the program and native keys.
uint64_t compileKey(uint64_t ModuleId, const target::TargetDesc &T,
                    const Options &O, const RuntimeInfo &RT);

/// The lowering of \p Module (id \p ModuleId) under \p CompKey, the
/// compileKey of the remaining arguments. A miss runs
/// jit::compileChecked; a lowering error is returned uncached.
Expected<std::shared_ptr<const CompileResult>>
compileFor(uint64_t ModuleId, uint64_t CompKey, const ir::Function &Module,
           const target::TargetDesc &T, const RuntimeInfo &RT,
           const Options &O);

//===--- Decoded-program memo ---------------------------------------------===//

/// The pre-decoded (and fused) program for module \p ModuleId's
/// \p CompKey machine code at \p Image's placement. A miss runs
/// target::DecodedProgram::build. Never returns null. The elision plan
/// (mode + grant hash) joins the key: decoded check states are baked
/// into the program.
std::shared_ptr<const target::DecodedProgram>
programFor(uint64_t ModuleId, uint64_t CompKey, const target::MFunction &Code,
           const target::TargetDesc &T, const target::MemoryImage &Image,
           bool Weak, bool Fuse, const target::ElisionPlan *Plan = nullptr);

//===--- Native-unit memo -------------------------------------------------===//

/// The native compilation of module \p ModuleId's \p CompKey machine
/// code for \p Image's placement under \p NO's encoding set and plan. A
/// miss runs codegen::compileNative. A failing Status is returned
/// uncached, so the executor's demotion path re-evaluates it every
/// attempt (the failure may be environmental, e.g. page allocation).
Expected<std::shared_ptr<const codegen::NativeUnit>>
nativeFor(uint64_t ModuleId, uint64_t CompKey, const target::MFunction &Code,
          const target::TargetDesc &T, const target::MemoryImage &Image,
          const codegen::NativeOptions &NO);

} // namespace cache
} // namespace jit
} // namespace vapor

#endif // VAPOR_JIT_CODECACHE_H
