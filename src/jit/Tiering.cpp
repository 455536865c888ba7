//===- jit/Tiering.cpp - Hotness-driven background promotion ----------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "jit/Tiering.h"

#include "jit/CodeCache.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace vapor;
using namespace vapor::jit;
using namespace vapor::jit::tiering;

namespace {

using Clock = std::chrono::steady_clock;

double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

constexpr size_t MaxEventsPerKey = 32;
/// Workers of the owned pool (used only when no pool is attached).
constexpr unsigned OwnWorkers = 1;

/// One hotness-table row. All fields are guarded by Impl::Mu.
struct HotEntry {
  uint64_t Invocations = 0;
  uint64_t LastTouch = 0;   ///< Global tick of the latest invocation.
  uint64_t Gen = 0;         ///< cache::generation() the state is valid for.
  uint8_t Ready = ColdTier; ///< Entry tier of the next invocation.
  uint8_t Pin = NoTier;     ///< Best tier allowed (NoTier = unpinned).
  bool CompileInFlight = false;
  uint64_t QueuedAtInvocation = 0;
  std::vector<TransitionEvent> Events;

  void pushEvent(TransitionEvent E) {
    if (Events.size() < MaxEventsPerKey)
      Events.push_back(std::move(E));
  }
};

} // namespace

struct Engine::Impl {
  mutable std::mutex Mu;
  std::condition_variable DrainCV; ///< Signals Outstanding reaching zero.
  std::unordered_map<uint64_t, HotEntry> Table;
  Config Cfg;
  uint64_t Tick = 0;        ///< Recency clock for MaxEntries eviction.
  uint64_t Outstanding = 0; ///< Background jobs queued or running.

  // Lifetime tallies (EngineStats; obs counters tick alongside).
  uint64_t Invocations = 0;
  uint64_t Promotions = 0;
  uint64_t CompilesOk = 0;
  uint64_t CompilesFailed = 0;
  uint64_t QueueRejects = 0;
  uint64_t Pins = 0;

  /// Background execution: an attached pool's background lane when the
  /// server shares its request pool, else a lazily created owned pool.
  support::ThreadPool *Attached = nullptr;
  std::unique_ptr<support::ThreadPool> Own;

  support::ThreadPool &pool() { // Caller holds Mu.
    if (Attached)
      return *Attached;
    if (!Own)
      Own = std::make_unique<support::ThreadPool>(OwnWorkers);
    return *Own;
  }

  /// Refreshes \p E against the current cache generation: a clear()
  /// dropped the promoted artifacts AND expired every pin, so readiness
  /// falls back to the cold tier and pins lift. Hotness survives -- the
  /// function is still hot, it just has to recompile. A fresh row (Gen 0;
  /// generations start at 1) takes the same path.
  void refreshGeneration(HotEntry &E, uint64_t Gen) {
    if (E.Gen == Gen)
      return;
    E.Gen = Gen;
    E.Ready = ColdTier;
    E.Pin = NoTier;
  }

  /// Evicts the least-recently-invoked idle entries once the table
  /// outgrows the bound. Entries with an in-flight compile are never
  /// evicted (the finishing job must find its row).
  void enforceEntryBound() { // Caller holds Mu.
    if (Table.size() <= Cfg.MaxEntries)
      return;
    std::vector<std::pair<uint64_t, uint64_t>> Idle; // (LastTouch, Key)
    Idle.reserve(Table.size());
    for (const auto &KV : Table)
      if (!KV.second.CompileInFlight)
        Idle.push_back({KV.second.LastTouch, KV.first});
    size_t Want = Cfg.MaxEntries - Cfg.MaxEntries / 8; // Evict in batch.
    if (Table.size() - Idle.size() >= Want)
      return; // Everything evictable still would not get us under.
    size_t Drop = std::min(Idle.size(), Table.size() - Want);
    std::nth_element(Idle.begin(), Idle.begin() + Drop, Idle.end());
    for (size_t I = 0; I < Drop; ++I)
      Table.erase(Idle[I].second);
  }
};

Engine::Engine() : I(new Impl) {}

Engine::~Engine() {
  drain();
  delete I;
}

Decision Engine::onInvoke(uint64_t Key, uint8_t EagerTier) {
  assert(EagerTier < ColdTier && "a flow at or below cold runs eager");
  static obs::Counter Invokes("tiering.invocations");
  Invokes.add(1);
  const uint64_t Gen = cache::generation();
  std::lock_guard<std::mutex> Lock(I->Mu);
  ++I->Invocations;
  HotEntry &E = I->Table[Key];
  I->refreshGeneration(E, Gen);
  ++E.Invocations;
  E.LastTouch = ++I->Tick;

  Decision D;
  D.Invocations = E.Invocations;
  // Never better than what this run asked for (Ready never exceeds cold).
  D.EntryTier = std::max(E.Ready, EagerTier);

  // Promotion ladder: first the vectorized VM program, then -- when the
  // run asks for it -- the native unit. A pin caps how high the ladder
  // reaches; a claimed-but-unfinished compile blocks reclaiming.
  const uint8_t Floor = E.Pin == NoTier ? 0 : E.Pin;
  const bool FirstStep = E.Ready > VectorizedTier;
  const uint8_t Target = FirstStep ? VectorizedTier : EagerTier;
  const uint32_t Hot = FirstStep ? I->Cfg.HotVectorized : I->Cfg.HotNative;
  if (Target < E.Ready && Target >= Floor && E.Invocations >= Hot &&
      !E.CompileInFlight) {
    if (I->Outstanding >= I->Cfg.MaxQueue) {
      static obs::Counter Rejects("tiering.queue_rejects");
      Rejects.add(1);
      ++I->QueueRejects; // Retried on the next invocation.
    } else {
      E.CompileInFlight = true;
      E.QueuedAtInvocation = E.Invocations;
      D.ShouldCompile = true;
      D.CompileTier = Target;
    }
  }
  I->enforceEntryBound();
  return D;
}

void Engine::enqueueCompile(uint64_t Key, uint8_t FromTier, uint8_t ToTier,
                            std::function<bool()> Compile) {
  const uint64_t GenAtQueue = cache::generation();
  const Clock::time_point Queued = Clock::now();
  support::ThreadPool *Pool;
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    ++I->Outstanding;
    Pool = &I->pool();
  }
  Pool->submitBackground([this, Key, FromTier, ToTier, GenAtQueue, Queued,
                          Job = std::move(Compile)] {
    const Clock::time_point Start = Clock::now();
    bool Ok;
    {
      obs::Span S("tiering", "compile");
      S.arg("key", Key);
      S.arg("to_tier", static_cast<uint64_t>(ToTier));
      Ok = Job();
      S.arg("ok", Ok);
    }
    const Clock::time_point Done = Clock::now();

    std::lock_guard<std::mutex> Lock(I->Mu);
    if (--I->Outstanding == 0)
      I->DrainCV.notify_all();
    auto It = I->Table.find(Key);
    if (It == I->Table.end())
      return; // Row evicted? (Cannot happen while in flight; be safe.)
    HotEntry &E = It->second;
    E.CompileInFlight = false;
    if (cache::generation() != GenAtQueue)
      return; // The cache was invalidated underneath; result is stale.
    TransitionEvent Ev;
    Ev.AtInvocation = E.QueuedAtInvocation;
    Ev.FromTier = FromTier;
    Ev.ToTier = ToTier;
    Ev.QueueWaitMicros = microsBetween(Queued, Start);
    Ev.CompileMicros = microsBetween(Start, Done);
    if (Ok) {
      static obs::Counter Oks("tiering.compiles_ok");
      static obs::Counter Promos("tiering.promotions");
      Oks.add(1);
      ++I->CompilesOk;
      uint8_t NewReady = std::min(E.Ready, ToTier);
      if (E.Pin != NoTier)
        NewReady = std::max(NewReady, E.Pin);
      if (NewReady < E.Ready) {
        Promos.add(1);
        ++I->Promotions;
        E.Ready = NewReady;
      }
      Ev.What = TransitionEvent::Promoted;
    } else {
      static obs::Counter Fails("tiering.compiles_failed");
      static obs::Counter PinsC("tiering.pins");
      Fails.add(1);
      ++I->CompilesFailed;
      ++I->Pins;
      // The tier does not compile for this function: pin strictly below
      // it so the ladder never re-claims the same doomed step.
      uint8_t Pin = std::min<uint8_t>(ToTier + 1, ColdTier);
      E.Pin = E.Pin == NoTier ? Pin : std::max(E.Pin, Pin);
      E.Ready = std::max(E.Ready, E.Pin);
      Ev.What = TransitionEvent::CompileFailed;
      Ev.ToTier = E.Pin;
      PinsC.add(1);
    }
    E.pushEvent(std::move(Ev));
  });
}

void Engine::onOutcome(uint64_t Key, uint8_t PinTier) {
  static obs::Counter PinsC("tiering.pins");
  const uint64_t Gen = cache::generation();
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto It = I->Table.find(Key);
  if (It == I->Table.end())
    return;
  HotEntry &E = It->second;
  I->refreshGeneration(E, Gen);
  uint8_t Pin = std::min(PinTier, ColdTier);
  if (E.Pin != NoTier && Pin <= E.Pin)
    return; // Already pinned at least this low.
  PinsC.add(1);
  ++I->Pins;
  TransitionEvent Ev;
  Ev.What = TransitionEvent::Demoted;
  Ev.AtInvocation = E.Invocations;
  Ev.FromTier = E.Ready;
  Ev.ToTier = Pin;
  E.Pin = Pin;
  E.Ready = std::max(E.Ready, E.Pin);
  E.pushEvent(std::move(Ev));
}

void Engine::drain() {
  std::unique_lock<std::mutex> Lock(I->Mu);
  I->DrainCV.wait(Lock, [this] { return I->Outstanding == 0; });
}

void Engine::reset() {
  drain();
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Table.clear();
  I->Tick = 0;
  I->Invocations = I->Promotions = I->CompilesOk = I->CompilesFailed =
      I->QueueRejects = I->Pins = 0;
}

Config Engine::config() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->Cfg;
}

void Engine::setConfig(const Config &C) {
  drain();
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Cfg = C;
}

void Engine::attachPool(support::ThreadPool *Pool) {
  drain(); // No job may outlive the pool it was submitted to.
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Attached = Pool;
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  EngineStats S;
  S.Invocations = I->Invocations;
  S.Promotions = I->Promotions;
  S.CompilesOk = I->CompilesOk;
  S.CompilesFailed = I->CompilesFailed;
  S.QueueRejects = I->QueueRejects;
  S.Pins = I->Pins;
  S.QueueDepth = I->Outstanding;
  S.Entries = I->Table.size();
  return S;
}

std::optional<KeyReport> Engine::keyReport(uint64_t Key) const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto It = I->Table.find(Key);
  if (It == I->Table.end())
    return std::nullopt;
  const HotEntry &E = It->second;
  KeyReport R;
  R.Key = Key;
  R.Invocations = E.Invocations;
  R.ReadyTier = E.Ready;
  R.PinTier = E.Pin;
  R.CompileInFlight = E.CompileInFlight;
  R.Events = E.Events;
  return R;
}

Engine &tiering::engine() {
  static Engine E;
  return E;
}
