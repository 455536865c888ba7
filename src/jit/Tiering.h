//===- jit/Tiering.h - Hotness-driven background promotion -----*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction. See src/jit/README.md for the
// queue/threshold knobs and DESIGN.md §13 for the promotion lattice and
// the safe-point contract.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vapor::jit::tiering -- the asynchronous compile queue and promotion
/// policy behind RunOptions::Tiered. The executor's degradation chain
/// (PR 3) moves runs DOWN the tier lattice when something fails; this
/// engine moves functions UP it when they get hot:
///
///   - the first invocation of a (function × target × placement ×
///     options) cell runs at the one cold tier, ColdTier (the
///     forced-scalar JIT; a kernel flow, which has no decoded module
///     yet, runs it as compiled scalar bytecode);
///   - every invocation ticks a hotness entry; at the configured
///     thresholds the engine claims ONE background compile slot per
///     entry and the caller enqueues an off-thread compile of the next
///     better tier (vectorized VM program first, then -- when the run
///     asks for it and the build has it -- the native unit);
///   - background compiles run at ThreadPool BACKGROUND priority
///     (support/ThreadPool.h: an idle-only lane), so they can never
///     starve foreground/request execution;
///   - a finished compile lands its artifacts in the CodeCache and
///     lowers the entry's ready tier; the NEXT invocation enters there
///     and hits warm cache. The swap-in point is the run boundary: an
///     in-flight run always completes on the tier it started.
///
/// Promotion never races demotion. Both mutate one mutex-guarded entry,
/// and a demotion pins the entry below the failing tier (numerically
/// above it -- ExecTier is best-first) until the CodeCache generation
/// changes (jit::cache::generation(), bumped by clear()): a function
/// that trapped at Vectorized is not re-promoted into Vectorized, and a
/// tier whose background compile failed is never entered at all.
///
/// The engine stores tiers as raw uint8_t values of vapor::ExecTier
/// (0 = Native ... 4 = Interpreter, lower is better) so this layer needs
/// no dependency on the pipeline headers above it; the two lattice
/// points it needs by name are the constants below, which the executor
/// static_asserts against ExecTier.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_JIT_TIERING_H
#define VAPOR_JIT_TIERING_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace vapor {
namespace support {
class ThreadPool;
} // namespace support

namespace jit {
namespace tiering {

/// Out-of-band tier value: "no tier" / "no pin".
constexpr uint8_t NoTier = 0xff;
/// The first promotion step: the vectorized VM program
/// (ExecTier::Vectorized).
constexpr uint8_t VectorizedTier = 1;
/// The one cold-entry tier of every flow (ExecTier::ScalarJit). Fresh
/// and invalidated rows are ready here, and no pin sits below it.
constexpr uint8_t ColdTier = 2;

struct Config {
  /// Invocation count at which the first promotion step (the vectorized
  /// VM program) is queued for background compilation.
  uint32_t HotVectorized = 8;
  /// Invocation count at which the native unit is queued (only reached
  /// when the run asked for the native tier and the first step landed).
  uint32_t HotNative = 24;
  /// Bound on outstanding (queued or compiling) background jobs across
  /// all entries; past it a threshold crossing is rejected this
  /// invocation (counted in EngineStats::QueueRejects) and retried on
  /// the next one.
  uint32_t MaxQueue = 64;
  /// Bound on hotness-table entries; past it the least-recently-invoked
  /// entries without an in-flight compile are evicted.
  uint32_t MaxEntries = 4096;
};

/// What onInvoke tells the caller to do for this run.
struct Decision {
  uint8_t EntryTier = NoTier; ///< Tier this invocation should enter at.
  /// True when this call claimed the entry's background-compile slot:
  /// the caller MUST follow up with enqueueCompile for CompileTier.
  bool ShouldCompile = false;
  uint8_t CompileTier = NoTier;
  uint64_t Invocations = 0; ///< Count after this invocation's tick.
};

/// One row of a per-function promotion timeline (vapor-explain).
struct TransitionEvent {
  enum Kind : uint8_t {
    Promoted,      ///< Background compile succeeded; ready tier lowered.
    CompileFailed, ///< Background compile failed; pinned below ToTier.
    Demoted,       ///< A tiered run failed/demoted; pinned at ToTier.
  };
  Kind What = Promoted;
  uint64_t AtInvocation = 0; ///< Invocation count when the event's
                             ///< compile was queued (or the run ran).
  uint8_t FromTier = NoTier;
  uint8_t ToTier = NoTier;
  double QueueWaitMicros = 0; ///< Submission -> job start (compiles).
  double CompileMicros = 0;   ///< Job start -> finish (compiles).
};

/// Snapshot of one hotness entry.
struct KeyReport {
  uint64_t Key = 0;
  uint64_t Invocations = 0;
  uint8_t ReadyTier = NoTier; ///< Entry tier of the next invocation.
  uint8_t PinTier = NoTier;   ///< Best tier allowed by pins (NoTier = none).
  bool CompileInFlight = false;
  std::vector<TransitionEvent> Events;
};

struct EngineStats {
  uint64_t Invocations = 0;
  uint64_t Promotions = 0;     ///< Ready-tier improvements applied.
  uint64_t CompilesOk = 0;     ///< Background compiles that succeeded.
  uint64_t CompilesFailed = 0; ///< Background compiles that failed (pin).
  uint64_t QueueRejects = 0;   ///< Threshold crossings past MaxQueue.
  uint64_t Pins = 0;           ///< Demotion/compile-failure pins recorded.
  uint64_t QueueDepth = 0;     ///< Outstanding background jobs right now.
  uint64_t Entries = 0;        ///< Live hotness-table entries.
};

class Engine {
public:
  Engine();
  ~Engine(); ///< Drains outstanding compiles, then tears down the pool.

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Ticks \p Key's hotness entry and picks the entry tier for this
  /// invocation, between ColdTier and \p EagerTier, the best tier this
  /// run is allowed to reach (the entry tier eager mode would use; it
  /// must be better than ColdTier -- a flow whose eager tier is not has
  /// nothing to tier and runs eager). When a promotion threshold is
  /// crossed the returned Decision claims the compile slot -- the
  /// caller must then enqueueCompile exactly once.
  Decision onInvoke(uint64_t Key, uint8_t EagerTier);

  /// Submits the background compile claimed by onInvoke. \p Compile
  /// returns true when the target tier's artifacts are ready (they must
  /// already be in the CodeCache); false pins the entry below
  /// \p ToTier. Runs at background priority on the attached pool (or
  /// the lazily created engine-owned one). Must not be called without a
  /// claiming Decision.
  void enqueueCompile(uint64_t Key, uint8_t FromTier, uint8_t ToTier,
                      std::function<bool()> Compile);

  /// Reports a tiered run that failed or demoted: the entry is pinned
  /// so later invocations never enter above \p PinTier (the tier the
  /// run actually ended on, one past it when even that tier failed).
  /// Deadline exhaustion is NOT a tier failure -- callers skip it.
  void onOutcome(uint64_t Key, uint8_t PinTier);

  /// Blocks until every enqueued background compile has finished. Safe
  /// from any thread that is not itself a background-compile job.
  void drain();

  /// Drains, then drops every hotness entry, timeline, and stat.
  /// Benches and tests use this for cold-start measurements.
  void reset();

  Config config() const;
  /// Drains, then installs \p C (thresholds apply to future ticks).
  void setConfig(const Config &C);

  /// Routes background compiles onto \p Pool's background lane instead
  /// of the lazily created engine-owned one-worker pool (the server
  /// shares its request pool this way). Null reverts to the owned pool.
  /// Drains first, so no job ever outlives the pool it was submitted to.
  void attachPool(support::ThreadPool *Pool);

  EngineStats stats() const;

  /// Timeline snapshot for \p Key (vapor-explain); nullopt when the
  /// entry does not exist (never invoked, or evicted).
  std::optional<KeyReport> keyReport(uint64_t Key) const;

private:
  struct Impl;
  Impl *I; ///< Intentionally leaked-safe pimpl (owned, deleted in dtor).
};

/// The process-wide engine every RunOptions::Tiered run goes through.
Engine &engine();

} // namespace tiering
} // namespace jit
} // namespace vapor

#endif // VAPOR_JIT_TIERING_H
