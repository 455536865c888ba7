//===- obs/Obs.h - Pipeline observability layer ----------------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction. See src/obs/README.md for the
// design notes and the event taxonomy.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vapor::obs — low-overhead, thread-aware tracing and metrics for the
/// whole split pipeline. Every stage that takes a decision the paper
/// argues about (which JIT strategy per target, why a kernel deopted,
/// where compile time goes) reports it here, three ways:
///
///  - RAII Span / Counter primitives. A Span brackets one stage (offline
///    vectorize, encode/decode, verify, JIT lowering, VM run, executor
///    tier attempt) and carries string/number args; a Counter is a named
///    process-wide atomic. Both are always compiled in; idle (no sink
///    installed) a Span costs one relaxed atomic load, and the runtime
///    master switch (setEnabled) darkens both. scripts/perf_gate.py gates
///    the idle overhead on the VM dispatch headline at <= 2% over dark.
///  - A Chrome-trace-format JSON exporter (TraceSink): one file per run,
///    loadable in chrome://tracing / Perfetto. Thread ids come from
///    support::currentWorkerId(), so parallel sweep cells trace onto
///    their pool worker's line. Validated in CI by scripts/check_trace.py.
///  - The vapor-explain CLI (tools/), which assembles the per-kernel
///    end-to-end decision report from the structured records the stages
///    publish (vectorizer::LoopReport, jit::StrategyStats, verify::Report,
///    RunOutcome demotions) plus these counters.
///
/// Threading model: counters are relaxed atomics; the sink serializes
/// event appends behind one mutex (events are stage-granular, never
/// per-dispatch, so contention is irrelevant). Within one thread, events
/// append in completion order, which makes per-thread end timestamps
/// monotonic — the property check_trace.py asserts.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_OBS_OBS_H
#define VAPOR_OBS_OBS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace vapor {
namespace obs {

/// One recorded trace event (Chrome trace "X", "i", or "C" phase).
struct Event {
  enum class Phase : uint8_t {
    Complete, ///< "X": a span with ts + dur.
    Instant,  ///< "i": a point event (demotion, trap, deopt).
    Counter,  ///< "C": a counter value sample.
  };
  Phase Ph = Phase::Complete;
  std::string Cat;    ///< Category ("vectorizer", "jit", "vm", ...).
  std::string Name;
  uint32_t Tid = 0;   ///< support::currentWorkerId() at record time.
  uint64_t TsNs = 0;  ///< Start, ns since sink installation.
  uint64_t DurNs = 0; ///< Complete events only.
  /// Key -> pre-rendered JSON value ("\"sse\"", "42", "true").
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Renders a value as the JSON fragment an Event arg stores.
std::string argStr(const std::string &V);
std::string argStr(const char *V);
std::string argStr(uint64_t V);
std::string argStr(int64_t V);
std::string argStr(double V);
std::string argStr(bool V);

/// Runtime master switch (default on). When off, Spans, Counters, and
/// events are suppressed even if a sink is installed — the benches use
/// this to measure the fully-dark configuration next to ON-but-idle.
bool enabled();
/// Flips the master switch; \returns the previous value.
bool setEnabled(bool On);
/// True when the master switch is on AND a TraceSink is installed: the
/// single test every recording site performs first.
bool tracingActive();

//===--- Counters ---------------------------------------------------------===//

/// A named process-wide counter. Construction resolves the name to a
/// registry slot once (make Counter objects static at the use site);
/// add() is a relaxed atomic increment behind the master switch.
class Counter {
public:
  explicit Counter(const char *Name);
  void add(uint64_t N = 1) {
    if (enabled())
      Slot->fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const { return Slot->load(std::memory_order_relaxed); }
  const char *name() const { return Name; }

private:
  const char *Name;
  std::atomic<uint64_t> *Slot;
};

/// Snapshot of every registered counter (name, current value), sorted by
/// name. Counters register lazily, so only ones that were constructed
/// (i.e. whose code path ran at least once) appear.
std::vector<std::pair<std::string, uint64_t>> counterSnapshot();
/// \returns the value of counter \p Name, 0 if never registered.
uint64_t counterValue(const std::string &Name);
/// Zeroes every registered counter (tests and explain-style deltas).
void resetCounters();

//===--- Spans and instant events -----------------------------------------===//

/// RAII complete-event recorder. Construction samples the clock only
/// when tracing is active; destruction appends the event to the sink.
/// arg() attaches key/value pairs rendered into the trace JSON.
class Span {
public:
  Span(const char *Cat, std::string Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  bool live() const { return Live; }
  template <typename T> void arg(const char *Key, const T &V) {
    if (Live)
      Args.emplace_back(Key, argStr(V));
  }

private:
  bool Live;
  const char *Cat;
  std::string Name;
  uint64_t StartNs = 0;
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Appends one instant event (phase "i") when tracing is active.
void event(const char *Cat, std::string Name,
           std::vector<std::pair<std::string, std::string>> Args = {});

//===--- TraceSink --------------------------------------------------------===//

/// Collects events process-wide and writes one Chrome-trace JSON file.
/// At most one sink is installed at a time (the constructor installs,
/// the destructor uninstalls and writes). An empty path collects without
/// writing — vapor-explain and the tests use that to inspect events.
class TraceSink {
public:
  /// Installs this sink. \p Path is the JSON output file ("" = collect
  /// only). \p MaxEvents bounds memory; past it events are counted as
  /// dropped instead of stored.
  explicit TraceSink(std::string Path, size_t MaxEvents = 1u << 20);
  ~TraceSink();
  TraceSink(const TraceSink &) = delete;
  TraceSink &operator=(const TraceSink &) = delete;

  /// Writes the trace file now (no-op for an empty path). \returns false
  /// when the file cannot be written. Idempotent; the destructor calls it.
  bool write();

  size_t eventCount() const;
  uint64_t droppedCount() const;
  /// Copy of everything recorded so far (tests / explain rendering).
  std::vector<Event> events() const;

  /// If the environment variable \p EnvVar is set and non-empty,
  /// \returns a sink writing to its value, else null. The benches use
  /// this (VAPOR_TRACE=trace.json ./bench/...); hold the sink in main,
  /// its destructor writes the file.
  static std::unique_ptr<TraceSink> fromEnv(const char *EnvVar);

  /// Internal state; Impl objects live for the process lifetime so a
  /// recorder racing uninstallation never touches freed memory.
  struct Impl;

private:
  Impl *I;
};

} // namespace obs
} // namespace vapor

#endif // VAPOR_OBS_OBS_H
