//===- obs/Obs.cpp - Pipeline observability layer ---------------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

using namespace vapor;
using namespace vapor::obs;

//===--- JSON helpers ------------------------------------------------------===//

static std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string obs::argStr(const std::string &V) {
  return "\"" + jsonEscape(V) + "\"";
}
std::string obs::argStr(const char *V) { return argStr(std::string(V)); }
std::string obs::argStr(uint64_t V) { return std::to_string(V); }
std::string obs::argStr(int64_t V) { return std::to_string(V); }
std::string obs::argStr(double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}
std::string obs::argStr(bool V) { return V ? "true" : "false"; }

namespace {

/// ns since a process-wide steady epoch (first call wins).
uint64_t nowNs() {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

std::atomic<bool> MasterSwitch{true};

//===--- Counter registry --------------------------------------------------===//

struct CounterRegistry {
  std::mutex Mu;
  /// Name -> slot. Slots are never freed: Counter objects hold raw
  /// pointers into this map for the process lifetime.
  std::map<std::string, std::unique_ptr<std::atomic<uint64_t>>> Slots;
};

CounterRegistry &counters() {
  static CounterRegistry R;
  return R;
}

} // namespace

bool obs::enabled() { return MasterSwitch.load(std::memory_order_relaxed); }

bool obs::setEnabled(bool On) {
  return MasterSwitch.exchange(On, std::memory_order_relaxed);
}

Counter::Counter(const char *Name) : Name(Name) {
  CounterRegistry &R = counters();
  std::lock_guard<std::mutex> L(R.Mu);
  auto &S = R.Slots[Name];
  if (!S)
    S = std::make_unique<std::atomic<uint64_t>>(0);
  Slot = S.get();
}

std::vector<std::pair<std::string, uint64_t>> obs::counterSnapshot() {
  CounterRegistry &R = counters();
  std::lock_guard<std::mutex> L(R.Mu);
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(R.Slots.size());
  for (const auto &[Name, Slot] : R.Slots)
    Out.emplace_back(Name, Slot->load(std::memory_order_relaxed));
  return Out;
}

uint64_t obs::counterValue(const std::string &Name) {
  CounterRegistry &R = counters();
  std::lock_guard<std::mutex> L(R.Mu);
  auto It = R.Slots.find(Name);
  return It == R.Slots.end() ? 0
                             : It->second->load(std::memory_order_relaxed);
}

void obs::resetCounters() {
  CounterRegistry &R = counters();
  std::lock_guard<std::mutex> L(R.Mu);
  for (auto &[Name, Slot] : R.Slots)
    Slot->store(0, std::memory_order_relaxed);
}

//===--- TraceSink ---------------------------------------------------------===//

struct TraceSink::Impl {
  std::string Path;
  size_t MaxEvents;
  bool Installed = false;
  bool Written = false;

  mutable std::mutex Mu;
  std::vector<Event> Events;
  uint64_t Dropped = 0;
};

namespace {

/// The installed sink's state. Impl objects are intentionally kept alive
/// for the process lifetime (see sinkKeepAlive) so a racing recorder that
/// loaded the pointer just before uninstallation never touches freed
/// memory; the handful of sinks a process creates makes this free.
std::atomic<TraceSink::Impl *> ActiveSink{nullptr};

std::vector<std::unique_ptr<TraceSink::Impl>> &sinkKeepAlive() {
  static std::vector<std::unique_ptr<TraceSink::Impl>> V;
  return V;
}

std::mutex SinkLifecycleMu;

void pushEvent(Event E) {
  TraceSink::Impl *S = ActiveSink.load(std::memory_order_acquire);
  if (!S)
    return;
  std::lock_guard<std::mutex> L(S->Mu);
  if (S->Events.size() >= S->MaxEvents) {
    ++S->Dropped;
    return;
  }
  S->Events.push_back(std::move(E));
}

} // namespace

bool obs::tracingActive() {
  return ActiveSink.load(std::memory_order_relaxed) != nullptr && enabled();
}

TraceSink::TraceSink(std::string Path, size_t MaxEvents) {
  auto Owned = std::make_unique<Impl>();
  I = Owned.get();
  I->Path = std::move(Path);
  I->MaxEvents = MaxEvents;
  {
    std::lock_guard<std::mutex> L(SinkLifecycleMu);
    sinkKeepAlive().push_back(std::move(Owned));
    TraceSink::Impl *Expected = nullptr;
    // One sink at a time: a second concurrent sink stays inert (it
    // records nothing and writes an empty trace) rather than stealing
    // the stream mid-run.
    I->Installed = ActiveSink.compare_exchange_strong(
        Expected, I, std::memory_order_release, std::memory_order_relaxed);
  }
}

TraceSink::~TraceSink() {
  {
    std::lock_guard<std::mutex> L(SinkLifecycleMu);
    if (I->Installed) {
      TraceSink::Impl *Self = I;
      ActiveSink.compare_exchange_strong(Self, nullptr,
                                         std::memory_order_release,
                                         std::memory_order_relaxed);
      I->Installed = false;
    }
  }
  write();
  // I stays alive in sinkKeepAlive(); see the comment there.
}

size_t TraceSink::eventCount() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->Events.size();
}

uint64_t TraceSink::droppedCount() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->Dropped;
}

std::vector<Event> TraceSink::events() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->Events;
}

bool TraceSink::write() {
  std::lock_guard<std::mutex> L(I->Mu);
  if (I->Path.empty() || I->Written)
    return true;

  std::FILE *F = std::fopen(I->Path.c_str(), "w");
  if (!F)
    return false;

  auto writeArgs =
      [&](const std::vector<std::pair<std::string, std::string>> &Args) {
        std::fprintf(F, "\"args\": {");
        for (size_t A = 0; A < Args.size(); ++A)
          std::fprintf(F, "%s\"%s\": %s", A ? ", " : "",
                       jsonEscape(Args[A].first).c_str(),
                       Args[A].second.c_str());
        std::fprintf(F, "}");
      };

  std::fprintf(F, "{\n\"traceEvents\": [\n");
  bool First = true;
  auto emitPrefix = [&](const Event &E, const char *Ph) {
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f",
                 First ? "" : ",\n", jsonEscape(E.Name).c_str(),
                 jsonEscape(E.Cat).c_str(), Ph, E.Tid,
                 static_cast<double>(E.TsNs) / 1000.0);
    First = false;
  };
  for (const Event &E : I->Events) {
    switch (E.Ph) {
    case Event::Phase::Complete:
      emitPrefix(E, "X");
      std::fprintf(F, ", \"dur\": %.3f, ",
                   static_cast<double>(E.DurNs) / 1000.0);
      writeArgs(E.Args);
      break;
    case Event::Phase::Instant:
      emitPrefix(E, "i");
      std::fprintf(F, ", \"s\": \"t\", ");
      writeArgs(E.Args);
      break;
    case Event::Phase::Counter:
      emitPrefix(E, "C");
      std::fprintf(F, ", ");
      writeArgs(E.Args);
      break;
    }
    std::fprintf(F, "}");
  }
  // Final counter samples: one "C" event per registered counter, so the
  // trace carries the aggregate picture next to the spans.
  uint64_t Ts = nowNs();
  for (const auto &[Name, Value] : counterSnapshot()) {
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"cat\": \"counter\", \"ph\": \"C\", "
                 "\"pid\": 1, \"tid\": 0, \"ts\": %.3f, \"args\": "
                 "{\"value\": %llu}}",
                 First ? "" : ",\n", jsonEscape(Name).c_str(),
                 static_cast<double>(Ts) / 1000.0,
                 static_cast<unsigned long long>(Value));
    First = false;
  }
  std::fprintf(F,
               "\n],\n\"displayTimeUnit\": \"ms\",\n"
               "\"otherData\": {\"tool\": \"vapor-obs\", "
               "\"dropped\": %llu}\n}\n",
               static_cast<unsigned long long>(I->Dropped));
  std::fclose(F);
  I->Written = true;
  return true;
}

std::unique_ptr<TraceSink> TraceSink::fromEnv(const char *EnvVar) {
  const char *Path = std::getenv(EnvVar);
  if (!Path || !*Path)
    return nullptr;
  return std::make_unique<TraceSink>(Path);
}

//===--- Span / instant events ---------------------------------------------===//

Span::Span(const char *Cat, std::string Name)
    : Live(tracingActive()), Cat(Cat), Name(std::move(Name)) {
  if (Live)
    StartNs = nowNs();
}

Span::~Span() {
  if (!Live)
    return;
  Event E;
  E.Ph = Event::Phase::Complete;
  E.Cat = Cat;
  E.Name = std::move(Name);
  E.Tid = support::currentWorkerId();
  E.TsNs = StartNs;
  E.DurNs = nowNs() - StartNs;
  E.Args = std::move(Args);
  pushEvent(std::move(E));
}

void obs::event(const char *Cat, std::string Name,
                std::vector<std::pair<std::string, std::string>> Args) {
  if (!tracingActive())
    return;
  Event E;
  E.Ph = Event::Phase::Instant;
  E.Cat = Cat;
  E.Name = std::move(Name);
  E.Tid = support::currentWorkerId();
  E.TsNs = nowNs();
  E.Args = std::move(Args);
  pushEvent(std::move(E));
}
