//===- tests/obs_test.cpp - Observability layer unit tests ----------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Pins the vapor::obs contracts the rest of the PR leans on:
//
//   * Counters aggregate correctly under concurrent pool workers and
//     resolve to one shared slot per name;
//   * Spans record onto the recording thread's pool-worker timeline
//     (support::currentWorkerId()), nest properly (child interval inside
//     the parent's, per thread), and cost nothing when no sink is
//     installed;
//   * TraceSink produces well-formed Chrome-trace JSON (the same shape
//     scripts/check_trace.py validates in CI), honors its MaxEvents
//     bound by counting drops, and only one sink records at a time;
//   * the runtime master switch really darkens every primitive;
//   * sweep::parseJobs rejects garbage --jobs/VAPOR_JOBS values and
//     never yields a zero-worker pool;
//   * support::ThreadPool starts jobs in submission order, runs the
//     background lane only when the foreground queue is empty, and
//     wait() covers both lanes.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"
#include "support/ThreadPool.h"
#include "vapor/Sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>

using namespace vapor;

namespace {

//===--- parseJobs (the --jobs/VAPOR_JOBS bugfix) -------------------------===//

TEST(ParseJobs, AcceptsPlainDecimals) {
  unsigned N = 0;
  EXPECT_TRUE(sweep::parseJobs("1", N));
  EXPECT_EQ(N, 1u);
  EXPECT_TRUE(sweep::parseJobs("8", N));
  EXPECT_EQ(N, 8u);
  EXPECT_TRUE(sweep::parseJobs("128", N));
  EXPECT_EQ(N, 128u);
}

TEST(ParseJobs, ZeroClampsToOneWorkerNeverZero) {
  // "--jobs 0" used to reach ThreadPool as a zero-worker request; the
  // contract now is 0 == "serial", which one worker is.
  unsigned N = 0;
  EXPECT_TRUE(sweep::parseJobs("0", N));
  EXPECT_EQ(N, 1u);
  EXPECT_TRUE(sweep::parseJobs("00", N));
  EXPECT_EQ(N, 1u);
}

TEST(ParseJobs, RejectsGarbage) {
  unsigned N = 77;
  EXPECT_FALSE(sweep::parseJobs(nullptr, N));
  EXPECT_FALSE(sweep::parseJobs("", N));
  EXPECT_FALSE(sweep::parseJobs("abc", N));
  EXPECT_FALSE(sweep::parseJobs("12x", N));   // trailing junk
  EXPECT_FALSE(sweep::parseJobs("x12", N));
  EXPECT_FALSE(sweep::parseJobs("-1", N));    // strtol would accept this
  EXPECT_FALSE(sweep::parseJobs("+4", N));
  EXPECT_FALSE(sweep::parseJobs(" 3", N));    // strtol would skip the space
  EXPECT_FALSE(sweep::parseJobs("3 ", N));
  EXPECT_FALSE(sweep::parseJobs("1e3", N));
  EXPECT_FALSE(sweep::parseJobs("99999999999999999999", N)); // overflow
  EXPECT_EQ(N, 77u) << "failed parses must not clobber the output";
}

TEST(ParseJobs, DefaultJobsIsNeverZero) {
  // Whatever VAPOR_JOBS holds in this environment, the sweep drivers
  // must get a usable worker count.
  EXPECT_GE(sweep::defaultJobs(), 1u);
}

//===--- ThreadPool ordering and wait() -----------------------------------===//

/// A job that holds its worker until open() is called, so the test can
/// queue more jobs behind it before any of them may start.
class Gate {
public:
  void block() {
    std::unique_lock<std::mutex> Lock(Mu);
    CV.wait(Lock, [this] { return Open; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Open = true;
    }
    CV.notify_all();
  }

private:
  std::mutex Mu;
  std::condition_variable CV;
  bool Open = false;
};

/// The order in which pool jobs ran, appended under a lock.
class RunLog {
public:
  void note(char C) {
    std::lock_guard<std::mutex> Lock(Mu);
    Order += C;
  }
  std::string order() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Order;
  }

private:
  std::mutex Mu;
  std::string Order;
};

TEST(ThreadPool, OneWorkerStartsJobsInSubmissionOrder) {
  Gate G;
  RunLog Log;
  support::ThreadPool Pool(1);
  Pool.submit([&] {
    G.block();
    Log.note('A');
  });
  for (char C : {'B', 'C', 'D'})
    Pool.submit([&Log, C] { Log.note(C); });
  G.open();
  Pool.wait();
  EXPECT_EQ(Log.order(), "ABCD");
}

TEST(ThreadPool, BackgroundJobRunsAfterLaterForegroundJob) {
  Gate G;
  RunLog Log;
  support::ThreadPool Pool(1);
  Pool.submit([&] {
    G.block();
    Log.note('G');
  });
  Pool.submitBackground([&Log] { Log.note('b'); });
  Pool.submit([&Log] { Log.note('F'); });
  G.open();
  Pool.wait();
  EXPECT_EQ(Log.order(), "GFb");
}

TEST(ThreadPool, WaitReturnsOnlyAfterBothLanesDrain) {
  constexpr int PerLane = 8;
  Gate G;
  RunLog Log;
  support::ThreadPool Pool(2);
  Pool.submit([&] {
    G.block();
    Log.note('G');
  });
  for (int I = 0; I < PerLane; ++I) {
    Pool.submitBackground([&Log] { Log.note('b'); });
    Pool.submit([&Log] { Log.note('F'); });
  }
  G.open();
  Pool.wait();
  std::string Order = Log.order();
  EXPECT_EQ(std::count(Order.begin(), Order.end(), 'G'), 1);
  EXPECT_EQ(std::count(Order.begin(), Order.end(), 'F'), PerLane);
  EXPECT_EQ(std::count(Order.begin(), Order.end(), 'b'), PerLane);
}

//===--- TraceSink without events -----------------------------------------===//

TEST(ObsSink, WritesValidEmptyTraceWithoutEvents) {
  std::string Path = ::testing::TempDir() + "obs_empty_trace.json";
  {
    obs::TraceSink Sink(Path); // No events recorded.
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "sink destructor must write " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Trace = SS.str();
  EXPECT_NE(Trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(Trace.front(), '{');
  std::remove(Path.c_str());
}

TEST(ObsSink, FromEnvReturnsNullWhenUnset) {
  EXPECT_EQ(obs::TraceSink::fromEnv("VAPOR_OBS_TEST_UNSET_ENVVAR"), nullptr);
}

//===--- Counters ---------------------------------------------------------===//

TEST(ObsCounter, AggregatesAcrossPoolWorkers) {
  obs::resetCounters();
  constexpr unsigned Workers = 4;
  constexpr unsigned AddsPerJob = 1000;
  constexpr unsigned Jobs = 16;
  {
    support::ThreadPool Pool(Workers);
    for (unsigned J = 0; J < Jobs; ++J)
      Pool.submit([] {
        // Static at the use site, as the header prescribes: the name
        // resolves to one shared registry slot no matter which worker
        // constructs it first.
        static obs::Counter C("obs_test.concurrent_adds");
        for (unsigned I = 0; I < AddsPerJob; ++I)
          C.add();
      });
    Pool.wait();
  }
  EXPECT_EQ(obs::counterValue("obs_test.concurrent_adds"),
            uint64_t(Jobs) * AddsPerJob);
}

TEST(ObsCounter, SameNameSharesOneSlotAndSnapshotSeesIt) {
  obs::resetCounters();
  obs::Counter A("obs_test.shared_slot");
  obs::Counter B("obs_test.shared_slot");
  A.add(3);
  B.add(4);
  EXPECT_EQ(A.value(), 7u);
  EXPECT_EQ(B.value(), 7u);
  bool Found = false;
  for (const auto &[Name, V] : obs::counterSnapshot())
    if (Name == "obs_test.shared_slot") {
      Found = true;
      EXPECT_EQ(V, 7u);
    }
  EXPECT_TRUE(Found);
}

TEST(ObsCounter, MasterSwitchDarkensAdds) {
  obs::resetCounters();
  obs::Counter C("obs_test.dark_adds");
  bool Prev = obs::setEnabled(false);
  C.add(10);
  obs::setEnabled(Prev);
  EXPECT_EQ(C.value(), 0u);
  C.add(2);
  EXPECT_EQ(C.value(), 2u);
}

//===--- Spans, nesting, thread attribution -------------------------------===//

TEST(ObsSpan, InertWithoutSink) {
  // No sink installed: a span must not go live (this is the ON-but-idle
  // configuration the perf gate times).
  obs::Span S("test", "no-sink");
  EXPECT_FALSE(S.live());
  EXPECT_FALSE(obs::tracingActive());
}

TEST(ObsSpan, NestsOnEachPoolWorkerTimeline) {
  constexpr unsigned Workers = 3;
  obs::TraceSink Sink(""); // Collect only.
  ASSERT_TRUE(obs::tracingActive());
  {
    support::ThreadPool Pool(Workers);
    for (unsigned J = 0; J < Workers * 2; ++J)
      Pool.submit([] {
        obs::Span Outer("test", "outer");
        Outer.arg("worker", uint64_t(support::currentWorkerId()));
        {
          obs::Span Inner("test", "inner");
          EXPECT_TRUE(Inner.live());
        }
      });
    Pool.wait();
  }
  std::vector<obs::Event> Evs = Sink.events();
  // Completion-order append: every "inner" precedes its "outer".
  unsigned Inners = 0, Outers = 0;
  for (const obs::Event &E : Evs) {
    if (E.Name == "inner")
      ++Inners;
    if (E.Name == "outer")
      ++Outers;
  }
  EXPECT_EQ(Inners, Workers * 2);
  EXPECT_EQ(Outers, Workers * 2);
  for (const obs::Event &E : Evs) {
    if (E.Name != "inner")
      continue;
    // Pool workers report tids 1..Workers, never the main thread's 0.
    EXPECT_GE(E.Tid, 1u);
    EXPECT_LE(E.Tid, Workers);
    // Find this thread's enclosing "outer" and check containment.
    bool Contained = false;
    for (const obs::Event &O : Evs)
      if (O.Name == "outer" && O.Tid == E.Tid &&
          O.TsNs <= E.TsNs && E.TsNs + E.DurNs <= O.TsNs + O.DurNs)
        Contained = true;
    EXPECT_TRUE(Contained) << "inner span not inside any outer on tid "
                           << E.Tid;
  }
}

TEST(ObsSpan, ArgsAreRenderedJsonFragments) {
  obs::TraceSink Sink("");
  {
    obs::Span S("test", "args");
    S.arg("str", std::string("a\"b"));
    S.arg("num", uint64_t(42));
    S.arg("flag", true);
  }
  std::vector<obs::Event> Evs = Sink.events();
  ASSERT_EQ(Evs.size(), 1u);
  ASSERT_EQ(Evs[0].Args.size(), 3u);
  EXPECT_EQ(Evs[0].Args[0].second, "\"a\\\"b\""); // escaped + quoted
  EXPECT_EQ(Evs[0].Args[1].second, "42");
  EXPECT_EQ(Evs[0].Args[2].second, "true");
}

TEST(ObsEvent, InstantEventsRecordAndRespectMasterSwitch) {
  obs::TraceSink Sink("");
  obs::event("test", "visible", {{"k", obs::argStr(uint64_t(1))}});
  bool Prev = obs::setEnabled(false);
  obs::event("test", "dark");
  obs::Span Dark("test", "dark-span");
  EXPECT_FALSE(Dark.live());
  obs::setEnabled(Prev);
  std::vector<obs::Event> Evs = Sink.events();
  ASSERT_EQ(Evs.size(), 1u);
  EXPECT_EQ(Evs[0].Name, "visible");
  EXPECT_EQ(Evs[0].Ph, obs::Event::Phase::Instant);
}

//===--- TraceSink file output and bounds ---------------------------------===//

TEST(ObsSink, WritesWellFormedChromeTrace) {
  std::string Path = ::testing::TempDir() + "obs_trace.json";
  {
    obs::TraceSink Sink(Path);
    { obs::Span S("cat", "span-one"); }
    obs::event("cat", "point", {{"why", obs::argStr("because")}});
    static obs::Counter C("obs_test.trace_counter");
    C.add(5);
    ASSERT_TRUE(Sink.write());
    EXPECT_EQ(Sink.eventCount(), 2u);
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  std::string T = SS.str();
  // The structural properties scripts/check_trace.py asserts in CI.
  EXPECT_NE(T.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(T.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(T.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(T.find("\"ph\": \"C\""), std::string::npos); // counter samples
  EXPECT_NE(T.find("\"span-one\""), std::string::npos);
  EXPECT_NE(T.find("\"because\""), std::string::npos);
  size_t Open = 0, Close = 0;
  for (char Ch : T) {
    Open += Ch == '{';
    Close += Ch == '}';
  }
  EXPECT_EQ(Open, Close) << "unbalanced braces in " << Path;
  std::remove(Path.c_str());
}

TEST(ObsSink, MaxEventsBoundCountsDrops) {
  obs::TraceSink Sink("", /*MaxEvents=*/4);
  for (int I = 0; I < 10; ++I)
    obs::event("test", "flood");
  EXPECT_EQ(Sink.eventCount(), 4u);
  EXPECT_EQ(Sink.droppedCount(), 6u);
}

TEST(ObsSink, SecondSinkStaysInertWhileFirstInstalled) {
  obs::TraceSink First("");
  obs::TraceSink Second("");
  obs::event("test", "goes-to-first");
  EXPECT_EQ(First.eventCount(), 1u);
  EXPECT_EQ(Second.eventCount(), 0u);
}

} // namespace
