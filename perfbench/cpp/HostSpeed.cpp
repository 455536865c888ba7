//===- perfbench/cpp/HostSpeed.cpp - Host speed yardstick -----------------===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Ledger.h"

#include <map>
#include <memory>
#include <sched.h>

using namespace perfbench;

namespace {

/// Keeps the slice's result observable; probe threads store concurrently.
std::atomic<uint64_t> Sink{0};

uint64_t step(uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S;
}

/// Fixed work: tree inserts and lookups, then small heap blocks of mixed
/// sizes, all freed again. Of three candidates (this, an ALU hash loop, a
/// 4 MiB pointer chase) it tracked the compile pipeline's speed best;
/// the other two barely saw the slow host periods.
uint64_t sliceWork() {
  uint64_t S = 0x2545f4914f6cdd1dull, H = 0;
  std::map<uint64_t, uint64_t> M;
  for (int I = 0; I < 2000; ++I)
    M[step(S) & 0xffff] += I;
  for (int I = 0; I < 2000; ++I) {
    auto It = M.lower_bound(step(S) & 0xffff);
    H += It == M.end() ? 1 : It->second;
  }
  std::vector<std::unique_ptr<uint64_t[]>> Blocks;
  for (int I = 0; I < 500; ++I) {
    Blocks.emplace_back(new uint64_t[8 + (step(S) & 63)]);
    Blocks.back()[0] = S;
  }
  for (auto &B : Blocks)
    H += B[0];
  return H;
}

} // namespace

double perfbench::referenceSliceUs() {
  const auto T0 = Clock::now();
  Sink.store(sliceWork(), std::memory_order_relaxed);
  return usSince(T0);
}

SpeedProbe::SpeedProbe(double PeriodMs) {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  const auto Period =
      std::chrono::microseconds(static_cast<long>(PeriodMs * 1000));
  auto Loop = [this, Period](int C) {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(C, &One);
    ::sched_setaffinity(0, sizeof(One), &One);
    try {
      while (!Stopping.load()) {
        const auto At = Clock::now();
        const double Us = referenceSliceUs();
        {
          std::lock_guard<std::mutex> L(Mu);
          Samples.push_back({static_cast<uint32_t>(C), At, Us});
        }
        std::this_thread::sleep_for(Period);
      }
    } catch (...) {
      Failed = true;
    }
  };
  try {
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Allowed))
        Threads.emplace_back(Loop, C);
  } catch (...) {
    stop();
    throw;
  }
}

void SpeedProbe::stop() {
  Stopping = true;
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
}

double SpeedProbe::sliceUs(Clock::time_point From, Clock::time_point To) const {
  std::map<uint32_t, std::vector<double>> PerCpu;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const Sample &S : Samples)
      if (S.At >= From && S.At <= To)
        PerCpu[S.Cpu].push_back(S.Us);
  }
  double Sum = 0;
  for (const auto &KV : PerCpu)
    Sum += mean(KV.second);
  return PerCpu.empty() ? 0.0 : Sum / PerCpu.size();
}
