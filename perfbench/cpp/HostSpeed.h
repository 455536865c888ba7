//===- perfbench/cpp/HostSpeed.h - Host speed yardstick --------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared VM the benchmark was tuned on runs each vCPU at one of two
/// speeds that differ almost 2x and switch every few seconds, per vCPU
/// and independently of the others (thread CPU time slows as much as wall
/// time, so this is not steal), and the host also steals CPU in bursts.
/// The wall times of ten runs of identical code spread 13-24% (IQR over
/// median) on cold_start. The benchmark times a fixed reference slice
/// beside the work it measures and reports wall times scaled to a nominal
/// host speed: measured x NominalSliceUs / slice time. The slice is
/// allocator and tree work, the mix of a compiler's online stage; on
/// cold_start it cut the range of p50 over six runs from 20% to 4%.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

#include "Common.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// The reference slice's time on the nominal host (about its median on
/// the 4-vCPU x86-64 VM the benchmark was tuned on). Frozen: changing it
/// rescales every normalised metric.
constexpr double NominalSliceUs = 700;

/// Runs the reference slice once. \returns its wall time (us).
double referenceSliceUs();

/// Scales a wall time measured while slices took \p SliceUs to the
/// nominal host.
inline double atNominal(double WallTime, double SliceUs) {
  return SliceUs > 0 ? WallTime * NominalSliceUs / SliceUs : WallTime;
}

/// Repeated set-ups, each timed between two reference slices.
struct Setups {
  std::vector<double> Wall;    ///< Seconds.
  std::vector<double> Nominal; ///< Seconds at the nominal host.
  template <typename Fn> void time(Fn &&SetUp) {
    const double Before = referenceSliceUs();
    const auto T0 = Clock::now();
    SetUp();
    const double Sec = usSince(T0) / 1e6;
    const double After = referenceSliceUs();
    Wall.push_back(Sec);
    Nominal.push_back(atNominal(Sec, 0.5 * (Before + After)));
  }
};

/// For multi-threaded work that may run on any CPU: one thread per CPU
/// the process may use, pinned to it, runs the reference slice every
/// PeriodMs (about 1.5% of the CPU at 50 ms) until stop().
class SpeedProbe {
public:
  explicit SpeedProbe(double PeriodMs);
  ~SpeedProbe() { stop(); }
  SpeedProbe(const SpeedProbe &) = delete;
  SpeedProbe &operator=(const SpeedProbe &) = delete;

  /// Stops and joins the probe threads.
  void stop();
  /// Mean over CPUs of each CPU's mean slice time (us) among slices
  /// started in [\p From, \p To]; 0 when there are none. After stop().
  /// Means, not medians: a slice the host stalls stalls requests too.
  /// Over eight 40-s serve_zipf runs, normalising by means cut the IQR of
  /// p50/p90/geomean to 0.05/0.08/0.05 of the median, from 0.16/0.21/0.17
  /// raw; by medians only to 0.10/0.15/0.10.
  double sliceUs(Clock::time_point From, Clock::time_point To) const;

  /// True when a probe thread stopped early on an exception; its CPU then
  /// has fewer samples.
  bool failed() const { return Failed.load(); }

private:
  struct Sample {
    uint32_t Cpu;
    Clock::time_point At;
    double Us;
  };
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Failed{false};
  mutable std::mutex Mu;
  std::vector<Sample> Samples; ///< Guarded by Mu.
  std::vector<std::thread> Threads;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
