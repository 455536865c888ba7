//===- support/ThreadPool.h - FIFO task pool -------------------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction. See src/support/README.md for the
// sweep-engine design notes.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool. Three users share it: the parallel
/// sweep engine (parallelFor; the crashtest and the fig5/fig6/table3
/// benches run kernel x target cells concurrently, each cell on its own
/// MemoryImage and, via the thread-local fault-injection controller,
/// its own site counters), the execution server (one job per admitted
/// request), and the tiering engine (off-thread compiles).
///
/// Design:
///  - one FIFO foreground queue and one FIFO background lane, both
///    behind the pool's one mutex; a worker takes the oldest foreground
///    job, and a background job only when the foreground queue is empty.
///    So jobs start in the order they were submitted, and the server's
///    admitted requests are served oldest first;
///  - sleeping workers are woken through one shared condition variable;
///  - wait() blocks until every submitted job has finished (queued and
///    running, both lanes), so pools are reusable across submission
///    waves.
///
/// Jobs must not throw (the repo builds without exceptions in mind);
/// determinism of results is the *caller's* job: sweep cells write to
/// per-cell state and merge order-independently.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_SUPPORT_THREADPOOL_H
#define VAPOR_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vapor {
namespace support {

namespace detail {
/// Thread-local worker id: 0 for the main (or any non-pool) thread,
/// W+1 for pool worker W. Assigned once per worker thread at spawn.
inline thread_local unsigned WorkerId = 0;
} // namespace detail

/// The calling thread's sweep-pool worker id (0 = not a pool worker).
/// The observability layer (obs/Obs.h) uses this as the trace thread id,
/// so parallel sweep cells land on their worker's timeline. Ids repeat
/// across pool instances; at most one sweep pool is live at a time.
inline unsigned currentWorkerId() { return detail::WorkerId; }

class ThreadPool {
public:
  /// Spawns \p Workers threads (at least one).
  explicit ThreadPool(unsigned Workers) {
    if (Workers == 0)
      Workers = 1;
    Threads.reserve(Workers);
    for (unsigned W = 0; W < Workers; ++W)
      Threads.emplace_back([this, W] { workerLoop(W); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stop = true;
    }
    WorkCV.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  unsigned workerCount() const {
    return static_cast<unsigned>(Threads.size());
  }

  /// \returns the host's hardware concurrency (at least 1). The sweep
  /// drivers use this as the default --jobs value.
  static unsigned defaultWorkerCount() {
    unsigned N = std::thread::hardware_concurrency();
    return N == 0 ? 1 : N;
  }

  /// Enqueues \p Job at the back of the foreground queue.
  void submit(std::function<void()> Job) { push(Foreground, std::move(Job)); }

  /// Enqueues \p Job at BACKGROUND priority: a worker only picks it up
  /// once the foreground queue is empty, so background work -- the
  /// tiering engine's off-thread compiles -- can never starve foreground
  /// jobs of a worker. Within the background lane jobs run FIFO. wait()
  /// covers these too.
  void submitBackground(std::function<void()> Job) {
    push(Background, std::move(Job));
  }

  /// Blocks until every job submitted so far has *finished* running.
  void wait() {
    std::unique_lock<std::mutex> Lock(Mu);
    IdleCV.wait(Lock, [this] { return Pending == 0; });
  }

private:
  void push(std::deque<std::function<void()>> &Lane,
            std::function<void()> Job) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Pending;
      Lane.push_back(std::move(Job));
    }
    WorkCV.notify_one();
  }

  /// Pops the oldest foreground job, else the oldest background job.
  /// Caller holds Mu.
  bool dequeue(std::function<void()> &Out) {
    std::deque<std::function<void()>> &Lane =
        Foreground.empty() ? Background : Foreground;
    if (Lane.empty())
      return false;
    Out = std::move(Lane.front());
    Lane.pop_front();
    return true;
  }

  void workerLoop(unsigned Self) {
    detail::WorkerId = Self + 1;
    std::unique_lock<std::mutex> Lock(Mu);
    while (true) {
      std::function<void()> Job;
      if (dequeue(Job)) {
        Lock.unlock();
        Job();
        Lock.lock();
        if (--Pending == 0)
          IdleCV.notify_all();
        continue;
      }
      if (Stop)
        return;
      WorkCV.wait(Lock);
    }
  }

  std::deque<std::function<void()>> Foreground;
  std::deque<std::function<void()>> Background; ///< Runs when idle.
  std::vector<std::thread> Threads;
  std::mutex Mu;
  std::condition_variable WorkCV; ///< Signals new work or shutdown.
  std::condition_variable IdleCV; ///< Signals Pending reaching zero.
  uint64_t Pending = 0;           ///< Jobs queued or running.
  bool Stop = false;
};

/// Runs Fn(0..N-1) across \p Jobs workers and returns when all calls have
/// finished. Jobs <= 1 (or a single item) runs inline on the caller's
/// thread with no pool at all -- the serial path stays byte-identical to
/// the pre-pool drivers, which is what keeps single-threaded sweeps (and
/// their fault-injection counters) trivially deterministic.
inline void parallelFor(unsigned Jobs, size_t N,
                        const std::function<void(size_t)> &Fn) {
  if (Jobs <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  ThreadPool Pool(Jobs < N ? Jobs : static_cast<unsigned>(N));
  for (size_t I = 0; I < N; ++I)
    Pool.submit([&Fn, I] { Fn(I); });
  Pool.wait();
}

} // namespace support
} // namespace vapor

#endif // VAPOR_SUPPORT_THREADPOOL_H
