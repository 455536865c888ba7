//===- server/Server.h - Multi-tenant kernel-execution daemon --*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction. See src/server/README.md for the
// wire protocol, deadline/backpressure semantics, and the tenant model.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vapor::server -- a long-running multi-tenant execution service over a
/// local AF_UNIX stream socket. Clients submit (bytecode module, target,
/// options, parameters); the server validates, admission-controls, and
/// schedules each accepted request onto the shared ThreadPool (oldest
/// request first), then answers with the RunOutcome essentials: executed
/// tier, structured Status, modeled cycles, a trace id, and the full
/// output arrays for client-side golden checking.
///
/// Robustness contract (the reason this subsystem exists):
///
///  - Deadlines: every run carries a deterministic op budget
///    (RunOptions::DeadlineFuel), charged per op in the VM dispatch loop
///    and per loop back-edge in native code. A runaway kernel costs one
///    DeadlineExceeded response, never a wedged worker.
///  - Backpressure: the admission queue is bounded. Past the bound the
///    request is REJECTED immediately with Overloaded plus a retry-after
///    hint; work already admitted is never dropped.
///  - Tenant isolation: per-tenant in-flight caps (QuotaExceeded when
///    hit) and per-tenant code-cache accounting. One tenant's abusive
///    traffic degrades into that tenant's rejections, not global stalls.
///  - Fail closed: tenant bytecode runs under the executor's server mode
///    -- the chain stops after the forced-scalar JIT tier rather than
///    falling back to the checkpoint-free interpreter.
///  - Graceful drain: SIGTERM (vapor-serve) calls drain(): stop
///    accepting, answer queued work, reject new runs with Unavailable,
///    then tear down. In-flight requests always get a response.
///
/// Every failure an untrusted peer can cause -- truncated frames,
/// hostile length prefixes, garbage payloads, mid-request disconnects,
/// duplicate ids -- is answered (or logged) as a structured Status; no
/// input sequence may abort the process.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_SERVER_SERVER_H
#define VAPOR_SERVER_SERVER_H

#include "server/Protocol.h"
#include "support/Status.h"

#include <memory>
#include <string>

namespace vapor {
namespace server {

struct ServerOptions {
  std::string SocketPath; ///< AF_UNIX path; unlinked on bind and close.
  unsigned Workers = 0;   ///< Execution workers; 0 = host concurrency.
  /// Admission bound: queued-or-running requests past this are rejected
  /// with Overloaded (+RetryAfterMs hint).
  uint32_t MaxQueue = 256;
  uint32_t MaxPerTenant = 64; ///< Per-tenant in-flight cap.
  uint32_t RetryAfterMs = 50; ///< Backoff hint sent with Overloaded.
  /// Code-cache budget installed at start() (0 = leave unbounded).
  size_t CacheCapacityBytes = 64u << 20;
  /// Dispatch budget applied when a request asks for 0 ("server
  /// default"). A client-supplied budget is clamped to MaxDeadlineFuel
  /// (0 = no clamp). Never run unbounded tenant code.
  uint64_t DefaultDeadlineFuel = 50000000;
  uint64_t MaxDeadlineFuel = 0;
  /// Completed request ids remembered per connection for duplicate
  /// detection (in-flight ids are always checked).
  uint32_t DuplicateWindow = 4096;
  /// SO_SNDTIMEO installed on every accepted connection (0 = block
  /// forever). A peer that stops reading for longer than this while the
  /// server has a response to write is treated as a disconnect, so a
  /// slow reader can never pin a pool worker or the reader thread.
  uint32_t WriteTimeoutMs = 5000;
  /// Bound on distinct tenant accounting lines (quota counters plus the
  /// code cache's per-tenant stats). Past it, an idle line (nothing in
  /// flight) is retired to make room; when every line is active, runs
  /// from brand-new tenants are rejected with QuotaExceeded. Keeps a
  /// hostile unique-tenant flood from growing server memory unboundedly.
  uint32_t MaxTenants = 256;
  /// Tiered execution (jit/Tiering.h): run each request at the cheapest
  /// READY tier (cold modules enter at the forced-scalar JIT -- the
  /// fail-closed floor -- instead of paying the full verify+vector-JIT
  /// [+native] compile on the request path) and promote hot
  /// (module × target × options) cells off-thread on this server's own
  /// pool at background priority, so compiles never starve request
  /// execution. Promotion counters are reported in StatsResponse.
  bool Tiered = false;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server(); ///< Calls drain() if still running.

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket, installs the cache capacity, spawns the worker
  /// pool and the accept thread. Fails (Server layer) when the path
  /// cannot be bound.
  status::Status start();

  /// Graceful shutdown: stop accepting connections, answer everything
  /// already admitted, reject new run requests with Unavailable, join
  /// every thread, close every fd, unlink the socket. Idempotent.
  void drain();

  bool running() const;

  /// Point-in-time service counters (same data the StatsReq frame
  /// returns, minus nothing): tests assert on this without a socket.
  StatsResponse statsSnapshot() const;

  const ServerOptions &options() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Resident-set size of the calling process in bytes (Linux /proc; 0
/// when unavailable). Exposed for the replay driver's RSS bound.
uint64_t processRssBytes();

} // namespace server
} // namespace vapor

#endif // VAPOR_SERVER_SERVER_H
