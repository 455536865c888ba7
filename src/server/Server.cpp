//===- server/Server.cpp - Multi-tenant kernel-execution daemon -------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "jit/CodeCache.h"
#include "jit/Tiering.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/ThreadPool.h"
#include "target/Target.h"
#include "vapor/Pipeline.h"
#include "vapor/Sweep.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace vapor;
using namespace vapor::server;
using vapor::status::Code;
using vapor::status::Layer;
using vapor::status::Status;

namespace {

/// One client connection. The fd is owned here and closed exactly once,
/// when the last reference (reader thread or in-flight job) drops --
/// a mid-request disconnect therefore never races a worker's response
/// write against a closed descriptor.
struct Conn {
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  int Fd;
  /// Serializes response frames: workers finish out of order, and an
  /// interleaved frame would desynchronize the client's stream.
  std::mutex WriteMu;
  /// Duplicate-id ledger (in-flight now + a bounded window of completed
  /// ids). Per connection: ids are a client-chosen namespace.
  std::mutex IdMu;
  std::set<uint64_t> InFlight;
  std::set<uint64_t> Recent;
  std::deque<uint64_t> RecentOrder;
};

struct TenantCounters {
  uint64_t Active = 0;
  uint64_t Completed = 0;
  uint64_t Rejected = 0;
};

} // namespace

struct Server::Impl {
  explicit Impl(ServerOptions O) : Opts(std::move(O)) {}

  ServerOptions Opts;
  std::vector<target::TargetDesc> Targets = target::allTargets();

  int ListenFd = -1;
  std::atomic<bool> Running{false};
  std::atomic<bool> Draining{false};
  std::unique_ptr<support::ThreadPool> Pool;
  std::thread Acceptor;

  std::mutex ConnMu;
  /// Live reader threads by id. A reader retires itself into
  /// DoneReaders on exit; the acceptor joins-and-drops that list on the
  /// next accept (and drain() joins whatever is left), so a long-lived
  /// daemon serving short-lived connections holds no per-dead-connection
  /// thread handles.
  std::map<uint64_t, std::thread> Readers;
  std::vector<std::thread> DoneReaders;
  uint64_t ReaderSeq = 0;
  /// Connections with a live reader. A reader removes its Conn here on
  /// exit; in-flight jobs keep the Conn (and its fd) alive through their
  /// own shared_ptrs, and the fd closes when the last one drops.
  std::vector<std::shared_ptr<Conn>> Conns;

  std::atomic<uint64_t> Accepted{0}, Completed{0}, Deadlines{0};
  std::atomic<uint64_t> RejOverload{0}, RejQuota{0}, RejDup{0},
      RejMalformed{0}, RejUnavail{0}, RejInvalid{0};
  std::atomic<uint64_t> QueueDepth{0}; ///< Admitted, not yet answered.
  std::atomic<uint64_t> TraceSeq{0};

  mutable std::mutex TenantMu;
  std::map<std::string, TenantCounters> Tenants;

  std::string nextTrace() {
    return "vs-" + std::to_string(TraceSeq.fetch_add(1) + 1);
  }

  /// Drops one tenant line with nothing in flight, together with the
  /// cache's matching stats line when it holds no live bytes. Called
  /// under TenantMu. \returns false when every line is active.
  bool retireIdleTenantLocked() {
    for (auto It = Tenants.begin(); It != Tenants.end(); ++It)
      if (It->second.Active == 0) {
        jit::cache::forgetTenant(It->first);
        Tenants.erase(It);
        return true;
      }
    return false;
  }

  void tenantReject(const std::string &T) {
    std::lock_guard<std::mutex> L(TenantMu);
    auto It = Tenants.find(T);
    if (It != Tenants.end()) {
      ++It->second.Rejected;
      return;
    }
    // A rejection alone must not mint a tenant line past the bound: the
    // global rejection counters already account it.
    if (Tenants.size() >= Opts.MaxTenants && !retireIdleTenantLocked())
      return;
    ++Tenants[T].Rejected;
  }

  /// Best-effort structured rejection/response write. A dead peer is a
  /// disconnect, not an error: the rejection was still accounted. A
  /// *stalled* peer (SO_SNDTIMEO expired mid-frame) is also a
  /// disconnect: the stream is desynchronized, so tear the connection
  /// down rather than let later writers block behind it.
  void sendRunResponse(Conn &C, const RunResponse &R) {
    std::vector<uint8_t> P = encodeRunResponse(R);
    std::lock_guard<std::mutex> L(C.WriteMu);
    if (!writeFrame(C.Fd, FrameKind::RunResp, P))
      ::shutdown(C.Fd, SHUT_RDWR);
  }

  void sendRunError(Conn &C, uint64_t Id, const std::string &Trace,
                    const Status &St, uint32_t RetryAfterMs = 0) {
    RunResponse R;
    R.RequestId = Id;
    R.TraceId = Trace;
    R.Code = static_cast<uint8_t>(St.code());
    R.Layer = static_cast<uint8_t>(St.layer());
    R.Message = St.context();
    R.RetryAfterMs = RetryAfterMs;
    sendRunResponse(C, R);
  }

  StatsResponse snapshot() const {
    StatsResponse S;
    S.Accepted = Accepted.load();
    S.Completed = Completed.load();
    S.RejectedOverload = RejOverload.load();
    S.RejectedQuota = RejQuota.load();
    S.RejectedDuplicate = RejDup.load();
    S.RejectedMalformed = RejMalformed.load();
    S.RejectedUnavailable = RejUnavail.load();
    S.RejectedInvalid = RejInvalid.load();
    S.Deadlines = Deadlines.load();
    S.QueueDepth = QueueDepth.load();
    S.Workers = Pool ? Pool->workerCount() : 0;
    jit::cache::Stats CS = jit::cache::stats();
    S.CacheBytesLive = CS.BytesLive;
    S.CacheCapacity = CS.CapacityBytes;
    S.CacheEvictions = CS.Evictions;
    S.CacheHits = CS.hits();
    S.CacheMisses = CS.misses();
    S.RssBytes = processRssBytes();
    if (Opts.Tiered) {
      jit::tiering::EngineStats TS = jit::tiering::engine().stats();
      S.TierInvocations = TS.Invocations;
      S.TierPromotions = TS.Promotions;
      S.TierCompilesOk = TS.CompilesOk;
      S.TierCompilesFailed = TS.CompilesFailed;
      S.TierQueueRejects = TS.QueueRejects;
      S.TierPins = TS.Pins;
    }
    std::map<std::string, TenantLine> Lines;
    {
      std::lock_guard<std::mutex> L(TenantMu);
      for (const auto &KV : Tenants) {
        TenantLine &T = Lines[KV.first];
        T.Tenant = KV.first;
        T.Active = KV.second.Active;
        T.Completed = KV.second.Completed;
        T.Rejected = KV.second.Rejected;
      }
    }
    for (const jit::cache::TenantStats &T : jit::cache::tenantStats()) {
      TenantLine &L = Lines[T.Tenant];
      L.Tenant = T.Tenant;
      L.CacheBytes = T.BytesLive;
      L.CacheEvictions = T.Evictions;
    }
    for (auto &KV : Lines)
      S.Tenants.push_back(std::move(KV.second));
    return S;
  }

  /// Admission control + scheduling for one decoded run request. Runs on
  /// the connection's reader thread; every rejection is answered
  /// immediately so the bounded queue never holds doomed work.
  void handleRun(const std::shared_ptr<Conn> &C, RunRequest Req) {
    std::string Trace = nextTrace();

    if (Draining.load()) {
      ++RejUnavail;
      tenantReject(Req.Tenant);
      sendRunError(*C, Req.RequestId, Trace,
                   Status::error(Code::Unavailable, Layer::Server,
                                 "server is draining; resubmit elsewhere"));
      return;
    }

    {
      std::lock_guard<std::mutex> L(C->IdMu);
      if (C->InFlight.count(Req.RequestId) ||
          C->Recent.count(Req.RequestId)) {
        ++RejDup;
        tenantReject(Req.Tenant);
        sendRunError(*C, Req.RequestId, Trace,
                     Status::error(Code::DuplicateRequest, Layer::Server,
                                   "request id " +
                                       std::to_string(Req.RequestId) +
                                       " already seen on this connection"));
        return;
      }
    }

    const target::TargetDesc *TD =
        Req.Target.empty()
            ? &Targets.front()
            : sweep::targetByNameOrNull(Targets, Req.Target);
    if (!TD) {
      ++RejInvalid;
      tenantReject(Req.Tenant);
      sendRunError(*C, Req.RequestId, Trace,
                   Status::error(Code::InvalidArgument, Layer::Server,
                                 "unknown target '" + Req.Target + "'"));
      return;
    }

    // Admission gate. The injected QueueFull fault is scoped to this
    // request's thread so a test can exercise the Overloaded path
    // without actually filling the queue.
    bool QueueFull = false;
    {
      std::optional<faultinject::ScopedFault> F;
      if (Req.Inject ==
          static_cast<uint8_t>(faultinject::SiteClass::QueueFull))
        F.emplace(faultinject::SiteClass::QueueFull);
      QueueFull = faultinject::shouldFire(faultinject::SiteClass::QueueFull);
    }
    if (!QueueFull && QueueDepth.load() >= Opts.MaxQueue)
      QueueFull = true;
    if (QueueFull) {
      ++RejOverload;
      tenantReject(Req.Tenant);
      static obs::Counter Overloads("server.overloaded");
      Overloads.add(1);
      sendRunError(*C, Req.RequestId, Trace,
                   Status::error(Code::Overloaded, Layer::Server,
                                 "admission queue full (" +
                                     std::to_string(Opts.MaxQueue) +
                                     " in flight); retry after hint"),
                   Opts.RetryAfterMs);
      return;
    }

    // Quota decision under TenantMu, response write OUTSIDE it: the
    // write can block until the send timeout, and a client that stops
    // reading must stall only its own connection, never the global
    // admission/completion lock.
    std::optional<Status> QuotaReject;
    {
      std::lock_guard<std::mutex> L(TenantMu);
      auto It = Tenants.find(Req.Tenant);
      if (It == Tenants.end()) {
        if (Tenants.size() >= Opts.MaxTenants && !retireIdleTenantLocked())
          QuotaReject = Status::error(
              Code::QuotaExceeded, Layer::Server,
              "tenant table full (" + std::to_string(Opts.MaxTenants) +
                  " active tenants); retry after hint");
        else
          It = Tenants.emplace(Req.Tenant, TenantCounters{}).first;
      }
      if (!QuotaReject) {
        TenantCounters &T = It->second;
        if (T.Active >= Opts.MaxPerTenant) {
          ++T.Rejected;
          QuotaReject = Status::error(
              Code::QuotaExceeded, Layer::Server,
              "tenant '" + Req.Tenant + "' at its " +
                  std::to_string(Opts.MaxPerTenant) +
                  "-request in-flight cap");
        } else {
          ++T.Active;
        }
      }
    }
    if (QuotaReject) {
      ++RejQuota;
      sendRunError(*C, Req.RequestId, Trace, *QuotaReject,
                   Opts.RetryAfterMs);
      return;
    }
    ++QueueDepth;
    {
      std::lock_guard<std::mutex> L(C->IdMu);
      C->InFlight.insert(Req.RequestId);
    }
    ++Accepted;
    static obs::Counter Admitted("server.accepted");
    Admitted.add(1);

    Pool->submit(
        [this, C, TD, Trace = std::move(Trace),
         Req = std::move(Req)]() mutable { runJob(C, TD, Trace, Req); });
  }

  /// Executes one admitted request on a pool worker and writes (or, under
  /// an injected SocketIo fault, deliberately drops) the response.
  void runJob(const std::shared_ptr<Conn> &C, const target::TargetDesc *TD,
              const std::string &Trace, RunRequest &Req) {
    RunOptions RO;
    RO.Target = *TD;
    RO.UseNative = Req.UseNative;
    RO.Elide = static_cast<target::ElisionMode>(Req.Elide);
    uint64_t Fuel =
        Req.DeadlineFuel ? Req.DeadlineFuel : Opts.DefaultDeadlineFuel;
    if (Opts.MaxDeadlineFuel && Fuel > Opts.MaxDeadlineFuel)
      Fuel = Opts.MaxDeadlineFuel;
    RO.DeadlineFuel = Fuel;
    RO.Tiered = Opts.Tiered;

    ModuleWorkload W;
    W.Name = Req.Name;
    W.Bytecode = std::move(Req.Bytecode);
    W.IntParams = std::move(Req.IntParams);
    W.FPParams = std::move(Req.FPParams);
    W.FillSeed = Req.FillSeed;

    RunResponse Resp;
    Resp.RequestId = Req.RequestId;
    Resp.TraceId = Trace;

    bool DropWrite = false;
    {
      // Request-scoped fault injection (worker-side classes) and tenant
      // attribution for every cache insertion this run performs.
      std::optional<faultinject::ScopedFault> F;
      if (Req.Inject != 0xff &&
          Req.Inject !=
              static_cast<uint8_t>(faultinject::SiteClass::QueueFull))
        F.emplace(static_cast<faultinject::SiteClass>(Req.Inject));
      jit::cache::ScopedTenant Tenant(Req.Tenant);

      RunOutcome Out = runEncodedModule(W, RO);

      Resp.Tier = static_cast<uint8_t>(Out.Tier);
      Resp.Demotions = static_cast<uint32_t>(Out.Demotions.size());
      Resp.Retries = Out.Retries;
      Resp.Cycles = Out.Cycles;
      if (!Out.Terminal.ok()) {
        Resp.Code = static_cast<uint8_t>(Out.Terminal.code());
        Resp.Layer = static_cast<uint8_t>(Out.Terminal.layer());
        Resp.Message = Out.Terminal.context();
        if (Out.Terminal.code() == Code::DeadlineExceeded) {
          ++Deadlines;
          static obs::Counter DL("server.deadline_exceeded");
          DL.add(1);
        }
      } else if (Out.Mem) {
        // Every lane costs 8 bytes on the wire whatever the element
        // kind, so narrow-element modules inflate when dumped (an I8
        // array ships at 8x its memory size). Size the frame before
        // building it: an over-cap RunResp would fail the peer's
        // header length check and desynchronize the stream.
        uint64_t Wire = 64 + Trace.size();
        for (uint32_t A = 0; A < Out.Mem->arrayCount(); ++A) {
          const ir::ArrayInfo &AI = Out.Mem->info(A);
          Wire += 9 + AI.Name.size() + 8 * AI.NumElems;
        }
        if (Wire > MaxPayload) {
          Resp.Code = static_cast<uint8_t>(Code::InvalidArgument);
          Resp.Layer = static_cast<uint8_t>(status::Layer::Server);
          Resp.Message = "result arrays need " + std::to_string(Wire) +
                         " wire bytes, over the " +
                         std::to_string(MaxPayload) +
                         "-byte response cap";
        } else {
          for (uint32_t A = 0; A < Out.Mem->arrayCount(); ++A) {
            const ir::ArrayInfo &AI = Out.Mem->info(A);
            ArrayDump D;
            D.Name = AI.Name;
            D.IsFP = ir::isFloatKind(AI.Elem) ? 1 : 0;
            D.Lanes.reserve(AI.NumElems);
            for (uint64_t E = 0; E < AI.NumElems; ++E) {
              if (D.IsFP) {
                double V = Out.Mem->peekFP(A, E);
                uint64_t Bits;
                std::memcpy(&Bits, &V, sizeof(Bits));
                D.Lanes.push_back(Bits);
              } else {
                D.Lanes.push_back(
                    static_cast<uint64_t>(Out.Mem->peekInt(A, E)));
              }
            }
            Resp.Arrays.push_back(std::move(D));
          }
        }
      }

      // Injected response-write drop: the client sees a request that
      // never answers (its timeout/disconnect path), the server side
      // still completes and accounts the run.
      DropWrite = faultinject::shouldFire(faultinject::SiteClass::SocketIo);
    }

    if (!DropWrite)
      sendRunResponse(*C, Resp);

    {
      std::lock_guard<std::mutex> L(C->IdMu);
      C->InFlight.erase(Req.RequestId);
      C->Recent.insert(Req.RequestId);
      C->RecentOrder.push_back(Req.RequestId);
      while (C->RecentOrder.size() > Opts.DuplicateWindow) {
        C->Recent.erase(C->RecentOrder.front());
        C->RecentOrder.pop_front();
      }
    }
    {
      std::lock_guard<std::mutex> L(TenantMu);
      TenantCounters &T = Tenants[Req.Tenant];
      --T.Active;
      ++T.Completed;
    }
    --QueueDepth;
    ++Completed;
    static obs::Counter Done("server.completed");
    Done.add(1);
  }

  /// Per-connection frame loop. Any framing violation tears the
  /// connection down (a hostile length prefix makes the stream
  /// unrecoverable); payload-level garbage is answered and survives.
  /// On exit the reader retires its own Conn and thread-handle entries
  /// so neither grows with connection churn.
  void readerLoop(const std::shared_ptr<Conn> &C, uint64_t Id) {
    while (true) {
      FrameKind Kind;
      std::vector<uint8_t> Payload;
      bool CleanEof = false;
      Status St = readFrame(C->Fd, Kind, Payload, CleanEof);
      if (CleanEof)
        break; // Orderly close between frames.
      if (!St.ok()) {
        // Framing violation or mid-frame disconnect: answer best-effort
        // (the peer may still read) and drop the connection.
        ++RejMalformed;
        sendRunError(*C, 0, nextTrace(), St);
        break;
      }
      switch (Kind) {
      case FrameKind::Ping: {
        std::lock_guard<std::mutex> L(C->WriteMu);
        if (!writeFrame(C->Fd, FrameKind::Pong, Payload))
          ::shutdown(C->Fd, SHUT_RDWR); // Stalled/vanished peer.
        continue;
      }
      case FrameKind::StatsReq: {
        std::vector<uint8_t> P = encodeStatsResponse(snapshot());
        std::lock_guard<std::mutex> L(C->WriteMu);
        if (!writeFrame(C->Fd, FrameKind::StatsResp, P))
          ::shutdown(C->Fd, SHUT_RDWR); // Stalled/vanished peer.
        continue;
      }
      case FrameKind::RunReq: {
        RunRequest Req;
        Status DSt = decodeRunRequest(Payload.data(), Payload.size(), Req);
        if (!DSt.ok()) {
          // The payload was length-delimited, so the stream is still in
          // sync: answer and keep serving this connection. No per-tenant
          // accounting here -- the tenant field of a malformed request
          // is attacker-controlled garbage and must not mint map lines.
          ++RejMalformed;
          sendRunError(*C, Req.RequestId, nextTrace(), DSt);
          continue;
        }
        handleRun(C, std::move(Req));
        continue;
      }
      default:
        // A client sending response kinds is out of contract.
        ++RejMalformed;
        sendRunError(*C, 0, nextTrace(),
                     Status::error(Code::MalformedFrame, Layer::Server,
                                   "response frame kind from client"));
        break;
      }
      break;
    }
    ::shutdown(C->Fd, SHUT_RD);

    // Self-reap: drop the Conn from the live set (in-flight jobs keep it
    // alive; the fd closes on the last shared_ptr drop) and retire this
    // thread's handle for the acceptor or drain() to join. If drain()
    // already claimed the handle, the entry is simply gone.
    std::lock_guard<std::mutex> L(ConnMu);
    for (auto It = Conns.begin(); It != Conns.end(); ++It)
      if (It->get() == C.get()) {
        Conns.erase(It);
        break;
      }
    auto It = Readers.find(Id);
    if (It != Readers.end()) {
      DoneReaders.push_back(std::move(It->second));
      Readers.erase(It);
    }
  }

  void acceptLoop() {
    while (true) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0) {
        if (errno == EINTR)
          continue;
        break; // Listener shut down: drain in progress.
      }
      if (Draining.load()) {
        ::close(Fd);
        continue;
      }
      // A peer that stops reading must become a failed write, not an
      // indefinitely blocked worker: see writeAll.
      if (Opts.WriteTimeoutMs) {
        timeval TV{};
        TV.tv_sec = Opts.WriteTimeoutMs / 1000;
        TV.tv_usec = static_cast<long>(Opts.WriteTimeoutMs % 1000) * 1000;
        (void)::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &TV, sizeof(TV));
      }
      auto C = std::make_shared<Conn>(Fd);
      std::lock_guard<std::mutex> L(ConnMu);
      // Join readers that already retired themselves, so churny clients
      // leave no finished-thread handles behind.
      for (std::thread &T : DoneReaders)
        T.join();
      DoneReaders.clear();
      uint64_t Id = ++ReaderSeq;
      Conns.push_back(C);
      Readers.emplace(Id,
                      std::thread([this, C, Id] { readerLoop(C, Id); }));
    }
  }
};

Server::Server(ServerOptions Opts)
    : I(std::make_unique<Impl>(std::move(Opts))) {}

Server::~Server() { drain(); }

Status Server::start() {
  if (I->Running.load())
    return Status::error(Code::Internal, Layer::Server, "already started");
  if (I->Opts.SocketPath.empty())
    return Status::error(Code::InvalidArgument, Layer::Server,
                         "empty socket path");

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (I->Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return Status::error(Code::InvalidArgument, Layer::Server,
                         "socket path too long: " + I->Opts.SocketPath);
  std::memcpy(Addr.sun_path, I->Opts.SocketPath.c_str(),
              I->Opts.SocketPath.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Status::error(Code::Internal, Layer::Server,
                         std::string("socket(): ") + std::strerror(errno));
  ::unlink(I->Opts.SocketPath.c_str()); // Stale path from a dead server.
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    int E = errno;
    ::close(Fd);
    return Status::error(Code::Internal, Layer::Server,
                         "bind(" + I->Opts.SocketPath +
                             "): " + std::strerror(E));
  }
  if (::listen(Fd, 128) < 0) {
    int E = errno;
    ::close(Fd);
    ::unlink(I->Opts.SocketPath.c_str());
    return Status::error(Code::Internal, Layer::Server,
                         std::string("listen(): ") + std::strerror(E));
  }

  if (I->Opts.CacheCapacityBytes)
    jit::cache::setCapacity(I->Opts.CacheCapacityBytes);
  I->Pool = std::make_unique<support::ThreadPool>(
      I->Opts.Workers ? I->Opts.Workers
                      : support::ThreadPool::defaultWorkerCount());
  if (I->Opts.Tiered)
    // Background compiles share the request pool's low-priority lane:
    // an otherwise-idle worker promotes; a loaded pool serves requests
    // first and compiles when the request queues drain.
    jit::tiering::engine().attachPool(I->Pool.get());
  I->ListenFd = Fd;
  I->Draining = false;
  I->Running = true;
  I->Acceptor = std::thread([this] { I->acceptLoop(); });
  return Status::okStatus();
}

void Server::drain() {
  bool Expected = true;
  if (!I->Running.compare_exchange_strong(Expected, false))
    return;
  I->Draining = true;

  // 1. Stop accepting connections (shutdown wakes the blocked accept).
  if (I->ListenFd >= 0)
    ::shutdown(I->ListenFd, SHUT_RDWR);
  if (I->Acceptor.joinable())
    I->Acceptor.join();
  if (I->ListenFd >= 0) {
    ::close(I->ListenFd);
    I->ListenFd = -1;
  }

  // 2. Stop reading new requests: wake every reader with a read-side
  // shutdown; in-flight jobs keep their write side.
  std::vector<std::thread> Readers;
  {
    std::lock_guard<std::mutex> L(I->ConnMu);
    for (const auto &C : I->Conns)
      ::shutdown(C->Fd, SHUT_RD);
    for (auto &KV : I->Readers)
      Readers.push_back(std::move(KV.second));
    I->Readers.clear();
    Readers.insert(Readers.end(),
                   std::make_move_iterator(I->DoneReaders.begin()),
                   std::make_move_iterator(I->DoneReaders.end()));
    I->DoneReaders.clear();
  }
  for (std::thread &T : Readers)
    T.join();

  // 3. Finish everything already admitted -- each job writes its
  // response before the connection objects are released. Tiered mode:
  // detach the hotness engine first (attachPool drains outstanding
  // background compiles) so nothing submits to the pool we are about to
  // destroy.
  if (I->Opts.Tiered)
    jit::tiering::engine().attachPool(nullptr);
  if (I->Pool)
    I->Pool->wait();
  I->Pool.reset();

  {
    std::lock_guard<std::mutex> L(I->ConnMu);
    I->Conns.clear(); // Last refs: fds close here.
  }
  if (!I->Opts.SocketPath.empty())
    ::unlink(I->Opts.SocketPath.c_str());
}

bool Server::running() const { return I->Running.load(); }

StatsResponse Server::statsSnapshot() const { return I->snapshot(); }

const ServerOptions &Server::options() const { return I->Opts; }

uint64_t server::processRssBytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (N != 2)
    return 0;
  long Page = ::sysconf(_SC_PAGESIZE);
  return Resident * static_cast<uint64_t>(Page > 0 ? Page : 4096);
}
