//===- server/Protocol.cpp - Execution-service wire protocol ----------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/FaultInject.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

using namespace vapor;
using namespace vapor::server;
using vapor::status::Code;
using vapor::status::Layer;
using vapor::status::Status;

namespace {

Status malformed(const std::string &What) {
  return Status::error(Code::MalformedFrame, Layer::Server, What);
}

//===--- Little-endian primitives -----------------------------------------===//

class Writer {
public:
  std::vector<uint8_t> Bytes;

  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }
  void blob(const std::vector<uint8_t> &B) {
    u32(static_cast<uint32_t>(B.size()));
    Bytes.insert(Bytes.end(), B.begin(), B.end());
  }
};

/// Bounds-checked reader: every getter fails sticky (Ok=false) on
/// overrun, so decoders check once at the end. Reading past the end
/// never touches memory outside [Data, Data+Len).
class Reader {
public:
  Reader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}

  bool Ok = true;

  uint8_t u8() {
    if (!need(1))
      return 0;
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (I * 8);
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (I * 8);
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return {};
    std::string S(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return S;
  }
  std::vector<uint8_t> blob() {
    uint32_t N = u32();
    if (!need(N))
      return {};
    std::vector<uint8_t> B(Data + Pos, Data + Pos + N);
    Pos += N;
    return B;
  }

  bool atEnd() const { return Ok && Pos == Len; }

private:
  bool need(size_t N) {
    if (!Ok || Len - Pos < N) {
      Ok = false;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
};

/// A hostile count field must not drive allocation: each counted element
/// is at least \p MinElemBytes on the wire, so any count claiming more
/// elements than the remaining payload could hold is malformed.
constexpr uint32_t MaxCount = MaxPayload;

bool saneCount(uint32_t N, size_t MinElemBytes) {
  return static_cast<uint64_t>(N) * MinElemBytes <= MaxCount;
}

} // namespace

bool server::isRequestKind(uint8_t K) {
  return K == static_cast<uint8_t>(FrameKind::RunReq) ||
         K == static_cast<uint8_t>(FrameKind::StatsReq) ||
         K == static_cast<uint8_t>(FrameKind::Ping);
}

//===--- RunRequest -------------------------------------------------------===//

std::vector<uint8_t> server::encodeRunRequest(const RunRequest &R) {
  Writer W;
  W.u64(R.RequestId);
  W.str(R.Tenant);
  W.str(R.Name);
  W.str(R.Target);
  W.u8(R.UseNative ? 1u : 0u);
  W.u8(R.Elide);
  W.u8(R.Inject);
  W.u64(R.DeadlineFuel);
  W.u64(R.FillSeed);
  W.u32(static_cast<uint32_t>(R.IntParams.size()));
  for (const auto &KV : R.IntParams) {
    W.str(KV.first);
    W.u64(static_cast<uint64_t>(KV.second));
  }
  W.u32(static_cast<uint32_t>(R.FPParams.size()));
  for (const auto &KV : R.FPParams) {
    W.str(KV.first);
    W.f64(KV.second);
  }
  W.blob(R.Bytecode);
  return std::move(W.Bytes);
}

Status server::decodeRunRequest(const uint8_t *Data, size_t Len,
                                RunRequest &Out) {
  Reader R(Data, Len);
  Out = RunRequest();
  Out.RequestId = R.u64();
  Out.Tenant = R.str();
  if (Out.Tenant.size() > MaxTenantBytes)
    return malformed("run request: tenant name exceeds " +
                     std::to_string(MaxTenantBytes) + " bytes");
  Out.Name = R.str();
  Out.Target = R.str();
  uint8_t Flags = R.u8();
  Out.UseNative = (Flags & 1u) != 0;
  if ((Flags & ~1u) != 0)
    return malformed("run request: unknown flag bits");
  Out.Elide = R.u8();
  if (Out.Elide > 2)
    return malformed("run request: bad elision mode");
  Out.Inject = R.u8();
  if (Out.Inject != 0xff && Out.Inject >= faultinject::NumSiteClasses)
    return malformed("run request: bad inject class");
  Out.DeadlineFuel = R.u64();
  Out.FillSeed = R.u64();
  uint32_t NInt = R.u32();
  if (!saneCount(NInt, 12))
    return malformed("run request: int-param count exceeds payload");
  for (uint32_t I = 0; R.Ok && I < NInt; ++I) {
    std::string Name = R.str();
    int64_t V = static_cast<int64_t>(R.u64());
    if (R.Ok)
      Out.IntParams[Name] = V;
  }
  uint32_t NFp = R.u32();
  if (!saneCount(NFp, 12))
    return malformed("run request: fp-param count exceeds payload");
  for (uint32_t I = 0; R.Ok && I < NFp; ++I) {
    std::string Name = R.str();
    double V = R.f64();
    if (R.Ok)
      Out.FPParams[Name] = V;
  }
  Out.Bytecode = R.blob();
  if (!R.atEnd())
    return malformed("run request: truncated or oversized payload");
  return Status::okStatus();
}

//===--- RunResponse ------------------------------------------------------===//

std::vector<uint8_t> server::encodeRunResponse(const RunResponse &R) {
  Writer W;
  W.u64(R.RequestId);
  W.str(R.TraceId);
  W.u8(R.Code);
  W.u8(R.Layer);
  W.str(R.Message);
  W.u8(R.Tier);
  W.u32(R.Demotions);
  W.u32(R.Retries);
  W.u64(R.Cycles);
  W.u32(R.RetryAfterMs);
  W.u32(static_cast<uint32_t>(R.Arrays.size()));
  for (const ArrayDump &A : R.Arrays) {
    W.str(A.Name);
    W.u8(A.IsFP);
    W.u32(static_cast<uint32_t>(A.Lanes.size()));
    for (uint64_t L : A.Lanes)
      W.u64(L);
  }
  return std::move(W.Bytes);
}

Status server::decodeRunResponse(const uint8_t *Data, size_t Len,
                                 RunResponse &Out) {
  Reader R(Data, Len);
  Out = RunResponse();
  Out.RequestId = R.u64();
  Out.TraceId = R.str();
  Out.Code = R.u8();
  Out.Layer = R.u8();
  Out.Message = R.str();
  Out.Tier = R.u8();
  Out.Demotions = R.u32();
  Out.Retries = R.u32();
  Out.Cycles = R.u64();
  Out.RetryAfterMs = R.u32();
  uint32_t NArr = R.u32();
  if (!saneCount(NArr, 9))
    return malformed("run response: array count exceeds payload");
  Out.Arrays.reserve(R.Ok ? NArr : 0);
  for (uint32_t I = 0; R.Ok && I < NArr; ++I) {
    ArrayDump A;
    A.Name = R.str();
    A.IsFP = R.u8();
    uint32_t NL = R.u32();
    if (!saneCount(NL, 8))
      return malformed("run response: lane count exceeds payload");
    A.Lanes.reserve(R.Ok ? NL : 0);
    for (uint32_t L = 0; R.Ok && L < NL; ++L)
      A.Lanes.push_back(R.u64());
    if (R.Ok)
      Out.Arrays.push_back(std::move(A));
  }
  if (!R.atEnd())
    return malformed("run response: truncated or oversized payload");
  return Status::okStatus();
}

//===--- StatsResponse ----------------------------------------------------===//

std::vector<uint8_t> server::encodeStatsResponse(const StatsResponse &S) {
  Writer W;
  W.u64(S.Accepted);
  W.u64(S.Completed);
  W.u64(S.RejectedOverload);
  W.u64(S.RejectedQuota);
  W.u64(S.RejectedDuplicate);
  W.u64(S.RejectedMalformed);
  W.u64(S.RejectedUnavailable);
  W.u64(S.RejectedInvalid);
  W.u64(S.Deadlines);
  W.u64(S.QueueDepth);
  W.u64(S.Workers);
  W.u64(S.CacheBytesLive);
  W.u64(S.CacheCapacity);
  W.u64(S.CacheEvictions);
  W.u64(S.CacheHits);
  W.u64(S.CacheMisses);
  W.u64(S.RssBytes);
  W.u64(S.TierInvocations);
  W.u64(S.TierPromotions);
  W.u64(S.TierCompilesOk);
  W.u64(S.TierCompilesFailed);
  W.u64(S.TierQueueRejects);
  W.u64(S.TierPins);
  W.u32(static_cast<uint32_t>(S.Tenants.size()));
  for (const TenantLine &T : S.Tenants) {
    W.str(T.Tenant);
    W.u64(T.Active);
    W.u64(T.Completed);
    W.u64(T.Rejected);
    W.u64(T.CacheBytes);
    W.u64(T.CacheEvictions);
  }
  return std::move(W.Bytes);
}

Status server::decodeStatsResponse(const uint8_t *Data, size_t Len,
                                   StatsResponse &Out) {
  Reader R(Data, Len);
  Out = StatsResponse();
  Out.Accepted = R.u64();
  Out.Completed = R.u64();
  Out.RejectedOverload = R.u64();
  Out.RejectedQuota = R.u64();
  Out.RejectedDuplicate = R.u64();
  Out.RejectedMalformed = R.u64();
  Out.RejectedUnavailable = R.u64();
  Out.RejectedInvalid = R.u64();
  Out.Deadlines = R.u64();
  Out.QueueDepth = R.u64();
  Out.Workers = R.u64();
  Out.CacheBytesLive = R.u64();
  Out.CacheCapacity = R.u64();
  Out.CacheEvictions = R.u64();
  Out.CacheHits = R.u64();
  Out.CacheMisses = R.u64();
  Out.RssBytes = R.u64();
  Out.TierInvocations = R.u64();
  Out.TierPromotions = R.u64();
  Out.TierCompilesOk = R.u64();
  Out.TierCompilesFailed = R.u64();
  Out.TierQueueRejects = R.u64();
  Out.TierPins = R.u64();
  uint32_t NT = R.u32();
  if (!saneCount(NT, 44))
    return malformed("stats response: tenant count exceeds payload");
  for (uint32_t I = 0; R.Ok && I < NT; ++I) {
    TenantLine T;
    T.Tenant = R.str();
    T.Active = R.u64();
    T.Completed = R.u64();
    T.Rejected = R.u64();
    T.CacheBytes = R.u64();
    T.CacheEvictions = R.u64();
    if (R.Ok)
      Out.Tenants.push_back(std::move(T));
  }
  if (!R.atEnd())
    return malformed("stats response: truncated or oversized payload");
  return Status::okStatus();
}

//===--- Framing ----------------------------------------------------------===//

std::vector<uint8_t> server::frame(FrameKind K,
                                   const std::vector<uint8_t> &Payload) {
  Writer W;
  W.u32(FrameMagic);
  W.u8(static_cast<uint8_t>(K));
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.Bytes.insert(W.Bytes.end(), Payload.begin(), Payload.end());
  return std::move(W.Bytes);
}

Status server::decodeFrameHeader(const uint8_t *Hdr, FrameKind &Kind,
                                 uint32_t &Len) {
  Reader R(Hdr, FrameHeaderBytes);
  uint32_t Magic = R.u32();
  uint8_t K = R.u8();
  uint32_t L = R.u32();
  if (Magic != FrameMagic)
    return malformed("bad frame magic");
  if (L > MaxPayload)
    return malformed("frame length " + std::to_string(L) +
                     " exceeds the " + std::to_string(MaxPayload) +
                     "-byte cap");
  switch (K) {
  case static_cast<uint8_t>(FrameKind::RunReq):
  case static_cast<uint8_t>(FrameKind::StatsReq):
  case static_cast<uint8_t>(FrameKind::Ping):
  case static_cast<uint8_t>(FrameKind::RunResp):
  case static_cast<uint8_t>(FrameKind::StatsResp):
  case static_cast<uint8_t>(FrameKind::Pong):
    break;
  default:
    return malformed("unknown frame kind " + std::to_string(K));
  }
  Kind = static_cast<FrameKind>(K);
  Len = L;
  return Status::okStatus();
}

//===--- POSIX stream helpers ---------------------------------------------===//

bool server::readExact(int Fd, void *Buf, size_t N, bool *CleanEof) {
  if (CleanEof)
    *CleanEof = false;
  uint8_t *P = static_cast<uint8_t *>(Buf);
  size_t Got = 0;
  while (Got < N) {
    ssize_t R = ::read(Fd, P + Got, N - Got);
    if (R > 0) {
      Got += static_cast<size_t>(R);
      continue;
    }
    if (R < 0 && errno == EINTR)
      continue;
    if (R == 0 && Got == 0 && CleanEof)
      *CleanEof = true; // Orderly close between frames.
    return false;
  }
  return true;
}

bool server::writeAll(int Fd, const void *Buf, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Buf);
  size_t Sent = 0;
  while (Sent < N) {
    // MSG_NOSIGNAL: a vanished client must surface as a failed write,
    // not a SIGPIPE killing the whole service. With SO_SNDTIMEO set on
    // the fd (the server arms it on every accepted connection), a peer
    // that stops reading surfaces here as EAGAIN after the timeout and
    // the write fails -- a stalled client can never pin the writer.
    ssize_t R = ::send(Fd, P + Sent, N - Sent, MSG_NOSIGNAL);
    if (R >= 0) {
      Sent += static_cast<size_t>(R);
      continue;
    }
    if (errno == EINTR)
      continue;
    return false;
  }
  return true;
}

Status server::readFrame(int Fd, FrameKind &Kind,
                         std::vector<uint8_t> &Payload, bool &CleanEof) {
  uint8_t Hdr[FrameHeaderBytes];
  if (!readExact(Fd, Hdr, sizeof(Hdr), &CleanEof)) {
    if (CleanEof)
      return Status::okStatus(); // Caller checks CleanEof.
    return malformed("connection closed mid-frame");
  }
  uint32_t Len = 0;
  Status St = decodeFrameHeader(Hdr, Kind, Len);
  if (!St.ok())
    return St;
  Payload.resize(Len);
  if (Len != 0 && !readExact(Fd, Payload.data(), Len, nullptr))
    return malformed("connection closed mid-payload");
  return Status::okStatus();
}

bool server::writeFrame(int Fd, FrameKind K,
                        const std::vector<uint8_t> &Payload) {
  // Never emit a frame the peer's header check would reject: beyond the
  // cap the u32 length field may also have truncated. Failing here reads
  // as a dead peer to the caller, which tears the connection down
  // instead of desynchronizing the stream.
  if (Payload.size() > MaxPayload)
    return false;
  std::vector<uint8_t> F = frame(K, Payload);
  return writeAll(Fd, F.data(), F.size());
}
