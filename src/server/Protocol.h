//===- server/Protocol.h - Execution-service wire protocol -----*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction. See src/server/README.md for the
// framing rules, the admission-control semantics, and the tenant model.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed wire protocol between vapor-serve and its clients.
/// Everything here is PURE encode/decode over byte buffers -- no sockets,
/// no global state -- so the protocol fuzz tests can drive every parser
/// directly with hostile inputs. The thin POSIX read/write helpers at the
/// bottom are the only functions that touch a file descriptor.
///
/// Framing (all integers little-endian):
///
///   frame   := magic:u32  kind:u8  len:u32  payload[len]
///   magic   =  0x56535631 ("1VSV" on the wire)
///   len     <= MaxPayload (8 MiB) -- a larger prefix is a framing
///              violation and the connection is torn down, because the
///              stream cannot be resynchronized without trusting the
///              hostile length.
///
/// Payloads are structs of fixed-width integers and u32-length-prefixed
/// strings. Every decoder is total: any truncation, overrun, or bad enum
/// value yields a MalformedFrame Status, never UB and never an abort.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_SERVER_PROTOCOL_H
#define VAPOR_SERVER_PROTOCOL_H

#include "support/Status.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vapor {
namespace server {

constexpr uint32_t FrameMagic = 0x56535631u;
constexpr uint32_t MaxPayload = 8u << 20;
constexpr size_t FrameHeaderBytes = 9; ///< magic + kind + len.
/// Tenant names are accounting keys (quota tables, per-tenant cache
/// lines), so their size is bounded at decode time: a longer name is a
/// malformed request, never a multi-kilobyte map key.
constexpr uint32_t MaxTenantBytes = 64;

/// Frame kinds. Responses set the high bit of the request they answer.
enum class FrameKind : uint8_t {
  RunReq = 1,   ///< RunRequest payload.
  StatsReq = 2, ///< Empty payload.
  Ping = 3,     ///< Arbitrary payload, echoed back.
  RunResp = 0x81,
  StatsResp = 0x82,
  Pong = 0x83,
};

/// Whether \p K is a kind a *client* may send (the server rejects
/// response kinds arriving on its read side as malformed).
bool isRequestKind(uint8_t K);

//===--- Payload structs --------------------------------------------------===//

/// One kernel-execution request: an already-vectorized bytecode module
/// plus everything the executor needs to run it. The server trusts no
/// field; the bytecode goes through decode and then the verify gate,
/// which every vector tier runs and no request can switch off.
struct RunRequest {
  uint64_t RequestId = 0; ///< Client-chosen; unique per connection.
  std::string Tenant;     ///< Quota/cache accounting identity.
  std::string Name;       ///< Label for traces and error messages.
  std::string Target;     ///< Target model name ("sse", "avx", ...).
  bool UseNative = false;    ///< Flag bit 0x1; any other bit is malformed.
  uint8_t Elide = 1;        ///< target::ElisionMode value (validated).
  uint64_t DeadlineFuel = 0; ///< 0 = accept the server's default budget.
  uint64_t FillSeed = 7;
  /// Test-only fault injection scoped to THIS request: a
  /// faultinject::SiteClass value (0xff = none, the default). The server
  /// arms the class around this request's admission (QueueFull) or
  /// execution (everything else) on the handling thread only; other
  /// tenants' requests are untouched. The replay load driver uses this
  /// to exercise failure paths under real concurrency.
  uint8_t Inject = 0xff;
  std::map<std::string, int64_t> IntParams;
  std::map<std::string, double> FPParams;
  std::vector<uint8_t> Bytecode;
};

/// One output array of a successful run: element values as 64-bit lanes
/// (integer value, or the bit pattern of the double for FP arrays).
struct ArrayDump {
  std::string Name;
  uint8_t IsFP = 0;
  std::vector<uint64_t> Lanes;
};

/// The answer to a RunRequest. Status fields mirror status::Status; Ok
/// responses carry the executed tier, the demotion/retry counts, the
/// modeled cycles, and the full output arrays so clients can golden-check
/// results without trusting the server.
struct RunResponse {
  uint64_t RequestId = 0;
  std::string TraceId; ///< Server-assigned correlation id.
  uint8_t Code = 0;    ///< status::Code (0 = ok).
  uint8_t Layer = 0;   ///< status::Layer.
  std::string Message; ///< Status context (empty when ok).
  uint8_t Tier = 0;    ///< ExecTier that produced the results.
  uint32_t Demotions = 0;
  uint32_t Retries = 0;
  uint64_t Cycles = 0;
  uint32_t RetryAfterMs = 0; ///< Backoff hint; nonzero with Overloaded.
  std::vector<ArrayDump> Arrays;
};

/// Per-tenant service + cache accounting line.
struct TenantLine {
  std::string Tenant;
  uint64_t Active = 0;    ///< In-flight requests right now.
  uint64_t Completed = 0; ///< Lifetime completed runs.
  uint64_t Rejected = 0;  ///< Lifetime admission rejections.
  uint64_t CacheBytes = 0;
  uint64_t CacheEvictions = 0;
};

/// The answer to a StatsReq: service counters, code-cache telemetry, and
/// the per-tenant breakdown. The replay driver asserts bounded RSS and
/// observed evictions through this.
struct StatsResponse {
  uint64_t Accepted = 0;
  uint64_t Completed = 0;
  uint64_t RejectedOverload = 0;
  uint64_t RejectedQuota = 0;
  uint64_t RejectedDuplicate = 0;
  uint64_t RejectedMalformed = 0;
  uint64_t RejectedUnavailable = 0;
  uint64_t RejectedInvalid = 0; ///< Semantic rejections (bad target...).
  uint64_t Deadlines = 0;       ///< Runs stopped by budget exhaustion.
  uint64_t QueueDepth = 0;      ///< Queued-or-running right now.
  uint64_t Workers = 0;
  uint64_t CacheBytesLive = 0;
  uint64_t CacheCapacity = 0;
  uint64_t CacheEvictions = 0;
  uint64_t CacheHits = 0;   ///< Sum across all five artifact kinds.
  uint64_t CacheMisses = 0;
  uint64_t RssBytes = 0;    ///< Resident set of the server process.
  /// Tiered-execution telemetry (jit/Tiering.h); all zero when the
  /// server runs without --tiered.
  uint64_t TierInvocations = 0; ///< Runs that ticked the hotness engine.
  uint64_t TierPromotions = 0;  ///< Ready-tier improvements applied.
  uint64_t TierCompilesOk = 0;  ///< Background compiles that landed.
  uint64_t TierCompilesFailed = 0;
  uint64_t TierQueueRejects = 0; ///< Compiles skipped: queue bound hit.
  uint64_t TierPins = 0;         ///< Demotion pins recorded.
  std::vector<TenantLine> Tenants;
};

//===--- Pure encode/decode -----------------------------------------------===//
// Encoders produce the *payload* only; frame() wraps it. Decoders take
// the payload bytes and return a MalformedFrame Status on any violation.

std::vector<uint8_t> encodeRunRequest(const RunRequest &R);
status::Status decodeRunRequest(const uint8_t *Data, size_t Len,
                                RunRequest &Out);

std::vector<uint8_t> encodeRunResponse(const RunResponse &R);
status::Status decodeRunResponse(const uint8_t *Data, size_t Len,
                                 RunResponse &Out);

std::vector<uint8_t> encodeStatsResponse(const StatsResponse &S);
status::Status decodeStatsResponse(const uint8_t *Data, size_t Len,
                                   StatsResponse &Out);

/// Wraps \p Payload in a frame header.
std::vector<uint8_t> frame(FrameKind K, const std::vector<uint8_t> &Payload);

/// Validates a frame header. On success sets \p Kind and \p Len.
status::Status decodeFrameHeader(const uint8_t *Hdr, FrameKind &Kind,
                                 uint32_t &Len);

//===--- POSIX stream helpers ---------------------------------------------===//

/// Reads exactly \p N bytes. \returns false on EOF or error (EINTR is
/// retried; a clean EOF before any byte sets \p CleanEof when non-null).
bool readExact(int Fd, void *Buf, size_t N, bool *CleanEof = nullptr);

/// Writes all \p N bytes (EINTR retried, SIGPIPE suppressed). \returns
/// false when the peer is gone -- the caller treats that as a
/// disconnect, never an error worth crashing over.
bool writeAll(int Fd, const void *Buf, size_t N);

/// Reads one frame. \p CleanEof distinguishes an orderly close between
/// frames from a mid-frame truncation (the latter is a protocol error).
status::Status readFrame(int Fd, FrameKind &Kind,
                         std::vector<uint8_t> &Payload, bool &CleanEof);

/// Frames and writes in one call. \returns false on a dead peer.
bool writeFrame(int Fd, FrameKind K, const std::vector<uint8_t> &Payload);

} // namespace server
} // namespace vapor

#endif // VAPOR_SERVER_PROTOCOL_H
