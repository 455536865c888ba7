//===- tests/server_test.cpp - Execution-service robustness tests ---------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// Two layers of coverage for vapor::server:
//
//  1. Pure protocol fuzzing -- every decoder is driven with truncations,
//     hostile length prefixes, bad enum values, and deterministic garbage,
//     and must answer with a structured MalformedFrame Status (never UB,
//     never an abort).
//  2. A live in-process Server attacked over real AF_UNIX sockets:
//     garbage frames, mid-request disconnects, duplicate ids, unknown
//     targets. Every attack lands as a structured rejection counter and
//     the server keeps serving; deadline and fail-closed semantics are
//     pinned through runEncodedModule directly.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "codegen/NativeJit.h"
#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "jit/CodeCache.h"
#include "kernels/Kernels.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace vapor;
using server::FrameKind;

namespace {

//===--- Protocol fuzz (no sockets) ---------------------------------------===//

server::RunRequest sampleRequest() {
  server::RunRequest R;
  R.RequestId = 42;
  R.Tenant = "tenant-x";
  R.Name = "dissolve_s8";
  R.Target = "sse";
  R.UseNative = true;
  R.Elide = 1;
  R.DeadlineFuel = 12345;
  R.FillSeed = 9;
  R.IntParams["n"] = 64;
  R.IntParams["w"] = 7;
  R.FPParams["alpha"] = 0.5;
  R.Bytecode = {1, 2, 3, 4, 5, 6, 7, 8};
  return R;
}

TEST(ProtocolTest, RunRequestRoundTrip) {
  server::RunRequest R = sampleRequest();
  std::vector<uint8_t> P = server::encodeRunRequest(R);
  server::RunRequest Out;
  ASSERT_TRUE(server::decodeRunRequest(P.data(), P.size(), Out).ok());
  EXPECT_EQ(Out.RequestId, R.RequestId);
  EXPECT_EQ(Out.Tenant, R.Tenant);
  EXPECT_EQ(Out.Name, R.Name);
  EXPECT_EQ(Out.Target, R.Target);
  EXPECT_EQ(Out.UseNative, R.UseNative);
  EXPECT_EQ(Out.Elide, R.Elide);
  EXPECT_EQ(Out.Inject, R.Inject);
  EXPECT_EQ(Out.DeadlineFuel, R.DeadlineFuel);
  EXPECT_EQ(Out.FillSeed, R.FillSeed);
  EXPECT_EQ(Out.IntParams, R.IntParams);
  EXPECT_EQ(Out.FPParams, R.FPParams);
  EXPECT_EQ(Out.Bytecode, R.Bytecode);
}

TEST(ProtocolTest, RunResponseRoundTrip) {
  server::RunResponse R;
  R.RequestId = 7;
  R.TraceId = "vs-3";
  R.Code = 11;
  R.Layer = 6;
  R.Message = "queue full";
  R.Tier = 2;
  R.Demotions = 1;
  R.Retries = 2;
  R.Cycles = 998877;
  R.RetryAfterMs = 50;
  R.Arrays.push_back({"o", 0, {1, 2, 3}});
  R.Arrays.push_back({"f", 1, {0x3ff0000000000000ull}});
  std::vector<uint8_t> P = server::encodeRunResponse(R);
  server::RunResponse Out;
  ASSERT_TRUE(server::decodeRunResponse(P.data(), P.size(), Out).ok());
  EXPECT_EQ(Out.TraceId, R.TraceId);
  EXPECT_EQ(Out.RetryAfterMs, R.RetryAfterMs);
  ASSERT_EQ(Out.Arrays.size(), 2u);
  EXPECT_EQ(Out.Arrays[0].Lanes, R.Arrays[0].Lanes);
  EXPECT_EQ(Out.Arrays[1].IsFP, 1);
}

TEST(ProtocolTest, StatsResponseRoundTrip) {
  server::StatsResponse S;
  S.Accepted = 100;
  S.RejectedOverload = 3;
  S.CacheEvictions = 17;
  S.RssBytes = 1u << 24;
  S.Tenants.push_back({"a", 1, 2, 3, 4, 5});
  std::vector<uint8_t> P = server::encodeStatsResponse(S);
  server::StatsResponse Out;
  ASSERT_TRUE(server::decodeStatsResponse(P.data(), P.size(), Out).ok());
  EXPECT_EQ(Out.Accepted, 100u);
  EXPECT_EQ(Out.CacheEvictions, 17u);
  ASSERT_EQ(Out.Tenants.size(), 1u);
  EXPECT_EQ(Out.Tenants[0].Rejected, 3u);
}

TEST(ProtocolTest, EveryTruncationOfARequestIsMalformed) {
  std::vector<uint8_t> P = server::encodeRunRequest(sampleRequest());
  for (size_t Len = 0; Len < P.size(); ++Len) {
    server::RunRequest Out;
    Status St = server::decodeRunRequest(P.data(), Len, Out);
    ASSERT_FALSE(St.ok()) << "truncation at " << Len << " decoded";
    EXPECT_EQ(St.code(), status::Code::MalformedFrame);
    EXPECT_EQ(St.layer(), status::Layer::Server);
  }
}

TEST(ProtocolTest, TrailingGarbageIsMalformed) {
  std::vector<uint8_t> P = server::encodeRunRequest(sampleRequest());
  P.push_back(0xaa);
  server::RunRequest Out;
  EXPECT_FALSE(server::decodeRunRequest(P.data(), P.size(), Out).ok());
}

TEST(ProtocolTest, HostileStringAndCountPrefixesAreMalformed) {
  // A huge inner string length must not drive a huge allocation: the
  // decoder checks every length against the remaining payload.
  std::vector<uint8_t> P = server::encodeRunRequest(sampleRequest());
  // RequestId occupies bytes [0,8); the Tenant length prefix follows.
  uint32_t Huge = 0x7fffffff;
  std::memcpy(P.data() + 8, &Huge, 4);
  server::RunRequest Out;
  Status St = server::decodeRunRequest(P.data(), P.size(), Out);
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), status::Code::MalformedFrame);
}

TEST(ProtocolTest, OverlongTenantNameIsMalformed) {
  // Tenant names are accounting-map keys; a hostile multi-kilobyte name
  // must die at decode, not become server state.
  server::RunRequest R = sampleRequest();
  R.Tenant = std::string(server::MaxTenantBytes, 'x');
  std::vector<uint8_t> P = server::encodeRunRequest(R);
  server::RunRequest Out;
  EXPECT_TRUE(server::decodeRunRequest(P.data(), P.size(), Out).ok())
      << "names at the cap are fine";

  R.Tenant = std::string(server::MaxTenantBytes + 1, 'x');
  P = server::encodeRunRequest(R);
  Status St = server::decodeRunRequest(P.data(), P.size(), Out);
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), status::Code::MalformedFrame);
}

TEST(ProtocolTest, BadEnumFieldsAreMalformed) {
  {
    server::RunRequest R = sampleRequest();
    R.Elide = 3; // Past ElisionMode::Audit.
    std::vector<uint8_t> P = server::encodeRunRequest(R);
    server::RunRequest Out;
    EXPECT_FALSE(server::decodeRunRequest(P.data(), P.size(), Out).ok());
  }
  {
    server::RunRequest R = sampleRequest();
    R.Inject = 200; // Not 0xff, not a SiteClass.
    std::vector<uint8_t> P = server::encodeRunRequest(R);
    server::RunRequest Out;
    EXPECT_FALSE(server::decodeRunRequest(P.data(), P.size(), Out).ok());
  }
  // The flag byte follows the u64 id and three u32-length-prefixed
  // strings. Only bit 0x1 (UseNative) exists: the verify gate and the
  // code cache are not the client's to switch off.
  server::RunRequest R = sampleRequest();
  std::vector<uint8_t> P = server::encodeRunRequest(R);
  const size_t FlagAt = 8 + (4 + R.Tenant.size()) + (4 + R.Name.size()) +
                        (4 + R.Target.size());
  ASSERT_EQ(P[FlagAt], 1u);
  for (uint8_t Bit : {0x2, 0x4, 0x80}) {
    std::vector<uint8_t> Bad = P;
    Bad[FlagAt] |= Bit;
    server::RunRequest Out;
    Status St = server::decodeRunRequest(Bad.data(), Bad.size(), Out);
    EXPECT_FALSE(St.ok()) << "flag bit " << int(Bit);
    EXPECT_EQ(St.code(), status::Code::MalformedFrame);
  }
}

TEST(ProtocolTest, DeterministicGarbageNeverCrashesDecoders) {
  // SplitMix64-driven fuzz: whatever the bytes, every decoder must
  // return (never throw/abort), and failures must be structured.
  uint64_t X = 0x9e3779b97f4a7c15ull;
  auto Next = [&X] {
    X += 0x9e3779b97f4a7c15ull;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  };
  for (int Round = 0; Round < 200; ++Round) {
    std::vector<uint8_t> P(Next() % 512);
    for (uint8_t &B : P)
      B = static_cast<uint8_t>(Next());
    server::RunRequest Rq;
    server::RunResponse Rs;
    server::StatsResponse St;
    Status A = server::decodeRunRequest(P.data(), P.size(), Rq);
    Status B = server::decodeRunResponse(P.data(), P.size(), Rs);
    Status C = server::decodeStatsResponse(P.data(), P.size(), St);
    for (const Status &S : {A, B, C}) {
      if (!S.ok()) {
        EXPECT_EQ(S.code(), status::Code::MalformedFrame);
      }
    }
  }
}

TEST(ProtocolTest, FrameHeaderRejectsMagicLengthAndKind) {
  std::vector<uint8_t> F =
      server::frame(FrameKind::Ping, {1, 2, 3});
  ASSERT_EQ(F.size(), server::FrameHeaderBytes + 3);
  FrameKind Kind;
  uint32_t Len = 0;
  ASSERT_TRUE(server::decodeFrameHeader(F.data(), Kind, Len).ok());
  EXPECT_EQ(Kind, FrameKind::Ping);
  EXPECT_EQ(Len, 3u);

  std::vector<uint8_t> Bad = F;
  Bad[0] ^= 0xff; // Magic.
  EXPECT_FALSE(server::decodeFrameHeader(Bad.data(), Kind, Len).ok());

  Bad = F;
  Bad[4] = 0x7e; // Unknown kind.
  EXPECT_FALSE(server::decodeFrameHeader(Bad.data(), Kind, Len).ok());

  Bad = F;
  uint32_t Oversized = server::MaxPayload + 1;
  std::memcpy(Bad.data() + 5, &Oversized, 4); // Hostile length prefix.
  EXPECT_FALSE(server::decodeFrameHeader(Bad.data(), Kind, Len).ok());
}

TEST(ProtocolTest, RequestKindPredicate) {
  EXPECT_TRUE(server::isRequestKind(1));
  EXPECT_TRUE(server::isRequestKind(2));
  EXPECT_TRUE(server::isRequestKind(3));
  EXPECT_FALSE(server::isRequestKind(0x81)) << "responses are not requests";
  EXPECT_FALSE(server::isRequestKind(0));
  EXPECT_FALSE(server::isRequestKind(99));
}

//===--- Integer division modules (total semantics, no trap) --------------===//

/// o[i] = a[i] / p and r[i] = a[i] % p over 16 I32 lanes; a client binds
/// p, and p = 0 used to abort the process.
std::vector<uint8_t> divByParamI32() {
  ir::Function F("div_param_i32");
  uint32_t A = F.addArray("a", ir::ScalarKind::I32, 16, 4);
  uint32_t O = F.addArray("o", ir::ScalarKind::I32, 16, 4);
  uint32_t R = F.addArray("r", ir::ScalarKind::I32, 16, 4);
  ir::ValueId P = F.addParam("p", ir::Type::scalar(ir::ScalarKind::I32));
  ir::IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), B.constIdx(16), B.constIdx(1));
  ir::ValueId X = B.load(A, L.indVar());
  B.store(O, L.indVar(), B.div(X, P));
  B.store(R, L.indVar(), B.rem(X, P));
  B.endLoop(L);
  return bytecode::encode(vectorizer::vectorize(F, {}).Output);
}

/// o[0] = p / q and o[1] = p % q over I64 with p = INT64_MIN, q = -1:
/// bound by the client as parameters, or the same values as constants
/// (which the verifier folds). Either used to kill the process.
std::vector<uint8_t> int64MinOverMinusOne(bool Constants) {
  ir::Function F(Constants ? "min_div_const" : "min_div_param");
  uint32_t O = F.addArray("o", ir::ScalarKind::I64, 2, 8);
  const ir::Type I64 = ir::Type::scalar(ir::ScalarKind::I64);
  ir::IrBuilder B(F);
  ir::ValueId P = Constants ? B.constInt(I64.Elem, INT64_MIN)
                            : F.addParam("p", I64);
  ir::ValueId Q = Constants ? B.constInt(I64.Elem, -1) : F.addParam("q", I64);
  B.store(O, B.constIdx(0), B.div(P, Q));
  B.store(O, B.constIdx(1), B.rem(P, Q));
  return bytecode::encode(vectorizer::vectorize(F, {}).Output);
}

/// for i < t: for j < 16: a[j] += b[j] over I32, with t bound by the
/// client. Every op of it lowers inline on the native tier, so its loops
/// never leave the generated code: only a budget the code charges itself
/// can stop a large t.
std::vector<uint8_t> nestedAddI32() {
  ir::Function F("nested_add_i32");
  uint32_t A = F.addArray("a", ir::ScalarKind::I32, 16, 16);
  uint32_t Bv = F.addArray("b", ir::ScalarKind::I32, 16, 16);
  ir::ValueId T = F.addParam("t", ir::Type::scalar(ir::ScalarKind::I64));
  ir::IrBuilder B(F);
  auto Outer = B.beginLoop(B.constIdx(0), T, B.constIdx(1));
  auto Inner = B.beginLoop(B.constIdx(0), B.constIdx(16), B.constIdx(1));
  ir::ValueId J = Inner.indVar();
  B.store(A, J, B.add(B.load(A, J), B.load(Bv, J)));
  B.endLoop(Inner);
  B.endLoop(Outer);
  return bytecode::encode(vectorizer::vectorize(F, {}).Output);
}

/// How overflowingFold folds its two client constants.
enum class Fold { SumPastMax, NegatedMin, Product };

/// o[i] = a[i] + 1 over 16 I64 lanes (a vector loop, so the verifier
/// walks the module), then r[0] = a fold of two constants that leaves
/// int64. \p Wraps receives the two's-complement value every tier stores.
ir::Function overflowingFold(Fold How, int64_t &Wraps) {
  ir::Function F("overflowing_fold");
  const ir::ScalarKind I64 = ir::ScalarKind::I64;
  uint32_t A = F.addArray("a", I64, 16, 16);
  uint32_t O = F.addArray("o", I64, 16, 16);
  uint32_t R = F.addArray("r", I64, 1, 8);
  ir::IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), B.constIdx(16), B.constIdx(1));
  B.store(O, L.indVar(),
          B.add(B.load(A, L.indVar()), B.constInt(I64, 1)));
  B.endLoop(L);
  ir::ValueId X = ir::NoValue;
  switch (How) {
  case Fold::SumPastMax:
    X = B.add(B.constInt(I64, INT64_MAX), B.constInt(I64, 1));
    Wraps = INT64_MIN;
    break;
  case Fold::NegatedMin:
    X = B.neg(B.constInt(I64, INT64_MIN));
    Wraps = INT64_MIN;
    break;
  case Fold::Product:
    X = B.mul(B.constInt(I64, INT64_MAX), B.constInt(I64, 3));
    Wraps = static_cast<int64_t>(static_cast<uint64_t>(INT64_MAX) * 3);
    break;
  }
  B.store(R, B.constIdx(0), X);
  return vectorizer::vectorize(F, {}).Output;
}

/// A scalar module of \p Depth loops nested one inside the next, each
/// over [0, n), around a[0] = i of the innermost induction variable.
/// Built and encoded without recursion, so any depth can be made: 25,000
/// levels take about 475 KB, well under the frame cap.
std::vector<uint8_t> loopNest(uint32_t Depth) {
  ir::Function F("nest");
  uint32_t A = F.addArray("a", ir::ScalarKind::I64, 1, 8);
  ir::ValueId N = F.addParam("n", ir::Type::scalar(ir::ScalarKind::I64));
  ir::IrBuilder B(F);
  ir::ValueId Zero = B.constIdx(0);
  ir::ValueId One = B.constIdx(1);
  std::vector<ir::IrBuilder::LoopHandle> Loops;
  for (uint32_t D = 0; D < Depth; ++D)
    Loops.push_back(B.beginLoop(Zero, N, One));
  B.store(A, Zero, Loops.back().indVar());
  for (auto It = Loops.rbegin(); It != Loops.rend(); ++It)
    B.endLoop(*It);
  return bytecode::encode(F);
}

/// Enough levels to overflow an 8 MiB thread stack in any walk that
/// recursed once per level.
constexpr uint32_t StackBreakingDepth = 25000;

//===--- Live server over AF_UNIX -----------------------------------------===//

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Spins until \p Pred holds or ~2s elapse: socket teardown and the
/// server's reader threads race the test thread by design.
template <typename P> bool eventually(P Pred) {
  for (int I = 0; I < 200; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Pred();
}

class ServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    Path = "/tmp/vapor-servertest-" + std::to_string(::getpid()) + "-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".sock";
    server::ServerOptions Opts;
    Opts.SocketPath = Path;
    Opts.Workers = 2;
    Srv = std::make_unique<server::Server>(Opts);
    ASSERT_TRUE(Srv->start().ok());
  }
  void TearDown() override {
    Srv->drain();
    Srv.reset();
  }

  /// A real module: vectorized + encoded dissolve_s8.
  static std::vector<uint8_t> realBytecode() {
    for (const kernels::Kernel &K : kernels::allKernels())
      if (K.Name == "dissolve_s8") {
        auto VR = vectorizer::vectorize(K.Source, {});
        return bytecode::encode(VR.Output);
      }
    return {};
  }

  server::RunResponse roundTrip(int Fd, const server::RunRequest &Req,
                                bool &Ok) {
    server::RunResponse Resp;
    Ok = false;
    if (!server::writeFrame(Fd, FrameKind::RunReq,
                            server::encodeRunRequest(Req)))
      return Resp;
    FrameKind Kind;
    std::vector<uint8_t> Payload;
    bool CleanEof = false;
    if (!server::readFrame(Fd, Kind, Payload, CleanEof).ok() || CleanEof ||
        Kind != FrameKind::RunResp)
      return Resp;
    Ok = server::decodeRunResponse(Payload.data(), Payload.size(), Resp)
             .ok();
    return Resp;
  }

  std::string Path;
  std::unique_ptr<server::Server> Srv;
};

TEST_F(ServerTest, PingPongAndStats) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(server::writeFrame(Fd, FrameKind::Ping, {9, 8, 7}));
  FrameKind Kind;
  std::vector<uint8_t> Payload;
  bool CleanEof = false;
  ASSERT_TRUE(server::readFrame(Fd, Kind, Payload, CleanEof).ok());
  EXPECT_EQ(Kind, FrameKind::Pong);
  EXPECT_EQ(Payload, (std::vector<uint8_t>{9, 8, 7}));

  ASSERT_TRUE(server::writeFrame(Fd, FrameKind::StatsReq, {}));
  ASSERT_TRUE(server::readFrame(Fd, Kind, Payload, CleanEof).ok());
  EXPECT_EQ(Kind, FrameKind::StatsResp);
  server::StatsResponse S;
  EXPECT_TRUE(
      server::decodeStatsResponse(Payload.data(), Payload.size(), S).ok());
  EXPECT_EQ(S.Workers, 2u);
  ::close(Fd);
}

TEST_F(ServerTest, ValidRunSucceedsWithArrays) {
  std::vector<uint8_t> Code = realBytecode();
  ASSERT_FALSE(Code.empty());
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  server::RunRequest Req;
  Req.RequestId = 1;
  Req.Tenant = "t0";
  Req.Name = "dissolve_s8";
  Req.IntParams["n"] = 64; // Harmless extra binding.
  Req.Bytecode = Code;
  bool Ok = false;
  server::RunResponse Resp = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Resp.Code, 0u) << Resp.Message;
  EXPECT_FALSE(Resp.TraceId.empty());
  EXPECT_FALSE(Resp.Arrays.empty());
  ::close(Fd);
  server::StatsResponse S = Srv->statsSnapshot();
  EXPECT_EQ(S.Accepted, 1u);
  EXPECT_TRUE(eventually([&] {
    return Srv->statsSnapshot().Completed == 1;
  }));
}

TEST_F(ServerTest, NarrowElementOversizedResponseIsStructuredNotFatal) {
  // Lanes ship as u64 whatever the element kind, so a u8 array inflates
  // 8x on the wire: ~1.2M elements fit comfortably in memory (1.2 MB)
  // but need ~9.6 MB in a RunResp, over the 8 MiB frame cap. The server
  // must answer with a structured error, not emit a frame the client's
  // header check would reject (which would desynchronize the stream).
  ir::Function F("wide_u8");
  F.IsSplitLayer = true;
  uint32_t O = F.addArray("o", ir::ScalarKind::U8, 1200000, 1);
  ir::IrBuilder B(F);
  B.store(O, B.constIdx(0), B.constInt(ir::ScalarKind::U8, 7));

  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  server::RunRequest Req;
  Req.RequestId = 11;
  Req.Tenant = "t0";
  Req.Name = "wide_u8";
  Req.Bytecode = bytecode::encode(F);
  bool Ok = false;
  server::RunResponse Resp = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Resp.Code,
            static_cast<uint8_t>(status::Code::InvalidArgument))
      << Resp.Message;
  EXPECT_EQ(Resp.Layer, static_cast<uint8_t>(status::Layer::Server));
  EXPECT_TRUE(Resp.Arrays.empty());

  // The connection survives and keeps serving.
  ASSERT_TRUE(server::writeFrame(Fd, FrameKind::Ping, {1, 2}));
  FrameKind Kind;
  std::vector<uint8_t> Payload;
  bool CleanEof = false;
  ASSERT_TRUE(server::readFrame(Fd, Kind, Payload, CleanEof).ok());
  EXPECT_EQ(Kind, FrameKind::Pong);
  ::close(Fd);
}

TEST_F(ServerTest, IntegerDivisionByZeroIsAnsweredAndServingGoesOn) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  server::RunRequest Req;
  Req.RequestId = 21;
  Req.Tenant = "t0";
  Req.Name = "div_param_i32";
  Req.IntParams["p"] = 0;
  Req.Bytecode = divByParamI32();
  bool Ok = false;
  server::RunResponse Resp = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  ASSERT_EQ(Resp.Code, 0u) << Resp.Message;
  ASSERT_EQ(Resp.Arrays.size(), 3u);
  ASSERT_EQ(Resp.Arrays[1].Name, "o");
  for (uint64_t Lane : Resp.Arrays[1].Lanes)
    EXPECT_EQ(Lane, ~0ULL); // x / 0 is all ones.
  EXPECT_EQ(Resp.Arrays[2].Lanes, Resp.Arrays[0].Lanes); // x % 0 is x.

  // The same connection goes on serving an ordinary request.
  server::RunRequest Next;
  Next.RequestId = 22;
  Next.Tenant = "t0";
  Next.Name = "dissolve_s8";
  Next.Bytecode = realBytecode();
  Resp = roundTrip(Fd, Next, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Resp.RequestId, 22u);
  EXPECT_EQ(Resp.Code, 0u) << Resp.Message;
  EXPECT_FALSE(Resp.Arrays.empty());
  ::close(Fd);
}

TEST_F(ServerTest, NativeRunPastItsDeadlineIsAnsweredAndServingGoesOn) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  server::RunRequest Req;
  Req.RequestId = 31;
  Req.Tenant = "t0";
  Req.Name = "nested_add_i32";
  Req.UseNative = true;
  Req.DeadlineFuel = 100000;
  Req.IntParams["t"] = 1 << 16;
  Req.Bytecode = nestedAddI32();
  bool Ok = false;
  server::RunResponse Resp = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Resp.Code, static_cast<uint8_t>(status::Code::DeadlineExceeded))
      << Resp.Message;
  EXPECT_TRUE(Resp.Arrays.empty());

  // The same connection goes on serving an ordinary request.
  server::RunRequest Next;
  Next.RequestId = 32;
  Next.Tenant = "t0";
  Next.Name = "dissolve_s8";
  Next.UseNative = true;
  Next.Bytecode = realBytecode();
  Resp = roundTrip(Fd, Next, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Resp.RequestId, 32u);
  EXPECT_EQ(Resp.Code, 0u) << Resp.Message;
  EXPECT_FALSE(Resp.Arrays.empty());
  ::close(Fd);
}

TEST_F(ServerTest, GarbageMagicTearsDownConnectionNotServer) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  const char Junk[] = "this is not a vapor frame at all";
  ASSERT_TRUE(server::writeAll(Fd, Junk, sizeof(Junk)));
  // The server answers best-effort with a malformed-frame Status and then
  // closes; either way the connection must die...
  FrameKind Kind;
  std::vector<uint8_t> Payload;
  bool CleanEof = false;
  (void)server::readFrame(Fd, Kind, Payload, CleanEof);
  ::close(Fd);
  // ...and the rejection must be counted, with the server still serving.
  EXPECT_TRUE(eventually([&] {
    return Srv->statsSnapshot().RejectedMalformed >= 1;
  }));
  int Fd2 = connectTo(Path);
  ASSERT_GE(Fd2, 0) << "server must keep accepting after a hostile peer";
  ASSERT_TRUE(server::writeFrame(Fd2, FrameKind::Ping, {1}));
  ASSERT_TRUE(server::readFrame(Fd2, Kind, Payload, CleanEof).ok());
  EXPECT_EQ(Kind, FrameKind::Pong);
  ::close(Fd2);
}

TEST_F(ServerTest, OversizedLengthPrefixIsRejected) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  uint8_t Hdr[server::FrameHeaderBytes];
  uint32_t Magic = server::FrameMagic;
  std::memcpy(Hdr, &Magic, 4);
  Hdr[4] = 1; // RunReq.
  uint32_t Len = server::MaxPayload + 1;
  std::memcpy(Hdr + 5, &Len, 4);
  ASSERT_TRUE(server::writeAll(Fd, Hdr, sizeof(Hdr)));
  EXPECT_TRUE(eventually([&] {
    return Srv->statsSnapshot().RejectedMalformed >= 1;
  }));
  ::close(Fd);
}

TEST_F(ServerTest, MidRequestDisconnectIsHandled) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  // A valid header promising 100 payload bytes, then only 10, then gone.
  uint8_t Hdr[server::FrameHeaderBytes];
  uint32_t Magic = server::FrameMagic;
  std::memcpy(Hdr, &Magic, 4);
  Hdr[4] = 1;
  uint32_t Len = 100;
  std::memcpy(Hdr + 5, &Len, 4);
  ASSERT_TRUE(server::writeAll(Fd, Hdr, sizeof(Hdr)));
  uint8_t Partial[10] = {};
  ASSERT_TRUE(server::writeAll(Fd, Partial, sizeof(Partial)));
  ::close(Fd);
  EXPECT_TRUE(eventually([&] {
    return Srv->statsSnapshot().RejectedMalformed >= 1;
  }));
  // Server is unharmed.
  int Fd2 = connectTo(Path);
  ASSERT_GE(Fd2, 0);
  ::close(Fd2);
}

TEST_F(ServerTest, GarbageRunPayloadGetsStructuredAnswerStreamSurvives) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  // Well-framed, but the payload is garbage: the server answers with a
  // MalformedFrame Status and KEEPS the connection (framing is intact).
  ASSERT_TRUE(
      server::writeFrame(Fd, FrameKind::RunReq, {0xde, 0xad, 0xbe, 0xef}));
  FrameKind Kind;
  std::vector<uint8_t> Payload;
  bool CleanEof = false;
  ASSERT_TRUE(server::readFrame(Fd, Kind, Payload, CleanEof).ok());
  ASSERT_FALSE(CleanEof);
  ASSERT_EQ(Kind, FrameKind::RunResp);
  server::RunResponse Resp;
  ASSERT_TRUE(
      server::decodeRunResponse(Payload.data(), Payload.size(), Resp).ok());
  EXPECT_EQ(Resp.Code,
            static_cast<uint8_t>(status::Code::MalformedFrame));

  // Same connection still serves valid traffic.
  ASSERT_TRUE(server::writeFrame(Fd, FrameKind::Ping, {5}));
  ASSERT_TRUE(server::readFrame(Fd, Kind, Payload, CleanEof).ok());
  EXPECT_EQ(Kind, FrameKind::Pong);
  ::close(Fd);
}

TEST_F(ServerTest, DuplicateRequestIdsAreRejected) {
  std::vector<uint8_t> Code = realBytecode();
  ASSERT_FALSE(Code.empty());
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  server::RunRequest Req;
  Req.RequestId = 77;
  Req.Tenant = "t0";
  Req.Bytecode = Code;
  bool Ok = false;
  server::RunResponse First = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(First.Code, 0u) << First.Message;
  // Same id again on the same connection: the completed-id window must
  // reject it without running anything.
  server::RunResponse Second = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Second.Code,
            static_cast<uint8_t>(status::Code::DuplicateRequest));
  EXPECT_EQ(Srv->statsSnapshot().RejectedDuplicate, 1u);
  ::close(Fd);
}

TEST_F(ServerTest, UnknownTargetIsInvalidArgument) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  server::RunRequest Req;
  Req.RequestId = 5;
  Req.Target = "itanium";
  Req.Bytecode = {1, 2, 3};
  bool Ok = false;
  server::RunResponse Resp = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Resp.Code,
            static_cast<uint8_t>(status::Code::InvalidArgument));
  EXPECT_EQ(Srv->statsSnapshot().RejectedInvalid, 1u);
  ::close(Fd);
}

TEST_F(ServerTest, UndecodableModuleFailsClosedNotSilently) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  server::RunRequest Req;
  Req.RequestId = 6;
  Req.Tenant = "t0";
  Req.Bytecode = {9, 9, 9, 9, 9, 9, 9, 9}; // Not a module.
  bool Ok = false;
  server::RunResponse Resp = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_NE(Resp.Code, 0u) << "garbage bytecode must not 'succeed'";
  EXPECT_TRUE(Resp.Arrays.empty());
  ::close(Fd);
}

TEST_F(ServerTest, StackBreakingNestIsAnsweredAndServingGoesOn) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  server::RunRequest Req;
  Req.RequestId = 8;
  Req.Tenant = "t0";
  Req.Bytecode = loopNest(StackBreakingDepth);
  bool Ok = false;
  server::RunResponse Resp = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Resp.Code,
            static_cast<uint8_t>(status::Code::RejectedByVerifier))
      << Resp.Message;
  // The same connection still runs a valid module.
  Req.RequestId = 9;
  Req.Bytecode = realBytecode();
  Resp = roundTrip(Fd, Req, Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Resp.Code, 0u) << Resp.Message;
  ::close(Fd);
}

TEST_F(ServerTest, ResponseKindFromClientIsMalformed) {
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(server::writeFrame(Fd, FrameKind::RunResp, {1, 2, 3}));
  EXPECT_TRUE(eventually([&] {
    return Srv->statsSnapshot().RejectedMalformed >= 1;
  }));
  ::close(Fd);
}

TEST(ServerTenantBoundTest, UniqueTenantFloodStaysBounded) {
  // A hostile client inventing a fresh tenant name per request must not
  // grow the accounting maps past MaxTenants: idle lines are retired to
  // make room, and the cache's per-tenant stats lines go with them.
  std::string Path = "/tmp/vapor-servertest-" + std::to_string(::getpid()) +
                     "-tenantbound.sock";
  server::ServerOptions Opts;
  Opts.SocketPath = Path;
  Opts.Workers = 2;
  Opts.MaxTenants = 4;
  server::Server Srv(Opts);
  ASSERT_TRUE(Srv.start().ok());

  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  constexpr unsigned Flood = 12;
  for (unsigned I = 0; I < Flood; ++I) {
    // Unknown target: cheap rejection path, still tenant-attributed.
    server::RunRequest Req;
    Req.RequestId = 100 + I;
    Req.Tenant = "flood-" + std::to_string(I);
    Req.Target = "itanium";
    Req.Bytecode = {1, 2, 3};
    FrameKind Kind;
    std::vector<uint8_t> Payload;
    bool CleanEof = false;
    ASSERT_TRUE(server::writeFrame(Fd, FrameKind::RunReq,
                                   server::encodeRunRequest(Req)));
    ASSERT_TRUE(server::readFrame(Fd, Kind, Payload, CleanEof).ok());
    server::RunResponse Resp;
    ASSERT_TRUE(
        server::decodeRunResponse(Payload.data(), Payload.size(), Resp)
            .ok());
    EXPECT_EQ(Resp.Code,
              static_cast<uint8_t>(status::Code::InvalidArgument));
  }
  ::close(Fd);

  server::StatsResponse S = Srv.statsSnapshot();
  EXPECT_EQ(S.RejectedInvalid, Flood) << "every rejection is counted";
  // The snapshot also merges the process-global cache's tenant lines
  // (other suites share it), so bound only the lines this flood minted.
  unsigned FloodLines = 0;
  for (const server::TenantLine &T : S.Tenants)
    if (T.Tenant.rfind("flood-", 0) == 0)
      ++FloodLines;
  EXPECT_LE(FloodLines, 4u) << "tenant lines stay bounded";
  Srv.drain();
}

TEST_F(ServerTest, DrainIsIdempotentAndStops) {
  EXPECT_TRUE(Srv->running());
  Srv->drain();
  EXPECT_FALSE(Srv->running());
  Srv->drain(); // Second drain is a no-op, not a crash.
  EXPECT_LT(connectTo(Path), 0) << "socket must be gone after drain";
}

//===--- Deadline + fail-closed semantics (no socket needed) --------------===//

std::vector<uint8_t> encodedKernel(const char *Name) {
  for (const kernels::Kernel &K : kernels::allKernels())
    if (K.Name == Name) {
      auto VR = vectorizer::vectorize(K.Source, {});
      return bytecode::encode(VR.Output);
    }
  return {};
}

TEST(RunEncodedModuleTest, CompletesAndReportsOkTerminal) {
  ModuleWorkload W;
  W.Name = "dissolve_s8";
  W.Bytecode = encodedKernel("dissolve_s8");
  ASSERT_FALSE(W.Bytecode.empty());
  RunOptions O;
  RunOutcome Out = runEncodedModule(W, O);
  EXPECT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
  EXPECT_NE(Out.Mem, nullptr);
  EXPECT_GT(Out.Cycles, 0u);
}

TEST(RunEncodedModuleTest, TinyFuelIsTerminalDeadline) {
  ModuleWorkload W;
  W.Name = "dissolve_s8";
  W.Bytecode = encodedKernel("dissolve_s8");
  ASSERT_FALSE(W.Bytecode.empty());
  RunOptions O;
  O.DeadlineFuel = 3; // A handful of dispatches; nothing completes.
  RunOutcome Out = runEncodedModule(W, O);
  ASSERT_FALSE(Out.Terminal.ok());
  EXPECT_EQ(Out.Terminal.code(), status::Code::DeadlineExceeded);
  // Terminal means terminal: no demotion chain below the deadline.
  EXPECT_EQ(Out.Retries, 0u);
}

TEST(RunEncodedModuleTest, AmpleFuelCompletes) {
  ModuleWorkload W;
  W.Name = "dissolve_s8";
  W.Bytecode = encodedKernel("dissolve_s8");
  ASSERT_FALSE(W.Bytecode.empty());
  RunOptions O;
  O.DeadlineFuel = 50000000;
  RunOutcome Out = runEncodedModule(W, O);
  EXPECT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
}

/// Checks where a run entered at the VM (\p Native false) or at the
/// native tier ended up: on its entry tier with no demotion, except that
/// without the native tier (-DVAPOR_NATIVE=OFF) the native entry demotes
/// once, with UnsupportedIdiom, to the VM (DESIGN.md §10).
void expectEntryTierHeld(const RunOutcome &Out, bool Native) {
  if (Native && !codegen::supported()) {
    ASSERT_EQ(Out.Demotions.size(), 1u);
    EXPECT_EQ(Out.Demotions[0].code(), status::Code::UnsupportedIdiom);
    EXPECT_EQ(Out.Tier, ExecTier::Vectorized);
    return;
  }
  EXPECT_TRUE(Out.Demotions.empty());
  EXPECT_EQ(Out.Tier, Native ? ExecTier::Native : ExecTier::Vectorized);
}

// The native tier charges its budget at loop back-edges, so a loop nest
// with no call out of the generated code still ends at its deadline.
TEST(RunEncodedModuleTest, DeadlineBoundsAllInlineNativeLoops) {
  ModuleWorkload W;
  W.Name = "nested_add_i32";
  W.Bytecode = nestedAddI32();
  W.IntParams["t"] = 1 << 16;
  std::vector<int64_t> VmResult;
  for (bool Native : {false, true}) {
    SCOPED_TRACE(Native ? "native entry" : "vm entry");
    RunOptions O;
    O.UseNative = Native;
    O.DeadlineFuel = 100000;
    RunOutcome Out = runEncodedModule(W, O);
    ASSERT_FALSE(Out.Terminal.ok());
    EXPECT_EQ(Out.Terminal.code(), status::Code::DeadlineExceeded)
        << Out.Terminal.str();
    expectEntryTierHeld(Out, Native);

    O.DeadlineFuel = 1000000000;
    Out = runEncodedModule(W, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    expectEntryTierHeld(Out, Native);
    // The vector trip count's divide runs once, before the loops; the
    // loop nest itself never leaves the generated code.
    EXPECT_LE(Out.NativeCode.HelperOps, 1u);
    std::vector<int64_t> A;
    for (uint64_t I = 0; I < 16; ++I)
      A.push_back(Out.Mem->peekInt(0, I));
    if (Native)
      EXPECT_EQ(A, VmResult);
    else
      VmResult = A;
  }
}

// Tenant constants whose fold leaves int64 are no claim the verifier
// makes (a fresh symbol), not undefined behaviour in the daemon; every
// tier stores the two's-complement wrap.
void expectFoldVerifiedAndRun(Fold How) {
  int64_t Wraps = 0;
  ir::Function F = overflowingFold(How, Wraps);
  verify::Report Rep = verify::verifyModule(F);
  EXPECT_TRUE(Rep.ok()) << Rep.str();

  ModuleWorkload W;
  W.Name = "overflowing_fold";
  W.Bytecode = bytecode::encode(F);
  for (bool Native : {false, true}) {
    SCOPED_TRACE(Native ? "native entry" : "vm entry");
    RunOptions O;
    O.UseNative = Native;
    RunOutcome Out = runEncodedModule(W, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    expectEntryTierHeld(Out, Native);
    EXPECT_EQ(Out.Mem->peekInt(2, 0), Wraps);
  }
}

TEST(RunEncodedModuleTest, ConstantSumPastInt64MaxIsVerifiedAndRun) {
  expectFoldVerifiedAndRun(Fold::SumPastMax);
}

TEST(RunEncodedModuleTest, NegatedInt64MinIsVerifiedAndRun) {
  expectFoldVerifiedAndRun(Fold::NegatedMin);
}

TEST(RunEncodedModuleTest, ConstantProductPastInt64IsVerifiedAndRun) {
  expectFoldVerifiedAndRun(Fold::Product);
}

TEST(RunEncodedModuleTest, GarbageBytecodeIsTerminalDecodeFailure) {
  ModuleWorkload W;
  W.Name = "garbage";
  W.Bytecode = {0xff, 0xfe, 0xfd, 0xfc};
  RunOptions O;
  RunOutcome Out = runEncodedModule(W, O);
  ASSERT_FALSE(Out.Terminal.ok());
  EXPECT_EQ(Out.Terminal.layer(), status::Layer::Bytecode);
}

//===--- Nesting depth bound (ir::MaxRegionDepth) --------------------------===//

TEST(NestingDepthTest, BoundAdmitsItsDepthAndRejectsOneMore) {
  ModuleWorkload W;
  W.Name = "nest";
  W.Bytecode = loopNest(ir::MaxRegionDepth);
  W.IntParams["n"] = 1;
  ASSERT_TRUE(bytecode::decode(W.Bytecode).ok());
  RunOutcome Out = runEncodedModule(W, RunOptions());
  ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
  EXPECT_EQ(Out.Mem->peekInt(0, 0), 0); // The innermost store ran.

  auto Deeper = bytecode::decode(loopNest(ir::MaxRegionDepth + 1));
  ASSERT_FALSE(Deeper.ok());
  EXPECT_EQ(Deeper.status().code(), status::Code::RejectedByVerifier);
  EXPECT_NE(Deeper.status().context().find("nest deeper than 64 levels"),
            std::string::npos)
      << Deeper.status().str();
}

TEST(NestingDepthTest, StackBreakingNestIsRejectedByDecode) {
  auto R = bytecode::decode(loopNest(StackBreakingDepth));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), status::Code::RejectedByVerifier);
}

TEST(NestingDepthTest, StackBreakingNestIsTerminalInRunEncodedModule) {
  ModuleWorkload W;
  W.Name = "nest";
  W.Bytecode = loopNest(StackBreakingDepth);
  W.IntParams["n"] = 1;
  RunOutcome Out = runEncodedModule(W, RunOptions());
  ASSERT_FALSE(Out.Terminal.ok());
  EXPECT_EQ(Out.Terminal.code(), status::Code::RejectedByVerifier);
  EXPECT_EQ(Out.Terminal.layer(), status::Layer::Bytecode);
}

/// A loop with a dependence limit around a vector of no element kind:
/// the vectorization factor over it divided by a lane size of zero and
/// ended the process with SIGFPE.
TEST(RunEncodedModuleTest, VectorWithoutElementKindIsRejectedNotFatal) {
  ir::Function F("no_lane_size");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ir::ScalarKind::I64, 16, 8);
  ir::IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), B.constIdx(4), B.constIdx(1));
  ir::Instr I;
  I.Op = ir::Opcode::ConstInt;
  I.Ty = ir::Type(ir::ScalarKind::None, true);
  B.emit(I);
  B.store(A, L.indVar(), L.indVar());
  B.endLoop(L);
  F.Loops[0].MaxSafeVF = 1;
  ModuleWorkload W;
  W.Name = "no_lane_size";
  W.Bytecode = bytecode::encode(F);
  RunOutcome Out = runEncodedModule(W, RunOptions());
  ASSERT_FALSE(Out.Terminal.ok());
  EXPECT_EQ(Out.Terminal.code(), status::Code::RejectedByVerifier);
  EXPECT_NE(Out.Terminal.context().find("without an element kind"),
            std::string::npos)
      << Out.Terminal.str();
}

TEST(RunEncodedModuleTest, IntegerDivisionByZeroParamIsTotal) {
  ModuleWorkload W;
  W.Name = "div_param_i32";
  W.Bytecode = divByParamI32();
  W.IntParams["p"] = 0;
  for (bool Native : {false, true}) {
    SCOPED_TRACE(Native ? "native entry" : "vm entry");
    RunOptions O;
    O.UseNative = Native;
    RunOutcome Out = runEncodedModule(W, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    expectEntryTierHeld(Out, Native);
    for (uint64_t I = 0; I < 16; ++I) {
      EXPECT_EQ(Out.Mem->peekInt(1, I), -1) << I;
      EXPECT_EQ(Out.Mem->peekInt(2, I), Out.Mem->peekInt(0, I)) << I;
    }
  }
}

/// Runs int64MinOverMinusOne on the VM and the native entry: the
/// quotient is MIN and the remainder 0 on both.
void expectMinOverMinusOneIsTotal(bool Constants) {
  for (bool Native : {false, true}) {
    SCOPED_TRACE(Native ? "native entry" : "vm entry");
    ModuleWorkload W;
    W.Name = "min_div";
    W.Bytecode = int64MinOverMinusOne(Constants);
    if (!Constants) {
      W.IntParams["p"] = INT64_MIN;
      W.IntParams["q"] = -1;
    }
    RunOptions O;
    O.UseNative = Native;
    RunOutcome Out = runEncodedModule(W, O);
    ASSERT_TRUE(Out.Terminal.ok()) << Out.Terminal.str();
    expectEntryTierHeld(Out, Native);
    EXPECT_EQ(Out.Mem->peekInt(0, 0), INT64_MIN);
    EXPECT_EQ(Out.Mem->peekInt(0, 1), 0);
  }
}

TEST(RunEncodedModuleTest, Int64MinOverMinusOneParamIsTotal) {
  expectMinOverMinusOneIsTotal(/*Constants=*/false);
}

TEST(RunEncodedModuleTest, Int64MinOverMinusOneConstantIsTotal) {
  expectMinOverMinusOneIsTotal(/*Constants=*/true);
}

/// Two encodings of \p K's vectorized module that the code cache's byte
/// hash cannot tell apart. The second has its last array cut to half its
/// elements. Eight bytes of a name given to a non-parameter value in
/// both then cancel the hash difference: the word mixer xors each word
/// into the state, so this takes no search.
std::pair<std::vector<uint8_t>, std::vector<uint8_t>>
collidingEncodings(const kernels::Kernel &K) {
  ir::Function F = vectorizer::vectorize(K.Source, {}).Output;
  const std::string Pad(24, '#');
  std::find_if(F.Values.begin(), F.Values.end(), [](const ir::ValueInfo &V) {
    return V.Def != ir::ValueDef::Param; // Parameters bind by name.
  })->Name = Pad;
  ir::Function Half = F;
  Half.Arrays.back().NumElems /= 2;
  std::vector<uint8_t> A = bytecode::encode(F), B = bytecode::encode(Half);
  EXPECT_EQ(A.size(), B.size()) << "the extent must keep its varint length";
  const size_t Pos =
      std::search(A.begin(), A.end(), Pad.begin(), Pad.end()) - A.begin();
  EXPECT_TRUE(std::equal(Pad.begin(), Pad.end(), B.begin() + Pos));
  const size_t Word = (Pos + 7) / 8; // First whole word inside the name.
  auto word = [](const std::vector<uint8_t> &V, size_t I) {
    uint64_t W;
    std::memcpy(&W, V.data() + 8 * I, 8);
    return W;
  };
  uint64_t HA = hashCombine(0, A.size()), HB = hashCombine(0, B.size());
  for (size_t I = 0; I < Word; ++I) {
    HA = hashCombine(HA, word(A, I));
    HB = hashCombine(HB, word(B, I));
  }
  const uint64_t Cancel = word(A, Word) ^ HA ^ HB;
  std::memcpy(B.data() + 8 * Word, &Cancel, 8);
  return {A, B};
}

TEST(RunEncodedModuleTest, BytesWithACollidingHashShareNoCacheEntry) {
  std::vector<kernels::Kernel> All = kernels::allKernels();
  const kernels::Kernel &K =
      *std::find_if(All.begin(), All.end(),
                    [](const auto &C) { return C.Name == "saxpy_fp"; });
  auto [Full, Half] = collidingEncodings(K);
  ASSERT_NE(Full, Half);
  ASSERT_EQ(jit::cache::hashBytes(Full.data(), Full.size()),
            jit::cache::hashBytes(Half.data(), Half.size()))
      << "the construction must collide for this test to mean anything";
  auto HalfModule = bytecode::decode(Half);
  ASSERT_TRUE(HalfModule.ok()) << HalfModule.status().str();

  // Either order: each run must decode, verify and compile its own
  // module, never take what the other cached under the same hash. With
  // the kernel's trip count the half module runs off the end of its
  // image and traps; the full one completes on the vector tier.
  for (bool HalfFirst : {false, true}) {
    SCOPED_TRACE(HalfFirst ? "half first" : "full first");
    jit::cache::clear();
    jit::cache::resetStats();
    ModuleWorkload WF, WH;
    WF.Name = "full";
    WF.Bytecode = Full;
    WF.IntParams = WH.IntParams = K.IntParams;
    WH.Name = "half";
    WH.Bytecode = Half;
    RunOptions O;
    RunOutcome First = runEncodedModule(HalfFirst ? WH : WF, O);
    RunOutcome Second = runEncodedModule(HalfFirst ? WF : WH, O);
    const RunOutcome &F = HalfFirst ? Second : First;
    const RunOutcome &H = HalfFirst ? First : Second;
    EXPECT_TRUE(F.Terminal.ok()) << F.Terminal.str();
    EXPECT_EQ(F.Tier, ExecTier::Vectorized);
    EXPECT_TRUE(F.Demotions.empty());
    EXPECT_FALSE(H.Terminal.ok()) << "the half module ran the full one's code";
    EXPECT_FALSE(H.Demotions.empty());
    jit::cache::Stats St = jit::cache::stats();
    EXPECT_EQ(St.ModuleHits, 0u);
    EXPECT_EQ(St.VerifyHits, 0u);
    EXPECT_EQ(St.CompileHits, 0u);
    EXPECT_EQ(St.ProgramHits, 0u);
  }
}

} // namespace
