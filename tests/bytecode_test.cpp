//===- tests/bytecode_test.cpp - Split-layer container tests --------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "bytecode/Encoding.h"
#include "ir/Builder.h"
#include "ir/Interp.h"
#include "ir/Verifier.h"
#include "support/Support.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::ir;

namespace {

//===--- Encoding primitives --------------------------------------------------//

TEST(EncodingTest, U64RoundTrip) {
  bytecode::ByteWriter W;
  uint64_t Cases[] = {0, 1, 127, 128, 300, 1ULL << 20, ~0ULL};
  for (uint64_t C : Cases)
    W.writeU64(C);
  bytecode::ByteReader R(W.bytes());
  for (uint64_t C : Cases)
    EXPECT_EQ(R.readU64(), C);
  EXPECT_FALSE(R.failed());
  EXPECT_TRUE(R.atEnd());
}

TEST(EncodingTest, I64ZigZagRoundTrip) {
  bytecode::ByteWriter W;
  int64_t Cases[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t C : Cases)
    W.writeI64(C);
  bytecode::ByteReader R(W.bytes());
  for (int64_t C : Cases)
    EXPECT_EQ(R.readI64(), C);
}

TEST(EncodingTest, SmallNegativesAreCompact) {
  bytecode::ByteWriter W;
  W.writeI64(-1);
  EXPECT_EQ(W.size(), 1u);
}

TEST(EncodingTest, F64AndStringRoundTrip) {
  bytecode::ByteWriter W;
  W.writeF64(3.25);
  W.writeString("saxpy_fp");
  W.writeF64(-0.0);
  bytecode::ByteReader R(W.bytes());
  EXPECT_EQ(R.readF64(), 3.25);
  EXPECT_EQ(R.readString(), "saxpy_fp");
  EXPECT_EQ(R.readF64(), 0.0);
  EXPECT_TRUE(R.atEnd());
}

TEST(EncodingTest, TruncatedReadSetsFailure) {
  std::vector<uint8_t> Bad = {0x80, 0x80}; // Unterminated LEB128.
  bytecode::ByteReader R(Bad);
  R.readU64();
  EXPECT_TRUE(R.failed());
}

//===--- Container round trips -------------------------------------------------//

/// Split-layer function exercising most instruction payload fields.
static Function buildRich() {
  Function F("rich");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 64, 32);
  uint32_t O = F.addArray("o", ScalarKind::F32, 64, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  ValueId VF = B.getVF(ScalarKind::F32);
  ValueId G = B.versionGuard(GuardKind::BasesAligned, {A, O});
  uint32_t If = B.beginIf(G);
  {
    auto L = B.beginLoop(B.constIdx(0), N, VF);
    ValueId V = B.aload(A, L.indVar());
    ValueId C = B.constFP(ScalarKind::F32, 1.5);
    ValueId VC = B.initUniform(C);
    B.astore(O, L.indVar(), B.mul(V, VC));
    B.endLoop(L);
  }
  B.beginElse(If);
  {
    AlignHint H;
    H.Mis = -1;
    H.Mod = 0;
    auto L = B.beginLoop(B.constIdx(0), N, VF, LoopRole::VecMain);
    ValueId V = B.uload(A, L.indVar(), H);
    ValueId C = B.constFP(ScalarKind::F32, 1.5);
    ValueId VC = B.initUniform(C);
    B.ustore(O, L.indVar(), B.mul(V, VC), H);
    B.endLoop(L);
  }
  B.endIf(If);
  return F;
}

TEST(BytecodeTest, RoundTripPreservesPrintedForm) {
  Function F = buildRich();
  verifyOrDie(F);
  std::vector<uint8_t> Bytes = bytecode::encode(F);
  auto G = bytecode::decode(Bytes);
  ASSERT_TRUE(G) << G.status().str();
  EXPECT_EQ(F.str(), G->str());
  EXPECT_EQ(F.IsSplitLayer, G->IsSplitLayer);
}

TEST(BytecodeTest, RoundTripPreservesSemantics) {
  Function F = buildRich();
  std::vector<uint8_t> Bytes = bytecode::encode(F);
  auto G = bytecode::decode(Bytes);
  ASSERT_TRUE(G) << G.status().str();

  auto Run = [](const Function &Fn) {
    Evaluator E(Fn, {});
    E.allocAllArrays();
    for (int I = 0; I < 64; ++I)
      E.pokeFP(0, I, I * 0.25);
    E.setParamInt("n", 64);
    E.run();
    std::vector<double> Out;
    for (int I = 0; I < 64; ++I)
      Out.push_back(E.peekFP(1, I));
    return Out;
  };
  EXPECT_EQ(Run(F), Run(*G));
}

TEST(BytecodeTest, EncodedSizeMatchesEncodeLength) {
  Function F = buildRich();
  EXPECT_EQ(bytecode::encodedSize(F), bytecode::encode(F).size());
}

TEST(BytecodeTest, RejectsBadMagic) {
  std::vector<uint8_t> Bytes = bytecode::encode(buildRich());
  Bytes[0] ^= 0xff;
  auto R = bytecode::decode(Bytes);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.status().str().find("magic"), std::string::npos);
}

TEST(BytecodeTest, RejectsTruncation) {
  std::vector<uint8_t> Bytes = bytecode::encode(buildRich());
  for (size_t Cut : {Bytes.size() / 4, Bytes.size() / 2, Bytes.size() - 1}) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_FALSE(bytecode::decode(Short).ok()) << "cut at " << Cut;
  }
}

TEST(BytecodeTest, RejectsTrailingGarbage) {
  std::vector<uint8_t> Bytes = bytecode::encode(buildRich());
  Bytes.push_back(0x00);
  EXPECT_FALSE(bytecode::decode(Bytes).ok());
}

/// Property test: single-byte corruption anywhere in the stream must never
/// crash the decoder — it either fails cleanly or yields a function that
/// still passes the verifier (benign flips in names/constants exist).
TEST(BytecodeTest, FuzzSingleByteCorruptionNeverCrashes) {
  Function F = buildRich();
  std::vector<uint8_t> Bytes = bytecode::encode(F);
  SplitMix64 Rng(42);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    std::vector<uint8_t> Mut = Bytes;
    size_t Pos = Rng.nextBelow(Mut.size());
    Mut[Pos] ^= static_cast<uint8_t>(1 + Rng.nextBelow(255));
    auto G = bytecode::decode(Mut);
    if (G.ok()) {
      EXPECT_TRUE(ir::verify(*G).empty());
    }
  }
}

TEST(BytecodeTest, FuzzRandomBytesNeverCrash) {
  SplitMix64 Rng(7);
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::vector<uint8_t> Junk(Rng.nextBelow(200));
    for (auto &B : Junk)
      B = static_cast<uint8_t>(Rng.next());
    auto G = bytecode::decode(Junk);
    if (G.ok()) {
      EXPECT_TRUE(ir::verify(*G).empty());
    }
  }
}

//===--- Decoder hardening regressions ----------------------------------------//
//
// Each test plants one class of field-level garbage that a bit flip (or a
// hostile producer) could introduce and checks the decoder rejects it
// cleanly instead of letting it reach kind-dispatched consumer code.

TEST(BytecodeTest, RejectsOutOfRangeArrayElementKind) {
  Function F = buildRich();
  F.Arrays[0].Elem = static_cast<ScalarKind>(99);
  auto R = bytecode::decode(bytecode::encode(F));
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.status().str().find("element kind"), std::string::npos)
      << R.status().str();
}

TEST(BytecodeTest, RejectsOutOfRangeValueTypeKind) {
  Function F = buildRich();
  F.Values[0].Ty = Type(static_cast<ScalarKind>(0x55), false);
  EXPECT_FALSE(bytecode::decode(bytecode::encode(F)).ok());
}

TEST(BytecodeTest, RejectsOutOfRangeTyParam) {
  Function F = buildRich();
  for (Instr &I : F.Instrs)
    if (I.Op == Opcode::GetVF)
      I.TyParam = static_cast<ScalarKind>(0x7f);
  EXPECT_FALSE(bytecode::decode(bytecode::encode(F)).ok());
}

TEST(BytecodeTest, RejectsImplausibleElementCounts) {
  for (uint64_t N : {uint64_t(0), uint64_t(1) << 40}) {
    Function F = buildRich();
    F.Arrays[0].NumElems = N;
    auto R = bytecode::decode(bytecode::encode(F));
    EXPECT_FALSE(R.ok()) << "NumElems=" << N;
    EXPECT_NE(R.status().str().find("element count"), std::string::npos)
        << R.status().str();
  }
}

TEST(BytecodeTest, RejectsNegativeMaxSafeVF) {
  Function F = buildRich();
  F.Loops[0].MaxSafeVF = -1; // Reads as "unconstrained" to VF clamps.
  auto R = bytecode::decode(bytecode::encode(F));
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.status().str().find("negative"), std::string::npos)
      << R.status().str();
}

TEST(BytecodeTest, RejectsGarbageAlignHints) {
  Function F = buildRich();
  for (Instr &I : F.Instrs)
    if (I.Op == Opcode::UStore)
      I.Hint = AlignHint{-7, -32, false};
  EXPECT_FALSE(bytecode::decode(bytecode::encode(F)).ok());
}

/// Multi-byte corruption over the richer instruction surface of real
/// vectorizer output (hints, realign chains, version guards): the decoder
/// must fail cleanly or produce something the verifier still accepts.
TEST(BytecodeTest, FuzzMultiByteCorruptionNeverCrashes) {
  Function F = buildRich();
  std::vector<uint8_t> Bytes = bytecode::encode(F);
  SplitMix64 Rng(2026);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    std::vector<uint8_t> Mut = Bytes;
    unsigned Flips = 2 + Rng.nextBelow(7);
    for (unsigned I = 0; I < Flips; ++I)
      Mut[Rng.nextBelow(Mut.size())] ^=
          static_cast<uint8_t>(1 + Rng.nextBelow(255));
    auto G = bytecode::decode(Mut);
    if (G.ok()) {
      EXPECT_TRUE(ir::verify(*G).empty());
    }
  }
}

/// The paper measures bytecode growth of vectorized vs scalar code; the
/// container must at minimum keep scalar encodings lean. Sanity-check that
/// a tiny function stays under 200 bytes.
TEST(BytecodeTest, ScalarEncodingIsCompact) {
  Function F("dscal");
  uint32_t X = F.addArray("x", ScalarKind::F32, 1024, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  ValueId Alpha = F.addParam("alpha", Type::scalar(ScalarKind::F32));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  B.store(X, L.indVar(), B.mul(B.load(X, L.indVar()), Alpha));
  B.endLoop(L);
  verifyOrDie(F);
  EXPECT_LT(bytecode::encodedSize(F), 200u);
}

//===--- Structured-status negative paths --------------------------------------//
//
// The fault-tolerant executor keys its demotion decisions off the decoder's
// Status codes, so the mapping from malformation class to code is contract,
// not detail.

TEST(BytecodeStatusTest, TruncationAtEveryOffsetYieldsTruncatedModule) {
  std::vector<uint8_t> Bytes = bytecode::encode(buildRich());
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut) {
    std::vector<uint8_t> Short(Bytes.begin(), Bytes.begin() + Cut);
    auto R = bytecode::decode(Short);
    ASSERT_FALSE(R.ok()) << "cut at " << Cut << " decoded";
    EXPECT_EQ(R.status().layer(), status::Layer::Bytecode) << "cut " << Cut;
    // Truncation removes bytes without altering any: every successfully
    // read field holds its original (valid) value, so the first failure
    // is always an exhausted reader.
    EXPECT_EQ(R.status().code(), status::Code::TruncatedModule)
        << "cut " << Cut << ": " << R.status().str();
  }
}

TEST(BytecodeStatusTest, OversizedModuleAtEveryTailYieldsTrailingGarbage) {
  std::vector<uint8_t> Bytes = bytecode::encode(buildRich());
  for (uint8_t Tail : {uint8_t(0x00), uint8_t(0x01), uint8_t(0xff)}) {
    for (size_t Extra = 1; Extra <= 8; ++Extra) {
      std::vector<uint8_t> Long = Bytes;
      Long.insert(Long.end(), Extra, Tail);
      auto R = bytecode::decode(Long);
      ASSERT_FALSE(R.ok()) << Extra << " x " << unsigned(Tail);
      EXPECT_EQ(R.status().code(), status::Code::TrailingGarbage)
          << R.status().str();
      EXPECT_EQ(R.status().layer(), status::Layer::Bytecode);
    }
  }
}

TEST(BytecodeStatusTest, BadMagicYieldsBadMagicStatus) {
  std::vector<uint8_t> Bytes = bytecode::encode(buildRich());
  Bytes[0] ^= 0xff;
  auto R = bytecode::decode(Bytes);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), status::Code::BadMagic);
  EXPECT_EQ(R.status().layer(), status::Layer::Bytecode);
}

TEST(BytecodeStatusTest, FutureVersionYieldsBadVersionStatus) {
  bytecode::ByteWriter W;
  W.writeU64(0x56534d44); // The container magic ("VSMD").
  W.writeU64(99);         // A version this consumer cannot read.
  auto R = bytecode::decode(W.bytes());
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), status::Code::BadVersion);
}

//===--- Table counts against the bytes left -----------------------------------//
//
// Every table is sized from a count the stream carries. Each entry takes
// a minimum number of bytes, so a count the rest of the module cannot
// hold fails at once, with its own diagnostic, before the decoder
// allocates or loops for it. Each case is a tiny module whose one table
// claims a huge count.

/// A module's leading fields, up to its array table.
bytecode::ByteWriter moduleHeader() {
  bytecode::ByteWriter W;
  W.writeU64(0x56534d44); // The container magic ("VSMD").
  W.writeU64(1);          // Version.
  W.writeString("x");
  W.writeU8(0); // Scalar source.
  return W;
}

/// Writes \p N zero counts: empty tables.
void writeEmptyTables(bytecode::ByteWriter &W, int N) {
  for (int I = 0; I < N; ++I)
    W.writeU64(0);
}

void expectCountLie(const std::vector<uint8_t> &Bytes, const char *Table,
                    uint64_t Count, size_t Left) {
  auto R = bytecode::decode(Bytes);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), status::Code::TruncatedModule)
      << R.status().str();
  std::string Want = std::string(Table) + ": count " +
                     std::to_string(Count) + " exceeds the " +
                     std::to_string(Left) + " bytes left";
  EXPECT_EQ(R.status().context(), Want) << R.status().str();
}

TEST(BytecodeCountTest, RegionNodeCountBeyondBytesLeftFails) {
  bytecode::ByteWriter W = moduleHeader();
  writeEmptyTables(W, 6); // Arrays, values, params, instrs, loops, ifs.
  W.writeU64(1u << 24);   // The body claims 2^24 nodes.
  EXPECT_EQ(W.size(), 19u);
  expectCountLie(W.bytes(), "region nodes", 1u << 24, 0);
}

TEST(BytecodeCountTest, ValueCountBeyondBytesLeftFails) {
  bytecode::ByteWriter W = moduleHeader();
  writeEmptyTables(W, 1); // Arrays.
  W.writeU64(1u << 24);
  W.writeU8(0); // One byte of a first value.
  expectCountLie(W.bytes(), "values", 1u << 24, 1);
}

TEST(BytecodeCountTest, InstructionCountBeyondBytesLeftFails) {
  bytecode::ByteWriter W = moduleHeader();
  writeEmptyTables(W, 3); // Arrays, values, params.
  W.writeU64(1u << 24);
  writeEmptyTables(W, 3); // What would follow: loops, ifs, body.
  expectCountLie(W.bytes(), "instructions", 1u << 24, 3);
}

TEST(BytecodeCountTest, LoopCountBeyondBytesLeftFails) {
  bytecode::ByteWriter W = moduleHeader();
  writeEmptyTables(W, 4); // Arrays, values, params, instrs.
  W.writeU64(1u << 20);
  writeEmptyTables(W, 2); // Ifs, body.
  expectCountLie(W.bytes(), "loops", 1u << 20, 2);
}

TEST(BytecodeCountTest, OperandCountBeyondBytesLeftFails) {
  bytecode::ByteWriter W = moduleHeader();
  writeEmptyTables(W, 3); // Arrays, values, params.
  W.writeU64(1);          // One instruction:
  W.writeU8(static_cast<uint8_t>(Opcode::Add));
  W.writeU8(static_cast<uint8_t>(ScalarKind::I64));
  W.writeU64(0);        // No result.
  W.writeU64(1u << 16); // Claims 2^16 operands.
  W.writeU8(0);         // Its flags.
  expectCountLie(W.bytes(), "instruction operands", 1u << 16, 1);
}

TEST(BytecodeStatusTest, StructuralCorruptionYieldsMalformedModule) {
  Function F("bad");
  F.addArray("a", ScalarKind::F32, 64, 32);
  F.Arrays[0].Elem = static_cast<ScalarKind>(200); // Out-of-range kind.
  auto R = bytecode::decode(bytecode::encode(F));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), status::Code::MalformedModule);
  EXPECT_NE(R.status().context().find("element kind"), std::string::npos)
      << R.status().str();
}

} // namespace
