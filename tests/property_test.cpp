//===- tests/property_test.cpp - Algebraic and fuzz properties ------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Two layers of property testing:
//  1. Algebraic identities of the data-reorganization idioms (Table 1),
//     checked by the golden evaluator at every vector size: unpack∘pack,
//     extract∘interleave, realignment-vs-direct-load agreement.
//  2. Full-pipeline fuzz: randomly generated elementwise kernels pushed
//     through vectorizer -> bytecode round trip -> JIT -> VM on every
//     target and compared element-wise with the golden evaluator.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "codegen/NativeJit.h"
#include "ir/Builder.h"
#include "ir/Interp.h"
#include "ir/Verifier.h"
#include "jit/Jit.h"
#include "support/Support.h"
#include "target/VM.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::target;

namespace {

//===--- Idiom identities ------------------------------------------------------//

/// pack(unpack_lo(v), unpack_hi(v)) == v for integer kinds (promote then
/// demote is the identity).
TEST(IdiomIdentityTest, PackUnpackRoundTrip) {
  for (ScalarKind K : {ScalarKind::U8, ScalarKind::I8, ScalarKind::I16,
                       ScalarKind::U16}) {
    Function F("roundtrip");
    F.IsSplitLayer = true;
    uint32_t A = F.addArray("a", K, 64, 32);
    uint32_t O = F.addArray("o", K, 64, 32);
    ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
    IrBuilder B(F);
    ValueId VF = B.getVF(K);
    auto L = B.beginLoop(B.constIdx(0), N, VF);
    ValueId V = B.aload(A, L.indVar());
    ValueId Packed = B.pack(B.unpackLo(V), B.unpackHi(V));
    B.astore(O, L.indVar(), Packed);
    B.endLoop(L);
    verifyOrDie(F);

    for (unsigned VS : {8u, 16u, 32u}) {
      Evaluator::Options EO;
      EO.VSBytes = VS;
      Evaluator E(F, EO);
      E.allocAllArrays();
      SplitMix64 Rng(K == ScalarKind::U8 ? 1 : 2);
      for (int I = 0; I < 64; ++I)
        E.pokeInt(A, I, static_cast<int64_t>(Rng.next()));
      E.setParamInt("n", 64);
      E.run();
      for (int I = 0; I < 64; ++I)
        EXPECT_EQ(E.peekInt(O, I), E.peekInt(A, I))
            << scalarKindName(K) << " VS=" << VS << " i=" << I;
    }
  }
}

/// extract(2,0) / extract(2,1) of interleave_lo/hi(v1,v2) recover v1,v2.
TEST(IdiomIdentityTest, InterleaveExtractRoundTrip) {
  Function F("ilv");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::I32, 32, 32);
  uint32_t Bd = F.addArray("b", ScalarKind::I32, 32, 32);
  uint32_t OA = F.addArray("oa", ScalarKind::I32, 32, 32);
  uint32_t OB = F.addArray("ob", ScalarKind::I32, 32, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  ValueId VF = B.getVF(ScalarKind::I32);
  auto L = B.beginLoop(B.constIdx(0), N, VF);
  ValueId V1 = B.aload(A, L.indVar());
  ValueId V2 = B.aload(Bd, L.indVar());
  ValueId Lo = B.interleaveLo(V1, V2);
  ValueId Hi = B.interleaveHi(V1, V2);
  B.astore(OA, L.indVar(), B.extract(2, 0, {Lo, Hi}));
  B.astore(OB, L.indVar(), B.extract(2, 1, {Lo, Hi}));
  B.endLoop(L);
  verifyOrDie(F);

  for (unsigned VS : {8u, 16u, 32u}) {
    Evaluator::Options EO;
    EO.VSBytes = VS;
    Evaluator E(F, EO);
    E.allocAllArrays();
    for (int I = 0; I < 32; ++I) {
      E.pokeInt(A, I, I * 3 + 1);
      E.pokeInt(Bd, I, -I * 7);
    }
    E.setParamInt("n", 32);
    E.run();
    for (int I = 0; I < 32; ++I) {
      EXPECT_EQ(E.peekInt(OA, I), I * 3 + 1) << "VS=" << VS;
      EXPECT_EQ(E.peekInt(OB, I), -I * 7) << "VS=" << VS;
    }
  }
}

/// The evaluator's realign cross-check (chain vs direct load) holds for
/// every base misalignment an f32 array can have.
TEST(IdiomIdentityTest, RealignChainAgreesAtEveryMisalignment) {
  for (uint32_t Mis : {0u, 4u, 8u, 12u, 16u, 20u, 24u, 28u}) {
    Function F("chain");
    F.IsSplitLayer = true;
    uint32_t A = F.addArray("a", ScalarKind::F32, 64, 4);
    uint32_t O = F.addArray("o", ScalarKind::F32, 64, 32);
    ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
    IrBuilder B(F);
    ValueId VF = B.getVF(ScalarKind::F32);
    AlignHint H{-1, 0, false};
    ValueId RT = B.getRT(A, B.constIdx(0), H);
    ValueId VA0 = B.alignLoad(A, B.constIdx(0));
    auto L = B.beginLoop(B.constIdx(0), N, VF);
    ValueId VA = B.addCarried(L, VA0);
    ValueId VB = B.alignLoad(A, B.add(L.indVar(), VF));
    ValueId VX = B.realignLoad(VA, VB, RT, A, L.indVar(), H);
    B.astore(O, L.indVar(), VX);
    B.setCarriedNext(L, VA, VB);
    B.endLoop(L);
    verifyOrDie(F);

    Evaluator::Options EO;
    EO.VSBytes = 16;
    EO.CheckRealign = true; // Aborts on chain/memory disagreement.
    Evaluator E(F, EO);
    E.allocArray(A, Mis);
    E.allocArray(O, 0);
    for (int I = 0; I < 64; ++I)
      E.pokeFP(A, I, I * 1.5);
    E.setParamInt("n", 32);
    E.run();
    for (int I = 0; I < 32; ++I)
      EXPECT_EQ(E.peekFP(O, I), I * 1.5) << "mis=" << Mis;
  }
}

//===--- Full-pipeline fuzz ----------------------------------------------------//

/// Builds a random elementwise kernel over i32 arrays with occasional
/// offsets (to exercise realignment) and converts.
Function buildRandomKernel(uint64_t Seed, uint32_t &OutArr) {
  SplitMix64 Rng(Seed);
  Function F("fuzz" + std::to_string(Seed));
  uint32_t A = F.addArray("a", ScalarKind::I32, 128, 4);
  uint32_t Bd = F.addArray("b", ScalarKind::I32, 128, 4);
  OutArr = F.addArray("o", ScalarKind::I32, 128, 4);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  ValueId Idx0 = L.indVar();
  ValueId Idx2 = B.add(L.indVar(), B.constIdx(1 + Rng.nextBelow(3)));
  std::vector<ValueId> Pool = {B.load(A, Idx0), B.load(Bd, Idx0),
                               B.load(A, Idx2)};
  for (int Step = 0; Step < 8; ++Step) {
    ValueId X = Pool[Rng.nextBelow(Pool.size())];
    ValueId Y = Pool[Rng.nextBelow(Pool.size())];
    switch (Rng.nextBelow(8)) {
    case 0:
      Pool.push_back(B.add(X, Y));
      break;
    case 1:
      Pool.push_back(B.sub(X, Y));
      break;
    case 2:
      Pool.push_back(B.mul(X, B.constInt(ScalarKind::I32, 3)));
      break;
    case 3:
      Pool.push_back(B.smax(X, Y));
      break;
    case 4:
      Pool.push_back(B.abs(X));
      break;
    case 5:
      Pool.push_back(B.select(B.cmp(Opcode::CmpLE, X, Y), Y, X));
      break;
    case 6:
      Pool.push_back(B.binop(Opcode::Xor, X, Y));
      break;
    case 7:
      Pool.push_back(
          B.shra(X, B.constInt(ScalarKind::I32, 1 + Rng.nextBelow(4))));
      break;
    }
  }
  B.store(OutArr, Idx0, Pool.back());
  B.endLoop(L);
  verifyOrDie(F);
  return F;
}

class PipelineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzzTest, RandomKernelCorrectOnEveryTarget) {
  uint32_t OutArr;
  Function F = buildRandomKernel(9000 + GetParam(), OutArr);

  // Golden result once.
  Evaluator E(F, {});
  E.allocAllArrays();
  SplitMix64 Fill(77);
  std::vector<int64_t> AData(128), BData(128);
  for (int I = 0; I < 128; ++I) {
    AData[I] = static_cast<int64_t>(Fill.nextBelow(2000)) - 1000;
    BData[I] = static_cast<int64_t>(Fill.nextBelow(2000)) - 1000;
    E.pokeInt(0, I, AData[I]);
    E.pokeInt(1, I, BData[I]);
  }
  E.setParamInt("n", 100);
  E.run();

  auto VR = vectorizer::vectorize(F);
  std::vector<uint8_t> Bytes = bytecode::encode(VR.Output);
  auto Decoded = bytecode::decode(Bytes);
  ASSERT_TRUE(Decoded) << Decoded.status().str();

  for (const TargetDesc &T : allTargets()) {
    for (jit::Tier Tier : {jit::Tier::Strong, jit::Tier::Weak}) {
      MemoryImage Mem;
      for (const auto &Arr : Decoded->Arrays)
        Mem.addArray(Arr, 0);
      for (int I = 0; I < 128; ++I) {
        Mem.pokeInt(0, I, AData[I]);
        Mem.pokeInt(1, I, BData[I]);
      }
      jit::Options JO;
      JO.CompilerTier = Tier;
      auto CR = jit::compile(*Decoded, T,
                             jit::RuntimeInfo::fromMemory(Mem), JO);
      VM Machine(CR.Code, T, Mem, Tier == jit::Tier::Weak);
      Machine.setParamInt("n", 100);
      Machine.run();
      for (int I = 0; I < 100; ++I)
        ASSERT_EQ(Mem.peekInt(OutArr, I), E.peekInt(OutArr, I))
            << "seed=" << GetParam() << " target=" << T.Name
            << " i=" << I;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest, ::testing::Range(0, 16));

//===--- Integer boundary semantics --------------------------------------------//
//
// Every integer binop, fed the full cross product of its kind's boundary
// operands (min, max, -1/0/1, the sign-flip edge), must produce identical
// results from all three executors: the golden interpreter, the
// cycle-model VM on every target, and the native x86-64 tier. ScalarOps.h
// is the single semantics source; this pins the VM handler table and the
// native lane/packed encodings to it. The narrow kinds (I8/U8/I16/U16)
// also carry the saturating ops; the wide kinds (I32/U32/I64/U64) pin
// the 32- and 64-bit lanes. Division and remainder also match RISC-V's
// golden values, zero divisors and MIN / -1 included. A second test
// drives the same operands through the shapes the fuser turns into its
// ALU superops.

std::vector<int64_t> boundaryValues(ScalarKind K) {
  switch (K) {
  case ScalarKind::I8:
    return {-128, -127, -64, -1, 0, 1, 63, 126, 127};
  case ScalarKind::U8:
    return {0, 1, 63, 127, 128, 129, 254, 255};
  case ScalarKind::I16:
    return {-32768, -32767, -129, -1, 0, 1, 127, 32766, 32767};
  case ScalarKind::U16:
    return {0, 1, 255, 32767, 32768, 65534, 65535};
  case ScalarKind::I32:
    return {INT32_MIN, INT32_MIN + 1, -65536, -1, 0, 1, 32767,
            INT32_MAX - 1, INT32_MAX};
  case ScalarKind::U32:
    return {0, 1, 65535, INT32_MAX, int64_t(1) << 31, (int64_t(1) << 31) + 1,
            UINT32_MAX - 1, UINT32_MAX};
  case ScalarKind::I64:
    return {INT64_MIN, INT64_MIN + 1, -(int64_t(1) << 32), -1, 0, 1,
            UINT32_MAX, INT64_MAX - 1, INT64_MAX};
  case ScalarKind::U64:
    // Lanes above INT64_MAX are poked as their two's-complement bits.
    return {0, 1, int64_t(1) << 32, INT64_MAX, INT64_MIN, INT64_MIN + 1, -2,
            -1};
  default:
    return {};
  }
}

std::vector<Opcode> boundaryOps(ScalarKind K) {
  std::vector<Opcode> Ops = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                             Opcode::Min, Opcode::Max, Opcode::And,
                             Opcode::Or,  Opcode::Xor, Opcode::Shl,
                             Opcode::ShrL, Opcode::ShrA, Opcode::Div,
                             Opcode::Rem};
  if (scalarSize(K) > 2) // Saturating ops exist for I8/I16 lanes only.
    return Ops;
  if (isSignedKind(K)) {
    Ops.push_back(Opcode::AddSatS);
    Ops.push_back(Opcode::SubSatS);
  } else {
    Ops.push_back(Opcode::AddSatU);
    Ops.push_back(Opcode::SubSatU);
  }
  return Ops;
}

/// The boundary ops the VM fuser instantiates superops for (its
/// fusibleBin set): add, sub, mul, min, max and the saturating ops.
std::vector<Opcode> superopOps(ScalarKind K) {
  std::vector<Opcode> Ops;
  for (Opcode Op : boundaryOps(K))
    if (Op == Opcode::Add || Op == Opcode::Sub || Op == Opcode::Mul ||
        Op == Opcode::Min || Op == Opcode::Max || Op == Opcode::AddSatS ||
        Op == Opcode::SubSatS || Op == Opcode::AddSatU ||
        Op == Opcode::SubSatU)
      Ops.push_back(Op);
  return Ops;
}

/// o[i] = a[i] op b[i] over the boundary cross product, as a regular
/// scalar-source kernel so runKernel drives the full split pipeline.
kernels::Kernel boundaryKernel(ScalarKind K, Opcode Op) {
  std::vector<int64_t> Vals = boundaryValues(K);
  size_t N = Vals.size() * Vals.size();
  kernels::Kernel Kn;
  Kn.Name = std::string("nb_") + opcodeMnemonic(Op) + "_" +
            scalarKindName(K);
  Kn.Suite = "property";
  Function F(Kn.Name);
  uint32_t A = F.addArray("a", K, N, scalarSize(K));
  uint32_t Bd = F.addArray("b", K, N, scalarSize(K));
  uint32_t O = F.addArray("o", K, N, scalarSize(K));
  ValueId NP = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), NP, B.constIdx(1));
  B.store(O, L.indVar(),
          B.binop(Op, B.load(A, L.indVar()), B.load(Bd, L.indVar())));
  B.endLoop(L);
  verifyOrDie(F);
  Kn.Source = std::move(F);
  Kn.IntParams["n"] = static_cast<int64_t>(N);
  Kn.Fill = [Vals](kernels::FillSink &S, const Function &) {
    uint64_t I = 0;
    for (int64_t X : Vals)
      for (int64_t Y : Vals) {
        S.pokeInt(0, I, X);
        S.pokeInt(1, I, Y);
        ++I;
      }
  };
  return Kn;
}

/// RISC-V's integer division and remainder (M extension), written from
/// the spec for lanes of kind \p K holding \p X and \p Y (decoded as
/// MemoryImage::peekInt reads them): the golden values every executor
/// must produce. A zero divisor gives all ones and the dividend; the one
/// overflowing pair, MIN / -1, gives MIN and 0; unsigned kinds divide
/// unsigned.
int64_t riscvDivRem(ScalarKind K, Opcode Op, int64_t X, int64_t Y) {
  const bool Rem = Op == Opcode::Rem;
  const unsigned Bits = scalarSize(K) * 8;
  if (isSignedKind(K)) {
    const int64_t Min =
        Bits == 64 ? INT64_MIN : -(static_cast<int64_t>(1) << (Bits - 1));
    if (Y == 0)
      return Rem ? X : -1;
    if (X == Min && Y == -1)
      return Rem ? 0 : Min;
    return Rem ? X % Y : X / Y;
  }
  const uint64_t UX = static_cast<uint64_t>(X);
  const uint64_t UY = static_cast<uint64_t>(Y);
  const uint64_t Ones = Bits == 64 ? ~0ULL : (uint64_t(1) << Bits) - 1;
  if (UY == 0)
    return static_cast<int64_t>(Rem ? UX : Ones);
  return static_cast<int64_t>(Rem ? UX % UY : UX / UY);
}

/// Agreement with the interpreter cannot show a wrong definition that
/// every executor shares, so division also checks the spec's values.
void expectDivRemGolden(ScalarKind K, Opcode Op, const RunOutcome &Out,
                        const std::string &What) {
  if (Op != Opcode::Div && Op != Opcode::Rem)
    return;
  const std::vector<int64_t> Vals = boundaryValues(K);
  ASSERT_EQ(Out.Mem->info(2).Name, "o") << What;
  uint64_t I = 0;
  for (int64_t X : Vals)
    for (int64_t Y : Vals)
      EXPECT_EQ(Out.Mem->peekInt(2, I++), riscvDivRem(K, Op, X, Y))
          << What << ": " << X << " " << opcodeMnemonic(Op) << " " << Y;
}

class NarrowIntBoundaryTest
    : public ::testing::TestWithParam<ScalarKind> {};

TEST_P(NarrowIntBoundaryTest, AllExecutorsAgreeOnBoundaryOperands) {
  ScalarKind K = GetParam();
  for (Opcode Op : boundaryOps(K)) {
    kernels::Kernel Kn = boundaryKernel(K, Op);
    for (const TargetDesc &T : allTargets()) {
      RunOptions O;
      O.Target = T;
      RunOutcome Vm = runKernel(Kn, Flow::SplitVectorized, O);
      std::string Err;
      EXPECT_TRUE(checkAgainstGolden(Kn, Vm, Err))
          << Kn.Name << " on " << T.Name << " (VM): " << Err;
      expectDivRemGolden(K, Op, Vm, Kn.Name + " on " + T.Name + " (VM)");

      if (!codegen::supported())
        continue;
      O.UseNative = true;
      RunOutcome Native = runKernel(Kn, Flow::SplitVectorized, O);
      EXPECT_EQ(Native.Tier, ExecTier::Native)
          << Kn.Name << " on " << T.Name << " demoted: "
          << (Native.Demotions.empty() ? "?" : Native.Demotions[0].str());
      EXPECT_TRUE(checkAgainstGolden(Kn, Native, Err))
          << Kn.Name << " on " << T.Name << " (native): " << Err;
      expectDivRemGolden(K, Op, Native,
                         Kn.Name + " on " + T.Name + " (native)");
    }
  }
}

/// Kernel shapes the VM fuser turns into its ALU superops, over the
/// boundary cross product (a[j], b[j]) at every j:
///   BinBin    o[j] = (a[j] op b[j]) op2 c[j]            binop+binop
///   BinStore  o[j] = a[j] op b[j], o's address hoisted   binop+store
///   LoadBin   o[j] = b[j] op a[j], b's address hoisted   load+binop
/// The last two run an inner loop of one trip: the JIT hoists the
/// inner-invariant address of o[j] (BinStore) or b[j] (LoadBin) out of
/// it, so no address op splits the pair and the fuser forms the superop
/// on every target.
enum class SuperopShape { BinBin, BinStore, LoadBin };

kernels::Kernel superopKernel(ScalarKind K, SuperopShape Shape, Opcode Op,
                              Opcode Op2) {
  std::vector<int64_t> Vals = boundaryValues(K);
  size_t N = Vals.size() * Vals.size();
  kernels::Kernel Kn;
  const char *ShapeName = Shape == SuperopShape::BinBin     ? "binbin"
                          : Shape == SuperopShape::BinStore ? "binstore"
                                                            : "loadbin";
  Kn.Name = std::string("nb_") + ShapeName + "_" + opcodeMnemonic(Op) +
            "_" + opcodeMnemonic(Op2) + "_" + scalarKindName(K);
  Kn.Suite = "property";
  Function F(Kn.Name);
  uint32_t A = F.addArray("a", K, N, scalarSize(K));
  uint32_t Bd = F.addArray("b", K, N, scalarSize(K));
  uint32_t C = F.addArray("c", K, N, scalarSize(K));
  uint32_t O = F.addArray("o", K, N, scalarSize(K));
  ValueId NP = F.addParam("n", Type::scalar(ScalarKind::I64));
  ValueId One = F.addParam("one", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  auto LJ = B.beginLoop(B.constIdx(0), NP, B.constIdx(1));
  ValueId J = LJ.indVar();
  if (Shape == SuperopShape::BinBin) {
    // c loads first, so nothing separates the two binops.
    ValueId Z = B.load(C, J);
    ValueId X = B.load(A, J);
    X = B.binop(Op, X, B.load(Bd, J));
    B.store(O, J, B.binop(Op2, X, Z));
  } else {
    auto LI = B.beginLoop(B.constIdx(0), One, B.constIdx(1));
    ValueId I = B.add(J, LI.indVar());
    if (Shape == SuperopShape::BinStore) {
      ValueId X = B.load(A, I);
      B.store(O, J, B.binop(Op, X, B.load(Bd, I)));
    } else {
      ValueId Y = B.load(A, I);
      B.store(O, I, B.binop(Op, B.load(Bd, J), Y));
    }
    B.endLoop(LI);
  }
  B.endLoop(LJ);
  verifyOrDie(F);
  Kn.Source = std::move(F);
  Kn.IntParams["n"] = static_cast<int64_t>(N);
  Kn.IntParams["one"] = 1;
  Kn.Fill = [Vals](kernels::FillSink &S, const Function &) {
    uint64_t I = 0;
    for (int64_t X : Vals)
      for (int64_t Y : Vals) {
        S.pokeInt(0, I, X);
        S.pokeInt(1, I, Y);
        // c walks the values on a diagonal, so each intermediate meets
        // a spread of second operands.
        S.pokeInt(2, I, Vals[(I + I / Vals.size()) % Vals.size()]);
        ++I;
      }
  };
  return Kn;
}

bool isBinCls(OpCls C) { return C == OpCls::BinS || C == OpCls::BinV; }

/// Whether the superop \p Shape names formed: some adjacent pair (X, Y)
/// of \p Unfused of that shape, with Y reading X's result, became one
/// op of class Fused in \p Fused. Each op of Fused stands for one op of
/// Unfused, or for two when it is a superop; the peephole merges no
/// other pair here, since these kernels hold no spill nops (checked).
bool superopFormed(const DecodedProgram &Unfused,
                   const DecodedProgram &Fused, SuperopShape Shape) {
  auto Matches = [Shape](const DecodedProgram::DOp &X,
                         const DecodedProgram::DOp &Y) {
    bool Feeds = Y.B == X.A || Y.C == X.A;
    switch (Shape) {
    case SuperopShape::BinBin:
      return isBinCls(X.Cls) && Y.Cls == X.Cls && Feeds;
    case SuperopShape::BinStore:
      return isBinCls(X.Cls) &&
             (Y.Cls == OpCls::StoreS || Y.Cls == OpCls::VStore) &&
             Y.B == X.A;
    case SuperopShape::LoadBin:
      return (X.Cls == OpCls::LoadS || X.Cls == OpCls::VLoad) &&
             isBinCls(Y.Cls) && Feeds;
    }
    return false;
  };
  for (const DecodedProgram::DOp &Op : Unfused.Code)
    if (Op.Cls == OpCls::Nop)
      return false;
  bool Found = false;
  size_t J = 0;
  for (const DecodedProgram::DOp &Op : Fused.Code) {
    bool Pair = Op.Cls == OpCls::Fused || Op.Cls == OpCls::FusedBr;
    if (Op.Cls == OpCls::Fused && J + 1 < Unfused.Code.size() &&
        Matches(Unfused.Code[J], Unfused.Code[J + 1]))
      Found = true;
    J += Pair ? 2 : 1;
  }
  return Found && J == Unfused.Code.size();
}

TEST_P(NarrowIntBoundaryTest, SuperopShapesAgreeFusedAndUnfused) {
  ScalarKind K = GetParam();
  std::vector<Opcode> Ops = superopOps(K);
  for (size_t I = 0; I < Ops.size(); ++I) {
    // Each op runs once as the first and once as the second binop.
    Opcode Next = Ops[(I + 1) % Ops.size()];
    for (SuperopShape Shape : {SuperopShape::BinBin, SuperopShape::BinStore,
                               SuperopShape::LoadBin}) {
      kernels::Kernel Kn = superopKernel(K, Shape, Ops[I], Next);
      for (const TargetDesc &T : allTargets()) {
        RunOptions O;
        O.Target = T;
        O.FuseOps = false;
        RunOutcome Unfused = runKernel(Kn, Flow::SplitVectorized, O);
        O.FuseOps = true;
        RunOutcome Fused = runKernel(Kn, Flow::SplitVectorized, O);
        std::string Err;
        EXPECT_TRUE(checkAgainstGolden(Kn, Unfused, Err))
            << Kn.Name << " on " << T.Name << " (unfused): " << Err;
        EXPECT_TRUE(checkAgainstGolden(Kn, Fused, Err))
            << Kn.Name << " on " << T.Name << " (fused): " << Err;
        EXPECT_EQ(Fused.Cycles, Unfused.Cycles) << Kn.Name << " on "
                                                << T.Name;
        // The superop must have formed, or the fused run only repeats
        // the unfused one.
        const MFunction &Code = Fused.Compiled->Code;
        auto ProgU = DecodedProgram::build(Code, T, *Fused.Mem,
                                           /*Weak=*/false, /*Fuse=*/false);
        auto ProgF = DecodedProgram::build(Code, T, *Fused.Mem,
                                           /*Weak=*/false, /*Fuse=*/true);
        EXPECT_GT(ProgF->FusedOps, 0u) << Kn.Name << " on " << T.Name;
        EXPECT_TRUE(superopFormed(*ProgU, *ProgF, Shape))
            << Kn.Name << " on " << T.Name << ": the pair did not fuse";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NarrowKinds, NarrowIntBoundaryTest,
                         ::testing::Values(ScalarKind::I8, ScalarKind::U8,
                                           ScalarKind::I16,
                                           ScalarKind::U16),
                         [](const auto &Info) {
                           return std::string(scalarKindName(Info.param));
                         });

INSTANTIATE_TEST_SUITE_P(WideKinds, NarrowIntBoundaryTest,
                         ::testing::Values(ScalarKind::I32, ScalarKind::U32,
                                           ScalarKind::I64,
                                           ScalarKind::U64),
                         [](const auto &Info) {
                           return std::string(scalarKindName(Info.param));
                         });

} // namespace
