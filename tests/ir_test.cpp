//===- tests/ir_test.cpp - Unit tests for the IR core ---------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "ir/Builder.h"
#include "ir/Function.h"
#include "ir/Interp.h"
#include "ir/ScalarOps.h"
#include "ir/Verifier.h"
#include "jit/CodeCache.h"
#include "kernels/Kernels.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

#include <set>

using namespace vapor;
using namespace vapor::ir;

namespace {

//===--- Type and lane-semantics tests ---------------------------------------//

TEST(TypeTest, ScalarSizes) {
  EXPECT_EQ(scalarSize(ScalarKind::I8), 1u);
  EXPECT_EQ(scalarSize(ScalarKind::U16), 2u);
  EXPECT_EQ(scalarSize(ScalarKind::F32), 4u);
  EXPECT_EQ(scalarSize(ScalarKind::F64), 8u);
  EXPECT_EQ(scalarSize(ScalarKind::None), 0u);
}

TEST(TypeTest, WidenNarrowRoundTrip) {
  for (ScalarKind K : {ScalarKind::I8, ScalarKind::U8, ScalarKind::I16,
                       ScalarKind::U16, ScalarKind::I32, ScalarKind::U32}) {
    ScalarKind W = widenKind(K);
    EXPECT_EQ(scalarSize(W), 2 * scalarSize(K));
    EXPECT_EQ(narrowKind(W), K);
    EXPECT_EQ(isSignedKind(W), isSignedKind(K));
  }
}

TEST(TypeTest, LaneCounts) {
  Type V = Type::vector(ScalarKind::F32);
  EXPECT_EQ(V.lanes(16), 4u);
  EXPECT_EQ(V.lanes(8), 2u);
  EXPECT_EQ(V.lanes(32), 8u);
  EXPECT_EQ(Type::scalar(ScalarKind::F32).lanes(16), 1u);
}

TEST(ScalarOpsTest, SignedDecode) {
  EXPECT_EQ(decodeInt(ScalarKind::I8, 0xFF), -1);
  EXPECT_EQ(decodeInt(ScalarKind::U8, 0xFF), 255);
  EXPECT_EQ(decodeInt(ScalarKind::I16, 0x8000), -32768);
  EXPECT_EQ(decodeInt(ScalarKind::U16, 0x8000), 32768);
}

TEST(ScalarOpsTest, WraparoundArithmetic) {
  // i8: 120 + 10 wraps to -126.
  uint64_t R = applyBinop(Opcode::Add, ScalarKind::I8, encodeInt(ScalarKind::I8, 120),
                          encodeInt(ScalarKind::I8, 10));
  EXPECT_EQ(decodeInt(ScalarKind::I8, R), -126);
}

TEST(ScalarOpsTest, UnsignedCompare) {
  uint64_t A = encodeInt(ScalarKind::U8, 200);
  uint64_t B = encodeInt(ScalarKind::U8, 100);
  EXPECT_EQ(applyCompare(Opcode::CmpGT, ScalarKind::U8, A, B), 1u);
  // Same bits interpreted signed: 200 -> -56 < 100.
  EXPECT_EQ(applyCompare(Opcode::CmpGT, ScalarKind::I8, A, B), 0u);
}

TEST(ScalarOpsTest, FloatSinglePrecisionRounding) {
  // 2^24 + 1 is not representable in f32; addition must round.
  uint64_t Big = encodeFP(ScalarKind::F32, 16777216.0);
  uint64_t One = encodeFP(ScalarKind::F32, 1.0);
  uint64_t Sum = applyBinop(Opcode::Add, ScalarKind::F32, Big, One);
  EXPECT_EQ(decodeFP(ScalarKind::F32, Sum), 16777216.0);
}

TEST(ScalarOpsTest, ConvertIntToFloat) {
  uint64_t V = applyConvert(ScalarKind::I32, ScalarKind::F32,
                            encodeInt(ScalarKind::I32, -7));
  EXPECT_EQ(decodeFP(ScalarKind::F32, V), -7.0);
}

TEST(ScalarOpsTest, ConvertTruncates) {
  uint64_t V = applyConvert(ScalarKind::I32, ScalarKind::U8,
                            encodeInt(ScalarKind::I32, 300));
  EXPECT_EQ(decodeInt(ScalarKind::U8, V), 300 % 256);
}

//===--- Builder / verifier tests --------------------------------------------//

/// Builds: for i in [0,n): c[i] = a[i] + b[i]   (f32)
static Function buildVecAdd(uint32_t &AId, uint32_t &BId, uint32_t &CId) {
  Function F("vecadd");
  AId = F.addArray("a", ScalarKind::F32, 64, 32);
  BId = F.addArray("b", ScalarKind::F32, 64, 32);
  CId = F.addArray("c", ScalarKind::F32, 64, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  ValueId X = B.load(AId, L.indVar());
  ValueId Y = B.load(BId, L.indVar());
  B.store(CId, L.indVar(), B.add(X, Y));
  B.endLoop(L);
  return F;
}

TEST(BuilderTest, VecAddVerifies) {
  uint32_t A, Bd, C;
  Function F = buildVecAdd(A, Bd, C);
  EXPECT_TRUE(verify(F).empty()) << F.str();
}

TEST(BuilderTest, PrinterProducesStableText) {
  uint32_t A, Bd, C;
  Function F = buildVecAdd(A, Bd, C);
  std::string S = F.str();
  EXPECT_NE(S.find("func \"vecadd\""), std::string::npos);
  EXPECT_NE(S.find("loop"), std::string::npos);
  EXPECT_NE(S.find("store"), std::string::npos);
  EXPECT_NE(S.find("array @a"), std::string::npos);
}

TEST(VerifierTest, RejectsIdiomInScalarSource) {
  Function F("bad");
  F.addArray("a", ScalarKind::F32, 8, 32);
  IrBuilder B(F);
  B.getVF(ScalarKind::F32); // Idiom, but F.IsSplitLayer is false.
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsTypeMismatch) {
  Function F("bad");
  IrBuilder B(F);
  ValueId X = B.constInt(ScalarKind::I32, 1);
  ValueId Y = B.constInt(ScalarKind::I64, 2);
  // Bypass the builder's assertion by emitting a raw instruction.
  Instr I;
  I.Op = Opcode::Add;
  I.Ty = Type::scalar(ScalarKind::I32);
  I.Ops = {X, Y};
  B.emit(std::move(I));
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsUseBeforeDef) {
  Function F("bad");
  IrBuilder B(F);
  Instr I;
  I.Op = Opcode::Neg;
  I.Ty = Type::scalar(ScalarKind::I32);
  I.Ops = {999}; // Out of range.
  B.emit(std::move(I));
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, CarriedWithoutNextIsRejected) {
  Function F("bad");
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  B.endLoop(L);
  // Sneak a carried variable in without a next value, behind the builder's
  // back, so the verifier (not the builder assert) must catch it.
  F.Loops[L.LoopIdx].Carried.push_back({});
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsInvalidValueKind) {
  Function F("bad");
  IrBuilder B(F);
  ValueId X = B.constInt(ScalarKind::I32, 1);
  F.Values[X].Ty = Type(static_cast<ScalarKind>(77), false);
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsMalformedArrayTable) {
  {
    Function F("bad");
    F.addArray("a", ScalarKind::F32, 8, 32);
    F.Arrays[0].NumElems = 0;
    EXPECT_FALSE(verify(F).empty());
  }
  {
    Function F("bad");
    F.addArray("a", ScalarKind::F32, 8, 32);
    F.Arrays[0].BaseAlign = 24; // Not a power of two.
    EXPECT_FALSE(verify(F).empty());
  }
  {
    Function F("bad");
    F.addArray("a", ScalarKind::F64, 8, 32);
    F.Arrays[0].BaseAlign = 4; // Below the element size.
    EXPECT_FALSE(verify(F).empty());
  }
  {
    Function F("bad");
    F.addArray("a", ScalarKind::F32, 8, 32);
    F.Arrays[0].Elem = static_cast<ScalarKind>(42);
    EXPECT_FALSE(verify(F).empty());
  }
}

TEST(VerifierTest, RejectsNonScalarParam) {
  Function F("bad");
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  F.Values[P].Ty = Type::vector(ScalarKind::F32);
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsParamWithWrongDefinitionKind) {
  Function F("bad");
  ValueId P = F.addParam("p", Type::scalar(ScalarKind::I64));
  F.Values[P].Def = ValueDef::LoopInd;
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsNonI64LoopBounds) {
  Function F("bad");
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I32));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), B.constIdx(8), B.constIdx(1));
  B.endLoop(L);
  F.Loops[L.LoopIdx].Upper = N; // i32 bound behind the builder's back.
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsNegativeMaxSafeVF) {
  Function F("bad");
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  B.endLoop(L);
  F.Loops[L.LoopIdx].MaxSafeVF = -4;
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsMalformedAlignHint) {
  Function F("bad");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 64, 32);
  IrBuilder B(F);
  B.aload(A, B.constIdx(0));
  F.Instrs[1].Hint.Mod = -32;
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsInvalidTyParam) {
  Function F("bad");
  F.IsSplitLayer = true;
  IrBuilder B(F);
  B.getVF(ScalarKind::F32);
  F.Instrs[0].TyParam = static_cast<ScalarKind>(0x70);
  EXPECT_FALSE(verify(F).empty());
}

TEST(VerifierTest, RejectsNonI1IfCondition) {
  Function F("bad");
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  ValueId C = F.addParam("c", Type::scalar(ScalarKind::I1));
  IrBuilder B(F);
  uint32_t If = B.beginIf(C);
  B.endIf(If);
  F.Ifs[If].Cond = N; // i64 condition behind the builder's back.
  EXPECT_FALSE(verify(F).empty());
}

/// Ifs that each hold the next one in both arms: one if per level but
/// 2^depth paths from the top, in a few hundred bytes. Each if is walked
/// once and its second placement reported; a walk of every path would
/// not finish.
TEST(VerifierTest, RegionsSharedByTwoArmsAreWalkedOnce) {
  Function F("shared");
  ValueId C = F.addParam("c", Type::scalar(ScalarKind::I1));
  F.Ifs.resize(MaxRegionDepth);
  for (uint32_t I = 0; I < MaxRegionDepth; ++I) {
    F.Ifs[I].Cond = C;
    if (I + 1 < MaxRegionDepth)
      for (Region *Arm : {&F.Ifs[I].Then, &F.Ifs[I].Else})
        Arm->Nodes.push_back({NodeKind::If, I + 1});
  }
  F.Body.Nodes.push_back({NodeKind::If, 0});
  std::vector<std::string> Errors = verify(F);
  ASSERT_EQ(Errors.size(), MaxRegionDepth - 1);
  EXPECT_EQ(Errors.front(), "if #1 placed 2 times");
}

TEST(VerifierTest, RejectsBrokenResultBookkeeping) {
  Function F("bad");
  IrBuilder B(F);
  ValueId X = B.constInt(ScalarKind::I32, 1);
  F.Values[X].A = 99; // Points at a non-existent defining instruction.
  EXPECT_FALSE(verify(F).empty());
}

//===--- Evaluator tests ------------------------------------------------------//

TEST(EvaluatorTest, ScalarVecAdd) {
  uint32_t A, Bd, C;
  Function F = buildVecAdd(A, Bd, C);
  Evaluator::Options O;
  Evaluator E(F, O);
  E.allocAllArrays();
  for (int I = 0; I < 64; ++I) {
    E.pokeFP(A, I, I * 1.0);
    E.pokeFP(Bd, I, I * 2.0);
  }
  E.setParamInt("n", 64);
  E.run();
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(E.peekFP(C, I), I * 3.0);
}

TEST(EvaluatorTest, ReductionWithCarriedVariable) {
  // sum = 0; for i in [0,n): sum += a[i]  (i32)
  Function F("sum");
  uint32_t A = F.addArray("a", ScalarKind::I32, 16, 32);
  uint32_t Out = F.addArray("out", ScalarKind::I32, 1, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  ValueId Zero = B.constInt(ScalarKind::I32, 0);
  auto L = B.beginLoop(B.constIdx(0), N, B.constIdx(1));
  ValueId Phi = B.addCarried(L, Zero);
  ValueId X = B.load(A, L.indVar());
  B.setCarriedNext(L, Phi, B.add(Phi, X));
  B.endLoop(L);
  B.store(Out, B.constIdx(0), B.carriedResult(L, Phi));
  verifyOrDie(F);

  Evaluator E(F, {});
  E.allocAllArrays();
  int64_t Want = 0;
  for (int I = 0; I < 16; ++I) {
    E.pokeInt(A, I, I + 1);
    Want += I + 1;
  }
  E.setParamInt("n", 16);
  E.run();
  EXPECT_EQ(E.peekInt(Out, 0), Want);
}

/// Builds split-layer bytecode equivalent to paper Fig. 3a:
///   vsum = init_uniform(0); rt = get_rt(&a[2]);
///   va = align_load(&a[0]);
///   for (i = 0; i < n; i += vf) {
///     vb = align_load(&a[i+2+vf]); vx = realign(va, vb, rt, &a[i+2]);
///     vsum += vx; va = vb;
///   }
///   out[0] = reduc_plus(vsum)
static Function buildFig3a(uint32_t &AId, uint32_t &OutId) {
  Function F("fig3a");
  F.IsSplitLayer = true;
  AId = F.addArray("a", ScalarKind::F32, 64, 32);
  OutId = F.addArray("out", ScalarKind::F32, 1, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  ValueId VF = B.getVF(ScalarKind::F32);
  ValueId Zero = B.constFP(ScalarKind::F32, 0.0);
  ValueId VSum0 = B.initUniform(Zero);
  AlignHint H{8, 32, false};
  ValueId Two = B.constIdx(2);
  ValueId RT = B.getRT(AId, Two, H);
  // Prime the carried chunk with the chunk *containing* the first access
  // (align_load floor-rounds &a[2]; with VS=16 and an aligned base this is
  // the paper's lvx(&a[0])).
  ValueId VA0 = B.alignLoad(AId, Two);

  auto L = B.beginLoop(B.constIdx(0), N, VF);
  ValueId VSum = B.addCarried(L, VSum0);
  ValueId VA = B.addCarried(L, VA0);
  ValueId IdxNext = B.add(B.add(L.indVar(), Two), VF);
  ValueId VB = B.alignLoad(AId, IdxNext);
  ValueId IdxCur = B.add(L.indVar(), Two);
  ValueId VX = B.realignLoad(VA, VB, RT, AId, IdxCur, H);
  B.setCarriedNext(L, VSum, B.add(VSum, VX));
  B.setCarriedNext(L, VA, VB);
  B.endLoop(L);

  ValueId Sum = B.reduc(Opcode::ReducPlus, B.carriedResult(L, VSum));
  B.store(OutId, B.constIdx(0), Sum);
  return F;
}

class Fig3aTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(Fig3aTest, RealignmentChainMatchesMemoryAtEveryVS) {
  unsigned VS = GetParam();
  uint32_t A, Out;
  Function F = buildFig3a(A, Out);
  verifyOrDie(F);

  Evaluator::Options O;
  O.VSBytes = VS;
  O.CheckRealign = true; // Abort if the va/vb chain is inconsistent.
  Evaluator E(F, O);
  E.allocAllArrays();
  int N = 32; // Must be a multiple of every VF under test.
  double Want = 0;
  for (int I = 0; I < 64; ++I)
    E.pokeFP(A, I, I * 0.5);
  for (int I = 0; I < N; ++I)
    Want += (I + 2) * 0.5;
  E.setParamInt("n", N);
  E.run();
  EXPECT_FLOAT_EQ(E.peekFP(Out, 0), Want);
}

INSTANTIATE_TEST_SUITE_P(VectorSizes, Fig3aTest,
                         ::testing::Values(8u, 16u, 32u));

TEST(EvaluatorTest, MisalignedBaseTrapsOnAlignedLoad) {
  Function F("aligned");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 16, 4);
  uint32_t Out = F.addArray("out", ScalarKind::F32, 16, 32);
  IrBuilder B(F);
  ValueId V = B.aload(A, B.constIdx(0));
  B.astore(Out, B.constIdx(0), V);
  verifyOrDie(F);

  Evaluator::Options O;
  O.VSBytes = 16;
  Evaluator E(F, O);
  E.allocArray(A, /*BaseMisalign=*/8);
  E.allocArray(Out, 0);
  EXPECT_DEATH(E.run(), "aload from misaligned address");
}

TEST(EvaluatorTest, WidenMultAndPackRoundTrip) {
  // out[i] = (u8)((a[i] * b[i]) >> 8) via widen_mult hi/lo + shift + pack.
  Function F("widen");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::U8, 32, 32);
  uint32_t Bd = F.addArray("b", ScalarKind::U8, 32, 32);
  uint32_t C = F.addArray("c", ScalarKind::U8, 32, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  ValueId VF = B.getVF(ScalarKind::U8);
  ValueId Eight = B.constInt(ScalarKind::U16, 8);
  ValueId VEight = B.initUniform(Eight);
  auto L = B.beginLoop(B.constIdx(0), N, VF);
  ValueId VA = B.aload(A, L.indVar());
  ValueId VB = B.aload(Bd, L.indVar());
  ValueId Lo = B.shrl(B.widenMultLo(VA, VB), VEight);
  ValueId Hi = B.shrl(B.widenMultHi(VA, VB), VEight);
  B.astore(C, L.indVar(), B.pack(Lo, Hi));
  B.endLoop(L);
  verifyOrDie(F);

  for (unsigned VS : {8u, 16u, 32u}) {
    Evaluator::Options O;
    O.VSBytes = VS;
    Evaluator E(F, O);
    E.allocAllArrays();
    for (int I = 0; I < 32; ++I) {
      E.pokeInt(A, I, (I * 37) % 256);
      E.pokeInt(Bd, I, (I * 91 + 5) % 256);
    }
    E.setParamInt("n", 32);
    E.run();
    for (int I = 0; I < 32; ++I) {
      int Want = (((I * 37) % 256) * ((I * 91 + 5) % 256)) >> 8;
      EXPECT_EQ(E.peekInt(C, I), Want) << "VS=" << VS << " i=" << I;
    }
  }
}

TEST(EvaluatorTest, ExtractGathersStridedElements) {
  // out[i] = a[2*i] for VF elements at a time: two loads + extract.
  Function F("strided");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::I32, 64, 32);
  uint32_t Out = F.addArray("out", ScalarKind::I32, 32, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  ValueId VF = B.getVF(ScalarKind::I32);
  auto L = B.beginLoop(B.constIdx(0), N, VF);
  ValueId I2 = B.mul(L.indVar(), B.constIdx(2));
  ValueId V0 = B.aload(A, I2);
  ValueId V1 = B.aload(A, B.add(I2, VF));
  ValueId Even = B.extract(/*Stride=*/2, /*Off=*/0, {V0, V1});
  B.astore(Out, L.indVar(), Even);
  B.endLoop(L);
  verifyOrDie(F);

  Evaluator::Options O;
  O.VSBytes = 16;
  Evaluator E(F, O);
  E.allocAllArrays();
  for (int I = 0; I < 64; ++I)
    E.pokeInt(A, I, I * 11);
  E.setParamInt("n", 32);
  E.run();
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(E.peekInt(Out, I), 2 * I * 11);
}

TEST(EvaluatorTest, VersionGuardBasesAligned) {
  Function F("guard");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::F32, 16, 4);
  uint32_t Out = F.addArray("out", ScalarKind::I32, 1, 32);
  IrBuilder B(F);
  ValueId G = B.versionGuard(GuardKind::BasesAligned, {A});
  uint32_t If = B.beginIf(G);
  B.store(Out, B.constIdx(0), B.constInt(ScalarKind::I32, 1));
  B.beginElse(If);
  B.store(Out, B.constIdx(0), B.constInt(ScalarKind::I32, 0));
  B.endIf(If);
  verifyOrDie(F);

  {
    Evaluator E(F, {});
    E.allocArray(A, 0);
    E.allocArray(Out, 0);
    E.run();
    EXPECT_EQ(E.peekInt(Out, 0), 1);
  }
  {
    Evaluator E(F, {});
    E.allocArray(A, 8);
    E.allocArray(Out, 0);
    E.run();
    EXPECT_EQ(E.peekInt(Out, 0), 0);
  }
}

TEST(EvaluatorTest, LoopBoundSelectsByMode) {
  Function F("lb");
  F.IsSplitLayer = true;
  uint32_t Out = F.addArray("out", ScalarKind::I64, 1, 32);
  IrBuilder B(F);
  ValueId LB = B.loopBound(B.constIdx(40), B.constIdx(7));
  B.store(Out, B.constIdx(0), LB);
  verifyOrDie(F);

  Evaluator::Options O;
  O.UseVectorBound = true;
  Evaluator EV(F, O);
  EV.allocAllArrays();
  EV.run();
  EXPECT_EQ(EV.peekInt(Out, 0), 40);

  O.UseVectorBound = false;
  Evaluator ES(F, O);
  ES.allocAllArrays();
  ES.run();
  EXPECT_EQ(ES.peekInt(Out, 0), 7);
}

TEST(EvaluatorTest, DotProductAccumulates) {
  // acc = dot_product(a, b, acc) over one vector; check against scalar.
  Function F("dot");
  F.IsSplitLayer = true;
  uint32_t A = F.addArray("a", ScalarKind::I16, 16, 32);
  uint32_t Bd = F.addArray("b", ScalarKind::I16, 16, 32);
  uint32_t Out = F.addArray("out", ScalarKind::I32, 1, 32);
  ValueId N = F.addParam("n", Type::scalar(ScalarKind::I64));
  IrBuilder B(F);
  ValueId VF = B.getVF(ScalarKind::I16);
  ValueId Zero = B.constInt(ScalarKind::I32, 0);
  ValueId Acc0 = B.initUniform(Zero);
  auto L = B.beginLoop(B.constIdx(0), N, VF);
  ValueId Acc = B.addCarried(L, Acc0);
  ValueId VA = B.aload(A, L.indVar());
  ValueId VB = B.aload(Bd, L.indVar());
  B.setCarriedNext(L, Acc, B.dotProduct(VA, VB, Acc));
  B.endLoop(L);
  B.store(Out, B.constIdx(0),
          B.reduc(Opcode::ReducPlus, B.carriedResult(L, Acc)));
  verifyOrDie(F);

  for (unsigned VS : {8u, 16u, 32u}) {
    Evaluator::Options O;
    O.VSBytes = VS;
    Evaluator E(F, O);
    E.allocAllArrays();
    int64_t Want = 0;
    for (int I = 0; I < 16; ++I) {
      int AV = (I * 321 - 1000) % 30000;
      int BV = (I * 777 - 5000) % 30000;
      E.pokeInt(A, I, AV);
      E.pokeInt(Bd, I, BV);
      Want += AV * BV;
    }
    E.setParamInt("n", 16);
    E.run();
    EXPECT_EQ(E.peekInt(Out, 0), Want) << "VS=" << VS;
  }
}

//===--- Structural hash ----------------------------------------------------//

/// The modules the system hashes in practice: every kernel's scalar source
/// and its split-layer vectorized module.
std::vector<Function> kernelModules() {
  std::vector<Function> Mods;
  for (const kernels::Kernel &K : kernels::allKernels()) {
    Mods.push_back(K.Source);
    Mods.push_back(vectorizer::vectorize(K.Source).Output);
  }
  return Mods;
}

/// Sets \p Field of \p G to \p To, expects the hash to move off \p Base,
/// and restores the field.
template <typename T, typename U>
void expectHashMoves(const Function &G, uint64_t Base, T &Field, U To,
                     const std::string &What) {
  T Old = Field;
  Field = static_cast<T>(To);
  EXPECT_NE(hashFunction(G), Base) << G.Name << ": " << What;
  Field = Old;
}

TEST(HashFunctionTest, EverySingleFieldChangeMovesTheHash) {
  for (Function &G : kernelModules()) {
    const uint64_t H = hashFunction(G);
    EXPECT_EQ(hashFunction(Function(G)), H) << G.Name << ": copy";
    for (size_t V = 0; V < G.Values.size(); ++V)
      expectHashMoves(G, H, G.Values[V].Ty.Vector, !G.Values[V].Ty.Vector,
                      "type of %" + std::to_string(V));
    for (size_t I = 0; I < G.Instrs.size(); ++I) {
      Instr &In = G.Instrs[I];
      std::string At = " of #" + std::to_string(I);
      expectHashMoves(G, H, In.Op,
                      In.Op == Opcode::Add ? Opcode::Sub : Opcode::Add,
                      "opcode" + At);
      for (size_t K = 0; K < In.Ops.size(); ++K)
        expectHashMoves(G, H, In.Ops[K], In.Ops[K] + 1,
                        "operand " + std::to_string(K) + At);
      expectHashMoves(G, H, In.IntImm, In.IntImm + 1, "immediate" + At);
      expectHashMoves(G, H, In.Hint.Mis, In.Hint.Mis + 1, "hint" + At);
      expectHashMoves(G, H, In.Array, In.Array + 1, "array" + At);
    }
    for (size_t L = 0; L < G.Loops.size(); ++L) {
      LoopStmt &Lp = G.Loops[L];
      std::string At = " of loop " + std::to_string(L);
      expectHashMoves(G, H, Lp.Lower, Lp.Lower + 1, "lower bound" + At);
      expectHashMoves(G, H, Lp.Upper, Lp.Upper + 1, "upper bound" + At);
      expectHashMoves(G, H, Lp.Step, Lp.Step + 1, "step" + At);
      expectHashMoves(G, H, Lp.Role,
                      Lp.Role == LoopRole::Plain ? LoopRole::Peel
                                                 : LoopRole::Plain,
                      "role" + At);
      expectHashMoves(G, H, Lp.MaxSafeVF, Lp.MaxSafeVF + 1,
                      "MaxSafeVF" + At);
    }
    for (size_t I = 0; I < G.Ifs.size(); ++I)
      expectHashMoves(G, H, G.Ifs[I].Cond, G.Ifs[I].Cond + 1,
                      "condition of if " + std::to_string(I));
    for (ArrayInfo &AI : G.Arrays) {
      std::string At = " of array " + AI.Name;
      std::string Renamed = AI.Name;
      Renamed.back() ^= 1;
      expectHashMoves(G, H, AI.Name, Renamed, "name" + At);
      expectHashMoves(G, H, AI.Elem,
                      AI.Elem == ScalarKind::F32 ? ScalarKind::I32
                                                 : ScalarKind::F32,
                      "kind" + At);
      expectHashMoves(G, H, AI.NumElems, AI.NumElems + 1, "extent" + At);
      expectHashMoves(G, H, AI.BaseAlign, AI.BaseAlign * 2,
                      "alignment" + At);
    }
    std::vector<Region *> Regions{&G.Body};
    for (LoopStmt &L : G.Loops)
      Regions.push_back(&L.Body);
    for (IfStmt &S : G.Ifs) {
      Regions.push_back(&S.Then);
      Regions.push_back(&S.Else);
    }
    for (Region *R : Regions) {
      if (R->Nodes.size() < 2)
        continue;
      std::swap(R->Nodes[0], R->Nodes[1]);
      EXPECT_NE(hashFunction(G), H) << G.Name << ": region node order";
      std::swap(R->Nodes[0], R->Nodes[1]);
    }
    EXPECT_EQ(hashFunction(G), H) << G.Name << ": every field restored";
  }
}

TEST(HashFunctionTest, KernelModulesAndEncodingsHashPairwiseDistinct) {
  std::vector<Function> Mods = kernelModules();
  ASSERT_EQ(Mods.size(), 2 * kernels::ExpectedKernelCount);
  std::set<uint64_t> FnHashes, ByteHashes;
  for (const Function &F : Mods) {
    FnHashes.insert(hashFunction(F));
    std::vector<uint8_t> Bytes = bytecode::encode(F);
    ByteHashes.insert(jit::cache::hashBytes(Bytes.data(), Bytes.size()));
  }
  EXPECT_EQ(FnHashes.size(), Mods.size());
  EXPECT_EQ(ByteHashes.size(), Mods.size());
}

} // namespace
