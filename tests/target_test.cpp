//===- tests/target_test.cpp - Machine model / VM tests -------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "target/Iaca.h"
#include "target/MachineIR.h"
#include "target/MemoryImage.h"
#include "target/Target.h"
#include "target/VM.h"

#include <gtest/gtest.h>

using namespace vapor;
using namespace vapor::target;
using namespace vapor::ir;

namespace {

TEST(TargetDescTest, PaperTargetProperties) {
  TargetDesc SSE = sseTarget();
  EXPECT_EQ(SSE.VSBytes, 16u);
  EXPECT_TRUE(SSE.HasMisaligned);
  EXPECT_FALSE(SSE.HasPermRealign);

  TargetDesc AV = altivecTarget();
  EXPECT_EQ(AV.VSBytes, 16u);
  EXPECT_FALSE(AV.HasMisaligned);
  EXPECT_TRUE(AV.HasPermRealign);
  EXPECT_FALSE(AV.supportsVecKind(ScalarKind::F64));
  EXPECT_TRUE(AV.supportsVecKind(ScalarKind::F32));

  TargetDesc NE = neonTarget();
  EXPECT_EQ(NE.VSBytes, 8u);
  EXPECT_FALSE(NE.supportsVecOp(Opcode::WidenMultLo));
  EXPECT_TRUE(NE.LibFallbackForOps);

  EXPECT_EQ(avxTarget().VSBytes, 32u);
  EXPECT_FALSE(scalarTarget().hasSimd());
  EXPECT_EQ(allTargets().size(), 5u);
}

TEST(CostModelTest, AlignedCheaperThanUnalignedCheaperThanNothing) {
  TargetDesc T = sseTarget();
  MInstr A;
  A.Op = MOp::VLoadA;
  MInstr U;
  U.Op = MOp::VLoadU;
  EXPECT_LT(instrCost(T, A, false), instrCost(T, U, false));
}

TEST(CostModelTest, X87PenaltyOnlyOnWeakTier) {
  TargetDesc T = sseTarget();
  MInstr FpMul;
  FpMul.Op = MOp::Alu;
  FpMul.SubOp = Opcode::Mul;
  FpMul.Kind = ScalarKind::F32;
  FpMul.Vector = false;
  EXPECT_GT(instrCost(T, FpMul, /*Weak=*/true),
            instrCost(T, FpMul, /*Weak=*/false));
  // Vector FP is unaffected (SSE unit, not x87).
  FpMul.Vector = true;
  EXPECT_EQ(instrCost(T, FpMul, true), instrCost(T, FpMul, false));
  // Non-x87 targets have no penalty.
  TargetDesc AV = altivecTarget();
  FpMul.Vector = false;
  EXPECT_EQ(instrCost(AV, FpMul, true), instrCost(AV, FpMul, false));
}

TEST(CostModelTest, FoldedAddressingIsFree) {
  TargetDesc T = sseTarget();
  MInstr A;
  A.Op = MOp::Addr;
  A.Folded = false;
  EXPECT_GT(instrCost(T, A, false), 0u);
  A.Folded = true;
  EXPECT_EQ(instrCost(T, A, false), 0u);
}

/// Hand-assembles: for i in [0,n) step lanes: c[i] = a[i] + b[i] (f32
/// vectors), then runs it on the VM.
MFunction buildVecAddMachine(unsigned VS, MOp LoadOp, MOp StoreOp) {
  MFunction F;
  F.Name = "vecadd";
  F.VSBytes = VS;
  F.Arrays.push_back({"a", ScalarKind::F32, 64, 32});
  F.Arrays.push_back({"b", ScalarKind::F32, 64, 32});
  F.Arrays.push_back({"c", ScalarKind::F32, 64, 32});

  auto Emit = [&](MRegion &R, MInstr I) {
    F.Instrs.push_back(std::move(I));
    R.Nodes.push_back({MNodeKind::Instr,
                       static_cast<uint32_t>(F.Instrs.size() - 1)});
    return F.Instrs.back().Dst;
  };

  MReg N = F.makeReg(ScalarKind::I64, false);
  F.Params.push_back({"n", N});

  MReg Zero = F.makeReg(ScalarKind::I64, false);
  MInstr LZ;
  LZ.Op = MOp::LdImm;
  LZ.Imm = 0;
  LZ.Dst = Zero;
  Emit(F.Body, LZ);

  MReg Step = F.makeReg(ScalarKind::I64, false);
  MInstr LS;
  LS.Op = MOp::LdImm;
  LS.Imm = VS / 4;
  LS.Dst = Step;
  Emit(F.Body, LS);

  MReg BaseA = F.makeReg(ScalarKind::I64, false);
  MReg BaseB = F.makeReg(ScalarKind::I64, false);
  MReg BaseC = F.makeReg(ScalarKind::I64, false);
  for (auto [Reg, Arr] : {std::pair{BaseA, 0u}, {BaseB, 1u}, {BaseC, 2u}}) {
    MInstr LB;
    LB.Op = MOp::LoadBase;
    LB.Array = Arr;
    LB.Dst = Reg;
    Emit(F.Body, LB);
  }

  F.Loops.emplace_back();
  MLoop &L = F.Loops.back();
  L.IsVectorMain = true;
  L.IndVar = F.makeReg(ScalarKind::I64, false);
  L.Lower = Zero;
  L.Upper = N;
  L.Step = Step;
  F.Body.Nodes.push_back({MNodeKind::Loop, 0});

  auto Addr = [&](MReg Base) {
    MReg D = F.makeReg(ScalarKind::I64, false);
    MInstr A;
    A.Op = MOp::Addr;
    A.Dst = D;
    A.Srcs = {Base, L.IndVar};
    A.Scale = 4;
    A.Folded = true;
    Emit(L.Body, A);
    return D;
  };

  MReg VA = F.makeReg(ScalarKind::F32, true);
  MInstr LA;
  LA.Op = LoadOp;
  LA.Kind = ScalarKind::F32;
  LA.Vector = true;
  LA.Dst = VA;
  LA.Srcs = {Addr(BaseA)};
  Emit(L.Body, LA);

  MReg VB = F.makeReg(ScalarKind::F32, true);
  MInstr LB2 = LA;
  LB2.Dst = VB;
  LB2.Srcs = {Addr(BaseB)};
  Emit(L.Body, LB2);

  MReg VC = F.makeReg(ScalarKind::F32, true);
  MInstr AD;
  AD.Op = MOp::Alu;
  AD.SubOp = Opcode::Add;
  AD.Kind = ScalarKind::F32;
  AD.Vector = true;
  AD.Dst = VC;
  AD.Srcs = {VA, VB};
  Emit(L.Body, AD);

  MInstr ST;
  ST.Op = StoreOp;
  ST.Kind = ScalarKind::F32;
  ST.Vector = true;
  ST.Srcs = {Addr(BaseC), VC};
  Emit(L.Body, ST);

  return F;
}

TEST(VMTest, VectorAddComputesAndCounts) {
  MFunction F = buildVecAddMachine(16, MOp::VLoadA, MOp::VStoreA);
  TargetDesc T = sseTarget();
  MemoryImage Mem;
  for (const auto &A : F.Arrays)
    Mem.addArray(A, 0);
  for (int I = 0; I < 64; ++I) {
    Mem.pokeFP(0, I, I * 1.0);
    Mem.pokeFP(1, I, 100.0 - I);
  }
  VM M(F, T, Mem);
  M.setParamInt("n", 64);
  M.run();
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Mem.peekFP(2, I), 100.0);
  EXPECT_GT(M.cycles(), 0u);
  // Preamble (2 ldimm + 3 loadbase) + 16 iterations of (3 addr + 2 loads
  // + add + store).
  EXPECT_EQ(M.instrsExecuted(), 5u + 16u * 7u);
}

TEST(VMTest, AlignedLoadTrapsOnMisalignedBase) {
  MFunction F = buildVecAddMachine(16, MOp::VLoadA, MOp::VStoreA);
  TargetDesc T = sseTarget();
  MemoryImage Mem;
  Mem.addArray(F.Arrays[0], /*BaseMisalign=*/8);
  Mem.addArray(F.Arrays[1], 0);
  Mem.addArray(F.Arrays[2], 0);
  VM M(F, T, Mem);
  M.setParamInt("n", 16);
  EXPECT_DEATH(M.run(), "alignment trap");
}

TEST(VMTest, AlignedTrapHonorsEachTargetVectorWidth) {
  // The trap boundary is the *function's* vector size: 16 bytes for an
  // AltiVec build, 32 for AVX. A base at +16 is fine for lvx but must
  // trap a 256-bit aligned load.
  auto BuildAndRun = [](unsigned VS, const TargetDesc &T, uint32_t Mis) {
    MFunction F = buildVecAddMachine(VS, MOp::VLoadA, MOp::VStoreA);
    MemoryImage Mem;
    Mem.addArray(F.Arrays[0], Mis);
    Mem.addArray(F.Arrays[1], 0);
    Mem.addArray(F.Arrays[2], 0);
    VM M(F, T, Mem);
    M.setParamInt("n", 16);
    M.run();
  };
  EXPECT_DEATH(BuildAndRun(16, altivecTarget(), 8), "alignment trap");
  EXPECT_DEATH(BuildAndRun(32, avxTarget(), 16), "alignment trap");
  // +16 is a legal 128-bit boundary: the same misalignment must NOT trap
  // a 16-byte build.
  BuildAndRun(16, sseTarget(), 16);
}

TEST(VMTest, AlignedStoreTrapsOnMisalignedOutput) {
  // Store-side dual of the load trap: only the output array is moved, so
  // both aligned loads succeed and the first vstore.a faults.
  MFunction F = buildVecAddMachine(16, MOp::VLoadA, MOp::VStoreA);
  TargetDesc T = sseTarget();
  MemoryImage Mem;
  Mem.addArray(F.Arrays[0], 0);
  Mem.addArray(F.Arrays[1], 0);
  Mem.addArray(F.Arrays[2], /*BaseMisalign=*/8);
  VM M(F, T, Mem);
  M.setParamInt("n", 16);
  EXPECT_DEATH(M.run(), "alignment trap");

  // The unaligned store form handles the same layout.
  MFunction FU = buildVecAddMachine(16, MOp::VLoadA, MOp::VStoreU);
  MemoryImage MemU;
  MemU.addArray(FU.Arrays[0], 0);
  MemU.addArray(FU.Arrays[1], 0);
  MemU.addArray(FU.Arrays[2], 8);
  for (int I = 0; I < 64; ++I) {
    MemU.pokeFP(0, I, I * 1.0);
    MemU.pokeFP(1, I, 100.0 - I);
  }
  VM MU(FU, T, MemU);
  MU.setParamInt("n", 16);
  MU.run();
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(MemU.peekFP(2, I), 100.0);
}

TEST(VMTest, UnalignedLoadSucceedsAtEveryMisalignment) {
  TargetDesc T = avxTarget();
  for (uint32_t Mis : {4u, 8u, 12u, 20u, 28u}) {
    MFunction F = buildVecAddMachine(32, MOp::VLoadU, MOp::VStoreU);
    MemoryImage Mem;
    for (const auto &A : F.Arrays)
      Mem.addArray(A, Mis);
    for (int I = 0; I < 64; ++I) {
      Mem.pokeFP(0, I, I * 0.5);
      Mem.pokeFP(1, I, 64.0 - I * 0.5);
    }
    VM M(F, T, Mem);
    M.setParamInt("n", 64);
    M.run();
    for (int I = 0; I < 64; ++I)
      EXPECT_EQ(Mem.peekFP(2, I), 64.0) << "mis=" << Mis << " i=" << I;
  }
}

TEST(VMTest, UnalignedLoadsWorkButCostMore) {
  TargetDesc T = sseTarget();
  auto Run = [&](MOp LoadOp, uint32_t Mis) {
    MFunction F = buildVecAddMachine(16, LoadOp, MOp::VStoreU);
    MemoryImage Mem;
    for (const auto &A : F.Arrays)
      Mem.addArray(A, Mis);
    for (int I = 0; I < 64; ++I) {
      Mem.pokeFP(0, I, 1.0);
      Mem.pokeFP(1, I, 2.0);
    }
    VM M(F, T, Mem);
    M.setParamInt("n", 64);
    M.run();
    EXPECT_EQ(Mem.peekFP(2, 5), 3.0);
    return M.cycles();
  };
  uint64_t Aligned = Run(MOp::VLoadA, 0);
  uint64_t Unaligned = Run(MOp::VLoadU, 8);
  EXPECT_GT(Unaligned, Aligned);
}

TEST(VMTest, WeakTierChargesX87ForScalarFP) {
  MFunction F;
  F.Name = "fp";
  F.VSBytes = 16;
  MReg A = F.makeReg(ScalarKind::F32, false);
  MReg Bv = F.makeReg(ScalarKind::F32, false);
  MReg C = F.makeReg(ScalarKind::F32, false);
  MInstr I1;
  I1.Op = MOp::LdFImm;
  I1.Kind = ScalarKind::F32;
  I1.FImm = 2.0;
  I1.Dst = A;
  MInstr I2 = I1;
  I2.FImm = 3.0;
  I2.Dst = Bv;
  MInstr I3;
  I3.Op = MOp::Alu;
  I3.SubOp = Opcode::Mul;
  I3.Kind = ScalarKind::F32;
  I3.Dst = C;
  I3.Srcs = {A, Bv};
  F.Instrs = {I1, I2, I3};
  F.Body.Nodes = {{MNodeKind::Instr, 0}, {MNodeKind::Instr, 1},
                  {MNodeKind::Instr, 2}};

  TargetDesc T = sseTarget();
  MemoryImage Mem;
  VM Strong(F, T, Mem, /*Weak=*/false);
  Strong.run();
  VM Weak(F, T, Mem, /*Weak=*/true);
  Weak.run();
  EXPECT_GT(Weak.cycles(), Strong.cycles());
}

/// Pack, unpack and dot decode only at the verifier's kind pairs (wide =
/// widenKind(narrow)); any other pair stops the decoder.
TEST(VMTest, WideningOpOutsideVerifierKindPairIsFatal) {
  MFunction F;
  F.Name = "badpack";
  F.VSBytes = 16;
  MReg A = F.makeReg(ScalarKind::I32, true);
  MReg Bv = F.makeReg(ScalarKind::I32, true);
  MInstr P;
  P.Op = MOp::VPack;
  P.Kind = ScalarKind::I8; // I32 packs to I16.
  P.Vector = true;
  P.Srcs = {A, Bv};
  P.Dst = F.makeReg(ScalarKind::I8, true);
  F.Instrs = {P};
  F.Body.Nodes = {{MNodeKind::Instr, 0}};

  MemoryImage Mem;
  EXPECT_DEATH(DecodedProgram::build(F, sseTarget(), Mem),
               "pack between i8 and i32 is not a widening kind pair");
}

TEST(IacaTest, SaxpyShapedLoopMatchesPaperArithmetic) {
  // 2 loads + 1 store + mul + add, folded addressing: the paper's AVX
  // native saxpy_fp comes to 2 cycles/iteration.
  MFunction F = buildVecAddMachine(32, MOp::VLoadU, MOp::VStoreU);
  // VLoadU counts the load port twice (256-bit halves): use aligned to
  // model the paper's native code.
  MFunction FA = buildVecAddMachine(32, MOp::VLoadA, MOp::VStoreA);
  IacaReport R = analyzeVectorLoop(FA, avxTarget());
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Loads, 2u);
  EXPECT_EQ(R.Stores, 1u);
  EXPECT_EQ(R.Cycles, 2u);
  // The unaligned variant is throughput-limited by the load port.
  IacaReport RU = analyzeVectorLoop(F, avxTarget());
  EXPECT_GE(RU.Cycles, R.Cycles);
}

TEST(IacaTest, NoVectorLoopReportsNotFound) {
  MFunction F;
  F.Name = "empty";
  EXPECT_FALSE(analyzeVectorLoop(F, avxTarget()).Found);
}

TEST(MachinePrinterTest, PrintsStructure) {
  MFunction F = buildVecAddMachine(16, MOp::VLoadA, MOp::VStoreA);
  std::string S = F.str();
  EXPECT_NE(S.find("vload.a"), std::string::npos);
  EXPECT_NE(S.find("vec-main"), std::string::npos);
  EXPECT_NE(S.find("loadbase"), std::string::npos) << S;
}

TEST(MemoryImageTest, PadsAllowRealignmentReads) {
  MemoryImage Mem;
  uint32_t A = Mem.addArray({"a", ScalarKind::F32, 8, 32}, 0);
  // Reading 16 bytes starting 16 bytes before the base must not trap
  // (aligned chunk reads of the realignment scheme).
  uint64_t Base = Mem.base(A);
  EXPECT_NO_FATAL_FAILURE(Mem.readLane(Base - 16, ScalarKind::F32));
  EXPECT_NO_FATAL_FAILURE(Mem.readLane(Base + 8 * 4 + 12, ScalarKind::F32));
}

TEST(MemoryImageTest, MisalignmentKnobWorks) {
  MemoryImage Mem;
  uint32_t A = Mem.addArray({"a", ScalarKind::F32, 8, 4}, 12);
  EXPECT_EQ(Mem.base(A) % 32, 12u);
  uint32_t B = Mem.addArray({"b", ScalarKind::F32, 8, 4}, 0);
  EXPECT_EQ(Mem.base(B) % 32, 0u);
}

} // namespace
