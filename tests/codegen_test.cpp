//===- tests/codegen_test.cpp - Native x86-64 tier unit tests -------------===//
//
// Part of the Vapor SIMD reproduction.
//
// The native tier's whole contract is "bit-exact against the VM, or
// demote": these tests sweep every kernel x target through the native
// tier and byte-compare the resulting memory images against VM runs,
// check trap attribution parity on hand-built machine code, force
// feature subsets through the CPUID gate, and audit the W^X page
// lifecycle.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeJit.h"
#include "jit/Jit.h"
#include "support/FaultInject.h"
#include "target/VM.h"
#include "vapor/Pipeline.h"
#include "vectorizer/Vectorizer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

using namespace vapor;
using namespace vapor::kernels;
using namespace vapor::target;
using faultinject::ScopedFault;
using faultinject::SiteClass;

namespace {

std::vector<std::string> kernelNames() {
  std::vector<std::string> Names;
  for (const Kernel &K : allKernels())
    Names.push_back(K.Name);
  return Names;
}

/// Byte-compares the full memory images of two outcomes. Both runs use
/// identical placement (same arrays, same misalignment, same fill seed),
/// so equality here is the strongest form of "same results": every array
/// element, pad byte, and alignment gap is identical.
void expectImagesBitExact(const RunOutcome &A, const RunOutcome &B,
                          const std::string &What) {
  ASSERT_TRUE(A.Mem && B.Mem) << What;
  ASSERT_EQ(A.Mem->highAddr(), B.Mem->highAddr()) << What;
  size_t Size = A.Mem->highAddr() - A.Mem->lowAddr();
  EXPECT_EQ(std::memcmp(A.Mem->data(), B.Mem->data(), Size), 0)
      << What << ": native and VM memory images differ";
}

class NativeKernelTest : public ::testing::TestWithParam<std::string> {};

// The tentpole acceptance bar: for every kernel and every target the
// host supports, the native tier's memory image is bit-identical to the
// VM's. Float tolerance plays no part -- the emitter either reproduces
// the VM's arithmetic exactly or this fails.
TEST_P(NativeKernelTest, BitExactAgainstVmOnAllTargets) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  Kernel K = kernelByName(GetParam());
  for (const TargetDesc &T : target::allTargets()) {
    RunOptions O;
    O.Target = T;
    O.UseNative = true;
    RunOutcome Native = runKernel(K, Flow::SplitVectorized, O);
    EXPECT_EQ(Native.Tier, ExecTier::Native)
        << K.Name << " on " << T.Name << " demoted: "
        << (Native.Demotions.empty() ? "?" : Native.Demotions[0].str());
    std::string Err;
    EXPECT_TRUE(checkAgainstGolden(K, Native, Err)) << Err;

    O.UseNative = false;
    RunOutcome Vm = runKernel(K, Flow::SplitVectorized, O);
    EXPECT_EQ(Vm.Tier, ExecTier::Vectorized) << K.Name << " on " << T.Name;
    expectImagesBitExact(Native, Vm, K.Name + " on " + T.Name);
  }
}

// BitExactUnderMisalignedExternals runs in external_buffers_test.cpp,
// over the kernels that have external arrays.

// Forcing the legacy-SSE2 encoding set must still be bit-exact (same
// semantics, narrower instructions) and must keep every VEX encoding out
// of the generated code.
TEST_P(NativeKernelTest, Sse2OnlyEncodingSetStaysBitExact) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  Kernel K = kernelByName(GetParam());
  RunOptions O;
  O.Target = target::avxTarget(); // 32B vectors stress the chunking most.
  O.UseNative = true;
  O.Native.Features = codegen::CpuFeatures{};
  O.Native.Features.X64 = true;
  O.Native.Features.SSE2 = true;
  RunOutcome Native = runKernel(K, Flow::SplitVectorized, O);
  ASSERT_EQ(Native.Tier, ExecTier::Native)
      << (Native.Demotions.empty() ? "?" : Native.Demotions[0].str());
  EXPECT_EQ(Native.NativeCode.VexChunks, 0u)
      << "SSE2-only encoding set emitted VEX-256 chunks";
  EXPECT_EQ(Native.NativeCode.FeaturesUsed, "x86-64 sse2");

  O.UseNative = false;
  RunOutcome Vm = runKernel(K, Flow::SplitVectorized, O);
  expectImagesBitExact(Native, Vm, K.Name + " sse2-only");
}

INSTANTIATE_TEST_SUITE_P(AllKernels, NativeKernelTest,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

//===--- CPUID gate --------------------------------------------------------===//

TEST(NativeFeatureTest, EmptyFeatureSetIsUnsupported) {
  codegen::CpuFeatures None;
  EXPECT_FALSE(codegen::supported(None));
  codegen::CpuFeatures NoSse2;
  NoSse2.X64 = true;
  EXPECT_FALSE(codegen::supported(NoSse2)) << "SSE2 is the x86-64 baseline";
}

TEST(NativeFeatureTest, UnsupportedFeatureSetDemotesToVectorized) {
  // Forcing an empty encoding set makes the tier gate fail on ANY host,
  // so this demotion edge is testable even where the real tier runs.
  Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  O.UseNative = true;
  O.Native.Features = codegen::CpuFeatures{};
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  EXPECT_EQ(Out.Tier, ExecTier::Vectorized);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Jit);
  EXPECT_EQ(Out.Demotions[0].code(), status::Code::UnsupportedIdiom);
  EXPECT_EQ(Out.Retries, 0u) << "a native demotion is not a deopt retry";
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
}

TEST(NativeFeatureTest, InjectedNativeTrapDemotesToVectorized) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  O.UseNative = true;
  ScopedFault F(SiteClass::NativeTrap);
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  EXPECT_EQ(Out.Tier, ExecTier::Vectorized);
  ASSERT_EQ(Out.Demotions.size(), 1u);
  EXPECT_EQ(Out.Demotions[0].layer(), status::Layer::Vm);
  EXPECT_EQ(Out.Demotions[0].code(), status::Code::AlignmentTrap);
  EXPECT_EQ(Out.Retries, 0u)
      << "the VM reruns the same vector code; no deopt recompile";
  std::string Err;
  EXPECT_TRUE(checkAgainstGolden(K, Out, Err)) << Err;
}

TEST(NativeFeatureTest, TierNameIsStable) {
  EXPECT_STREQ(tierName(ExecTier::Native), "native");
}

//===--- Trap attribution parity -------------------------------------------===//

/// Hand-builds machine code whose single vector access lands on a
/// misaligned address: LoadBase a; addr = a + 4; vload.a addr. The VM and
/// the native tier must report the same structured trap.
MFunction misalignedLoadFn(unsigned VSBytes) {
  MFunction F;
  F.Name = "trap_probe";
  F.VSBytes = VSBytes;
  F.Arrays.push_back({"a", ir::ScalarKind::F32, 64, 1});
  MReg Base = F.makeReg(ir::ScalarKind::I64, false);
  MReg Off = F.makeReg(ir::ScalarKind::I64, false);
  MReg Addr = F.makeReg(ir::ScalarKind::I64, false);
  MReg V = F.makeReg(ir::ScalarKind::F32, true);

  MInstr LB;
  LB.Op = MOp::LoadBase;
  LB.Dst = Base;
  LB.Array = 0;
  F.Instrs.push_back(LB);
  MInstr LI;
  LI.Op = MOp::LdImm;
  LI.Kind = ir::ScalarKind::I64;
  LI.Dst = Off;
  LI.Imm = 4; // Bases are 32-byte aligned; +4 misaligns every VSBytes>=8.
  F.Instrs.push_back(LI);
  MInstr AD;
  AD.Op = MOp::Addr;
  AD.Dst = Addr;
  AD.Srcs = {Base, Off};
  AD.Scale = 1;
  F.Instrs.push_back(AD);
  MInstr VL;
  VL.Op = MOp::VLoadA;
  VL.Kind = ir::ScalarKind::F32;
  VL.Vector = true;
  VL.Dst = V;
  VL.Srcs = {Addr};
  F.Instrs.push_back(VL);
  for (uint32_t I = 0; I < F.Instrs.size(); ++I)
    F.Body.Nodes.push_back({MNodeKind::Instr, I});
  return F;
}

/// Same shape, but the scalar load's address is far past the image.
MFunction oobLoadFn() {
  MFunction F = misalignedLoadFn(16);
  F.Instrs[1].Imm = 1 << 20; // Way out of bounds.
  F.Instrs[3] = MInstr();
  F.Instrs[3].Op = MOp::Load;
  F.Instrs[3].Kind = ir::ScalarKind::F32;
  F.Instrs[3].Dst = 3;
  F.Instrs[3].Srcs = {2};
  return F;
}

struct TrapPair {
  Status VmSt, NativeSt;
  TrapInfo VmTrap, NativeTrap;
};

TrapPair runTrapParity(const MFunction &F, const TargetDesc &T) {
  TrapPair P;
  MemoryImage Mem;
  Mem.addArray(F.Arrays[0], 0);
  for (uint64_t I = 0; I < 64; ++I)
    Mem.pokeFP(0, I, double(I));

  auto Prog = DecodedProgram::build(F, T, Mem, /*Weak=*/false, /*Fuse=*/false);
  VM Machine(Prog, Mem);
  Machine.setTrapRecording(true);
  P.VmSt = Machine.run();
  P.VmTrap = Machine.trapInfo();

  auto NU = codegen::compileNative(F, T, Mem, codegen::NativeOptions{});
  EXPECT_TRUE(NU.ok()) << NU.status().str();
  if (NU.ok()) {
    codegen::NativeExec Exec(NU.take(), Mem);
    P.NativeSt = Exec.run();
    P.NativeTrap = Exec.trapInfo();
  }
  return P;
}

TEST(NativeTrapParityTest, MisalignedVectorLoadMatchesVm) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  for (const TargetDesc &T :
       {target::sseTarget(), target::altivecTarget(), target::avxTarget()}) {
    TrapPair P = runTrapParity(misalignedLoadFn(T.VSBytes), T);
    ASSERT_FALSE(P.VmSt.ok()) << T.Name << ": VM did not trap";
    ASSERT_FALSE(P.NativeSt.ok()) << T.Name << ": native did not trap";
    EXPECT_EQ(P.NativeSt.code(), status::Code::AlignmentTrap) << T.Name;
    EXPECT_EQ(P.NativeSt.code(), P.VmSt.code()) << T.Name;
    EXPECT_EQ(P.NativeSt.layer(), status::Layer::Vm) << T.Name;
    EXPECT_EQ(P.NativeTrap.TrapKind, P.VmTrap.TrapKind) << T.Name;
    EXPECT_EQ(P.NativeTrap.OpIndex, P.VmTrap.OpIndex) << T.Name;
    EXPECT_EQ(P.NativeTrap.Address, P.VmTrap.Address) << T.Name;
    EXPECT_EQ(P.NativeTrap.RequiredAlign, P.VmTrap.RequiredAlign) << T.Name;
    EXPECT_EQ(P.NativeTrap.IsStore, P.VmTrap.IsStore) << T.Name;
    EXPECT_EQ(P.NativeTrap.Target, P.VmTrap.Target) << T.Name;
  }
}

TEST(NativeTrapParityTest, OutOfBoundsScalarLoadMatchesVm) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  TrapPair P = runTrapParity(oobLoadFn(), target::sseTarget());
  ASSERT_FALSE(P.VmSt.ok()) << "VM did not trap";
  ASSERT_FALSE(P.NativeSt.ok()) << "native did not trap";
  EXPECT_EQ(P.NativeSt.code(), status::Code::OutOfBoundsAccess);
  EXPECT_EQ(P.NativeSt.code(), P.VmSt.code());
  EXPECT_EQ(P.NativeTrap.TrapKind, P.VmTrap.TrapKind);
  EXPECT_EQ(P.NativeTrap.OpIndex, P.VmTrap.OpIndex);
  EXPECT_EQ(P.NativeTrap.OpIndex, ~0u) << "OOB carries no op index (as VM)";
  EXPECT_EQ(P.NativeTrap.Address, P.VmTrap.Address);
  EXPECT_EQ(P.NativeTrap.RequiredAlign, 0u);
}

//===--- W^X page lifecycle ------------------------------------------------===//

#if defined(__linux__)
/// \returns the permission string ("r-xp") of the /proc/self/maps entry
/// covering \p Addr, or "" when no mapping covers it.
std::string mappingPerms(uintptr_t Addr) {
  std::ifstream Maps("/proc/self/maps");
  std::string Line;
  while (std::getline(Maps, Line)) {
    uintptr_t Lo = 0, Hi = 0;
    char Perms[8] = {};
    if (std::sscanf(Line.c_str(), "%lx-%lx %7s", &Lo, &Hi, Perms) == 3 &&
        Addr >= Lo && Addr < Hi)
      return Perms;
  }
  return "";
}
#endif

TEST(NativeExecMemTest, SealedCodeIsReadExecuteNeverWritable) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  Kernel K = kernelByName("saxpy_fp");
  auto VR = vectorizer::vectorize(K.Source, {});
  MemoryImage Mem;
  jit::RuntimeInfo RT;
  for (uint32_t A = 0; A < VR.Output.Arrays.size(); ++A) {
    Mem.addArray(VR.Output.Arrays[A], 0);
    RT.Arrays.push_back({true, Mem.base(A)});
  }
  auto CR = jit::compile(VR.Output, target::sseTarget(), RT, {});
  auto NU = codegen::compileNative(CR.Code, target::sseTarget(), Mem,
                                   codegen::NativeOptions{});
  ASSERT_TRUE(NU.ok()) << NU.status().str();
  const codegen::NativeUnit &U = **NU;
  EXPECT_TRUE(U.Code.sealed());
  EXPECT_GE(U.Code.mappedSize(), U.Code.size());
#if defined(__linux__)
  std::string Perms = mappingPerms(reinterpret_cast<uintptr_t>(U.Code.base()));
  EXPECT_EQ(Perms.substr(0, 3), "r-x")
      << "sealed code page is not read-execute: '" << Perms << "'";
#endif
}

TEST(NativeExecMemTest, LifecycleIsStrictAndDoubleFreeSafe) {
  codegen::ExecMem M;
  EXPECT_FALSE(M.seal()) << "sealing an empty mapping must fail";
  if (!codegen::supported())
    GTEST_SKIP() << "stub ExecMem cannot allocate";
  ASSERT_TRUE(M.allocate(64));
  EXPECT_FALSE(M.allocate(64)) << "double allocate must fail";
  std::memset(M.base(), 0xc3, 64); // ret; the region is RW here.
  ASSERT_TRUE(M.seal());
  EXPECT_FALSE(M.seal()) << "sealing is one-way and single-shot";
  EXPECT_TRUE(M.sealed());
  M.release();
  M.release(); // Idempotent: the double release must be a no-op.
  EXPECT_EQ(M.base(), nullptr);
  EXPECT_FALSE(M.sealed());
}

//===--- Deferred ops: every family the builder hands to the VM ------------===//
//
// No registry kernel reaches widen-mult or affine, so the all-kernel sweep
// cannot vouch for them. Each case below hand-builds machine code that
// loads vectors from "in", runs ops of one family the native builder
// does not lower inline, and stores every result to "out"; the native
// image must equal the VM's byte for byte, and the op must have run on a
// VM handler (HelperByOp).

/// Appends straight-line machine code to an MFunction over two arrays:
/// "in" (random I64s) and "out" (zeroed bytes).
class MirBuilder {
public:
  static constexpr uint64_t InBytes = 256, OutBytes = 2048;

  explicit MirBuilder(unsigned VSBytes) {
    F.Name = "deferred_probe";
    F.VSBytes = VSBytes;
    F.Arrays.push_back({"in", ir::ScalarKind::I64, InBytes / 8, 32});
    F.Arrays.push_back({"out", ir::ScalarKind::U8, OutBytes, 32});
    In = base(0);
    Out = base(1);
  }

  MReg imm(ir::ScalarKind K, int64_t V) {
    MInstr I;
    I.Op = MOp::LdImm;
    I.Kind = K;
    I.Imm = V;
    return add(I, F.makeReg(K, false));
  }

  /// A vector of kind \p K loaded from "in" at byte \p At.
  MReg vload(ir::ScalarKind K, int64_t At) {
    MInstr I;
    I.Op = MOp::VLoadU;
    I.Kind = K;
    I.Vector = true;
    I.Srcs = {addr(In, At)};
    return add(I, F.makeReg(K, true));
  }

  /// One op of \p Op / \p Sub producing a \p K register.
  MReg op(MOp Op, ir::Opcode Sub, ir::ScalarKind K, bool Vector,
          std::vector<MReg> Srcs) {
    MInstr I;
    I.Op = Op;
    I.SubOp = Sub;
    I.Kind = K;
    I.Vector = Vector;
    I.Srcs = std::move(Srcs);
    return add(I, F.makeReg(K, Vector));
  }

  /// Stores all of \p R (every lane of a vector) to the next free bytes
  /// of "out".
  void keep(MReg R) {
    const MRegInfo &RI = F.Regs[R];
    unsigned ES = std::max(1u, ir::scalarSize(RI.Kind));
    uint64_t Lanes = RI.Vector ? F.VSBytes / ES : 1;
    MInstr I;
    I.Op = RI.Vector ? MOp::VStoreU : MOp::Store;
    I.Kind = ES == ir::scalarSize(RI.Kind) ? RI.Kind : ir::ScalarKind::U8;
    I.Vector = RI.Vector;
    I.Srcs = {addr(Out, static_cast<int64_t>(Used)), R};
    add(I, NoReg);
    Used += Lanes * ES;
    assert(Used <= OutBytes && "probe output overflows its array");
  }

  MFunction F;

private:
  MReg In = NoReg, Out = NoReg;
  uint64_t Used = 0;

  MReg add(MInstr I, MReg Dst) {
    I.Dst = Dst;
    F.Body.Nodes.push_back(
        {MNodeKind::Instr, static_cast<uint32_t>(F.Instrs.size())});
    F.Instrs.push_back(std::move(I));
    return Dst;
  }
  MReg base(uint32_t Array) {
    MInstr I;
    I.Op = MOp::LoadBase;
    I.Array = Array;
    return add(I, F.makeReg(ir::ScalarKind::I64, false));
  }
  MReg addr(MReg Base, int64_t At) {
    MInstr I;
    I.Op = MOp::Addr;
    I.Srcs = {Base, imm(ir::ScalarKind::I64, At)};
    return add(I, F.makeReg(ir::ScalarKind::I64, false));
  }
};

using SK = ir::ScalarKind;
using ir::Opcode;

void divRemCase(MirBuilder &B) {
  for (SK K : {SK::I8, SK::U16, SK::I32, SK::U64}) {
    MReg X = B.vload(K, 0), Y = B.vload(K, 64);
    B.keep(B.op(MOp::Alu, Opcode::Div, K, true, {X, Y}));
    B.keep(B.op(MOp::Alu, Opcode::Rem, K, true, {X, Y}));
  }
  // Scalar lanes too, with a zero divisor (total: all ones, x).
  MReg X = B.imm(SK::I32, -7), Z = B.imm(SK::I32, 0);
  B.keep(B.op(MOp::Alu, Opcode::Div, SK::I32, false, {X, Z}));
  B.keep(B.op(MOp::Alu, Opcode::Rem, SK::I32, false, {X, Z}));
  // Wide saturating adds have no inline form either.
  MReg P = B.vload(SK::I32, 0), Q = B.vload(SK::I32, 96);
  B.keep(B.op(MOp::Alu, Opcode::AddSatS, SK::I32, true, {P, Q}));
}

void convertCase(MirBuilder &B) {
  MReg I = B.vload(SK::I32, 0);
  MReg F = B.op(MOp::Alu, Opcode::Convert, SK::F32, true, {I});
  B.keep(F);
  B.keep(B.op(MOp::Alu, Opcode::Convert, SK::I32, true, {F}));
  MReg H = B.vload(SK::I16, 32);
  B.keep(B.op(MOp::CallLib, Opcode::Convert, SK::U16, true, {H}));
  MReg S = B.imm(SK::I8, -100);
  B.keep(B.op(MOp::Alu, Opcode::Convert, SK::F64, false, {S}));
  B.keep(B.op(MOp::Alu, Opcode::Convert, SK::U64, false, {S}));
}

void i1AluCase(MirBuilder &B) {
  MReg X = B.vload(SK::I32, 0), Y = B.vload(SK::I32, 48);
  MReg Lt = B.op(MOp::Alu, Opcode::CmpLT, SK::I1, true, {X, Y});
  MReg Ne = B.op(MOp::Alu, Opcode::CmpNE, SK::I1, true, {X, Y});
  for (Opcode Sub : {Opcode::And, Opcode::Xor, Opcode::Or})
    B.keep(B.op(MOp::Alu, Sub, SK::I1, true, {Lt, Ne}));
  B.keep(B.op(MOp::Alu, Opcode::Neg, SK::I1, true, {Lt}));
  MReg T = B.imm(SK::I1, 1), U = B.imm(SK::I1, 0);
  B.keep(B.op(MOp::Alu, Opcode::Add, SK::I1, false, {T, T}));
  B.keep(B.op(MOp::Alu, Opcode::Sub, SK::I1, false, {U, T}));
  // Operands of kind None: the builder defers the compare itself.
  MReg N0 = B.imm(SK::None, 3), N1 = B.imm(SK::None, 5);
  B.keep(B.op(MOp::Alu, Opcode::CmpLT, SK::I1, false, {N0, N1}));
  B.keep(B.op(MOp::Alu, Opcode::CmpEQ, SK::I1, false, {N0, N1}));
}

void widenMultCase(MirBuilder &B) {
  for (SK NK : {SK::I8, SK::U16, SK::I32}) {
    SK WK = ir::widenKind(NK);
    MReg X = B.vload(NK, 0), Y = B.vload(NK, 40);
    B.keep(B.op(MOp::VWMulLo, Opcode::Mul, WK, true, {X, Y}));
    B.keep(B.op(MOp::VWMulHi, Opcode::Mul, WK, true, {X, Y}));
    B.keep(B.op(MOp::CallLib, Opcode::WidenMultLo, WK, true, {X, Y}));
    B.keep(B.op(MOp::CallLib, Opcode::WidenMultHi, WK, true, {X, Y}));
  }
}

void packUnpackCase(MirBuilder &B) {
  for (SK NK : {SK::U8, SK::I16, SK::F32}) {
    SK WK = ir::widenKind(NK);
    MReg N = B.vload(NK, 16);
    MReg Lo = B.op(MOp::VUnpackLo, Opcode::Convert, WK, true, {N});
    MReg Hi = B.op(MOp::VUnpackHi, Opcode::Convert, WK, true, {N});
    B.keep(Lo);
    B.keep(Hi);
    B.keep(B.op(MOp::VPack, Opcode::Convert, NK, true, {Lo, Hi}));
    // Narrowing wide lanes that do not fit the narrow kind.
    MReg W0 = B.vload(WK, 0), W1 = B.vload(WK, 72);
    B.keep(B.op(MOp::VPack, Opcode::Convert, NK, true, {W0, W1}));
  }
}

void dotCase(MirBuilder &B) {
  for (SK NK : {SK::I8, SK::I16, SK::U16}) {
    SK WK = ir::widenKind(NK);
    MReg X = B.vload(NK, 8), Y = B.vload(NK, 56), Acc = B.vload(WK, 120);
    B.keep(B.op(MOp::VDot, Opcode::Add, WK, true, {X, Y, Acc}));
  }
}

void affineCase(MirBuilder &B) {
  for (SK K : {SK::I32, SK::U8, SK::I64})
    B.keep(B.op(MOp::VAffine, Opcode::Add, K, true,
                {B.imm(K, 250), B.imm(K, 3)}));
  MReg Base = B.op(MOp::Alu, Opcode::Convert, SK::F32, false,
                   {B.imm(SK::I32, -3)});
  MReg Inc = B.op(MOp::Alu, Opcode::Convert, SK::F32, false,
                  {B.imm(SK::I32, 7)});
  B.keep(B.op(MOp::VAffine, Opcode::Add, SK::F32, true, {Base, Inc}));
}

void reduceCase(MirBuilder &B) {
  // Inline reductions need a 64-bit ALU kind; I1 has none. Compare
  // results make the vector.
  MReg X = B.vload(SK::I32, 0), Y = B.vload(SK::I32, 48);
  MReg Lt = B.op(MOp::Alu, Opcode::CmpLT, SK::I1, true, {X, Y});
  for (Opcode Sub : {Opcode::Add, Opcode::Max, Opcode::Min})
    B.keep(B.op(MOp::Reduce, Sub, SK::I1, false, {Lt}));
}

struct DeferredCase {
  const char *Name;
  void (*Body)(MirBuilder &);
  std::vector<MOp> Deferred; ///< Ops that must run on VM handlers.
};

const DeferredCase DeferredCases[] = {
    {"div_rem", divRemCase, {MOp::Alu}},
    {"convert", convertCase, {MOp::Alu, MOp::CallLib}},
    {"i1_alu_and_untyped_compare", i1AluCase, {MOp::Alu}},
    {"widen_mult", widenMultCase, {MOp::VWMulLo, MOp::VWMulHi, MOp::CallLib}},
    {"pack_unpack", packUnpackCase,
     {MOp::VPack, MOp::VUnpackLo, MOp::VUnpackHi}},
    {"dot", dotCase, {MOp::VDot}},
    {"affine", affineCase, {MOp::VAffine}},
    {"reduce_i1", reduceCase, {MOp::Reduce}},
};

/// Runs \p C's code on the VM (unfused and fused) and natively over one
/// image layout, and checks that all three leave the same bytes.
void expectDeferredParity(const DeferredCase &C, const TargetDesc &T) {
  MirBuilder B(T.VSBytes);
  C.Body(B);
  const MFunction &F = B.F;
  auto image = [&] {
    auto Mem = std::make_unique<MemoryImage>();
    Mem->addArray(F.Arrays[0], 0);
    Mem->addArray(F.Arrays[1], 0);
    uint64_t X = 0x9e3779b97f4a7c15ull;
    for (uint64_t I = 0; I < F.Arrays[0].NumElems; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      // Keep F32/F64 lanes finite: no float-to-int cast of NaN or inf.
      Mem->pokeInt(0, I, static_cast<int64_t>(X & 0x3fff3fff3fff3fffull));
    }
    return Mem;
  };
  std::string What = std::string(C.Name) + " on " + T.Name;

  std::vector<std::vector<uint8_t>> Images;
  for (bool Fuse : {false, true}) {
    auto Mem = image();
    auto Prog = DecodedProgram::build(F, T, *Mem, /*Weak=*/false, Fuse);
    VM Machine(Prog, *Mem);
    ASSERT_TRUE(Machine.run().ok()) << What;
    const uint8_t *P = Mem->data();
    Images.emplace_back(P, P + (Mem->highAddr() - Mem->lowAddr()));
  }
  EXPECT_EQ(Images[0], Images[1]) << What << ": fusion changed the result";

  auto Mem = image();
  auto NU = codegen::compileNative(F, T, *Mem, codegen::NativeOptions{});
  ASSERT_TRUE(NU.ok()) << What << ": " << NU.status().str();
  std::shared_ptr<const codegen::NativeUnit> Unit = NU.take();
  for (MOp Op : C.Deferred)
    EXPECT_GT(Unit->Stats.HelperByOp[static_cast<unsigned>(Op)], 0u)
        << What << ": MOp " << static_cast<unsigned>(Op)
        << " did not run on a VM handler";
  codegen::NativeExec Exec(Unit, *Mem);
  ASSERT_TRUE(Exec.run().ok()) << What;
  const uint8_t *P = Mem->data();
  std::vector<uint8_t> Native(P, P + (Mem->highAddr() - Mem->lowAddr()));
  ASSERT_EQ(Native.size(), Images[0].size()) << What;
  for (size_t I = 0; I < Native.size(); ++I)
    ASSERT_EQ(Native[I], Images[0][I])
        << What << ": native and VM differ at image byte " << I;
}

TEST(NativeDeferredOpTest, EveryFamilyMatchesTheVmBitForBit) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  for (const DeferredCase &C : DeferredCases)
    for (const TargetDesc &T : {target::sseTarget(), target::avxTarget()})
      expectDeferredParity(C, T);
}

//===--- Code-shape reporting ----------------------------------------------===//

TEST(NativeStatsTest, ReportsInlineAndHelperBreakdown) {
  if (!codegen::supported())
    GTEST_SKIP() << "native tier unsupported on this host";
  Kernel K = kernelByName("saxpy_fp");
  RunOptions O;
  O.Target = target::sseTarget();
  O.UseNative = true;
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  ASSERT_EQ(Out.Tier, ExecTier::Native);
  const codegen::NativeStats &S = Out.NativeCode;
  EXPECT_GT(S.MInstrs, 0u);
  EXPECT_GT(S.InlineOps, 0u);
  EXPECT_GT(S.CodeBytes, 0u);
  EXPECT_FALSE(S.FeaturesUsed.empty());
  uint64_t ByOp = 0;
  for (unsigned I = 0; I < codegen::NumMOps; ++I)
    ByOp += S.InlineByOp[I] + S.HelperByOp[I];
  EXPECT_EQ(ByOp, S.InlineOps + S.HelperOps)
      << "per-op breakdown disagrees with the totals";
}

} // namespace
