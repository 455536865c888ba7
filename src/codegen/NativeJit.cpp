//===- codegen/NativeJit.cpp - MachineIR -> x86-64 binary emitter ----------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// Bit-exactness strategy: the builder below is a line-for-line mirror of
// the VM decoder's flattening walk (VM.cpp, VMDecoder). It lays out the
// same lane file, visits the region tree in the same order, and keeps an
// op *ordinal* that advances exactly when the decoder would emit a DOp,
// so trap attribution (pre-fusion PC) matches the VM without a mapping
// table. Each op is either lowered to x86-64 whose result provably
// equals the ScalarOps semantics, or decoded by the VM decoder itself
// and run by a call into the VM handler it picked, on the VM's lane file.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeJit.h"

#include "codegen/Emitter.h"
#include "ir/ScalarOps.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/Support.h"

#include <algorithm>
#include <cstring>
#include <string>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::target;
using namespace vapor::codegen;

//===----------------------------------------------------------------------===//
// The builder.
//===----------------------------------------------------------------------===//

namespace {

/// A pending jcc into a not-yet-emitted trap stub.
struct TrapFix {
  size_t Pos = 0;      ///< rel32 fixup position.
  uint32_t OpIdx = 0;  ///< Pre-fusion ordinal (~0u for bounds, as VM).
  uint32_t Align = 0;  ///< Required alignment (0 for bounds).
  bool IsStore = false;
  uint32_t Code = 0; ///< Entry return value: 1 align, 2 OOB.
};

/// Entry return value of a run whose op budget ran out at a back-edge.
constexpr uint32_t DeadlineRc = 3;

/// A movabs whose imm64 becomes the address of deferred op Op once the
/// unit's op array stops growing.
struct OpFix {
  size_t Pos = 0; ///< Offset of the imm64 in the code.
  uint32_t Op = 0;
};

class NativeBuilder {
public:
  NativeBuilder(const MFunction &Fn, const TargetDesc &Target,
                const MemoryImage &Image, const CpuFeatures &Features,
                const ElisionPlan *Elide, NativeUnit &Unit)
      : F(Fn), T(Target), Mem(Image), FX(Features), Plan(Elide), U(Unit),
        Lay(U.Deferred.layOut(F)), Off(Lay.Off), RegLanes(Lay.Lanes),
        ScratchLane(U.Deferred.LaneCount++) {
    E.UseVEX = FX.AVX;
  }

  void build() {
    prologue();
    region(F.Body);
    E.aluRR(0x31, RAX, RAX, false); // xor eax, eax: clean completion.
    size_t LDone = E.here();
    epilogue();

    if (!DeadlineFixes.empty()) {
      for (size_t Pos : DeadlineFixes)
        E.patch32(Pos, E.here());
      E.movImm32(RAX, DeadlineRc);
      E.jmpTo(LDone);
    }

    // Trap stubs live after the ret; each jcc above lands on its own.
    for (const TrapFix &T : TrapFixes) {
      E.patch32(T.Pos, E.here());
      E.movMR64(RBP, 32, RAX); // TrapAddr (rax holds the address).
      E.movMImm32(RBP, 40, T.OpIdx);
      E.movMImm32(RBP, 44, T.Align);
      E.movMImm8(RBP, 48, T.IsStore ? 1 : 0);
      E.movImm32(RAX, T.Code);
      E.jmpTo(LDone);
    }

    // The op array is final: bake each deferred op's address.
    for (const OpFix &X : OpFixes)
      E.patch64(X.Pos, reinterpret_cast<uintptr_t>(&U.Deferred.Code[X.Op]));

    U.Deferred.TargetName = T.Name;
    U.Stats.CodeBytes = E.code().size();
    U.Stats.FeaturesUsed = FX.str();
  }

  const std::vector<uint8_t> &code() const { return E.code(); }

private:
  using DOp = DecodedProgram::DOp;

  const MFunction &F;
  const TargetDesc &T;
  const MemoryImage &Mem;
  const CpuFeatures &FX;
  const ElisionPlan *Plan; ///< Checked elision grants (may be null).
  NativeUnit &U;
  Emitter E;

  /// The VM decoder's lane file, plus one scratch lane past its end.
  const DecodedProgram::Layout Lay;
  const std::vector<uint32_t> &Off;      ///< Lane-file offset per register.
  const std::vector<uint16_t> &RegLanes; ///< Lane count per register.
  const uint32_t ScratchLane;            ///< Reduction accumulator lane.
  uint32_t Ordinal = 0; ///< Pre-fusion PC, lockstep with the VM.
  std::vector<TrapFix> TrapFixes;
  std::vector<size_t> DeadlineFixes; ///< Back-edge jccs to the budget stub.
  std::vector<OpFix> OpFixes;

  static int32_t d(uint32_t Lane) { return static_cast<int32_t>(Lane * 8); }

  //===--- Frame ----------------------------------------------------------===//

  void prologue() {
    // Entry: rdi = NativeContext*. Pin the hot state in callee-saved
    // registers: rbx = lane base, rbp = ctx, r12 = MemBias, r13 = MemLo,
    // r14 = MemHi, r15 = op budget. Six pushes + 8 keeps rsp 16-aligned
    // at call sites.
    E.push(RBX);
    E.push(RBP);
    E.push(R12);
    E.push(R13);
    E.push(R14);
    E.push(R15);
    E.subImm64(RSP, 8);
    E.movRR64(RBP, RDI);
    E.movRM64(RBX, RDI, 0);
    E.movRM64(R12, RDI, 8);
    E.movRM64(R13, RDI, 16);
    E.movRM64(R14, RDI, 24);
    E.movRM64(R15, RDI, 80);
  }

  void epilogue() {
    if (E.UseVEX)
      E.vzeroupper();
    E.addImm64(RSP, 8);
    E.pop(R15);
    E.pop(R14);
    E.pop(R13);
    E.pop(R12);
    E.pop(RBP);
    E.pop(RBX);
    E.ret();
  }

  //===--- Trap checks ----------------------------------------------------===//
  // The faulting address must be in rax when the jcc fires.

  void alignCheck(uint32_t Mask, uint32_t Ord, bool IsStore) {
    if (!Mask)
      return; // Scalar-width "vectors" are always aligned.
    E.testImm(RAX, Mask);
    TrapFixes.push_back({E.jcc(CC::NE), Ord, Mask + 1, IsStore, 1});
  }

  void boundsCheck(uint64_t Size) {
    // VM: Addr < MemLo || Addr + Size > MemHi, with uint64 wraparound.
    E.cmpRR64(RAX, R13);
    TrapFixes.push_back({E.jcc(CC::B), ~0u, 0, false, 2});
    E.lea(RCX, RAX, static_cast<int32_t>(Size));
    E.cmpRR64(RCX, R14);
    TrapFixes.push_back({E.jcc(CC::A), ~0u, 0, false, 2});
  }

  /// Audit-mode counting: increments the context counters when the
  /// check predicate would genuinely fire, leaving all trap checks
  /// live. Mirrors the VM's auditCount preamble.
  void auditAlign(uint32_t Mask) {
    if (!Mask)
      return;
    E.testImm(RAX, Mask);
    size_t Skip = E.jcc(CC::E);
    E.incM64(RBP, 56); // NativeContext::AuditAlign
    E.patch32(Skip, E.here());
  }

  void auditBounds(uint64_t Size) {
    E.cmpRR64(RAX, R13);
    size_t Fire1 = E.jcc(CC::B);
    E.lea(RCX, RAX, static_cast<int32_t>(Size));
    E.cmpRR64(RCX, R14);
    size_t Fire2 = E.jcc(CC::A);
    size_t Skip = E.jmp();
    E.patch32(Fire1, E.here());
    E.patch32(Fire2, E.here());
    E.incM64(RBP, 64); // NativeContext::AuditBounds
    E.patch32(Skip, E.here());
  }

  /// Emits the check sequence for a memory access whose address is in
  /// rax, honoring the elision plan with exactly the VM decoder's
  /// VMCheck mapping: on aligned ops the align grant gates everything
  /// (a bounds-only grant elides nothing); audit mode keeps every check
  /// live and counts would-have-fired predicates first.
  void memChecks(const MInstr &I, bool Aligned, uint32_t Ord, bool IsStore,
                 uint64_t Size) {
    uint8_t G = Plan ? Plan->provenBits(I.SrcInstr) : 0;
    bool Audit = Plan && Plan->Mode == ElisionMode::Audit;
    if (Aligned) {
      uint32_t Mask = F.VSBytes - 1;
      if (Audit && (G & ElisionPlan::AlignBit)) {
        // The VM's AuditAlign state counts both predicates.
        auditAlign(Mask);
        auditBounds(Size);
      }
      bool ElideA = !Audit && (G & ElisionPlan::AlignBit);
      if (!ElideA)
        alignCheck(Mask, Ord, IsStore);
      if (!(ElideA && (G & ElisionPlan::BoundsBit)))
        boundsCheck(Size);
    } else {
      if (Audit && (G & ElisionPlan::BoundsBit))
        auditBounds(Size);
      if (Audit || !(G & ElisionPlan::BoundsBit))
        boundsCheck(Size);
    }
  }

  //===--- Region walk (mirrors VMDecoder) --------------------------------===//

  void region(const MRegion &R) {
    for (const MNodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case MNodeKind::Instr:
        instr(F.Instrs[N.Index]);
        break;
      case MNodeKind::Loop:
        loop(F.Loops[N.Index]);
        break;
      case MNodeKind::If:
        ifStmt(F.Ifs[N.Index]);
        break;
      }
    }
  }

  /// Synthetic full-register copy (loop plumbing). One ordinal, exactly
  /// like the decoder's emitCopy -- skipped entirely when Dst == Src.
  void emitCopy(MReg Dst, MReg Src) {
    if (Dst == Src)
      return;
    copyLanes(Off[Dst], Off[Src], RegLanes[Dst]);
    ++Ordinal;
  }

  void loop(const MLoop &L) {
    emitCopy(L.IndVar, L.Lower);
    for (const MLoop::CarriedVar &C : L.Carried)
      emitCopy(C.Phi, C.Init);
    // HEAD: if ((int64)iv >= (int64)upper) goto END.
    size_t HeadPos = E.here();
    E.movRM64(RAX, RBX, d(Off[L.IndVar]));
    E.cmpRM64(RAX, RBX, d(Off[L.Upper]));
    size_t ExitFix = E.jcc(CC::GE);
    const uint32_t HeadOrd = Ordinal++; // The head DOp.

    region(L.Body);

    for (const MLoop::CarriedVar &C : L.Carried)
      if (C.Next != NoReg)
        emitCopy(C.Phi, C.Next);
    // LATCH: iv += step; goto HEAD.
    E.movRM64(RAX, RBX, d(Off[L.Step]));
    E.aluMR64(0x01, RBX, d(Off[L.IndVar]), RAX);
    ++Ordinal; // The latch DOp.
    // Every iteration passes here, so charging the loop's ops (head to
    // latch) bounds every loop nest: sub r15, ops; jb deadline.
    E.subImm64(R15, static_cast<int32_t>(Ordinal - HeadOrd));
    DeadlineFixes.push_back(E.jcc(CC::B));
    E.jmpTo(HeadPos);
    E.patch32(ExitFix, E.here());
  }

  void ifStmt(const MIf &S) {
    E.testM8(RBX, d(Off[S.Cond]), 1);
    size_t ElseFix = E.jcc(CC::E);
    ++Ordinal; // The branch DOp.
    region(S.Then);
    size_t EndFix = E.jmp();
    ++Ordinal; // The jump DOp.
    E.patch32(ElseFix, E.here());
    region(S.Else);
    E.patch32(EndFix, E.here());
  }

  //===--- Lane-level code patterns ---------------------------------------===//

  /// Loads lane \p Lane decoded per \p K: sign-extended for signed
  /// sub-64 kinds, canonical (zero-extended) otherwise.
  void loadDecoded(unsigned Dst, uint32_t Lane, ScalarKind K) {
    unsigned ES = scalarSize(K);
    if (isSignedKind(K) && ES < 8)
      E.movsxRM(Dst, RBX, d(Lane), ES);
    else
      E.movRM64(Dst, RBX, d(Lane));
  }

  /// Masks \p Reg back to the canonical encoding of \p K.
  void maskTo(unsigned Reg, ScalarKind K) {
    unsigned ES = scalarSize(K);
    if (ES >= 8)
      return;
    if (ES == 4)
      E.movRR32(Reg, Reg); // mov r32, r32 zero-extends.
    else
      E.andImm32(Reg, static_cast<uint32_t>(laneMask(K)));
  }

  /// Stores xmm0 to lane \p Lane canonically (F32 zero-extends the
  /// 32-bit pattern through a GPR; a movss store would leave stale
  /// high bytes in the slot).
  void storeF(ScalarKind K, uint32_t Lane) {
    if (K == ScalarKind::F64) {
      E.sseMemDisp(3, 0x11, 0, RBX, d(Lane)); // movsd [lane], xmm0
    } else {
      E.movdFromXmm(RAX, 0); // movd eax, xmm0 (zero-extends).
      E.movMR64(RBX, d(Lane), RAX);
    }
  }

  static bool fpOpc(Opcode Op, uint8_t &Opc) {
    switch (Op) {
    case Opcode::Add:
      Opc = 0x58;
      return true;
    case Opcode::Sub:
      Opc = 0x5C;
      return true;
    case Opcode::Mul:
      Opc = 0x59;
      return true;
    case Opcode::Div:
      Opc = 0x5E;
      return true;
    case Opcode::Min:
      Opc = 0x5D; // minsd(X, Y) == X < Y ? X : Y, NaN -> Y: exact match.
      return true;
    case Opcode::Max:
      Opc = 0x5F; // maxsd(X, Y) == X > Y ? X : Y, NaN -> Y: exact match.
      return true;
    default:
      return false;
    }
  }

  /// Legacy-SSE packed integer opcodes usable on canonical 64-bit lanes.
  static bool intPackedOpc(Opcode Op, uint8_t &Opc) {
    switch (Op) {
    case Opcode::Add:
      Opc = 0xD4; // paddq
      return true;
    case Opcode::Sub:
      Opc = 0xFB; // psubq
      return true;
    case Opcode::And:
      Opc = 0xDB; // pand
      return true;
    case Opcode::Or:
      Opc = 0xEB; // por
      return true;
    case Opcode::Xor:
      Opc = 0xEF; // pxor
      return true;
    default:
      return false;
    }
  }

  /// SSE2 byte/word-wise packed forms that are lane-exact on canonical
  /// 64-bit lane slots: the live value sits in byte/word 0 of each slot
  /// and the zero high bytes are fixpoints of the operation (0 satop 0,
  /// min/max(0, 0) == 0), so a 16-byte chunk processes 2 lanes at once
  /// without ever mixing them. Restricted to the kinds whose ScalarOps
  /// semantics the hardware form matches exactly: saturating ops on the
  /// kind of their signedness, pmin/pmaxub on U8, pmin/pmaxsw on I16
  /// (the only narrow min/max encodings legacy SSE2 has).
  static bool narrowPackedOpc(Opcode Op, ScalarKind K, uint8_t &Opc) {
    bool S = isSignedKind(K);
    if (scalarSize(K) == 1) {
      switch (Op) {
      case Opcode::AddSatS:
        Opc = 0xEC; // paddsb
        return S;
      case Opcode::SubSatS:
        Opc = 0xE8; // psubsb
        return S;
      case Opcode::AddSatU:
        Opc = 0xDC; // paddusb
        return !S;
      case Opcode::SubSatU:
        Opc = 0xD8; // psubusb
        return !S;
      case Opcode::Min:
        Opc = 0xDA; // pminub
        return !S;
      case Opcode::Max:
        Opc = 0xDE; // pmaxub
        return !S;
      default:
        return false;
      }
    }
    if (scalarSize(K) == 2) {
      switch (Op) {
      case Opcode::AddSatS:
        Opc = 0xED; // paddsw
        return S;
      case Opcode::SubSatS:
        Opc = 0xE9; // psubsw
        return S;
      case Opcode::AddSatU:
        Opc = 0xDD; // paddusw
        return !S;
      case Opcode::SubSatU:
        Opc = 0xD9; // psubusw
        return !S;
      case Opcode::Min:
        Opc = 0xEA; // pminsw
        return S;
      case Opcode::Max:
        Opc = 0xEE; // pmaxsw
        return S;
      default:
        return false;
      }
    }
    return false;
  }

  static bool inlinableBin(Opcode Op, ScalarKind K) {
    if (K == ScalarKind::None || K == ScalarKind::I1)
      return false; // ScalarOps' kind dispatch is subtle there: VM handler.
    if (isFloatKind(K)) {
      uint8_t Opc;
      return fpOpc(Op, Opc);
    }
    switch (Op) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Min:
    case Opcode::Max:
    case Opcode::Shl:
    case Opcode::ShrL:
    case Opcode::ShrA:
      return true;
    case Opcode::AddSatS:
    case Opcode::AddSatU:
    case Opcode::SubSatS:
    case Opcode::SubSatU:
      // Narrow kinds only (the verifier's contract); the clamp bounds
      // then fit an imm and the 64-bit intermediate cannot overflow.
      return scalarSize(K) <= 2;
    default:
      return false; // Div/Rem: the VM's total ir::divRemInt, no idiv.
    }
  }

  static bool inlinableUn(Opcode Op, ScalarKind K) {
    if (K == ScalarKind::None || K == ScalarKind::I1)
      return false;
    if (isFloatKind(K))
      return Op == Opcode::Neg || Op == Opcode::Abs || Op == Opcode::Sqrt;
    return Op == Opcode::Neg || Op == Opcode::Abs;
  }

  /// One scalar lane of applyBinop, lane-file in, lane-file out.
  void binLane(Opcode Sub, ScalarKind K, uint32_t A, uint32_t B, uint32_t C) {
    unsigned ES = scalarSize(K);
    if (isFloatKind(K)) {
      unsigned PP = K == ScalarKind::F64 ? 3 : 2; // F2 sd / F3 ss.
      uint8_t Opc = 0;
      fpOpc(Sub, Opc);
      E.sseMemDisp(PP, 0x10, 0, RBX, d(B)); // movs[sd] xmm0, [B]
      E.sseRM(PP, Opc, 0, RBX, d(C));       // op xmm0, [C]
      storeF(K, A);
      return;
    }
    switch (Sub) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor: {
      // Canonical-in, canonical-out: 64-bit ops for ES==8, 32-bit ops
      // (auto zero-extending) for ES==4, 32-bit + mask below that.
      uint8_t Opc = Sub == Opcode::Add   ? 0x03
                    : Sub == Opcode::Sub ? 0x2B
                    : Sub == Opcode::And ? 0x23
                    : Sub == Opcode::Or  ? 0x0B
                                         : 0x33;
      E.movRM64(RAX, RBX, d(B));
      E.aluRM(Opc, RAX, RBX, d(C), /*W=*/ES == 8);
      if (ES < 4)
        E.andImm32(RAX, static_cast<uint32_t>(laneMask(K)));
      break;
    }
    case Opcode::Mul:
      E.movRM64(RAX, RBX, d(B));
      E.imulRM(RAX, RBX, d(C), /*W=*/ES == 8);
      if (ES < 4)
        E.andImm32(RAX, static_cast<uint32_t>(laneMask(K)));
      break;
    case Opcode::Min:
    case Opcode::Max: {
      loadDecoded(RAX, B, K);
      loadDecoded(RCX, C, K);
      E.cmpRR64(RAX, RCX);
      bool S = isSignedKind(K);
      CC C2 = Sub == Opcode::Min ? (S ? CC::G : CC::A)  // replace if X > Y
                                 : (S ? CC::L : CC::B); // replace if X < Y
      E.cmov(C2, RAX, RCX);
      if (S)
        maskTo(RAX, K);
      break;
    }
    case Opcode::Shl:
      E.movRM64(RCX, RBX, d(C));
      E.andImm32(RCX, ES * 8 - 1);
      E.movRM64(RAX, RBX, d(B));
      E.shiftCl(4, RAX, /*W=*/ES == 8);
      if (ES < 4)
        E.andImm32(RAX, static_cast<uint32_t>(laneMask(K)));
      break;
    case Opcode::ShrL:
      E.movRM64(RCX, RBX, d(C));
      E.andImm32(RCX, ES * 8 - 1);
      E.movRM64(RAX, RBX, d(B)); // Canonical >> amt stays canonical.
      E.shiftCl(5, RAX, /*W=*/true);
      break;
    case Opcode::ShrA:
      E.movRM64(RCX, RBX, d(C));
      E.andImm32(RCX, ES * 8 - 1);
      loadDecoded(RAX, B, K); // sar of the sign-extended value...
      E.shiftCl(7, RAX, /*W=*/true);
      if (isSignedKind(K))
        maskTo(RAX, K); // ...re-encoded. Unsigned decode is nonneg: exact.
      break;
    case Opcode::AddSatS:
    case Opcode::AddSatU:
    case Opcode::SubSatS:
    case Opcode::SubSatU: {
      // Decoded 64-bit add/sub, then a two-sided clamp to the kind's
      // range. Narrow kinds only (inlinableBin), so the intermediate
      // never overflows and both bounds fit a signed imm.
      bool S = Sub == Opcode::AddSatS || Sub == Opcode::SubSatS;
      loadDecoded(RAX, B, K);
      loadDecoded(RCX, C, K);
      if (Sub == Opcode::AddSatS || Sub == Opcode::AddSatU)
        E.addRR64(RAX, RCX);
      else
        E.subRR64(RAX, RCX);
      uint64_t Hi = S ? laneMask(K) >> 1 : laneMask(K);
      E.movImm64(RCX, Hi);
      E.cmpRR64(RAX, RCX);
      E.cmov(CC::G, RAX, RCX);
      E.movImm64(RCX, S ? ~Hi : 0); // Signed low bound is -(Hi+1).
      E.cmpRR64(RAX, RCX);
      E.cmov(CC::L, RAX, RCX);
      E.andImm32(RAX, static_cast<uint32_t>(laneMask(K)));
      break;
    }
    default:
      vapor_unreachable("binLane on a non-inlinable opcode");
    }
    E.movMR64(RBX, d(A), RAX);
  }

  /// One scalar lane of applyCompare at operand kind \p SK. I1 operands
  /// decode to 0/1 either way, so the unsigned path covers them.
  void cmpLane(Opcode Sub, ScalarKind SK, uint32_t A, uint32_t B, uint32_t C) {
    CC Cond;
    if (isFloatKind(SK)) {
      bool F64 = SK == ScalarKind::F64;
      unsigned PP = F64 ? 3 : 2;
      E.sseMemDisp(PP, 0x10, 0, RBX, d(B));
      E.sseMemDisp(PP, 0x10, 1, RBX, d(C));
      // The VM compares through a 3-way Rel with NaN -> 0 ("equal"), so
      // EQ/LE/GE are *true* on NaN and LT/GT/NE false. ucomis flags on
      // unordered (ZF=CF=1) give exactly that with the codes below.
      switch (Sub) {
      case Opcode::CmpEQ:
        E.ucomis(F64, 0, 1);
        Cond = CC::E;
        break;
      case Opcode::CmpNE:
        E.ucomis(F64, 0, 1);
        Cond = CC::NE;
        break;
      case Opcode::CmpGT:
        E.ucomis(F64, 0, 1);
        Cond = CC::A;
        break;
      case Opcode::CmpLE:
        E.ucomis(F64, 0, 1);
        Cond = CC::BE;
        break;
      case Opcode::CmpLT: // X < Y  ==  Y > X with swapped operands.
        E.ucomis(F64, 1, 0);
        Cond = CC::A;
        break;
      default: // CmpGE == Y <= X swapped.
        E.ucomis(F64, 1, 0);
        Cond = CC::BE;
        break;
      }
    } else {
      bool S = isSignedKind(SK);
      if (S) {
        loadDecoded(RAX, B, SK);
        loadDecoded(RCX, C, SK);
      } else {
        E.movRM64(RAX, RBX, d(B));
        E.movRM64(RCX, RBX, d(C));
      }
      E.cmpRR64(RAX, RCX);
      switch (Sub) {
      case Opcode::CmpEQ:
        Cond = CC::E;
        break;
      case Opcode::CmpNE:
        Cond = CC::NE;
        break;
      case Opcode::CmpLT:
        Cond = S ? CC::L : CC::B;
        break;
      case Opcode::CmpLE:
        Cond = S ? CC::LE : CC::BE;
        break;
      case Opcode::CmpGT:
        Cond = S ? CC::G : CC::A;
        break;
      default:
        Cond = S ? CC::GE : CC::AE;
        break;
      }
    }
    E.setcc(Cond, RAX);
    E.movzxR8(RAX, RAX);
    E.movMR64(RBX, d(A), RAX);
  }

  void selLane(uint32_t A, uint32_t B, uint32_t C, uint32_t Dl) {
    E.movRM64(RCX, RBX, d(C));
    E.movRM64(RDX, RBX, d(Dl));
    E.testM8(RBX, d(B), 1);
    E.cmov(CC::E, RCX, RDX); // Bit clear -> take the else value.
    E.movMR64(RBX, d(A), RCX);
  }

  void unLane(Opcode Sub, ScalarKind K, uint32_t A, uint32_t B) {
    if (isFloatKind(K)) {
      bool F64 = K == ScalarKind::F64;
      if (Sub == Opcode::Sqrt) {
        unsigned PP = F64 ? 3 : 2;
        E.sseMemDisp(PP, 0x10, 0, RBX, d(B));
        E.sseRR(PP, 0x51, 0, 0); // sqrts[sd] xmm0, xmm0
        storeF(K, A);
        return;
      }
      // Neg/Abs are sign-bit games on the raw encoding.
      E.movRM64(RAX, RBX, d(B));
      if (F64) {
        E.movImm64(RCX, Sub == Opcode::Neg ? 0x8000000000000000ULL
                                           : 0x7FFFFFFFFFFFFFFFULL);
        if (Sub == Opcode::Neg)
          E.xorRR64(RAX, RCX);
        else
          E.andRR64(RAX, RCX);
      } else {
        if (Sub == Opcode::Neg)
          E.aluImm32(6, RAX, static_cast<int32_t>(0x80000000u), false);
        else
          E.andImm32(RAX, 0x7FFFFFFFu);
      }
      E.movMR64(RBX, d(A), RAX);
      return;
    }
    // Integer Neg/Abs on the decoded value, re-encoded. Abs follows
    // decodeInt exactly, including U64's wrap-through-signed behavior.
    loadDecoded(RAX, B, K);
    if (Sub == Opcode::Neg) {
      E.negR(RAX, true);
    } else {
      E.movRR64(RCX, RAX);
      E.negR(RCX, true);
      E.testRR64(RAX, RAX);
      E.cmov(CC::S, RAX, RCX);
    }
    maskTo(RAX, K);
    E.movMR64(RBX, d(A), RAX);
  }

  //===--- Vector helpers -------------------------------------------------===//

  /// Lane-file block copy; SIMD-chunked (addresses are 16B-aligned only
  /// by luck, so always the unaligned encodings).
  void copyLanes(uint32_t Dst, uint32_t Src, uint32_t Lanes) {
    if (Dst == Src)
      return;
    uint32_t L = 0;
    while (FX.AVX && Lanes - L >= 4) {
      E.sseMemDisp(2, 0x6F, 0, RBX, d(Src + L), /*L256=*/true);
      E.sseMemDisp(2, 0x7F, 0, RBX, d(Dst + L), /*L256=*/true);
      ++U.Stats.VexChunks;
      L += 4;
    }
    while (Lanes - L >= 2) {
      E.sseMemDisp(2, 0x6F, 0, RBX, d(Src + L));
      E.sseMemDisp(2, 0x7F, 0, RBX, d(Dst + L));
      L += 2;
    }
    for (; L < Lanes; ++L) {
      E.movRM64(RAX, RBX, d(Src + L));
      E.movMR64(RBX, d(Dst + L), RAX);
    }
  }

  /// Lane-wise binop over a register; packs canonical 64-bit lanes with
  /// SSE2/VEX where an exact packed form exists, scalar otherwise.
  void vecBin(Opcode Sub, ScalarKind K, uint32_t A, uint32_t B, uint32_t C,
              uint32_t Lanes) {
    uint8_t Opc = 0;
    unsigned LoadPP = 0, OpPP = 0;
    uint8_t LoadOpc = 0, StoreOpc = 0;
    bool Packed = false, YmmOk = false;
    if (scalarSize(K) == 8) {
      if (K == ScalarKind::F64 && fpOpc(Sub, Opc)) {
        // movupd + packed-double arithmetic; IEEE ops are lane-exact.
        Packed = true;
        LoadPP = 1;
        OpPP = 1;
        LoadOpc = 0x10;
        StoreOpc = 0x11;
        YmmOk = FX.AVX;
      } else if (isIntKind(K) && intPackedOpc(Sub, Opc)) {
        // movdqu + 64-bit packed int; wraparound is lane-exact.
        Packed = true;
        LoadPP = 2;
        OpPP = 1;
        LoadOpc = 0x6F;
        StoreOpc = 0x7F;
        YmmOk = FX.AVX2; // 256-bit integer ALU needs AVX2, not AVX.
      }
    } else if (isIntKind(K) && scalarSize(K) <= 2 &&
               narrowPackedOpc(Sub, K, Opc)) {
      // Saturating / narrow min-max forms, 2 canonical slots per chunk
      // (see narrowPackedOpc for the lane-exactness argument).
      Packed = true;
      LoadPP = 2;
      OpPP = 1;
      LoadOpc = 0x6F;
      StoreOpc = 0x7F;
      YmmOk = FX.AVX2;
    }
    // Both operands go through unaligned loads and the arithmetic is
    // register-register: lane-file vectors start at arbitrary 8-byte
    // offsets, and legacy-SSE packed ops with memory operands #GP on
    // anything not 16-aligned (VEX forms tolerate it, but the code must
    // be correct on the SSE2 baseline too).
    uint32_t L = 0;
    if (Packed) {
      while (YmmOk && Lanes - L >= 4) {
        E.sseMemDisp(LoadPP, LoadOpc, 0, RBX, d(B + L), /*L256=*/true);
        E.sseMemDisp(LoadPP, LoadOpc, 1, RBX, d(C + L), /*L256=*/true);
        E.sseRR(OpPP, Opc, 0, 1, /*L256=*/true);
        E.sseMemDisp(LoadPP, StoreOpc, 0, RBX, d(A + L), /*L256=*/true);
        ++U.Stats.PackedOps;
        ++U.Stats.VexChunks;
        L += 4;
      }
      while (Lanes - L >= 2) {
        E.sseMemDisp(LoadPP, LoadOpc, 0, RBX, d(B + L));
        E.sseMemDisp(LoadPP, LoadOpc, 1, RBX, d(C + L));
        E.sseRR(OpPP, Opc, 0, 1);
        E.sseMemDisp(LoadPP, StoreOpc, 0, RBX, d(A + L));
        ++U.Stats.PackedOps;
        L += 2;
      }
    }
    for (; L < Lanes; ++L)
      binLane(Sub, K, A + L, B + L, C + L);
  }

  //===--- Guest memory ---------------------------------------------------===//
  // Guest virtual address in rax; host pointer is [rax + r12 (+ disp)].
  // Guest buffers carry no alignment promise to *us*, so every host
  // access uses unaligned encodings; the architectural alignment trap
  // is the explicit check, exactly like the VM.

  void vload(const MInstr &I, bool Aligned, uint32_t Ord) {
    uint32_t A = Off[I.Dst], Lanes = RegLanes[I.Dst];
    unsigned ES = scalarSize(I.Kind);
    E.movRM64(RAX, RBX, d(Off[I.Srcs[0]]));
    memChecks(I, Aligned, Ord, /*IsStore=*/false,
              static_cast<uint64_t>(Lanes) * ES);
    if (ES == 8) {
      uint32_t L = 0;
      while (FX.AVX && Lanes - L >= 4) {
        E.sseMemSib(2, 0x6F, 0, RAX, R12, d(L), /*L256=*/true);
        E.sseMemDisp(2, 0x7F, 0, RBX, d(A + L), /*L256=*/true);
        ++U.Stats.PackedOps;
        ++U.Stats.VexChunks;
        L += 4;
      }
      while (Lanes - L >= 2) {
        E.sseMemSib(2, 0x6F, 0, RAX, R12, d(L));
        E.sseMemDisp(2, 0x7F, 0, RBX, d(A + L));
        ++U.Stats.PackedOps;
        L += 2;
      }
      for (; L < Lanes; ++L) {
        E.movRMSib(RCX, RAX, R12, d(L), 8);
        E.movMR64(RBX, d(A + L), RCX);
      }
    } else {
      // Sub-64 lanes: per-lane zero-extending loads (ld<ES> semantics).
      for (uint32_t L = 0; L < Lanes; ++L) {
        E.movRMSib(RCX, RAX, R12, static_cast<int32_t>(L * ES), ES);
        E.movMR64(RBX, d(A + L), RCX);
      }
    }
  }

  void vstore(const MInstr &I, bool Aligned, uint32_t Ord) {
    uint32_t B = Off[I.Srcs[1]], Lanes = RegLanes[I.Srcs[1]];
    unsigned ES = scalarSize(I.Kind);
    E.movRM64(RAX, RBX, d(Off[I.Srcs[0]]));
    memChecks(I, Aligned, Ord, /*IsStore=*/true,
              static_cast<uint64_t>(Lanes) * ES);
    if (ES == 8) {
      uint32_t L = 0;
      while (FX.AVX && Lanes - L >= 4) {
        E.sseMemDisp(2, 0x6F, 0, RBX, d(B + L), /*L256=*/true);
        E.sseMemSib(2, 0x7F, 0, RAX, R12, d(L), /*L256=*/true);
        ++U.Stats.PackedOps;
        ++U.Stats.VexChunks;
        L += 4;
      }
      while (Lanes - L >= 2) {
        E.sseMemDisp(2, 0x6F, 0, RBX, d(B + L));
        E.sseMemSib(2, 0x7F, 0, RAX, R12, d(L));
        ++U.Stats.PackedOps;
        L += 2;
      }
      for (; L < Lanes; ++L) {
        E.movRM64(RCX, RBX, d(B + L));
        E.movMRSib(RAX, R12, d(L), RCX, 8);
      }
    } else {
      // st<ES>: the low ES bytes of each lane.
      for (uint32_t L = 0; L < Lanes; ++L) {
        E.movRM64(RCX, RBX, d(B + L));
        E.movMRSib(RAX, R12, static_cast<int32_t>(L * ES), RCX, ES);
      }
    }
  }

  //===--- Deferred ops ---------------------------------------------------===//

  /// Runs \p I on the VM: the VM decoder's own step decodes it into the
  /// unit's op array, and the code calls the handler it picked, as
  /// Fn(vm, op, pc), on the lane file both tiers share.
  void defer(const MInstr &I) {
    uint32_t Idx = U.Deferred.appendInstr(F, Lay, I, T, Mem);
    const DOp &O = U.Deferred.Code[Idx];
    assert(sameLanes(O, I) && "deferred op decoded to other lanes");
    if (E.UseVEX)
      E.vzeroupper(); // Don't make the handler pay SSE-transition costs.
    E.movRM64(RDI, RBP, 72); // NativeContext::Vm
    E.movImm64(RSI, 0);
    OpFixes.push_back({E.here() - 8, Idx});
    E.movImm64(RAX, reinterpret_cast<uintptr_t>(O.Fn));
    E.callR(RAX);
    ++U.Stats.HelperOps;
    ++U.Stats.HelperByOp[static_cast<unsigned>(I.Op)];
  }

  /// Whether the decoder resolved \p I's operands to the lanes the inline
  /// code uses: the destination in A, sources in B, C, D, and the lane
  /// count of the destination (of the source for compares and reductions).
  bool sameLanes(const DOp &O, const MInstr &I) const {
    const uint32_t Srcs[] = {O.B, O.C, O.D};
    for (size_t K = 0; K < I.Srcs.size() && K < 3; ++K)
      if (Srcs[K] != Off[I.Srcs[K]])
        return false;
    bool BySrc = I.Op == MOp::Reduce ||
                 (I.Op == MOp::Alu && isCompare(I.SubOp));
    return O.A == Off[I.Dst] &&
           O.Lanes == RegLanes[BySrc ? I.Srcs[0] : I.Dst];
  }

  void countInline(MOp Op) {
    ++U.Stats.InlineOps;
    ++U.Stats.InlineByOp[static_cast<unsigned>(Op)];
  }

  //===--- Instruction lowering (mirrors VMDecoder::instr) ----------------===//

  void setImm(uint32_t A, uint64_t V) {
    E.movImm64(RAX, V);
    E.movMR64(RBX, d(A), RAX);
  }

  static unsigned log2Size(unsigned Bytes) {
    return static_cast<unsigned>(__builtin_ctz(Bytes));
  }

  void alu(const MInstr &I) {
    if (isCompare(I.SubOp)) {
      ScalarKind SK = F.Regs[I.Srcs[0]].Kind;
      if (SK == ScalarKind::None)
        return defer(I);
      uint32_t Lanes = RegLanes[I.Srcs[0]];
      for (uint32_t L = 0; L < Lanes; ++L)
        cmpLane(I.SubOp, SK, Off[I.Dst] + L, Off[I.Srcs[0]] + L,
                Off[I.Srcs[1]] + L);
      countInline(MOp::Alu);
      return;
    }
    switch (I.SubOp) {
    case Opcode::Select: {
      uint32_t Lanes = RegLanes[I.Dst];
      for (uint32_t L = 0; L < Lanes; ++L)
        selLane(Off[I.Dst] + L, Off[I.Srcs[0]] + L, Off[I.Srcs[1]] + L,
                Off[I.Srcs[2]] + L);
      countInline(MOp::Alu);
      return;
    }
    case Opcode::Convert:
      return defer(I);
    case Opcode::Neg:
    case Opcode::Abs:
    case Opcode::Sqrt: {
      if (!inlinableUn(I.SubOp, I.Kind))
        return defer(I);
      uint32_t Lanes = RegLanes[I.Dst];
      for (uint32_t L = 0; L < Lanes; ++L)
        unLane(I.SubOp, I.Kind, Off[I.Dst] + L, Off[I.Srcs[0]] + L);
      countInline(MOp::Alu);
      return;
    }
    default:
      if (!inlinableBin(I.SubOp, I.Kind))
        return defer(I);
      vecBin(I.SubOp, I.Kind, Off[I.Dst], Off[I.Srcs[0]], Off[I.Srcs[1]],
             RegLanes[I.Dst]);
      countInline(MOp::Alu);
      return;
    }
  }

  void instr(const MInstr &I) {
    uint32_t Ord = Ordinal; // This op's pre-fusion PC.
    switch (I.Op) {
    case MOp::LdImm: {
      ScalarKind K = I.Kind == ScalarKind::None ? ScalarKind::I64 : I.Kind;
      setImm(Off[I.Dst], encodeInt(K, I.Imm));
      countInline(I.Op);
      break;
    }
    case MOp::LdFImm:
      setImm(Off[I.Dst], encodeFP(I.Kind, I.FImm));
      countInline(I.Op);
      break;
    case MOp::LoadBase:
      assert(I.Array < Mem.arrayCount() &&
             "loadbase of an array missing from the memory image");
      setImm(Off[I.Dst], Mem.base(I.Array));
      countInline(I.Op);
      break;
    case MOp::Mov:
      copyLanes(Off[I.Dst], Off[I.Srcs[0]], RegLanes[I.Dst]);
      countInline(I.Op);
      break;
    case MOp::Addr:
      E.movRM64(RAX, RBX, d(Off[I.Srcs[0]]));
      E.movRM64(RCX, RBX, d(Off[I.Srcs[1]]));
      if (unsigned Sh = log2Size(I.Scale))
        E.shiftImm(4, RCX, static_cast<uint8_t>(Sh), true);
      E.addRR64(RAX, RCX);
      E.movMR64(RBX, d(Off[I.Dst]), RAX);
      countInline(I.Op);
      break;
    case MOp::Alu:
      alu(I);
      break;
    case MOp::Load: {
      unsigned ES = scalarSize(I.Kind);
      E.movRM64(RAX, RBX, d(Off[I.Srcs[0]]));
      memChecks(I, /*Aligned=*/false, Ord, /*IsStore=*/false, ES);
      E.movRMSib(RCX, RAX, R12, 0, ES); // Zero-extends: ld<ES>.
      E.movMR64(RBX, d(Off[I.Dst]), RCX);
      countInline(I.Op);
      break;
    }
    case MOp::Store: {
      unsigned ES = scalarSize(I.Kind);
      E.movRM64(RAX, RBX, d(Off[I.Srcs[0]]));
      memChecks(I, /*Aligned=*/false, Ord, /*IsStore=*/true, ES);
      E.movRM64(RCX, RBX, d(Off[I.Srcs[1]]));
      E.movMRSib(RAX, R12, 0, RCX, ES);
      countInline(I.Op);
      break;
    }
    case MOp::VLoadA:
    case MOp::VLoadU:
      vload(I, I.Op == MOp::VLoadA, Ord);
      countInline(I.Op);
      break;
    case MOp::VStoreA:
    case MOp::VStoreU:
      vstore(I, I.Op == MOp::VStoreA, Ord);
      countInline(I.Op);
      break;
    case MOp::GetPerm:
      E.movRM64(RAX, RBX, d(Off[I.Srcs[0]]));
      E.andImm32(RAX, F.VSBytes - 1);
      E.movMR64(RBX, d(Off[I.Dst]), RAX);
      countInline(I.Op);
      break;
    case MOp::VPerm: {
      uint32_t A = Off[I.Dst], Lanes = RegLanes[I.Dst];
      uint32_t B = Off[I.Srcs[0]], C = Off[I.Srcs[1]];
      unsigned Sh = log2Size(scalarSize(I.Kind));
      E.movRM64(RDX, RBX, d(Off[I.Srcs[2]])); // Token, read once.
      if (Sh)
        E.shiftImm(5, RDX, static_cast<uint8_t>(Sh), true);
      for (uint32_t L = 0; L < Lanes; ++L) {
        // Pos = token + L; pick from B when Pos < Lanes, else C. Only
        // the selected side is *read* -- lane-by-lane like the VM, so
        // permutes that alias their own destination stay bit-exact.
        E.lea(RCX, RDX, static_cast<int32_t>(L));
        E.aluImm32(7, RCX, static_cast<int32_t>(Lanes), true); // cmp
        size_t FromB = E.jcc(CC::B);
        E.movRM64Scale8(RSI, RBX, RCX,
                        d(C) - static_cast<int32_t>(Lanes * 8));
        size_t Done = E.jmp();
        E.patch32(FromB, E.here());
        E.movRM64Scale8(RSI, RBX, RCX, d(B));
        E.patch32(Done, E.here());
        E.movMR64(RBX, d(A + L), RSI);
      }
      countInline(I.Op);
      break;
    }
    case MOp::VSplat: {
      E.movRM64(RAX, RBX, d(Off[I.Srcs[0]]));
      uint32_t A = Off[I.Dst], Lanes = RegLanes[I.Dst];
      for (uint32_t L = 0; L < Lanes; ++L)
        E.movMR64(RBX, d(A + L), RAX);
      countInline(I.Op);
      break;
    }
    case MOp::VAffine:
    case MOp::VWMulLo:
    case MOp::VWMulHi:
    case MOp::VPack:
    case MOp::VUnpackLo:
    case MOp::VUnpackHi:
    case MOp::VDot:
    case MOp::CallLib:
      defer(I);
      break;
    case MOp::VSetLane0:
      // Scalar first: it may be overwritten by the copy (VM reads it
      // into a local before its memcpy).
      E.movRM64(RDX, RBX, d(Off[I.Srcs[1]]));
      copyLanes(Off[I.Dst], Off[I.Srcs[0]], RegLanes[I.Dst]);
      E.movMR64(RBX, d(Off[I.Dst]), RDX);
      countInline(I.Op);
      break;
    case MOp::VExtract: {
      // Source lanes resolve at build time, exactly like the decoder's
      // aux table.
      uint32_t A = Off[I.Dst], Lanes = RegLanes[I.Dst];
      unsigned LC = RegLanes[I.Srcs[0]];
      for (uint32_t L = 0; L < Lanes; ++L) {
        uint64_t Pos = static_cast<uint64_t>(I.Imm) +
                       static_cast<uint64_t>(L) * I.Imm2;
        assert(Pos / LC < I.Srcs.size() && "extract out of concat range");
        uint32_t Src = Off[I.Srcs[Pos / LC]] + static_cast<uint32_t>(Pos % LC);
        E.movRM64(RAX, RBX, d(Src));
        E.movMR64(RBX, d(A + L), RAX);
      }
      countInline(I.Op);
      break;
    }
    case MOp::VIlvLo:
    case MOp::VIlvHi: {
      uint32_t A = Off[I.Dst], Lanes = RegLanes[I.Dst];
      uint32_t B = Off[I.Srcs[0]], C = Off[I.Srcs[1]];
      uint32_t Half = Lanes / 2;
      uint32_t Base = I.Op == MOp::VIlvHi ? Half : 0;
      // Keep the VM handler's exact load/store interleaving: sources
      // may alias the destination.
      for (uint32_t L = 0; L < Half; ++L) {
        E.movRM64(RAX, RBX, d(B + Base + L));
        E.movMR64(RBX, d(A + 2 * L), RAX);
        E.movRM64(RAX, RBX, d(C + Base + L));
        E.movMR64(RBX, d(A + 2 * L + 1), RAX);
      }
      countInline(I.Op);
      break;
    }
    case MOp::Reduce: {
      uint32_t Lanes = RegLanes[I.Srcs[0]];
      if (inlinableBin(I.SubOp, I.Kind)) {
        // Accumulate in the scratch lane (the VM accumulates in a
        // local), then write the destination once.
        E.movRM64(RAX, RBX, d(Off[I.Srcs[0]]));
        E.movMR64(RBX, d(ScratchLane), RAX);
        for (uint32_t L = 1; L < Lanes; ++L)
          binLane(I.SubOp, I.Kind, ScratchLane, ScratchLane,
                  Off[I.Srcs[0]] + L);
        E.movRM64(RAX, RBX, d(ScratchLane));
        E.movMR64(RBX, d(Off[I.Dst]), RAX);
        countInline(I.Op);
      } else {
        defer(I);
      }
      break;
    }
    case MOp::SpillLd:
    case MOp::SpillSt:
      // Cost-model traffic: no machine state, but one VM PC slot.
      countInline(I.Op);
      break;
    }
    ++Ordinal;
    ++U.Stats.MInstrs;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Public API.
//===----------------------------------------------------------------------===//

Expected<std::shared_ptr<const NativeUnit>>
vapor::codegen::compileNative(const MFunction &F, const TargetDesc &T,
                              const MemoryImage &Image,
                              const NativeOptions &Opts) {
  if (!supported(Opts.Features))
    return Status::error(status::Code::UnsupportedIdiom, status::Layer::Jit,
                         "native tier unsupported on this host (needs "
                         "x86-64 + sse2; have '" +
                             Opts.Features.str() + "')");

  auto U = std::make_shared<NativeUnit>();
  NativeBuilder B(F, T, Image, Opts.Features, Opts.Plan, *U);
  B.build();

  const std::vector<uint8_t> &Code = B.code();
  if (!U->Code.allocate(Code.size()))
    return Status::error(status::Code::Internal, status::Layer::Jit,
                         "executable page allocation failed");
  std::memcpy(U->Code.base(), Code.data(), Code.size());
  if (!U->Code.seal())
    return Status::error(status::Code::Internal, status::Layer::Jit,
                         "W^X seal of generated code failed");
  return std::shared_ptr<const NativeUnit>(std::move(U));
}

NativeExec::NativeExec(std::shared_ptr<const NativeUnit> U,
                       MemoryImage &Image)
    : Unit(std::move(U)), Mem(Image),
      Vm(std::shared_ptr<const DecodedProgram>(Unit, &Unit->Deferred),
         Image) {}

Status NativeExec::run() {
  using status::Code;
  using status::Layer;
  if (Trapped) // A previous run already faulted; don't resume.
    return Status::error(Trap.TrapKind == TrapInfo::Kind::Alignment
                             ? Code::AlignmentTrap
                             : Code::OutOfBoundsAccess,
                         Layer::Vm, Trap.str());

  // Fault-injection site: a fueled native run reports deadline
  // exhaustion up front -- the injected analogue of a runaway kernel,
  // without needing one (mirrors the VM's fueled-entry site).
  if (Fuel != 0 &&
      faultinject::shouldFire(faultinject::SiteClass::Deadline))
    return Status::error(Code::DeadlineExceeded, Layer::Vm,
                         "injected fault: native deadline exceeded");

  NativeContext Ctx;
  Ctx.Lanes = Vm.lanes();
  Ctx.MemBias = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Mem.data())) -
                Mem.lowAddr();
  Ctx.MemLo = Mem.lowAddr();
  Ctx.MemHi = Mem.highAddr();
  Ctx.Vm = &Vm;
  Ctx.Fuel = Fuel != 0 ? Fuel : ~uint64_t(0); // 2^64 ops: unlimited.

  uint64_t Rc = Unit->entry()(&Ctx);
  AuditAlignFired += Ctx.AuditAlign;
  AuditBoundsFired += Ctx.AuditBounds;
  if (Rc == 0)
    return Status::okStatus();
  const std::string &Target = Unit->Deferred.TargetName;
  if (Rc == DeadlineRc) {
    static obs::Counter Deadlines("native.deadline_exceeded");
    Deadlines.add(1);
    return Status::error(Code::DeadlineExceeded, Layer::Vm,
                         "deadline exceeded: native op budget of " +
                             std::to_string(Fuel) + " exhausted on " +
                             Target);
  }

  Trapped = true;
  Trap.TrapKind =
      Rc == 1 ? TrapInfo::Kind::Alignment : TrapInfo::Kind::OutOfBounds;
  Trap.OpIndex = Ctx.TrapOp;
  Trap.Address = Ctx.TrapAddr;
  Trap.RequiredAlign = Ctx.TrapAlign;
  Trap.IsStore = Ctx.TrapIsStore != 0;
  Trap.Target = Target;
  return Status::error(Rc == 1 ? Code::AlignmentTrap : Code::OutOfBoundsAccess,
                       Layer::Vm, Trap.str());
}
