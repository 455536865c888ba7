//===- target/VM.cpp - Cycle-model machine interpreter --------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// Three pieces live here:
//
//  VMDecoder -- walks the structured MFunction once and flattens it into
//      DecodedProgram::Code, a dense array of DOps. Loops become
//        [iv=lower] [phi=init]... HEAD body... [phi=next]... IV+=STEP,goto HEAD
//      with absolute, patched jump targets; every op gets its handler
//      pointer, its registers resolved to lane-file offsets, its cycle
//      cost from the target cost table, and an OpCls structural tag for
//      the fuser.
//
//  VMFuser -- the macro-op fusion peephole. One greedy left-to-right
//      pass over the decoded array rewrites adjacent pairs into superops
//      (address+load, load+arith, arith+arith, arith+store, compare+
//      branch, load+realign-permute, copy+latch, costed-nop absorption),
//      remaps jump targets through an old->new index table, and records
//      the pre-fusion index of each superop's trappable constituent so
//      TrapInfo attribution stays exact. Fusion never fires into an op
//      that is a branch target, so control flow is preserved; Cost and
//      Counts are summed, so modeled cycles and instrsExecuted() are
//      fusion-invariant on non-trapping runs.
//
//  VMOps -- the handler table. Handlers are function templates
//      instantiated per element size / sub-opcode / scalar kind so the
//      per-step work is a direct call with no inner dispatch: with the
//      kind a template constant, ir::applyBinop's per-lane kind switches
//      (float-vs-int, lane mask, sign extension) constant-fold away.
//      That folding needs the ScalarOps helpers inlined, which is why
//      they are always-inline. Lane arithmetic is still textually
//      ir::applyBinop and friends: the exact same lane semantics as the
//      golden evaluator, which is what makes bit-exact cross-checking of
//      integer kernels possible. Every fused handler executes its two
//      constituents' semantics verbatim in original order (sequential
//      loops, never interleaved), so the machine state after a superop
//      is bit-identical to the state after the pair it replaced for
//      every register-aliasing pattern.
//
//===----------------------------------------------------------------------===//

#include "target/VM.h"

#include "ir/ScalarOps.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/Support.h"

#include <cstring>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::target;

namespace vapor {
namespace target {

static_assert(sizeof(DecodedProgram::DOp) == 48,
              "DOp grew past its 48-byte dispatch-friendly footprint");

// The scalar kinds worth a per-kind handler instantiation: every lane kind
// the kernel suite touches. Ops on anything else (I1, None) fall back to
// the runtime-kind handlers, and the fuser simply declines to fuse them.
#define VAPOR_VM_FOREACH_KIND(X)                                          \
  X(I8) X(U8) X(I16) X(U16) X(I32) X(U32) X(I64) X(U64) X(F32) X(F64)

// The narrow kinds of the widening idioms (unpack, dot, and pack in
// reverse): every kind whose widenKind() exists.
#define VAPOR_VM_FOREACH_NARROW_KIND(X)                                   \
  X(I8) X(U8) X(I16) X(U16) X(I32) X(U32) X(F32)

//===--- Handlers ---------------------------------------------------------===//

// Every handler starts on a 32-byte boundary, so where its branches fall
// relative to those boundaries is fixed by its own code, not by whatever
// the linker placed before it (see VM::run for why that matters).
#define VAPOR_VM_HANDLER __attribute__((aligned(32))) static

struct VMOps {
  using DOp = DecodedProgram::DOp;

  static ScalarKind kindOf(const DOp &O) {
    return static_cast<ScalarKind>(O.Kind);
  }
  static ScalarKind srcKindOf(const DOp &O) {
    return static_cast<ScalarKind>(O.SrcKind);
  }

  /// Bounds-checked host pointer for [Addr, Addr+Size). An out-of-image
  /// access faults: abort, or (trap-recording) a recorded trap plus a
  /// scratch pointer so the op completes harmlessly before the halt.
  /// Always inlined: this runs once per memory op, and the fault branch
  /// (an out-of-line call) never executes on healthy runs.
  VAPOR_ALWAYS_INLINE static uint8_t *mem(VM &Vm, uint64_t Addr,
                                          uint64_t Size) {
    if (__builtin_expect(Addr < Vm.MemLo || Addr + Size > Vm.MemHi, 0))
      return Vm.memFault(Addr);
    return Vm.MemPtr + (Addr - Vm.MemLo);
  }

  template <unsigned ES> static uint64_t ld(const uint8_t *P) {
    if constexpr (ES == 1) {
      return *P;
    } else if constexpr (ES == 2) {
      uint16_t V;
      std::memcpy(&V, P, 2);
      return V;
    } else if constexpr (ES == 4) {
      uint32_t V;
      std::memcpy(&V, P, 4);
      return V;
    } else {
      uint64_t V;
      std::memcpy(&V, P, 8);
      return V;
    }
  }

  template <unsigned ES> static void st(uint8_t *P, uint64_t V) {
    std::memcpy(P, &V, ES);
  }

  //===--- Register setup -------------------------------------------------===//

  VAPOR_VM_HANDLER uint32_t setImm(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = static_cast<uint64_t>(O.Imm);
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t copyLanes(VM &Vm, const DOp &O, uint32_t PC) {
    std::memcpy(Vm.R + O.A, Vm.R + O.B, O.Lanes * sizeof(uint64_t));
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t addr(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = Vm.R[O.B] + (Vm.R[O.C] << O.Imm);
    return PC + 1;
  }

  //===--- Control flow (synthetic; no instr count) -----------------------===//

  VAPOR_VM_HANDLER uint32_t loopHead(VM &Vm, const DOp &O, uint32_t PC) {
    if (static_cast<int64_t>(Vm.R[O.A]) >= static_cast<int64_t>(Vm.R[O.B]))
      return static_cast<uint32_t>(O.Imm);
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t ivAddJump(VM &Vm, const DOp &O, uint32_t) {
    Vm.R[O.A] += Vm.R[O.B];
    return static_cast<uint32_t>(O.Imm);
  }

  VAPOR_VM_HANDLER uint32_t jump(VM &, const DOp &O, uint32_t) {
    return static_cast<uint32_t>(O.Imm);
  }

  VAPOR_VM_HANDLER uint32_t branchIfZero(VM &Vm, const DOp &O, uint32_t PC) {
    if ((Vm.R[O.A] & 1) == 0)
      return static_cast<uint32_t>(O.Imm);
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t nop(VM &, const DOp &, uint32_t PC) {
    return PC + 1;
  }

  //===--- Scalar and vector memory ---------------------------------------===//

  /// Audit-mode telemetry preamble shared by the memory handlers: counts
  /// *genuine* predicate fires (never fault-injected ones) into the VM's
  /// audit counters. Runs before the normal checks, which stay live --
  /// an audit op still traps exactly like its checked form.
  template <unsigned ES, VMCheck CK>
  VAPOR_ALWAYS_INLINE static void auditCount(VM &Vm, const DOp &O,
                                             uint64_t Addr) {
    if constexpr (CK == VMCheck::AuditAlign)
      if (Addr & static_cast<uint64_t>(O.Imm))
        ++Vm.AuditAlignFired;
    if constexpr (CK == VMCheck::AuditAlign || CK == VMCheck::AuditBounds)
      if (Addr < Vm.MemLo || Addr + O.Lanes * uint64_t(ES) > Vm.MemHi)
        ++Vm.AuditBoundsFired;
  }

  template <unsigned ES, VMCheck CK = VMCheck::Bounds>
  VAPOR_VM_HANDLER uint32_t loadScalar(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Addr = Vm.R[O.B];
    auditCount<ES, CK>(Vm, O, Addr);
    if constexpr (CK == VMCheck::None)
      Vm.R[O.A] = ld<ES>(Vm.MemPtr + (Addr - Vm.MemLo));
    else
      Vm.R[O.A] = ld<ES>(mem(Vm, Addr, ES));
    return PC + 1;
  }

  template <unsigned ES, VMCheck CK = VMCheck::Bounds>
  VAPOR_VM_HANDLER uint32_t storeScalar(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Addr = Vm.R[O.A];
    auditCount<ES, CK>(Vm, O, Addr);
    if constexpr (CK == VMCheck::None)
      st<ES>(Vm.MemPtr + (Addr - Vm.MemLo), Vm.R[O.B]);
    else
      st<ES>(mem(Vm, Addr, ES), Vm.R[O.B]);
    return PC + 1;
  }

  template <unsigned ES, VMCheck CK>
  VAPOR_VM_HANDLER uint32_t vload(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Addr = Vm.R[O.B];
    auditCount<ES, CK>(Vm, O, Addr);
    if constexpr (CK == VMCheck::Align || CK == VMCheck::AuditAlign)
      if ((Addr & static_cast<uint64_t>(O.Imm)) ||
          faultinject::shouldFire(faultinject::SiteClass::VmAlign))
        return Vm.alignTrap(PC, Addr, static_cast<uint32_t>(O.Imm) + 1,
                            /*IsStore=*/false);
    const uint8_t *P = CK == VMCheck::None
                           ? Vm.MemPtr + (Addr - Vm.MemLo)
                           : mem(Vm, Addr, O.Lanes * uint64_t(ES));
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = ld<ES>(P + L * ES);
    return PC + 1;
  }

  template <unsigned ES, VMCheck CK>
  VAPOR_VM_HANDLER uint32_t vstore(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Addr = Vm.R[O.A];
    auditCount<ES, CK>(Vm, O, Addr);
    if constexpr (CK == VMCheck::Align || CK == VMCheck::AuditAlign)
      if ((Addr & static_cast<uint64_t>(O.Imm)) ||
          faultinject::shouldFire(faultinject::SiteClass::VmAlign))
        return Vm.alignTrap(PC, Addr, static_cast<uint32_t>(O.Imm) + 1,
                            /*IsStore=*/true);
    uint8_t *P = CK == VMCheck::None ? Vm.MemPtr + (Addr - Vm.MemLo)
                                     : mem(Vm, Addr, O.Lanes * uint64_t(ES));
    for (unsigned L = 0; L < O.Lanes; ++L)
      st<ES>(P + L * ES, Vm.R[O.B + L]);
    return PC + 1;
  }

  //===--- ALU -------------------------------------------------------------===//

  // Runtime-kind ALU handlers: fallbacks for kinds outside the
  // instantiated set (see VAPOR_VM_FOREACH_KIND).
  template <Opcode Sub>
  VAPOR_VM_HANDLER uint32_t binS(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = applyBinop(Sub, kindOf(O), Vm.R[O.B], Vm.R[O.C]);
    return PC + 1;
  }

  template <Opcode Sub>
  VAPOR_VM_HANDLER uint32_t binV(VM &Vm, const DOp &O, uint32_t PC) {
    ScalarKind K = kindOf(O);
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyBinop(Sub, K, Vm.R[O.B + L], Vm.R[O.C + L]);
    return PC + 1;
  }

  // Kind-templated ALU handlers: with K a constant, applyBinop's kind
  // switches (float-vs-int dispatch, lane masking, sign extension) fold
  // at compile time and each lane becomes straight-line arithmetic. The
  // folding holds because every ScalarOps.h helper is always-inline:
  // GCC's own heuristics left most integer lanes as out-of-line calls
  // through the runtime opcode and kind switches, and a helper it cannot
  // inline is now a build error rather than a silent slowdown.
  template <Opcode Sub, ScalarKind K>
  VAPOR_VM_HANDLER uint32_t binSK(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = applyBinopT<Sub, K>(Vm.R[O.B], Vm.R[O.C]);
    return PC + 1;
  }

  template <Opcode Sub, ScalarKind K>
  VAPOR_VM_HANDLER uint32_t binVK(VM &Vm, const DOp &O, uint32_t PC) {
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyBinopT<Sub, K>(Vm.R[O.B + L], Vm.R[O.C + L]);
    return PC + 1;
  }

  template <Opcode Sub>
  VAPOR_VM_HANDLER uint32_t unS(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = applyUnop(Sub, kindOf(O), Vm.R[O.B]);
    return PC + 1;
  }

  template <Opcode Sub>
  VAPOR_VM_HANDLER uint32_t unV(VM &Vm, const DOp &O, uint32_t PC) {
    ScalarKind K = kindOf(O);
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyUnop(Sub, K, Vm.R[O.B + L]);
    return PC + 1;
  }

  template <Opcode Sub, ScalarKind K>
  VAPOR_VM_HANDLER uint32_t unSK(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = applyUnop(Sub, K, Vm.R[O.B]);
    return PC + 1;
  }

  template <Opcode Sub, ScalarKind K>
  VAPOR_VM_HANDLER uint32_t unVK(VM &Vm, const DOp &O, uint32_t PC) {
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyUnop(Sub, K, Vm.R[O.B + L]);
    return PC + 1;
  }

  // Compares carry the I1 result kind in Kind; the comparison itself
  // runs at the operand kind (SrcKind), exactly like the evaluator.
  template <Opcode Sub>
  VAPOR_VM_HANDLER uint32_t cmpS(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = applyCompare(Sub, srcKindOf(O), Vm.R[O.B], Vm.R[O.C]);
    return PC + 1;
  }

  template <Opcode Sub>
  VAPOR_VM_HANDLER uint32_t cmpV(VM &Vm, const DOp &O, uint32_t PC) {
    ScalarKind K = srcKindOf(O);
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyCompare(Sub, K, Vm.R[O.B + L], Vm.R[O.C + L]);
    return PC + 1;
  }

  template <Opcode Sub, ScalarKind K>
  VAPOR_VM_HANDLER uint32_t cmpSK(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = applyCompare(Sub, K, Vm.R[O.B], Vm.R[O.C]);
    return PC + 1;
  }

  template <Opcode Sub, ScalarKind K>
  VAPOR_VM_HANDLER uint32_t cmpVK(VM &Vm, const DOp &O, uint32_t PC) {
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyCompare(Sub, K, Vm.R[O.B + L], Vm.R[O.C + L]);
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t selS(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = (Vm.R[O.B] & 1) ? Vm.R[O.C] : Vm.R[O.D];
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t selV(VM &Vm, const DOp &O, uint32_t PC) {
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] =
          (Vm.R[O.B + L] & 1) ? Vm.R[O.C + L] : Vm.R[O.D + L];
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t cvtS(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = applyConvert(srcKindOf(O), kindOf(O), Vm.R[O.B]);
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t cvtV(VM &Vm, const DOp &O, uint32_t PC) {
    ScalarKind SK = srcKindOf(O), DK = kindOf(O);
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyConvert(SK, DK, Vm.R[O.B + L]);
    return PC + 1;
  }

  template <ScalarKind SK, ScalarKind DK>
  VAPOR_VM_HANDLER uint32_t cvtSK(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = applyConvert(SK, DK, Vm.R[O.B]);
    return PC + 1;
  }

  template <ScalarKind SK, ScalarKind DK>
  VAPOR_VM_HANDLER uint32_t cvtVK(VM &Vm, const DOp &O, uint32_t PC) {
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyConvert(SK, DK, Vm.R[O.B + L]);
    return PC + 1;
  }

  //===--- Vector initialization and realignment --------------------------===//

  VAPOR_VM_HANDLER uint32_t splat(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t V = Vm.R[O.B];
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = V;
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t affine(VM &Vm, const DOp &O, uint32_t PC) {
    ScalarKind K = kindOf(O);
    uint64_t Cur = Vm.R[O.B], Inc = Vm.R[O.C];
    for (unsigned L = 0; L < O.Lanes; ++L) {
      Vm.R[O.A + L] = Cur;
      Cur = applyBinop(Opcode::Add, K, Cur, Inc);
    }
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t setLane0(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Scalar = Vm.R[O.C];
    std::memcpy(Vm.R + O.A, Vm.R + O.B, O.Lanes * sizeof(uint64_t));
    Vm.R[O.A] = Scalar;
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t getPerm(VM &Vm, const DOp &O, uint32_t PC) {
    Vm.R[O.A] = Vm.R[O.B] & static_cast<uint64_t>(O.Imm);
    return PC + 1;
  }

  /// Imm holds log2(element size); lanes select from the concatenation
  /// of the two source vectors starting at the realignment token.
  VAPOR_VM_HANDLER uint32_t vperm(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Off = Vm.R[O.D] >> O.Imm;
    for (unsigned L = 0; L < O.Lanes; ++L) {
      uint64_t Pos = Off + L;
      Vm.R[O.A + L] = Pos < O.Lanes ? Vm.R[O.B + Pos]
                                    : Vm.R[O.C + Pos - O.Lanes];
    }
    return PC + 1;
  }

  //===--- Reorganization and widening idioms ------------------------------===//

  VAPOR_VM_HANDLER uint32_t extract(VM &Vm, const DOp &O, uint32_t PC) {
    const uint32_t *Aux = Vm.AuxBase + O.Aux;
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = Vm.R[Aux[L]];
    return PC + 1;
  }

  /// Imm holds the source half offset (0 for Lo, Lanes/2 for Hi).
  VAPOR_VM_HANDLER uint32_t ilv(VM &Vm, const DOp &O, uint32_t PC) {
    unsigned Half = O.Lanes / 2;
    uint64_t Off = static_cast<uint64_t>(O.Imm);
    for (unsigned L = 0; L < Half; ++L) {
      Vm.R[O.A + 2 * L] = Vm.R[O.B + Off + L];
      Vm.R[O.A + 2 * L + 1] = Vm.R[O.C + Off + L];
    }
    return PC + 1;
  }

  VAPOR_VM_HANDLER uint32_t wmul(VM &Vm, const DOp &O, uint32_t PC) {
    ScalarKind NK = srcKindOf(O), WK = kindOf(O);
    uint64_t Off = static_cast<uint64_t>(O.Imm);
    for (unsigned J = 0; J < O.Lanes; ++J)
      Vm.R[O.A + J] =
          applyBinop(Opcode::Mul, WK,
                     applyConvert(NK, WK, Vm.R[O.B + Off + J]),
                     applyConvert(NK, WK, Vm.R[O.C + Off + J]));
    return PC + 1;
  }

  // Unpack, dot and pack get one instantiation per narrow kind NK; the
  // wide kind is widenKind(NK), the only pairing the IR verifier admits
  // (pack narrows from widenKind(NK) to NK). With both kinds constants
  // the converts and the lane arithmetic fold like the ALU handlers'.
  // Widen-mult keeps a runtime-kind handler: no registry kernel's
  // program runs it.

  template <ScalarKind NK>
  VAPOR_VM_HANDLER uint32_t packK(VM &Vm, const DOp &O, uint32_t PC) {
    constexpr ScalarKind WK = widenKind(NK);
    unsigned Half = O.Lanes / 2;
    for (unsigned L = 0; L < Half; ++L) {
      Vm.R[O.A + L] = applyConvert(WK, NK, Vm.R[O.B + L]);
      Vm.R[O.A + Half + L] = applyConvert(WK, NK, Vm.R[O.C + L]);
    }
    return PC + 1;
  }

  template <ScalarKind NK>
  VAPOR_VM_HANDLER uint32_t unpackK(VM &Vm, const DOp &O, uint32_t PC) {
    constexpr ScalarKind WK = widenKind(NK);
    uint64_t Off = static_cast<uint64_t>(O.Imm);
    for (unsigned J = 0; J < O.Lanes; ++J)
      Vm.R[O.A + J] = applyConvert(NK, WK, Vm.R[O.B + Off + J]);
    return PC + 1;
  }

  template <ScalarKind NK>
  VAPOR_VM_HANDLER uint32_t dotK(VM &Vm, const DOp &O, uint32_t PC) {
    constexpr ScalarKind WK = widenKind(NK);
    for (unsigned J = 0; J < O.Lanes; ++J) {
      uint64_t P0 =
          applyBinop(Opcode::Mul, WK,
                     applyConvert(NK, WK, Vm.R[O.B + 2 * J]),
                     applyConvert(NK, WK, Vm.R[O.C + 2 * J]));
      uint64_t P1 =
          applyBinop(Opcode::Mul, WK,
                     applyConvert(NK, WK, Vm.R[O.B + 2 * J + 1]),
                     applyConvert(NK, WK, Vm.R[O.C + 2 * J + 1]));
      Vm.R[O.A + J] = applyBinop(
          Opcode::Add, WK,
          applyBinop(Opcode::Add, WK, Vm.R[O.D + J], P0), P1);
    }
    return PC + 1;
  }

  template <Opcode Sub>
  VAPOR_VM_HANDLER uint32_t reduce(VM &Vm, const DOp &O, uint32_t PC) {
    ScalarKind K = kindOf(O);
    uint64_t Acc = Vm.R[O.B];
    for (unsigned L = 1; L < O.Lanes; ++L)
      Acc = applyBinop(Sub, K, Acc, Vm.R[O.B + L]);
    Vm.R[O.A] = Acc;
    return PC + 1;
  }

  template <Opcode Sub, ScalarKind K>
  VAPOR_VM_HANDLER uint32_t reduceK(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Acc = Vm.R[O.B];
    for (unsigned L = 1; L < O.Lanes; ++L)
      Acc = applyBinopT<Sub, K>(Acc, Vm.R[O.B + L]);
    Vm.R[O.A] = Acc;
    return PC + 1;
  }

  //===--- Fused superops --------------------------------------------------===//
  //
  // Each superop executes its constituents' semantics verbatim, in the
  // original order, as two sequential steps -- never interleaved. That
  // makes bit-exactness trivial for every aliasing pattern (in-place
  // binops, value==address registers, permutes reading their own
  // destination): the intermediate machine state is the same one the
  // unfused pair produced. The win is one eliminated dispatch iteration
  // per superop plus template-folded sub-opcodes and scalar kinds.
  //
  // Alignment checks replicate the unfused predicate exactly, including
  // the `(Addr & Mask) || shouldFire(...)` short-circuit -- the fault-
  // injection site counter must advance only when the address itself is
  // aligned, or the crashtest's deterministic site numbering would
  // shift. The mask is recomputed as Lanes*ES-1; the fuser only fuses
  // checked accesses whose decoded Imm mask equals that value.

  /// addr+load: A = load dst, B = base, C = index, D = addr dst,
  /// Imm = scale shift.
  template <unsigned ES, VMCheck CK>
  VAPOR_VM_HANDLER uint32_t addrLoad(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Addr = Vm.R[O.B] + (Vm.R[O.C] << O.Imm);
    Vm.R[O.D] = Addr;
    if constexpr (CK == VMCheck::Align) {
      const uint64_t Mask = uint64_t(O.Lanes) * ES - 1;
      if ((Addr & Mask) ||
          faultinject::shouldFire(faultinject::SiteClass::VmAlign))
        return Vm.alignTrap(PC, Addr, static_cast<uint32_t>(Mask) + 1,
                            /*IsStore=*/false);
    }
    const uint8_t *P = CK == VMCheck::None
                           ? Vm.MemPtr + (Addr - Vm.MemLo)
                           : mem(Vm, Addr, O.Lanes * uint64_t(ES));
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = ld<ES>(P + L * ES);
    return PC + 1;
  }

  /// addr+store: A = addr dst, B = base, C = index, D = value,
  /// Imm = scale shift.
  template <unsigned ES, VMCheck CK>
  VAPOR_VM_HANDLER uint32_t addrStore(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Addr = Vm.R[O.B] + (Vm.R[O.C] << O.Imm);
    Vm.R[O.A] = Addr;
    if constexpr (CK == VMCheck::Align) {
      const uint64_t Mask = uint64_t(O.Lanes) * ES - 1;
      if ((Addr & Mask) ||
          faultinject::shouldFire(faultinject::SiteClass::VmAlign))
        return Vm.alignTrap(PC, Addr, static_cast<uint32_t>(Mask) + 1,
                            /*IsStore=*/true);
    }
    uint8_t *P = CK == VMCheck::None
                     ? Vm.MemPtr + (Addr - Vm.MemLo)
                     : mem(Vm, Addr, O.Lanes * uint64_t(ES));
    for (unsigned L = 0; L < O.Lanes; ++L)
      st<ES>(P + L * ES, Vm.R[O.D + L]);
    return PC + 1;
  }

  /// load+binop: A = load dst, B = address reg, C = other operand,
  /// D = binop dst; SrcKind = 1 when the loaded value is the RHS. The
  /// element size is derived from the kind template (the fuser only
  /// fuses pairs whose load element size equals scalarSize(bin kind)).
  template <Opcode Sub, ScalarKind K, VMCheck CK>
  VAPOR_VM_HANDLER uint32_t loadBin(VM &Vm, const DOp &O, uint32_t PC) {
    constexpr unsigned ES = scalarSize(K);
    uint64_t Addr = Vm.R[O.B];
    if constexpr (CK == VMCheck::Align) {
      const uint64_t Mask = uint64_t(O.Lanes) * ES - 1;
      if ((Addr & Mask) ||
          faultinject::shouldFire(faultinject::SiteClass::VmAlign))
        return Vm.alignTrap(PC, Addr, static_cast<uint32_t>(Mask) + 1,
                            /*IsStore=*/false);
    }
    const uint8_t *P = CK == VMCheck::None
                           ? Vm.MemPtr + (Addr - Vm.MemLo)
                           : mem(Vm, Addr, O.Lanes * uint64_t(ES));
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = ld<ES>(P + L * ES);
    if (O.SrcKind) {
      for (unsigned L = 0; L < O.Lanes; ++L)
        Vm.R[O.D + L] = applyBinopT<Sub, K>(Vm.R[O.C + L], Vm.R[O.A + L]);
    } else {
      for (unsigned L = 0; L < O.Lanes; ++L)
        Vm.R[O.D + L] = applyBinopT<Sub, K>(Vm.R[O.A + L], Vm.R[O.C + L]);
    }
    return PC + 1;
  }

  /// binop+store: A = binop dst, B/C = binop operands, D = address reg.
  /// The address register is read *after* the binop, matching the pair.
  /// The store element size is scalarSize(K) (fuser-checked).
  template <Opcode Sub, ScalarKind K, VMCheck CK>
  VAPOR_VM_HANDLER uint32_t binStore(VM &Vm, const DOp &O, uint32_t PC) {
    constexpr unsigned ES = scalarSize(K);
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyBinopT<Sub, K>(Vm.R[O.B + L], Vm.R[O.C + L]);
    uint64_t Addr = Vm.R[O.D];
    if constexpr (CK == VMCheck::Align) {
      const uint64_t Mask = uint64_t(O.Lanes) * ES - 1;
      if ((Addr & Mask) ||
          faultinject::shouldFire(faultinject::SiteClass::VmAlign))
        return Vm.alignTrap(PC, Addr, static_cast<uint32_t>(Mask) + 1,
                            /*IsStore=*/true);
    }
    uint8_t *P = CK == VMCheck::None
                     ? Vm.MemPtr + (Addr - Vm.MemLo)
                     : mem(Vm, Addr, O.Lanes * uint64_t(ES));
    for (unsigned L = 0; L < O.Lanes; ++L)
      st<ES>(P + L * ES, Vm.R[O.A + L]);
    return PC + 1;
  }

  /// binop+binop: A = first dst, B/C = first operands, D = second dst,
  /// Aux = second op's other operand; SrcKind = 1 when the first dst is
  /// the second op's RHS. Both ops share Kind and Lanes (fuser checks).
  template <Opcode S1, Opcode S2, ScalarKind K>
  VAPOR_VM_HANDLER uint32_t binBin(VM &Vm, const DOp &O, uint32_t PC) {
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.A + L] = applyBinopT<S1, K>(Vm.R[O.B + L], Vm.R[O.C + L]);
    const uint32_t Other = O.Aux;
    if (O.SrcKind) {
      for (unsigned L = 0; L < O.Lanes; ++L)
        Vm.R[O.D + L] = applyBinopT<S2, K>(Vm.R[Other + L], Vm.R[O.A + L]);
    } else {
      for (unsigned L = 0; L < O.Lanes; ++L)
        Vm.R[O.D + L] = applyBinopT<S2, K>(Vm.R[O.A + L], Vm.R[Other + L]);
    }
    return PC + 1;
  }

  /// compare+branch-if-zero: A = compare dst (still written -- later ops
  /// may read it), B/C = compare operands, Imm = branch target. K is the
  /// operand (source) kind.
  template <Opcode Sub, ScalarKind K>
  VAPOR_VM_HANDLER uint32_t cmpBranch(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t V = applyCompare(Sub, K, Vm.R[O.B], Vm.R[O.C]);
    Vm.R[O.A] = V;
    if ((V & 1) == 0)
      return static_cast<uint32_t>(O.Imm);
    return PC + 1;
  }

  /// load+realign-permute: A = permute dst, B = address reg, C = the
  /// permute source that is not the loaded vector, D = realign token,
  /// Aux = load dst lane offset; SrcKind = 1 when the loaded vector is
  /// the second permute source. The element-size shift is folded into
  /// the template (fuser checks it matches the permute's decoded Imm).
  template <unsigned ES, VMCheck CK>
  VAPOR_VM_HANDLER uint32_t loadPerm(VM &Vm, const DOp &O, uint32_t PC) {
    uint64_t Addr = Vm.R[O.B];
    if constexpr (CK == VMCheck::Align) {
      const uint64_t Mask = uint64_t(O.Lanes) * ES - 1;
      if ((Addr & Mask) ||
          faultinject::shouldFire(faultinject::SiteClass::VmAlign))
        return Vm.alignTrap(PC, Addr, static_cast<uint32_t>(Mask) + 1,
                            /*IsStore=*/false);
    }
    const uint8_t *P = CK == VMCheck::None
                           ? Vm.MemPtr + (Addr - Vm.MemLo)
                           : mem(Vm, Addr, O.Lanes * uint64_t(ES));
    for (unsigned L = 0; L < O.Lanes; ++L)
      Vm.R[O.Aux + L] = ld<ES>(P + L * ES);
    constexpr unsigned Shift = ES == 1 ? 0 : ES == 2 ? 1 : ES == 4 ? 2 : 3;
    const uint32_t F0 = O.SrcKind ? O.C : O.Aux;
    const uint32_t F1 = O.SrcKind ? O.Aux : O.C;
    uint64_t Off = Vm.R[O.D] >> Shift;
    for (unsigned L = 0; L < O.Lanes; ++L) {
      uint64_t Pos = Off + L;
      Vm.R[O.A + L] =
          Pos < O.Lanes ? Vm.R[F0 + Pos] : Vm.R[F1 + Pos - O.Lanes];
    }
    return PC + 1;
  }

  /// phi-copy+latch: A/B = copy dst/src (Lanes wide), C = induction
  /// variable, D = step, Imm = loop-head target.
  VAPOR_VM_HANDLER uint32_t copyLatch(VM &Vm, const DOp &O, uint32_t) {
    std::memcpy(Vm.R + O.A, Vm.R + O.B, O.Lanes * sizeof(uint64_t));
    Vm.R[O.C] += Vm.R[O.D];
    return static_cast<uint32_t>(O.Imm);
  }
};

//===--- Decoder ----------------------------------------------------------===//

struct VMDecoder {
  DecodedProgram &P;
  const MFunction &F;
  const TargetDesc &T;
  const MemoryImage &Mem;
  bool Weak;
  const ElisionPlan *Plan; ///< Checked elision grants (may be null).
  const std::vector<uint32_t> &Off;      ///< Lane-file offset per register.
  const std::vector<uint16_t> &RegLanes; ///< Lane count per register.

  using DOp = DecodedProgram::DOp;
  using Handler = DecodedProgram::Handler;

  VMDecoder(DecodedProgram &Prog, const MFunction &Fn,
            const DecodedProgram::Layout &L, const TargetDesc &Target,
            const MemoryImage &Image, bool WeakTier,
            const ElisionPlan *Elide = nullptr)
      : P(Prog), F(Fn), T(Target), Mem(Image), Weak(WeakTier), Plan(Elide),
        Off(L.Off), RegLanes(L.Lanes) {}

  /// Maps a memory instruction's elision grant to its decoded check
  /// state. \p Aligned = the op defaults to the alignment-trap check
  /// (VLoadA/VStoreA). On mode elides what the grant covers; Audit mode
  /// keeps every check live but selects the counting handler for grants
  /// an On-mode run would have elided.
  VMCheck checkFor(const MInstr &I, bool Aligned) const {
    VMCheck CK = Aligned ? VMCheck::Align : VMCheck::Bounds;
    uint8_t Bits = Plan ? Plan->provenBits(I.SrcInstr) : 0;
    if (!Bits)
      return CK;
    bool A = Bits & ElisionPlan::AlignBit;
    bool B = Bits & ElisionPlan::BoundsBit;
    if (Plan->Mode == ElisionMode::Audit) {
      if (Aligned)
        return A ? VMCheck::AuditAlign : CK;
      return B ? VMCheck::AuditBounds : CK;
    }
    if (Aligned) {
      if (A && B)
        return VMCheck::None;
      if (A)
        return VMCheck::Bounds;
      return VMCheck::Align; // Bounds-only grant on an aligned op: the
                             // align trap subsumes nothing, keep both.
    }
    return B ? VMCheck::None : VMCheck::Bounds;
  }

  uint32_t emit(const DOp &O) {
    P.Code.push_back(O);
    return static_cast<uint32_t>(P.Code.size() - 1);
  }

  uint32_t here() const { return static_cast<uint32_t>(P.Code.size()); }

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

  void loop(const MLoop &L) {
    // iv = lower; phi = init...
    emitCopy(L.IndVar, L.Lower);
    for (const MLoop::CarriedVar &C : L.Carried)
      emitCopy(C.Phi, C.Init);
    // HEAD: if (iv >= upper) goto END.
    DOp Head;
    Head.Fn = &VMOps::loopHead;
    Head.A = Off[L.IndVar];
    Head.B = Off[L.Upper];
    Head.Cost = T.Costs.LoopIter;
    Head.Cls = OpCls::LoopHead;
    uint32_t HeadPC = emit(Head);

    region(L.Body);

    // phi = next...; iv += step; goto HEAD.
    for (const MLoop::CarriedVar &C : L.Carried)
      if (C.Next != NoReg)
        emitCopy(C.Phi, C.Next);
    DOp Latch;
    Latch.Fn = &VMOps::ivAddJump;
    Latch.A = Off[L.IndVar];
    Latch.B = Off[L.Step];
    Latch.Imm = HeadPC;
    Latch.Cls = OpCls::Latch;
    emit(Latch);

    P.Code[HeadPC].Imm = here();
  }

  void ifStmt(const MIf &S) {
    DOp Br;
    Br.Fn = &VMOps::branchIfZero;
    Br.A = Off[S.Cond];
    Br.Cost = T.Costs.LoopIter; // One compare-and-branch.
    Br.Cls = OpCls::Branch;
    uint32_t BrPC = emit(Br);
    region(S.Then);
    DOp J;
    J.Fn = &VMOps::jump;
    J.Cls = OpCls::Jump;
    uint32_t JumpPC = emit(J);
    P.Code[BrPC].Imm = here();
    region(S.Else);
    P.Code[JumpPC].Imm = here();
  }

  /// Synthetic full-register copy (loop plumbing): free, uncounted.
  void emitCopy(MReg Dst, MReg Src) {
    if (Dst == Src)
      return;
    DOp O;
    O.Fn = &VMOps::copyLanes;
    O.A = Off[Dst];
    O.B = Off[Src];
    O.Lanes = RegLanes[Dst];
    O.Cls = OpCls::Copy;
    emit(O);
  }

  static unsigned log2Size(unsigned Bytes) {
    assert(isPowerOf2(Bytes) && "element size must be a power of two");
    return static_cast<unsigned>(__builtin_ctz(Bytes));
  }

  uint32_t instr(const MInstr &I) {
    DOp O;
    O.Cost = instrCost(T, I, Weak);
    O.Counts = 1;
    O.Kind = static_cast<uint8_t>(I.Kind);
    if (I.Dst != NoReg) {
      O.A = Off[I.Dst];
      O.Lanes = RegLanes[I.Dst];
    }

    switch (I.Op) {
    case MOp::LdImm: {
      ScalarKind K = I.Kind == ScalarKind::None ? ScalarKind::I64 : I.Kind;
      O.Fn = &VMOps::setImm;
      O.Imm = static_cast<int64_t>(encodeInt(K, I.Imm));
      break;
    }
    case MOp::LdFImm:
      O.Fn = &VMOps::setImm;
      O.Imm = static_cast<int64_t>(encodeFP(I.Kind, I.FImm));
      break;
    case MOp::LoadBase:
      assert(I.Array < Mem.arrayCount() &&
             "loadbase of an array missing from the memory image");
      O.Fn = &VMOps::setImm;
      O.Imm = static_cast<int64_t>(Mem.base(I.Array));
      break;
    case MOp::Mov:
      O.Fn = &VMOps::copyLanes;
      O.B = Off[I.Srcs[0]];
      break;
    case MOp::Addr:
      O.Fn = &VMOps::addr;
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      O.Imm = log2Size(I.Scale);
      O.Cls = OpCls::Addr;
      break;
    case MOp::Alu:
      decodeAlu(I, O);
      break;
    case MOp::Load: {
      VMCheck CK = checkFor(I, /*Aligned=*/false);
      O.Fn = pickLoad(scalarSize(I.Kind), CK);
      O.B = Off[I.Srcs[0]];
      O.Cls = OpCls::LoadS;
      O.Sub = static_cast<uint8_t>(CK);
      break;
    }
    case MOp::Store: {
      VMCheck CK = checkFor(I, /*Aligned=*/false);
      O.Fn = pickStore(scalarSize(I.Kind), CK);
      O.A = Off[I.Srcs[0]];
      O.B = Off[I.Srcs[1]];
      O.Lanes = 1;
      O.Cls = OpCls::StoreS;
      O.Sub = static_cast<uint8_t>(CK);
      break;
    }
    case MOp::VLoadA:
    case MOp::VLoadU: {
      VMCheck CK = checkFor(I, I.Op == MOp::VLoadA);
      O.Fn = pickVLoad(scalarSize(I.Kind), CK);
      O.B = Off[I.Srcs[0]];
      O.Imm = static_cast<int64_t>(F.VSBytes - 1);
      O.Cls = OpCls::VLoad;
      O.Sub = static_cast<uint8_t>(CK);
      break;
    }
    case MOp::VStoreA:
    case MOp::VStoreU: {
      VMCheck CK = checkFor(I, I.Op == MOp::VStoreA);
      O.Fn = pickVStore(scalarSize(I.Kind), CK);
      O.A = Off[I.Srcs[0]];
      O.B = Off[I.Srcs[1]];
      O.Lanes = RegLanes[I.Srcs[1]];
      O.Imm = static_cast<int64_t>(F.VSBytes - 1);
      O.Cls = OpCls::VStore;
      O.Sub = static_cast<uint8_t>(CK);
      break;
    }
    case MOp::GetPerm:
      O.Fn = &VMOps::getPerm;
      O.B = Off[I.Srcs[0]];
      O.Imm = static_cast<int64_t>(F.VSBytes - 1);
      break;
    case MOp::VPerm:
      O.Fn = &VMOps::vperm;
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      O.D = Off[I.Srcs[2]];
      O.Imm = log2Size(scalarSize(I.Kind));
      O.Cls = OpCls::VPerm;
      break;
    case MOp::VSplat:
      O.Fn = &VMOps::splat;
      O.B = Off[I.Srcs[0]];
      break;
    case MOp::VAffine:
      O.Fn = &VMOps::affine;
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      break;
    case MOp::VSetLane0:
      O.Fn = &VMOps::setLane0;
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      break;
    case MOp::VExtract: {
      O.Fn = &VMOps::extract;
      O.Aux = static_cast<uint32_t>(P.AuxLanes.size());
      unsigned LC = RegLanes[I.Srcs[0]];
      for (unsigned L = 0; L < O.Lanes; ++L) {
        uint64_t Pos = static_cast<uint64_t>(I.Imm) +
                       static_cast<uint64_t>(L) * I.Imm2;
        assert(Pos / LC < I.Srcs.size() && "extract out of concat range");
        P.AuxLanes.push_back(Off[I.Srcs[Pos / LC]] +
                             static_cast<uint32_t>(Pos % LC));
      }
      break;
    }
    case MOp::VIlvLo:
    case MOp::VIlvHi:
      O.Fn = &VMOps::ilv;
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      O.Imm = I.Op == MOp::VIlvHi ? O.Lanes / 2 : 0;
      break;
    case MOp::VWMulLo:
    case MOp::VWMulHi:
      decodeWMul(I, O, I.Op == MOp::VWMulHi);
      break;
    case MOp::VPack:
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      O.Fn = pickWiden("pack", I.Kind, F.Regs[I.Srcs[0]].Kind,
                       []<ScalarKind K> { return &VMOps::packK<K>; });
      break;
    case MOp::VUnpackLo:
    case MOp::VUnpackHi:
      O.Fn = pickWiden("unpack", F.Regs[I.Srcs[0]].Kind, I.Kind,
                       []<ScalarKind K> { return &VMOps::unpackK<K>; });
      O.B = Off[I.Srcs[0]];
      O.Imm = I.Op == MOp::VUnpackHi ? O.Lanes : 0;
      break;
    case MOp::VDot:
      O.Fn = pickWiden("dot", F.Regs[I.Srcs[0]].Kind, I.Kind,
                       []<ScalarKind K> { return &VMOps::dotK<K>; });
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      O.D = Off[I.Srcs[2]];
      break;
    case MOp::Reduce:
      O.Fn = pickReduce(I.SubOp, I.Kind);
      O.B = Off[I.Srcs[0]];
      O.Lanes = RegLanes[I.Srcs[0]];
      break;
    case MOp::CallLib:
      // The library implements the idiom out of line; semantics match
      // the inline lowering, only the cost differs.
      switch (I.SubOp) {
      case Opcode::WidenMultLo:
        decodeWMul(I, O, false);
        break;
      case Opcode::WidenMultHi:
        decodeWMul(I, O, true);
        break;
      case Opcode::Convert:
        O.Fn = pickCvt(F.Regs[I.Srcs[0]].Kind, I.Kind, /*V=*/true);
        O.B = Off[I.Srcs[0]];
        O.SrcKind = static_cast<uint8_t>(F.Regs[I.Srcs[0]].Kind);
        break;
      default:
        vapor_unreachable("unsupported library call");
      }
      break;
    case MOp::SpillLd:
    case MOp::SpillSt:
      O.Fn = &VMOps::nop;
      O.Cls = OpCls::Nop;
      break;
    }
    return emit(O);
  }

  void decodeWMul(const MInstr &I, DOp &O, bool Hi) {
    O.Fn = &VMOps::wmul;
    O.B = Off[I.Srcs[0]];
    O.C = Off[I.Srcs[1]];
    O.SrcKind = static_cast<uint8_t>(F.Regs[I.Srcs[0]].Kind);
    O.Imm = Hi ? O.Lanes : 0;
  }

  void decodeAlu(const MInstr &I, DOp &O) {
    bool V = I.Vector;
    if (isCompare(I.SubOp)) {
      O.Fn = pickCmp(I.SubOp, V, F.Regs[I.Srcs[0]].Kind);
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      // Compares produce I1 but iterate at the operand lane count and
      // compare at the operand kind.
      O.Lanes = RegLanes[I.Srcs[0]];
      O.SrcKind = static_cast<uint8_t>(F.Regs[I.Srcs[0]].Kind);
      if (!V) {
        O.Cls = OpCls::CmpS;
        O.Sub = static_cast<uint8_t>(I.SubOp);
      }
      return;
    }
    switch (I.SubOp) {
    case Opcode::Select:
      O.Fn = V ? &VMOps::selV : &VMOps::selS;
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      O.D = Off[I.Srcs[2]];
      return;
    case Opcode::Convert:
      O.Fn = pickCvt(F.Regs[I.Srcs[0]].Kind, I.Kind, V);
      O.B = Off[I.Srcs[0]];
      O.SrcKind = static_cast<uint8_t>(F.Regs[I.Srcs[0]].Kind);
      assert((!V || RegLanes[I.Srcs[0]] == O.Lanes) &&
             "vector converts keep the lane count");
      return;
    case Opcode::Neg:
    case Opcode::Abs:
    case Opcode::Sqrt:
      O.Fn = pickUnop(I.SubOp, V, I.Kind);
      O.B = Off[I.Srcs[0]];
      return;
    default:
      O.Fn = pickBinop(I.SubOp, V, I.Kind);
      O.B = Off[I.Srcs[0]];
      O.C = Off[I.Srcs[1]];
      O.Cls = V ? OpCls::BinV : OpCls::BinS;
      O.Sub = static_cast<uint8_t>(I.SubOp);
      return;
    }
  }

  template <VMCheck CK> static Handler pickLoadES(unsigned ES) {
    switch (ES) {
    case 1:
      return &VMOps::loadScalar<1, CK>;
    case 2:
      return &VMOps::loadScalar<2, CK>;
    case 4:
      return &VMOps::loadScalar<4, CK>;
    default:
      return &VMOps::loadScalar<8, CK>;
    }
  }

  static Handler pickLoad(unsigned ES, VMCheck CK) {
    switch (CK) {
    case VMCheck::None:
      return pickLoadES<VMCheck::None>(ES);
    case VMCheck::AuditBounds:
      return pickLoadES<VMCheck::AuditBounds>(ES);
    default:
      return pickLoadES<VMCheck::Bounds>(ES);
    }
  }

  template <VMCheck CK> static Handler pickStoreES(unsigned ES) {
    switch (ES) {
    case 1:
      return &VMOps::storeScalar<1, CK>;
    case 2:
      return &VMOps::storeScalar<2, CK>;
    case 4:
      return &VMOps::storeScalar<4, CK>;
    default:
      return &VMOps::storeScalar<8, CK>;
    }
  }

  static Handler pickStore(unsigned ES, VMCheck CK) {
    switch (CK) {
    case VMCheck::None:
      return pickStoreES<VMCheck::None>(ES);
    case VMCheck::AuditBounds:
      return pickStoreES<VMCheck::AuditBounds>(ES);
    default:
      return pickStoreES<VMCheck::Bounds>(ES);
    }
  }

  template <VMCheck CK> static Handler pickVLoadES(unsigned ES) {
    switch (ES) {
    case 1:
      return &VMOps::vload<1, CK>;
    case 2:
      return &VMOps::vload<2, CK>;
    case 4:
      return &VMOps::vload<4, CK>;
    default:
      return &VMOps::vload<8, CK>;
    }
  }

  static Handler pickVLoad(unsigned ES, VMCheck CK) {
    switch (CK) {
    case VMCheck::Align:
      return pickVLoadES<VMCheck::Align>(ES);
    case VMCheck::None:
      return pickVLoadES<VMCheck::None>(ES);
    case VMCheck::AuditAlign:
      return pickVLoadES<VMCheck::AuditAlign>(ES);
    case VMCheck::AuditBounds:
      return pickVLoadES<VMCheck::AuditBounds>(ES);
    default:
      return pickVLoadES<VMCheck::Bounds>(ES);
    }
  }

  template <VMCheck CK> static Handler pickVStoreES(unsigned ES) {
    switch (ES) {
    case 1:
      return &VMOps::vstore<1, CK>;
    case 2:
      return &VMOps::vstore<2, CK>;
    case 4:
      return &VMOps::vstore<4, CK>;
    default:
      return &VMOps::vstore<8, CK>;
    }
  }

  static Handler pickVStore(unsigned ES, VMCheck CK) {
    switch (CK) {
    case VMCheck::Align:
      return pickVStoreES<VMCheck::Align>(ES);
    case VMCheck::None:
      return pickVStoreES<VMCheck::None>(ES);
    case VMCheck::AuditAlign:
      return pickVStoreES<VMCheck::AuditAlign>(ES);
    case VMCheck::AuditBounds:
      return pickVStoreES<VMCheck::AuditBounds>(ES);
    default:
      return pickVStoreES<VMCheck::Bounds>(ES);
    }
  }

  // Each pick* resolves (sub-opcode, scalar kind) to a fully templated
  // handler; kinds outside VAPOR_VM_FOREACH_KIND get the runtime-kind
  // fallback, so every decodable op still has a handler. The widening
  // idioms (pickWiden) are the exception: the verifier admits one kind
  // pair per narrow kind, and every such pair has an instantiation.

  template <Opcode Sub> static Handler pickBinK(ScalarKind K, bool V) {
    switch (K) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    return V ? static_cast<Handler>(&VMOps::binVK<Sub, ScalarKind::KK>)   \
             : static_cast<Handler>(&VMOps::binSK<Sub, ScalarKind::KK>);
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return V ? static_cast<Handler>(&VMOps::binV<Sub>)
               : static_cast<Handler>(&VMOps::binS<Sub>);
    }
  }

  static Handler pickBinop(Opcode Sub, bool V, ScalarKind K) {
    switch (Sub) {
#define BINOP_CASE(OP)                                                    \
  case Opcode::OP:                                                        \
    return pickBinK<Opcode::OP>(K, V);
      BINOP_CASE(Add)
      BINOP_CASE(Sub)
      BINOP_CASE(Mul)
      BINOP_CASE(Div)
      BINOP_CASE(Rem)
      BINOP_CASE(Min)
      BINOP_CASE(Max)
      BINOP_CASE(And)
      BINOP_CASE(Or)
      BINOP_CASE(Xor)
      BINOP_CASE(Shl)
      BINOP_CASE(ShrL)
      BINOP_CASE(ShrA)
      BINOP_CASE(AddSatS)
      BINOP_CASE(AddSatU)
      BINOP_CASE(SubSatS)
      BINOP_CASE(SubSatU)
#undef BINOP_CASE
    default:
      vapor_unreachable("bad ALU binop");
    }
  }

  template <Opcode Sub> static Handler pickUnK(ScalarKind K, bool V) {
    switch (K) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    return V ? static_cast<Handler>(&VMOps::unVK<Sub, ScalarKind::KK>)    \
             : static_cast<Handler>(&VMOps::unSK<Sub, ScalarKind::KK>);
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return V ? static_cast<Handler>(&VMOps::unV<Sub>)
               : static_cast<Handler>(&VMOps::unS<Sub>);
    }
  }

  static Handler pickUnop(Opcode Sub, bool V, ScalarKind K) {
    switch (Sub) {
    case Opcode::Neg:
      return pickUnK<Opcode::Neg>(K, V);
    case Opcode::Abs:
      return pickUnK<Opcode::Abs>(K, V);
    case Opcode::Sqrt:
      return pickUnK<Opcode::Sqrt>(K, V);
    default:
      vapor_unreachable("bad ALU unop");
    }
  }

  template <Opcode Sub> static Handler pickCmpK(ScalarKind K, bool V) {
    switch (K) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    return V ? static_cast<Handler>(&VMOps::cmpVK<Sub, ScalarKind::KK>)   \
             : static_cast<Handler>(&VMOps::cmpSK<Sub, ScalarKind::KK>);
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return V ? static_cast<Handler>(&VMOps::cmpV<Sub>)
               : static_cast<Handler>(&VMOps::cmpS<Sub>);
    }
  }

  /// \p K is the operand (source) kind the comparison runs at.
  static Handler pickCmp(Opcode Sub, bool V, ScalarKind K) {
    switch (Sub) {
#define CMP_CASE(OP)                                                      \
  case Opcode::OP:                                                        \
    return pickCmpK<Opcode::OP>(K, V);
      CMP_CASE(CmpEQ)
      CMP_CASE(CmpNE)
      CMP_CASE(CmpLT)
      CMP_CASE(CmpLE)
      CMP_CASE(CmpGT)
      CMP_CASE(CmpGE)
#undef CMP_CASE
    default:
      vapor_unreachable("bad compare");
    }
  }

  template <ScalarKind SK> static Handler pickCvtDst(ScalarKind DK, bool V) {
    switch (DK) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    return V ? static_cast<Handler>(&VMOps::cvtVK<SK, ScalarKind::KK>)    \
             : static_cast<Handler>(&VMOps::cvtSK<SK, ScalarKind::KK>);
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return V ? static_cast<Handler>(&VMOps::cvtV)
               : static_cast<Handler>(&VMOps::cvtS);
    }
  }

  static Handler pickCvt(ScalarKind SK, ScalarKind DK, bool V) {
    switch (SK) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    return pickCvtDst<ScalarKind::KK>(DK, V);
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return V ? static_cast<Handler>(&VMOps::cvtV)
               : static_cast<Handler>(&VMOps::cvtS);
    }
  }

  /// Resolves widening idiom \p What from narrow kind \p NK to wide kind
  /// \p WK to \p Inst's instantiation for NK. WK must be widenKind(NK),
  /// the only pairing the IR verifier admits; any other pair is fatal.
  template <typename InstFn>
  static Handler pickWiden(const char *What, ScalarKind NK, ScalarKind WK,
                           InstFn Inst) {
    if (WK == widenKind(NK))
      switch (NK) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    return Inst.template operator()<ScalarKind::KK>();
        VAPOR_VM_FOREACH_NARROW_KIND(KIND_CASE)
#undef KIND_CASE
      default:
        break;
      }
    fatalError(std::string("VM: ") + What + " between " +
               scalarKindName(NK) + " and " + scalarKindName(WK) +
               " is not a widening kind pair");
  }

  template <Opcode Sub> static Handler pickReduceK(ScalarKind K) {
    switch (K) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    return &VMOps::reduceK<Sub, ScalarKind::KK>;
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return &VMOps::reduce<Sub>;
    }
  }

  static Handler pickReduce(Opcode Sub, ScalarKind K) {
    switch (Sub) {
    case Opcode::Add:
      return pickReduceK<Opcode::Add>(K);
    case Opcode::Max:
      return pickReduceK<Opcode::Max>(K);
    case Opcode::Min:
      return pickReduceK<Opcode::Min>(K);
    default:
      vapor_unreachable("bad reduction operator");
    }
  }
};

//===--- Fuser ------------------------------------------------------------===//

struct VMFuser {
  using DOp = DecodedProgram::DOp;
  using Handler = DecodedProgram::Handler;

  static bool isControl(OpCls C) {
    return C == OpCls::LoopHead || C == OpCls::Latch || C == OpCls::Jump ||
           C == OpCls::Branch;
  }

  /// The binop sub-opcodes worth a template instantiation: the ones that
  /// dominate the kernel suite's dynamic op mix. Everything else stays
  /// unfused (still correct, just two dispatches).
  static bool fusibleBin(uint8_t Sub) {
    switch (static_cast<Opcode>(Sub)) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Min:
    case Opcode::Max:
    case Opcode::AddSatS:
    case Opcode::AddSatU:
    case Opcode::SubSatS:
    case Opcode::SubSatU:
      return true;
    default:
      return false;
    }
  }

  static bool validES(unsigned ES) {
    return ES == 1 || ES == 2 || ES == 4 || ES == 8;
  }

  /// A checked access only fuses when its decoded alignment mask is the
  /// access footprint Lanes*ES-1 -- the fused handlers recompute the
  /// mask from Lanes and the template ES instead of carrying Imm.
  static bool maskMatches(const DOp &M, unsigned ES) {
    return uint64_t(M.Lanes) * ES == static_cast<uint64_t>(M.Imm) + 1;
  }

  /// Audit-counting ops never fuse: they are a soundness-verification
  /// mode, not a fast path, and keeping them as their own dispatch keeps
  /// the counting handlers simple. Everything else (Bounds/Align/None)
  /// has a fused instantiation.
  static bool fusibleCheck(uint8_t Sub) {
    return Sub < static_cast<uint8_t>(VMCheck::AuditAlign);
  }

  //===--- Fused-handler pickers ------------------------------------------===//

  template <template <unsigned, VMCheck> class H, VMCheck CK>
  static Handler pickByESK(unsigned ES) {
    switch (ES) {
    case 1:
      return &H<1, CK>::get;
    case 2:
      return &H<2, CK>::get;
    case 4:
      return &H<4, CK>::get;
    default:
      return &H<8, CK>::get;
    }
  }

  template <template <unsigned, VMCheck> class H>
  static Handler pickByES(unsigned ES, VMCheck CK) {
    switch (CK) {
    case VMCheck::Align:
      return pickByESK<H, VMCheck::Align>(ES);
    case VMCheck::None:
      return pickByESK<H, VMCheck::None>(ES);
    default:
      return pickByESK<H, VMCheck::Bounds>(ES);
    }
  }

// Wrapping the fused function templates in picker structs keeps the
// ES x check-state (x Sub) instantiation fan-out to one switch each.
#define FUSED_ES_PICKER(NAME, FN)                                         \
  template <unsigned ES, VMCheck CK> struct NAME##Wrap {                  \
    VAPOR_VM_HANDLER uint32_t get(VM &Vm, const DOp &O, uint32_t PC) {    \
      return VMOps::FN<ES, CK>(Vm, O, PC);                                \
    }                                                                     \
  };                                                                      \
  static Handler NAME(unsigned ES, VMCheck CK) {                          \
    return pickByES<NAME##Wrap>(ES, CK);                                  \
  }

  FUSED_ES_PICKER(pickAddrLoad, addrLoad)
  FUSED_ES_PICKER(pickAddrStore, addrStore)
  FUSED_ES_PICKER(pickLoadPerm, loadPerm)
#undef FUSED_ES_PICKER

  // Kind-resolving pickers for the ALU-carrying superops. All of them
  // return nullptr for kinds outside VAPOR_VM_FOREACH_KIND (or for
  // non-dominant sub-opcodes): the pair simply stays unfused.

  template <Opcode Sub>
  static Handler pickLoadBinK(ScalarKind K, VMCheck CK) {
    switch (K) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    switch (CK) {                                                         \
    case VMCheck::Align:                                                  \
      return &VMOps::loadBin<Sub, ScalarKind::KK, VMCheck::Align>;        \
    case VMCheck::None:                                                   \
      return &VMOps::loadBin<Sub, ScalarKind::KK, VMCheck::None>;         \
    default:                                                              \
      return &VMOps::loadBin<Sub, ScalarKind::KK, VMCheck::Bounds>;      \
    }
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return nullptr;
    }
  }

  template <Opcode Sub>
  static Handler pickBinStoreK(ScalarKind K, VMCheck CK) {
    switch (K) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    switch (CK) {                                                         \
    case VMCheck::Align:                                                  \
      return &VMOps::binStore<Sub, ScalarKind::KK, VMCheck::Align>;       \
    case VMCheck::None:                                                   \
      return &VMOps::binStore<Sub, ScalarKind::KK, VMCheck::None>;        \
    default:                                                              \
      return &VMOps::binStore<Sub, ScalarKind::KK, VMCheck::Bounds>;     \
    }
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return nullptr;
    }
  }

#define FUSED_SUB_SWITCH(PICK, ...)                                       \
  switch (static_cast<Opcode>(Sub)) {                                     \
  case Opcode::Add:                                                       \
    return PICK<Opcode::Add>(__VA_ARGS__);                                \
  case Opcode::Sub:                                                       \
    return PICK<Opcode::Sub>(__VA_ARGS__);                                \
  case Opcode::Mul:                                                       \
    return PICK<Opcode::Mul>(__VA_ARGS__);                                \
  case Opcode::Min:                                                       \
    return PICK<Opcode::Min>(__VA_ARGS__);                                \
  case Opcode::Max:                                                       \
    return PICK<Opcode::Max>(__VA_ARGS__);                                \
  case Opcode::AddSatS:                                                   \
    return PICK<Opcode::AddSatS>(__VA_ARGS__);                            \
  case Opcode::AddSatU:                                                   \
    return PICK<Opcode::AddSatU>(__VA_ARGS__);                            \
  case Opcode::SubSatS:                                                   \
    return PICK<Opcode::SubSatS>(__VA_ARGS__);                            \
  case Opcode::SubSatU:                                                   \
    return PICK<Opcode::SubSatU>(__VA_ARGS__);                            \
  default:                                                                \
    return nullptr;                                                       \
  }

  static Handler pickLoadBin(uint8_t Sub, ScalarKind K, VMCheck CK) {
    FUSED_SUB_SWITCH(pickLoadBinK, K, CK)
  }

  static Handler pickBinStore(uint8_t Sub, ScalarKind K, VMCheck CK) {
    FUSED_SUB_SWITCH(pickBinStoreK, K, CK)
  }

  template <Opcode S1, Opcode S2>
  static Handler pickBinBinK(ScalarKind K) {
    switch (K) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    return &VMOps::binBin<S1, S2, ScalarKind::KK>;
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return nullptr;
    }
  }

  template <Opcode S1>
  static Handler pickBinBin2(uint8_t S2, ScalarKind K) {
    switch (static_cast<Opcode>(S2)) {
    case Opcode::Add:
      return pickBinBinK<S1, Opcode::Add>(K);
    case Opcode::Sub:
      return pickBinBinK<S1, Opcode::Sub>(K);
    case Opcode::Mul:
      return pickBinBinK<S1, Opcode::Mul>(K);
    case Opcode::Min:
      return pickBinBinK<S1, Opcode::Min>(K);
    case Opcode::Max:
      return pickBinBinK<S1, Opcode::Max>(K);
    case Opcode::AddSatS:
      return pickBinBinK<S1, Opcode::AddSatS>(K);
    case Opcode::AddSatU:
      return pickBinBinK<S1, Opcode::AddSatU>(K);
    case Opcode::SubSatS:
      return pickBinBinK<S1, Opcode::SubSatS>(K);
    case Opcode::SubSatU:
      return pickBinBinK<S1, Opcode::SubSatU>(K);
    default:
      return nullptr;
    }
  }

  static Handler pickBinBin(uint8_t Sub, uint8_t S2, ScalarKind K) {
    FUSED_SUB_SWITCH(pickBinBin2, S2, K)
  }
#undef FUSED_SUB_SWITCH

  template <Opcode Sub> static Handler pickCmpBranchK(ScalarKind K) {
    switch (K) {
#define KIND_CASE(KK)                                                     \
  case ScalarKind::KK:                                                    \
    return &VMOps::cmpBranch<Sub, ScalarKind::KK>;
      VAPOR_VM_FOREACH_KIND(KIND_CASE)
#undef KIND_CASE
    default:
      return nullptr;
    }
  }

  static Handler pickCmpBranch(uint8_t Sub, ScalarKind K) {
    switch (static_cast<Opcode>(Sub)) {
    case Opcode::CmpEQ:
      return pickCmpBranchK<Opcode::CmpEQ>(K);
    case Opcode::CmpNE:
      return pickCmpBranchK<Opcode::CmpNE>(K);
    case Opcode::CmpLT:
      return pickCmpBranchK<Opcode::CmpLT>(K);
    case Opcode::CmpLE:
      return pickCmpBranchK<Opcode::CmpLE>(K);
    case Opcode::CmpGT:
      return pickCmpBranchK<Opcode::CmpGT>(K);
    case Opcode::CmpGE:
      return pickCmpBranchK<Opcode::CmpGE>(K);
    default:
      return nullptr;
    }
  }

  //===--- Pair matching --------------------------------------------------===//

  /// Seeds a superop from the pair (X, Y): summed cost/counts, class
  /// Fused unless a pattern overrides it to FusedBr.
  static DOp seed(const DOp &X, const DOp &Y) {
    DOp F;
    F.Cost = X.Cost + Y.Cost;
    F.Counts = static_cast<uint8_t>(X.Counts + Y.Counts);
    F.Cls = OpCls::Fused;
    return F;
  }

  /// Tries to fuse adjacent ops \p X then \p Y into \p F. \p TrapConst
  /// receives the index (0 or 1) of the constituent whose pre-fusion op
  /// index alignment traps must report; each pattern has at most one
  /// trappable constituent. \returns false to leave the pair unfused.
  static bool tryFuse(const DOp &X, const DOp &Y, DOp &F,
                      unsigned &TrapConst) {
    TrapConst = 0;

    // Costed-nop absorption (spill placeholders): the nop's cost and
    // count ride along on the neighbor. A nop after a control op is NOT
    // absorbed -- a taken branch would skip it, and its cost with it.
    if (X.Cls == OpCls::Nop) {
      F = Y;
      F.Cost = X.Cost + Y.Cost;
      F.Counts = static_cast<uint8_t>(X.Counts + Y.Counts);
      TrapConst = 1;
      return true;
    }
    if (Y.Cls == OpCls::Nop && !isControl(X.Cls)) {
      F = X;
      F.Cost = X.Cost + Y.Cost;
      F.Counts = static_cast<uint8_t>(X.Counts + Y.Counts);
      return true;
    }

    switch (X.Cls) {
    case OpCls::Addr: {
      // addr dst feeding a load's address -> addr+load.
      if ((Y.Cls == OpCls::VLoad || Y.Cls == OpCls::LoadS) && Y.B == X.A) {
        VMCheck CK = static_cast<VMCheck>(Y.Sub);
        unsigned ES = scalarSize(static_cast<ScalarKind>(Y.Kind));
        if (!fusibleCheck(Y.Sub) || !validES(ES) ||
            (CK == VMCheck::Align && !maskMatches(Y, ES)))
          return false;
        F = seed(X, Y);
        F.Fn = pickAddrLoad(ES, CK);
        F.A = Y.A;
        F.B = X.B;
        F.C = X.C;
        F.D = X.A;
        F.Imm = X.Imm;
        F.Lanes = Y.Lanes;
        F.Kind = Y.Kind;
        TrapConst = 1;
        return true;
      }
      // addr dst feeding a store's address -> addr+store.
      if ((Y.Cls == OpCls::VStore || Y.Cls == OpCls::StoreS) && Y.A == X.A) {
        VMCheck CK = static_cast<VMCheck>(Y.Sub);
        unsigned ES = scalarSize(static_cast<ScalarKind>(Y.Kind));
        if (!fusibleCheck(Y.Sub) || !validES(ES) ||
            (CK == VMCheck::Align && !maskMatches(Y, ES)))
          return false;
        F = seed(X, Y);
        F.Fn = pickAddrStore(ES, CK);
        F.A = X.A;
        F.B = X.B;
        F.C = X.C;
        F.D = Y.B;
        F.Imm = X.Imm;
        F.Lanes = Y.Lanes;
        F.Kind = Y.Kind;
        TrapConst = 1;
        return true;
      }
      return false;
    }

    case OpCls::VLoad:
    case OpCls::LoadS: {
      VMCheck CK = static_cast<VMCheck>(X.Sub);
      unsigned ES = scalarSize(static_cast<ScalarKind>(X.Kind));
      if (!fusibleCheck(X.Sub) || !validES(ES) ||
          (CK == VMCheck::Align && !maskMatches(X, ES)))
        return false;
      // load dst feeding one side of a binop -> load+binop. The fused
      // handler derives the element size from the binop kind, so the
      // load's element size must match it.
      OpCls WantBin = X.Cls == OpCls::VLoad ? OpCls::BinV : OpCls::BinS;
      if (Y.Cls == WantBin && fusibleBin(Y.Sub) && Y.Lanes == X.Lanes &&
          scalarSize(static_cast<ScalarKind>(Y.Kind)) == ES &&
          (Y.B == X.A || Y.C == X.A)) {
        Handler H =
            pickLoadBin(Y.Sub, static_cast<ScalarKind>(Y.Kind), CK);
        if (!H)
          return false;
        F = seed(X, Y);
        F.Fn = H;
        F.A = X.A;
        F.B = X.B;
        F.D = Y.A;
        if (Y.B == X.A) {
          F.C = Y.C;
          F.SrcKind = 0;
        } else {
          F.C = Y.B;
          F.SrcKind = 1;
        }
        F.Lanes = X.Lanes;
        F.Kind = Y.Kind;
        return true;
      }
      // load dst feeding a realign permute -> load+permute (the fused
      // handler folds the element-size shift into its template).
      if (X.Cls == OpCls::VLoad && Y.Cls == OpCls::VPerm &&
          Y.Lanes == X.Lanes && (Y.B == X.A || Y.C == X.A) &&
          static_cast<uint64_t>(Y.Imm) == VMDecoder::log2Size(ES)) {
        F = seed(X, Y);
        F.Fn = pickLoadPerm(ES, CK);
        F.A = Y.A;
        F.B = X.B;
        F.Aux = X.A;
        F.D = Y.D;
        if (Y.B == X.A) {
          F.C = Y.C;
          F.SrcKind = 0;
        } else {
          F.C = Y.B;
          F.SrcKind = 1;
        }
        F.Lanes = X.Lanes;
        F.Kind = X.Kind;
        return true;
      }
      return false;
    }

    case OpCls::BinV:
    case OpCls::BinS: {
      if (!fusibleBin(X.Sub))
        return false;
      // binop dst feeding one side of a same-kind binop -> binop+binop.
      if (Y.Cls == X.Cls && fusibleBin(Y.Sub) && Y.Lanes == X.Lanes &&
          Y.Kind == X.Kind && (Y.B == X.A || Y.C == X.A)) {
        Handler H =
            pickBinBin(X.Sub, Y.Sub, static_cast<ScalarKind>(X.Kind));
        if (!H)
          return false;
        F = seed(X, Y);
        F.Fn = H;
        F.A = X.A;
        F.B = X.B;
        F.C = X.C;
        F.D = Y.A;
        if (Y.B == X.A) {
          F.Aux = Y.C;
          F.SrcKind = 0;
        } else {
          F.Aux = Y.B;
          F.SrcKind = 1;
        }
        F.Lanes = X.Lanes;
        F.Kind = X.Kind;
        return true;
      }
      // binop dst feeding a store's value -> binop+store. The fused
      // handler derives the store element size from the binop kind, so
      // the store's element size must match it.
      OpCls WantSt = X.Cls == OpCls::BinV ? OpCls::VStore : OpCls::StoreS;
      if (Y.Cls == WantSt && Y.B == X.A && Y.Lanes == X.Lanes) {
        VMCheck CK = static_cast<VMCheck>(Y.Sub);
        unsigned ES = scalarSize(static_cast<ScalarKind>(Y.Kind));
        if (!fusibleCheck(Y.Sub) || !validES(ES) ||
            (CK == VMCheck::Align && !maskMatches(Y, ES)) ||
            scalarSize(static_cast<ScalarKind>(X.Kind)) != ES)
          return false;
        Handler H =
            pickBinStore(X.Sub, static_cast<ScalarKind>(X.Kind), CK);
        if (!H)
          return false;
        F = seed(X, Y);
        F.Fn = H;
        F.A = X.A;
        F.B = X.B;
        F.C = X.C;
        F.D = Y.A;
        F.Lanes = X.Lanes;
        F.Kind = X.Kind;
        TrapConst = 1;
        return true;
      }
      return false;
    }

    case OpCls::CmpS: {
      // scalar compare feeding a branch-if-zero -> compare+branch.
      if (Y.Cls == OpCls::Branch && Y.A == X.A) {
        Handler H =
            pickCmpBranch(X.Sub, static_cast<ScalarKind>(X.SrcKind));
        if (!H)
          return false;
        F = seed(X, Y);
        F.Fn = H;
        F.A = X.A;
        F.B = X.B;
        F.C = X.C;
        F.SrcKind = X.SrcKind;
        F.Imm = Y.Imm; // Old-index target; remapped after the pass.
        F.Cls = OpCls::FusedBr;
        return true;
      }
      return false;
    }

    case OpCls::Copy: {
      // last phi copy + loop latch -> copy+latch.
      if (Y.Cls == OpCls::Latch) {
        F = seed(X, Y);
        F.Fn = &VMOps::copyLatch;
        F.A = X.A;
        F.B = X.B;
        F.Lanes = X.Lanes;
        F.C = Y.A;
        F.D = Y.B;
        F.Imm = Y.Imm; // Old-index target; remapped after the pass.
        F.Cls = OpCls::FusedBr;
        return true;
      }
      return false;
    }

    default:
      return false;
    }
  }

  /// One greedy left-to-right pass: fuse (i, i+1) whenever i+1 is not a
  /// branch target and a pattern matches, then remap every absolute jump
  /// target through the old->new index table. i itself MAY be a branch
  /// target -- jumps land on the superop, which starts with i's
  /// semantics.
  static void run(DecodedProgram &P) {
    const std::vector<DOp> Old = std::move(P.Code);
    P.Code.clear();
    const uint32_t N = static_cast<uint32_t>(Old.size());
    if (N == 0)
      return;

    // Branch targets (absolute Imm of every control op; loop heads can
    // target one past the end).
    std::vector<bool> IsTarget(N + 1, false);
    for (const DOp &O : Old)
      if (isControl(O.Cls)) {
        assert(O.Imm >= 0 && static_cast<uint64_t>(O.Imm) <= N &&
               "control op with unpatched target");
        IsTarget[static_cast<uint32_t>(O.Imm)] = true;
      }

    std::vector<uint32_t> OldToNew(N + 1, 0);
    std::vector<DOp> New;
    New.reserve(N);
    std::vector<uint32_t> Orig;
    Orig.reserve(N);

    uint32_t I = 0;
    while (I < N) {
      DOp F;
      unsigned TrapConst = 0;
      if (I + 1 < N && !IsTarget[I + 1] &&
          tryFuse(Old[I], Old[I + 1], F, TrapConst)) {
        uint32_t NewIdx = static_cast<uint32_t>(New.size());
        OldToNew[I] = OldToNew[I + 1] = NewIdx;
        New.push_back(F);
        Orig.push_back(I + TrapConst);
        ++P.FusedOps;
        I += 2;
        continue;
      }
      OldToNew[I] = static_cast<uint32_t>(New.size());
      Orig.push_back(I);
      New.push_back(Old[I]);
      ++I;
    }
    OldToNew[N] = static_cast<uint32_t>(New.size());

    for (DOp &O : New)
      if (isControl(O.Cls) || O.Cls == OpCls::FusedBr)
        O.Imm = OldToNew[static_cast<uint32_t>(O.Imm)];

    P.Code = std::move(New);
    P.OrigIndex = std::move(Orig);
  }
};

//===--- DecodedProgram ---------------------------------------------------===//

DecodedProgram::Layout DecodedProgram::layOut(const MFunction &F) {
  // A flat lane file: vector registers get VS/ES lanes.
  Layout L;
  L.Off.resize(F.Regs.size());
  L.Lanes.resize(F.Regs.size());
  uint32_t Total = 0;
  for (size_t R = 0; R < F.Regs.size(); ++R) {
    unsigned Lanes = 1;
    if (F.Regs[R].Vector && F.VSBytes)
      Lanes = std::max(1u, F.VSBytes / scalarSize(F.Regs[R].Kind));
    L.Off[R] = Total;
    L.Lanes[R] = static_cast<uint16_t>(Lanes);
    Total += Lanes;
  }
  LaneCount = Total;

  for (const MParam &Prm : F.Params) {
    assert(Prm.Reg < F.Regs.size() && "bad param register");
    Params.push_back({Prm.Name, L.Off[Prm.Reg], F.Regs[Prm.Reg].Kind});
  }
  return L;
}

uint32_t DecodedProgram::appendInstr(const MFunction &F, const Layout &L,
                                     const MInstr &I, const TargetDesc &T,
                                     const MemoryImage &Image) {
  return VMDecoder(*this, F, L, T, Image, /*Weak=*/false).instr(I);
}

std::shared_ptr<const DecodedProgram>
DecodedProgram::build(const MFunction &F, const TargetDesc &T,
                      const MemoryImage &Image, bool Weak, bool Fuse,
                      const ElisionPlan *Plan) {
  obs::Span S("vm", "decode+fuse");
  S.arg("function", F.Name);
  S.arg("target", T.Name);
  auto P = std::make_shared<DecodedProgram>();
  P->TargetName = T.Name;
  const Layout L = P->layOut(F);
  VMDecoder(*P, F, L, T, Image, Weak, Plan).region(F.Body);
  P->PreFusionOps = static_cast<uint32_t>(P->Code.size());
  if (Fuse)
    VMFuser::run(*P);
  static obs::Counter Built("vm.programs_built");
  static obs::Counter PreOps("vm.ops_prefusion");
  static obs::Counter Fused("vm.ops_fused");
  Built.add(1);
  PreOps.add(P->PreFusionOps);
  Fused.add(P->FusedOps);
  S.arg("ops_prefusion", static_cast<uint64_t>(P->PreFusionOps));
  S.arg("ops_fused", static_cast<uint64_t>(P->FusedOps));
  return P;
}

} // namespace target
} // namespace vapor

//===--- TrapInfo ---------------------------------------------------------===//

std::string TrapInfo::str() const {
  switch (TrapKind) {
  case Kind::None:
    return "no trap";
  case Kind::Alignment:
    return "alignment trap: aligned vector " +
           std::string(IsStore ? "store" : "load") +
           " at misaligned address " + std::to_string(Address) +
           " (requires " + std::to_string(RequiredAlign) + "B) on " + Target +
           ", op #" + std::to_string(OpIndex);
  case Kind::OutOfBounds:
    return "memory access out of image bounds at address " +
           std::to_string(Address) + " on " + Target;
  }
  vapor_unreachable("bad trap kind");
}

//===--- VM ---------------------------------------------------------------===//

VM::VM(const MFunction &F, const TargetDesc &T, MemoryImage &Image, bool Weak,
       bool Fuse, const ElisionPlan *Plan)
    : Prog(DecodedProgram::build(F, T, Image, Weak, Fuse, Plan)), Mem(Image) {
  bindProgram();
}

VM::VM(std::shared_ptr<const DecodedProgram> Program, MemoryImage &Image)
    : Prog(std::move(Program)), Mem(Image) {
  bindProgram();
}

void VM::bindProgram() {
  RegStore.assign(Prog->LaneCount + 1, 0);
  R = RegStore.data();
  if (reinterpret_cast<uintptr_t>(R) % 16 != 0)
    ++R; // 16-byte-align the lane file inside the padded store.
  AuxBase = Prog->AuxLanes.data();
}

uint8_t *VM::memFault(uint64_t Addr) {
  if (!TrapRecording)
    fatalError("memory access out of image bounds at address " +
               std::to_string(Addr));
  if (!Trapped) { // First trap wins: it is the one the executor acts on.
    Trapped = true;
    Trap = TrapInfo{TrapInfo::Kind::OutOfBounds, ~0u, Addr, 0, false,
                    Prog->TargetName};
    TrapMsg = Trap.str();
    static obs::Counter Faults("vm.mem_faults");
    Faults.add(1);
    if (obs::tracingActive())
      obs::event("vm", "mem_fault",
                 {{"target", obs::argStr(Prog->TargetName)},
                  {"address", obs::argStr(Addr)}});
  }
  // Hand the faulting op a zeroed sink so it completes harmlessly. The
  // run continues to normal termination (loop control is register-based,
  // never loaded from memory) so the dispatch loop stays branch-free; the
  // recorded trap surfaces in run()'s Status.
  std::memset(Scratch, 0, sizeof(Scratch));
  return Scratch;
}

uint32_t VM::alignTrap(uint32_t PC, uint64_t Addr, uint32_t RequiredAlign,
                       bool IsStore) {
  TrapInfo TI{TrapInfo::Kind::Alignment, Prog->origIndex(PC), Addr,
              RequiredAlign, IsStore, Prog->TargetName};
  if (!TrapRecording)
    fatalError(TI.str());
  if (!Trapped) { // First trap wins.
    Trapped = true;
    Trap = TI;
    TrapMsg = Trap.str();
    static obs::Counter Traps("vm.align_traps");
    Traps.add(1);
    if (obs::tracingActive())
      obs::event("vm", "align_trap",
                 {{"target", obs::argStr(Prog->TargetName)},
                  {"op", obs::argStr(static_cast<uint64_t>(TI.OpIndex))},
                  {"address", obs::argStr(TI.Address)},
                  {"required_align",
                   obs::argStr(static_cast<uint64_t>(TI.RequiredAlign))},
                  {"is_store", obs::argStr(TI.IsStore)}});
  }
  return static_cast<uint32_t>(Prog->Code.size()); // Halt the run loop.
}

void VM::setParamInt(const std::string &Name, int64_t V) {
  for (const DecodedProgram::ParamSlot &P : Prog->Params) {
    if (P.Name != Name)
      continue;
    R[P.Off] = isFloatKind(P.Kind) ? encodeFP(P.Kind, static_cast<double>(V))
                                   : encodeInt(P.Kind, V);
    return;
  }
  fatalError("unknown integer parameter '" + Name + "'");
}

void VM::setParamFP(const std::string &Name, double V) {
  for (const DecodedProgram::ParamSlot &P : Prog->Params) {
    if (P.Name != Name)
      continue;
    R[P.Off] = isFloatKind(P.Kind) ? encodeFP(P.Kind, V)
                                   : encodeInt(P.Kind, static_cast<int64_t>(V));
    return;
  }
  fatalError("unknown float parameter '" + Name + "'");
}

// Cache-line aligned, so the dispatch loops sit at fixed offsets from a
// 32-byte boundary instead of wherever the handlers before run() happen
// to end. On Skylake-derived cores a loop branch that straddles such a
// boundary is not cached as decoded uops; measured on a Cooper Lake
// host, that placement made every dispatch about 1.4 ns slower (sfir_fp
// ran 25% slower with its handlers byte-identical).
__attribute__((aligned(64))) status::Status VM::run() {
  using status::Code;
  using status::Layer;
  if (Trapped) // A previous run already faulted; don't resume.
    return status::Status::error(Trap.TrapKind == TrapInfo::Kind::Alignment
                                     ? Code::AlignmentTrap
                                     : Code::OutOfBoundsAccess,
                                 Layer::Vm, Trap.str());

  MemPtr = Mem.data();
  MemLo = Mem.lowAddr();
  MemHi = Mem.highAddr();

  // The dispatch loop carries no trap check: an alignment trap halts by
  // returning a past-the-end PC, and a recorded bounds fault lets the run
  // finish against the scratch sink (termination is register-driven), so
  // the uninstrumented hot path is byte-for-byte the pre-fault-tolerance
  // loop.
  const DOp *Ops = Prog->Code.data();
  const uint32_t N = static_cast<uint32_t>(Prog->Code.size());
  uint64_t Cyc = 0, Ins = 0;
  uint32_t PC = 0;
  if (__builtin_expect(Fuel != 0, 0)) {
    // Fueled (deadline-bounded) run: a separate copy of the dispatch
    // loop, so the unfueled hot path below stays byte-identical to the
    // pre-fuel interpreter. The budget counts dispatched decoded ops --
    // the one quantity the loop already advances by exactly one per
    // iteration -- so exhaustion is detected within one dispatch of the
    // limit regardless of fusion or control flow.
    //
    // Fault-injection site: models a runaway kernel without needing one;
    // fires only on fueled runs, so the crashtest's classic sweeps never
    // count it.
    if (faultinject::shouldFire(faultinject::SiteClass::Deadline))
      return status::Status::error(
          Code::DeadlineExceeded, Layer::Vm,
          "injected fault: deadline exceeded before dispatch");
    uint64_t Left = Fuel;
    while (PC < N) {
      if (__builtin_expect(Left-- == 0, 0)) {
        Cycles += Cyc;
        Instrs += Ins;
        static obs::Counter Deadlines("vm.deadline_exceeded");
        Deadlines.add(1);
        return status::Status::error(
            Code::DeadlineExceeded, Layer::Vm,
            "deadline exceeded: dispatch budget of " + std::to_string(Fuel) +
                " ops exhausted on " + Prog->TargetName);
      }
      const DOp &O = Ops[PC];
      Cyc += O.Cost;
      Ins += O.Counts;
      PC = O.Fn(*this, O, PC);
    }
  } else {
    while (PC < N) {
      const DOp &O = Ops[PC];
      Cyc += O.Cost;
      Ins += O.Counts;
      PC = O.Fn(*this, O, PC);
    }
  }
  Cycles += Cyc;
  Instrs += Ins;
  // One relaxed add per *run*, never per dispatched op: the dispatch loop
  // above stays untouched, which is what keeps the ON-but-idle tracing
  // overhead inside the perf gate's 2% budget.
  static obs::Counter Runs("vm.runs");
  static obs::Counter Dispatched("vm.ops_dispatched");
  Runs.add(1);
  Dispatched.add(Ins);
  if (Trapped)
    return status::Status::error(Trap.TrapKind == TrapInfo::Kind::Alignment
                                     ? Code::AlignmentTrap
                                     : Code::OutOfBoundsAccess,
                                 Layer::Vm, Trap.str());
  return status::Status::okStatus();
}
