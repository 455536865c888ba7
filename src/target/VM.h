//===- target/VM.h - Cycle-model machine interpreter -----------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine behind every measured number in the repro: runs
/// a jit-compiled MFunction against a MemoryImage on one of the target
/// machine models and reports modeled cycles plus executed-instruction
/// counts. Executing 36 kernels x 4 flows x 5 targets per bench sweep
/// (counts verified against Pipeline.h's Flow enum and the kernel and
/// target registries) makes this the hot path of the repository, so it
/// is built as a pre-decoded threaded interpreter:
///
///  - construction decodes the structured machine code ONCE into a flat
///    array of fixed-size ops with resolved handler pointers, resolved
///    register-lane offsets, pre-encoded immediates, and the cycle cost
///    of each op baked in (loops and ifs become head/branch ops with
///    absolute jump targets);
///  - a post-decode macro-op fusion peephole (VMFuser, VM.cpp) rewrites
///    the dominant dynamic pairs -- address+load, load+arith, arith+
///    arith, arith+store, compare+branch, load+realign-permute, loop
///    plumbing copy+latch -- into single superops with summed cycle
///    costs and instruction counts, so the fused program models the
///    exact same cycles and instrsExecuted() in half the dispatches;
///  - the dispatch loop is `pc = op.Fn(vm, op, pc)` over that array --
///    no per-step name lookups, no maps, no allocation;
///  - all registers live in one flat preallocated file of 16-byte-
///    aligned 64-bit lanes; an op addresses lanes by precomputed offset;
///  - cycles and instruction counts accumulate as running integer adds.
///
/// The decoded (and fused) program is an immutable DecodedProgram that
/// many VMs can share: the content-addressed code cache (jit/CodeCache)
/// hands the same shared program to every sweep cell that compiles the
/// same function for the same target and placement, so repeated sweeps
/// skip decode+fuse entirely.
///
/// Aligned vector accesses (VLoadA/VStoreA) to a misaligned address are
/// a hard "alignment trap" abort: the machine models fault exactly where
/// real SSE movdqa / AltiVec lvx semantics would silently corrupt the
/// experiment. Traps report *pre-fusion* op indices: fusion keeps a side
/// table mapping each superop back to the original index of its (single)
/// trappable constituent, so TrapInfo attribution and the verifier's
/// mutation test stay exact with fusion on.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_TARGET_VM_H
#define VAPOR_TARGET_VM_H

#include "ir/Type.h"
#include "support/Status.h"
#include "target/Elision.h"
#include "target/MachineIR.h"
#include "target/MemoryImage.h"
#include "target/Target.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vapor {
namespace target {

/// Structured description of a recorded runtime trap. The executor's
/// deoptimization path and the verifier's mutation test assert on these
/// fields (op index, address, required alignment, target) instead of
/// parsing message strings.
struct TrapInfo {
  enum class Kind : uint8_t {
    None = 0,
    Alignment,   ///< Aligned vector access at a misaligned address.
    OutOfBounds, ///< Access outside the memory image.
  };
  Kind TrapKind = Kind::None;
  uint32_t OpIndex = ~0u;     ///< Faulting *pre-fusion* op PC (~0u unknown).
  uint64_t Address = 0;       ///< Faulting virtual address.
  uint32_t RequiredAlign = 0; ///< Bytes the access required (0 for bounds).
  bool IsStore = false;       ///< Store-side (vs load-side) fault.
  std::string Target;         ///< Name of the target model that trapped.

  /// One-line rendering, e.g. "alignment trap: aligned vector load at
  /// misaligned address 1048584 (requires 16B) on sse, op #12".
  std::string str() const;
};

class VM;

/// Structural class of a decoded op, written by the decoder so the
/// fusion peephole can pattern-match pairs without reverse-mapping
/// handler pointers. Runtime dispatch never reads it.
enum class OpCls : uint8_t {
  Other = 0,
  LoopHead, ///< Guarded loop entry; Imm = absolute exit target.
  Latch,    ///< iv += step; goto Imm (loop back-edge).
  Jump,     ///< Unconditional; Imm = absolute target.
  Branch,   ///< branch-if-zero; Imm = absolute target.
  Addr,     ///< base + (index << scale) address computation.
  LoadS,    ///< Scalar load; Sub = VMCheck state.
  StoreS,   ///< Scalar store; Sub = VMCheck state.
  VLoad,    ///< Vector load; Sub = VMCheck state (Align for VLoadA).
  VStore,   ///< Vector store; Sub = VMCheck state (Align for VStoreA).
  BinS,     ///< Scalar ALU binop; Sub = ir::Opcode.
  BinV,     ///< Vector ALU binop; Sub = ir::Opcode.
  CmpS,     ///< Scalar compare; Sub = ir::Opcode.
  VPerm,    ///< Two-source realignment permute.
  Copy,     ///< Synthetic whole-register copy (loop plumbing).
  Nop,      ///< Costed no-op (spill placeholder).
  Fused,    ///< Straight-line superop (fall-through).
  FusedBr,  ///< Control superop (cmp+branch, copy+latch); Imm = target.
};

/// Check state of a decoded memory op (DOp::Sub for the memory OpCls
/// values). The first two states are the historical defaults (Sub was a
/// bool "alignment-checked" flag); None/Audit* exist only when a checked
/// elision plan granted the access, so a null plan decodes byte-identical
/// programs to the pre-elision VM.
enum class VMCheck : uint8_t {
  Bounds = 0, ///< Image-bounds check only (unaligned vector / scalar).
  Align = 1,  ///< Alignment trap check, then bounds (VLoadA/VStoreA).
  None = 2,   ///< Every check elided by a checked certificate grant.
  /// Audit mode keeps the op's normal checks (including trapping!) but
  /// first counts *genuine* predicate fires into the VM's audit
  /// counters: each count is an instance an On-mode run would have
  /// elided. AuditAlign counts both predicates; AuditBounds only the
  /// bounds predicate.
  AuditAlign = 3,
  AuditBounds = 4,
};

/// An immutable decoded (and optionally fused) program: everything the
/// VM's dispatch loop needs except the mutable machine state (register
/// file, memory image, counters). Built once per (function, target,
/// placement, weak-tier) and shareable across any number of VMs running
/// concurrently -- the parallel sweep engine and the code cache rely on
/// that const-ness.
class DecodedProgram {
public:
  struct DOp;
  /// Executes one decoded op and \returns the next program counter.
  using Handler = uint32_t (*)(VM &, const DOp &, uint32_t);

  /// One pre-decoded op: handler, register-lane offsets (A..D), an
  /// immediate (pre-encoded constant, jump target, align mask, or shift
  /// depending on the handler), cost, and lane count. Superops pack both
  /// constituents' fields; their Cost/Counts are the pair's sums, so
  /// modeled cycles and instruction counts are fusion-invariant.
  struct DOp {
    Handler Fn = nullptr;
    uint32_t A = 0;
    uint32_t B = 0;
    uint32_t C = 0;
    uint32_t D = 0;
    int64_t Imm = 0;
    uint32_t Cost = 0;
    uint32_t Aux = 0;      ///< AuxLanes start (VExtract); superop lane off.
    uint16_t Lanes = 1;    ///< Lanes this op operates on.
    uint8_t Kind = 0;      ///< ir::ScalarKind of the operation.
    uint8_t SrcKind = 0;   ///< Source kind (converts); operand-order flag
                           ///< for superops (1 = fused value is the RHS).
    uint8_t Counts = 0;    ///< Contribution to instrsExecuted().
    OpCls Cls = OpCls::Other; ///< Structural class (fusion matching).
    uint8_t Sub = 0;       ///< Sub-opcode / checked flag (see OpCls).
  };

  /// Decodes \p F for target \p T with array bases resolved against
  /// \p Image's placement, then (when \p Fuse) runs the macro-op fusion
  /// peephole. \p Weak models the weak online tier (x87 scalar FP).
  /// \p Plan (may be null) grants per-access check elision: granted
  /// accesses decode to unchecked (or audit-counting) handlers. Cost and
  /// Counts never depend on the plan, so modeled cycles and
  /// instrsExecuted() are elision-invariant.
  static std::shared_ptr<const DecodedProgram>
  build(const MFunction &F, const TargetDesc &T, const MemoryImage &Image,
        bool Weak = false, bool Fuse = true,
        const ElisionPlan *Plan = nullptr);

  /// Where build() places each register of a function in the lane file:
  /// its first lane and its lane count (vector registers get VS/ES lanes).
  struct Layout {
    std::vector<uint32_t> Off;
    std::vector<uint16_t> Lanes;
  };

  /// The first step of build(): lays out \p F's register file, setting
  /// LaneCount and Params, and \returns each register's place.
  Layout layOut(const MFunction &F);

  /// The decoder's per-instruction step: appends the op build() emits for
  /// the straight-line instruction \p I of \p F (registers placed by \p L,
  /// array bases resolved against \p Image) and \returns its index. The
  /// native tier (codegen/NativeJit) collects the ops it does not lower
  /// inline this way and calls their handlers on a VM bound to the
  /// collection, so an op has one semantics on both tiers. Memory ops
  /// need the image binding VM::run() sets up; the native tier lowers
  /// every one of those inline.
  uint32_t appendInstr(const MFunction &F, const Layout &L, const MInstr &I,
                       const TargetDesc &T, const MemoryImage &Image);

  /// Maps a decoded-op PC back to the pre-fusion op index reported in
  /// TrapInfo::OpIndex: for a superop, the original index of its single
  /// trappable constituent. Identity when no fusion ran.
  uint32_t origIndex(uint32_t PC) const {
    return OrigIndex.empty() ? PC : OrigIndex[PC];
  }

  std::vector<DOp> Code;
  std::vector<uint32_t> AuxLanes; ///< Resolved lane offsets (VExtract).

  struct ParamSlot {
    std::string Name;
    uint32_t Off;
    ir::ScalarKind Kind;
  };
  std::vector<ParamSlot> Params;

  uint32_t LaneCount = 0; ///< 64-bit lanes in the register file.
  std::string TargetName; ///< For TrapInfo reporting.

  /// Per-superop original pre-fusion index (trappable constituent).
  /// Empty means identity (fusion off or nothing fused).
  std::vector<uint32_t> OrigIndex;
  uint32_t PreFusionOps = 0; ///< Op count before the peephole.
  uint32_t FusedOps = 0;     ///< Superops emitted by the peephole.
};

class VM {
public:
  /// Decodes \p F for execution on \p T against \p Image. \p Weak models
  /// the weak online tier's execution environment (x87 scalar FP);
  /// \p Fuse runs the macro-op fusion peephole (identical results, fewer
  /// dispatches). Arrays must already be placed in \p Image; bases are
  /// resolved here.
  VM(const MFunction &F, const TargetDesc &T, MemoryImage &Image,
     bool Weak = false, bool Fuse = true,
     const ElisionPlan *Plan = nullptr);

  /// Runs a prebuilt (typically cache-shared) program against \p Image.
  /// \p Image must use the placement the program's bases were resolved
  /// against.
  VM(std::shared_ptr<const DecodedProgram> Program, MemoryImage &Image);

  /// The immutable program this VM executes.
  const DecodedProgram &program() const { return *Prog; }

  /// Binds scalar parameter \p Name (aborts on unknown names).
  void setParamInt(const std::string &Name, int64_t V);
  void setParamFP(const std::string &Name, double V);

  /// The lane file: program().LaneCount lanes, 16-byte aligned. The
  /// native tier runs its generated code on it, so the ops it hands to
  /// this VM's handlers see the same registers.
  uint64_t *lanes() { return R; }

  /// Executes the function once. May be called repeatedly; cycle and
  /// instruction counters accumulate across runs. In trap-recording mode
  /// a runtime fault ends the run and comes back as a Vm-layer Status
  /// (with the structured details in trapInfo()); otherwise a fault is a
  /// hard abort, exactly where real movdqa/lvx semantics would corrupt
  /// the experiment. A successful run returns Ok either way.
  status::Status run();

  /// Modeled cycles consumed so far.
  uint64_t cycles() const { return Cycles; }
  /// Machine instructions executed so far (control flow not included).
  uint64_t instrsExecuted() const { return Instrs; }

  /// In trap-recording mode a runtime trap halts the current run()
  /// and is reported through trapped()/trapInfo() instead of aborting
  /// the process. The static verifier's tests use this as ground truth:
  /// a recorded trap is exactly the fault the verifier must have
  /// predicted. The executor's degradation chain runs every split-flow
  /// VM in this mode so it can deoptimize instead of dying.
  void setTrapRecording(bool On) { TrapRecording = On; }
  bool trapped() const { return Trapped; }

  /// Arms a per-run dispatch budget (the execution service's deadline):
  /// a run that dispatches more than \p MaxDispatches decoded ops halts
  /// with a DeadlineExceeded Status instead of wedging its worker. 0
  /// (the default) is unlimited and runs the exact pre-fuel dispatch
  /// loop -- the fueled loop is a separate copy, so unfueled callers pay
  /// nothing. The budget re-arms at every run() call.
  void setFuel(uint64_t MaxDispatches) { Fuel = MaxDispatches; }

  /// Audit-mode telemetry: genuine would-have-been-elided predicate fires
  /// accumulated across runs (VMCheck::AuditAlign/AuditBounds ops). Any
  /// nonzero count means a certificate grant was wrong -- the access also
  /// trapped normally, so audit runs never execute unsafely.
  uint64_t auditAlignFired() const { return AuditAlignFired; }
  uint64_t auditBoundsFired() const { return AuditBoundsFired; }
  /// Structured details of the recorded trap (TrapKind None if none).
  const TrapInfo &trapInfo() const { return Trap; }
  const std::string &trapMessage() const { return TrapMsg; }

private:
  using DOp = DecodedProgram::DOp;

  friend struct VMOps; ///< Handler implementations (VM.cpp).

  /// Sizes and aligns the register file for Prog and caches the aux-lane
  /// base pointer.
  void bindProgram();

  /// Bounds-fault site: aborts, or in trap-recording mode records the
  /// fault and \returns a zeroed scratch buffer the faulting op harmlessly
  /// operates on. The run then continues to its normal (register-driven)
  /// termination so the dispatch loop needs no per-op trap check; the
  /// recorded fault surfaces in run()'s Status.
  uint8_t *memFault(uint64_t Addr);

  /// Alignment-trap site: aborts, or in trap-recording mode records the
  /// fault (with \p PC mapped to its pre-fusion op index) and \returns a
  /// past-the-end PC that halts the run loop.
  uint32_t alignTrap(uint32_t PC, uint64_t Addr, uint32_t RequiredAlign,
                     bool IsStore);

  std::shared_ptr<const DecodedProgram> Prog;
  std::vector<uint64_t> RegStore; ///< Backing store for the lane file.
  uint64_t *R = nullptr;          ///< 16-byte-aligned lane file.
  const uint32_t *AuxBase = nullptr; ///< Prog->AuxLanes.data().

  MemoryImage &Mem;
  uint8_t *MemPtr = nullptr; ///< Cached image pointer during run().
  uint64_t MemLo = 0;
  uint64_t MemHi = 0;

  uint64_t Cycles = 0;
  uint64_t Instrs = 0;
  uint64_t Fuel = 0; ///< Per-run dispatch budget; 0 = unlimited.
  uint64_t AuditAlignFired = 0;
  uint64_t AuditBoundsFired = 0;

  bool TrapRecording = false;
  bool Trapped = false;
  TrapInfo Trap;
  std::string TrapMsg;
  alignas(16) uint8_t Scratch[64] = {}; ///< Sink for faulted accesses.
};

} // namespace target
} // namespace vapor

#endif // VAPOR_TARGET_VM_H
