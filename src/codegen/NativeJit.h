//===- codegen/NativeJit.h - MachineIR -> x86-64 binary emitter -*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction. See src/codegen/README.md for the
// ABI, the encoding table, and the demotion contract.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution tier: compiles the online JIT's MachineIR straight
/// to x86-64 machine code in mmap'd W^X pages, bypassing the cycle-model
/// VM entirely. The VM stays the golden, portable tier -- native output
/// must be bit-exact against it, including trap attribution, so the
/// emitter mirrors the VM decoder's flattening walk statement for
/// statement and keeps a running *ordinal* in lockstep with the VM's
/// pre-fusion PC.
///
/// Ops with a proven x86 equivalence (Table 1 idiom memory ops, lane-wise
/// int/fp arithmetic, compares, selects, permute/realign moves,
/// reductions) are emitted inline -- packed SSE2/VEX forms where the lane
/// layout allows, scalar x86-64 otherwise. Everything else (divides,
/// converts, widening multiplies, packs, dots, affine ramps, I1-kind ALU)
/// is decoded by the VM decoder's own per-instruction step and the
/// generated code calls that op's VM handler on the VM's lane file, so
/// such an op has one implementation on both tiers, not two.
///
/// The encoding set (legacy SSE2 vs VEX-128 vs VEX-256) is chosen at
/// compile time from a CpuFeatures mask, normally the host CPUID probe.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_CODEGEN_NATIVEJIT_H
#define VAPOR_CODEGEN_NATIVEJIT_H

#include "codegen/CpuFeatures.h"
#include "codegen/ExecMem.h"
#include "support/Status.h"
#include "target/Elision.h"
#include "target/MachineIR.h"
#include "target/MemoryImage.h"
#include "target/Target.h"
#include "target/VM.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace vapor {
namespace codegen {

/// The runtime state block the generated function receives (in rdi). The
/// prologue pins Lanes/MemBias/MemLo/MemHi/Fuel in callee-saved
/// registers; the Trap* fields are written by the trap stubs before the
/// early return. Field offsets are part of the generated-code ABI, hence
/// the asserts.
struct NativeContext {
  uint64_t *Lanes = nullptr; ///< Lane file base (the VM's lane file).
  uint64_t MemBias = 0;      ///< host pointer == virtual addr + MemBias.
  uint64_t MemLo = 0;        ///< First valid virtual address.
  uint64_t MemHi = 0;        ///< One past the last valid virtual address.
  uint64_t TrapAddr = 0;     ///< Faulting virtual address.
  uint32_t TrapOp = ~0u;     ///< Pre-fusion op ordinal (~0u for OOB, as VM).
  uint32_t TrapAlign = 0;    ///< Required alignment (0 for OOB).
  uint8_t TrapIsStore = 0;
  /// Audit-mode telemetry (elision plans in ElisionMode::Audit): counts
  /// of genuine would-have-been-elided predicate fires, incremented
  /// inline by the generated code before the (still live) checks run.
  uint64_t AuditAlign = 0;
  uint64_t AuditBounds = 0;
  /// The VM whose handlers run the deferred ops (first handler argument).
  target::VM *Vm = nullptr;
  /// Op budget, held in r15: every loop back-edge charges its loop's op
  /// count, and a run that cannot pay returns the deadline code.
  uint64_t Fuel = 0;
};
static_assert(offsetof(NativeContext, Lanes) == 0, "codegen ABI");
static_assert(offsetof(NativeContext, MemBias) == 8, "codegen ABI");
static_assert(offsetof(NativeContext, MemLo) == 16, "codegen ABI");
static_assert(offsetof(NativeContext, MemHi) == 24, "codegen ABI");
static_assert(offsetof(NativeContext, TrapAddr) == 32, "codegen ABI");
static_assert(offsetof(NativeContext, TrapOp) == 40, "codegen ABI");
static_assert(offsetof(NativeContext, TrapAlign) == 44, "codegen ABI");
static_assert(offsetof(NativeContext, TrapIsStore) == 48, "codegen ABI");
static_assert(offsetof(NativeContext, AuditAlign) == 56, "codegen ABI");
static_assert(offsetof(NativeContext, AuditBounds) == 64, "codegen ABI");
static_assert(offsetof(NativeContext, Vm) == 72, "codegen ABI");
static_assert(offsetof(NativeContext, Fuel) == 80, "codegen ABI");

/// One slot per MOp value, for the per-op inline/helper breakdown.
constexpr unsigned NumMOps = static_cast<unsigned>(target::MOp::SpillSt) + 1;

struct NativeStats {
  uint64_t MInstrs = 0;   ///< MachineIR instructions walked.
  uint64_t InlineOps = 0; ///< Ops lowered to inline x86-64.
  uint64_t HelperOps = 0; ///< Ops run on the VM's handlers.
  uint64_t PackedOps = 0; ///< SIMD-packed chunks emitted.
  uint64_t VexChunks = 0; ///< 256-bit VEX chunks among those.
  uint64_t CodeBytes = 0;
  std::string FeaturesUsed; ///< CpuFeatures::str() of the encoding set.
  std::array<uint32_t, NumMOps> InlineByOp{};
  std::array<uint32_t, NumMOps> HelperByOp{};
};

struct NativeOptions {
  /// Encoding set. Defaults to the host probe; tests force subsets to
  /// check feature-gated selection.
  CpuFeatures Features = hostFeatures();
  /// Checked elision plan (may be null): granted accesses drop (On) or
  /// audit-count (Audit) their inline align/bounds check sequences. The
  /// plan must outlive the compile call only -- grants are baked into
  /// the emitted code, so cache keys must include the plan hash.
  const target::ElisionPlan *Plan = nullptr;
};

/// An immutable compiled unit: sealed executable pages plus the decoded
/// ops the code calls into. Placement-specific (LoadBase bakes array
/// bases), so cache keys must include the memory-image placement hash.
class NativeUnit {
public:
  using EntryFn = uint64_t (*)(NativeContext *);

  ExecMem Code;
  /// The ops the code runs on VM handlers (their addresses are baked into
  /// the code), the parameter slots, and the lane count, scratch lane
  /// included. A NativeExec runs the code on a VM bound to it.
  target::DecodedProgram Deferred;
  NativeStats Stats;

  EntryFn entry() const {
    return reinterpret_cast<EntryFn>(Code.base());
  }
};

/// Binds a compiled unit to one MemoryImage and runs it, mirroring the
/// VM's execution API (setParam*, run, trapped, trapInfo).
class NativeExec {
public:
  NativeExec(std::shared_ptr<const NativeUnit> U, target::MemoryImage &Mem);

  void setParamInt(const std::string &Name, int64_t V) {
    Vm.setParamInt(Name, V);
  }
  void setParamFP(const std::string &Name, double V) {
    Vm.setParamFP(Name, V);
  }

  /// Executes. On a trap, returns the same Status the VM would
  /// (AlignmentTrap/OutOfBoundsAccess at Layer::Vm) with trapInfo()
  /// carrying VM-identical attribution.
  Status run();

  bool trapped() const { return Trapped; }
  const target::TrapInfo &trapInfo() const { return Trap; }

  /// Audit-mode telemetry accumulated across runs (mirrors
  /// VM::auditAlignFired/auditBoundsFired).
  uint64_t auditAlignFired() const { return AuditAlignFired; }
  uint64_t auditBoundsFired() const { return AuditBoundsFired; }

  /// Arms a per-run op budget (the native side of VM::setFuel). Every
  /// loop back-edge charges the pre-fusion op count of its loop, head to
  /// latch, so a budget buys about the work it buys on the VM; a run that
  /// cannot pay at a back-edge stops there with DeadlineExceeded. Code
  /// outside loops runs each op once and is never charged. 0 (default)
  /// is unlimited.
  void setFuel(uint64_t MaxOps) { Fuel = MaxOps; }

private:
  std::shared_ptr<const NativeUnit> Unit;
  target::MemoryImage &Mem;
  target::VM Vm;     ///< Bound to Unit->Deferred; owns the lane file.
  uint64_t Fuel = 0; ///< Per-run op budget; 0 = unlimited.
  target::TrapInfo Trap;
  bool Trapped = false;
  uint64_t AuditAlignFired = 0;
  uint64_t AuditBoundsFired = 0;
};

/// Compiles \p F (as lowered for \p T) to native x86-64 bound to the
/// array placement of \p Image. Fails with UnsupportedIdiom when the
/// feature set cannot host the tier at all, and Internal when executable
/// pages cannot be obtained -- both demote cleanly to the VM.
Expected<std::shared_ptr<const NativeUnit>>
compileNative(const target::MFunction &F, const target::TargetDesc &T,
              const target::MemoryImage &Image, const NativeOptions &Opts);

} // namespace codegen
} // namespace vapor

#endif // VAPOR_CODEGEN_NATIVEJIT_H
