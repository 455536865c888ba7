//===- target/MachineIR.h - Target machine code vocabulary -----*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-level IR the online JIT emits and the target VM executes.
/// It deliberately mirrors what era-accurate backends produced for the
/// paper's targets: explicit (mis)aligned vector memory ops, the
/// lvsr/vperm realignment pair, widening-multiply / pack / unpack /
/// interleave data reorganization, horizontal reductions, spill traffic
/// placeholders, and library-call fallbacks.
///
/// Like the source IR, machine code is *structured*: a function body is a
/// region tree of instructions, counted loops (with explicit loop-carried
/// slots), and two-armed ifs. Registers are virtual and infinite; the
/// register-pressure model in the JIT inserts SpillLd/SpillSt traffic
/// where a real allocator would, so the VM never needs a spill slot --
/// the cost model is what matters.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_TARGET_MACHINEIR_H
#define VAPOR_TARGET_MACHINEIR_H

#include "ir/Function.h"
#include "ir/Opcode.h"
#include "ir/Type.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vapor {
namespace target {

/// Virtual machine register id.
using MReg = uint32_t;
constexpr MReg NoReg = ~0u;

/// Machine opcodes. `V`-prefixed ops operate on full vector registers.
enum class MOp : uint8_t {
  // Register setup.
  LdImm,    ///< Dst = Imm (integer immediate of Kind).
  LdFImm,   ///< Dst = FImm (float immediate of Kind).
  Mov,      ///< Dst = Srcs[0].
  LoadBase, ///< Dst = runtime base address of Array.
  Addr,     ///< Dst = Srcs[0] + Srcs[1] * Scale (folded => free).

  // Scalar ALU and memory.
  Alu,   ///< Dst = SubOp(Srcs...) on Kind lanes (Vector selects width).
  Load,  ///< Dst = scalar Kind load from address Srcs[0].
  Store, ///< Store scalar Srcs[1] (Kind) to address Srcs[0].

  // Vector memory and realignment.
  VLoadA,  ///< Aligned vector load; traps on a misaligned address.
  VLoadU,  ///< Misaligned-capable vector load.
  VStoreA, ///< Aligned vector store; traps on a misaligned address.
  VStoreU, ///< Misaligned-capable vector store.
  GetPerm, ///< Dst = Srcs[0] % VSBytes (the lvsr realignment token).
  VPerm,   ///< Dst = select VS bytes from Srcs[0]:Srcs[1] at token Srcs[2].

  // Vector initialization.
  VSplat,    ///< Broadcast scalar Srcs[0] to every lane.
  VAffine,   ///< Lane L = Srcs[0] + L * Srcs[1].
  VSetLane0, ///< Copy vector Srcs[0], replace lane 0 with scalar Srcs[1].

  // Data reorganization and widening idioms.
  VExtract,  ///< Lane L = concat(Srcs...)[Imm + L * Imm2].
  VIlvLo,    ///< Interleave low halves of Srcs[0], Srcs[1].
  VIlvHi,    ///< Interleave high halves.
  VWMulLo,   ///< Widening multiply of low narrow halves.
  VWMulHi,   ///< Widening multiply of high narrow halves.
  VPack,     ///< Narrow both wide sources into one vector.
  VUnpackLo, ///< Widen the low narrow half of Srcs[0].
  VUnpackHi, ///< Widen the high narrow half.
  VDot,      ///< Dst[J] = Srcs[2][J] + sum of widened pair products.
  Reduce,    ///< Horizontal SubOp (add/min/max) of Srcs[0] into a scalar.

  // Fallbacks and allocator traffic.
  CallLib, ///< Library routine implementing SubOp on vectors.
  SpillLd, ///< Register-allocator reload traffic (cost only).
  SpillSt, ///< Register-allocator spill traffic (cost only).
};

/// \returns the assembly mnemonic for \p Op ("vload.a", "getperm", ...).
const char *mopMnemonic(MOp Op);

/// \returns whether the strong tier's loop-invariant code motion may move
/// an \p Op instruction out of a loop: a pure op with no memory access.
/// Loads, stores and lane ops stay put.
bool isHoistable(MOp Op);

/// One machine instruction. Which fields are meaningful depends on Op;
/// unset fields keep their defaults.
struct MInstr {
  MOp Op = MOp::LdImm;
  ir::Opcode SubOp = ir::Opcode::Add; ///< Alu / Reduce / CallLib operation.
  ir::ScalarKind Kind = ir::ScalarKind::None; ///< Element kind operated on.
  bool Vector = false; ///< Operates on vector registers.
  bool Folded = false; ///< Addr only: folded into the memory operand.
  MReg Dst = NoReg;
  std::vector<MReg> Srcs;
  int64_t Imm = 0;    ///< LdImm value; VExtract start offset.
  int64_t Imm2 = 0;   ///< VExtract stride.
  double FImm = 0;    ///< LdFImm value.
  uint32_t Array = 0; ///< LoadBase array id.
  unsigned Scale = 1; ///< Addr index scale (element size).
  /// Memory ops only: the bytecode instruction this access lowers, for
  /// looking up elision grants (target/Elision.h). ~0u = not a direct
  /// lowering of a certifiable access (scalar expansion, realign chains,
  /// permutes) — such accesses always keep their checks.
  uint32_t SrcInstr = ~0u;
};

enum class MNodeKind : uint8_t { Instr, Loop, If };

/// Reference to an instruction/loop/if in the owning MFunction's pools.
struct MNodeRef {
  MNodeKind Kind = MNodeKind::Instr;
  uint32_t Index = 0;
};

struct MRegion {
  std::vector<MNodeRef> Nodes;
};

/// Counted loop: for (iv = Lower; iv < Upper; iv += Step). Loop-carried
/// values enter as Phi (initialized from Init) and are replaced by Next
/// at the end of every iteration; after the loop the Phi registers hold
/// the final values.
struct MLoop {
  struct CarriedVar {
    MReg Phi = NoReg;
    MReg Init = NoReg;
    MReg Next = NoReg;
  };
  MReg IndVar = NoReg;
  MReg Lower = NoReg;
  MReg Upper = NoReg;
  MReg Step = NoReg;
  std::vector<CarriedVar> Carried;
  MRegion Body;
  bool IsVectorMain = false; ///< The vectorized main loop (IACA anchor).
};

struct MIf {
  MReg Cond = NoReg; ///< Scalar I1 register.
  MRegion Then;
  MRegion Else;
};

/// Static per-register metadata (lane kind and register class).
struct MRegInfo {
  ir::ScalarKind Kind = ir::ScalarKind::None;
  bool Vector = false;
};

struct MParam {
  std::string Name;
  MReg Reg = NoReg;
};

/// A compiled machine function: flat instruction/loop/if pools plus the
/// structured body referencing them, VSBytes of the target it was
/// compiled for, and the array table carried over from the source.
struct MFunction {
  std::string Name;
  unsigned VSBytes = 0;
  std::vector<ir::ArrayInfo> Arrays;
  std::vector<MParam> Params;
  std::vector<MRegInfo> Regs;
  std::vector<MInstr> Instrs;
  std::vector<MLoop> Loops;
  std::vector<MIf> Ifs;
  MRegion Body;

  MReg makeReg(ir::ScalarKind K, bool Vector) {
    Regs.push_back({K, Vector});
    return static_cast<MReg>(Regs.size() - 1);
  }

  /// Pretty-prints the function (used by tests to assert on lowering
  /// strategies, and by humans to read what the JIT produced).
  std::string str() const;
};

} // namespace target
} // namespace vapor

#endif // VAPOR_TARGET_MACHINEIR_H
