//===- ir/Function.h - Structured loop-tree IR -----------------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR shared by the offline compiler's input (scalar source level) and
/// output (split-layer vectorized bytecode).
///
/// Programs are structured loop trees, not general CFGs: a function body is
/// a region, a region is a sequence of instructions, counted loops, and
/// if-statements. Loops carry explicit loop-carried variables (init/next
/// pairs), which makes reduction detection and vectorization rewrites
/// direct. Memory is a set of named arrays with alignment attributes;
/// loads and stores address arrays by element index.
///
/// The same infrastructure hosts the split layer: vector types become
/// parametric (lane count = VS / sizeof(elem), VS unknown offline) and the
/// idiom opcodes of paper Table 1 become available.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_IR_FUNCTION_H
#define VAPOR_IR_FUNCTION_H

#include "ir/Opcode.h"
#include "ir/Type.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vapor {
namespace ir {

using ValueId = uint32_t;
constexpr ValueId NoValue = ~0u;
constexpr uint32_t NoArray = ~0u;

/// How a value is defined.
enum class ValueDef : uint8_t {
  Param,       ///< Function scalar parameter.
  Instr,       ///< Result of the instruction Values[id].A.
  LoopInd,     ///< Induction variable of loop A.
  LoopCarried, ///< Carried variable B of loop A (the "phi" inside the body).
  LoopResult,  ///< Final value of carried variable B of loop A, after it.
};

struct ValueInfo {
  Type Ty;
  ValueDef Def = ValueDef::Instr;
  uint32_t A = 0; ///< Defining instruction / loop index.
  uint32_t B = 0; ///< Carried-variable index for LoopCarried/LoopResult.
  std::string Name; ///< Non-empty for parameters only.
};

/// A named array (the only memory objects in the IR). BaseAlign is the
/// *guaranteed minimum* base alignment in bytes known offline; runtimes may
/// in fact align more strictly, which is exactly what the alignment
/// version-guard machinery exploits (paper Sec. III-B(c)).
struct ArrayInfo {
  std::string Name;
  ScalarKind Elem = ScalarKind::None;
  uint64_t NumElems = 0;
  uint32_t BaseAlign = 1;
};

/// Hints attached to realignment idioms and unaligned accesses: the access
/// misalignment in bytes relative to a Mod-byte boundary (paper uses
/// Mod = 32, the largest SIMD width of the day). Mod == 0 means "no
/// information" — the nulled hint of the fall-back loop version.
/// IfJitAligns marks hints that are only valid when the online compiler can
/// force array bases to vector alignment.
struct AlignHint {
  int32_t Mis = -1;
  int32_t Mod = 0;
  bool IfJitAligns = false;

  bool known() const { return Mod > 0 && Mis >= 0; }
};

/// The condition classes a version_guard_COND can test. The offline
/// compiler emits the guard; the online compiler resolves it (statically
/// when it can).
enum class GuardKind : uint8_t {
  None,
  /// True iff every array listed in GuardArgs has its base aligned to the
  /// target vector size at run time.
  BasesAligned,
  /// True iff the target supports TyParam as a vector element type
  /// (e.g. AltiVec answers false for F64).
  TypeSupported,
  /// Cost-model question: should the outer loop of a nest be vectorized
  /// rather than the inner one on this target?
  PreferOuterLoop,
};

struct Instr {
  Opcode Op = Opcode::ConstInt;
  Type Ty;                     ///< Result type; Type::none() if no result.
  ValueId Result = NoValue;
  std::vector<ValueId> Ops;
  int64_t IntImm = 0;  ///< ConstInt value; Extract offset; GetMisalign
                       ///< element offset.
  int64_t IntImm2 = 0; ///< Extract stride.
  double FPImm = 0;    ///< ConstFP value.
  uint32_t Array = NoArray; ///< Memory idioms, GetMisalign, GetRT.
  ScalarKind TyParam = ScalarKind::None; ///< The idiom "T" parameter.
  AlignHint Hint;
  GuardKind Guard = GuardKind::None;
  std::vector<uint32_t> GuardArgs;

  bool hasResult() const { return Result != NoValue; }
};

enum class NodeKind : uint8_t { Instr, Loop, If };

struct NodeRef {
  NodeKind Kind = NodeKind::Instr;
  uint32_t Index = 0;
};

struct Region {
  std::vector<NodeRef> Nodes;
  bool empty() const { return Nodes.empty(); }
};

/// Roles the vectorizer assigns so the online compiler (and readers of the
/// printed bytecode) can identify the three-loop structure of paper
/// Sec. III-B(c): scalar peel, vector main loop, scalar epilogue.
enum class LoopRole : uint8_t { Plain, Peel, VecMain, Epilogue };

/// A counted loop: IndVar ranges over [Lower, Upper) stepping by Step.
/// Carried variables model loop-carried scalar/vector state: inside the
/// body the variable reads as Phi (init on entry, Next thereafter); after
/// the loop its final value is Result.
struct LoopStmt {
  ValueId IndVar = NoValue;
  ValueId Lower = NoValue;
  ValueId Upper = NoValue;
  ValueId Step = NoValue;

  struct CarriedVar {
    ValueId Phi = NoValue;
    ValueId Init = NoValue;
    ValueId Next = NoValue;
    ValueId Result = NoValue;
  };
  std::vector<CarriedVar> Carried;

  Region Body;
  LoopRole Role = LoopRole::Plain;
  /// Dependence-distance hint (paper Sec. III-B(b)'s extension): largest
  /// vectorization factor for which this loop's carried dependences stay
  /// safe. 0 = unconstrained. The online compiler scalarizes the loop
  /// when its VF would exceed this.
  int64_t MaxSafeVF = 0;
};

/// Two-armed conditional. At the split layer this hosts loop versioning:
/// Cond is a version_guard and the arms are the guarded / fall-back loop
/// versions. Results flow through memory, so arms have no out values.
struct IfStmt {
  ValueId Cond = NoValue;
  Region Then;
  Region Else;
};

/// A function: scalar parameters, arrays, and a body region. One Function
/// instance represents either scalar source IR (IsSplitLayer == false; only
/// base opcodes and scalar types) or split-layer vectorized bytecode.
class Function {
public:
  explicit Function(std::string FuncName) : Name(std::move(FuncName)) {}

  std::string Name;
  bool IsSplitLayer = false;

  std::vector<ValueInfo> Values;
  std::vector<Instr> Instrs;
  std::vector<LoopStmt> Loops;
  std::vector<IfStmt> Ifs;
  std::vector<ArrayInfo> Arrays;
  std::vector<ValueId> Params;
  Region Body;

  /// Declares a scalar parameter and \returns its value id.
  ValueId addParam(const std::string &ParamName, Type Ty);

  /// Declares an array. \p BaseAlign is the guaranteed base alignment in
  /// bytes (at least the element size). \returns the array id.
  uint32_t addArray(const std::string &ArrName, ScalarKind Elem,
                    uint64_t NumElems, uint32_t BaseAlign);

  uint32_t arrayIdByName(const std::string &ArrName) const;

  Type typeOf(ValueId V) const {
    assert(V < Values.size() && "value id out of range");
    return Values[V].Ty;
  }

  /// Creates a fresh value of type \p Ty with definition bookkeeping.
  ValueId makeValue(Type Ty, ValueDef Def, uint32_t A, uint32_t B = 0);

  const Instr &instrOf(ValueId V) const {
    assert(Values[V].Def == ValueDef::Instr && "value is not an instr result");
    return Instrs[Values[V].A];
  }

  std::string str() const;
};

/// \returns a 64-bit structural content hash of \p F: every value,
/// instruction, loop, if, array, parameter, and region edge contributes,
/// so a change to any one field changes the hash. It binds safety
/// certificates to their module and keys tiering hotness rows; it must
/// stay deterministic across processes, so it hashes field values only --
/// no pointers, no addresses. Fields fold in a word at a time through the
/// shared mixer (support/Support.h), which chosen input can collide: an
/// equal hash is not proof of an equal function.
uint64_t hashFunction(const Function &F);

} // namespace ir
} // namespace vapor

#endif // VAPOR_IR_FUNCTION_H
