//===- ir/Verifier.cpp - IR well-formedness checks ------------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "support/Support.h"

#include <sstream>

using namespace vapor;
using namespace vapor::ir;

namespace {

class VerifierImpl {
public:
  explicit VerifierImpl(const Function &Fn) : F(Fn) {
    Defined.assign(F.Values.size(), false);
    InstrPlaced.assign(F.Instrs.size(), 0);
    LoopPlaced.assign(F.Loops.size(), 0);
    IfPlaced.assign(F.Ifs.size(), 0);
  }

  std::vector<std::string> run() {
    checkTables();
    for (ValueId P : F.Params) {
      if (P >= F.Values.size()) {
        error("parameter value id out of range");
        continue;
      }
      if (F.Values[P].Def != ValueDef::Param)
        error("parameter %" + std::to_string(P) +
              " not defined as a parameter");
      if (!F.Values[P].Ty.isScalar())
        error("parameter %" + std::to_string(P) + " must be scalar");
      define(P);
    }
    walkRegion(F.Body, 0);
    // Below a too-deep region nothing was walked, so nothing there counts
    // as placed: the depth error is the finding.
    if (TooDeep)
      return std::move(Errors);
    for (size_t I = 0, E = F.Instrs.size(); I != E; ++I)
      if (InstrPlaced[I] != 1)
        error("instruction #" + std::to_string(I) + " placed " +
              std::to_string(InstrPlaced[I]) + " times");
    for (size_t I = 0, E = F.Loops.size(); I != E; ++I)
      if (LoopPlaced[I] != 1)
        error("loop #" + std::to_string(I) + " placed " +
              std::to_string(LoopPlaced[I]) + " times");
    for (size_t I = 0, E = F.Ifs.size(); I != E; ++I)
      if (IfPlaced[I] != 1)
        error("if #" + std::to_string(I) + " placed " +
              std::to_string(IfPlaced[I]) + " times");
    return std::move(Errors);
  }

private:
  /// What an error is about: a fixed context, or instruction #Idx, whose
  /// "mnemonic #idx" label is formatted only when it reports an error.
  struct Site {
    const char *What = nullptr;
    const Instr *I = nullptr;
    uint32_t Idx = 0;
  };

  void error(const std::string &Msg) { Errors.push_back(Msg); }

  void error(const Site &W, const std::string &Msg) {
    std::string Label = W.I ? std::string(opcodeMnemonic(W.I->Op)) + " #" +
                                  std::to_string(W.Idx)
                            : std::string(W.What);
    error(Label + ": " + Msg);
  }

  static bool validKind(ScalarKind K) {
    return static_cast<uint8_t>(K) <= static_cast<uint8_t>(ScalarKind::F64);
  }

  /// Vector lanes must have a size: consumers divide by it (a target's
  /// vectorization factor, the lanes of a scalar expansion).
  static bool hasLaneSize(Type Ty) {
    return !Ty.Vector || Ty.Elem != ScalarKind::None;
  }

  /// Field-level sanity of the value/array tables. These can arrive from
  /// a decoder or hand-assembly, so nothing about them is trusted; the
  /// kind checks in particular keep garbage element kinds out of every
  /// kind-dispatched switch downstream.
  void checkTables() {
    for (size_t V = 0; V < F.Values.size(); ++V)
      if (!validKind(F.Values[V].Ty.Elem))
        error("value %" + std::to_string(V) + " has invalid element kind");
      else if (!hasLaneSize(F.Values[V].Ty))
        error("value %" + std::to_string(V) +
              " is a vector without an element kind");
    for (size_t A = 0; A < F.Arrays.size(); ++A) {
      const ArrayInfo &AI = F.Arrays[A];
      std::string Where = "array '" + AI.Name + "'";
      if (!validKind(AI.Elem) || scalarSize(AI.Elem) == 0) {
        error(Where + ": invalid element kind");
        continue;
      }
      if (AI.NumElems == 0)
        error(Where + ": zero elements");
      if (AI.BaseAlign < scalarSize(AI.Elem) ||
          (AI.BaseAlign & (AI.BaseAlign - 1)) != 0)
        error(Where + ": base alignment must be a power of two >= "
                      "element size");
    }
  }

  void define(ValueId V) {
    if (Defined[V])
      return;
    Defined[V] = true;
    DefLog.push_back(V);
  }

  void undefineSince(size_t Scope) {
    for (; DefLog.size() > Scope; DefLog.pop_back())
      Defined[DefLog.back()] = false;
  }

  bool checkUse(ValueId V, const Site &W) {
    if (V == NoValue || V >= F.Values.size()) {
      error(W, "value id out of range");
      return false;
    }
    if (!Defined[V]) {
      error(W, "use of %" + std::to_string(V) + " before definition");
      return false;
    }
    return true;
  }

  void walkRegion(const Region &R, unsigned Depth) {
    if (Depth > MaxRegionDepth) {
      if (!TooDeep)
        error("regions nest deeper than " + std::to_string(MaxRegionDepth) +
              " levels");
      TooDeep = true;
      return;
    }
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        if (N.Index >= F.Instrs.size()) {
          error("region references out-of-range instruction");
          continue;
        }
        ++InstrPlaced[N.Index];
        checkInstr(F.Instrs[N.Index], N.Index);
        break;
      case NodeKind::Loop:
        if (N.Index >= F.Loops.size()) {
          error("region references out-of-range loop");
          continue;
        }
        // A loop or if placed twice fails the placement check; walking
        // it once keeps regions that share one from costing time
        // exponential in their depth.
        if (LoopPlaced[N.Index]++ == 0)
          checkLoop(F.Loops[N.Index], Depth + 1);
        break;
      case NodeKind::If:
        if (N.Index >= F.Ifs.size()) {
          error("region references out-of-range if");
          continue;
        }
        if (IfPlaced[N.Index]++ == 0)
          checkIf(F.Ifs[N.Index], Depth + 1);
        break;
      }
    }
  }

  /// Checks loop \p L, whose body sits at depth \p BodyDepth.
  void checkLoop(const LoopStmt &L, unsigned BodyDepth) {
    for (ValueId Bound : {L.Lower, L.Upper, L.Step})
      if (checkUse(Bound, {"loop"}) &&
          F.typeOf(Bound) != Type::scalar(ScalarKind::I64))
        error("loop bounds and step must be scalar i64");
    if (L.MaxSafeVF < 0)
      error("loop dependence-distance limit must be non-negative");
    for (const auto &C : L.Carried) {
      bool InitOk = checkUse(C.Init, {"loop carried init"});
      if (C.Next == NoValue)
        error("loop carried variable without next value");
      if (C.Phi == NoValue || C.Phi >= F.Values.size())
        error("loop carried variable without a phi value");
      else if (InitOk && F.typeOf(C.Phi) != F.typeOf(C.Init))
        error("loop carried phi/init type mismatch");
    }
    if (L.IndVar == NoValue || L.IndVar >= F.Values.size() ||
        F.typeOf(L.IndVar) != Type::scalar(ScalarKind::I64)) {
      error("loop induction variable must be i64");
      return;
    }
    // Values defined inside the body (including the induction variable and
    // carried phis) are scoped to the body: the loop may run zero times, so
    // nothing defined inside may be used after it. Only the carried
    // Results materialize at exit.
    size_t Scope = DefLog.size();
    define(L.IndVar);
    for (const auto &C : L.Carried)
      if (C.Phi != NoValue && C.Phi < F.Values.size())
        define(C.Phi);
    walkRegion(L.Body, BodyDepth);
    for (const auto &C : L.Carried)
      if (C.Next != NoValue)
        checkUse(C.Next, {"loop carried next"});
    undefineSince(Scope);
    for (const auto &C : L.Carried)
      if (C.Result != NoValue && C.Result < F.Values.size())
        define(C.Result);
  }

  /// Checks if \p S, whose arms sit at depth \p ArmDepth.
  void checkIf(const IfStmt &S, unsigned ArmDepth) {
    if (checkUse(S.Cond, {"if condition"}) &&
        F.typeOf(S.Cond) != Type::scalar(ScalarKind::I1))
      error("if condition must be scalar i1");
    // Each arm is a scope: its definitions are not visible afterwards
    // (versioned loops communicate results through memory).
    size_t Scope = DefLog.size();
    walkRegion(S.Then, ArmDepth);
    undefineSince(Scope);
    walkRegion(S.Else, ArmDepth);
    undefineSince(Scope);
  }

  void checkInstr(const Instr &I, uint32_t Idx) {
    const Site W{nullptr, &I, Idx};

    int NOps = opcodeNumOperands(I.Op);
    if (NOps >= 0 && static_cast<int>(I.Ops.size()) != NOps) {
      error(W, "expected " + std::to_string(NOps) + " operands, got " +
               std::to_string(I.Ops.size()));
      return; // checkTypes indexes operands positionally; don't run it.
    }
    bool OperandsOk = true;
    for (ValueId Op : I.Ops)
      OperandsOk &= checkUse(Op, W);

    if (!F.IsSplitLayer) {
      if (isIdiom(I.Op))
        error(W, "idiom opcode in scalar-source function");
      if (I.Ty.isVector())
        error(W, "vector type in scalar-source function");
    }

    if (I.Hint.Mod < 0 || I.Hint.Mis < -1)
      error(W, "malformed alignment hint");
    if (!validKind(I.TyParam))
      error(W, "invalid element-kind parameter");
    if (!hasLaneSize(I.Ty))
      error(W, "vector type without an element kind");

    if (I.hasResult()) {
      if (I.Result >= F.Values.size() ||
          F.Values[I.Result].Def != ValueDef::Instr ||
          F.Values[I.Result].A != Idx)
        error(W, "result value bookkeeping broken");
      else
        define(I.Result);
    }

    if (!OperandsOk)
      return;
    checkTypes(I, W);
  }

  void checkTypes(const Instr &I, const Site &W) {
    auto TyOf = [&](unsigned N) { return F.typeOf(I.Ops[N]); };
    if (isBinArith(I.Op) || isCompare(I.Op)) {
      if (TyOf(0) != TyOf(1))
        error(W, "operand type mismatch");
      if (isBinArith(I.Op) && I.Ty != TyOf(0))
        error(W, "result type mismatch");
      if (isCompare(I.Op) &&
          I.Ty != Type(ScalarKind::I1, TyOf(0).Vector))
        error(W, "comparison must produce i1");
      if (isSaturatingOp(I.Op)) {
        ScalarKind K = I.Ty.Elem;
        bool Narrow = isIntKind(K) && scalarSize(K) <= 2;
        bool WantSigned =
            I.Op == Opcode::AddSatS || I.Op == Opcode::SubSatS;
        if (!Narrow)
          error(W, "saturating op on a non-narrow-int kind");
        else if (isSignedKind(K) != WantSigned)
          error(W, "saturating op signedness does not match kind");
      }
      return;
    }
    switch (I.Op) {
    case Opcode::Select:
      if (TyOf(1) != TyOf(2) || I.Ty != TyOf(1))
        error(W, "select arm type mismatch");
      if (TyOf(0).Elem != ScalarKind::I1 || TyOf(0).Vector != I.Ty.Vector)
        error(W, "select condition must be matching i1");
      break;
    case Opcode::Neg:
    case Opcode::Abs:
    case Opcode::Sqrt:
      if (I.Ty != TyOf(0))
        error(W, "unary type mismatch");
      break;
    case Opcode::Convert:
      if (I.Ty.Vector != TyOf(0).Vector)
        error(W, "convert changes vectorness");
      break;
    case Opcode::Load:
      if (!checkArray(I, W))
        break;
      if (I.Ty != Type::scalar(F.Arrays[I.Array].Elem))
        error(W, "load type does not match array element");
      checkIndex(I.Ops[0], W);
      break;
    case Opcode::Store:
      if (!checkArray(I, W))
        break;
      if (F.typeOf(I.Ops[1]) != Type::scalar(F.Arrays[I.Array].Elem))
        error(W, "store value does not match array element");
      checkIndex(I.Ops[0], W);
      break;
    case Opcode::ALoad:
    case Opcode::ULoad:
    case Opcode::AlignLoad:
      if (!checkArray(I, W))
        break;
      if (I.Ty != Type::vector(F.Arrays[I.Array].Elem))
        error(W, "vector load type does not match array element");
      checkIndex(I.Ops[0], W);
      break;
    case Opcode::AStore:
    case Opcode::UStore:
      if (!checkArray(I, W))
        break;
      if (F.typeOf(I.Ops[1]) != Type::vector(F.Arrays[I.Array].Elem))
        error(W, "vector store value does not match array element");
      checkIndex(I.Ops[0], W);
      break;
    case Opcode::GetRT:
      checkArray(I, W);
      checkIndex(I.Ops[0], W);
      break;
    case Opcode::RealignLoad: {
      if (!checkArray(I, W))
        break;
      Type VT = Type::vector(F.Arrays[I.Array].Elem);
      if (TyOf(0) != VT || TyOf(1) != VT || I.Ty != VT)
        error(W, "realign_load vector types inconsistent");
      checkIndex(I.Ops[3], W);
      break;
    }
    case Opcode::InitUniform:
    case Opcode::InitAffine:
    case Opcode::InitReduc:
      if (!TyOf(0).isScalar() || I.Ty != Type::vector(TyOf(0).Elem))
        error(W, "init idiom type mismatch");
      break;
    case Opcode::ReducPlus:
    case Opcode::ReducMax:
    case Opcode::ReducMin:
      if (!TyOf(0).isVector() || I.Ty != Type::scalar(TyOf(0).Elem))
        error(W, "reduction type mismatch");
      break;
    case Opcode::DotProduct:
      if (TyOf(0) != TyOf(1) || !TyOf(0).isVector() ||
          I.Ty != Type::vector(widenKind(TyOf(0).Elem)) || TyOf(2) != I.Ty)
        error(W, "dot_product type mismatch");
      break;
    case Opcode::WidenMultHi:
    case Opcode::WidenMultLo:
      if (TyOf(0) != TyOf(1) || !TyOf(0).isVector() ||
          I.Ty != Type::vector(widenKind(TyOf(0).Elem)))
        error(W, "widen_mult type mismatch");
      break;
    case Opcode::UnpackHi:
    case Opcode::UnpackLo:
      if (!TyOf(0).isVector() || I.Ty != Type::vector(widenKind(TyOf(0).Elem)))
        error(W, "unpack type mismatch");
      break;
    case Opcode::Pack:
      if (TyOf(0) != TyOf(1) || !TyOf(0).isVector() ||
          I.Ty != Type::vector(narrowKind(TyOf(0).Elem)))
        error(W, "pack type mismatch");
      break;
    case Opcode::Extract:
      if (I.Ops.empty() || I.IntImm2 < 1 ||
          static_cast<int64_t>(I.Ops.size()) != I.IntImm2 || I.IntImm < 0 ||
          I.IntImm >= I.IntImm2)
        error(W, "extract stride/operand inconsistency");
      for (ValueId Op : I.Ops)
        if (F.typeOf(Op) != I.Ty)
          error(W, "extract operand type mismatch");
      break;
    case Opcode::InterleaveHi:
    case Opcode::InterleaveLo:
      if (TyOf(0) != TyOf(1) || I.Ty != TyOf(0) || !I.Ty.isVector())
        error(W, "interleave type mismatch");
      break;
    case Opcode::GetVF:
    case Opcode::GetAlignLimit:
      if (I.TyParam == ScalarKind::None)
        error(W, "missing element-kind parameter");
      break;
    case Opcode::GetMisalign:
      checkArray(I, W);
      break;
    case Opcode::LoopBound:
      if (TyOf(0) != Type::scalar(ScalarKind::I64) ||
          TyOf(1) != Type::scalar(ScalarKind::I64))
        error(W, "loop_bound operands must be i64");
      break;
    case Opcode::VersionGuard:
      if (I.Guard == GuardKind::None)
        error(W, "version_guard without condition kind");
      if (I.Guard == GuardKind::BasesAligned && I.GuardArgs.empty())
        error(W, "bases_aligned guard without arrays");
      for (uint32_t A : I.GuardArgs)
        if (A >= F.Arrays.size())
          error(W, "guard references out-of-range array");
      break;
    default:
      break;
    }
  }

  bool checkArray(const Instr &I, const Site &W) {
    if (I.Array >= F.Arrays.size()) {
      error(W, "array id out of range");
      return false;
    }
    return true;
  }

  void checkIndex(ValueId Idx, const Site &W) {
    if (F.typeOf(Idx) != Type::scalar(ScalarKind::I64))
      error(W, "index must be scalar i64");
  }

  const Function &F;
  std::vector<std::string> Errors;
  std::vector<bool> Defined;
  /// The values define() set, in order. A scope (loop body, if-arm) ends
  /// by undefining what it added, so no scope copies Defined.
  std::vector<ValueId> DefLog;
  std::vector<uint32_t> InstrPlaced;
  std::vector<uint32_t> LoopPlaced;
  std::vector<uint32_t> IfPlaced;
  bool TooDeep = false;
};

} // namespace

std::vector<std::string> ir::verify(const Function &F) {
  return VerifierImpl(F).run();
}

void ir::verifyOrDie(const Function &F) {
  std::vector<std::string> Errors = verify(F);
  if (Errors.empty())
    return;
  std::ostringstream OS;
  OS << "IR verification failed for '" << F.Name << "':\n";
  for (const std::string &E : Errors)
    OS << "  " << E << "\n";
  OS << F.str();
  fatalError(OS.str());
}
