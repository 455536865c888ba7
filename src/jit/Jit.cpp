//===- jit/Jit.cpp - The online (JIT) compilation stage --------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// Pipeline (each pass linear in bytecode size — the paper's constraint):
//
//   1. foldGuards      — resolve version_guard conditions that are static
//                        for this (target, runtime) pair.
//   2. planTopLevel    — per region (function top level, each loop body
//                        and each if-arm), decide vector vs
//                        scalar-expansion lowering and a strategy for
//                        every memory idiom.
//   3. markLive        — dead-code analysis given those strategies: the
//                        realignment chains of paper Fig. 3a die here when
//                        the target uses plain (mis)aligned accesses.
//   4. emit            — one walk producing machine code. Vector values
//                        map to one vector register (vector regions) or to
//                        per-lane scalar registers at the granularity of
//                        the widest element type (scalar regions).
//   5. post passes     — strong tier: loop-invariant hoisting; both tiers:
//                        register-pressure spill modeling; legacy profile:
//                        unpromoted accumulators (Table 3).
//
// How the passes stay linear:
//   - State is flat arrays indexed by IR value, instruction, loop, if or
//     machine register, never maps or sets.
//   - A loop's facts that several levels ask for (its first vector
//     blocker, its smallest vector element, whether it holds anything
//     live) are computed once per loop, in one walk, and reused, so no
//     pass re-walks a subtree per level of nesting.
//   - Hoisting asks whether a source is defined inside a loop in O(1):
//     each register's defining loop against the loop's pre-order range.
//   - Register pressure scans each machine loop's whole subtree, which
//     costs the module size times its nesting depth. Decoding bounds that
//     depth at ir::MaxRegionDepth, so the factor is a constant.
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#include "ir/ScalarOps.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/Support.h"

#include <algorithm>
#include <optional>

using namespace vapor;
using namespace vapor::jit;
using namespace vapor::ir;
using namespace vapor::target;

RuntimeInfo RuntimeInfo::fromMemory(const MemoryImage &Mem) {
  RuntimeInfo RT;
  for (size_t I = 0; I < Mem.arrayCount(); ++I)
    RT.Arrays.push_back({true, Mem.base(static_cast<uint32_t>(I))});
  return RT;
}

RuntimeInfo RuntimeInfo::unknown(size_t NumArrays) {
  RuntimeInfo RT;
  RT.Arrays.resize(NumArrays);
  return RT;
}

//===--- The per-target strategy model ------------------------------------===//

const char *jit::memStrategyName(MemStrategy S) {
  switch (S) {
  case MemStrategy::Aligned:
    return "aligned";
  case MemStrategy::Unaligned:
    return "unaligned";
  case MemStrategy::Perm:
    return "perm-realign";
  case MemStrategy::Scalar:
    return "scalarized";
  }
  vapor_unreachable("bad strategy");
}

bool jit::hintProvesAligned(const AlignHint &H, uint32_t Array,
                            const TargetDesc &T, const RuntimeInfo &RT) {
  if (!H.known() || T.VSBytes == 0 ||
      H.Mis % static_cast<int32_t>(T.VSBytes) != 0)
    return false;
  if (!H.IfJitAligns)
    return true;
  return Array < RT.Arrays.size() && RT.Arrays[Array].KnownBase &&
         isAligned(RT.Arrays[Array].Base, T.VSBytes);
}

bool jit::hintCouldProveAligned(const AlignHint &H, const TargetDesc &T) {
  return H.known() && T.VSBytes != 0 &&
         H.Mis % static_cast<int32_t>(T.VSBytes) == 0;
}

MemStrategy jit::memStrategy(Opcode Op, bool ScalarRegion, bool HintAligned,
                             const TargetDesc &T) {
  switch (Op) {
  case Opcode::ALoad:
  case Opcode::AStore:
    return ScalarRegion ? MemStrategy::Scalar : MemStrategy::Aligned;
  case Opcode::ULoad:
  case Opcode::UStore:
    if (ScalarRegion)
      return MemStrategy::Scalar;
    return HintAligned ? MemStrategy::Aligned : MemStrategy::Unaligned;
  case Opcode::RealignLoad:
    if (ScalarRegion)
      return MemStrategy::Scalar;
    if (HintAligned)
      return MemStrategy::Aligned;
    return T.HasMisaligned ? MemStrategy::Unaligned : MemStrategy::Perm;
  default:
    vapor_unreachable("opcode has no memory strategy");
  }
}

bool jit::isLibCallable(Opcode Op) {
  return Op == Opcode::WidenMultHi || Op == Opcode::WidenMultLo ||
         Op == Opcode::Convert;
}

std::string jit::vectorBlockReason(const Function &F, const Instr &I,
                                   const TargetDesc &T, bool HintAligned) {
  bool VectorInstr = I.Ty.isVector();
  for (ValueId Op : I.Ops)
    VectorInstr |= F.typeOf(Op).isVector();
  if (!VectorInstr)
    return "";
  ScalarKind K = I.Ty.isVector() ? I.Ty.Elem : ScalarKind::None;
  if (K != ScalarKind::None && K != ScalarKind::I1 && !T.supportsVecKind(K))
    return std::string("no vector support for ") + scalarKindName(K);
  if (!T.supportsVecOp(I.Op) &&
      !(T.LibFallbackForOps && isLibCallable(I.Op)))
    return std::string("no vector support for ") + opcodeMnemonic(I.Op);
  if ((I.Op == Opcode::ULoad || I.Op == Opcode::UStore) &&
      !T.HasMisaligned && !HintAligned)
    return "misaligned access unsupported";
  if (I.Op == Opcode::RealignLoad && !T.HasMisaligned &&
      !T.HasPermRealign && !HintAligned)
    return "no realignment mechanism";
  return "";
}

namespace {

void scanMinVecElemSize(const Function &F, const Region &R,
                        unsigned &MinSize) {
  for (const NodeRef &N : R.Nodes) {
    switch (N.Kind) {
    case NodeKind::Instr: {
      const Instr &I = F.Instrs[N.Index];
      if (I.Ty.isVector() && I.Ty.Elem != ScalarKind::I1)
        MinSize = std::min(MinSize, scalarSize(I.Ty.Elem));
      break;
    }
    case NodeKind::Loop:
      scanMinVecElemSize(F, F.Loops[N.Index].Body, MinSize);
      break;
    case NodeKind::If:
      scanMinVecElemSize(F, F.Ifs[N.Index].Then, MinSize);
      scanMinVecElemSize(F, F.Ifs[N.Index].Else, MinSize);
      break;
    }
  }
}

/// The vectorization factor on \p T of a loop whose smallest vector
/// element takes \p MinSize bytes (16: no vector code).
int64_t vfFor(unsigned MinSize, const TargetDesc &T) {
  if (MinSize == 16 || T.VSBytes == 0)
    return 1;
  return T.VSBytes / MinSize;
}

} // namespace

unsigned jit::minVectorElemSize(const Function &F, const Region &R) {
  unsigned MinSize = 16;
  scanMinVecElemSize(F, R, MinSize);
  return MinSize;
}

int64_t jit::loopVF(const Function &F, const LoopStmt &L,
                    const TargetDesc &T) {
  return vfFor(minVectorElemSize(F, L.Body), T);
}

std::optional<bool> jit::foldGuardStatic(const Instr &I, const TargetDesc &T,
                                         const RuntimeInfo &RT,
                                         Tier CompilerTier,
                                         bool NestedInLoop) {
  assert(I.Op == Opcode::VersionGuard && "not a guard");
  switch (I.Guard) {
  case GuardKind::TypeSupported:
    // Static target capability; every online compiler folds this.
    return T.supportsVecKind(I.TyParam);
  case GuardKind::PreferOuterLoop:
    // Cost-model answer: short-SIMD in-order targets prefer outer-loop
    // vectorization of reduction nests (paper [18]).
    return T.VSBytes != 0 && T.VSBytes <= 16;
  case GuardKind::BasesAligned: {
    // The weak tier folds what simple local constant propagation can:
    // top-level guards. Nested ones (MMM's alignment test inside the
    // outer loop) stay as runtime checks — paper Sec. V-A(a).
    if (CompilerTier != Tier::Strong && NestedInLoop)
      return std::nullopt;
    bool AllAligned = true;
    for (uint32_t A : I.GuardArgs) {
      if (A >= RT.Arrays.size() || !RT.Arrays[A].KnownBase)
        return std::nullopt;
      AllAligned &=
          T.VSBytes == 0 || isAligned(RT.Arrays[A].Base, T.VSBytes);
    }
    return AllAligned;
  }
  case GuardKind::None:
    break;
  }
  return std::nullopt;
}

namespace {

class JitCompiler {
public:
  JitCompiler(const Function &Fn, const TargetDesc &Target,
              const RuntimeInfo &Runtime, const Options &Options_)
      : F(Fn), T(Target), RT(Runtime), Opt(Options_) {
    assert(RT.Arrays.size() >= F.Arrays.size() &&
           "runtime info must cover every array");
  }

  CompileResult run() {
    M.Name = F.Name;
    M.VSBytes = T.VSBytes;
    M.Arrays = F.Arrays;

    computeScalarExpansionSize();
    foldGuards();
    planTopLevel();
    markLive();

    Lanes.resize(F.Values.size());
    Lowered.assign(F.Values.size(), false);
    BaseReg.assign(F.Arrays.size(), NoReg);
    for (ValueId P : F.Params) {
      MReg R = M.makeReg(F.typeOf(P).Elem, false);
      M.Params.push_back({F.Values[P].Name, R});
      setLanes(P, {R});
    }
    emitRegion(F.Body);

    if (Opt.CompilerTier == Tier::Strong) {
      LoopEnd.assign(M.Loops.size(), 0);
      ParentLoop.assign(M.Loops.size(), NoLoop);
      DefLoop.assign(M.Regs.size(), NoLoop);
      mapLoops(M.Body, NoLoop, 0);
      hoistInvariants(M.Body);
    }
    modelRegisterPressure();
    if (!Opt.PromoteAccumulators)
      demoteAccumulators();

    CompileResult R;
    R.Code = std::move(M);
    R.Scalarized = TopLevelScalar;
    R.ScalarizeReason = ScalarizeReason;
    R.Strategy = tallyStrategy();
    return R;
  }

private:
  const Function &F;
  const TargetDesc &T;
  const RuntimeInfo &RT;
  Options Opt;
  MFunction M;

  unsigned VSEff = 1; ///< Scalar-expansion granularity (widest elem size).
  bool TopLevelScalar = false;
  std::string ScalarizeReason;

  // All compile state is flat, indexed by IR value, instruction, loop or
  // if (or machine register): every lookup is O(1), and nothing is keyed
  // by a pointer or kept in a node-based container.

  enum class Fold : uint8_t { Unfolded, True, False };
  /// Per value: the static fold of the version_guard defining it. The
  /// last slot stands for every id past the table (a guard without a
  /// result), so such guards share one fold.
  std::vector<Fold> FoldedGuards;
  /// Per instruction: the memory strategy, for memory idioms in a
  /// compiled region; nullopt otherwise.
  std::vector<std::optional<MemStrategy>> Strat;
  /// Per instruction of a compiled region (folded-off arms are not):
  /// whether its region lowers by scalar expansion.
  std::vector<uint8_t> InstrScalar;
  /// Per loop: whether its body lowers by scalar expansion.
  std::vector<uint8_t> LoopScalar;
  std::vector<bool> InstrNeeded;
  std::vector<bool> ValueLive;
  std::vector<bool> LoopNeeded;
  /// Per loop and per if: whether emission visits it. Computed once,
  /// after liveness.
  std::vector<bool> LoopEmitted;
  std::vector<bool> IfEmitted;

  /// Per loop, computed on first use: the first instruction of its body
  /// (if-arms excluded) that blocks vector lowering, or NoBlocker.
  static constexpr uint32_t NoBlocker = ~0u;
  static constexpr uint32_t NotComputed = ~0u - 1;
  std::vector<uint32_t> LoopBlocker;
  /// Per loop, computed on first use: minVectorElemSize of its body
  /// (0 until computed).
  std::vector<uint8_t> LoopMinElem;

  /// Per value: its lane registers, valid where Lowered is set.
  std::vector<std::vector<MReg>> Lanes;
  std::vector<bool> Lowered;
  std::vector<MReg> BaseReg; ///< Per array: base-address reg, or NoReg.

  /// Summarizes the per-access and per-guard decisions this compile took
  /// (the observability layer's strategy record).
  StrategyStats tallyStrategy() const {
    StrategyStats S;
    for (const std::optional<MemStrategy> &Entry : Strat) {
      if (!Entry)
        continue;
      switch (*Entry) {
      case MemStrategy::Aligned:
        ++S.MemAligned;
        break;
      case MemStrategy::Unaligned:
        ++S.MemUnaligned;
        break;
      case MemStrategy::Perm:
        ++S.MemPerm;
        break;
      case MemStrategy::Scalar:
        ++S.MemScalar;
        break;
      }
    }
    for (Fold Entry : FoldedGuards)
      if (Entry != Fold::Unfolded)
        (Entry == Fold::True ? S.GuardsFoldedTrue : S.GuardsFoldedFalse) +=
            1;
    for (const Instr &I : F.Instrs)
      if (I.Op == Opcode::VersionGuard && !folded(I.Result))
        ++S.GuardsRuntime;
    return S;
  }

  //===--- Pass 0: scalar-expansion granularity ---------------------------===//

  void computeScalarExpansionSize() {
    for (const ValueInfo &V : F.Values)
      if (V.Ty.isVector() && V.Ty.Elem != ScalarKind::I1)
        VSEff = std::max(VSEff, scalarSize(V.Ty.Elem));
  }

  //===--- Pass 1: guard folding -----------------------------------------===//

  Fold &foldSlot(ValueId V) {
    return FoldedGuards[std::min<size_t>(V, F.Values.size())];
  }

  /// The static value of guard result \p V, or nullopt if it stays a
  /// runtime check.
  std::optional<bool> folded(ValueId V) const {
    Fold Entry = FoldedGuards[std::min<size_t>(V, F.Values.size())];
    if (Entry == Fold::Unfolded)
      return std::nullopt;
    return Entry == Fold::True;
  }

  void foldGuards() {
    FoldedGuards.assign(F.Values.size() + 1, Fold::Unfolded);
    std::vector<bool> NestedGuards(F.Instrs.size(), false);
    collectNestedGuards(F.Body, /*InLoop=*/false, NestedGuards);
    for (uint32_t Idx = 0; Idx < F.Instrs.size(); ++Idx) {
      const Instr &I = F.Instrs[Idx];
      if (I.Op != Opcode::VersionGuard)
        continue;
      auto Folded = foldGuardStatic(I, T, RT, Opt.CompilerTier,
                                    NestedGuards[Idx]);
      if (Folded)
        foldSlot(I.Result) = *Folded ? Fold::True : Fold::False;
    }
  }

  void collectNestedGuards(const Region &R, bool InLoop,
                           std::vector<bool> &Out) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        if (InLoop && F.Instrs[N.Index].Op == Opcode::VersionGuard)
          Out[N.Index] = true;
        break;
      case NodeKind::Loop:
        collectNestedGuards(F.Loops[N.Index].Body, true, Out);
        break;
      case NodeKind::If:
        collectNestedGuards(F.Ifs[N.Index].Then, InLoop, Out);
        collectNestedGuards(F.Ifs[N.Index].Else, InLoop, Out);
        break;
      }
    }
  }

  //===--- Pass 2: region modes and memory strategies ---------------------===//

  void planTopLevel() {
    Strat.assign(F.Instrs.size(), std::nullopt);
    InstrScalar.assign(F.Instrs.size(), 0);
    LoopScalar.assign(F.Loops.size(), 0);
    LoopBlocker.assign(F.Loops.size(), NotComputed);
    LoopMinElem.assign(F.Loops.size(), 0);
    if (Opt.ForceScalarize) {
      TopLevelScalar = true;
      ScalarizeReason = "scalarization forced (executor deoptimization)";
    } else if (!T.hasSimd()) {
      TopLevelScalar = true;
      ScalarizeReason = "target has no SIMD support";
    } else {
      uint32_t Blocker = vectorBlocker(F.Body);
      if (Blocker != NoBlocker) {
        const Instr &I = F.Instrs[Blocker];
        TopLevelScalar = true;
        ScalarizeReason =
            vectorBlockReason(F, I, T, hintAligned(I.Hint, I.Array));
      }
    }
    planNodes(F.Body, TopLevelScalar);
  }

  bool blocksVector(uint32_t Idx) const {
    const Instr &I = F.Instrs[Idx];
    return !vectorBlockReason(F, I, T, hintAligned(I.Hint, I.Array))
                .empty();
  }

  /// \returns the first instruction of the vector code in \p R (its own
  /// scope, nested loops included, if-arms excluded: they decide for
  /// themselves) that cannot be lowered vectorially, or NoBlocker. Each
  /// nested loop's answer is computed once and reused, so every
  /// instruction is checked at most once per compile.
  uint32_t vectorBlocker(const Region &R) {
    for (const NodeRef &N : R.Nodes) {
      uint32_t Blocker = NoBlocker;
      if (N.Kind == NodeKind::Instr && blocksVector(N.Index))
        Blocker = N.Index;
      else if (N.Kind == NodeKind::Loop)
        Blocker = loopBlocker(N.Index);
      if (Blocker != NoBlocker)
        return Blocker;
    }
    return NoBlocker;
  }

  uint32_t loopBlocker(uint32_t Loop) {
    if (LoopBlocker[Loop] == NotComputed)
      LoopBlocker[Loop] = vectorBlocker(F.Loops[Loop].Body);
    return LoopBlocker[Loop];
  }

  /// minVectorElemSize of loop \p Loop's body, computed once per loop.
  unsigned loopMinElem(uint32_t Loop) {
    if (LoopMinElem[Loop] == 0)
      LoopMinElem[Loop] =
          static_cast<uint8_t>(minElemIn(F.Loops[Loop].Body));
    return LoopMinElem[Loop];
  }

  unsigned minElemIn(const Region &R) {
    unsigned MinSize = 16;
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr: {
        const Instr &I = F.Instrs[N.Index];
        if (I.Ty.isVector() && I.Ty.Elem != ScalarKind::I1)
          MinSize = std::min(MinSize, scalarSize(I.Ty.Elem));
        break;
      }
      case NodeKind::Loop:
        MinSize = std::min(MinSize, loopMinElem(N.Index));
        break;
      case NodeKind::If:
        MinSize = std::min({MinSize, minElemIn(F.Ifs[N.Index].Then),
                            minElemIn(F.Ifs[N.Index].Else)});
        break;
      }
    }
    return MinSize;
  }

  /// This target's vectorization factor for loop \p Loop (jit::loopVF).
  int64_t loopVF(uint32_t Loop) { return vfFor(loopMinElem(Loop), T); }

  /// Whether the hint proves VS-alignment of the access (paper
  /// Sec. III-B(c), the single-version alternative to versioning).
  bool hintAligned(const AlignHint &H, uint32_t Array) const {
    return hintProvesAligned(H, Array, T, RT);
  }

  /// Decides the lowering mode of if-arm \p R and plans it.
  void planArm(const Region &R, bool ParentScalar) {
    planNodes(R, ParentScalar || vectorBlocker(R) != NoBlocker);
  }

  /// Plans the nodes of region \p R, lowered in mode \p Scalar: the mode
  /// of every nested loop body and if-arm, and the strategy of every
  /// memory idiom.
  void planNodes(const Region &R, bool Scalar) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        planInstr(F.Instrs[N.Index], N.Index, Scalar);
        break;
      case NodeKind::Loop: {
        const LoopStmt &L = F.Loops[N.Index];
        bool BodyScalar = Scalar;
        if (!BodyScalar && L.MaxSafeVF > 0 && loopVF(N.Index) > L.MaxSafeVF)
          BodyScalar = true; // Dependence hint: this VF is too wide.
        if (!BodyScalar && loopBlocker(N.Index) != NoBlocker)
          BodyScalar = true;
        LoopScalar[N.Index] = BodyScalar;
        planNodes(L.Body, BodyScalar);
        break;
      }
      case NodeKind::If: {
        const IfStmt &S = F.Ifs[N.Index];
        if (std::optional<bool> Taken = folded(S.Cond)) {
          // Only the surviving arm is compiled at all.
          planArm(*Taken ? S.Then : S.Else, Scalar);
        } else {
          planArm(S.Then, Scalar);
          planArm(S.Else, Scalar);
        }
        break;
      }
      }
    }
  }

  void planInstr(const Instr &I, uint32_t Idx, bool Scalar) {
    InstrScalar[Idx] = Scalar;
    switch (I.Op) {
    case Opcode::ALoad:
    case Opcode::AStore:
    case Opcode::ULoad:
    case Opcode::UStore:
    case Opcode::RealignLoad:
      Strat[Idx] =
          memStrategy(I.Op, Scalar, hintAligned(I.Hint, I.Array), T);
      break;
    default:
      break;
    }
  }

  //===--- Pass 3: liveness / dead-code analysis --------------------------===//

  /// Calls \p Fn on each operand that remains live under the chosen
  /// strategy. The whole point of the split-layer realignment design:
  /// when a target does not need the chain, realign_load keeps only its
  /// address operand and the chain dies (paper Sec. III-C(b,c,d)).
  template <typename OperandFn>
  void forKeptOperands(const Instr &I, uint32_t Idx, OperandFn Fn) const {
    if (I.Op == Opcode::RealignLoad && Strat[Idx] &&
        *Strat[Idx] != MemStrategy::Perm) {
      Fn(I.Ops[3]);
      return;
    }
    if (I.Op == Opcode::LoopBound) {
      // Only the bound selected by the region's lowering mode stays live.
      Fn(I.Ops[loopBoundScalar(Idx) ? 1 : 0]);
      return;
    }
    for (ValueId Op : I.Ops)
      Fn(Op);
  }

  /// Whether the loop_bound at \p Idx resolves to its scalar argument.
  /// True only in scalar-expansion regions... which for loop_bound's
  /// semantics (paper Table 1) means: scalar peel loops must not run.
  bool loopBoundScalar(uint32_t Idx) const { return InstrScalar[Idx]; }

  void markLive() {
    InstrNeeded.assign(F.Instrs.size(), false);
    ValueLive.assign(F.Values.size(), false);
    LoopNeeded.assign(F.Loops.size(), false);

    std::vector<ValueId> Work;
    auto LiveValue = [&](ValueId V) {
      if (V == NoValue || ValueLive[V])
        return;
      ValueLive[V] = true;
      Work.push_back(V);
    };

    // Roots: every store that can execute.
    rootRegion(F.Body, LiveValue);

    // Propagate.
    while (!Work.empty()) {
      ValueId V = Work.back();
      Work.pop_back();
      const ValueInfo &VI = F.Values[V];
      switch (VI.Def) {
      case ValueDef::Param:
        break;
      case ValueDef::Instr: {
        uint32_t Idx = VI.A;
        if (!InstrNeeded[Idx]) {
          InstrNeeded[Idx] = true;
          forKeptOperands(F.Instrs[Idx], Idx, LiveValue);
        }
        break;
      }
      case ValueDef::LoopInd:
      case ValueDef::LoopCarried:
      case ValueDef::LoopResult: {
        const LoopStmt &L = F.Loops[VI.A];
        LoopNeeded[VI.A] = true;
        LiveValue(L.Lower);
        LiveValue(L.Upper);
        LiveValue(L.Step);
        if (VI.Def != ValueDef::LoopInd) {
          const auto &C = L.Carried[VI.B];
          LiveValue(C.Init);
          LiveValue(C.Next);
          // The phi must survive so the carried slot exists.
          if (!ValueLive[C.Phi]) {
            ValueLive[C.Phi] = true;
          }
        }
        break;
      }
      }
    }

    LoopEmitted.assign(F.Loops.size(), false);
    IfEmitted.assign(F.Ifs.size(), false);
    markEmitted(F.Body);
  }

  /// Roots liveness at every store in \p R that can execute. \returns
  /// whether \p R holds one, which is what makes a loop needed here.
  template <typename LiveFn> bool rootRegion(const Region &R, LiveFn &Live) {
    bool Rooted = false;
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr: {
        const Instr &I = F.Instrs[N.Index];
        if (!writesMemory(I.Op))
          break;
        InstrNeeded[N.Index] = true;
        Rooted = true;
        forKeptOperands(I, N.Index, Live);
        break;
      }
      case NodeKind::Loop: {
        const LoopStmt &L = F.Loops[N.Index];
        if (rootRegion(L.Body, Live)) {
          LoopNeeded[N.Index] = true;
          Rooted = true;
          Live(L.Lower);
          Live(L.Upper);
          Live(L.Step);
        }
        break;
      }
      case NodeKind::If: {
        const IfStmt &S = F.Ifs[N.Index];
        if (std::optional<bool> Taken = folded(S.Cond)) {
          Rooted |= rootRegion(*Taken ? S.Then : S.Else, Live);
        } else {
          Rooted |= rootRegion(S.Then, Live);
          Rooted |= rootRegion(S.Else, Live);
          Live(S.Cond);
        }
        break;
      }
      }
    }
    return Rooted;
  }

  /// Records, once liveness is final, which loops and ifs hold anything
  /// needed (folded-off arms included). \returns whether \p R does.
  bool markEmitted(const Region &R) {
    bool Needed = false;
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        Needed |= InstrNeeded[N.Index];
        break;
      case NodeKind::Loop:
        if (markEmitted(F.Loops[N.Index].Body) || LoopNeeded[N.Index])
          LoopEmitted[N.Index] = true;
        Needed |= LoopEmitted[N.Index];
        break;
      case NodeKind::If: {
        bool Then = markEmitted(F.Ifs[N.Index].Then);
        bool Else = markEmitted(F.Ifs[N.Index].Else);
        IfEmitted[N.Index] = Then || Else;
        Needed |= IfEmitted[N.Index];
        break;
      }
      }
    }
    return Needed;
  }

  //===--- Pass 4: emission -----------------------------------------------===//

  // Machine-region insertion stack (stable across vector reallocation).
  struct MRef {
    enum class K : uint8_t { Body, LoopBody, IfThen, IfElse } Kind;
    uint32_t Idx = 0;
  };
  std::vector<MRef> MStack{{MRef::K::Body, 0}};

  MRegion &curRegion() {
    const MRef &R = MStack.back();
    switch (R.Kind) {
    case MRef::K::Body:
      return M.Body;
    case MRef::K::LoopBody:
      return M.Loops[R.Idx].Body;
    case MRef::K::IfThen:
      return M.Ifs[R.Idx].Then;
    case MRef::K::IfElse:
      return M.Ifs[R.Idx].Else;
    }
    vapor_unreachable("bad machine region ref");
  }

  MReg emit(MInstr I) {
    MReg Dst = I.Dst;
    M.Instrs.push_back(std::move(I));
    curRegion().Nodes.push_back(
        {MNodeKind::Instr, static_cast<uint32_t>(M.Instrs.size() - 1)});
    return Dst;
  }

  MReg ldImm(int64_t V, ScalarKind K = ScalarKind::I64) {
    MInstr I;
    I.Op = MOp::LdImm;
    I.Kind = K;
    I.Imm = V;
    I.Dst = M.makeReg(K, false);
    return emit(std::move(I));
  }

  MReg alu(Opcode SubOp, ScalarKind K, bool Vector, std::vector<MReg> Srcs) {
    MInstr I;
    I.Op = MOp::Alu;
    I.SubOp = SubOp;
    I.Kind = K;
    I.Vector = Vector;
    I.Srcs = std::move(Srcs);
    I.Dst = M.makeReg(isCompare(SubOp) ? ScalarKind::I1 : K, Vector);
    return emit(std::move(I));
  }

  MReg baseOf(uint32_t Array) {
    assert(Array < BaseReg.size() && "array id out of range");
    if (BaseReg[Array] != NoReg)
      return BaseReg[Array];
    // Bases load once at entry; emit into the function body start.
    MInstr I;
    I.Op = MOp::LoadBase;
    I.Array = Array;
    I.Dst = M.makeReg(ScalarKind::I64, false);
    MReg R = I.Dst;
    M.Instrs.push_back(std::move(I));
    M.Body.Nodes.insert(M.Body.Nodes.begin(),
                        {MNodeKind::Instr,
                         static_cast<uint32_t>(M.Instrs.size() - 1)});
    return BaseReg[Array] = R;
  }

  /// Byte address of element \p IdxReg of \p Array, plus \p LaneOff lanes.
  MReg addrOf(uint32_t Array, MReg IdxReg, ScalarKind K, unsigned LaneOff) {
    MReg Idx = IdxReg;
    if (LaneOff != 0) {
      MReg Off = ldImm(LaneOff);
      Idx = alu(Opcode::Add, ScalarKind::I64, false, {IdxReg, Off});
    }
    MInstr I;
    I.Op = MOp::Addr;
    I.Srcs = {baseOf(Array), Idx};
    I.Scale = scalarSize(K);
    I.Folded = Opt.FoldAddressing;
    I.Dst = M.makeReg(ScalarKind::I64, false);
    return emit(std::move(I));
  }

  const std::vector<MReg> &lanesOf(ValueId V) const {
    assert(V < Lowered.size() && Lowered[V] && "IR value not yet lowered");
    return Lanes[V];
  }

  void setLanes(ValueId V, std::vector<MReg> Regs) {
    Lanes[V] = std::move(Regs);
    Lowered[V] = true;
  }

  unsigned scalarLaneCount(ScalarKind K) const {
    return std::max(1u, VSEff / scalarSize(K));
  }

  void emitRegion(const Region &R) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        if (InstrNeeded[N.Index])
          emitInstr(F.Instrs[N.Index], N.Index, InstrScalar[N.Index]);
        break;
      case NodeKind::Loop:
        if (LoopEmitted[N.Index])
          emitLoop(N.Index);
        break;
      case NodeKind::If:
        emitIf(N.Index);
        break;
      }
    }
  }

  void emitLoop(uint32_t LoopId) {
    const LoopStmt &L = F.Loops[LoopId];
    bool Scalar = LoopScalar[LoopId];
    // A vector main loop whose body is scalar-expanded (dependence hint or
    // per-loop capability fallback) consumes fewer elements per iteration
    // than the get_VF its enclosing (vector) region materialized: its step
    // must be re-materialized at the scalar-expansion granularity. The
    // scalar step always divides the vector one (both powers of two), so
    // the precomputed main bound stays exact.
    MReg StepReg = lanesOf(L.Step)[0];
    if (Scalar && L.Role == LoopRole::VecMain) {
      unsigned MinSize = loopMinElem(LoopId);
      int64_t ScalarStep =
          MinSize == 16 ? 1
                        : std::max<int64_t>(1, VSEff / MinSize);
      StepReg = ldImm(ScalarStep);
    }
    M.Loops.emplace_back();
    uint32_t LoopIdx = static_cast<uint32_t>(M.Loops.size() - 1);
    {
      MLoop &ML = M.Loops[LoopIdx];
      ML.Lower = lanesOf(L.Lower)[0];
      ML.Upper = lanesOf(L.Upper)[0];
      ML.Step = StepReg;
      ML.IsVectorMain = L.Role == LoopRole::VecMain && !Scalar;
    }
    MReg Iv = M.makeReg(ScalarKind::I64, false);
    M.Loops[LoopIdx].IndVar = Iv;
    setLanes(L.IndVar, {Iv});

    // Live carried variables become per-lane machine carried slots.
    struct CarriedLanes {
      const LoopStmt::CarriedVar *C;
      std::vector<MReg> Phis;
    };
    std::vector<CarriedLanes> LiveCarried;
    for (const auto &C : L.Carried) {
      // ir::verify leaves a carried result's id unchecked; one past the
      // value table is never read.
      bool ResultLive = C.Result < ValueLive.size() && ValueLive[C.Result];
      if (!ValueLive[C.Phi] && !ResultLive)
        continue;
      CarriedLanes CL;
      CL.C = &C;
      const std::vector<MReg> &Inits = lanesOf(C.Init);
      for (MReg Init : Inits) {
        MReg Phi = M.makeReg(M.Regs[Init].Kind, M.Regs[Init].Vector);
        M.Loops[LoopIdx].Carried.push_back({Phi, Init, NoReg});
        CL.Phis.push_back(Phi);
      }
      setLanes(C.Phi, CL.Phis);
      LiveCarried.push_back(std::move(CL));
    }

    curRegion().Nodes.push_back({MNodeKind::Loop, LoopIdx});
    MStack.push_back({MRef::K::LoopBody, LoopIdx});
    emitRegion(L.Body);
    MStack.pop_back();

    // Wire carried nexts and expose results.
    size_t Slot = 0;
    for (const auto &CL : LiveCarried) {
      const std::vector<MReg> &Nexts = lanesOf(CL.C->Next);
      for (size_t LIdx = 0; LIdx < CL.Phis.size(); ++LIdx)
        M.Loops[LoopIdx].Carried[Slot + LIdx].Next = Nexts[LIdx];
      // After the loop the phi registers hold the final values.
      if (CL.C->Result < Lanes.size())
        setLanes(CL.C->Result, CL.Phis);
      Slot += CL.Phis.size();
    }
  }

  void emitIf(uint32_t IfId) {
    const IfStmt &S = F.Ifs[IfId];
    if (std::optional<bool> Taken = folded(S.Cond)) {
      emitRegion(*Taken ? S.Then : S.Else);
      return;
    }
    if (!IfEmitted[IfId])
      return;
    M.Ifs.emplace_back();
    uint32_t IfIdx = static_cast<uint32_t>(M.Ifs.size() - 1);
    M.Ifs[IfIdx].Cond = lanesOf(S.Cond)[0];
    curRegion().Nodes.push_back({MNodeKind::If, IfIdx});
    MStack.push_back({MRef::K::IfThen, IfIdx});
    emitRegion(S.Then);
    MStack.back().Kind = MRef::K::IfElse;
    emitRegion(S.Else);
    MStack.pop_back();
  }

  void emitInstr(const Instr &I, uint32_t Idx, bool Scalar);

  // Per-op emission helpers (defined below, out of line for readability).
  std::vector<MReg> lowerVectorLoad(const Instr &I, uint32_t Idx,
                                    bool Scalar);
  void lowerVectorStore(const Instr &I, uint32_t Idx, bool Scalar);
  std::vector<MReg> lowerGuardRuntime(const Instr &I);

  //===--- Pass 5: post passes --------------------------------------------===//

  // Machine loops are numbered in pre-order (emitLoop appends a loop
  // before emitting its body), so loop L's subtree is the index range
  // [L, LoopEnd[L]).
  static constexpr uint32_t NoLoop = ~0u;
  std::vector<uint32_t> LoopEnd;
  std::vector<uint32_t> ParentLoop; ///< Innermost enclosing loop, or NoLoop.
  /// Per register: the innermost machine loop holding its one definition
  /// (a defining instruction, or the loop whose induction variable or
  /// carried phi it is), or NoLoop. Every register has at most one.
  std::vector<uint32_t> DefLoop;

  /// Records the loop tree and every register's defining loop for the
  /// nodes of \p R, which sits directly in loop \p Loop. \returns one past
  /// the last loop index in R's subtree.
  uint32_t mapLoops(const MRegion &R, uint32_t Loop, uint32_t Next) {
    for (const MNodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case MNodeKind::Instr:
        if (M.Instrs[N.Index].Dst != NoReg)
          DefLoop[M.Instrs[N.Index].Dst] = Loop;
        break;
      case MNodeKind::Loop: {
        assert(N.Index == Next && "machine loops are numbered in pre-order");
        const MLoop &L = M.Loops[N.Index];
        ParentLoop[N.Index] = Loop;
        DefLoop[L.IndVar] = N.Index;
        for (const auto &C : L.Carried)
          DefLoop[C.Phi] = N.Index;
        Next = LoopEnd[N.Index] = mapLoops(L.Body, N.Index, N.Index + 1);
        break;
      }
      case MNodeKind::If:
        Next = mapLoops(M.Ifs[N.Index].Then, Loop, Next);
        Next = mapLoops(M.Ifs[N.Index].Else, Loop, Next);
        break;
      }
    }
    return Next;
  }

  /// Whether register \p S is defined inside loop \p Loop's subtree.
  bool definedIn(MReg S, uint32_t Loop) const {
    return S != NoReg && DefLoop[S] >= Loop && DefLoop[S] < LoopEnd[Loop];
  }

  /// Strong-tier loop-invariant code motion: hoists pure instructions
  /// whose sources are defined outside the loop, to just before it. The
  /// hoist order is the one a restart-from-the-top fixpoint gives: always
  /// the first invariant instruction of the body. A hoist moves its
  /// register's only definition out of the loop, and an earlier
  /// instruction reading it may have become invariant, so the scan
  /// restarts from the top.
  void hoistInvariants(MRegion &R) {
    for (size_t NIdx = 0; NIdx < R.Nodes.size(); ++NIdx) {
      MNodeRef N = R.Nodes[NIdx];
      if (N.Kind == MNodeKind::If) {
        hoistInvariants(M.Ifs[N.Index].Then);
        hoistInvariants(M.Ifs[N.Index].Else);
        continue;
      }
      if (N.Kind != MNodeKind::Loop)
        continue;
      MLoop &L = M.Loops[N.Index];
      hoistInvariants(L.Body);
      std::vector<MNodeRef> Hoisted;
      for (size_t BIdx = 0; BIdx < L.Body.Nodes.size();) {
        MNodeRef BN = L.Body.Nodes[BIdx];
        const MInstr *BI =
            BN.Kind == MNodeKind::Instr ? &M.Instrs[BN.Index] : nullptr;
        if (!BI || !isHoistable(BI->Op) ||
            std::any_of(BI->Srcs.begin(), BI->Srcs.end(),
                        [&](MReg S) { return definedIn(S, N.Index); })) {
          ++BIdx;
          continue;
        }
        L.Body.Nodes.erase(L.Body.Nodes.begin() + BIdx);
        Hoisted.push_back(BN);
        if (BI->Dst != NoReg) {
          DefLoop[BI->Dst] = ParentLoop[N.Index];
          BIdx = 0;
        }
      }
      R.Nodes.insert(R.Nodes.begin() + NIdx, Hoisted.begin(), Hoisted.end());
      NIdx += Hoisted.size(); // Back on the loop; hoisted nodes are done.
    }
  }

  /// Appends the instructions of \p R to Seq in execution order, and
  /// records each loop's body as the segment [SegBegin, SegEnd) of it.
  void linearize(const MRegion &R) {
    for (const MNodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case MNodeKind::Instr:
        Seq.push_back(N.Index);
        break;
      case MNodeKind::Loop:
        SegBegin[N.Index] = static_cast<uint32_t>(Seq.size());
        linearize(M.Loops[N.Index].Body);
        SegEnd[N.Index] = static_cast<uint32_t>(Seq.size());
        break;
      case MNodeKind::If:
        linearize(M.Ifs[N.Index].Then);
        linearize(M.Ifs[N.Index].Else);
        break;
      }
    }
  }

  // Register-pressure scratch: the whole function linearized once (as
  // instruction indices) with each loop's segment of it, each register's
  // [first, last] live position in the loop at hand (First < 0 when the
  // register is untouched, reset through Touched), and per-position
  // +1/-1 counts of live-range starts and ends per register class.
  std::vector<uint32_t> Seq;
  std::vector<uint32_t> SegBegin, SegEnd;
  std::vector<int> RangeFirst, RangeLast;
  std::vector<MReg> Touched;
  std::vector<int> ScalarDelta, VecDelta;

  /// Maximum number of simultaneously live registers (per class) over the
  /// linearized body of loop \p LIdx — a linear-scan allocator's demand.
  /// Carried phis and externally defined values live across the whole
  /// body.
  void maxLivePressure(uint32_t LIdx, unsigned &ScalarPeak,
                       unsigned &VecPeak) {
    const MLoop &L = M.Loops[LIdx];
    const uint32_t Begin = SegBegin[LIdx];
    int End = static_cast<int>(SegEnd[LIdx] - Begin);
    auto SetRange = [&](MReg Reg, int First, int Last) {
      if (RangeFirst[Reg] < 0)
        Touched.push_back(Reg);
      RangeFirst[Reg] = First;
      RangeLast[Reg] = Last;
    };
    auto NoteUse = [&](MReg Reg, int Pos) {
      if (Reg == NoReg)
        return;
      if (RangeFirst[Reg] < 0)
        SetRange(Reg, 0, Pos); // Defined outside: live from entry.
      else
        RangeLast[Reg] = std::max(RangeLast[Reg], Pos);
    };
    for (int Pos = 0; Pos < End; ++Pos) {
      const MInstr &I = M.Instrs[Seq[Begin + Pos]];
      for (MReg S : I.Srcs)
        NoteUse(S, Pos);
      if (I.Dst != NoReg && RangeFirst[I.Dst] < 0)
        SetRange(I.Dst, Pos, Pos);
    }
    // Loop-carried state lives across the back edge: whole body.
    for (const auto &C : L.Carried) {
      SetRange(C.Phi, 0, End);
      NoteUse(C.Next, End);
    }
    SetRange(L.IndVar, 0, End);

    // A range [First, Last] is +1 at First and -1 at Last + 1. The peak
    // of the running sum over positions is the peak over the ranges'
    // start and end events taken in order, ends before starts.
    ScalarDelta.assign(End + 2, 0);
    VecDelta.assign(End + 2, 0);
    for (MReg Reg : Touched) {
      std::vector<int> &Delta = M.Regs[Reg].Vector ? VecDelta : ScalarDelta;
      ++Delta[RangeFirst[Reg]];
      --Delta[RangeLast[Reg] + 1];
      RangeFirst[Reg] = -1;
    }
    Touched.clear();
    auto Peak = [](const std::vector<int> &Delta) {
      int Cur = 0, Max = 0;
      for (int D : Delta) {
        Cur += D;
        Max = std::max(Max, Cur);
      }
      return static_cast<unsigned>(Max);
    };
    ScalarPeak = Peak(ScalarDelta);
    VecPeak = Peak(VecDelta);
  }

  /// Inserts spill traffic into loop bodies whose peak register demand
  /// exceeds the (tier-adjusted) register file. The weak tier wastes half
  /// the file (paper: Mono's "lack of proper global register allocation").
  void modelRegisterPressure() {
    bool Weak = Opt.CompilerTier == Tier::Weak;
    unsigned SAvail = Weak ? std::max(3u, T.ScalarRegs / 2) : T.ScalarRegs;
    unsigned VAvail = Weak ? std::max(3u, T.VectorRegs / 2) : T.VectorRegs;
    // Spills go to the front of a loop's own body. Loops are visited in
    // pre-order, so no loop visited later holds an earlier loop's body in
    // its segment: one linearization, taken before any spill, serves all.
    SegBegin.assign(M.Loops.size(), 0);
    SegEnd.assign(M.Loops.size(), 0);
    Seq.clear();
    linearize(M.Body);
    RangeFirst.assign(M.Regs.size(), -1);
    RangeLast.assign(M.Regs.size(), 0);
    for (uint32_t LIdx = 0; LIdx < M.Loops.size(); ++LIdx) {
      MLoop &L = M.Loops[LIdx];
      unsigned SPeak = 0, VPeak = 0;
      maxLivePressure(LIdx, SPeak, VPeak);
      unsigned Excess = 0;
      if (SPeak > SAvail)
        Excess += SPeak - SAvail;
      if (VPeak > VAvail)
        Excess += VPeak - VAvail;
      prependPairs(L, Excess, MOp::SpillSt, MOp::SpillLd);
    }
  }

  /// Emits \p Count (\p First, \p Second) pairs, each pair pushed onto the
  /// front of \p L's body in turn, so the last one emitted leads; the body
  /// moves once.
  void prependPairs(MLoop &L, size_t Count, MOp First, MOp Second) {
    if (Count == 0)
      return;
    std::vector<MNodeRef> Front;
    for (size_t E = 0; E < Count; ++E) {
      for (MOp Op : {First, Second}) {
        M.Instrs.emplace_back();
        M.Instrs.back().Op = Op;
        Front.push_back(
            {MNodeKind::Instr, static_cast<uint32_t>(M.Instrs.size() - 1)});
      }
    }
    L.Body.Nodes.insert(L.Body.Nodes.begin(), Front.rbegin(), Front.rend());
  }

  /// Legacy-codegen profile: accumulators live in memory (one spill store
  /// and reload per carried variable per iteration) — the Table 3 "lack
  /// of register promotion of the accumulator in reduction kernels".
  void demoteAccumulators() {
    for (MLoop &L : M.Loops)
      prependPairs(L, L.Carried.size(), MOp::SpillLd, MOp::SpillSt);
  }
};

//===--- Instruction emission --------------------------------------------===//

void JitCompiler::emitInstr(const Instr &I, uint32_t Idx, bool Scalar) {
  auto SetLanes = [&](std::vector<MReg> Regs) {
    if (I.hasResult())
      setLanes(I.Result, std::move(Regs));
  };

  switch (I.Op) {
  //===--- Constants and scalar arithmetic --------------------------------===//
  case Opcode::ConstInt:
    SetLanes({ldImm(I.IntImm, I.Ty.Elem)});
    return;
  case Opcode::ConstFP: {
    MInstr C;
    C.Op = MOp::LdFImm;
    C.Kind = I.Ty.Elem;
    C.FImm = I.FPImm;
    C.Dst = M.makeReg(I.Ty.Elem, false);
    SetLanes({emit(std::move(C))});
    return;
  }

  //===--- Machine-parameter idioms ---------------------------------------===//
  case Opcode::GetVF:
  case Opcode::GetAlignLimit: {
    unsigned Bytes = Scalar ? VSEff : T.VSBytes;
    SetLanes({ldImm(Bytes / scalarSize(I.TyParam))});
    return;
  }
  case Opcode::GetMisalign: {
    unsigned ES = scalarSize(F.Arrays[I.Array].Elem);
    unsigned AL = (Scalar ? VSEff : T.VSBytes) / ES;
    if (Opt.CompilerTier == Tier::Strong && RT.Arrays[I.Array].KnownBase) {
      uint64_t BaseElems = RT.Arrays[I.Array].Base / ES;
      SetLanes({ldImm((BaseElems + static_cast<uint64_t>(I.IntImm)) % AL)});
      return;
    }
    // Runtime computation: ((base / es) + off) & (AL - 1).
    MReg Base = baseOf(I.Array);
    MReg EsShift = ldImm(static_cast<int64_t>(63 - __builtin_clzll(ES)));
    MReg Elems = alu(Opcode::ShrL, ScalarKind::I64, false, {Base, EsShift});
    MReg Off = ldImm(I.IntImm);
    MReg Sum = alu(Opcode::Add, ScalarKind::I64, false, {Elems, Off});
    MReg Mask = ldImm(static_cast<int64_t>(AL) - 1);
    SetLanes({alu(Opcode::And, ScalarKind::I64, false, {Sum, Mask})});
    return;
  }
  case Opcode::LoopBound:
    SetLanes(lanesOf(I.Ops[loopBoundScalar(Idx) ? 1 : 0]));
    return;
  case Opcode::VersionGuard:
    // Folded guards never reach emission (their ifs were resolved).
    SetLanes(lowerGuardRuntime(I));
    return;

  //===--- Scalar memory --------------------------------------------------===//
  case Opcode::Load: {
    MReg Addr = addrOf(I.Array, lanesOf(I.Ops[0])[0], I.Ty.Elem, 0);
    MInstr L;
    L.Op = MOp::Load;
    L.Kind = I.Ty.Elem;
    L.Srcs = {Addr};
    L.Dst = M.makeReg(I.Ty.Elem, false);
    L.SrcInstr = Idx;
    SetLanes({emit(std::move(L))});
    return;
  }
  case Opcode::Store: {
    ScalarKind K = F.Arrays[I.Array].Elem;
    MReg Addr = addrOf(I.Array, lanesOf(I.Ops[0])[0], K, 0);
    MInstr S;
    S.Op = MOp::Store;
    S.Kind = K;
    S.Srcs = {Addr, lanesOf(I.Ops[1])[0]};
    S.SrcInstr = Idx;
    emit(std::move(S));
    return;
  }

  //===--- Vector memory and realignment ----------------------------------===//
  case Opcode::ALoad:
  case Opcode::ULoad:
  case Opcode::AlignLoad:
  case Opcode::RealignLoad:
    SetLanes(lowerVectorLoad(I, Idx, Scalar));
    return;
  case Opcode::AStore:
  case Opcode::UStore:
    lowerVectorStore(I, Idx, Scalar);
    return;
  case Opcode::GetRT: {
    // Live only when a realign_load keeps its chain (perm strategy).
    MReg Addr = addrOf(I.Array, lanesOf(I.Ops[0])[0],
                       F.Arrays[I.Array].Elem, 0);
    MInstr G;
    G.Op = MOp::GetPerm;
    G.Srcs = {Addr};
    G.Dst = M.makeReg(ScalarKind::U64, false);
    SetLanes({emit(std::move(G))});
    return;
  }

  //===--- Vector initialization ------------------------------------------===//
  case Opcode::InitUniform: {
    MReg V = lanesOf(I.Ops[0])[0];
    if (Scalar) {
      SetLanes(std::vector<MReg>(scalarLaneCount(I.Ty.Elem), V));
      return;
    }
    MInstr S;
    S.Op = MOp::VSplat;
    S.Kind = I.Ty.Elem;
    S.Vector = true;
    S.Srcs = {V};
    S.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(S))});
    return;
  }
  case Opcode::InitAffine: {
    MReg Val = lanesOf(I.Ops[0])[0];
    MReg Inc = lanesOf(I.Ops[1])[0];
    if (Scalar) {
      unsigned N = scalarLaneCount(I.Ty.Elem);
      std::vector<MReg> Lanes{Val};
      MReg Cur = Val;
      for (unsigned LIdx = 1; LIdx < N; ++LIdx) {
        Cur = alu(Opcode::Add, I.Ty.Elem, false, {Cur, Inc});
        Lanes.push_back(Cur);
      }
      SetLanes(std::move(Lanes));
      return;
    }
    MInstr A;
    A.Op = MOp::VAffine;
    A.Kind = I.Ty.Elem;
    A.Vector = true;
    A.Srcs = {Val, Inc};
    A.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(A))});
    return;
  }
  case Opcode::InitReduc: {
    MReg Val = lanesOf(I.Ops[0])[0];
    MReg Default = lanesOf(I.Ops[1])[0];
    if (Scalar) {
      unsigned N = scalarLaneCount(I.Ty.Elem);
      std::vector<MReg> Lanes{Val};
      for (unsigned LIdx = 1; LIdx < N; ++LIdx)
        Lanes.push_back(Default);
      SetLanes(std::move(Lanes));
      return;
    }
    MInstr S;
    S.Op = MOp::VSplat;
    S.Kind = I.Ty.Elem;
    S.Vector = true;
    S.Srcs = {Default};
    S.Dst = M.makeReg(I.Ty.Elem, true);
    MReg Spl = emit(std::move(S));
    MInstr L0;
    L0.Op = MOp::VSetLane0;
    L0.Kind = I.Ty.Elem;
    L0.Vector = true;
    L0.Srcs = {Spl, Val};
    L0.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(L0))});
    return;
  }

  //===--- Reductions and computational idioms ----------------------------===//
  case Opcode::ReducPlus:
  case Opcode::ReducMax:
  case Opcode::ReducMin: {
    Opcode K = I.Op == Opcode::ReducPlus
                   ? Opcode::Add
                   : (I.Op == Opcode::ReducMax ? Opcode::Max : Opcode::Min);
    const auto &Src = lanesOf(I.Ops[0]);
    if (Scalar) {
      MReg Acc = Src[0];
      for (size_t LIdx = 1; LIdx < Src.size(); ++LIdx)
        Acc = alu(K, I.Ty.Elem, false, {Acc, Src[LIdx]});
      SetLanes({Acc});
      return;
    }
    MInstr R;
    R.Op = MOp::Reduce;
    R.SubOp = K;
    R.Kind = I.Ty.Elem;
    R.Srcs = {Src[0]};
    R.Dst = M.makeReg(I.Ty.Elem, false);
    SetLanes({emit(std::move(R))});
    return;
  }

  case Opcode::DotProduct: {
    ScalarKind Narrow = F.typeOf(I.Ops[0]).Elem;
    ScalarKind Wide = I.Ty.Elem;
    const auto &A = lanesOf(I.Ops[0]);
    const auto &B = lanesOf(I.Ops[1]);
    const auto &Acc = lanesOf(I.Ops[2]);
    if (Scalar) {
      std::vector<MReg> Out;
      for (size_t J = 0; J < Acc.size(); ++J) {
        MReg A0 = alu(Opcode::Convert, Wide, false, {A[2 * J]});
        MReg B0 = alu(Opcode::Convert, Wide, false, {B[2 * J]});
        MReg P0 = alu(Opcode::Mul, Wide, false, {A0, B0});
        MReg A1 = alu(Opcode::Convert, Wide, false, {A[2 * J + 1]});
        MReg B1 = alu(Opcode::Convert, Wide, false, {B[2 * J + 1]});
        MReg P1 = alu(Opcode::Mul, Wide, false, {A1, B1});
        MReg S0 = alu(Opcode::Add, Wide, false, {Acc[J], P0});
        Out.push_back(alu(Opcode::Add, Wide, false, {S0, P1}));
      }
      SetLanes(std::move(Out));
      return;
    }
    (void)Narrow;
    MInstr D;
    D.Op = MOp::VDot;
    D.Kind = Wide;
    D.Vector = true;
    D.Srcs = {A[0], B[0], Acc[0]};
    D.Dst = M.makeReg(Wide, true);
    SetLanes({emit(std::move(D))});
    return;
  }

  case Opcode::WidenMultLo:
  case Opcode::WidenMultHi: {
    ScalarKind Wide = I.Ty.Elem;
    const auto &A = lanesOf(I.Ops[0]);
    const auto &B = lanesOf(I.Ops[1]);
    if (Scalar) {
      size_t Half = A.size() / 2;
      size_t Off = I.Op == Opcode::WidenMultHi ? Half : 0;
      std::vector<MReg> Out;
      for (size_t LIdx = 0; LIdx < Half; ++LIdx) {
        MReg WA = alu(Opcode::Convert, Wide, false, {A[Off + LIdx]});
        MReg WB = alu(Opcode::Convert, Wide, false, {B[Off + LIdx]});
        Out.push_back(alu(Opcode::Mul, Wide, false, {WA, WB}));
      }
      SetLanes(std::move(Out));
      return;
    }
    MInstr W;
    W.Op = T.supportsVecOp(I.Op)
               ? (I.Op == Opcode::WidenMultLo ? MOp::VWMulLo : MOp::VWMulHi)
               : MOp::CallLib;
    W.SubOp = I.Op;
    W.Kind = Wide;
    W.Vector = true;
    W.Srcs = {A[0], B[0]};
    W.Dst = M.makeReg(Wide, true);
    SetLanes({emit(std::move(W))});
    return;
  }

  case Opcode::Pack: {
    ScalarKind Narrow = I.Ty.Elem;
    const auto &A = lanesOf(I.Ops[0]);
    const auto &B = lanesOf(I.Ops[1]);
    if (Scalar) {
      std::vector<MReg> Out;
      for (MReg S : A)
        Out.push_back(alu(Opcode::Convert, Narrow, false, {S}));
      for (MReg S : B)
        Out.push_back(alu(Opcode::Convert, Narrow, false, {S}));
      SetLanes(std::move(Out));
      return;
    }
    MInstr P;
    P.Op = MOp::VPack;
    P.Kind = Narrow;
    P.Vector = true;
    P.Srcs = {A[0], B[0]};
    P.Dst = M.makeReg(Narrow, true);
    SetLanes({emit(std::move(P))});
    return;
  }
  case Opcode::UnpackLo:
  case Opcode::UnpackHi: {
    ScalarKind Wide = I.Ty.Elem;
    const auto &A = lanesOf(I.Ops[0]);
    if (Scalar) {
      size_t Half = A.size() / 2;
      size_t Off = I.Op == Opcode::UnpackHi ? Half : 0;
      std::vector<MReg> Out;
      for (size_t LIdx = 0; LIdx < Half; ++LIdx)
        Out.push_back(alu(Opcode::Convert, Wide, false, {A[Off + LIdx]}));
      SetLanes(std::move(Out));
      return;
    }
    MInstr U;
    U.Op = I.Op == Opcode::UnpackLo ? MOp::VUnpackLo : MOp::VUnpackHi;
    U.Kind = Wide;
    U.Vector = true;
    U.Srcs = {A[0]};
    U.Dst = M.makeReg(Wide, true);
    SetLanes({emit(std::move(U))});
    return;
  }

  //===--- Data reorganization --------------------------------------------===//
  case Opcode::Extract: {
    if (Scalar) {
      // Pure register renaming: no machine code at all.
      std::vector<MReg> Concat;
      for (ValueId Op : I.Ops)
        for (MReg R : lanesOf(Op))
          Concat.push_back(R);
      unsigned N = scalarLaneCount(I.Ty.Elem);
      std::vector<MReg> Out;
      for (unsigned LIdx = 0; LIdx < N; ++LIdx)
        Out.push_back(Concat[I.IntImm + static_cast<uint64_t>(LIdx) *
                                            I.IntImm2]);
      SetLanes(std::move(Out));
      return;
    }
    MInstr E;
    E.Op = MOp::VExtract;
    E.Kind = I.Ty.Elem;
    E.Vector = true;
    for (ValueId Op : I.Ops)
      E.Srcs.push_back(lanesOf(Op)[0]);
    E.Imm = I.IntImm;
    E.Imm2 = I.IntImm2;
    E.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(E))});
    return;
  }
  case Opcode::InterleaveLo:
  case Opcode::InterleaveHi: {
    const auto &A = lanesOf(I.Ops[0]);
    const auto &B = lanesOf(I.Ops[1]);
    if (Scalar) {
      size_t Half = A.size() / 2;
      size_t Off = I.Op == Opcode::InterleaveHi ? Half : 0;
      std::vector<MReg> Out(A.size());
      for (size_t LIdx = 0; LIdx < Half; ++LIdx) {
        Out[2 * LIdx] = A[Off + LIdx];
        Out[2 * LIdx + 1] = B[Off + LIdx];
      }
      SetLanes(std::move(Out));
      return;
    }
    MInstr V;
    V.Op = I.Op == Opcode::InterleaveLo ? MOp::VIlvLo : MOp::VIlvHi;
    V.Kind = I.Ty.Elem;
    V.Vector = true;
    V.Srcs = {A[0], B[0]};
    V.Dst = M.makeReg(I.Ty.Elem, true);
    SetLanes({emit(std::move(V))});
    return;
  }

  case Opcode::LibCall:
    vapor_unreachable("libcall appears only in machine code");

  //===--- Everything else: elementwise ALU -------------------------------===//
  default: {
    bool VectorInstr = I.Ty.isVector();
    for (ValueId Op : I.Ops)
      VectorInstr |= F.typeOf(Op).isVector();
    if (!VectorInstr) {
      std::vector<MReg> Srcs;
      for (ValueId Op : I.Ops)
        Srcs.push_back(lanesOf(Op)[0]);
      SetLanes({alu(I.Op, I.Ty.Elem, false, std::move(Srcs))});
      return;
    }
    if (Scalar) {
      size_t N = 0;
      for (ValueId Op : I.Ops)
        N = std::max(N, lanesOf(Op).size());
      std::vector<MReg> Out;
      for (size_t LIdx = 0; LIdx < N; ++LIdx) {
        std::vector<MReg> Srcs;
        for (ValueId Op : I.Ops) {
          const auto &Lanes = lanesOf(Op);
          Srcs.push_back(Lanes[Lanes.size() == 1 ? 0 : LIdx]);
        }
        Out.push_back(alu(I.Op, I.Ty.Elem, false, std::move(Srcs)));
      }
      SetLanes(std::move(Out));
      return;
    }
    // Vector ALU (or NEON library fallback for vector converts).
    std::vector<MReg> Srcs;
    for (ValueId Op : I.Ops)
      Srcs.push_back(lanesOf(Op)[0]);
    if (I.Op == Opcode::Convert && !T.supportsVecOp(Opcode::Convert)) {
      MInstr C;
      C.Op = MOp::CallLib;
      C.SubOp = Opcode::Convert;
      C.Kind = I.Ty.Elem;
      C.Vector = true;
      C.Srcs = std::move(Srcs);
      C.Dst = M.makeReg(I.Ty.Elem, true);
      SetLanes({emit(std::move(C))});
      return;
    }
    MInstr A;
    A.Op = MOp::Alu;
    A.SubOp = I.Op;
    A.Kind = I.Ty.Elem;
    A.Vector = true;
    A.Srcs = std::move(Srcs);
    A.Dst = M.makeReg(isCompare(I.Op) ? ScalarKind::I1 : I.Ty.Elem, true);
    SetLanes({emit(std::move(A))});
    return;
  }
  }
}

std::vector<MReg> JitCompiler::lowerVectorLoad(const Instr &I, uint32_t Idx,
                                               bool Scalar) {
  ScalarKind K = F.Arrays[I.Array].Elem;
  ValueId IdxOp = I.Op == Opcode::RealignLoad ? I.Ops[3] : I.Ops[0];
  MReg IdxReg = lanesOf(IdxOp)[0];

  if (Scalar) {
    unsigned N = scalarLaneCount(K);
    std::vector<MReg> Out;
    for (unsigned LIdx = 0; LIdx < N; ++LIdx) {
      MReg Addr = addrOf(I.Array, IdxReg, K, LIdx);
      MInstr L;
      L.Op = MOp::Load;
      L.Kind = K;
      L.Srcs = {Addr};
      L.Dst = M.makeReg(K, false);
      Out.push_back(emit(std::move(L)));
    }
    return Out;
  }

  MemStrategy S = MemStrategy::Aligned;
  if (I.Op == Opcode::ULoad || I.Op == Opcode::RealignLoad) {
    assert(Strat[Idx] && "vector access in a compiled region has no strategy");
    S = *Strat[Idx];
  }

  if (I.Op == Opcode::RealignLoad && S == MemStrategy::Perm) {
    MInstr P;
    P.Op = MOp::VPerm;
    P.Kind = K;
    P.Vector = true;
    P.Srcs = {lanesOf(I.Ops[0])[0], lanesOf(I.Ops[1])[0],
              lanesOf(I.Ops[2])[0]};
    P.Dst = M.makeReg(K, true);
    return {emit(std::move(P))};
  }

  MReg Addr = addrOf(I.Array, IdxReg, K, 0);
  if (I.Op == Opcode::AlignLoad) {
    // Floor the address to a vector boundary, then an aligned load.
    MReg Mask = ldImm(~static_cast<int64_t>(T.VSBytes - 1));
    Addr = alu(Opcode::And, ScalarKind::I64, false, {Addr, Mask});
  }
  MInstr L;
  L.Op = (I.Op == Opcode::ALoad || I.Op == Opcode::AlignLoad ||
          S == MemStrategy::Aligned)
             ? MOp::VLoadA
             : MOp::VLoadU;
  L.Kind = K;
  L.Vector = true;
  L.Srcs = {Addr};
  L.Dst = M.makeReg(K, true);
  // Only plain vector loads are certificate-covered; align_load floors
  // its address and realign chains read out-of-range on purpose.
  if (I.Op != Opcode::AlignLoad && I.Op != Opcode::RealignLoad)
    L.SrcInstr = Idx;
  return {emit(std::move(L))};
}

void JitCompiler::lowerVectorStore(const Instr &I, uint32_t Idx,
                                   bool Scalar) {
  ScalarKind K = F.Arrays[I.Array].Elem;
  MReg IdxReg = lanesOf(I.Ops[0])[0];
  const auto &Vals = lanesOf(I.Ops[1]);

  if (Scalar) {
    for (unsigned LIdx = 0; LIdx < Vals.size(); ++LIdx) {
      MReg Addr = addrOf(I.Array, IdxReg, K, LIdx);
      MInstr S;
      S.Op = MOp::Store;
      S.Kind = K;
      S.Srcs = {Addr, Vals[LIdx]};
      emit(std::move(S));
    }
    return;
  }

  assert((I.Op == Opcode::AStore || Strat[Idx]) &&
         "vector access in a compiled region has no strategy");
  MemStrategy S = I.Op == Opcode::AStore ? MemStrategy::Aligned : *Strat[Idx];
  MReg Addr = addrOf(I.Array, IdxReg, K, 0);
  MInstr St;
  St.Op = S == MemStrategy::Aligned ? MOp::VStoreA : MOp::VStoreU;
  St.Kind = K;
  St.Vector = true;
  St.Srcs = {Addr, Vals[0]};
  St.SrcInstr = Idx;
  emit(std::move(St));
}

std::vector<MReg> JitCompiler::lowerGuardRuntime(const Instr &I) {
  switch (I.Guard) {
  case GuardKind::BasesAligned: {
    // or-together (base & (VS-1)) for each array, compare against zero.
    unsigned VS = T.VSBytes ? T.VSBytes : VSEff;
    MReg Mask = ldImm(static_cast<int64_t>(VS) - 1);
    MReg Acc = NoReg;
    for (uint32_t A : I.GuardArgs) {
      MReg Bits = alu(Opcode::And, ScalarKind::I64, false,
                      {baseOf(A), Mask});
      Acc = Acc == NoReg
                ? Bits
                : alu(Opcode::Or, ScalarKind::I64, false, {Acc, Bits});
    }
    MReg Zero = ldImm(0);
    return {alu(Opcode::CmpEQ, ScalarKind::I64, false, {Acc, Zero})};
  }
  case GuardKind::TypeSupported:
  case GuardKind::PreferOuterLoop:
    // Always folded in foldGuards(); reaching here means the guard's if
    // was live with a folded condition value used elsewhere.
    assert(folded(I.Result) && "type and cost-model guards always fold");
    return {ldImm(*folded(I.Result) ? 1 : 0, ScalarKind::I1)};
  case GuardKind::None:
    break;
  }
  vapor_unreachable("guard without kind reached emission");
}

} // namespace

CompileResult jit::compile(const Function &F, const TargetDesc &T,
                           const RuntimeInfo &RT, const Options &Opt) {
  obs::Span S("jit", "compile");
  S.arg("function", F.Name);
  S.arg("target", T.Name);
  S.arg("tier", Opt.CompilerTier == Tier::Strong ? "strong" : "weak");
  CompileResult R = JitCompiler(F, T, RT, Opt).run();
  static obs::Counter Compiles("jit.compiles");
  static obs::Counter Scalarized("jit.scalarized");
  Compiles.add(1);
  if (R.Scalarized)
    Scalarized.add(1);
  S.arg("scalarized", R.Scalarized);
  S.arg("mem_aligned", static_cast<uint64_t>(R.Strategy.MemAligned));
  S.arg("mem_unaligned", static_cast<uint64_t>(R.Strategy.MemUnaligned));
  S.arg("mem_perm", static_cast<uint64_t>(R.Strategy.MemPerm));
  S.arg("mem_scalar", static_cast<uint64_t>(R.Strategy.MemScalar));
  S.arg("guards_runtime", static_cast<uint64_t>(R.Strategy.GuardsRuntime));
  return R;
}

Expected<CompileResult> jit::compileChecked(const Function &F,
                                            const TargetDesc &T,
                                            const RuntimeInfo &RT,
                                            const Options &Opt) {
  if (faultinject::shouldFire(faultinject::SiteClass::JitLower))
    return Status::error(status::Code::UnsupportedIdiom, status::Layer::Jit,
                         "fault-injection: forced unsupported-idiom failure "
                         "lowering " + F.Name + " for " + T.Name);
  return compile(F, T, RT, Opt);
}
