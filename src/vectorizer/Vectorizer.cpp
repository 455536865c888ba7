//===- vectorizer/Vectorizer.cpp - Offline auto-vectorizer -----------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// Structure: VectorizerImpl clones the source function region by region.
// When it reaches an innermost loop it runs planInnerLoop(); if the plan is
// viable it emits the vectorized form (optionally versioned on alignment),
// otherwise it clones the loop unchanged and records why.
//
// The emitted shape for one vectorized loop (paper Sec. III-B/III-C):
//
//   [guard = version_guard(bases_aligned, arrays)]      ; if versioning
//   if guard {                                          ;
//     vf = get_VF(minKind); <splats>; <reduction init>
//     loop i = [lo, mainEnd) step vf  { ...vector body, aligned hints... }
//     <reduction finalize>
//     loop i = [mainEnd, hi) step 1   { ...scalar epilogue... }
//   } else {
//     vf = get_VF(minKind); <splats>
//     peelN  = loop_bound(min((AL - get_misalign(store)) % AL, hi-lo), 0)
//     loop i = [lo, lo+peelN) step 1  { ...scalar peel... }
//     <reduction init from peel>
//     loop i = [peelEnd, mainEnd) step vf { ...vector body, null hints... }
//     <reduction finalize>
//     loop i = [mainEnd, hi) step 1   { ...scalar epilogue... }
//   }
//
// Misaligned (or unknown-alignment) contiguous loads use the optimized
// realignment scheme of Fig. 3a: a carried aligned chunk, one align_load
// per part per iteration, and realign_load with the mis/mod hints. The
// online compiler reverts this to plain aligned or misaligned loads where
// the target allows, at which point the chain becomes dead code.
//
//===----------------------------------------------------------------------===//

#include "vectorizer/Vectorizer.h"

#include "vectorizer/Reroll.h"

#include "analysis/Affine.h"
#include "analysis/Alignment.h"
#include "analysis/Dependence.h"
#include "analysis/LoopAnalysis.h"
#include "analysis/Reduction.h"
#include "ir/Builder.h"
#include "ir/ScalarOps.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "support/Support.h"

#include <algorithm>
#include <map>
#include <set>

using namespace vapor;
using namespace vapor::vectorizer;
using namespace vapor::analysis;
using namespace vapor::ir;

namespace {

//===--- Planning -------------------------------------------------------------//

struct AccessPlan {
  enum class Kind : uint8_t { Contig, Invariant, Strided } K =
      Kind::Contig;
  int64_t Stride = 1;      ///< Iv coefficient.
  bool OffConst = false;   ///< Offset (index - stride*iv) is a constant.
  int64_t OffElems = 0;    ///< That constant (when OffConst).
  AlignHint Hint;          ///< mis/mod as computed offline.
  int64_t GroupBase = 0;   ///< Strided: offset rounded down to the stride.
  int64_t GroupRes = 0;    ///< Strided: OffElems % Stride.
};

struct RedPlan {
  ReductionInfo Info;
  bool UseDot = false;
  WideningMul Dot; ///< Valid when UseDot.
};

struct LoopPlan {
  bool OK = false;
  std::string Reason;
  ScalarKind MinKind = ScalarKind::None;
  std::set<ValueId> VecValues;
  std::map<uint32_t, AccessPlan> Access; ///< Keyed by instruction index.
  std::set<uint32_t> Fused; ///< Converts/muls folded into widening idioms.
  std::vector<RedPlan> Reds; ///< Parallel to the loop's carried vars.
  bool Versioned = false;
  std::vector<uint32_t> GuardArrays;
  bool Peel = false;
  uint32_t PeelArr = NoArray;
  int64_t PeelOff = 0;
  /// The loop's lower bound when it is a compile-time constant. Access
  /// misalignment is relative to the *first iteration*, so a constant
  /// lower bound folds into every hint and a symbolic one nulls them
  /// (the vector loop then starts at an unknown residue mod VF).
  bool LowerConst = false;
  int64_t LowerVal = 0;
  /// Dependence-distance hint: all carried dependences have |distance|
  /// >= MaxSafeVF >= 2 and the online compiler must keep VF <= it.
  int64_t MaxSafeVF = 0;
  /// Saturating narrow-int ops classified as vector values (the
  /// striped-DP idiom signature; surfaced in the loop's decision record).
  uint32_t SatOps = 0;
};

/// Element kinds eligible as vector data. I64/U64 are excluded: index
/// arithmetic is I64 by IR convention, and no evaluated target vectorizes
/// 64-bit integers (AltiVec has none at all).
bool isVectorizableDataKind(ScalarKind K) {
  switch (K) {
  case ScalarKind::I8:
  case ScalarKind::U8:
  case ScalarKind::I16:
  case ScalarKind::U16:
  case ScalarKind::I32:
  case ScalarKind::U32:
  case ScalarKind::F32:
  case ScalarKind::F64:
    return true;
  default:
    return false;
  }
}

//===--- The vectorizer -------------------------------------------------------//

class VectorizerImpl {
public:
  VectorizerImpl(const Function &Source, const Options &Options_,
                 std::set<uint32_t> RerolledLoops)
      : Src(Source), Opt(Options_), Rerolled(std::move(RerolledLoops)),
        Out(Source.Name), B(Out), AA(Source), Nest(Source) {}

  Result run() {
    Out.IsSplitLayer = true;
    for (const ArrayInfo &A : Src.Arrays)
      Out.addArray(A.Name, A.Elem, A.NumElems, A.BaseAlign);
    for (ValueId P : Src.Params)
      VMap[P] = Out.addParam(Src.Values[P].Name, Src.typeOf(P));
    cloneRegion(Src.Body, /*TryVectorize=*/true);
    verifyOrDie(Out);
    Result R{std::move(Out), std::move(Reports)};
    return R;
  }

private:
  const Function &Src;
  Options Opt;
  std::set<uint32_t> Rerolled;
  Function Out;
  IrBuilder B;
  AffineAnalysis AA;
  LoopNestInfo Nest;
  std::map<ValueId, ValueId> VMap; ///< Source value -> output value.
  std::vector<LoopReport> Reports;

  ValueId mapped(ValueId V) const {
    auto It = VMap.find(V);
    assert(It != VMap.end() && "source value not yet cloned");
    return It->second;
  }

  //===--- Generic cloning ----------------------------------------------===//

  void cloneRegion(const Region &R, bool TryVectorize) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        cloneInstr(Src.Instrs[N.Index]);
        break;
      case NodeKind::Loop:
        cloneOrVectorizeLoop(N.Index, TryVectorize);
        break;
      case NodeKind::If: {
        const IfStmt &S = Src.Ifs[N.Index];
        uint32_t NewIf = B.beginIf(mapped(S.Cond));
        cloneRegion(S.Then, TryVectorize);
        B.beginElse(NewIf);
        cloneRegion(S.Else, TryVectorize);
        B.endIf(NewIf);
        break;
      }
      }
    }
  }

  void cloneInstr(const Instr &I) {
    Instr C = I;
    for (ValueId &Op : C.Ops)
      Op = mapped(Op);
    C.Result = NoValue; // emit() recreates result bookkeeping.
    ValueId NewRes = B.emit(std::move(C));
    if (I.hasResult())
      VMap[I.Result] = NewRes;
  }

  /// Clones a loop verbatim (recursing with vectorization enabled for
  /// inner loops when \p TryVectorize).
  void cloneLoopVerbatim(uint32_t LoopIdx, bool TryVectorize) {
    const LoopStmt &L = Src.Loops[LoopIdx];
    auto H = B.beginLoop(mapped(L.Lower), mapped(L.Upper), mapped(L.Step),
                         L.Role);
    VMap[L.IndVar] = H.indVar();
    for (const auto &C : L.Carried)
      VMap[C.Phi] = B.addCarried(H, mapped(C.Init));
    cloneRegion(L.Body, TryVectorize);
    for (const auto &C : L.Carried) {
      B.setCarriedNext(H, mapped(C.Phi), mapped(C.Next));
      VMap[C.Result] = B.carriedResult(H, mapped(C.Phi));
    }
    B.endLoop(H);
  }

  /// Clones the body of source loop \p LoopIdx as a scalar loop over
  /// [Lower, Upper) step 1, with carried variables initialized from
  /// \p CarriedInits. \returns the carried results (parallel to Carried).
  std::vector<ValueId> emitScalarCopy(uint32_t LoopIdx, ValueId Lower,
                                      ValueId Upper,
                                      const std::vector<ValueId> &CarriedInits,
                                      LoopRole Role) {
    const LoopStmt &L = Src.Loops[LoopIdx];
    auto H = B.beginLoop(Lower, Upper, B.constIdx(1), Role);
    VMap[L.IndVar] = H.indVar();
    for (size_t C = 0; C < L.Carried.size(); ++C)
      VMap[L.Carried[C].Phi] = B.addCarried(H, CarriedInits[C]);
    cloneRegion(L.Body, /*TryVectorize=*/false);
    std::vector<ValueId> Results;
    for (const auto &C : L.Carried) {
      B.setCarriedNext(H, mapped(C.Phi), mapped(C.Next));
      Results.push_back(B.carriedResult(H, mapped(C.Phi)));
    }
    B.endLoop(H);
    return Results;
  }

  /// Clones the pure scalar expression tree rooted at source value \p V,
  /// with leaf substitutions from \p Subst (falling back to VMap).
  ValueId cloneExpr(ValueId V, const std::map<ValueId, ValueId> &Subst) {
    auto It = Subst.find(V);
    if (It != Subst.end())
      return It->second;
    const ValueInfo &VI = Src.Values[V];
    if (VI.Def != ValueDef::Instr)
      return mapped(V);
    const Instr &I = Src.Instrs[VI.A];
    Instr C = I;
    C.Result = NoValue;
    for (ValueId &Op : C.Ops)
      Op = cloneExpr(Op, Subst);
    return B.emit(std::move(C));
  }

  //===--- Loop planning ------------------------------------------------===//

  void cloneOrVectorizeLoop(uint32_t LoopIdx, bool TryVectorize) {
    LoopReport Report;
    Report.SrcLoop = LoopIdx;
    if (!TryVectorize) {
      cloneLoopVerbatim(LoopIdx, false);
      return;
    }
    if (!Nest.isInnermost(LoopIdx)) {
      if (tryOuterLoop(LoopIdx, Report)) {
        Reports.push_back(Report);
        return;
      }
      if (Report.Reason.empty())
        Report.Reason = "not innermost (outer-loop strategy not viable)";
      Reports.push_back(Report);
      cloneLoopVerbatim(LoopIdx, true);
      return;
    }
    LoopPlan Plan = planInnerLoop(LoopIdx);
    if (!Plan.OK) {
      Report.Reason = Plan.Reason;
      Reports.push_back(Report);
      cloneLoopVerbatim(LoopIdx, true);
      return;
    }
    emitVectorizedLoop(LoopIdx, Plan);
    Report.Vectorized = true;
    Report.Strategy = Rerolled.count(LoopIdx) ? "slp" : "inner";
    recordPlan(Report, Plan);
    Reports.push_back(Report);
  }

  /// Copies the plan's decisions into the loop's decision record.
  static void recordPlan(LoopReport &Report, const LoopPlan &Plan) {
    Report.Versioned = Plan.Versioned;
    Report.Peeled = Plan.Peel;
    Report.MaxSafeVF = Plan.MaxSafeVF;
    Report.Reductions = static_cast<uint32_t>(Plan.Reds.size());
    for (const RedPlan &RP : Plan.Reds)
      Report.MaxReductions += RP.Info.Kind == ReductionKind::Max;
    Report.SatOps = Plan.SatOps;
    Report.MinElemBytes =
        Plan.MinKind == ScalarKind::None ? 0 : scalarSize(Plan.MinKind);
  }

  LoopPlan planInnerLoop(uint32_t LoopIdx) {
    const LoopStmt &L = Src.Loops[LoopIdx];
    LoopPlan P;
    auto Fail = [&](const std::string &Why) {
      P.OK = false;
      P.Reason = Why;
      return P;
    };

    const AffineExpr &Step = AA.of(L.Step);
    if (!Step.isConstant() || Step.Const != 1)
      return Fail("loop step is not 1");
    const AffineExpr &LowerE = AA.of(L.Lower);
    P.LowerConst = LowerE.isConstant();
    P.LowerVal = LowerE.Const;
    // Re-rolled (SLP) loops may be configured without alignment
    // versioning, matching the era's native SLP behaviour.
    bool AlignOpts = Opt.EnableAlignmentOpts &&
                     (!Rerolled.count(LoopIdx) ||
                      Opt.SLPAlignmentVersioning);

    // Body must be straight-line.
    for (const NodeRef &N : L.Body.Nodes)
      if (N.Kind != NodeKind::Instr)
        return Fail("loop body has control flow");

    // Dependences. Unknown distances are conservatively rejected (the
    // paper's implemented policy). Constant carried distances >= 2 are
    // admitted through the dependence-distance hint extension the paper
    // describes (Sec. III-B(b)): the loop is vectorized with a max_safe_vf
    // annotation and the online compiler scalarizes when its VF is wider.
    DependenceResult Deps = analyzeDependences(Src, AA, Nest, LoopIdx);
    if (!Deps.Vectorizable) {
      int64_t MinDist = INT64_MAX;
      for (const DepPair &DP : Deps.Blockers) {
        if (DP.Kind != DepKind::Carried)
          return Fail("blocking data dependence (unknown distance)");
        int64_t D = DP.Distance < 0 ? -DP.Distance : DP.Distance;
        if (D < 2)
          return Fail("loop-carried dependence of distance " +
                      std::to_string(D));
        MinDist = std::min(MinDist, D);
      }
      P.MaxSafeVF = MinDist;
      // Keep hinted loops free of carried variables: their lane layout is
      // decided per target by the online compiler, so no value may escape
      // the loop (reduction results would).
      if (!L.Carried.empty())
        return Fail("dependence-hinted loop with carried variables");
    }

    // Reductions.
    for (uint32_t C = 0; C < L.Carried.size(); ++C) {
      auto Red = matchReduction(Src, LoopIdx, C);
      if (!Red)
        return Fail("loop-carried variable is not a recognized reduction");
      if (!isVectorizableDataKind(Src.typeOf(L.Carried[C].Phi).Elem))
        return Fail("reduction on a non-vectorizable kind");
      RedPlan RP;
      RP.Info = *Red;
      P.Reds.push_back(RP);
    }

    // Classify values: loads and reduction phis seed the vector set, and
    // vectorness propagates through operands.
    for (const auto &C : L.Carried)
      P.VecValues.insert(C.Phi);
    for (const NodeRef &N : L.Body.Nodes) {
      const Instr &I = Src.Instrs[N.Index];
      bool Vec = I.Op == Opcode::Load;
      unsigned FirstDataOp = 0;
      if (I.Op == Opcode::Load || I.Op == Opcode::Store)
        FirstDataOp = 1; // Skip the index operand.
      for (unsigned OpIdx = FirstDataOp; OpIdx < I.Ops.size(); ++OpIdx)
        Vec |= P.VecValues.count(I.Ops[OpIdx]) != 0;
      if (!Vec)
        continue;
      if (I.hasResult()) {
        ScalarKind RK = I.Ty.Elem;
        if (RK != ScalarKind::I1 && !isVectorizableDataKind(RK))
          return Fail("vector value of unsupported kind " +
                      std::string(scalarKindName(RK)));
        P.VecValues.insert(I.Result);
      }
      // Opcode restrictions for vector emission.
      switch (I.Op) {
      case Opcode::AddSatS:
      case Opcode::AddSatU:
      case Opcode::SubSatS:
      case Opcode::SubSatU:
        ++P.SatOps;
        break;
      case Opcode::Rem:
        return Fail("vector integer remainder is not supported");
      case Opcode::Div:
        if (!isFloatKind(I.Ty.Elem))
          return Fail("vector integer division is not supported");
        break;
      default:
        break;
      }
      // Data operands must be data-kinded (an I64 index value flowing into
      // a vector op means the induction variable is used as data).
      for (unsigned OpIdx = FirstDataOp; OpIdx < I.Ops.size(); ++OpIdx) {
        Type OT = Src.typeOf(I.Ops[OpIdx]);
        if (OT.Elem != ScalarKind::I1 && !isVectorizableDataKind(OT.Elem))
          return Fail("index-kind value used as vector data");
      }
    }

    // The reduction update must be a vector op.
    for (const RedPlan &RP : P.Reds)
      if (!P.VecValues.count(L.Carried[RP.Info.CarriedIdx].Next))
        return Fail("reduction update is not vectorizable");

    // Smallest data kind determines the symbolic VF.
    unsigned MinSize = 16;
    for (ValueId V : P.VecValues) {
      ScalarKind K = Src.typeOf(V).Elem;
      if (K == ScalarKind::I1)
        continue;
      MinSize = std::min(MinSize, scalarSize(K));
    }
    if (MinSize == 16)
      return Fail("no vector data in loop");
    if (P.MaxSafeVF > 0 && MinSize < 4)
      return Fail("dependence-hinted loop with sub-word data");
    for (ScalarKind K : {ScalarKind::I8, ScalarKind::U8, ScalarKind::I16,
                         ScalarKind::U16, ScalarKind::I32, ScalarKind::U32,
                         ScalarKind::F32, ScalarKind::F64})
      if (scalarSize(K) == MinSize)
        P.MinKind = K;

    // Access plans.
    std::map<uint32_t, std::map<int64_t, std::set<int64_t>>> StrideStores;
    for (const NodeRef &N : L.Body.Nodes) {
      const Instr &I = Src.Instrs[N.Index];
      if (I.Op != Opcode::Load && I.Op != Opcode::Store)
        continue;
      AccessShape S = accessShape(Src, AA, Nest, LoopIdx, I.Ops[0]);
      AccessPlan AP;
      AP.Stride = S.IvCoeff;
      AP.OffConst = S.OffsetConst;
      AP.OffElems = S.OffsetElems;
      if (S.IvCoeff == 0) {
        if (I.Op == Opcode::Store)
          return Fail("store with loop-invariant address");
        if (!S.OffsetInvariant)
          return Fail("invariant load with loop-variant index");
        AP.K = AccessPlan::Kind::Invariant;
      } else if (S.IvCoeff == 1) {
        AP.K = AccessPlan::Kind::Contig;
        if (!S.OffsetInvariant)
          return Fail("contiguous access with loop-variant offset");
        AccessShape Adjusted = S;
        // Misalignment is relative to the first executed index.
        if (P.LowerConst) {
          Adjusted.OffsetElems += P.LowerVal;
        } else {
          // Unknown starting residue: poison the shape so the hint nulls.
          Adjusted.OffsetConst = false;
          Adjusted.OffsetTerms[Src.Loops[LoopIdx].Lower] = 1;
        }
        AP.Hint = AlignOpts ? alignmentOf(Src, I.Array, Adjusted).Hint
                            : AlignHint{-1, 0, false};
      } else if (S.IvCoeff >= 2 && S.IvCoeff <= 4 && S.OffsetConst) {
        // Strided access: only for the smallest kind (single part).
        if (scalarSize(Src.Arrays[I.Array].Elem) != MinSize)
          return Fail("strided access on a wide kind");
        AP.K = AccessPlan::Kind::Strided;
        AP.GroupRes = ((S.OffsetElems % S.IvCoeff) + S.IvCoeff) % S.IvCoeff;
        AP.GroupBase = S.OffsetElems - AP.GroupRes;
        if (I.Op == Opcode::Store) {
          if (S.IvCoeff != 2)
            return Fail("strided stores only supported for stride 2");
          StrideStores[I.Array][AP.GroupBase].insert(AP.GroupRes);
        }
      } else {
        return Fail("unsupported access pattern");
      }
      P.Access[N.Index] = AP;
    }

    // Stride-2 store groups must cover both residues.
    for (const auto &[Arr, Groups] : StrideStores) {
      (void)Arr;
      for (const auto &[Base, Residues] : Groups) {
        (void)Base;
        if (Residues.size() != 2)
          return Fail("incomplete strided store group");
      }
    }

    // Widening idiom formation: dot_product for plus-reductions over a
    // widening multiplication; widen_mult elsewhere. The converts (and for
    // dot the multiply) are "fused": not emitted on their own.
    for (RedPlan &RP : P.Reds) {
      if (RP.Info.Kind != ReductionKind::Plus)
        continue;
      auto WM = matchWideningMul(Src, RP.Info.Contribution);
      if (!WM)
        continue;
      const ValueInfo &MulInfo = Src.Values[RP.Info.Contribution];
      const Instr &Mul = Src.Instrs[MulInfo.A];
      // Contribution and its converts must be single-use to fuse.
      if (countUses(Src, L.Body, RP.Info.Contribution) != 1 ||
          countUses(Src, L.Body, Mul.Ops[0]) != 1 ||
          countUses(Src, L.Body, Mul.Ops[1]) != 1)
        continue;
      RP.UseDot = true;
      RP.Dot = *WM;
      P.Fused.insert(MulInfo.A);
      P.Fused.insert(Src.Values[Mul.Ops[0]].A);
      P.Fused.insert(Src.Values[Mul.Ops[1]].A);
    }
    for (const NodeRef &N : L.Body.Nodes) {
      const Instr &I = Src.Instrs[N.Index];
      if (I.Op != Opcode::Mul || !I.hasResult() || P.Fused.count(N.Index) ||
          !P.VecValues.count(I.Result))
        continue;
      auto WM = matchWideningMul(Src, I.Result);
      if (!WM)
        continue;
      if (countUses(Src, L.Body, I.Ops[0]) != 1 ||
          countUses(Src, L.Body, I.Ops[1]) != 1)
        continue;
      // widen_mult: fuse the converts, keep the multiply (it becomes the
      // widen_mult_lo/hi pair).
      P.Fused.insert(Src.Values[I.Ops[0]].A);
      P.Fused.insert(Src.Values[I.Ops[1]].A);
    }

    // Versioning: needed when the alignment hints depend on runtime base
    // alignment (some hinted array has unknown base alignment). Only
    // arrays whose accesses carry a useful hint go into the guard: an
    // access whose misalignment stays symbolic (nulled hint, e.g. a
    // striped-DP row at a runtime offset) is emitted through the
    // realignment chain in both versions, so guarding its base would add
    // a runtime check that no downstream obligation consumes.
    if (AlignOpts) {
      std::set<uint32_t> HintedArrays;
      for (const auto &[InstrIdx, AP] : P.Access)
        if (AP.Hint.Mod != 0 || AP.K == AccessPlan::Kind::Strided)
          HintedArrays.insert(Src.Instrs[InstrIdx].Array);
      bool AnyUnknownBase = false;
      for (uint32_t Arr : HintedArrays)
        if (Src.Arrays[Arr].BaseAlign < AlignModBytes)
          AnyUnknownBase = true;
      if (AnyUnknownBase) {
        P.Versioned = true;
        P.GuardArrays.assign(HintedArrays.begin(), HintedArrays.end());
      }
      // Peeling (fall-back path): single store array with one constant
      // offset class.
      std::set<uint32_t> StoreArrays;
      std::set<int64_t> StoreOffs;
      bool PeelEligible = true;
      for (const auto &[InstrIdx, AP] : P.Access) {
        const Instr &I = Src.Instrs[InstrIdx];
        if (I.Op != Opcode::Store)
          continue;
        if (AP.K != AccessPlan::Kind::Contig || !AP.OffConst)
          PeelEligible = false;
        StoreArrays.insert(I.Array);
        StoreOffs.insert(AP.OffElems);
      }
      if (PeelEligible && StoreArrays.size() == 1 && StoreOffs.size() == 1) {
        P.Peel = true;
        P.PeelArr = *StoreArrays.begin();
        P.PeelOff = *StoreOffs.begin();
      }
    }

    P.OK = true;
    return P;
  }


  //===--- Vectorized emission ------------------------------------------===//

  /// Per-version emission state.
  struct VecCtx {
    bool Hinted = false; ///< Version A: hints valid (bases aligned).
    bool AlignedBases = false; ///< Bases known VS-aligned in this version.
    bool PeelActive = false; ///< A peel loop aligned the store array.
    ValueId MainLower = NoValue;
    ValueId NewIv = NoValue;
    std::map<ScalarKind, ValueId> VF;
    std::map<ValueId, std::vector<ValueId>> Parts;
    std::map<ValueId, ValueId> Splats;
    /// Realignment chains: per load instruction, the carried chunk.
    struct Chain {
      ValueId Phi = NoValue;
      ValueId RT = NoValue;
      ValueId LastChunk = NoValue; ///< Next value for the carried chunk.
    };
    std::map<uint32_t, Chain> Chains;
    /// Strided-load chunk memo for the current iteration:
    /// (array, stride, groupBase) -> chunk vectors.
    std::map<std::tuple<uint32_t, int64_t, int64_t>, std::vector<ValueId>>
        StridedChunks;
    /// Pending strided stores: (array, groupBase) -> residue -> value.
    std::map<std::pair<uint32_t, int64_t>, std::map<int64_t, ValueId>>
        PendingStridedStores;
  };

  unsigned partCount(ScalarKind K, ScalarKind MinKind) const {
    return scalarSize(K) / scalarSize(MinKind);
  }

  ValueId vfOf(VecCtx &C, ScalarKind K) {
    auto It = C.VF.find(K);
    if (It != C.VF.end())
      return It->second;
    return C.VF[K] = B.getVF(K);
  }

  /// The effective hint for this version: version A keeps the computed
  /// hints (the guard guarantees base alignment); version B and the
  /// ablation run with nulled hints.
  AlignHint effectiveHint(const VecCtx &C, const AlignHint &H) const {
    if (!C.Hinted)
      return AlignHint{-1, 0, false};
    AlignHint R = H;
    R.IfJitAligns = false; // The guard subsumes the condition.
    return R;
  }

  void emitVectorizedLoop(uint32_t LoopIdx, LoopPlan &Plan) {
    const LoopStmt &L = Src.Loops[LoopIdx];

    if (!Plan.Versioned) {
      VecCtx C;
      C.Hinted = Opt.EnableAlignmentOpts;
      C.AlignedBases = C.Hinted; // All bases statically >= 32-aligned.
      std::vector<ValueId> Results =
          emitOneVersion(LoopIdx, Plan, C, /*WithPeel=*/false);
      for (size_t I = 0; I < L.Carried.size(); ++I)
        VMap[L.Carried[I].Result] = Results[I];
      return;
    }

    // Versioned: guarded fast path with aligned hints, fall-back with
    // nulled hints (paper Sec. III-B(c)). Results flow through scratch
    // slots because the two arms define different values.
    std::vector<uint32_t> Scratch;
    for (size_t I = 0; I < L.Carried.size(); ++I)
      Scratch.push_back(Out.addArray("__vt" + std::to_string(LoopIdx) + "_" +
                                         std::to_string(I),
                                     Src.typeOf(L.Carried[I].Phi).Elem, 1,
                                     32));

    ValueId Guard =
        B.versionGuard(GuardKind::BasesAligned, Plan.GuardArrays);
    uint32_t IfIdx = B.beginIf(Guard);
    {
      VecCtx CA;
      CA.Hinted = true;
      CA.AlignedBases = true;
      std::vector<ValueId> R =
          emitOneVersion(LoopIdx, Plan, CA, /*WithPeel=*/false);
      for (size_t I = 0; I < R.size(); ++I)
        B.store(Scratch[I], B.constIdx(0), R[I]);
    }
    B.beginElse(IfIdx);
    {
      VecCtx CB;
      CB.Hinted = false;
      CB.AlignedBases = false;
      std::vector<ValueId> R =
          emitOneVersion(LoopIdx, Plan, CB, /*WithPeel=*/Plan.Peel);
      for (size_t I = 0; I < R.size(); ++I)
        B.store(Scratch[I], B.constIdx(0), R[I]);
    }
    B.endIf(IfIdx);

    for (size_t I = 0; I < L.Carried.size(); ++I)
      VMap[L.Carried[I].Result] = B.load(Scratch[I], B.constIdx(0));
  }

  /// Emits preheader + (peel) + vector main loop + reduction finalize +
  /// scalar epilogue for one version. \returns the final scalar values of
  /// the carried variables.
  std::vector<ValueId> emitOneVersion(uint32_t LoopIdx, LoopPlan &Plan,
                                      VecCtx &C, bool WithPeel) {
    const LoopStmt &L = Src.Loops[LoopIdx];
    ValueId Lower = mapped(L.Lower);
    ValueId Upper = mapped(L.Upper);
    ValueId VFMin = vfOf(C, Plan.MinKind);

    // Invariant splats for every out-of-loop data operand.
    emitInvariantSplats(LoopIdx, Plan, C);

    // Scalar peel loop (fall-back path): aligns the store array.
    std::vector<ValueId> CarriedAfterPeel;
    for (const auto &CV : L.Carried)
      CarriedAfterPeel.push_back(mapped(CV.Init));
    ValueId MainLower = Lower;
    if (WithPeel && Plan.Peel) {
      ValueId AL = B.getAlignLimit(Src.Arrays[Plan.PeelArr].Elem);
      ValueId Mis = B.getMisalign(Plan.PeelArr, Plan.PeelOff);
      // The first store lands at element Lower + PeelOff: fold the lower
      // bound into the misalignment before sizing the peel.
      ValueId MisTot = B.rem(B.add(Mis, Lower), AL);
      ValueId RawPeel = B.rem(B.sub(AL, MisTot), AL);
      ValueId Span = B.sub(Upper, Lower);
      ValueId PeelN = B.smin(RawPeel, B.smax(Span, B.constIdx(0)));
      ValueId PeelBound = B.loopBound(PeelN, B.constIdx(0));
      ValueId PeelEnd = B.add(Lower, PeelBound);
      CarriedAfterPeel = emitScalarCopy(LoopIdx, Lower, PeelEnd,
                                        CarriedAfterPeel, LoopRole::Peel);
      MainLower = PeelEnd;
      C.PeelActive = true;
    }
    C.MainLower = MainLower;

    // Main bound: lower + floor((upper-lower)/vf)*vf.
    ValueId Span = B.smax(B.sub(Upper, MainLower), B.constIdx(0));
    ValueId MainEnd =
        B.add(MainLower, B.mul(B.div(Span, VFMin), VFMin));

    // Reduction accumulator initialization.
    std::vector<std::vector<ValueId>> AccInit(L.Carried.size());
    for (const RedPlan &RP : Plan.Reds) {
      const auto &CV = L.Carried[RP.Info.CarriedIdx];
      ScalarKind PhiK = Src.typeOf(CV.Phi).Elem;
      ValueId InitScalar = CarriedAfterPeel[RP.Info.CarriedIdx];
      ValueId Ident = identityValue(RP.Info.Kind, PhiK);
      unsigned NParts = RP.UseDot ? partCount(RP.Dot.NarrowKind, Plan.MinKind)
                                  : partCount(PhiK, Plan.MinKind);
      std::vector<ValueId> Parts;
      Parts.push_back(B.initReduc(InitScalar, Ident));
      for (unsigned PIdx = 1; PIdx < NParts; ++PIdx)
        Parts.push_back(B.initUniform(Ident));
      AccInit[RP.Info.CarriedIdx] = std::move(Parts);
    }

    // Realignment chain preheaders (rt + first chunk) for loads that are
    // not known-aligned.
    prepareChains(LoopIdx, Plan, C, MainLower);

    // --- Main vector loop ---
    auto H = B.beginLoop(MainLower, MainEnd, VFMin, LoopRole::VecMain);
    Out.Loops[H.LoopIdx].MaxSafeVF = Plan.MaxSafeVF;
    C.NewIv = H.indVar();
    VMap[L.IndVar] = H.indVar();

    // Carried accumulators.
    std::vector<std::vector<ValueId>> AccPhi(L.Carried.size());
    for (size_t CI = 0; CI < L.Carried.size(); ++CI) {
      for (ValueId Init : AccInit[CI])
        AccPhi[CI].push_back(B.addCarried(H, Init));
      if (!AccInit[CI].empty())
        C.Parts[L.Carried[CI].Phi] = AccPhi[CI];
    }
    // Carried realignment chunks (not in dependence-hinted loops).
    for (auto &[InstrIdx, Chain] : C.Chains) {
      (void)InstrIdx;
      if (Chain.Phi != NoValue)
        Chain.Phi = B.addCarried(H, Chain.Phi);
    }

    emitVectorBody(LoopIdx, Plan, C);

    for (size_t CI = 0; CI < L.Carried.size(); ++CI) {
      const auto &NextParts = C.Parts[L.Carried[CI].Next];
      for (size_t PIdx = 0; PIdx < AccPhi[CI].size(); ++PIdx)
        B.setCarriedNext(H, AccPhi[CI][PIdx], NextParts[PIdx]);
    }
    for (auto &[InstrIdx, Chain] : C.Chains) {
      (void)InstrIdx;
      if (Chain.Phi != NoValue)
        B.setCarriedNext(H, Chain.Phi, Chain.LastChunk);
    }

    std::vector<std::vector<ValueId>> AccOut(L.Carried.size());
    for (size_t CI = 0; CI < L.Carried.size(); ++CI)
      for (ValueId Phi : AccPhi[CI])
        AccOut[CI].push_back(B.carriedResult(H, Phi));
    B.endLoop(H);

    // Reduction finalization: combine parts, then horizontal reduce.
    std::vector<ValueId> AfterMain = CarriedAfterPeel;
    for (const RedPlan &RP : Plan.Reds) {
      size_t CI = RP.Info.CarriedIdx;
      Opcode Comb = RP.Info.Kind == ReductionKind::Plus
                        ? Opcode::Add
                        : (RP.Info.Kind == ReductionKind::Min ? Opcode::Min
                                                              : Opcode::Max);
      Opcode RedOp = RP.Info.Kind == ReductionKind::Plus
                         ? Opcode::ReducPlus
                         : (RP.Info.Kind == ReductionKind::Min
                                ? Opcode::ReducMin
                                : Opcode::ReducMax);
      ValueId Acc = AccOut[CI][0];
      for (size_t PIdx = 1; PIdx < AccOut[CI].size(); ++PIdx)
        Acc = B.binop(Comb, Acc, AccOut[CI][PIdx]);
      AfterMain[CI] = B.reduc(RedOp, Acc);
    }

    // --- Scalar epilogue ---
    std::vector<ValueId> Final =
        emitScalarCopy(LoopIdx, MainEnd, Upper, AfterMain,
                       LoopRole::Epilogue);
    return Final;
  }

  ValueId identityValue(ReductionKind K, ScalarKind Kind) {
    if (isFloatKind(Kind)) {
      double V = 0;
      if (K == ReductionKind::Min)
        V = Kind == ScalarKind::F32 ? 3.4e38 : 1.7e308;
      else if (K == ReductionKind::Max)
        V = Kind == ScalarKind::F32 ? -3.4e38 : -1.7e308;
      return B.constFP(Kind, V);
    }
    int64_t V = 0;
    unsigned Bits = scalarSize(Kind) * 8;
    if (K == ReductionKind::Min)
      V = isSignedKind(Kind) ? (int64_t(1) << (Bits - 1)) - 1
                             : static_cast<int64_t>(laneMask(Kind));
    else if (K == ReductionKind::Max)
      V = isSignedKind(Kind) ? -(int64_t(1) << (Bits - 1)) : 0;
    return B.constInt(Kind, V);
  }

  /// Emits init_uniform splats in the preheader for every loop-invariant
  /// value consumed by a vector operation.
  void emitInvariantSplats(uint32_t LoopIdx, LoopPlan &Plan, VecCtx &C) {
    const LoopStmt &L = Src.Loops[LoopIdx];
    for (const NodeRef &N : L.Body.Nodes) {
      const Instr &I = Src.Instrs[N.Index];
      if (Plan.Fused.count(N.Index))
        continue;
      bool IsVec = (I.hasResult() && Plan.VecValues.count(I.Result)) ||
                   (I.Op == Opcode::Store &&
                    Plan.Access.count(N.Index));
      if (!IsVec)
        continue;
      unsigned FirstDataOp =
          (I.Op == Opcode::Load || I.Op == Opcode::Store) ? 1 : 0;
      for (unsigned OpIdx = FirstDataOp; OpIdx < I.Ops.size(); ++OpIdx) {
        ValueId Op = I.Ops[OpIdx];
        if (Plan.VecValues.count(Op) || C.Splats.count(Op))
          continue;
        if (Nest.definesValue(LoopIdx, Op)) {
          // Defined in the loop but not a vector value: it must be a
          // fused convert input handled elsewhere; skip here.
          continue;
        }
        C.Splats[Op] = B.initUniform(mapped(Op));
      }
    }
  }

  /// \returns the vector parts of source data value \p V (splatting
  /// invariants on demand — the splat was pre-created in the preheader).
  const std::vector<ValueId> &partsOf(LoopPlan &Plan, VecCtx &C, ValueId V) {
    auto It = C.Parts.find(V);
    if (It != C.Parts.end())
      return It->second;
    auto SIt = C.Splats.find(V);
    ValueId Splat;
    if (SIt != C.Splats.end()) {
      Splat = SIt->second;
    } else {
      // Uniform value first seen inside the body (typically a constant
      // cloned in place): splat it here; the online compiler hoists
      // loop-invariant initializations.
      Splat = C.Splats[V] = B.initUniform(mapped(V));
    }
    unsigned N = partCount(Src.typeOf(V).Elem, Plan.MinKind);
    return C.Parts[V] = std::vector<ValueId>(N, Splat);
  }

  /// Preheader part of the realignment scheme: get_rt and the initial
  /// aligned chunk for every contiguous load that is not known-aligned.
  void prepareChains(uint32_t LoopIdx, LoopPlan &Plan, VecCtx &C,
                     ValueId MainLower) {
    const LoopStmt &L = Src.Loops[LoopIdx];
    for (const NodeRef &N : L.Body.Nodes) {
      const Instr &I = Src.Instrs[N.Index];
      if (I.Op != Opcode::Load)
        continue;
      auto APIt = Plan.Access.find(N.Index);
      if (APIt == Plan.Access.end() ||
          APIt->second.K != AccessPlan::Kind::Contig)
        continue;
      const AccessPlan &AP = APIt->second;
      AlignHint H = effectiveHint(C, AP.Hint);
      if (isKnownAligned(C, AP))
        continue; // Plain aligned loads; no chain.
      // First access address: index expression with iv := MainLower.
      std::map<ValueId, ValueId> Subst{{L.IndVar, MainLower}};
      ValueId FirstIdx = cloneExpr(I.Ops[0], Subst);
      VecCtx::Chain Chain;
      Chain.RT = B.getRT(I.Array, FirstIdx, H);
      // Loops with carried dependences reload the chunk each iteration:
      // a store from the previous iteration may overlap the cached one.
      if (Plan.MaxSafeVF == 0)
        Chain.Phi = B.alignLoad(I.Array, FirstIdx); // Becomes carried phi.
      C.Chains[N.Index] = Chain;
    }
  }

  /// Known aligned for every legal VS: hint valid and mis == 0, with base
  /// alignment guaranteed in this version.
  bool isKnownAligned(const VecCtx &C, const AccessPlan &AP) const {
    if (!C.AlignedBases)
      return false;
    AlignHint H = effectiveHint(C, AP.Hint);
    return H.known() && H.Mis == 0;
  }

  //===--- Vector body emission ------------------------------------------===//

  void emitVectorBody(uint32_t LoopIdx, LoopPlan &Plan, VecCtx &C) {
    const LoopStmt &L = Src.Loops[LoopIdx];
    C.StridedChunks.clear();
    C.PendingStridedStores.clear();

    for (const NodeRef &N : L.Body.Nodes) {
      const Instr &I = Src.Instrs[N.Index];
      if (Plan.Fused.count(N.Index))
        continue;

      bool IsVec = (I.hasResult() && Plan.VecValues.count(I.Result)) ||
                   (I.Op == Opcode::Store && Plan.Access.count(N.Index));
      if (!IsVec) {
        cloneInstr(I); // Scalar index computation.
        continue;
      }

      switch (I.Op) {
      case Opcode::Load:
        C.Parts[I.Result] = emitLoad(LoopIdx, Plan, C, N.Index, I);
        break;
      case Opcode::Store:
        emitStore(Plan, C, N.Index, I);
        break;
      case Opcode::Convert:
        C.Parts[I.Result] =
            emitConvert(Plan, C, partsOf(Plan, C, I.Ops[0]),
                        Src.typeOf(I.Ops[0]).Elem, I.Ty.Elem);
        break;
      case Opcode::Mul:
        if (emitMaybeWidenMult(Plan, C, N.Index, I))
          break;
        [[fallthrough]];
      default:
        if (emitMaybeDotUpdate(Plan, C, LoopIdx, N.Index, I))
          break;
        emitElementwise(Plan, C, I);
        break;
      }
    }
  }

  std::vector<ValueId> emitLoad(uint32_t LoopIdx, LoopPlan &Plan, VecCtx &C,
                                uint32_t InstrIdx, const Instr &I) {
    (void)LoopIdx;
    const AccessPlan &AP = Plan.Access.at(InstrIdx);
    ScalarKind K = Src.Arrays[I.Array].Elem;
    unsigned NParts = partCount(K, Plan.MinKind);

    switch (AP.K) {
    case AccessPlan::Kind::Invariant: {
      // Uniform value: scalar load + splat.
      ValueId Idx = cloneExpr(I.Ops[0], {});
      ValueId S = B.load(I.Array, Idx);
      return std::vector<ValueId>(NParts, B.initUniform(S));
    }
    case AccessPlan::Kind::Contig: {
      ValueId Idx = mapped(I.Ops[0]); // Cloned earlier in body order.
      AlignHint H = effectiveHint(C, AP.Hint);
      std::vector<ValueId> Parts;
      if (isKnownAligned(C, AP)) {
        // Carry the proving hint as provenance for the static verifier.
        for (unsigned PIdx = 0; PIdx < NParts; ++PIdx)
          Parts.push_back(B.aload(I.Array, partIndex(C, Idx, K, PIdx), H));
        return Parts;
      }
      // Optimized realignment (Fig. 3a): carried chunk + align_load(next)
      // + realign_load per part.
      VecCtx::Chain &Chain = C.Chains.at(InstrIdx);
      ValueId Prev = Chain.Phi != NoValue
                         ? Chain.Phi
                         : B.alignLoad(I.Array, Idx); // Fresh chunk.
      ValueId VFK = vfOf(C, K);
      for (unsigned PIdx = 0; PIdx < NParts; ++PIdx) {
        ValueId PartIdx = partIndex(C, Idx, K, PIdx);
        ValueId NextIdx = B.add(PartIdx, VFK);
        ValueId NextChunk = B.alignLoad(I.Array, NextIdx);
        Parts.push_back(
            B.realignLoad(Prev, NextChunk, Chain.RT, I.Array, PartIdx, H));
        Prev = NextChunk;
      }
      Chain.LastChunk = Prev;
      return Parts;
    }
    case AccessPlan::Kind::Strided: {
      const std::vector<ValueId> &Chunks =
          stridedChunks(Plan, C, I.Array, AP);
      return {B.extract(AP.Stride, AP.GroupRes, Chunks)};
    }
    }
    vapor_unreachable("bad access plan kind");
  }

  /// Element index of part \p PIdx: Idx + PIdx * get_VF(K).
  ValueId partIndex(VecCtx &C, ValueId Idx, ScalarKind K, unsigned PIdx) {
    if (PIdx == 0)
      return Idx;
    ValueId VFK = vfOf(C, K);
    return B.add(Idx, B.mul(B.constIdx(PIdx), VFK));
  }

  /// Chunk loads shared by the strided accesses of one residue group.
  const std::vector<ValueId> &stridedChunks(LoopPlan &Plan, VecCtx &C,
                                            uint32_t Array,
                                            const AccessPlan &AP) {
    auto Key = std::make_tuple(Array, AP.Stride, AP.GroupBase);
    auto It = C.StridedChunks.find(Key);
    if (It != C.StridedChunks.end())
      return It->second;
    ScalarKind K = Src.Arrays[Array].Elem;
    ValueId VFK = vfOf(C, K);
    ValueId Base = B.add(B.mul(C.NewIv, B.constIdx(AP.Stride)),
                         B.constIdx(AP.GroupBase));
    std::vector<ValueId> Chunks;
    bool Aligned =
        C.AlignedBases && Plan.LowerConst &&
        ((AP.Stride * Plan.LowerVal + AP.GroupBase) * scalarSize(K)) %
                AlignModBytes ==
            0;
    for (int64_t J = 0; J < AP.Stride; ++J) {
      ValueId Idx = J == 0 ? Base : B.add(Base, B.mul(B.constIdx(J), VFK));
      Chunks.push_back(Aligned
                           ? B.aload(Array, Idx,
                                     AlignHint{0, AlignModBytes, false})
                           : B.uload(Array, Idx, AlignHint{-1, 0, false}));
    }
    return C.StridedChunks[Key] = Chunks;
  }

  void emitStore(LoopPlan &Plan, VecCtx &C, uint32_t InstrIdx,
                 const Instr &I) {
    const AccessPlan &AP = Plan.Access.at(InstrIdx);
    ScalarKind K = Src.Arrays[I.Array].Elem;
    const std::vector<ValueId> &Vals = partsOf(Plan, C, I.Ops[1]);

    if (AP.K == AccessPlan::Kind::Contig) {
      ValueId Idx = mapped(I.Ops[0]);
      AlignHint H = effectiveHint(C, AP.Hint);
      // Statically known-aligned stores carry the proving hint as
      // provenance; peel-made-aligned stores carry none (their alignment
      // is a dynamic fact about the peel bound, not a static residue).
      bool Known = isKnownAligned(C, AP);
      bool Aligned = Known ||
                     (C.PeelActive && I.Array == Plan.PeelArr &&
                      AP.OffConst && AP.OffElems == Plan.PeelOff);
      for (unsigned PIdx = 0; PIdx < Vals.size(); ++PIdx) {
        ValueId PartIdx = partIndex(C, Idx, K, PIdx);
        if (Aligned)
          B.astore(I.Array, PartIdx, Vals[PIdx],
                   Known ? H : AlignHint{});
        else
          B.ustore(I.Array, PartIdx, Vals[PIdx], H);
      }
      return;
    }

    assert(AP.K == AccessPlan::Kind::Strided && AP.Stride == 2 &&
           "planner admits only stride-2 stores");
    auto Key = std::make_pair(I.Array, AP.GroupBase);
    auto &Pending = C.PendingStridedStores[Key];
    Pending[AP.GroupRes] = Vals[0];
    if (Pending.size() != 2)
      return; // Wait for the partner residue.
    ValueId V0 = Pending.at(0);
    ValueId V1 = Pending.at(1);
    ValueId VFK = vfOf(C, K);
    ValueId Base = B.add(B.mul(C.NewIv, B.constIdx(2)),
                         B.constIdx(AP.GroupBase));
    ValueId Lo = B.interleaveLo(V0, V1);
    ValueId Hi = B.interleaveHi(V0, V1);
    bool Aligned =
        C.AlignedBases && Plan.LowerConst &&
        ((2 * Plan.LowerVal + AP.GroupBase) * scalarSize(K)) %
                AlignModBytes ==
            0;
    if (Aligned) {
      AlignHint H{0, AlignModBytes, false};
      B.astore(I.Array, Base, Lo, H);
      B.astore(I.Array, B.add(Base, VFK), Hi, H);
    } else {
      AlignHint H{-1, 0, false};
      B.ustore(I.Array, Base, Lo, H);
      B.ustore(I.Array, B.add(Base, VFK), Hi, H);
    }
  }

  /// Converts between kinds, possibly across widths (unpack/pack chains).
  std::vector<ValueId> emitConvert(LoopPlan &Plan, VecCtx &C,
                                   std::vector<ValueId> Parts,
                                   ScalarKind From, ScalarKind To) {
    (void)Plan;
    (void)C;
    // Widen step by step: each level doubles the part count.
    while (scalarSize(From) < scalarSize(To)) {
      ScalarKind Mid = widenKind(From);
      std::vector<ValueId> Next;
      for (ValueId P : Parts) {
        Next.push_back(B.unpackLo(P));
        Next.push_back(B.unpackHi(P));
      }
      Parts = std::move(Next);
      From = Mid;
    }
    // Narrow step by step: each level halves the part count (pack pairs).
    while (scalarSize(From) > scalarSize(To)) {
      ScalarKind Mid = narrowKind(From);
      std::vector<ValueId> Next;
      assert(Parts.size() % 2 == 0 && "odd part count while narrowing");
      for (size_t PIdx = 0; PIdx < Parts.size(); PIdx += 2)
        Next.push_back(B.pack(Parts[PIdx], Parts[PIdx + 1]));
      Parts = std::move(Next);
      From = Mid;
    }
    // Same-width kind change (sign or int<->fp).
    if (From != To)
      for (ValueId &P : Parts)
        P = B.convert(To, P);
    return Parts;
  }

  /// widen_mult_lo/hi for a multiply whose converts were fused.
  bool emitMaybeWidenMult(LoopPlan &Plan, VecCtx &C, uint32_t InstrIdx,
                          const Instr &I) {
    (void)InstrIdx;
    auto WM = matchWideningMul(Src, I.Result);
    if (!WM)
      return false;
    // Only if the converts were fused at plan time (single-use check).
    uint32_t CvtA = Src.Values[I.Ops[0]].A;
    uint32_t CvtB = Src.Values[I.Ops[1]].A;
    if (!Plan.Fused.count(CvtA) || !Plan.Fused.count(CvtB))
      return false;
    const auto &PA = partsOf(Plan, C, WM->NarrowA);
    const auto &PB = partsOf(Plan, C, WM->NarrowB);
    std::vector<ValueId> Res;
    for (size_t PIdx = 0; PIdx < PA.size(); ++PIdx) {
      Res.push_back(B.widenMultLo(PA[PIdx], PB[PIdx]));
      Res.push_back(B.widenMultHi(PA[PIdx], PB[PIdx]));
    }
    // The multiply's result kind may differ from widen(narrow) only by a
    // same-width conversion, which matchWideningMul precludes.
    C.Parts[I.Result] = std::move(Res);
    return true;
  }

  /// dot_product for a fused plus-reduction update.
  bool emitMaybeDotUpdate(LoopPlan &Plan, VecCtx &C, uint32_t LoopIdx,
                          uint32_t InstrIdx, const Instr &I) {
    (void)InstrIdx;
    const LoopStmt &L = Src.Loops[LoopIdx];
    for (const RedPlan &RP : Plan.Reds) {
      if (!RP.UseDot)
        continue;
      const auto &CV = L.Carried[RP.Info.CarriedIdx];
      if (!I.hasResult() || I.Result != CV.Next)
        continue;
      const auto &PA = partsOf(Plan, C, RP.Dot.NarrowA);
      const auto &PB = partsOf(Plan, C, RP.Dot.NarrowB);
      const auto &Acc = partsOf(Plan, C, CV.Phi);
      assert(PA.size() == Acc.size() && "dot accumulator shape mismatch");
      std::vector<ValueId> Next;
      for (size_t PIdx = 0; PIdx < PA.size(); ++PIdx)
        Next.push_back(B.dotProduct(PA[PIdx], PB[PIdx], Acc[PIdx]));
      C.Parts[I.Result] = std::move(Next);
      return true;
    }
    return false;
  }

  /// Plain per-part elementwise emission.
  void emitElementwise(LoopPlan &Plan, VecCtx &C, const Instr &I) {
    std::vector<const std::vector<ValueId> *> OpParts;
    for (ValueId Op : I.Ops)
      OpParts.push_back(&partsOf(Plan, C, Op));
    size_t NParts = 0;
    for (const auto *P : OpParts)
      NParts = std::max(NParts, P->size());
    std::vector<ValueId> Res;
    for (size_t PIdx = 0; PIdx < NParts; ++PIdx) {
      Instr NI;
      NI.Op = I.Op;
      NI.Ty = Type::vector(I.Ty.Elem);
      NI.TyParam = I.Ty.Elem;
      for (const auto *P : OpParts) {
        assert(P->size() == NParts && "part-count mismatch in vector op");
        NI.Ops.push_back((*P)[PIdx]);
      }
      Res.push_back(B.emit(std::move(NI)));
    }
    assert(I.hasResult());
    C.Parts[I.Result] = std::move(Res);
  }
  //===--- Outer-loop vectorization (paper [18], Sec. III-B(d)) ----------===//
  //
  // A 2-deep nest  for j { pre; for i { ... }; post }  is vectorized with
  // lanes over the *outer* counter j: every access must be contiguous
  // (coefficient 1) or uniform (coefficient 0) in j; the inner loop runs
  // sequentially with lane-wise vector state, so inner reductions need no
  // horizontal finalization — the benefit the paper's guard weighs against
  // inner-loop vectorization on short-SIMD targets.

  /// Plans outer-loop vectorization of \p LoopIdx. On success the plan's
  /// Access map is keyed like the inner plan's (Stride holds the j
  /// coefficient, 0 or 1) and Reds/Fused stay empty.
  LoopPlan planOuterLoop(uint32_t LoopIdx, uint32_t &InnerIdx) {
    const LoopStmt &O = Src.Loops[LoopIdx];
    LoopPlan P;
    auto Fail = [&](const std::string &Why) {
      P.OK = false;
      P.Reason = Why;
      return P;
    };

    if (!AA.of(O.Step).isConstant() || AA.of(O.Step).Const != 1)
      return Fail("outer loop step is not 1");
    if (!O.Carried.empty())
      return Fail("outer loop has carried variables");
    const AffineExpr &LowerE = AA.of(O.Lower);
    P.LowerConst = LowerE.isConstant();
    P.LowerVal = LowerE.Const;

    // Exactly one inner loop, innermost, step 1, lane-invariant bounds.
    InnerIdx = ~0u;
    std::vector<uint32_t> BodyInstrs;
    for (const NodeRef &N : O.Body.Nodes) {
      if (N.Kind == NodeKind::If)
        return Fail("outer loop body has control flow");
      if (N.Kind == NodeKind::Loop) {
        if (InnerIdx != ~0u)
          return Fail("more than one inner loop");
        InnerIdx = N.Index;
        continue;
      }
      BodyInstrs.push_back(N.Index);
    }
    if (InnerIdx == ~0u)
      return Fail("no inner loop");
    const LoopStmt &I = Src.Loops[InnerIdx];
    if (!Nest.isInnermost(InnerIdx))
      return Fail("inner loop is not innermost");
    if (!AA.of(I.Step).isConstant() || AA.of(I.Step).Const != 1)
      return Fail("inner loop step is not 1");
    for (ValueId Bound : {I.Lower, I.Upper, I.Step})
      if (dependsOn(Src, Bound, O.IndVar))
        return Fail("inner trip count varies across lanes");
    for (const NodeRef &N : I.Body.Nodes)
      if (N.Kind != NodeKind::Instr)
        return Fail("inner loop body has control flow");

    std::vector<uint32_t> AllInstrs = BodyInstrs;
    for (const NodeRef &N : I.Body.Nodes)
      AllInstrs.push_back(N.Index);

    // Lane classification: loads contiguous in j seed the vector set;
    // inner carried variables join when their updates do (fixpoint).
    for (uint32_t Idx : AllInstrs) {
      const Instr &In = Src.Instrs[Idx];
      if (In.Op != Opcode::Load)
        continue;
      AccessShape S = accessShape(Src, AA, Nest, LoopIdx, In.Ops[0]);
      if (S.IvCoeff == 1)
        P.VecValues.insert(In.Result);
      else if (S.IvCoeff != 0)
        return Fail("access neither contiguous nor uniform in outer iv");
    }
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (uint32_t Idx : AllInstrs) {
        const Instr &In = Src.Instrs[Idx];
        if (!In.hasResult() || P.VecValues.count(In.Result) ||
            In.Op == Opcode::Load)
          continue;
        bool Vec = false;
        unsigned FirstDataOp = In.Op == Opcode::Store ? 1 : 0;
        for (unsigned OpIdx = FirstDataOp; OpIdx < In.Ops.size(); ++OpIdx)
          Vec |= P.VecValues.count(In.Ops[OpIdx]) != 0;
        if (Vec) {
          P.VecValues.insert(In.Result);
          Changed = true;
        }
      }
      for (const auto &C : I.Carried) {
        bool PhiVec = P.VecValues.count(C.Phi) != 0;
        if (!PhiVec &&
            (P.VecValues.count(C.Next) || P.VecValues.count(C.Init))) {
          P.VecValues.insert(C.Phi);
          PhiVec = true;
          Changed = true;
        }
        // The loop-exit value follows the phi (reduction results that
        // post-loop stores consume).
        if (PhiVec && !P.VecValues.count(C.Result)) {
          P.VecValues.insert(C.Result);
          Changed = true;
        }
      }
    }

    // Validate vector values and operations (same rules as inner plan).
    unsigned MinSize = 16;
    auto CheckVec = [&](const Instr &In) -> std::string {
      ScalarKind RK = In.Ty.Elem;
      if (In.hasResult() && RK != ScalarKind::I1 &&
          !isVectorizableDataKind(RK))
        return std::string("vector value of unsupported kind ") +
               scalarKindName(RK);
      if (In.Op == Opcode::Rem ||
          (In.Op == Opcode::Div && !isFloatKind(In.Ty.Elem)))
        return "vector integer division/remainder unsupported";
      unsigned FirstDataOp =
          (In.Op == Opcode::Load || In.Op == Opcode::Store) ? 1 : 0;
      for (unsigned OpIdx = FirstDataOp; OpIdx < In.Ops.size(); ++OpIdx) {
        Type OT = Src.typeOf(In.Ops[OpIdx]);
        if (P.VecValues.count(In.Ops[OpIdx]) &&
            OT.Elem != ScalarKind::I1 && !isVectorizableDataKind(OT.Elem))
          return "index-kind value used as vector data";
      }
      return "";
    };
    for (uint32_t Idx : AllInstrs) {
      const Instr &In = Src.Instrs[Idx];
      bool IsVec = (In.hasResult() && P.VecValues.count(In.Result)) ||
                   (In.Op == Opcode::Store &&
                    P.VecValues.count(In.Ops[1]));
      if (!IsVec)
        continue;
      std::string Why = CheckVec(In);
      if (!Why.empty())
        return Fail(Why);
      if (In.hasResult() && In.Ty.Elem != ScalarKind::I1)
        MinSize = std::min(MinSize, scalarSize(In.Ty.Elem));
    }
    for (const auto &C : I.Carried) {
      if (!P.VecValues.count(C.Phi))
        return Fail("inner carried variable stays scalar");
      if (!isVectorizableDataKind(Src.typeOf(C.Phi).Elem))
        return Fail("inner carried variable of unsupported kind");
    }
    if (MinSize == 16)
      return Fail("no vector data in nest");
    for (ScalarKind K : {ScalarKind::I8, ScalarKind::U8, ScalarKind::I16,
                         ScalarKind::U16, ScalarKind::I32, ScalarKind::U32,
                         ScalarKind::F32, ScalarKind::F64})
      if (scalarSize(K) == MinSize)
        P.MinKind = K;

    // Accesses: plans keyed by instruction; written arrays must be
    // accessed by one common index expression (distinct per lane).
    std::map<uint32_t, AffineExpr> WrittenIndex;
    for (uint32_t Idx : AllInstrs) {
      const Instr &In = Src.Instrs[Idx];
      if (In.Op != Opcode::Load && In.Op != Opcode::Store)
        continue;
      AccessShape S = accessShape(Src, AA, Nest, LoopIdx, In.Ops[0]);
      AccessPlan AP;
      AP.Stride = S.IvCoeff;
      AP.OffConst = S.OffsetConst;
      AP.OffElems = S.OffsetElems;
      if (S.IvCoeff == 1) {
        AP.K = AccessPlan::Kind::Contig;
        AccessShape Adjusted = S;
        if (P.LowerConst) {
          Adjusted.OffsetElems += P.LowerVal;
        } else {
          Adjusted.OffsetConst = false;
          Adjusted.OffsetTerms[O.Lower] = 1;
        }
        AP.Hint = Opt.EnableAlignmentOpts
                      ? alignmentOf(Src, In.Array, Adjusted).Hint
                      : AlignHint{-1, 0, false};
      } else {
        AP.K = AccessPlan::Kind::Invariant;
        if (In.Op == Opcode::Store)
          return Fail("store uniform across lanes");
      }
      if (In.Op == Opcode::Store) {
        if (!P.VecValues.count(In.Ops[1]))
          return Fail("stored value is uniform");
        WrittenIndex.emplace(In.Array, AA.of(In.Ops[0]));
      }
      P.Access[Idx] = AP;
    }
    for (uint32_t Idx : AllInstrs) {
      const Instr &In = Src.Instrs[Idx];
      if (In.Op != Opcode::Load && In.Op != Opcode::Store)
        continue;
      auto It = WrittenIndex.find(In.Array);
      if (It == WrittenIndex.end())
        continue;
      AffineExpr D = AA.of(In.Ops[0]).sub(It->second);
      if (!D.isConstant() || D.Const != 0)
        return Fail("written array accessed at diverging addresses");
    }

    P.OK = true;
    return P;
  }

  /// Entry for the non-innermost case: plans the outer strategy and, when
  /// the inner loop is independently vectorizable, emits the paper's
  /// cost-model versioning (version_guard prefer_outer_loop).
  bool tryOuterLoop(uint32_t LoopIdx, LoopReport &Report) {
    uint32_t InnerIdx = ~0u;
    LoopPlan OPlan = planOuterLoop(LoopIdx, InnerIdx);
    if (!OPlan.OK) {
      Report.Reason = "outer: " + OPlan.Reason;
      return false;
    }
    LoopPlan IPlan = planInnerLoop(InnerIdx);
    if (IPlan.OK) {
      // Both strategies work: let the online compiler pick per target.
      ValueId Guard = B.versionGuard(GuardKind::PreferOuterLoop, {});
      uint32_t IfIdx = B.beginIf(Guard);
      emitOuterVectorized(LoopIdx, InnerIdx, OPlan);
      B.beginElse(IfIdx);
      cloneLoopVerbatim(LoopIdx, /*TryVectorize=*/true);
      B.endIf(IfIdx);
      Report.Strategy = "outer+inner versioned";
    } else {
      emitOuterVectorized(LoopIdx, InnerIdx, OPlan);
      Report.Strategy = "outer";
    }
    Report.Vectorized = true;
    recordPlan(Report, OPlan);
    // The outer strategy versions on the cost model, not on alignment.
    Report.Versioned = Report.Strategy == "outer+inner versioned";
    return true;
  }

  void emitOuterVectorized(uint32_t LoopIdx, uint32_t InnerIdx,
                           LoopPlan &Plan) {
    const LoopStmt &O = Src.Loops[LoopIdx];
    const LoopStmt &I = Src.Loops[InnerIdx];
    VecCtx C;
    C.Hinted = true; // Hints carry IfJitAligns; the JIT weighs them.
    C.AlignedBases = false;

    ValueId Lower = mapped(O.Lower);
    ValueId Upper = mapped(O.Upper);
    ValueId VFMin = vfOf(C, Plan.MinKind);
    ValueId Span = B.smax(B.sub(Upper, Lower), B.constIdx(0));
    ValueId MainEnd = B.add(Lower, B.mul(B.div(Span, VFMin), VFMin));

    auto H = B.beginLoop(Lower, MainEnd, VFMin, LoopRole::VecMain);
    C.NewIv = H.indVar();
    VMap[O.IndVar] = H.indVar();

    for (const NodeRef &N : O.Body.Nodes) {
      if (N.Kind == NodeKind::Instr) {
        emitOuterNode(Plan, C, N.Index);
        continue;
      }
      // The inner loop: sequential, with lane-wise carried state.
      assert(N.Index == InnerIdx && "unexpected inner loop");
      std::vector<std::vector<ValueId>> Inits;
      for (const auto &CV : I.Carried)
        Inits.push_back(partsOf(Plan, C, CV.Init));
      auto HI = B.beginLoop(mapped(I.Lower), mapped(I.Upper),
                            mapped(I.Step), LoopRole::Plain);
      VMap[I.IndVar] = HI.indVar();
      std::vector<std::vector<ValueId>> Phis(I.Carried.size());
      for (size_t CI = 0; CI < I.Carried.size(); ++CI) {
        for (ValueId Init : Inits[CI])
          Phis[CI].push_back(B.addCarried(HI, Init));
        C.Parts[I.Carried[CI].Phi] = Phis[CI];
      }
      for (const NodeRef &M : I.Body.Nodes)
        emitOuterNode(Plan, C, M.Index);
      for (size_t CI = 0; CI < I.Carried.size(); ++CI) {
        const auto &Next = C.Parts.at(I.Carried[CI].Next);
        std::vector<ValueId> Results;
        for (size_t PIdx = 0; PIdx < Phis[CI].size(); ++PIdx) {
          B.setCarriedNext(HI, Phis[CI][PIdx], Next[PIdx]);
          Results.push_back(B.carriedResult(HI, Phis[CI][PIdx]));
        }
        C.Parts[I.Carried[CI].Result] = std::move(Results);
      }
      B.endLoop(HI);
    }
    B.endLoop(H);

    emitScalarCopy(LoopIdx, MainEnd, Upper, {}, LoopRole::Epilogue);
  }

  /// One instruction of the outer-vectorized nest.
  void emitOuterNode(LoopPlan &Plan, VecCtx &C, uint32_t InstrIdx) {
    const Instr &In = Src.Instrs[InstrIdx];
    bool IsVec = (In.hasResult() && P_vecHas(Plan, In.Result)) ||
                 (In.Op == Opcode::Store &&
                  P_vecHas(Plan, In.Ops[1]));
    if (!IsVec) {
      cloneInstr(In);
      return;
    }
    switch (In.Op) {
    case Opcode::Load: {
      const AccessPlan &AP = Plan.Access.at(InstrIdx);
      ScalarKind K = Src.Arrays[In.Array].Elem;
      unsigned NParts = partCount(K, Plan.MinKind);
      if (AP.K == AccessPlan::Kind::Invariant) {
        ValueId S = B.load(In.Array, mapped(In.Ops[0]));
        C.Parts[In.Result] =
            std::vector<ValueId>(NParts, B.initUniform(S));
        return;
      }
      // Contiguous across lanes; the offset usually varies with the inner
      // counter, so emit an inline realignment triple per part (no
      // carried chunk). The JIT reverts it to (mis)aligned loads.
      ValueId Idx = mapped(In.Ops[0]);
      AlignHint Hint = AP.Hint;
      ValueId VFK = vfOf(C, K);
      ValueId RT = B.getRT(In.Array, Idx, Hint);
      ValueId Prev = B.alignLoad(In.Array, Idx);
      std::vector<ValueId> Parts;
      for (unsigned PIdx = 0; PIdx < NParts; ++PIdx) {
        ValueId PartIdx = partIndex(C, Idx, K, PIdx);
        ValueId NextChunk =
            B.alignLoad(In.Array, B.add(PartIdx, VFK));
        Parts.push_back(
            B.realignLoad(Prev, NextChunk, RT, In.Array, PartIdx, Hint));
        Prev = NextChunk;
      }
      C.Parts[In.Result] = std::move(Parts);
      return;
    }
    case Opcode::Store: {
      const AccessPlan &AP = Plan.Access.at(InstrIdx);
      ScalarKind K = Src.Arrays[In.Array].Elem;
      const auto &Vals = partsOf(Plan, C, In.Ops[1]);
      ValueId Idx = mapped(In.Ops[0]);
      for (unsigned PIdx = 0; PIdx < Vals.size(); ++PIdx)
        B.ustore(In.Array, partIndex(C, Idx, K, PIdx), Vals[PIdx],
                 AP.Hint);
      return;
    }
    case Opcode::Convert:
      C.Parts[In.Result] =
          emitConvert(Plan, C, partsOf(Plan, C, In.Ops[0]),
                      Src.typeOf(In.Ops[0]).Elem, In.Ty.Elem);
      return;
    default:
      emitElementwise(Plan, C, In);
      return;
    }
  }

  static bool P_vecHas(const LoopPlan &Plan, ValueId V) {
    return Plan.VecValues.count(V) != 0;
  }


};

} // namespace

Result vectorizer::vectorize(const Function &Src, const Options &Opt) {
  obs::Span S("vectorizer", "vectorize");
  S.arg("function", Src.Name);
  RerollResult RR = rerollUnrolledLoops(Src);
  Result R = VectorizerImpl(RR.Output, Opt, RR.RerolledLoops).run();
  static obs::Counter Vectorized("vectorizer.loops_vectorized");
  static obs::Counter Declined("vectorizer.loops_declined");
  for (const LoopReport &LR : R.Loops) {
    (LR.Vectorized ? Vectorized : Declined).add(1);
    if (!obs::tracingActive())
      continue;
    obs::event(
        "vectorizer", "loop_decision",
        {{"function", obs::argStr(Src.Name)},
         {"loop", obs::argStr(static_cast<uint64_t>(LR.SrcLoop))},
         {"vectorized", obs::argStr(LR.Vectorized)},
         {"strategy", obs::argStr(LR.Strategy)},
         {"reason", obs::argStr(LR.Reason)},
         {"versioned", obs::argStr(LR.Versioned)},
         {"peeled", obs::argStr(LR.Peeled)},
         {"max_safe_vf", obs::argStr(LR.MaxSafeVF)},
         {"reductions", obs::argStr(static_cast<uint64_t>(LR.Reductions))},
         {"max_reductions",
          obs::argStr(static_cast<uint64_t>(LR.MaxReductions))},
         {"sat_ops", obs::argStr(static_cast<uint64_t>(LR.SatOps))},
         {"min_elem_bytes",
          obs::argStr(static_cast<uint64_t>(LR.MinElemBytes))}});
  }
  S.arg("loops", static_cast<uint64_t>(R.Loops.size()));
  S.arg("any_vectorized", R.anyVectorized());
  return R;
}
