//===- analysis/Certificate.cpp - Certificates and their checker ----------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// The independent checker deliberately shares no code with the verifier's
// abstract interpreter: it re-derives residues with its own, simpler
// evaluator directly over the IR value graph. Redundancy is the point —
// a bug in the producer's symbolic domain cannot also be a bug here, so a
// wrong certificate gets Rejected instead of silently eliding a check.
//
// Both evaluators fail closed. Every "can't see through this" answer is
// nullopt, which the callers turn into "keep the check".
//
//===----------------------------------------------------------------------===//

#include "analysis/Certificate.h"

#include "support/Support.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace vapor;
using namespace vapor::ir;

namespace {

int64_t floorMod(int64_t X, int64_t M) {
  assert(M > 0);
  int64_t R = X % M;
  return R < 0 ? R + M : R;
}

bool addOv(int64_t A, int64_t B, int64_t &R) {
  return __builtin_add_overflow(A, B, &R);
}
bool subOv(int64_t A, int64_t B, int64_t &R) {
  return __builtin_sub_overflow(A, B, &R);
}
bool mulOv(int64_t A, int64_t B, int64_t &R) {
  return __builtin_mul_overflow(A, B, &R);
}

/// Machine constant a vector-mode JIT materializes for get_vf /
/// get_align_limit of element type \p K on a VSBytes-wide target.
int64_t machineConst(uint32_t VSBytes, ScalarKind K) {
  int64_t ES = scalarSize(K);
  return ES > 0 ? static_cast<int64_t>(VSBytes) / ES : 0;
}

/// Resolves \p V to a compile-time integer constant in the certificate's
/// machine world (ConstInt, or a machine-parameter query the JIT folds).
std::optional<int64_t> constValue(const Function &F, uint32_t VSBytes,
                                  ValueId V) {
  if (V >= F.Values.size() || F.Values[V].Def != ValueDef::Instr)
    return std::nullopt;
  const Instr &I = F.Instrs[F.Values[V].A];
  switch (I.Op) {
  case Opcode::ConstInt:
    return I.IntImm;
  case Opcode::GetVF:
  case Opcode::GetAlignLimit:
    return machineConst(VSBytes, I.TyParam);
  default:
    return std::nullopt;
  }
}

//===--- The checker's own residue evaluator ------------------------------===//
//
// Residue of an integer IR value mod W, expressed as an affine form
//   Const + sum(Coeff_A * baseElems(A))
// over per-array base-element symbols, all coefficients reduced mod W.
// This is the machinery that replays the producer's congruence claims:
// get_misalign introduces base terms, rem/mul/shl/loop-induction rules
// propagate them, and the final form is judged against the certificate's
// BaseAlignReqs.

struct BaseAff {
  int64_t Const = 0;
  std::map<uint32_t, int64_t> BaseCoeff;

  bool isConst() const { return BaseCoeff.empty(); }
  bool operator==(const BaseAff &O) const {
    return Const == O.Const && BaseCoeff == O.BaseCoeff;
  }
};

class ResidueEval {
public:
  ResidueEval(const Function &Fn, uint32_t VS, int64_t Width)
      : F(Fn), VSBytes(VS), W(Width) {}

  std::optional<BaseAff> of(ValueId V) {
    auto It = Memo.find(V);
    if (It != Memo.end())
      return It->second;
    if (!InFlight.insert(V).second)
      return std::nullopt; // Cyclic definition: fail closed.
    std::optional<BaseAff> R = compute(V);
    InFlight.erase(V);
    Memo[V] = R;
    return R;
  }

private:
  BaseAff norm(BaseAff A) const {
    A.Const = floorMod(A.Const, W);
    for (auto It = A.BaseCoeff.begin(); It != A.BaseCoeff.end();) {
      It->second = floorMod(It->second, W);
      It = It->second == 0 ? A.BaseCoeff.erase(It) : std::next(It);
    }
    return A;
  }

  BaseAff cnst(int64_t C) const {
    BaseAff A;
    A.Const = floorMod(C, W);
    return A;
  }

  BaseAff combine(const BaseAff &A, const BaseAff &B, int64_t Sign) const {
    BaseAff R = A;
    R.Const += Sign * B.Const;
    for (const auto &[Arr, Co] : B.BaseCoeff)
      R.BaseCoeff[Arr] += Sign * Co;
    return norm(R);
  }

  BaseAff scale(const BaseAff &A, int64_t K) const {
    BaseAff R;
    int64_t KM = floorMod(K, W);
    R.Const = A.Const * KM;
    for (const auto &[Arr, Co] : A.BaseCoeff)
      R.BaseCoeff[Arr] = Co * KM;
    return norm(R);
  }

  std::optional<BaseAff> compute(ValueId V) {
    if (W <= 1)
      return cnst(0);
    if (V >= F.Values.size())
      return std::nullopt;
    const ValueInfo &VI = F.Values[V];
    switch (VI.Def) {
    case ValueDef::Instr:
      break;
    case ValueDef::LoopInd: {
      // iv = Lower + k*Step: when the step is ≡ 0 (mod W), every iterate
      // keeps Lower's residue. (Vector main loops step by VF ≡ 0 mod W;
      // peel loops step by 1 and correctly fail here.)
      const LoopStmt &L = F.Loops[VI.A];
      std::optional<BaseAff> St = of(L.Step);
      if (!St || !St->isConst() || St->Const != 0)
        return std::nullopt;
      return of(L.Lower);
    }
    default:
      return std::nullopt; // Params, loop-carried state: opaque.
    }

    const Instr &I = F.Instrs[VI.A];
    switch (I.Op) {
    case Opcode::ConstInt:
      return cnst(I.IntImm);
    case Opcode::Add: {
      auto A = of(I.Ops[0]), B = of(I.Ops[1]);
      if (!A || !B)
        return std::nullopt;
      return combine(*A, *B, 1);
    }
    case Opcode::Sub: {
      auto A = of(I.Ops[0]), B = of(I.Ops[1]);
      if (!A || !B)
        return std::nullopt;
      return combine(*A, *B, -1);
    }
    case Opcode::Neg: {
      auto A = of(I.Ops[0]);
      if (!A)
        return std::nullopt;
      return scale(*A, -1);
    }
    case Opcode::Mul: {
      auto A = of(I.Ops[0]), B = of(I.Ops[1]);
      // A constant factor ≡ 0 (mod W) zeroes the product even when the
      // other factor is unanalyzable (it is still an integer). This is
      // what discharges `(span / VF) * VF`-shaped main-loop bounds.
      if (A && A->isConst() && A->Const == 0)
        return cnst(0);
      if (B && B->isConst() && B->Const == 0)
        return cnst(0);
      if (!A || !B)
        return std::nullopt;
      if (A->isConst())
        return scale(*B, A->Const);
      if (B->isConst())
        return scale(*A, B->Const);
      return std::nullopt; // Product of two symbolic forms: not affine.
    }
    case Opcode::Shl: {
      std::optional<int64_t> Sh = constValue(F, VSBytes, I.Ops[1]);
      if (!Sh || *Sh < 0 || *Sh >= 62)
        return std::nullopt;
      auto A = of(I.Ops[0]);
      if (!A)
        return std::nullopt;
      return scale(*A, int64_t(1) << *Sh);
    }
    case Opcode::Rem: {
      // Truncated remainder satisfies r ≡ x (mod c) exactly; with W | c
      // the residue mod W passes through.
      std::optional<int64_t> C = constValue(F, VSBytes, I.Ops[1]);
      if (!C || *C <= 0 || *C % W != 0)
        return std::nullopt;
      return of(I.Ops[0]);
    }
    case Opcode::Min:
    case Opcode::Max: {
      // Sound only when both arms agree: the checker does not do the
      // producer's scenario forking, by design.
      auto A = of(I.Ops[0]), B = of(I.Ops[1]);
      if (!A || !B || !(*A == *B))
        return std::nullopt;
      return A;
    }
    case Opcode::GetVF:
    case Opcode::GetAlignLimit:
      return cnst(machineConst(VSBytes, I.TyParam));
    case Opcode::GetMisalign: {
      // m = (baseElems(A) + off) mod AL, so m ≡ baseElems(A) + off
      // (mod W) whenever W divides AL.
      if (I.Array >= F.Arrays.size())
        return std::nullopt;
      int64_t AL = machineConst(VSBytes, F.Arrays[I.Array].Elem);
      if (AL <= 1)
        return cnst(0);
      if (AL % W != 0)
        return std::nullopt;
      BaseAff R = cnst(I.IntImm);
      R.BaseCoeff[I.Array] = 1;
      return norm(R);
    }
    case Opcode::LoopBound:
      // Vector-mode lowering keeps the vector-version count.
      return of(I.Ops[0]);
    default:
      return std::nullopt;
    }
  }

  const Function &F;
  uint32_t VSBytes;
  int64_t W;
  std::map<ValueId, std::optional<BaseAff>> Memo;
  std::set<ValueId> InFlight;
};

bool isCertOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::ALoad:
  case Opcode::ULoad:
  case Opcode::AStore:
  case Opcode::UStore:
  case Opcode::Load:
  case Opcode::Store:
    return true;
  default:
    return false;
  }
}

bool isVectorAccess(Opcode Op) {
  return Op != Opcode::Load && Op != Opcode::Store;
}

} // namespace

namespace vapor {
namespace analysis {

uint64_t certificateHash(const SafetyCertificate &C) {
  uint64_t H = 0x5652435254ULL; // 'VRCRT'
  H = hashBytes(C.TargetName.data(), C.TargetName.size(), H);
  H = hashCombine(H, C.VSBytes);
  H = hashCombine(H, C.FnHash);
  H = hashCombine(H, C.Facts.size());
  for (const AccessFact &F : C.Facts) {
    H = hashCombine(H, F.InstrIdx);
    H = hashCombine(H, F.Array);
    H = hashCombine(H, F.LoopIdx);
    H = hashCombine(H, F.HasAlign);
    H = hashCombine(H, static_cast<uint64_t>(F.AlignElems));
    H = hashCombine(H, F.BaseReqs.size());
    for (const BaseAlignReq &R : F.BaseReqs) {
      H = hashCombine(H, R.Array);
      H = hashCombine(H, R.Bytes);
    }
    H = hashCombine(H, F.HasBounds);
    H = hashCombine(H, F.SpanElems);
    H = hashCombine(H, F.NumElems);
    H = hashCombine(H, F.IndexVal);
    H = hashCombine(H, F.DynamicRange);
    H = hashCombine(H, static_cast<uint64_t>(F.MinIdx));
    H = hashCombine(H, static_cast<uint64_t>(F.MaxIdx));
  }
  return H;
}

//===--- BoundsEvaluator ---------------------------------------------------===//

std::optional<Interval> BoundsEvaluator::eval(ValueId V) {
  if (V >= F.Values.size())
    return std::nullopt;
  switch (State[V]) {
  case Visit::Done:
    return Memo[V];
  case Visit::InFlight:
    return std::nullopt;
  case Visit::New:
    break;
  }
  State[V] = Visit::InFlight;
  Memo[V] = compute(V);
  State[V] = Visit::Done;
  return Memo[V];
}

std::optional<Interval> BoundsEvaluator::compute(ValueId V) {
  const ValueInfo &VI = F.Values[V];

  auto point = [](int64_t C) { return Interval{C, C}; };

  switch (VI.Def) {
  case ValueDef::Param: {
    if (!Param)
      return std::nullopt;
    std::optional<int64_t> P = Param(VI.Name);
    if (!P)
      return std::nullopt;
    return point(*P);
  }
  case ValueDef::LoopInd: {
    // iv ranges over [Lower, Upper) by Step: min is Lower's min; the last
    // iterate is Upper - Step when the span is provably Step-divisible,
    // Upper - 1 otherwise. Empty loops never produce an iv, so clamping
    // the top at Lower's min is sound.
    const LoopStmt &L = F.Loops[VI.A];
    std::optional<Interval> Lo = eval(L.Lower);
    std::optional<Interval> Up = eval(L.Upper);
    std::optional<int64_t> St = constValue(F, VSBytes, L.Step);
    if (!Lo || !Up || !St || *St < 1)
      return std::nullopt;
    int64_t Back = 1;
    if (*St > 1) {
      // Span divisibility via the residue evaluator mod Step: residues of
      // Upper and Lower must agree exactly (symbolic parts cancel).
      ResidueEval RE(F, VSBytes, *St);
      std::optional<BaseAff> RU = RE.of(L.Upper);
      std::optional<BaseAff> RL = RE.of(L.Lower);
      if (RU && RL && *RU == *RL)
        Back = *St;
    }
    int64_t Top;
    if (subOv(Up->Max, Back, Top))
      return std::nullopt;
    return Interval{Lo->Min, std::max(Lo->Min, Top)};
  }
  case ValueDef::Instr:
    break;
  default:
    return std::nullopt; // Loop-carried state: unbounded.
  }

  const Instr &I = F.Instrs[VI.A];
  switch (I.Op) {
  case Opcode::ConstInt:
    return point(I.IntImm);
  case Opcode::Add: {
    auto A = eval(I.Ops[0]), B = eval(I.Ops[1]);
    int64_t Mn, Mx;
    if (!A || !B || addOv(A->Min, B->Min, Mn) || addOv(A->Max, B->Max, Mx))
      return std::nullopt;
    return Interval{Mn, Mx};
  }
  case Opcode::Sub: {
    auto A = eval(I.Ops[0]), B = eval(I.Ops[1]);
    int64_t Mn, Mx;
    if (!A || !B || subOv(A->Min, B->Max, Mn) || subOv(A->Max, B->Min, Mx))
      return std::nullopt;
    return Interval{Mn, Mx};
  }
  case Opcode::Neg: {
    auto A = eval(I.Ops[0]);
    int64_t Mn, Mx;
    if (!A || subOv(0, A->Max, Mn) || subOv(0, A->Min, Mx))
      return std::nullopt;
    return Interval{Mn, Mx};
  }
  case Opcode::Mul: {
    auto A = eval(I.Ops[0]), B = eval(I.Ops[1]);
    if (!A || !B)
      return std::nullopt;
    int64_t C[4];
    if (mulOv(A->Min, B->Min, C[0]) || mulOv(A->Min, B->Max, C[1]) ||
        mulOv(A->Max, B->Min, C[2]) || mulOv(A->Max, B->Max, C[3]))
      return std::nullopt;
    return Interval{*std::min_element(C, C + 4), *std::max_element(C, C + 4)};
  }
  case Opcode::Div: {
    auto A = eval(I.Ops[0]);
    std::optional<int64_t> D = constValue(F, VSBytes, I.Ops[1]);
    if (!A || !D || *D == 0)
      return std::nullopt;
    if (*D == -1 && A->Min == INT64_MIN)
      return std::nullopt;
    int64_t X = A->Min / *D, Y = A->Max / *D;
    return Interval{std::min(X, Y), std::max(X, Y)};
  }
  case Opcode::Rem: {
    auto A = eval(I.Ops[0]);
    std::optional<int64_t> D = constValue(F, VSBytes, I.Ops[1]);
    if (!A || !D || *D <= 0)
      return std::nullopt;
    if (A->Min >= 0)
      return Interval{0, std::min(A->Max, *D - 1)};
    return Interval{-(*D - 1), *D - 1};
  }
  case Opcode::Min: {
    auto A = eval(I.Ops[0]), B = eval(I.Ops[1]);
    if (!A || !B)
      return std::nullopt;
    return Interval{std::min(A->Min, B->Min), std::min(A->Max, B->Max)};
  }
  case Opcode::Max: {
    auto A = eval(I.Ops[0]), B = eval(I.Ops[1]);
    if (!A || !B)
      return std::nullopt;
    return Interval{std::max(A->Min, B->Min), std::max(A->Max, B->Max)};
  }
  case Opcode::Shl: {
    auto A = eval(I.Ops[0]);
    std::optional<int64_t> Sh = constValue(F, VSBytes, I.Ops[1]);
    if (!A || !Sh || *Sh < 0 || *Sh >= 62)
      return std::nullopt;
    int64_t K = int64_t(1) << *Sh, Mn, Mx;
    if (mulOv(A->Min, K, Mn) || mulOv(A->Max, K, Mx))
      return std::nullopt;
    return Interval{Mn, Mx};
  }
  case Opcode::GetVF:
  case Opcode::GetAlignLimit: {
    int64_t C = machineConst(VSBytes, I.TyParam);
    if (C <= 0)
      return std::nullopt;
    return point(C);
  }
  case Opcode::GetMisalign: {
    if (I.Array >= F.Arrays.size())
      return std::nullopt;
    int64_t AL = machineConst(VSBytes, F.Arrays[I.Array].Elem);
    return Interval{0, AL > 1 ? AL - 1 : 0};
  }
  case Opcode::LoopBound: {
    // Vector lowering keeps Ops[0], scalar lowering Ops[1]; the union
    // covers whichever the executed program materialized.
    auto A = eval(I.Ops[0]), B = eval(I.Ops[1]);
    if (!A || !B)
      return std::nullopt;
    return Interval{std::min(A->Min, B->Min), std::max(A->Max, B->Max)};
  }
  default:
    return std::nullopt;
  }
}

//===--- checkCertificate --------------------------------------------------===//

std::string checkCertificate(const Function &F, const SafetyCertificate &C) {
  if (C.VSBytes == 0)
    return "certificate carries no vector size";
  if (C.FnHash != hashFunction(F))
    return "certificate content hash does not match the bytecode";

  BoundsEvaluator BE(F, C.VSBytes, [](const std::string &) {
    return std::optional<int64_t>();
  });
  for (size_t N = 0; N < C.Facts.size(); ++N) {
    const AccessFact &Fa = C.Facts[N];
    std::string Tag = "fact " + std::to_string(N) + ": ";
    if (Fa.InstrIdx >= F.Instrs.size())
      return Tag + "instruction index out of range";
    const Instr &I = F.Instrs[Fa.InstrIdx];
    if (!isCertOpcode(I.Op))
      return Tag + "instruction is not a certifiable memory access";
    if (Fa.Array != I.Array || Fa.Array >= F.Arrays.size())
      return Tag + "array identity does not match the access";
    int64_t ES = scalarSize(F.Arrays[Fa.Array].Elem);
    if (ES <= 0 || C.VSBytes % ES != 0)
      return Tag + "element size inconsistent with the vector size";
    if (!Fa.HasAlign && !Fa.HasBounds)
      return Tag + "claims nothing";

    if (Fa.HasAlign) {
      if (!isVectorAccess(I.Op))
        return Tag + "alignment claim on a scalar access";
      if (Fa.AlignElems != static_cast<int64_t>(C.VSBytes) / ES)
        return Tag + "alignment width is not VSBytes over the element size";
      bool CoversOwn = false;
      for (const BaseAlignReq &R : Fa.BaseReqs) {
        if (R.Array >= F.Arrays.size())
          return Tag + "base requirement names a missing array";
        int64_t RES = scalarSize(F.Arrays[R.Array].Elem);
        if (RES <= 0 || R.Bytes == 0 ||
            R.Bytes % static_cast<uint64_t>(RES) != 0)
          return Tag + "base requirement is not element-granular";
        CoversOwn |= R.Array == Fa.Array;
      }
      // Element-granular addressing itself assumes the accessed base is a
      // whole number of elements; the requirement makes that a checked
      // runtime precondition rather than a modeling assumption.
      if (!CoversOwn)
        return Tag + "no base requirement on the accessed array";
    }

    if (Fa.HasBounds) {
      uint32_t Span = isVectorAccess(I.Op)
                          ? static_cast<uint32_t>(C.VSBytes / ES)
                          : 1u;
      if (Fa.SpanElems != Span)
        return Tag + "span does not match the access width";
      if (Fa.NumElems != F.Arrays[Fa.Array].NumElems)
        return Tag + "array extent does not match the bytecode";
      if (Fa.IndexVal != I.Ops[0])
        return Tag + "index value does not match the access";
      if (!Fa.DynamicRange) {
        std::optional<Interval> R = BE.eval(Fa.IndexVal);
        if (!R)
          return Tag + "static range claim cannot be re-derived";
        if (R->Min != Fa.MinIdx || R->Max != Fa.MaxIdx)
          return Tag + "static range claim disagrees with re-derivation";
      }
    }
  }
  return "";
}

FactVerdict checkAlignFact(const Function &F, const SafetyCertificate &C,
                           const AccessFact &Fact) {
  if (!Fact.HasAlign || Fact.InstrIdx >= F.Instrs.size() ||
      Fact.Array >= F.Arrays.size())
    return FactVerdict::Rejected;
  const Instr &I = F.Instrs[Fact.InstrIdx];
  if (!isCertOpcode(I.Op) || !isVectorAccess(I.Op) || I.Ops.empty())
    return FactVerdict::Rejected;
  int64_t ES = scalarSize(F.Arrays[Fact.Array].Elem);
  if (ES <= 0 || Fact.AlignElems != static_cast<int64_t>(C.VSBytes) / ES)
    return FactVerdict::Rejected;
  int64_t W = Fact.AlignElems;

  // Address (in elements) = baseElems(accessed array) + index. Re-derive
  // its residue mod W and demand that every surviving base term is
  // annihilated by a base requirement the plan will actually test.
  BaseAff Total;
  if (W > 1) {
    ResidueEval RE(F, C.VSBytes, W);
    std::optional<BaseAff> Idx = RE.of(I.Ops[0]);
    if (!Idx)
      return FactVerdict::Rejected;
    Total = *Idx;
    if (Total.Const % W != 0)
      return FactVerdict::Rejected;
  }
  Total.BaseCoeff[Fact.Array] += 1;

  for (const auto &[Arr, Co] : Total.BaseCoeff) {
    int64_t CoM = W > 1 ? floorMod(Co, W) : 0;
    const BaseAlignReq *Req = nullptr;
    for (const BaseAlignReq &R : Fact.BaseReqs)
      if (R.Array == Arr)
        Req = &R;
    if (!Req)
      return FactVerdict::Rejected;
    int64_t RES = scalarSize(F.Arrays[Arr].Elem);
    if (RES <= 0 || Req->Bytes == 0 ||
        Req->Bytes % static_cast<uint64_t>(RES) != 0)
      return FactVerdict::Rejected;
    if (CoM == 0)
      continue;
    // Coeff * baseElems with baseElems ≡ 0 (mod Bytes/ES) vanishes mod W
    // iff W | Coeff * (Bytes/ES).
    int64_t M = static_cast<int64_t>(Req->Bytes) / RES;
    if (floorMod(CoM * M, W) != 0)
      return FactVerdict::Rejected;
  }
  return FactVerdict::Confirmed;
}

} // namespace analysis
} // namespace vapor
