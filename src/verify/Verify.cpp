//===- verify/Verify.cpp - Static verifier for split bytecode -------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// The verifier runs after the offline vectorizer and before any online
// compiler. It abstract-interprets the module once per target over a
// symbolic residue domain (affine forms over symbols with congruence
// facts) and discharges one proof obligation per aligned access the JIT
// could materialize: the address is provably 0 mod VS in every scenario.
//
// Scenarios: min/max over non-constant scalars fork the abstract state
// (the peel-count clamp is a min/max chain); the fork's sign choice is
// memoized per state so later splits over the same quantity agree —
// otherwise infeasible paths (e.g. "peel loop empty" combined with "main
// loop not empty") would produce false alarms.
//
// Region lowering modes mirror the JIT's planner through the shared
// strategy model in jit/Jit.h, with two sound over-approximations: hints
// are treated optimistically (hintCouldProveAligned), so the verifier's
// vector-mode regions are a superset of any real run's, and alignment
// version guards are never folded — both arms are walked, the guarded arm
// under the guard's base-alignment assumption. That covers both compiler
// tiers and every runtime base assignment at once.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "analysis/Affine.h"
#include "analysis/Alignment.h"
#include "ir/Verifier.h"
#include "jit/Jit.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>

using namespace vapor;
using namespace vapor::ir;
using vapor::target::TargetDesc;

namespace vapor {
namespace verify {

const char *checkName(Check C) {
  switch (C) {
  case Check::Structure:
    return "structure";
  case Check::Alignment:
    return "alignment";
  case Check::HintConsistency:
    return "hint-consistency";
  case Check::Guards:
    return "guards";
  case Check::IdiomChains:
    return "idiom-chains";
  }
  return "?";
}

const char *severityName(Severity S) {
  switch (S) {
  case Severity::Error:
    return "error";
  case Severity::Warning:
    return "warning";
  case Severity::Note:
    return "note";
  }
  return "?";
}

std::string Diagnostic::str() const {
  std::ostringstream OS;
  OS << severityName(Sev) << " [" << checkName(Analysis) << "]";
  if (!Target.empty())
    OS << " (" << Target << ")";
  if (InstrIdx != NoInstr)
    OS << " instr #" << InstrIdx;
  OS << ": " << Why;
  return OS.str();
}

bool Report::ok() const { return count(Severity::Error) == 0; }

size_t Report::count(Severity S) const {
  size_t N = 0;
  for (const Diagnostic &D : Diags)
    N += D.Sev == S;
  return N;
}

std::string Report::str(bool IncludeNotes) const {
  std::ostringstream OS;
  OS << "verify: " << ObligationsProved << "/"
     << (ObligationsProved + ObligationsFailed)
     << " alignment obligations proved across " << TargetsChecked
     << " targets; " << count(Severity::Error) << " errors, "
     << count(Severity::Warning) << " warnings\n";
  for (const Diagnostic &D : Diags) {
    if (D.Sev == Severity::Note && !IncludeNotes)
      continue;
    OS << "  " << D.str() << "\n";
  }
  return OS.str();
}

} // namespace verify
} // namespace vapor

namespace {

using verify::Check;
using verify::Diagnostic;
using verify::NoInstr;
using verify::Report;
using verify::Severity;
using verify::VerifyOptions;

int64_t floorMod(int64_t X, int64_t M) {
  assert(M > 0);
  int64_t R = X % M;
  return R < 0 ? R + M : R;
}

bool isPow2(int64_t X) { return X > 0 && (X & (X - 1)) == 0; }

//===--- The abstract domain ----------------------------------------------===//

/// Index of an affine form in its pass's AffPool.
using AffId = uint32_t;
constexpr AffId NoAff = ~0u;

/// The affine forms c0 + sum(ci * Sym_i) over verifier symbols that one
/// target pass builds. A form's terms are sorted by symbol and stored back
/// to back in one arena, so building a form allocates nothing once the
/// arena has grown. Forms are immutable: an id names the same form for
/// the rest of the pass. Coefficients are the module's own constants, so
/// arithmetic on forms is checked: a form whose constant or coefficient
/// leaves int64 is not built (nullopt), and the caller claims nothing.
class AffPool {
public:
  struct Term {
    uint32_t Sym;
    int64_t Coef;
  };

  void clear() {
    Forms.clear();
    Terms.clear();
  }

  AffId constant(int64_t C) { return finish(C, Terms.size()); }

  AffId sym(uint32_t S) {
    Terms.push_back({S, 1});
    return finish(0, Terms.size() - 1);
  }

  /// A + K * B; terms that cancel are dropped.
  std::optional<AffId> add(AffId A, AffId B, int64_t K = 1) {
    const Form FA = Forms[A], FB = Forms[B];
    const size_t Begin = Terms.size();
    uint32_t IA = FA.Begin, IB = FB.Begin;
    const uint32_t EA = FA.Begin + FA.Size, EB = FB.Begin + FB.Size;
    while (IA != EA || IB != EB) {
      if (IB == EB || (IA != EA && Terms[IA].Sym < Terms[IB].Sym)) {
        const Term X = Terms[IA++];
        Terms.push_back(X);
        continue;
      }
      const uint32_t S = Terms[IB].Sym;
      int64_t N;
      bool Over = __builtin_mul_overflow(Terms[IB++].Coef, K, &N);
      if (IA != EA && Terms[IA].Sym == S)
        Over |= __builtin_add_overflow(N, Terms[IA++].Coef, &N);
      if (Over)
        return drop(Begin);
      if (N)
        Terms.push_back({S, N});
    }
    int64_t C;
    if (__builtin_mul_overflow(FB.C, K, &C) ||
        __builtin_add_overflow(FA.C, C, &C))
      return drop(Begin);
    return finish(C, Begin);
  }

  std::optional<AffId> mulC(AffId A, int64_t K) {
    if (K == 0)
      return constant(0);
    int64_t C, Coef;
    if (__builtin_mul_overflow(Forms[A].C, K, &C))
      return std::nullopt;
    for (const Term &X : terms(A))
      if (__builtin_mul_overflow(X.Coef, K, &Coef))
        return std::nullopt;
    return rewrite(A, C, [K](Term &X) {
      X.Coef *= K;
      return true;
    });
  }

  /// A / K when K divides the constant and every coefficient of A. Not
  /// for K = -1, whose quotient of INT64_MIN overflows (the program's
  /// wraps to MIN; here even the remainder test traps).
  std::optional<AffId> divExact(AffId A, int64_t K) {
    if (K == 0 || K == -1 || Forms[A].C % K != 0)
      return std::nullopt;
    for (const Term &X : terms(A))
      if (X.Coef % K != 0)
        return std::nullopt;
    return rewrite(A, Forms[A].C / K, [K](Term &X) {
      X.Coef /= K;
      return true;
    });
  }

  /// A with the term of symbol \p S removed.
  AffId without(AffId A, uint32_t S) {
    return rewrite(A, Forms[A].C, [S](Term &X) { return X.Sym != S; });
  }

  bool isConst(AffId A) const { return Forms[A].Size == 0; }
  int64_t constOf(AffId A) const { return Forms[A].C; }
  /// Valid until the next form is built.
  std::span<const Term> terms(AffId A) const {
    return {Terms.data() + Forms[A].Begin, Forms[A].Size};
  }

  /// A == K * B. A product past int64 equals no form.
  bool equal(AffId A, AffId B, int64_t K = 1) const {
    const Form FA = Forms[A], FB = Forms[B];
    int64_t P;
    if (__builtin_mul_overflow(FB.C, K, &P) || FA.C != P ||
        FA.Size != FB.Size)
      return false;
    for (uint32_t I = 0; I < FA.Size; ++I) {
      const Term X = Terms[FA.Begin + I], Y = Terms[FB.Begin + I];
      if (X.Sym != Y.Sym || __builtin_mul_overflow(Y.Coef, K, &P) ||
          X.Coef != P)
        return false;
    }
    return true;
  }

private:
  struct Form {
    int64_t C;
    uint32_t Begin, Size;
  };

  /// Builds a form with constant \p C from the terms of \p A that \p Edit
  /// keeps (returns true for), after \p Edit has rewritten them.
  template <typename Fn> AffId rewrite(AffId A, int64_t C, Fn &&Edit) {
    const Form FA = Forms[A];
    const size_t Begin = Terms.size();
    for (uint32_t I = FA.Begin; I < FA.Begin + FA.Size; ++I) {
      Term X = Terms[I];
      if (Edit(X))
        Terms.push_back(X);
    }
    return finish(C, Begin);
  }

  /// Discards the terms of a form under construction.
  std::nullopt_t drop(size_t Begin) {
    Terms.resize(Begin);
    return std::nullopt;
  }

  AffId finish(int64_t C, size_t Begin) {
    Forms.push_back({C, (uint32_t)Begin, (uint32_t)(Terms.size() - Begin)});
    return (AffId)Forms.size() - 1;
  }

  std::vector<Form> Forms;
  std::vector<Term> Terms;
};

/// What is known about one symbol.
struct SymInfo {
  enum class Kind : uint8_t {
    Opaque,    ///< Nothing.
    ArrayBase, ///< Base element index of Array; ≡ 0 mod its alignment.
    Congruent, ///< ≡ Rhs (mod Mod).
  };
  Kind K = Kind::Opaque;
  uint32_t Array = NoArray;
  int64_t Mod = 0;
  AffId Rhs = NoAff;
};

/// One step of a scenario path. Steps form a tree through their parents;
/// a state holds only its leaf, and the text is built for diagnostics.
struct PathStep {
  enum class Kind : uint8_t { Loop, Then, Else, Aligned, Fallback, Ge, Lt };
  uint32_t Parent;
  uint32_t Idx; ///< Loop, if or instruction index.
  Kind K;
};
constexpr uint32_t TopPath = ~0u;

/// One scenario of the abstract walk. Copying a state copies flat id
/// arrays; the affine forms themselves live in the pass's pool.
struct WalkState {
  std::vector<AffId> Env; ///< ValueId -> form; NoAff = not bound yet.
  /// Base alignment (bytes) assumed beyond the declared minimum, from the
  /// arm of an alignment version guard; per array, 0 = none.
  std::vector<uint32_t> AssumedAlign;
  /// Branch choices of min/max scenario splits: (A - B, sign), sign = +1
  /// meaning "A - B >= 0 on this path". Later splits over an equal (or
  /// negated) quantity reuse the choice, keeping scenarios feasible.
  std::vector<std::pair<AffId, int>> Signs;
  uint32_t Path = TopPath; ///< Leaf step of this scenario's path.
};

//===--- The verifier -----------------------------------------------------===//

class ModuleVerifier {
public:
  ModuleVerifier(const Function &Fn, const VerifyOptions &Options)
      : F(Fn), Opt(Options) {}

  Report run() {
    std::vector<std::string> StructErrs = ir::verify(F);
    for (const std::string &E : StructErrs)
      diag(Check::Structure, Severity::Error, "", NoInstr, E);
    if (!StructErrs.empty())
      return Rep; // Deeper analyses assume a well-formed module.

    buildIndexes();
    hintSanity();
    checkLoopBounds();
    checkIdiomChains();
    checkMaxSafeVF();

    std::vector<TargetDesc> Targets =
        Opt.Targets.empty() ? target::allTargets() : Opt.Targets;
    checkGuardReachability(Targets);
    for (const TargetDesc &Td : Targets)
      targetPass(Td);
    Rep.TargetsChecked = (unsigned)Targets.size();
    return Rep;
  }

private:
  const Function &F;
  const VerifyOptions &Opt;
  Report Rep;

  /// Module-wide indexes, built once. Users of value V are the
  /// instruction indices UserIdx[UserBegin[V] .. UserBegin[V + 1]), one
  /// entry per operand slot, in instruction order.
  std::vector<uint32_t> UserBegin, UserIdx;
  /// init value -> the last loop-carried variable it initializes.
  std::vector<const LoopStmt::CarriedVar *> CarriedByInit;
  std::vector<bool> IsIfCond;       ///< Value is some if's condition.
  std::vector<uint32_t> WidenMults; ///< widen_mult_lo/hi instructions.
  std::set<std::tuple<int, int, std::string, uint32_t, std::string>> SeenDiag;

  // Per-target pass state.
  const TargetDesc *T = nullptr;
  std::map<ValueId, bool> DetFold; ///< Guards folding identically everywhere.
  std::map<const Region *, bool> RegionScalar;
  std::vector<SymInfo> Syms;
  AffPool Affs;
  std::vector<PathStep> Paths;   ///< Scenario path steps.
  std::vector<uint32_t> BaseSym; ///< Array -> its ArrayBase symbol.
  std::set<uint32_t> ObSeen, ObFail, ConsFail;
  bool BudgetNoted = false;
  /// Certificate facts under construction, keyed by instruction index.
  /// Align claims are recorded on every successful obligation discharge
  /// and withdrawn wholesale if any scenario fails; bounds claims come
  /// from a separate structural pass.
  std::map<uint32_t, analysis::AccessFact> CertFacts;

  //===--- Infrastructure -------------------------------------------------===//

  void diag(Check A, Severity S, const std::string &Tgt, uint32_t Idx,
            const std::string &Why) {
    auto Key = std::make_tuple((int)A, (int)S, Tgt, Idx, Why.substr(0, 48));
    if (!SeenDiag.insert(Key).second)
      return;
    Diagnostic D;
    D.Analysis = A;
    D.Sev = S;
    D.Target = Tgt;
    D.InstrIdx = Idx;
    D.Why = Why;
    Rep.Diags.push_back(std::move(D));
  }

  void buildIndexes() {
    const size_t NV = F.Values.size();
    UserBegin.assign(NV + 1, 0);
    for (const Instr &I : F.Instrs)
      for (ValueId V : I.Ops)
        ++UserBegin[V + 1];
    for (size_t V = 0; V < NV; ++V)
      UserBegin[V + 1] += UserBegin[V];
    UserIdx.resize(UserBegin[NV]);
    std::vector<uint32_t> Fill(UserBegin.begin(), UserBegin.end() - 1);
    for (uint32_t Idx = 0; Idx < F.Instrs.size(); ++Idx) {
      const Instr &I = F.Instrs[Idx];
      for (ValueId V : I.Ops)
        UserIdx[Fill[V]++] = Idx;
      if (I.Op == Opcode::WidenMultLo || I.Op == Opcode::WidenMultHi)
        WidenMults.push_back(Idx);
    }
    CarriedByInit.assign(NV, nullptr);
    for (const LoopStmt &L : F.Loops)
      for (const LoopStmt::CarriedVar &C : L.Carried)
        CarriedByInit[C.Init] = &C;
    IsIfCond.assign(NV, false);
    for (const IfStmt &S : F.Ifs)
      IsIfCond[S.Cond] = true;
  }

  bool hasUsers(ValueId V) const { return UserBegin[V + 1] > UserBegin[V]; }

  const Instr *definingInstr(ValueId V) const {
    if (V >= F.Values.size() || F.Values[V].Def != ValueDef::Instr)
      return nullptr;
    return &F.Instrs[F.Values[V].A];
  }

  const Instr *guardOf(ValueId V) const {
    const Instr *I = definingInstr(V);
    return I && I->Op == Opcode::VersionGuard ? I : nullptr;
  }

  static bool takesHint(Opcode Op) {
    switch (Op) {
    case Opcode::ALoad:
    case Opcode::ULoad:
    case Opcode::AStore:
    case Opcode::UStore:
    case Opcode::AlignLoad:
    case Opcode::RealignLoad:
    case Opcode::GetRT:
      return true;
    default:
      return false;
    }
  }

  /// Index operand of a memory idiom.
  static ValueId memIndex(const Instr &I) {
    return I.Op == Opcode::RealignLoad ? I.Ops[3] : I.Ops[0];
  }

  std::string instrLabel(uint32_t Idx) const {
    return std::string(opcodeMnemonic(F.Instrs[Idx].Op)) + " #" +
           std::to_string(Idx);
  }

  std::string arrayLabel(uint32_t A) const {
    return A < F.Arrays.size() ? "'" + F.Arrays[A].Name + "'" : "<bad array>";
  }

  //===--- Target-independent structural checks ---------------------------===//

  /// mis/mod claims must use the reference modulus and an element-granular,
  /// in-range misalignment (paper Sec. III-B(c)).
  void hintSanity() {
    for (uint32_t Idx = 0; Idx < F.Instrs.size(); ++Idx) {
      const Instr &I = F.Instrs[Idx];
      if (!takesHint(I.Op))
        continue;
      const AlignHint &H = I.Hint;
      if (H.Mod == 0)
        continue; // Null hint: always admissible.
      if (H.Mod != analysis::AlignModBytes) {
        diag(Check::HintConsistency, Severity::Error, "", Idx,
             "hint modulus " + std::to_string(H.Mod) +
                 " is not the reference modulus " +
                 std::to_string(analysis::AlignModBytes));
        continue;
      }
      if (H.Mis < 0 || H.Mis >= H.Mod) {
        diag(Check::HintConsistency, Severity::Error, "", Idx,
             "hint misalignment " + std::to_string(H.Mis) +
                 " outside [0, " + std::to_string(H.Mod) + ")");
        continue;
      }
      if (I.Array < F.Arrays.size()) {
        int64_t ES = scalarSize(F.Arrays[I.Array].Elem);
        if (ES > 0 && H.Mis % ES != 0)
          diag(Check::HintConsistency, Severity::Error, "", Idx,
               "hint misalignment " + std::to_string(H.Mis) +
                   " is not a multiple of the element size " +
                   std::to_string(ES));
      }
    }
  }

  /// loop_bound pairs a vector-version trip count with the scalar-version
  /// count; the vectorizer always pairs with the literal 0 because scalar
  /// versions never peel.
  void checkLoopBounds() {
    for (uint32_t Idx = 0; Idx < F.Instrs.size(); ++Idx) {
      const Instr &I = F.Instrs[Idx];
      if (I.Op != Opcode::LoopBound)
        continue;
      const Instr *D = definingInstr(I.Ops[1]);
      if (!D || D->Op != Opcode::ConstInt || D->IntImm != 0)
        diag(Check::HintConsistency, Severity::Warning, "", Idx,
             "loop_bound scalar-version count is not the constant 0 "
             "(scalar versions must not peel)");
    }
  }

  //===--- max_safe_vf re-derivation --------------------------------------===//

  struct VecAccess {
    uint32_t Array = NoArray;
    ValueId Idx = NoValue;
    bool IsStore = false;
    uint32_t Instr = 0;
  };

  void collectVecAccesses(const Region &R, std::vector<VecAccess> &Out) const {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr: {
        const Instr &I = F.Instrs[N.Index];
        switch (I.Op) {
        case Opcode::ALoad:
        case Opcode::ULoad:
        case Opcode::AlignLoad:
        case Opcode::RealignLoad:
          Out.push_back({I.Array, memIndex(I), false, N.Index});
          break;
        case Opcode::AStore:
        case Opcode::UStore:
          Out.push_back({I.Array, memIndex(I), true, N.Index});
          break;
        default:
          break;
        }
        break;
      }
      case NodeKind::Loop:
        collectVecAccesses(F.Loops[N.Index].Body, Out);
        break;
      case NodeKind::If:
        collectVecAccesses(F.Ifs[N.Index].Then, Out);
        collectVecAccesses(F.Ifs[N.Index].Else, Out);
        break;
      }
    }
  }

  /// Re-derives the dependence-distance claim of every vector main loop
  /// from the bytecode: same-array (store, access) pairs whose index
  /// difference is a nonzero constant bound the safe VF exactly the way
  /// the offline analysis bounded it (min |distance|). Pairs whose
  /// difference carries symbolic terms (e.g. multi-part offsets of
  /// get_VF) are VF-spaced by construction and don't constrain.
  void checkMaxSafeVF() {
    analysis::AffineAnalysis AA(F);
    for (uint32_t LI = 0; LI < F.Loops.size(); ++LI) {
      const LoopStmt &L = F.Loops[LI];
      if (L.Role != LoopRole::VecMain) {
        if (L.MaxSafeVF != 0)
          diag(Check::HintConsistency, Severity::Warning, "", NoInstr,
               "loop " + std::to_string(LI) +
                   ": dependence-distance hint on a non-vectorized loop");
        continue;
      }
      std::vector<VecAccess> Acc;
      collectVecAccesses(L.Body, Acc);
      int64_t MinDist = 0;
      bool Any = false;
      for (const VecAccess &S : Acc) {
        if (!S.IsStore)
          continue;
        for (const VecAccess &A : Acc) {
          if (A.Instr == S.Instr || A.Array != S.Array)
            continue;
          analysis::AffineExpr D = AA.of(S.Idx).sub(AA.of(A.Idx));
          if (!D.isConstant() || D.Const == 0)
            continue;
          int64_t Dist = D.Const < 0 ? -D.Const : D.Const;
          MinDist = Any ? std::min(MinDist, Dist) : Dist;
          Any = true;
        }
      }
      std::string Loop = "loop " + std::to_string(LI);
      if (Any) {
        if (L.MaxSafeVF == 0)
          diag(Check::HintConsistency, Severity::Error, "", NoInstr,
               Loop + ": claims an unconstrained VF but carries a "
                      "same-array dependence at distance " +
                   std::to_string(MinDist));
        else if (L.MaxSafeVF > MinDist)
          diag(Check::HintConsistency, Severity::Error, "", NoInstr,
               Loop + ": claims max_safe_vf " + std::to_string(L.MaxSafeVF) +
                   " but a same-array dependence has distance " +
                   std::to_string(MinDist));
        else if (L.MaxSafeVF < MinDist)
          diag(Check::HintConsistency, Severity::Warning, "", NoInstr,
               Loop + ": max_safe_vf " + std::to_string(L.MaxSafeVF) +
                   " is more conservative than the derived distance " +
                   std::to_string(MinDist));
      } else if (L.MaxSafeVF != 0) {
        diag(Check::HintConsistency, Severity::Warning, "", NoInstr,
             Loop + ": claims max_safe_vf " + std::to_string(L.MaxSafeVF) +
                 " but no constant-distance dependence pair is derivable");
      }
    }
  }

  //===--- Idiom-chain discipline -----------------------------------------===//

  void checkIdiomChains() {
    for (uint32_t Idx = 0; Idx < F.Instrs.size(); ++Idx) {
      const Instr &I = F.Instrs[Idx];
      switch (I.Op) {
      case Opcode::RealignLoad:
        checkRealignChain(Idx, I);
        break;
      case Opcode::InitReduc:
        checkReductionChain(Idx, I);
        break;
      case Opcode::WidenMultLo:
        checkWidenPair(Idx, I, Opcode::WidenMultHi);
        break;
      case Opcode::WidenMultHi:
        checkWidenPair(Idx, I, Opcode::WidenMultLo);
        break;
      case Opcode::VersionGuard:
        checkGuardUses(Idx, I);
        break;
      default:
        break;
      }
    }
  }

  void checkRealignChain(uint32_t Idx, const Instr &I) {
    const Instr *RT = definingInstr(I.Ops[2]);
    if (!RT || RT->Op != Opcode::GetRT || RT->Array != I.Array)
      diag(Check::IdiomChains, Severity::Error, "", Idx,
           "realign_load realignment token is not a get_rt of array " +
               arrayLabel(I.Array));
    for (unsigned K = 0; K < 2; ++K) {
      ValueId P = I.Ops[K];
      if (P < F.Values.size() &&
          F.Values[P].Def == ValueDef::LoopCarried)
        continue; // The carried "previous chunk" of a software pipeline.
      const Instr *D = definingInstr(P);
      if (D && D->Op == Opcode::AlignLoad && D->Array == I.Array)
        continue;
      diag(Check::IdiomChains, Severity::Error, "", Idx,
           std::string("realign_load ") + (K == 0 ? "prev" : "next") +
               "-chunk operand is neither an align_load of array " +
               arrayLabel(I.Array) + " nor a loop-carried chunk");
    }
  }

  void checkReductionChain(uint32_t Idx, const Instr &I) {
    const LoopStmt::CarriedVar *CV = CarriedByInit[I.Result];
    if (!CV) {
      diag(Check::IdiomChains, Severity::Warning, "", Idx,
           "init_reduc result does not initialize a loop-carried "
           "accumulator");
      return;
    }
    // Follow the accumulator's post-loop value through part-combining ops
    // until a collapsing idiom; the combiner family must agree with it.
    std::set<ValueId> Visited{CV->Result};
    std::deque<ValueId> Work{CV->Result};
    bool SawAdd = false, SawMin = false, SawMax = false, SawSat = false;
    bool Reached = false, Mismatch = false;
    while (!Work.empty()) {
      ValueId V = Work.front();
      Work.pop_front();
      for (uint32_t U = UserBegin[V]; U < UserBegin[V + 1]; ++U) {
        const Instr &UI = F.Instrs[UserIdx[U]];
        switch (UI.Op) {
        case Opcode::Add:
          SawAdd = true;
          if (UI.hasResult() && Visited.insert(UI.Result).second)
            Work.push_back(UI.Result);
          break;
        case Opcode::AddSatS:
        case Opcode::AddSatU:
        case Opcode::SubSatS:
        case Opcode::SubSatU:
          // Saturating arithmetic is not associative, so it can never
          // legally combine partial accumulators, whatever the collapse.
          SawSat = true;
          if (UI.hasResult() && Visited.insert(UI.Result).second)
            Work.push_back(UI.Result);
          break;
        case Opcode::Min:
          SawMin = true;
          if (UI.hasResult() && Visited.insert(UI.Result).second)
            Work.push_back(UI.Result);
          break;
        case Opcode::Max:
          SawMax = true;
          if (UI.hasResult() && Visited.insert(UI.Result).second)
            Work.push_back(UI.Result);
          break;
        case Opcode::ReducPlus:
        case Opcode::DotProduct:
          Reached = true;
          Mismatch |= SawMin || SawMax;
          break;
        case Opcode::ReducMax:
          Reached = true;
          Mismatch |= SawAdd || SawMin;
          break;
        case Opcode::ReducMin:
          Reached = true;
          Mismatch |= SawAdd || SawMax;
          break;
        default:
          break;
        }
      }
    }
    if (!Reached)
      diag(Check::IdiomChains, Severity::Warning, "", Idx,
           "init_reduc accumulator is never collapsed by a reduc_* or "
           "dot_product idiom");
    else if (Mismatch || SawSat)
      diag(Check::IdiomChains, Severity::Warning, "", Idx,
           SawSat ? "saturating op combines reduction parts (saturating "
                    "arithmetic is not associative)"
                  : "part-combining operations disagree with the final "
                    "reduction idiom");
  }

  void checkWidenPair(uint32_t Idx, const Instr &I, Opcode Partner) {
    for (uint32_t J : WidenMults)
      if (F.Instrs[J].Op == Partner && F.Instrs[J].Ops == I.Ops)
        return;
    diag(Check::IdiomChains, Severity::Warning, "", Idx,
         std::string(opcodeMnemonic(I.Op)) + " has no matching " +
             opcodeMnemonic(Partner) +
             " over the same operands (half the lanes are dropped)");
  }

  void checkGuardUses(uint32_t Idx, const Instr &I) {
    if (!IsIfCond[I.Result])
      diag(Check::Guards, Severity::Warning, "", Idx,
           "version_guard result is never an if condition (dangling "
           "version guard)");
    if (hasUsers(I.Result))
      diag(Check::Guards, Severity::Warning, "", Idx,
           "version_guard result is used as a data operand");
  }

  //===--- Guard analysis -------------------------------------------------===//

  std::optional<bool> detFoldOf(const Instr &G, const TargetDesc &Td) const {
    // Weak tier + treated-as-nested + unknown bases: exactly the folds
    // that happen identically in every tier and runtime world.
    jit::RuntimeInfo RT = jit::RuntimeInfo::unknown(F.Arrays.size());
    return jit::foldGuardStatic(G, Td, RT, jit::Tier::Weak,
                                /*NestedInLoop=*/true);
  }

  /// Warns when a versioned body can never be compiled on any verified
  /// target (the guard folds the same way everywhere).
  void checkGuardReachability(const std::vector<TargetDesc> &Targets) {
    for (uint32_t IfIdx = 0; IfIdx < F.Ifs.size(); ++IfIdx) {
      const Instr *G = guardOf(F.Ifs[IfIdx].Cond);
      if (!G || (G->Guard != GuardKind::TypeSupported &&
                 G->Guard != GuardKind::PreferOuterLoop))
        continue;
      bool ThenLive = false, ElseLive = false;
      for (const TargetDesc &Td : Targets) {
        std::optional<bool> Fd = detFoldOf(*G, Td);
        if (!Fd) {
          ThenLive = ElseLive = true;
          break;
        }
        (*Fd ? ThenLive : ElseLive) = true;
      }
      if (!ThenLive)
        diag(Check::Guards, Severity::Warning, "", NoInstr,
             "if " + std::to_string(IfIdx) +
                 ": guarded version is unreachable on every verified "
                 "target");
      if (!ElseLive)
        diag(Check::Guards, Severity::Warning, "", NoInstr,
             "if " + std::to_string(IfIdx) +
                 ": fall-back version is unreachable on every verified "
                 "target");
    }
  }

  void guardNotes() {
    DetFold.clear();
    for (uint32_t Idx = 0; Idx < F.Instrs.size(); ++Idx) {
      const Instr &I = F.Instrs[Idx];
      if (I.Op != Opcode::VersionGuard)
        continue;
      if (std::optional<bool> Fd = detFoldOf(I, *T)) {
        DetFold[I.Result] = *Fd;
        diag(Check::Guards, Severity::Note, T->Name, Idx,
             std::string("version_guard folds to ") +
                 (*Fd ? "true" : "false") + " in every lowering");
        continue;
      }
      if (I.Guard == GuardKind::BasesAligned && T->VSBytes > 0 &&
          !I.GuardArgs.empty()) {
        bool AllStatic = true;
        for (uint32_t A : I.GuardArgs)
          AllStatic &= A < F.Arrays.size() &&
                       F.Arrays[A].BaseAlign >= T->VSBytes;
        if (AllStatic)
          diag(Check::Guards, Severity::Note, T->Name, Idx,
               "alignment guard is statically true (declared base "
               "alignments already satisfy it); fall-back version is "
               "dead");
      }
    }
  }

  //===--- Per-target region-mode planning --------------------------------===//
  //
  // Mirror of the JIT's planner (jit/Jit.cpp planRegion/planNodes) through
  // the shared strategy model, with optimistic hint decisions.

  bool regionScalar(const Region &R) const {
    auto It = RegionScalar.find(&R);
    return It == RegionScalar.end() ? true : It->second;
  }

  std::string vectorBlockerOpt(const Region &R) const {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr: {
        const Instr &I = F.Instrs[N.Index];
        std::string S = jit::vectorBlockReason(
            F, I, *T, jit::hintCouldProveAligned(I.Hint, *T));
        if (!S.empty())
          return S;
        break;
      }
      case NodeKind::Loop: {
        std::string S = vectorBlockerOpt(F.Loops[N.Index].Body);
        if (!S.empty())
          return S;
        break;
      }
      case NodeKind::If:
        break; // Arms decide for themselves.
      }
    }
    return "";
  }

  void planRegion(const Region &R, bool ParentScalar) {
    bool Scalar = ParentScalar;
    if (!Scalar && !vectorBlockerOpt(R).empty())
      Scalar = true;
    RegionScalar[&R] = Scalar;
    planNodes(R, Scalar);
  }

  void planNodes(const Region &R, bool Scalar) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        break;
      case NodeKind::Loop: {
        const LoopStmt &L = F.Loops[N.Index];
        bool LoopScalar = Scalar;
        if (!LoopScalar && L.MaxSafeVF > 0 &&
            jit::loopVF(F, L, *T) > L.MaxSafeVF)
          LoopScalar = true;
        if (!LoopScalar && !vectorBlockerOpt(L.Body).empty())
          LoopScalar = true;
        RegionScalar[&L.Body] = LoopScalar;
        planNodes(L.Body, LoopScalar);
        break;
      }
      case NodeKind::If: {
        const IfStmt &S = F.Ifs[N.Index];
        auto Folded = DetFold.find(S.Cond);
        if (Folded != DetFold.end()) {
          planRegion(Folded->second ? S.Then : S.Else, Scalar);
          RegionScalar[&(Folded->second ? S.Else : S.Then)] = Scalar;
        } else {
          planRegion(S.Then, Scalar);
          planRegion(S.Else, Scalar);
        }
        break;
      }
      }
    }
  }

  //===--- The abstract walk ----------------------------------------------===//

  uint32_t newSym(SymInfo::Kind K = SymInfo::Kind::Opaque,
                  uint32_t Array = NoArray) {
    SymInfo S;
    S.K = K;
    S.Array = Array;
    Syms.push_back(std::move(S));
    return (uint32_t)Syms.size() - 1;
  }

  AffId newSymAff() { return Affs.sym(newSym()); }

  /// \p Form, or a fresh opaque symbol when it left int64.
  AffId orFresh(std::optional<AffId> Form) {
    return Form ? *Form : newSymAff();
  }

  /// The form bound to \p V, binding a fresh opaque symbol on first use.
  AffId affOf(WalkState &S, ValueId V) {
    AffId &Id = S.Env[V];
    if (Id == NoAff)
      Id = newSymAff();
    return Id;
  }

  uint32_t addPath(uint32_t Parent, PathStep::Kind K, uint32_t Idx) {
    Paths.push_back({Parent, Idx, K});
    return (uint32_t)Paths.size() - 1;
  }

  std::string pathText(uint32_t Leaf) const {
    if (Leaf == TopPath)
      return "<top>";
    static const char *const Affix[][2] = {
        {"/L", ""}, {"/then", ""}, {"/else", ""}, {"/aligned", ""},
        {"/fallback", ""}, {"/i", "+"}, {"/i", "-"}}; // By PathStep::Kind.
    std::string Out;
    for (uint32_t P = Leaf; P != TopPath; P = Paths[P].Parent) {
      const char *const *A = Affix[(int)Paths[P].K];
      Out.insert(0, A[0] + std::to_string(Paths[P].Idx) + A[1]);
    }
    return Out;
  }

  int64_t assumedAlignBytes(const WalkState &S, uint32_t A,
                            uint32_t Bump32Array) const {
    int64_t Bytes =
        std::max<int64_t>(F.Arrays[A].BaseAlign, S.AssumedAlign[A]);
    if (A == Bump32Array)
      Bytes = std::max<int64_t>(Bytes, analysis::AlignModBytes);
    return Bytes;
  }

  int64_t alignElems(const WalkState &S, uint32_t A,
                     uint32_t Bump32Array) const {
    int64_t ES = scalarSize(F.Arrays[A].Elem);
    if (ES <= 0)
      return 1;
    return std::max<int64_t>(assumedAlignBytes(S, A, Bump32Array) / ES, 1);
  }

  /// Reduces \p A modulo \p W by substituting congruence facts, highest
  /// symbol first (facts only reference older symbols, so this
  /// terminates). \returns the constant residue, or nullopt when some
  /// symbol without a usable fact survives. \p Bump32Array names an array
  /// whose base may additionally be assumed 32-byte aligned (the premise
  /// of an if-jit-aligns hint). When \p Reqs is non-null, every array-base
  /// alignment assumption the reduction consumes is appended to it — the
  /// derivation is only valid in worlds where all of them hold, and the
  /// certificate must say so.
  std::optional<int64_t> residueMod(const WalkState &S, AffId A, int64_t W,
                                    uint32_t Bump32Array,
                                    std::vector<analysis::BaseAlignReq>
                                        *Reqs = nullptr) {
    if (W <= 1)
      return 0;
    for (int Iter = 0; Iter < 64; ++Iter) {
      std::span<const AffPool::Term> Ts = Affs.terms(A);
      auto Hit = std::find_if(Ts.rbegin(), Ts.rend(),
                              [W](const AffPool::Term &X) {
                                return floorMod(X.Coef, W) != 0;
                              });
      if (Hit == Ts.rend())
        return floorMod(Affs.constOf(A), W);
      const auto [Sid, Coef] = *Hit;
      const SymInfo &SI = Syms[Sid];
      int64_t M = 0;
      AffId Rhs = NoAff; // NoAff: the symbol is congruent to 0.
      if (SI.K == SymInfo::Kind::ArrayBase) {
        M = alignElems(S, SI.Array, Bump32Array);
        if (Reqs) {
          int64_t ES =
              std::max<int64_t>(scalarSize(F.Arrays[SI.Array].Elem), 1);
          Reqs->push_back(
              {SI.Array, static_cast<uint64_t>(M * ES)});
        }
      } else if (SI.K == SymInfo::Kind::Congruent) {
        M = SI.Mod;
        Rhs = SI.Rhs;
      } else {
        return std::nullopt;
      }
      // Coef*Sym = Coef*Rhs + Coef*M*t; the t part must vanish mod W.
      int64_t CM;
      if (M <= 0 || __builtin_mul_overflow(Coef, M, &CM) ||
          floorMod(CM, W) != 0)
        return std::nullopt;
      A = Affs.without(A, Sid);
      if (Rhs != NoAff) {
        std::optional<AffId> Sum = Affs.add(A, Rhs, Coef);
        if (!Sum)
          return std::nullopt;
        A = *Sum;
      }
    }
    return std::nullopt;
  }

  void targetPass(const TargetDesc &Td) {
    T = &Td;
    guardNotes(); // Also computes DetFold for the planner and walk.
    if (!Td.hasSimd())
      return; // Fully scalarized: scalar accesses never trap.
    RegionScalar.clear();
    planRegion(F.Body, /*ParentScalar=*/false);

    Syms.clear();
    Affs.clear();
    Paths.clear();
    ObSeen.clear();
    ObFail.clear();
    ConsFail.clear();
    CertFacts.clear();
    BudgetNoted = false;
    BaseSym.assign(F.Arrays.size(), 0);
    WalkState S0;
    S0.Env.assign(F.Values.size(), NoAff);
    S0.AssumedAlign.assign(F.Arrays.size(), 0);
    for (uint32_t A = 0; A < F.Arrays.size(); ++A)
      BaseSym[A] = newSym(SymInfo::Kind::ArrayBase, A);
    for (ValueId P : F.Params)
      S0.Env[P] = newSymAff();
    if (!regionScalar(F.Body)) {
      std::vector<WalkState> States;
      States.push_back(std::move(S0));
      walkRegionNodes(F.Body, States);
    }
    Rep.ObligationsFailed += ObFail.size();
    Rep.ObligationsProved += ObSeen.size() - ObFail.size();

    // Certificate assembly. Align facts survive only when *every* scenario
    // proved them — any failed obligation on the access withdraws the
    // claim. Bounds facts come from the structural pass.
    for (uint32_t Idx : ObFail) {
      auto It = CertFacts.find(Idx);
      if (It != CertFacts.end())
        It->second.HasAlign = false;
    }
    // Static ranges only: no parameter values, so one evaluator serves
    // every access of this target.
    analysis::BoundsEvaluator Bounds(
        F, Td.VSBytes,
        [](const std::string &) { return std::optional<int64_t>(); });
    collectBoundsFacts(F.Body, /*LoopIdx=*/~0u, Bounds);
    analysis::SafetyCertificate C;
    C.TargetName = Td.Name;
    C.VSBytes = Td.VSBytes;
    C.FnHash = ir::hashFunction(F);
    for (auto &[Idx, Fa] : CertFacts)
      if (Fa.HasAlign || Fa.HasBounds)
        C.Facts.push_back(Fa);
    if (!C.Facts.empty())
      Rep.Certificates.push_back(std::move(C));
  }

  void walkRegionNodes(const Region &R, std::vector<WalkState> &States) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr:
        // evalInstr may fork States; forks already carry this
        // instruction's binding and join the walk at the next node.
        for (size_t SI = 0; SI < States.size(); ++SI)
          evalInstr(N.Index, States, SI);
        break;
      case NodeKind::Loop:
        for (WalkState &S : States)
          walkLoop(N.Index, S);
        break;
      case NodeKind::If:
        for (WalkState &S : States)
          walkIf(N.Index, S);
        break;
      }
    }
  }

  void walkLoop(uint32_t LoopIdx, WalkState &S) {
    const LoopStmt &L = F.Loops[LoopIdx];
    AffId Lo = affOf(S, L.Lower);
    AffId Up = affOf(S, L.Upper);
    AffId St = affOf(S, L.Step);
    std::optional<AffId> Span = Affs.add(Up, Lo, -1);
    bool KnownEmpty =
        Span && Affs.isConst(*Span) && Affs.constOf(*Span) <= 0;
    if (!KnownEmpty && !regionScalar(L.Body)) {
      WalkState B = S;
      B.Path = addPath(S.Path, PathStep::Kind::Loop, LoopIdx);
      // iv = Lower + Step * k for an opaque iteration count k.
      if (Affs.isConst(St) && Affs.constOf(St) != 0)
        B.Env[L.IndVar] = orFresh(Affs.add(Lo, newSymAff(), Affs.constOf(St)));
      else
        B.Env[L.IndVar] = newSymAff();
      for (const LoopStmt::CarriedVar &CV : L.Carried)
        B.Env[CV.Phi] = newSymAff();
      std::vector<WalkState> Body;
      Body.push_back(std::move(B));
      walkRegionNodes(L.Body, Body);
      // Body-local scenario splits die here: nothing escapes a loop but
      // its carried results, and those are opaque below.
    }
    for (const LoopStmt::CarriedVar &CV : L.Carried) {
      AffId R = newSymAff();
      if (CV.Result < S.Env.size()) // Unchecked by ir::verify; never read.
        S.Env[CV.Result] = R;
    }
  }

  void walkIf(uint32_t IfIdx, WalkState &S) {
    const IfStmt &If = F.Ifs[IfIdx];
    auto DF = DetFold.find(If.Cond);
    if (DF != DetFold.end()) {
      // The dead arm is never compiled on this target.
      walkArm(DF->second ? If.Then : If.Else, S,
              DF->second ? PathStep::Kind::Then : PathStep::Kind::Else,
              IfIdx, nullptr);
      return;
    }
    const Instr *G = guardOf(If.Cond);
    if (G && G->Guard == GuardKind::BasesAligned) {
      // Both arms are reachable depending on tier and runtime bases; the
      // guarded arm may assume VS-aligned bases for the guarded arrays.
      walkArm(If.Then, S, PathStep::Kind::Aligned, IfIdx, &G->GuardArgs);
      walkArm(If.Else, S, PathStep::Kind::Fallback, IfIdx, nullptr);
      return;
    }
    walkArm(If.Then, S, PathStep::Kind::Then, IfIdx, nullptr);
    walkArm(If.Else, S, PathStep::Kind::Else, IfIdx, nullptr);
  }

  void walkArm(const Region &Arm, const WalkState &S, PathStep::Kind K,
               uint32_t IfIdx, const std::vector<uint32_t> *AlignedArrays) {
    if (regionScalar(Arm))
      return; // Scalar lowering: per-lane accesses cannot trap.
    WalkState A = S;
    A.Path = addPath(S.Path, K, IfIdx);
    if (AlignedArrays)
      for (uint32_t Arr : *AlignedArrays) {
        uint32_t &Cur = A.AssumedAlign[Arr];
        Cur = std::max(Cur, T->VSBytes);
      }
    std::vector<WalkState> States;
    States.push_back(std::move(A));
    walkRegionNodes(Arm, States);
  }

  int64_t machineConst(ScalarKind K) const {
    int64_t ES = scalarSize(K);
    return ES > 0 ? (int64_t)T->VSBytes / ES : 0;
  }

  void evalInstr(uint32_t Idx, std::vector<WalkState> &States, size_t SI) {
    const Instr &I = F.Instrs[Idx];
    checkMemoryInstr(Idx, I, States[SI]);
    if (!I.hasResult())
      return;
    WalkState &S = States[SI];
    switch (I.Op) {
    case Opcode::ConstInt:
      S.Env[I.Result] = Affs.constant(I.IntImm);
      return;
    case Opcode::Add: {
      AffId A = affOf(S, I.Ops[0]), B = affOf(S, I.Ops[1]);
      S.Env[I.Result] = orFresh(Affs.add(A, B));
      return;
    }
    case Opcode::Sub: {
      AffId A = affOf(S, I.Ops[0]), B = affOf(S, I.Ops[1]);
      S.Env[I.Result] = orFresh(Affs.add(A, B, -1));
      return;
    }
    case Opcode::Neg:
      S.Env[I.Result] = orFresh(Affs.mulC(affOf(S, I.Ops[0]), -1));
      return;
    case Opcode::Mul: {
      AffId A = affOf(S, I.Ops[0]), B = affOf(S, I.Ops[1]);
      if (Affs.isConst(A))
        S.Env[I.Result] = orFresh(Affs.mulC(B, Affs.constOf(A)));
      else if (Affs.isConst(B))
        S.Env[I.Result] = orFresh(Affs.mulC(A, Affs.constOf(B)));
      else
        S.Env[I.Result] = newSymAff();
      return;
    }
    case Opcode::Shl: {
      AffId A = affOf(S, I.Ops[0]), B = affOf(S, I.Ops[1]);
      const int64_t Sh = Affs.constOf(B);
      if (Affs.isConst(B) && Sh >= 0 && Sh < 62)
        S.Env[I.Result] = orFresh(Affs.mulC(A, (int64_t)1 << Sh));
      else
        S.Env[I.Result] = newSymAff();
      return;
    }
    case Opcode::Div: {
      AffId A = affOf(S, I.Ops[0]), B = affOf(S, I.Ops[1]);
      std::optional<AffId> Q;
      if (Affs.isConst(B))
        Q = Affs.divExact(A, Affs.constOf(B));
      S.Env[I.Result] = Q ? *Q : newSymAff();
      return;
    }
    case Opcode::Rem: {
      AffId A = affOf(S, I.Ops[0]), B = affOf(S, I.Ops[1]);
      // Truncated C remainder still satisfies r ≡ x (mod m); keep only
      // power-of-two moduli so wrap-around cannot break the fact.
      if (Affs.isConst(B) && isPow2(Affs.constOf(B))) {
        uint32_t Sy = newSym(SymInfo::Kind::Congruent);
        Syms[Sy].Mod = Affs.constOf(B);
        Syms[Sy].Rhs = A;
        S.Env[I.Result] = Affs.sym(Sy);
      } else {
        S.Env[I.Result] = newSymAff();
      }
      return;
    }
    case Opcode::Min:
    case Opcode::Max:
      evalMinMax(Idx, I, States, SI);
      return;
    case Opcode::GetVF:
    case Opcode::GetAlignLimit:
      // This instruction is only walked in vector-mode regions, where the
      // JIT materializes VS / sizeof(T).
      S.Env[I.Result] = Affs.constant(machineConst(I.TyParam));
      return;
    case Opcode::GetMisalign: {
      int64_t AL = I.Array < F.Arrays.size()
                       ? machineConst(F.Arrays[I.Array].Elem)
                       : 0;
      if (AL <= 1) {
        S.Env[I.Result] = Affs.constant(0);
      } else {
        // (base/ES + off) mod AL: congruent to BaseElems + off.
        uint32_t Sy = newSym(SymInfo::Kind::Congruent);
        Syms[Sy].Mod = AL;
        // base + imm: coefficient 1 and constant imm, never out of range.
        Syms[Sy].Rhs =
            *Affs.add(Affs.sym(BaseSym[I.Array]), Affs.constant(I.IntImm));
        S.Env[I.Result] = Affs.sym(Sy);
      }
      return;
    }
    case Opcode::LoopBound:
      // Vector-mode lowering keeps the vector-version count.
      S.Env[I.Result] = affOf(S, I.Ops[0]);
      return;
    default:
      S.Env[I.Result] = newSymAff();
      return;
    }
  }

  void evalMinMax(uint32_t Idx, const Instr &I,
                  std::vector<WalkState> &States, size_t SI) {
    WalkState &S = States[SI];
    if (!I.Ty.isScalar() || !isIntKind(I.Ty.Elem)) {
      S.Env[I.Result] = newSymAff();
      return;
    }
    AffId A = affOf(S, I.Ops[0]);
    AffId B = affOf(S, I.Ops[1]);
    std::optional<AffId> Diff = Affs.add(A, B, -1);
    if (!Diff) {
      S.Env[I.Result] = newSymAff();
      return;
    }
    const AffId D = *Diff;
    bool IsMax = I.Op == Opcode::Max;
    int Sign = 0;
    if (Affs.isConst(D)) {
      Sign = Affs.constOf(D) >= 0 ? 1 : -1;
    } else {
      for (const auto &[FD, FS] : S.Signs) {
        if (Affs.equal(FD, D)) {
          Sign = FS;
          break;
        }
        if (Affs.equal(FD, D, -1)) {
          Sign = -FS;
          break;
        }
      }
    }
    if (Sign != 0) {
      S.Env[I.Result] = (Sign > 0) == IsMax ? A : B;
      return;
    }
    if (States.size() >= Opt.ScenarioBudget) {
      if (!BudgetNoted) {
        BudgetNoted = true;
        diag(Check::Alignment, Severity::Note, T->Name, Idx,
             "scenario budget exhausted; min/max result treated as "
             "opaque (sound: proofs may fail, never pass wrongly)");
      }
      S.Env[I.Result] = newSymAff();
      return;
    }
    ++Rep.ScenarioForks;
    WalkState Other = S;
    S.Signs.push_back({D, 1});
    S.Env[I.Result] = IsMax ? A : B;
    S.Path = addPath(S.Path, PathStep::Kind::Ge, Idx);
    Other.Signs.push_back({D, -1});
    Other.Env[I.Result] = IsMax ? B : A;
    Other.Path = addPath(Other.Path, PathStep::Kind::Lt, Idx);
    States.push_back(std::move(Other)); // Invalidates S; must be last.
  }

  //===--- Proof obligations and hint consistency -------------------------===//

  void checkMemoryInstr(uint32_t Idx, const Instr &I, WalkState &S) {
    switch (I.Op) {
    case Opcode::ALoad:
    case Opcode::AStore:
      // Always lowered aligned in vector-mode regions.
      obligation(Idx, I, S);
      hintConsistency(Idx, I, S);
      break;
    case Opcode::ULoad:
    case Opcode::UStore:
    case Opcode::RealignLoad:
      // Obligated only in the worlds where the hint promotes the access
      // to an aligned one.
      if (jit::hintCouldProveAligned(I.Hint, *T))
        obligation(Idx, I, S);
      hintConsistency(Idx, I, S);
      break;
    case Opcode::AlignLoad:
      // The JIT floors the address to a VS boundary: discharged by
      // construction.
      ObSeen.insert(Idx);
      break;
    case Opcode::GetRT:
      hintConsistency(Idx, I, S);
      break;
    default:
      break;
    }
  }

  void obligation(uint32_t Idx, const Instr &I, WalkState &S) {
    ObSeen.insert(Idx);
    if (I.Array >= F.Arrays.size())
      return; // ir::verify already rejected the module shape.
    int64_t ES = scalarSize(F.Arrays[I.Array].Elem);
    int64_t W = ES > 0 ? (int64_t)T->VSBytes / ES : 0;
    uint32_t Bump = I.Hint.known() && I.Hint.IfJitAligns ? I.Array : NoArray;
    AffId Index = affOf(S, memIndex(I));
    // Forms in Env carry no array-base symbol, so this sum never leaves
    // int64: its one new term is the base's, and its constant Index's.
    AffId Addr = *Affs.add(Affs.sym(BaseSym[I.Array]), Index);
    std::vector<analysis::BaseAlignReq> Reqs;
    std::optional<int64_t> R = residueMod(S, Addr, W, Bump, &Reqs);
    if (R && *R == 0) {
      recordAlignFact(Idx, I, W, ES, Reqs);
      return;
    }
    if (!ObFail.insert(Idx).second)
      return;
    std::string Why = "cannot prove " + std::to_string(T->VSBytes) +
                      "B alignment of " + instrLabel(Idx) + " on array " +
                      arrayLabel(I.Array);
    if (R)
      Why += " (derived residue " + std::to_string(*R) + " of " +
             std::to_string(W) + " elements)";
    Why += "; scenario " + pathText(S.Path);
    diag(Check::Alignment, Severity::Error, T->Name, Idx, Why);
  }

  void hintConsistency(uint32_t Idx, const Instr &I, WalkState &S) {
    const AlignHint &H = I.Hint;
    if (!H.known() || I.Array >= F.Arrays.size())
      return;
    int64_t ES = scalarSize(F.Arrays[I.Array].Elem);
    if (ES <= 0 || H.Mod != analysis::AlignModBytes || H.Mis % ES != 0)
      return; // hintSanity already reported the malformed claim.
    int64_t W = (int64_t)T->VSBytes / ES;
    if (W <= 1)
      return;
    uint32_t Bump = H.IfJitAligns ? I.Array : NoArray;
    AffId Index = affOf(S, memIndex(I));
    AffId Addr = *Affs.add(Affs.sym(BaseSym[I.Array]), Index); // As above.
    std::optional<int64_t> R = residueMod(S, Addr, W, Bump);
    int64_t Claim = floorMod(H.Mis / ES, W);
    if (R && *R == Claim)
      return;
    if (!ConsFail.insert(Idx).second)
      return;
    std::string Why;
    if (!R)
      Why = "mis/mod claim (mis=" + std::to_string(H.Mis) +
            "B) cannot be re-derived from the bytecode";
    else
      Why = "hint claims mis ≡ " + std::to_string(Claim * ES) + "B (mod " +
            std::to_string(T->VSBytes) + "B) but the derived residue is " +
            std::to_string(*R * ES) + "B";
    Why += "; scenario " + pathText(S.Path);
    diag(Check::HintConsistency, Severity::Error, T->Name, Idx, Why);
  }

  //===--- Certificate production -----------------------------------------===//

  /// Records a discharged alignment obligation as a certificate fact.
  /// Called once per scenario; requirements union across scenarios (the
  /// runtime execution is *some* scenario, so demanding all of them is
  /// sound), and any failing scenario withdraws the claim afterwards.
  void recordAlignFact(uint32_t Idx, const Instr &I, int64_t W, int64_t ES,
                       std::vector<analysis::BaseAlignReq> &Reqs) {
    if (I.Op == Opcode::RealignLoad || W < 1 || ES <= 0)
      return; // Realign chains keep their checks; no consumer elides them.
    // Element-granular addressing assumes the accessed base is a whole
    // number of elements; surface that as a checked runtime precondition
    // instead of a modeling assumption.
    Reqs.push_back({I.Array, static_cast<uint64_t>(ES)});
    analysis::AccessFact &Fa = CertFacts[Idx];
    Fa.InstrIdx = Idx;
    Fa.Array = I.Array;
    Fa.HasAlign = true;
    Fa.AlignElems = W;
    for (const analysis::BaseAlignReq &R : Reqs) {
      bool Merged = false;
      for (analysis::BaseAlignReq &E : Fa.BaseReqs)
        if (E.Array == R.Array) {
          E.Bytes = std::max(E.Bytes, R.Bytes);
          Merged = true;
        }
      if (!Merged)
        Fa.BaseReqs.push_back(R);
    }
  }

  /// Structural bounds pass: claims index ∈ [0, NumElems - Span] material
  /// for every access whose direct lowering the downstream consumers can
  /// cover. Vector accesses only count in vector-mode regions (scalar
  /// expansion re-emits them as per-lane accesses outside the
  /// certificate); scalar load/store count everywhere.
  void collectBoundsFacts(const Region &R, uint32_t LoopIdx,
                          analysis::BoundsEvaluator &Bounds) {
    for (const NodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case NodeKind::Instr: {
        const Instr &I = F.Instrs[N.Index];
        switch (I.Op) {
        case Opcode::ALoad:
        case Opcode::ULoad:
        case Opcode::AStore:
        case Opcode::UStore:
          if (!regionScalar(R))
            addBoundsFact(N.Index, I, /*Vector=*/true, LoopIdx, Bounds);
          break;
        case Opcode::Load:
        case Opcode::Store:
          addBoundsFact(N.Index, I, /*Vector=*/false, LoopIdx, Bounds);
          break;
        default:
          break;
        }
        break;
      }
      case NodeKind::Loop:
        collectBoundsFacts(F.Loops[N.Index].Body, N.Index, Bounds);
        break;
      case NodeKind::If:
        collectBoundsFacts(F.Ifs[N.Index].Then, LoopIdx, Bounds);
        collectBoundsFacts(F.Ifs[N.Index].Else, LoopIdx, Bounds);
        break;
      }
    }
  }

  void addBoundsFact(uint32_t Idx, const Instr &I, bool Vector,
                     uint32_t LoopIdx, analysis::BoundsEvaluator &Bounds) {
    if (I.Array >= F.Arrays.size() || I.Ops.empty())
      return;
    int64_t ES = scalarSize(F.Arrays[I.Array].Elem);
    if (ES <= 0 || (Vector && (T->VSBytes % ES || T->VSBytes / ES == 0)))
      return;
    analysis::AccessFact &Fa = CertFacts[Idx];
    Fa.InstrIdx = Idx;
    Fa.Array = I.Array;
    Fa.LoopIdx = LoopIdx;
    Fa.HasBounds = true;
    Fa.SpanElems = Vector ? T->VSBytes / ES : 1;
    Fa.NumElems = F.Arrays[I.Array].NumElems;
    Fa.IndexVal = I.Ops[0];
    // Static range when derivable without parameter values; otherwise the
    // consumer evaluates the range with the run's concrete parameters.
    if (std::optional<analysis::Interval> Rng = Bounds.eval(I.Ops[0])) {
      Fa.DynamicRange = false;
      Fa.MinIdx = Rng->Min;
      Fa.MaxIdx = Rng->Max;
    } else {
      Fa.DynamicRange = true;
    }
  }
};

} // namespace

namespace vapor {
namespace verify {

Report verifyModule(const ir::Function &F, const VerifyOptions &O) {
  Report R = ModuleVerifier(F, O).run();
  if (faultinject::shouldFire(faultinject::SiteClass::Verify)) {
    Diagnostic D;
    D.Analysis = Check::Structure;
    D.Sev = Severity::Error;
    D.Why = "fault-injection: forced verification finding";
    R.Diags.push_back(std::move(D));
  }
  return R;
}

} // namespace verify
} // namespace vapor
