//===- analysis/LoopAnalysis.cpp - Loop nest utilities ---------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopAnalysis.h"

#include "support/Support.h"

using namespace vapor;
using namespace vapor::analysis;
using namespace vapor::ir;

LoopNestInfo::LoopNestInfo(const Function &Fn) : F(Fn) {
  size_t N = F.Loops.size();
  Parents.assign(N, -1);
  Depths.assign(N, 0);
  Children.assign(N, {});
  DefinedIn.assign(N, {});
  walk(F.Body, -1);
}

void LoopNestInfo::walk(const Region &R, int ParentLoop) {
  auto noteDef = [&](ValueId V) {
    // A definition belongs to the enclosing loop and every ancestor.
    for (int L = ParentLoop; L != -1; L = Parents[L])
      DefinedIn[L].insert(V);
  };

  for (const NodeRef &N : R.Nodes) {
    switch (N.Kind) {
    case NodeKind::Instr: {
      const Instr &I = F.Instrs[N.Index];
      if (I.hasResult())
        noteDef(I.Result);
      break;
    }
    case NodeKind::Loop: {
      uint32_t L = N.Index;
      const LoopStmt &Loop = F.Loops[L];
      Parents[L] = ParentLoop;
      if (ParentLoop != -1) {
        Children[ParentLoop].push_back(L);
        Depths[L] = Depths[ParentLoop] + 1;
      }
      // The loop's exit results belong to the *parent* context; its
      // induction variable and phis live inside (added below).
      for (const auto &C : Loop.Carried)
        noteDef(C.Result);
      walk(Loop.Body, static_cast<int>(L));
      // After walking the body, DefinedIn[L] has the body definitions;
      // add the loop-local values (iv, phis) to L and its ancestors.
      DefinedIn[L].insert(Loop.IndVar);
      for (const auto &C : Loop.Carried)
        DefinedIn[L].insert(C.Phi);
      for (int A = ParentLoop; A != -1; A = Parents[A]) {
        DefinedIn[A].insert(Loop.IndVar);
        for (const auto &C : Loop.Carried)
          DefinedIn[A].insert(C.Phi);
      }
      break;
    }
    case NodeKind::If:
      walk(F.Ifs[N.Index].Then, ParentLoop);
      walk(F.Ifs[N.Index].Else, ParentLoop);
      break;
    }
  }
}

std::vector<MemAccess> analysis::collectAccesses(const Function &F,
                                                 const Region &R) {
  std::vector<MemAccess> Out;
  for (const NodeRef &N : R.Nodes) {
    switch (N.Kind) {
    case NodeKind::Instr: {
      const Instr &I = F.Instrs[N.Index];
      if (I.Op == Opcode::Load)
        Out.push_back({N.Index, I.Array, false, I.Ops[0]});
      else if (I.Op == Opcode::Store)
        Out.push_back({N.Index, I.Array, true, I.Ops[0]});
      break;
    }
    case NodeKind::Loop: {
      auto Sub = collectAccesses(F, F.Loops[N.Index].Body);
      Out.insert(Out.end(), Sub.begin(), Sub.end());
      break;
    }
    case NodeKind::If: {
      auto T = collectAccesses(F, F.Ifs[N.Index].Then);
      auto E = collectAccesses(F, F.Ifs[N.Index].Else);
      Out.insert(Out.end(), T.begin(), T.end());
      Out.insert(Out.end(), E.begin(), E.end());
      break;
    }
    }
  }
  return Out;
}

unsigned analysis::countUses(const Function &F, const Region &R, ValueId V) {
  unsigned Count = 0;
  auto Tally = [&](ValueId U) {
    if (U == V)
      ++Count;
  };
  for (const NodeRef &N : R.Nodes) {
    switch (N.Kind) {
    case NodeKind::Instr:
      for (ValueId Op : F.Instrs[N.Index].Ops)
        Tally(Op);
      break;
    case NodeKind::Loop: {
      const LoopStmt &L = F.Loops[N.Index];
      Tally(L.Lower);
      Tally(L.Upper);
      Tally(L.Step);
      for (const auto &C : L.Carried) {
        Tally(C.Init);
        Tally(C.Next);
      }
      Count += countUses(F, L.Body, V);
      break;
    }
    case NodeKind::If:
      Tally(F.Ifs[N.Index].Cond);
      Count += countUses(F, F.Ifs[N.Index].Then, V);
      Count += countUses(F, F.Ifs[N.Index].Else, V);
      break;
    }
  }
  return Count;
}

namespace {

bool dependsOnImpl(const Function &F, ValueId Root, ValueId Target,
                   std::set<ValueId> &Visited) {
  if (Root == Target)
    return true;
  if (!Visited.insert(Root).second)
    return false;
  const ValueInfo &VI = F.Values[Root];
  if (VI.Def != ValueDef::Instr)
    return false;
  for (ValueId Op : F.Instrs[VI.A].Ops)
    if (dependsOnImpl(F, Op, Target, Visited))
      return true;
  return false;
}

} // namespace

bool analysis::dependsOn(const Function &F, ValueId Root, ValueId Target) {
  std::set<ValueId> Visited;
  return dependsOnImpl(F, Root, Target, Visited);
}
