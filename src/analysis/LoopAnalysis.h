//===- analysis/LoopAnalysis.h - Loop nest utilities -----------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural facts about the loop forest of a function: parent/child
/// relations, the set of values defined inside each loop subtree, memory
/// access collection, and use counting — the shared substrate of the
/// dependence, reduction, and alignment analyses.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_ANALYSIS_LOOPANALYSIS_H
#define VAPOR_ANALYSIS_LOOPANALYSIS_H

#include "ir/Function.h"

#include <set>
#include <vector>

namespace vapor {
namespace analysis {

/// One memory access (scalar load/store) found in a region subtree.
struct MemAccess {
  uint32_t InstrIdx = 0;
  uint32_t Array = 0;
  bool IsWrite = false;
  ir::ValueId Index = ir::NoValue;
};

class LoopNestInfo {
public:
  explicit LoopNestInfo(const ir::Function &Fn);

  /// Parent loop index of loop \p L, or -1 at top level.
  int parent(uint32_t L) const { return Parents[L]; }

  /// Loops directly nested inside \p L.
  const std::vector<uint32_t> &children(uint32_t L) const {
    return Children[L];
  }

  bool isInnermost(uint32_t L) const { return Children[L].empty(); }

  /// Nesting depth (top level = 0).
  unsigned depth(uint32_t L) const { return Depths[L]; }

  /// True if \p V is defined inside the subtree of loop \p L: instruction
  /// results in the body, induction variables and carried phis of \p L and
  /// of nested loops, and results of loops strictly inside \p L. The
  /// results of \p L itself are *not* inside (they materialize at exit).
  bool definesValue(uint32_t L, ir::ValueId V) const {
    return DefinedIn[L].count(V) != 0;
  }

private:
  void walk(const ir::Region &R, int ParentLoop);

  const ir::Function &F;
  std::vector<int> Parents;
  std::vector<unsigned> Depths;
  std::vector<std::vector<uint32_t>> Children;
  std::vector<std::set<ir::ValueId>> DefinedIn;
};

/// Collects every scalar load/store in \p R (recursing into nested loops
/// and both if arms).
std::vector<MemAccess> collectAccesses(const ir::Function &F,
                                       const ir::Region &R);

/// Number of uses of \p V as an operand anywhere in region \p R
/// (instruction operands, nested loop bounds and carried inits/nexts,
/// if conditions).
unsigned countUses(const ir::Function &F, const ir::Region &R, ir::ValueId V);

/// True if the value \p Root transitively depends on \p Target through
/// instruction operands (stops at params / loop phis other than Target).
bool dependsOn(const ir::Function &F, ir::ValueId Root, ir::ValueId Target);

} // namespace analysis
} // namespace vapor

#endif // VAPOR_ANALYSIS_LOOPANALYSIS_H
