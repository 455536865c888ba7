//===- ir/Verifier.h - IR well-formedness checks ---------------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and type verification for IR functions. The verifier is run
/// on kernel inputs (scalar source rules: no idioms, no vector types) and
/// on vectorizer output (split-layer rules), and by the bytecode decoder
/// on anything it reads.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_IR_VERIFIER_H
#define VAPOR_IR_VERIFIER_H

#include "ir/Function.h"

#include <string>
#include <vector>

namespace vapor {
namespace ir {

/// The deepest region nesting a module may have. The function body is at
/// depth 0, and a loop body or if-arm is one deeper than the region that
/// holds it. Every consumer walks regions recursively, and the JIT's
/// per-loop post passes cost module size times depth, so verify() refuses
/// a deeper module before either runs: decoding a tenant's bytes can
/// neither exhaust a thread's stack nor take time quadratic in its size.
/// The registry's deepest kernel, doitgen_fp, nests 5 deep after
/// vectorization.
constexpr unsigned MaxRegionDepth = 64;

/// Verifies \p F. \returns a list of diagnostics; empty means well-formed.
/// Checks: operand counts and types per opcode, definition-before-use along
/// the structured walk, region/node consistency (every instruction, loop
/// and if placed exactly once; a loop or if placed twice is walked once),
/// loop carried-variable completeness, the level rule
/// (idioms and vector types only in split-layer functions), and nesting
/// no deeper than MaxRegionDepth (the walk stops descending there).
std::vector<std::string> verify(const Function &F);

/// Convenience wrapper: aborts with the first diagnostic if \p F is
/// malformed. Used at pass boundaries in tests and tools.
void verifyOrDie(const Function &F);

} // namespace ir
} // namespace vapor

#endif // VAPOR_IR_VERIFIER_H
