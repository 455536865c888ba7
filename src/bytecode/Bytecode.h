//===- bytecode/Bytecode.h - Split-layer container format ------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serialized form of the split layer — the role CLI bytecode plays in
/// the paper (Sec. III-A): a standard, strongly typed, verifiable format
/// that carries the vectorized program plus every hint the online compiler
/// needs (misalignment mis/mod pairs, loop_bound pairs, version guards).
///
/// Scalar source functions serialize through the same container (they are
/// simply functions with no idioms); the ratio of the two encoded sizes is
/// the paper's "bytecode compaction" metric.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_BYTECODE_BYTECODE_H
#define VAPOR_BYTECODE_BYTECODE_H

#include "ir/Function.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vapor {
namespace bytecode {

/// Serializes \p F (either level) into the container format.
std::vector<uint8_t> encode(const ir::Function &F);

/// Size in bytes \p F would encode to, without materializing the buffer.
size_t encodedSize(const ir::Function &F);

/// Decodes a function. Never aborts: malformed input yields a Bytecode-layer
/// Status whose code distinguishes bad magic/version, truncation, structural
/// garbage, trailing bytes, and IR-verifier rejection of a structurally
/// valid module. A successfully decoded function has passed the IR verifier.
Expected<ir::Function> decode(const std::vector<uint8_t> &Bytes);

} // namespace bytecode
} // namespace vapor

#endif // VAPOR_BYTECODE_BYTECODE_H
