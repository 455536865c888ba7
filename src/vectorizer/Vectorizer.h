//===- vectorizer/Vectorizer.h - Offline auto-vectorizer -------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first, offline compilation stage (paper Sec. III-B): an
/// auto-vectorizer that consumes scalar source IR and emits split-layer
/// bytecode whose vector size is fully parametric. All expensive analyses
/// run here — dependence testing, reduction and idiom recognition,
/// misalignment computation relative to a 32-byte modulo, loop peeling and
/// alignment versioning — and their conclusions are encoded as Table 1
/// idioms and hints so the online stage stays linear in code size.
///
/// Capabilities (matching the paper's kernel suite):
///  - innermost-loop vectorization with add/min/max reductions,
///  - dot_product and widen_mult idiom formation from widening patterns,
///  - multi-type loops (u8 data mixed with u16/i32) via unpack/pack chains
///    with a symbolic vectorization factor of the smallest type,
///  - strided loads (extract) and stride-2/4 stores (interleave),
///  - optimized realignment (align_load / get_rt / realign_load with a
///    software-pipelined carried chunk, Fig. 3a),
///  - alignment versioning with a fall-back version carrying nulled hints,
///  - loop peeling via loop_bound/get_misalign and a scalar epilogue,
///  - outer-loop vectorization and SLP (straight-line) vectorization.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_VECTORIZER_VECTORIZER_H
#define VAPOR_VECTORIZER_VECTORIZER_H

#include "ir/Function.h"

#include <string>
#include <vector>

namespace vapor {
namespace vectorizer {

struct Options {
  /// Master switch for the alignment machinery: misalignment hints,
  /// versioning with an aligned fast path, loop peeling. Disabling it
  /// reproduces the paper's ablation (Sec. V-A(b)): every access is
  /// emitted as if nothing were known (mod = 0), which forces misaligned
  /// accesses or scalarization downstream.
  bool EnableAlignmentOpts = true;
  /// Whether SLP-vectorized (re-rolled) loops get alignment versioning.
  /// The split flow versions them like any loop; the era's native SLP did
  /// not, emitting misaligned accesses — the source of the paper's
  /// mix_streams result (Sec. V-B). The native pipeline turns this off.
  bool SLPAlignmentVersioning = true;
};

struct LoopReport {
  uint32_t SrcLoop = 0;
  bool Vectorized = false;
  std::string Strategy; ///< "inner", "outer", "slp" or empty.
  std::string Reason;   ///< Why vectorization was declined.

  /// Decision record (observability layer / vapor-explain): why the
  /// emitted shape looks the way it does. Valid when Vectorized.
  bool Versioned = false;    ///< Alignment-versioned: guarded aligned fast
                             ///< path plus a fall-back with nulled hints.
  bool Peeled = false;       ///< Fall-back path peels to align the store.
  int64_t MaxSafeVF = 0;     ///< Dependence-distance VF cap (0 = none).
  uint32_t Reductions = 0;   ///< Carried reductions vectorized.
  uint32_t MaxReductions = 0; ///< Of those, horizontal-max collapses
                              ///< (the striped-DP epilogue).
  uint32_t SatOps = 0;       ///< Saturating narrow-int ops vectorized.
  /// Smallest vector element size in bytes. The split VF is symbolic;
  /// each target resolves it to VSBytes / MinElemBytes (jit::loopVF).
  unsigned MinElemBytes = 0;
};

struct Result {
  ir::Function Output;
  std::vector<LoopReport> Loops;

  bool anyVectorized() const {
    for (const LoopReport &R : Loops)
      if (R.Vectorized)
        return true;
    return false;
  }
};

/// Vectorizes \p Src (scalar source IR, must verify) into a split-layer
/// function. Loops that cannot be vectorized are copied unchanged, so the
/// output always computes the same function as the input.
Result vectorize(const ir::Function &Src, const Options &Opt = {});

} // namespace vectorizer
} // namespace vapor

#endif // VAPOR_VECTORIZER_VECTORIZER_H
