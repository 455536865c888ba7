//===- verify/Verify.h - Static verifier for split bytecode ----*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vapor::verify statically checks a split-layer bytecode module *before*
/// any online compiler runs, proving that the vectorizer's claims are ones
/// no JIT lowering can turn into a trap or a miscompile:
///
///  - **Alignment safety.** Every aligned access the online compiler could
///    materialize (aload/astore directly; uload/ustore/realign_load
///    promoted by mis/mod hints) is proven VS-aligned by abstract
///    interpretation over a symbolic residue domain, for every vector size
///    in {8, 16, 32} and every lowering strategy of every target.
///  - **Hint consistency.** mis/mod claims, loop_bound pairs and maxvf
///    dependence limits are re-derived from the bytecode itself and
///    cross-checked against what the idioms claim.
///  - **Guard analysis.** Version guards that fold the same way on every
///    target, or whose arms are unreachable everywhere, are reported.
///  - **Idiom chains.** The structural discipline of the idiom set
///    (realign chains, reduction init/finish pairing, widening-multiply
///    hi/lo pairing) is checked VF-agnostically.
///
/// See src/verify/README.md for the abstract domains and the per-strategy
/// proof obligations.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_VERIFY_VERIFY_H
#define VAPOR_VERIFY_VERIFY_H

#include "analysis/Certificate.h"
#include "ir/Function.h"
#include "target/Target.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vapor {
namespace verify {

/// The analysis a diagnostic came from.
enum class Check : uint8_t {
  Structure,       ///< ir::verify well-formedness (re-reported here).
  Alignment,       ///< Aligned-access proof obligations.
  HintConsistency, ///< mis/mod, loop_bound, maxvf claims re-derived.
  Guards,          ///< Dead / constant / always-true version guards.
  IdiomChains,     ///< Structural pairing rules of the idiom set.
};

enum class Severity : uint8_t {
  Error,   ///< A lowering exists that traps or miscompiles.
  Warning, ///< Suspicious but not unsafe (e.g. over-conservative claim).
  Note,    ///< Informational (per-target guard folds etc.).
};

const char *checkName(Check C);
const char *severityName(Severity S);

constexpr uint32_t NoInstr = ~0u;

struct Diagnostic {
  Check Analysis = Check::Structure;
  Severity Sev = Severity::Error;
  std::string Target;          ///< Target name; empty = target-independent.
  uint32_t InstrIdx = NoInstr; ///< Offending instruction, if any.
  std::string Why;             ///< One-line reason.

  std::string str() const;
};

struct Report {
  std::vector<Diagnostic> Diags;
  /// Aligned-access proof obligations, counted per (instruction, target).
  uint64_t ObligationsProved = 0;
  uint64_t ObligationsFailed = 0;
  unsigned TargetsChecked = 0;
  /// Min/max scenario forks the abstract walks took, summed over targets:
  /// what the verifier's cost grows with beyond module size.
  uint64_t ScenarioForks = 0;
  /// One proof-carrying certificate per SIMD target that produced any
  /// per-access facts (analysis/Certificate.h). Consumers must run the
  /// independent checker before acting on them — these records are the
  /// *untrusted producer* half of the elision pipeline.
  std::vector<analysis::SafetyCertificate> Certificates;

  bool ok() const; ///< True when no Error-severity diagnostic exists.
  size_t count(Severity S) const;
  std::string str(bool IncludeNotes = false) const;
};

struct VerifyOptions {
  /// Targets to instantiate the proofs for; empty = target::allTargets().
  std::vector<target::TargetDesc> Targets;
  /// Cap on simultaneous scenario states per abstract walk (min/max
  /// branch splits fork states). Overflow degrades soundly: obligations
  /// in dropped scenarios are reported unproven, never silently passed.
  unsigned ScenarioBudget = 256;
};

/// Verifies split-layer module \p F. Also accepts scalar source modules
/// (all split-layer analyses are then vacuous).
Report verifyModule(const ir::Function &F, const VerifyOptions &O = {});

} // namespace verify
} // namespace vapor

#endif // VAPOR_VERIFY_VERIFY_H
