//===- analysis/Certificate.h - Proof-carrying safety certificates -*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-checkable safety certificates: the verifier (src/verify) proves
/// per-access alignment and bounds facts while discharging its proof
/// obligations, and instead of discarding the proofs it packages them as a
/// per-(function, target) SafetyCertificate. Online consumers (the VM
/// pre-decoder and the native JIT) may elide the per-access align/bounds
/// checks of certificate-covered accesses — but only after the certificate
/// survives the *independent checker* in this file, which replays every
/// fact directly against the bytecode with zero trust in the producer.
///
/// Trust boundaries:
///  - Producer (verify): untrusted for elision. A corrupted or stale
///    certificate must never remove a check.
///  - Checker (this file): the sound core. checkCertificate() validates
///    the structural binding (content hash, access identity, claimed
///    shapes); checkAlignFact() re-derives each congruence claim with its
///    own, simpler mod-W residue evaluator; BoundsEvaluator re-derives
///    index ranges by interval arithmetic. Anything it cannot reproduce is
///    Rejected and the access keeps its checks.
///  - Consumer (jit::buildElisionPlan): evaluates the residual *runtime*
///    preconditions (concrete array bases, concrete parameter values)
///    against the checked facts and grants elision per access.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_ANALYSIS_CERTIFICATE_H
#define VAPOR_ANALYSIS_CERTIFICATE_H

#include "ir/Function.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace vapor {
namespace analysis {

/// A runtime precondition on one array base: the certificate's alignment
/// claim holds only in worlds where base(Array) % Bytes == 0. The plan
/// builder evaluates it against the concrete MemoryImage before eliding.
struct BaseAlignReq {
  uint32_t Array = ir::NoArray;
  uint64_t Bytes = 0; ///< Required base alignment in bytes (power of two).

  bool operator==(const BaseAlignReq &O) const {
    return Array == O.Array && Bytes == O.Bytes;
  }
};

/// One memory access's proven facts. An access may carry an alignment
/// claim, a bounds claim, or both; each is independently checkable and
/// independently elidable.
struct AccessFact {
  uint32_t InstrIdx = ~0u; ///< Bytecode instruction index of the access.
  uint32_t Array = ir::NoArray;
  uint32_t LoopIdx = ~0u; ///< Innermost enclosing loop; ~0u = straight-line.

  //--- Alignment claim: address ≡ 0 (mod AlignElems elements) -----------
  bool HasAlign = false;
  /// The congruence width W in elements (VSBytes / elem size). The VM's
  /// aligned accesses trap on address % (W * ES) != 0; proving residue 0
  /// mod W discharges exactly that check.
  int64_t AlignElems = 0;
  /// Every array-base alignment assumption the proof consumed. The claim
  /// is conditional on ALL of them (the residue derivation substitutes
  /// base symbols of *other* arrays too, via get_misalign congruences).
  std::vector<BaseAlignReq> BaseReqs;

  //--- Bounds claim: index ∈ [0, NumElems - SpanElems] ------------------
  bool HasBounds = false;
  uint32_t SpanElems = 0;  ///< Elements touched per access (W vector, 1 scalar).
  uint64_t NumElems = 0;   ///< Claimed array extent (must match the bytecode).
  ir::ValueId IndexVal = ir::NoValue; ///< The access's index value.
  /// True when the range depends on runtime parameters: no static Min/Max
  /// claim is made and the consumer must evaluate the range with concrete
  /// parameter values at plan time.
  bool DynamicRange = false;
  int64_t MinIdx = 0; ///< Static range claim (valid when !DynamicRange).
  int64_t MaxIdx = 0;
};

/// The per-(function, target) certificate. FnHash binds it to the exact
/// bytecode (ir::hashFunction); TargetName/VSBytes bind it to the machine
/// parameters every residue fact was instantiated with.
struct SafetyCertificate {
  std::string TargetName;
  uint32_t VSBytes = 0;
  uint64_t FnHash = 0;
  std::vector<AccessFact> Facts;
};

/// Deterministic structural hash of \p C (for cache keying: a mutated
/// certificate can never alias a cached artifact built from the original).
uint64_t certificateHash(const SafetyCertificate &C);

//===--- Interval arithmetic over the IR value graph ----------------------===//

struct Interval {
  int64_t Min = 0;
  int64_t Max = 0;
};

/// Resolves a function parameter by name to its concrete value; nullopt
/// means "unknown" and fails the evaluation. The producer passes a
/// fail-always callback (static claims only); the plan builder passes the
/// kernel's actual parameter bindings.
using ParamFn = std::function<std::optional<int64_t>(const std::string &)>;

/// Overflow-checked interval evaluator for integer IR values, used both to
/// produce bounds claims and to independently re-derive them. Fails closed:
/// any value it cannot bound (loop-carried state, opaque ops, arithmetic
/// overflow) yields nullopt.
///
/// One evaluator serves a whole pass over a function: a value's result
/// does not depend on which value was asked first. Loop-carried values
/// answer nullopt without recursing, so a well-formed module has no cycle
/// to cut. On a malformed one, every case that recurses fails when an
/// operand fails, so any value that reaches a cycle is nullopt whichever
/// way the walk enters it.
class BoundsEvaluator {
public:
  BoundsEvaluator(const ir::Function &Fn, uint32_t VS, ParamFn Params)
      : F(Fn), VSBytes(VS), Param(std::move(Params)),
        State(Fn.Values.size(), Visit::New), Memo(Fn.Values.size()) {}

  std::optional<Interval> eval(ir::ValueId V);

private:
  std::optional<Interval> compute(ir::ValueId V);

  enum class Visit : uint8_t { New, InFlight, Done };

  const ir::Function &F;
  uint32_t VSBytes;
  ParamFn Param;
  std::vector<Visit> State; ///< Per value; InFlight is the cycle guard.
  std::vector<std::optional<Interval>> Memo; ///< Per value, once Done.
};

//===--- The independent checker ------------------------------------------===//

enum class FactVerdict : uint8_t {
  Confirmed, ///< Replay reproduced the claim; elision may proceed.
  Rejected,  ///< Replay disagreed or could not re-derive the claim.
};

/// Structural validation of the whole certificate against \p F: content
/// hash, machine parameters, and every fact's binding (instruction index,
/// opcode class, array identity, claimed span/extent/index, static range
/// recomputation). \returns an empty string on success, else the first
/// violation — on any violation the consumer must treat every fact as
/// Rejected.
std::string checkCertificate(const ir::Function &F,
                             const SafetyCertificate &C);

/// Independently replays one alignment fact against the bytecode: a
/// self-contained mod-W residue evaluation of the access's address form,
/// accepting exactly the worlds named by the fact's BaseReqs. Confirmed
/// only when the re-derived residue is 0 under those assumptions.
FactVerdict checkAlignFact(const ir::Function &F, const SafetyCertificate &C,
                           const AccessFact &Fact);

} // namespace analysis
} // namespace vapor

#endif // VAPOR_ANALYSIS_CERTIFICATE_H
