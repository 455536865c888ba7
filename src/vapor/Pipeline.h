//===- vapor/Pipeline.h - End-to-end compilation/execution -----*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The facade tying everything together: the four measurement points of
/// paper Fig. 4, executable on any kernel, target, and JIT tier.
///
///   SplitVectorized (A/D): offline vectorizer -> split bytecode (encoded
///       and decoded through the container) -> online JIT -> target VM.
///   SplitScalar     (C):   scalar bytecode -> online JIT -> target VM.
///   NativeVectorized(E):   arrays force-aligned, then the same vectorizer
///       + strong codegen with full compile-time knowledge.
///   NativeScalar    (F):   force-aligned scalar source -> strong codegen.
///
/// Every run reports cycles, compile (lowering) time, bytecode size, and
/// keeps the memory image so callers can verify outputs against the
/// golden IR evaluator.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_VAPOR_PIPELINE_H
#define VAPOR_VAPOR_PIPELINE_H

#include "codegen/NativeJit.h"
#include "jit/Jit.h"
#include "kernels/Kernels.h"
#include "support/Status.h"
#include "target/MemoryImage.h"
#include "target/Target.h"
#include "vectorizer/Vectorizer.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace vapor {

enum class Flow : uint8_t {
  SplitVectorized,
  SplitScalar,
  NativeVectorized,
  NativeScalar,
};

const char *flowName(Flow F);

/// The tiers of the fault-tolerant executor's degradation chain, best
/// first. Every online-stage failure demotes one run down this chain;
/// the bottom tier (the golden IR interpreter) cannot fail.
enum class ExecTier : uint8_t {
  Native,         ///< Vector lowering compiled to host x86-64 (W^X pages).
  Vectorized,     ///< Split bytecode, vector lowering, target VM.
  ScalarJit,      ///< Same bytecode re-JITted with forced scalarization.
  ScalarBytecode, ///< Scalar split bytecode through the normal JIT + VM.
  Interpreter,    ///< Golden IR evaluator on the kernel source.
};

const char *tierName(ExecTier T);

struct RunOptions {
  target::TargetDesc Target = target::sseTarget();
  jit::Tier Tier = jit::Tier::Strong;
  /// Codegen profile knobs (Table 3's legacy split compiler).
  bool FoldAddressing = true;
  bool PromoteAccumulators = true;
  /// Offline-stage options (the alignment ablation switch lives here).
  vectorizer::Options VecOpts;
  /// Runtime placement: misalignment (bytes mod 32) of external arrays;
  /// internal arrays are allocated by our runtime, which aligns them.
  uint32_t ExternalMisalign = 0;
  /// Runs the VM's macro-op fusion peephole (bit-identical results and
  /// modeled cycles, fewer dispatches).
  bool FuseOps = true;
  /// Native execution tier: compile the vector lowering to host x86-64
  /// (src/codegen) instead of running the cycle-model VM. Bit-exact
  /// against the VM by contract; any native failure (unsupported host,
  /// page allocation, runtime trap) demotes cleanly to the Vectorized
  /// tier. The encoding set is chosen by a runtime CPUID probe.
  bool UseNative = false;
  /// Encoding-set override for the native tier (tests force SSE2-only
  /// subsets to check feature-gated selection). Defaults to the host.
  codegen::NativeOptions Native;
  /// Proof-carrying check elision (analysis/Certificate.h). On: replay
  /// the verifier's safety certificate through the independent checker,
  /// evaluate its runtime preconditions against the concrete placement,
  /// and drop the granted align/bounds checks from the VM pre-decode and
  /// the native code. Audit: keep every check live but count instances
  /// where an elidable check's predicate would genuinely have fired
  /// (the crashtest's soundness sweep). Off: consumer disabled. The
  /// certificate comes from the verify gate, which runs on every vector
  /// tier; forced-scalar recompiles run code it does not describe and
  /// never elide. Fault-injected runs stand down from On to Off
  /// automatically so an injected fault can never be masked by an
  /// elided check.
  target::ElisionMode Elide = target::ElisionMode::On;
  /// Per-run execution deadline as an op budget: the VM charges one per
  /// dispatched op, the native tier charges each loop back-edge the
  /// pre-fusion op count of its loop (codegen::NativeExec::setFuel), so
  /// a budget buys about the same work on both. 0 = unlimited.
  /// A run that exhausts its budget stops mid-flight with a
  /// DeadlineExceeded Status, which is TERMINAL: the executor never
  /// demotes it (re-running heavier work on a slower tier cannot meet a
  /// deadline the fast tier missed) -- the outcome's Terminal field
  /// carries the Status and Mem holds partial results. The unit is
  /// deliberately deterministic work, not wall time, so deadline
  /// verdicts are reproducible across hosts and load.
  uint64_t DeadlineFuel = 0;
  /// Tiered execution (jit/Tiering.h): instead of compiling everything
  /// synchronously before the first result, enter each invocation at
  /// the cheapest READY tier -- cold, the forced-scalar JIT for every
  /// flow (a kernel flow, with no decoded module yet, runs it as
  /// compiled scalar bytecode; SplitScalar, already that deep, runs
  /// eager) -- and let the hotness engine promote the function
  /// off-thread: at the configured invocation thresholds a background
  /// job compiles the vectorized VM program (and, when UseNative, the
  /// native unit) into the CodeCache, and the NEXT invocation enters the
  /// better tier as a warm cache hit. The swap point is the run
  /// boundary: an in-flight run always finishes on the tier it started.
  /// The degradation chain is unchanged within a run; a run that demotes
  /// (or a background compile that fails) pins the function below the
  /// failing tier until the cache is invalidated (jit::cache::clear()).
  bool Tiered = false;
  /// Extra value folded into the tiering hotness key. The engine is
  /// process-global; sweep drivers (crashtest --tiered, tests, benches)
  /// give every case a distinct salt so cases cannot share hotness,
  /// promotions, or demotion pins.
  uint64_t TieringSalt = 0;
};

struct RunOutcome {
  uint64_t Cycles = 0;
  bool Scalarized = false;
  bool AnyLoopVectorized = false;
  double CompileMicros = 0;   ///< Lowering wall time, summed over retries.
  size_t BytecodeBytes = 0;   ///< Encoded size of what the JIT consumed
                              ///< at the executed tier (0 for Interpreter).
  /// The compile the executed tier ran: its machine code and per-target
  /// strategy decisions (vapor-explain's online-stage record). Shared
  /// with the code cache, never copied; null for the Interpreter tier.
  std::shared_ptr<const jit::CompileResult> Compiled;
  std::unique_ptr<target::MemoryImage> Mem;
  /// The offline vectorizer's per-loop decision records for the bytecode
  /// the executed tier consumed. Split flows only; empty for Interpreter.
  std::vector<vectorizer::LoopReport> LoopDecisions;

  /// The native tier's code-shape record (per-op inline/helper counts,
  /// packed/VEX chunks, encoding set). Filled only when the executed
  /// tier is Native.
  codegen::NativeStats NativeCode;

  /// Proof-carrying check-elision record of the executed tier's run
  /// (split flows; Off when elision stood down or nothing was granted).
  target::ElisionMode ElideMode = target::ElisionMode::Off;
  uint32_t AlignElided = 0;        ///< Align grants applied to accesses.
  uint32_t BoundsElided = 0;       ///< Bounds grants applied.
  uint32_t ChecksKept = 0;         ///< Certified accesses left checked.
  uint32_t ElideFactsRejected = 0; ///< Facts the checker refused.
  std::string ElideCheckerError;   ///< Certificate-level rejection, if any.
  /// Per-access elide/keep/audit decision lines (vapor-explain).
  std::vector<std::string> ElideDecisions;
  /// Audit-mode telemetry: genuine would-have-fired check predicates.
  uint64_t AuditAlignFired = 0;
  uint64_t AuditBoundsFired = 0;

  /// Tier of the degradation chain that actually produced the results in
  /// Mem. Split flows only; mono flows always report Vectorized.
  ExecTier Tier = ExecTier::Vectorized;
  /// Tier the chain ENTERED at. Equals the flow's eager entry tier for
  /// plain runs; under RunOptions::Tiered it is the tier the hotness
  /// engine picked (the interesting signal: cold runs enter cheap,
  /// promoted runs enter where the background compile landed).
  ExecTier EntryTier = ExecTier::Vectorized;
  /// Every Status that demoted this run down the chain, in order. Empty
  /// for a clean run.
  std::vector<status::Status> Demotions;
  /// Deoptimizing re-JIT attempts (runtime trap -> forced-scalar recompile).
  uint32_t Retries = 0;
  /// Terminal failure, if any. ok() for every run that produced valid
  /// results (possibly after demotions). Not-ok only when the chain was
  /// stopped for good: a DeadlineExceeded budget exhaustion (any mode),
  /// or any unrecoverable failure of a fail-closed server-mode run
  /// (runEncodedModule), which must never fall back to the unbounded
  /// interpreter on tenant-supplied input. When set, Mem is partial or
  /// absent and must not be compared against the golden model.
  status::Status Terminal = status::Status::okStatus();
};

/// Compiles and executes \p K under \p Flow. Split flows run under the
/// fault-tolerant Executor (Executor.h): an online-stage failure demotes
/// the run down the tier chain instead of aborting, and the outcome
/// records the executed tier, every demoting Status, and the retry count.
/// Native flows bypass the interchange format and keep hard asserts for
/// their (offline, trusted) stages.
RunOutcome runKernel(const kernels::Kernel &K, Flow F, const RunOptions &O);

/// Runs the golden IR evaluator on the kernel source with the same
/// workload and compares every array element against \p Out's memory.
/// \returns true on match; otherwise fills \p Err, which names the tier
/// that produced the mismatching results.
bool checkAgainstGolden(const kernels::Kernel &K, const RunOutcome &Out,
                        std::string &Err);

/// A self-contained unit of work submitted to the execution service: an
/// already-vectorized bytecode module plus the scalar parameter bindings
/// its run needs. The service trusts NOTHING in here -- the bytes came
/// over a socket.
struct ModuleWorkload {
  std::string Name;              ///< Request label for traces and errors.
  std::vector<uint8_t> Bytecode; ///< Encoded module (bytecode::encode).
  std::map<std::string, int64_t> IntParams;
  std::map<std::string, double> FPParams;
  uint64_t FillSeed = 7; ///< Seed for the deterministic default fill.
};

/// Server-mode entry point: decodes and runs \p W on the fault-tolerant
/// executor's one chain, FAIL-CLOSED after ScalarJit ([Native ->]
/// Vectorized -> ScalarJit -> stop). Unlike runKernel there is no
/// trusted kernel source behind the bytes, so a run that cannot complete
/// on a JIT tier reports a Terminal Status instead of falling back to
/// ScalarBytecode/Interpreter -- the interpreter has no deadline
/// checkpoint, and an unbounded golden-model walk over tenant-supplied
/// input is exactly the wedged-worker failure mode the service exists to
/// prevent. Decode failures, verify failures after demotion, and
/// deadline exhaustion (O.DeadlineFuel) all land in Outcome::Terminal
/// with the demotion trail preserved.
RunOutcome runEncodedModule(const ModuleWorkload &W, const RunOptions &O);

} // namespace vapor

#endif // VAPOR_VAPOR_PIPELINE_H
