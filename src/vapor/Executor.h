//===- vapor/Executor.h - Fault-tolerant tiered execution ------*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-tolerant driver behind the split flows: instead of aborting
/// when an online stage fails, it walks a degradation chain until some
/// tier completes, and reports honestly which one did:
///
///   Native          the same split bytecode, decode, verify gate, and
///                   JIT lowering as Vectorized, but the MachineIR is
///                   compiled to host x86-64 (src/codegen) instead of
///                   running on the cycle-model VM;
///   Vectorized      split bytecode -> decode -> verify gate -> JIT ->
///                   target VM in trap-recording mode;
///   ScalarJit       the same decoded bytecode re-JITted with forced
///                   scalarization (no checked vector accesses can be
///                   emitted, so no alignment lie in the bytecode can
///                   trap it) -- also the *deoptimization* target when
///                   the vectorized tier takes a runtime alignment trap;
///   ScalarBytecode  freshly encoded scalar bytecode through the normal
///                   decode/verify/JIT/VM path;
///   Interpreter     the golden IR evaluator on the kernel source. This
///                   tier cannot fail: it shares no code with the stages
///                   that can.
///
/// Demotion edges (each carries the demoting Status into the outcome):
///   native fail     -> Vectorized, on the module the native attempt
///                      decoded (any failure: unsupported host, page
///                      allocation, runtime trap; NOT a retry -- the
///                      vector code is not suspect, only its binding);
///   vectorized fail -> ScalarJit when a module was decoded (verify
///                      gate, JIT lowering, VM trap -- a trap counts a
///                      Retry), else ScalarBytecode (the decode failed);
///   ScalarJit fail  -> ScalarBytecode in a trusted kernel flow, a
///                      Terminal Status in a server flow;
///   ScalarBytecode fail -> Interpreter.
///
/// Both flows walk this one chain; trust is read only after ScalarJit,
/// as the tiers below re-encode the kernel source or run the interpreter
/// (no deadline checkpoint), neither fit for tenant-supplied input.
///
/// Every VM at this level runs in trap-recording mode, so a runtime
/// fault comes back as a Vm-layer Status with structured TrapInfo rather
/// than killing the process. The offline stage (vectorizer, encoder) is
/// trusted and keeps its internal asserts.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_VAPOR_EXECUTOR_H
#define VAPOR_VAPOR_EXECUTOR_H

#include "analysis/Certificate.h"
#include "vapor/Pipeline.h"

namespace vapor {

class Executor {
public:
  /// Kernel-mode executor: trusted kernel source, no module decoded yet.
  Executor(const kernels::Kernel &K, const RunOptions &O)
      : Executor(K, O, nullptr, 0, 0, /*FailClosed=*/false) {}

  /// Server-mode executor: \p PreDecoded is the already-decoded module
  /// the (untrusted) encoded bytes produced and \p EncodedBytes its wire
  /// size. The chain FAIL-CLOSES after ScalarJit. \p K supplies only the
  /// workload (params, fill, name); its Source is not read. \p ModuleId
  /// is the code cache's id for the module (jit::cache::moduleFor), 0
  /// when it is not cached: the later memos key on it.
  Executor(const kernels::Kernel &K, const RunOptions &O,
           std::shared_ptr<const ir::Function> PreDecoded,
           size_t EncodedBytes, uint64_t ModuleId = 0)
      : Executor(K, O, std::move(PreDecoded), EncodedBytes, ModuleId,
                 /*FailClosed=*/true) {}

  /// Walks the chain starting at \p Entry (Vectorized for the
  /// SplitVectorized flow, ScalarBytecode for SplitScalar) until a tier
  /// completes. Never aborts for representable configurations -- also
  /// not under fault injection; the outcome records the executed tier,
  /// every demoting Status, and the retry count.
  ///
  /// Under RunOptions::Tiered, \p Entry is the EAGER entry tier (the
  /// best this run may reach); the actual entry is chosen by the
  /// hotness engine -- see runTiered.
  RunOutcome run(ExecTier Entry = ExecTier::Vectorized);

  /// The hotness key this workload ticks under RunOptions::Tiered:
  /// function identity (module hash in server mode, kernel name
  /// otherwise), target, external-array placement, every
  /// compilation-relevant option, and O.TieringSalt. Exposed so
  /// vapor-explain can look up the promotion timeline after a run.
  uint64_t tieringKey();

private:
  /// One constructor for both flows: \p Module (null until decoded in a
  /// kernel flow) plus the trust bit. The tiering background job builds
  /// its executor through it.
  Executor(const kernels::Kernel &K, const RunOptions &O,
           std::shared_ptr<const ir::Function> Module, size_t ModuleBytes,
           uint64_t ModuleId, bool FailClosed)
      : K(K), O(O), VecModule(std::move(Module)), VecModuleId(ModuleId),
        VecModuleBytes(ModuleBytes), FailClosed(FailClosed) {}

  /// Which engine runModule hands the compiled MachineIR to.
  enum class RunEngine : uint8_t {
    Vm,     ///< Cycle-model target VM (trap-recording).
    Native, ///< Host x86-64 via codegen::compileNative.
  };

  /// The plain degradation chain starting at \p Entry (the body of
  /// run() before tiering existed).
  RunOutcome runChain(ExecTier Entry);

  /// Tiered execution: ticks the hotness engine, enters the chain at
  /// the cheapest READY tier, enqueues a claimed background compile
  /// (a fresh Executor over copies of K and O with Tiered off, run
  /// once at the promotion target so every artifact lands in the
  /// CodeCache), and reports demotions back as pins.
  RunOutcome runTiered(ExecTier Eager);

  /// The shared front of the Native and Vectorized tiers. Without a
  /// module it runs the offline stage first (vectorize, encode, decode
  /// through the interchange format) and sets VecModule/VecModuleId;
  /// then, for both flows, the verify gate. A Native -> Vectorized
  /// demotion therefore verifies the module the native attempt decoded.
  status::Status prepareVectorized(RunOutcome &Out);

  /// prepareVectorized + vector JIT + native x86-64 execution.
  status::Status attemptNative(RunOutcome &Out);
  /// prepareVectorized + vector JIT + VM.
  status::Status attemptVectorized(RunOutcome &Out);
  /// Re-JIT the already-decoded module with Options::ForceScalarize.
  status::Status attemptScalarJit(RunOutcome &Out);
  /// Scalar source through the full split path (encode/decode/JIT/VM).
  status::Status attemptScalarBytecode(RunOutcome &Out);
  /// Golden evaluator; materializes results into a fresh MemoryImage so
  /// checkAgainstGolden works uniformly across tiers.
  void runInterpreter(RunOutcome &Out);

  /// The shared online tail of the JIT tiers: layout, compile, fill, and
  /// a VM or native run, every artifact through the code cache's memos
  /// for \p ModuleId (0 = not cached: they build per call). On success
  /// fills the outcome's Cycles/Code/Mem; on failure \returns the Jit-
  /// or Vm-layer Status.
  status::Status runModule(RunOutcome &Out, const ir::Function &Module,
                           uint64_t ModuleId, bool ForceScalarize,
                           RunEngine Engine = RunEngine::Vm);

  /// Verification through the code cache's verify memo (keyed on
  /// \p ModuleId and the run's target); the failure Status message
  /// starts with \p FailPrefix.
  status::Status verifyCached(const ir::Function &Module, uint64_t ModuleId,
                              const char *FailPrefix);

  const kernels::Kernel &K;
  const RunOptions &O;
  /// Decoded vectorized module, if any; possibly shared with the code
  /// cache (immutable either way).
  std::shared_ptr<const ir::Function> VecModule;
  uint64_t VecModuleId = 0;  ///< Code-cache id of VecModule (0 = uncached).
  size_t VecModuleBytes = 0; ///< Encoded size of VecModule.
  /// Server mode: stop (RunOutcome::Terminal) instead of demoting past
  /// ScalarJit.
  bool FailClosed = false;
  /// Safety certificate the last verifyCached call captured for the
  /// module it verified (null when the verifier proved nothing). Always
  /// describes the module runModule runs next: each verify resets it.
  std::shared_ptr<const analysis::SafetyCertificate> Cert;
};

} // namespace vapor

#endif // VAPOR_VAPOR_EXECUTOR_H
