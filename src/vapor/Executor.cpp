//===- vapor/Executor.cpp - Fault-tolerant tiered execution -----------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "vapor/Executor.h"

#include "bytecode/Bytecode.h"
#include "ir/Interp.h"
#include "jit/CodeCache.h"
#include "jit/Elision.h"
#include "jit/Tiering.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/Support.h"
#include "target/VM.h"
#include "vapor/FillAdapters.h"
#include "verify/Verify.h"

#include <chrono>
#include <map>

using namespace vapor;
using namespace vapor::ir;
using namespace vapor::status;
using namespace vapor::target;

namespace {

/// Every demoting Status becomes one trace event and one counter tick:
/// the degradation chain is exactly the thing a trace reader wants to see.
void recordDemotion(const kernels::Kernel &K, const RunOptions &O,
                    const Status &St, ExecTier From, ExecTier To) {
  static obs::Counter Demotions("executor.demotions");
  Demotions.add(1);
  if (!obs::tracingActive())
    return;
  obs::event("executor", "demote",
             {{"kernel", obs::argStr(K.Name)},
              {"target", obs::argStr(O.Target.Name)},
              {"from", obs::argStr(tierName(From))},
              {"to", obs::argStr(tierName(To))},
              {"status", obs::argStr(St.str())}});
}

} // namespace

RunOutcome Executor::run(ExecTier Entry) {
  if (O.Tiered)
    return runTiered(Entry);
  return runChain(Entry);
}

namespace {

/// One counter per lattice tier so "tier-at-execution" is readable off
/// a counter snapshot without parsing trace args.
void countExecTier(ExecTier T) {
  static obs::Counter Native("tiering.exec.native");
  static obs::Counter Vectorized("tiering.exec.vectorized");
  static obs::Counter ScalarJit("tiering.exec.scalar_jit");
  static obs::Counter ScalarBytecode("tiering.exec.scalar_bytecode");
  static obs::Counter Interp("tiering.exec.interpreter");
  switch (T) {
  case ExecTier::Native:
    Native.add(1);
    break;
  case ExecTier::Vectorized:
    Vectorized.add(1);
    break;
  case ExecTier::ScalarJit:
    ScalarJit.add(1);
    break;
  case ExecTier::ScalarBytecode:
    ScalarBytecode.add(1);
    break;
  case ExecTier::Interpreter:
    Interp.add(1);
    break;
  }
}

} // namespace

uint64_t Executor::tieringKey() {
  uint64_t H;
  if (VecModule) {
    // Server mode: the decoded module IS the function. A hash collision
    // here only shares a hotness row, which picks a tier; every tier
    // computes the same results.
    H = ir::hashFunction(*VecModule);
  } else {
    // Kernel mode: names are unique in the registry and hashing one is
    // O(bytes-of-name), which keeps the per-invocation steady-state
    // cost of tiering negligible.
    H = jit::cache::hashBytes(K.Name.data(), K.Name.size());
  }
  H = jit::cache::hashCombine(H, jit::cache::hashTarget(O.Target));
  H = jit::cache::hashCombine(H, O.ExternalMisalign);
  uint64_t Flags = (O.UseNative ? 1u : 0u) | (FailClosed ? 2u : 0u) |
                   (O.FoldAddressing ? 4u : 0u) |
                   (O.PromoteAccumulators ? 8u : 0u) |
                   (O.FuseOps ? 16u : 0u) |
                   (static_cast<uint64_t>(O.Tier) << 8) |
                   (static_cast<uint64_t>(O.Elide) << 16);
  H = jit::cache::hashCombine(H, Flags);
  return jit::cache::hashCombine(H, O.TieringSalt);
}

RunOutcome Executor::runTiered(ExecTier Eager) {
  namespace tiering = jit::tiering;
  static_assert(tiering::ColdTier ==
                static_cast<uint8_t>(ExecTier::ScalarJit));
  static_assert(tiering::VectorizedTier ==
                static_cast<uint8_t>(ExecTier::Vectorized));
  // Every flow enters cold at the forced-scalar JIT: no vectorizer and
  // no vector lowering before the first result. A server flow re-JITs
  // its pre-decoded module there, skipping the verify gate (the scalar
  // lowering emits no checked vector access a bytecode lie could trap);
  // a kernel flow has no decoded module yet, so runChain's no-module
  // edge runs it as compiled scalar bytecode. The interpreter is only
  // ever the degradation chain's last resort.
  const uint8_t EagerV = static_cast<uint8_t>(Eager);
  if (EagerV >= tiering::ColdTier)
    return runChain(Eager); // Nothing below the requested tier to tier.

  const uint64_t Key = tieringKey();
  tiering::Decision D = tiering::engine().onInvoke(Key, EagerV);

  if (D.ShouldCompile) {
    // The background job is a fresh Executor over VALUE copies (this
    // one borrows K and O by reference and dies with the caller). It
    // runs the promotion target once with tiering off; success means
    // every artifact of that tier now sits in the content-addressed
    // cache under the exact keys the next foreground invocation will
    // look up -- placement is deterministic (MemoryImage::AddrBase), so
    // the swap-in is a warm hit, not a handoff.
    RunOptions O2 = O;
    O2.Tiered = false;
    kernels::Kernel K2 = K;
    ExecTier CT = static_cast<ExecTier>(D.CompileTier);
    std::string Tenant = jit::cache::currentTenant();
    tiering::engine().enqueueCompile(
        Key, D.EntryTier, D.CompileTier,
        [K2, O2, Vec = VecModule, Bytes = VecModuleBytes, Id = VecModuleId,
         FC = FailClosed, CT, Tenant]() -> bool {
          jit::cache::ScopedTenant Scope(Tenant);
          RunOutcome BG = Executor(K2, O2, Vec, Bytes, Id, FC).runChain(CT);
          return BG.Terminal.ok() &&
                 static_cast<uint8_t>(BG.Tier) <= static_cast<uint8_t>(CT);
        });
  }

  RunOutcome Out = runChain(static_cast<ExecTier>(D.EntryTier));
  countExecTier(Out.Tier);

  // Demotions feed back as pins so the engine never promotes into a
  // failing tier again (until cache invalidation). Deadline exhaustion
  // is exempt: the budget, not the tier, stopped the run.
  const bool Deadline =
      !Out.Terminal.ok() && Out.Terminal.code() == Code::DeadlineExceeded;
  const bool FinalFailed = !Out.Terminal.ok() && !Deadline;
  const bool TierFailure =
      !Out.Demotions.empty() || Out.Retries > 0 || FinalFailed;
  if (TierFailure) {
    uint8_t Pin = static_cast<uint8_t>(Out.Tier);
    if (FinalFailed)
      ++Pin; // Even the tier it ended on failed.
    tiering::engine().onOutcome(Key, Pin);
  }
  return Out;
}

RunOutcome Executor::runChain(ExecTier Entry) {
  obs::Span S("executor", "run");
  S.arg("kernel", K.Name);
  S.arg("target", O.Target.Name);
  RunOutcome Out;
  Out.EntryTier = Entry;
  ExecTier T = Entry;
  while (true) {
    switch (T) {
    case ExecTier::Native: {
      Status St = attemptNative(Out);
      if (St.ok()) {
        Out.Tier = ExecTier::Native;
        break;
      }
      if (St.code() == Code::DeadlineExceeded) {
        // Terminal, never a demotion: the fast tier already spent the
        // whole budget, so a slower tier cannot meet the deadline.
        Out.Tier = ExecTier::Native;
        Out.Terminal = St;
        break;
      }
      // Every native failure -- unsupported host, page allocation,
      // runtime trap -- demotes to the VM running the exact same
      // lowering. Not a Retry: the vector code is not suspect, only its
      // native binding, so no deoptimizing recompile happens.
      Out.Demotions.push_back(St);
      recordDemotion(K, O, St, T, ExecTier::Vectorized);
      T = ExecTier::Vectorized;
      continue;
    }
    case ExecTier::Vectorized: {
      Status St = attemptVectorized(Out);
      if (St.ok()) {
        Out.Tier = ExecTier::Vectorized;
        break;
      }
      if (St.code() == Code::DeadlineExceeded) {
        Out.Tier = ExecTier::Vectorized;
        Out.Terminal = St;
        break;
      }
      // Demote to the next tier that can run: the forced-scalar re-JIT
      // of the decoded module (safe whatever the gate or the lowering
      // rejected), or, when the decode itself failed, the scalar
      // bytecode. A runtime trap is a deoptimization: count a retry.
      if (St.layer() == Layer::Vm)
        ++Out.Retries;
      const ExecTier Next =
          VecModule ? ExecTier::ScalarJit : ExecTier::ScalarBytecode;
      Out.Demotions.push_back(St);
      recordDemotion(K, O, St, T, Next);
      T = Next;
      continue;
    }
    case ExecTier::ScalarJit: {
      if (!VecModule) { // Nothing decoded to scalarize.
        T = ExecTier::ScalarBytecode;
        continue;
      }
      Status St = attemptScalarJit(Out);
      if (St.ok()) {
        Out.Tier = ExecTier::ScalarJit;
        break;
      }
      if (FailClosed || St.code() == Code::DeadlineExceeded) {
        // The one place trust decides: past ScalarJit lie only tiers
        // that re-derive from trusted kernel source or run the
        // checkpoint-free interpreter -- neither may see tenant-supplied
        // input, so a server flow fails closed here.
        Out.Tier = ExecTier::ScalarJit;
        Out.Terminal = St;
        break;
      }
      Out.Demotions.push_back(St);
      recordDemotion(K, O, St, T, ExecTier::ScalarBytecode);
      T = ExecTier::ScalarBytecode;
      continue;
    }
    case ExecTier::ScalarBytecode: {
      Status St = attemptScalarBytecode(Out);
      if (St.ok()) {
        Out.Tier = ExecTier::ScalarBytecode;
        break;
      }
      if (St.code() == Code::DeadlineExceeded) {
        Out.Tier = ExecTier::ScalarBytecode;
        Out.Terminal = St;
        break;
      }
      Out.Demotions.push_back(St);
      recordDemotion(K, O, St, T, ExecTier::Interpreter);
      T = ExecTier::Interpreter;
      continue;
    }
    case ExecTier::Interpreter:
      runInterpreter(Out);
      Out.Tier = ExecTier::Interpreter;
      break;
    }
    static obs::Counter Runs("executor.runs");
    Runs.add(1);
    if (!Out.Terminal.ok()) {
      static obs::Counter Terminals("executor.terminal");
      Terminals.add(1);
      S.arg("terminal", Out.Terminal.str());
    }
    S.arg("tier", tierName(Out.Tier));
    S.arg("demotions", static_cast<uint64_t>(Out.Demotions.size()));
    S.arg("retries", static_cast<uint64_t>(Out.Retries));
    S.arg("cycles", Out.Cycles);
    return Out;
  }
}

Status Executor::prepareVectorized(RunOutcome &Out) {
  if (!VecModule) {
    // --- Offline stage (trusted: keeps its internal asserts) ---
    auto VR = vectorizer::vectorize(K.Source, O.VecOpts);
    Out.AnyLoopVectorized = VR.anyVectorized();
    Out.LoopDecisions = VR.Loops;

    // The split layer is a real interchange format: encode and decode
    // what the online compiler consumes (also yields the size
    // statistic). The decode and verification verdicts are pure
    // functions of the encoded bytes (and target), so sweep re-runs
    // take them from the cache.
    std::vector<uint8_t> Encoded = bytecode::encode(VR.Output);
    VecModuleBytes = Encoded.size();
    if (obs::tracingActive())
      obs::event("bytecode", "encode",
                 {{"kernel", obs::argStr(K.Name)},
                  {"bytes", obs::argStr(static_cast<uint64_t>(
                                Encoded.size()))}});
    auto Module = jit::cache::moduleFor(Encoded, bytecode::decode);
    if (!Module)
      return Module.status();
    VecModule = Module->Fn;
    VecModuleId = Module->Id;
  }
  Out.BytecodeBytes = VecModuleBytes;

  // The split layer's contract: what crosses it must be provably safe
  // for every lowering the online compiler may pick on this target.
  return verifyCached(*VecModule, VecModuleId,
                      "bytecode verification failed for ");
}

Status Executor::attemptNative(RunOutcome &Out) {
  // One gate for the whole tier: the encoding set (normally the host
  // CPUID probe, a forced subset in tests) must clear the x86-64 + SSE2
  // baseline. Jit-layer because it is a lowering capability, and the
  // demotion edge lands on the tier that can always lower: the VM.
  if (!codegen::supported(O.Native.Features))
    return Status::error(
        Code::UnsupportedIdiom, Layer::Jit,
        "native tier unsupported on this host (needs x86-64 + sse2; have '" +
            O.Native.Features.str() + "')");
  Status St = prepareVectorized(Out);
  if (!St.ok())
    return St;
  return runModule(Out, *VecModule, VecModuleId, /*ForceScalarize=*/false,
                   RunEngine::Native);
}

Status Executor::attemptVectorized(RunOutcome &Out) {
  Status St = prepareVectorized(Out);
  if (!St.ok())
    return St;
  return runModule(Out, *VecModule, VecModuleId, /*ForceScalarize=*/false);
}

Status Executor::attemptScalarJit(RunOutcome &Out) {
  Out.BytecodeBytes = VecModuleBytes; // Also on a tiered cold entry.
  return runModule(Out, *VecModule, VecModuleId, /*ForceScalarize=*/true);
}

Status Executor::attemptScalarBytecode(RunOutcome &Out) {
  std::vector<uint8_t> Encoded = bytecode::encode(K.Source);
  Out.BytecodeBytes = Encoded.size();
  auto Module = jit::cache::moduleFor(Encoded, bytecode::decode);
  if (!Module)
    return Module.status();
  const ir::Function &Fn = *Module->Fn;

  Status St = verifyCached(Fn, Module->Id,
                           "scalar bytecode verification failed for ");
  if (!St.ok())
    return St;

  return runModule(Out, Fn, Module->Id, /*ForceScalarize=*/false);
}

Status Executor::verifyCached(const ir::Function &Module, uint64_t ModuleId,
                              const char *FailPrefix) {
  Cert.reset(); // Never let a previous module's certificate leak forward.
  auto VRes = jit::cache::verifyFor(ModuleId, O.Target, [&] {
    obs::Span S("verify", "verifyModule");
    S.arg("kernel", K.Name);
    S.arg("target", O.Target.Name);
    verify::VerifyOptions VO;
    VO.Targets = {O.Target};
    verify::Report Rep = verify::verifyModule(Module, VO);
    static obs::Counter Proved("verify.obligations_proved");
    static obs::Counter Failed("verify.obligations_failed");
    Proved.add(Rep.ObligationsProved);
    Failed.add(Rep.ObligationsFailed);
    S.arg("ok", Rep.ok());
    S.arg("obligations_proved",
          static_cast<uint64_t>(Rep.ObligationsProved));
    S.arg("obligations_failed",
          static_cast<uint64_t>(Rep.ObligationsFailed));
    S.arg("scenario_forks", static_cast<uint64_t>(Rep.ScenarioForks));
    jit::cache::VerifyResult R{Rep.ok(), Rep.ok() ? "" : Rep.str(), {}};
    // One target verified => at most one certificate.
    if (!Rep.Certificates.empty())
      R.Cert = std::make_shared<const analysis::SafetyCertificate>(
          std::move(Rep.Certificates.front()));
    return R;
  });
  Cert = VRes->Cert;
  if (!VRes->Ok)
    return Status::error(Code::VerificationFailed, Layer::Verify,
                         FailPrefix + K.Name + ":\n" + VRes->Report);
  return Status::okStatus();
}

Status Executor::runModule(RunOutcome &Out, const ir::Function &Module,
                           uint64_t ModuleId, bool ForceScalarize,
                           RunEngine Engine) {
  // --- Runtime layout: a fresh image per attempt, because a trapped run
  // may have partially written arrays. ---
  Out.Mem = std::make_unique<MemoryImage>();
  for (uint32_t A = 0; A < Module.Arrays.size(); ++A) {
    const ArrayInfo &AI = Module.Arrays[A];
    bool External = K.ExternalArrays.count(AI.Name) != 0;
    Out.Mem->addArray(AI, External ? O.ExternalMisalign : 0);
  }

  // --- What the compiler knows about the runtime ---
  jit::RuntimeInfo RT;
  for (uint32_t A = 0; A < Module.Arrays.size(); ++A) {
    const ArrayInfo &AI = Module.Arrays[A];
    bool External = K.ExternalArrays.count(AI.Name) != 0;
    if (External)
      RT.Arrays.push_back({false, 0});
    else
      RT.Arrays.push_back({true, Out.Mem->base(A)});
  }

  // --- Online stage (timed; CompileMicros sums across retries, and a
  // warm cache hit reports the [near-zero] lookup time -- that is the
  // measurement, not an accounting gap) ---
  jit::Options JO;
  JO.CompilerTier = O.Tier;
  JO.FoldAddressing = O.FoldAddressing;
  JO.PromoteAccumulators = O.PromoteAccumulators;
  JO.ForceScalarize = ForceScalarize;
  auto T0 = std::chrono::steady_clock::now();
  const uint64_t CompKey = jit::cache::compileKey(ModuleId, O.Target, JO, RT);
  auto CR =
      jit::cache::compileFor(ModuleId, CompKey, Module, O.Target, RT, JO);
  Out.CompileMicros += std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - T0)
                           .count();
  if (!CR)
    return CR.status();
  std::shared_ptr<const jit::CompileResult> R = CR.take();
  Out.Scalarized = R->Scalarized;
  Out.Compiled = R;

  // --- Proof-carrying check elision: replay the verifier's certificate
  // through the independent checker and evaluate its runtime
  // preconditions against this concrete placement. Fault-injected runs
  // stand down from On to Off -- an injected fault must never be masked
  // by an elided check (Audit keeps every check live, so it may pass
  // through). Forced-scalar recompiles run code the certificate does
  // not describe, so they never elide.
  target::ElisionMode EMode = O.Elide;
  if (EMode == target::ElisionMode::On && faultinject::controller().Active)
    EMode = target::ElisionMode::Off;
  if (ForceScalarize)
    EMode = target::ElisionMode::Off;
  target::ElisionPlan Plan;
  if (EMode != target::ElisionMode::Off && Cert) {
    // Mirror exactly the values the workload will bind below: ints get
    // their table value (absent => 0), FP-bound params have no integer
    // value the bounds evaluator may rely on.
    std::map<std::string, int64_t> IntVals;
    detail::setParams(
        K, Module,
        [&](const std::string &N, int64_t V) { IntVals[N] = V; },
        [](const std::string &, double) {});
    analysis::ParamFn PF =
        [&IntVals](const std::string &N) -> std::optional<int64_t> {
      auto It = IntVals.find(N);
      if (It != IntVals.end())
        return It->second;
      return std::nullopt; // FP-bound or unknown: no integer value.
    };
    Plan = jit::buildElisionPlan(Module, Cert.get(), O.Target, *Out.Mem,
                                 EMode, PF);
  } else {
    Plan.Mode = target::ElisionMode::Off;
  }
  const target::ElisionPlan *PlanPtr =
      Plan.Mode != target::ElisionMode::Off ? &Plan : nullptr;
  Out.ElideMode = Plan.Mode;
  Out.AlignElided = Plan.AlignElided;
  Out.BoundsElided = Plan.BoundsElided;
  Out.ChecksKept = Plan.ChecksKept;
  Out.ElideFactsRejected = Plan.FactsRejected;
  Out.ElideCheckerError = Plan.CheckerError;
  Out.ElideDecisions = Plan.Decisions;
  // Audit counters are NOT reset here: they accumulate across the whole
  // demotion chain, so a genuine would-have-fired in a trapped attempt
  // survives the recovery rerun (the soundness sweep reads the total).

  // --- Workload and execution ---
  detail::MemFill Fill(*Out.Mem);
  K.fill(Fill);

  if (Engine == RunEngine::Native) {
    // Fault-injection site: pretend the native run took an alignment
    // trap, so the crashtest can sweep the Native -> Vectorized edge
    // without depending on a placement that actually traps.
    if (faultinject::shouldFire(faultinject::SiteClass::NativeTrap))
      return Status::error(Code::AlignmentTrap, Layer::Vm,
                           "injected fault: native trap");

    // The unit is placement-, feature-, and plan-keyed in the cache;
    // compile time joins CompileMicros like the JIT lowering above.
    codegen::NativeOptions NO = O.Native;
    NO.Plan = PlanPtr;
    auto N0 = std::chrono::steady_clock::now();
    auto NU = jit::cache::nativeFor(ModuleId, CompKey, R->Code, O.Target,
                                    *Out.Mem, NO);
    Out.CompileMicros += std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - N0)
                             .count();
    if (!NU.ok())
      return NU.status();
    std::shared_ptr<const codegen::NativeUnit> Unit = NU.take();

    codegen::NativeExec Exec(Unit, *Out.Mem);
    if (O.DeadlineFuel)
      Exec.setFuel(O.DeadlineFuel);
    detail::setParams(
        K, Module,
        [&](const std::string &N, int64_t V) { Exec.setParamInt(N, V); },
        [&](const std::string &N, double V) { Exec.setParamFP(N, V); });
    Status St = Exec.run();
    Out.AuditAlignFired += Exec.auditAlignFired();
    Out.AuditBoundsFired += Exec.auditBoundsFired();
    if (!St.ok())
      return St;
    // No cycle model ran: the native tier is measured in wall time by
    // the benches, not in modeled cycles.
    Out.Cycles = 0;
    Out.NativeCode = Unit->Stats;
    return Status::okStatus();
  }

  // The pre-decoded (and fused) program is immutable and placement-keyed,
  // so every cell of a sweep that compiles the same code for the same
  // layout shares one program.
  const bool Weak = JO.CompilerTier == jit::Tier::Weak;
  std::shared_ptr<const DecodedProgram> Prog =
      jit::cache::programFor(ModuleId, CompKey, R->Code, O.Target, *Out.Mem,
                             Weak, O.FuseOps, PlanPtr);
  VM Machine(Prog, *Out.Mem);
  Machine.setTrapRecording(true);
  if (O.DeadlineFuel)
    Machine.setFuel(O.DeadlineFuel);
  detail::setParams(
      K, Module,
      [&](const std::string &N, int64_t V) { Machine.setParamInt(N, V); },
      [&](const std::string &N, double V) { Machine.setParamFP(N, V); });
  Status St = Machine.run();
  Out.AuditAlignFired += Machine.auditAlignFired();
  Out.AuditBoundsFired += Machine.auditBoundsFired();
  if (!St.ok())
    return St;
  Out.Cycles = Machine.cycles();
  return Status::okStatus();
}

void Executor::runInterpreter(RunOutcome &Out) {
  Evaluator E(K.Source, {});
  E.allocAllArrays();
  detail::EvalFill Fill(E);
  K.fill(Fill);
  detail::setParams(
      K, K.Source,
      [&](const std::string &N, int64_t V) { E.setParamInt(N, V); },
      [&](const std::string &N, double V) { E.setParamFP(N, V); });
  E.run();

  // Materialize the evaluator's results into a fresh memory image so
  // checkAgainstGolden inspects every tier the same way.
  Out.Mem = std::make_unique<MemoryImage>();
  for (uint32_t A = 0; A < K.Source.Arrays.size(); ++A) {
    const ArrayInfo &AI = K.Source.Arrays[A];
    bool External = K.ExternalArrays.count(AI.Name) != 0;
    Out.Mem->addArray(AI, External ? O.ExternalMisalign : 0);
  }
  for (uint32_t A = 0; A < K.Source.Arrays.size(); ++A) {
    const ArrayInfo &AI = K.Source.Arrays[A];
    for (uint64_t I = 0; I < AI.NumElems; ++I) {
      if (isFloatKind(AI.Elem))
        Out.Mem->pokeFP(A, I, E.peekFP(A, I));
      else
        Out.Mem->pokeInt(A, I, E.peekInt(A, I));
    }
  }

  // No machine code ran: cost is the evaluator's dynamic-op count (a
  // cycle proxy), and the JIT consumed no bytecode.
  Out.Cycles = E.dynamicOps();
  Out.Scalarized = true;
  Out.BytecodeBytes = 0;
  Out.Compiled = nullptr;
}

RunOutcome vapor::runEncodedModule(const ModuleWorkload &W,
                                   const RunOptions &O) {
  obs::Span S("executor", "runEncodedModule");
  S.arg("name", W.Name);
  S.arg("bytes", static_cast<uint64_t>(W.Bytecode.size()));

  // Decode first (through the module memo): the bytes are the only
  // definition of the work, so a decode failure is terminal -- no lower
  // tier can synthesize a module the wire format rejected.
  auto Decoded = jit::cache::moduleFor(W.Bytecode, bytecode::decode);
  if (!Decoded) {
    RunOutcome Out;
    Out.Terminal = Decoded.status();
    return Out;
  }
  std::shared_ptr<const ir::Function> Module = Decoded->Fn;

  // The workload the executor drives: the decoded module defines the
  // arrays and params, and the fill is the deterministic default
  // (seeded) over that same shared module, so a client that knows the
  // original source can recompute the golden result independently. The
  // kernel has no Source: a fail-closed chain never reaches the tiers
  // that read one.
  kernels::Kernel K;
  K.Name = W.Name.empty() ? Module->Name : W.Name;
  K.Suite = "server";
  K.IntParams = W.IntParams;
  K.FPParams = W.FPParams;
  K.Fill = [Module, Seed = W.FillSeed](kernels::FillSink &Sink,
                                       const ir::Function &) {
    kernels::defaultFill(Sink, *Module, Seed);
  };

  return Executor(K, O, Module, W.Bytecode.size(), Decoded->Id)
      .run(O.UseNative ? ExecTier::Native : ExecTier::Vectorized);
}
