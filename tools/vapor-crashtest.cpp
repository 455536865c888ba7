//===- tools/vapor-crashtest.cpp - Fault-injection sweep CLI --------------===//
//
// Part of the Vapor SIMD reproduction.
//
// Usage:
//   vapor-crashtest --all-kernels [--native] [--json <path>] [--trace <path>]
//                   [--jobs N] [--verbose]
//   vapor-crashtest <kernel-name> [target-name] [--native] [--trace <path>]
//                   [--jobs N] [--verbose]
//
// --trace (or VAPOR_TRACE=<path>) writes a Chrome-trace JSON of the whole
// sweep: executor tier spans, demotion events, JIT/verify/VM stage spans,
// one timeline per pool worker. Unrecognized options and non-numeric
// --jobs values exit 2 with the usage message.
//
// Drives the fault-tolerant executor (vapor::Executor) through the
// split-vectorized flow for every kernel x target x injected fault and
// asserts the degradation contract: a failed Vectorized tier lands on
// the forced-scalar re-JIT when a module was decoded, else on the
// scalar bytecode, and the interpreter ends the chain. With --native
// the chain is entered at the Native tier instead (host x86-64 codegen
// above the VM); a native failure demotes to Vectorized without
// counting as a retry, so the oracle for every fault class shifts
// accordingly, and the interpreter still terminates the chain. On
// hosts where the native tier is unsupported (non-x86-64 or
// -DVAPOR_NATIVE=OFF) --native prints a notice and sweeps the ordinary
// chain instead, so CI stays green everywhere. The contract asserted:
//
//   - every run completes: no process abort, under any injected fault;
//   - every run's results match the golden IR evaluator;
//   - the reported tier is honest: exactly the chain position the fired
//     fault class demotes to (and Vectorized with no demotions when no
//     fault fired);
//   - a runtime alignment trap is counted as a deoptimizing retry.
//
// Injected cases per kernel x target: for each site class, a one-shot
// fault at sampled dynamic sites (first / middle / last occurrence) plus
// a sticky fault that fires at every occurrence — the sticky decode and
// JIT faults are what push runs all the way down to the interpreter.
//
// Exit status is the number of failed cases (0 = contract holds).
// --json <path> writes a machine-readable summary of the sweep.
//
// The kernel x target cells run across the sweep pool
// (--jobs N, default VAPOR_JOBS or the hardware concurrency; 1 forces
// the serial driver). The fault-injection controller is thread-local,
// so each worker arms and counts sites on its own runs only, and every
// per-cell statistic is identical to a serial sweep -- only the merge
// order (and FAIL-line interleaving) can differ.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeJit.h"
#include "jit/Tiering.h"
#include "kernels/Kernels.h"
#include "obs/Obs.h"
#include "support/FaultInject.h"
#include "support/ThreadPool.h"
#include "target/Target.h"
#include "vapor/Pipeline.h"
#include "vapor/Sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace vapor;
using faultinject::SiteClass;

namespace {

struct Stats {
  uint64_t Cases = 0;
  uint64_t Failures = 0;
  uint64_t Fired = 0;
  uint64_t Retries = 0;
  uint64_t Demotions = 0;
  uint64_t TierCount[5] = {}; ///< Indexed by ExecTier.
  /// --audit: genuine would-have-fired counts of elision-granted checks,
  /// summed across every case. Soundness demands both stay zero.
  uint64_t AuditAlign = 0;
  uint64_t AuditBounds = 0;
};

/// The tier each fault class must demote the split-vectorized flow to
/// when it actually fires (the crashtest's honesty oracle; mirrors the
/// chain documented in vapor/Executor.h).
ExecTier expectedTier(SiteClass S, bool Sticky, bool Native) {
  if (Native) {
    // Entering at the Native tier adds one demotion hop: any failure
    // during the native attempt (including its shared prepare and JIT
    // stages) falls back to Vectorized, which re-runs those stages
    // deterministically. A one-shot fault is spent by then, so the
    // chain settles one tier higher than the classic oracle; a sticky
    // fault keeps firing and lands exactly where it always did.
    switch (S) {
    case SiteClass::Decode:
      return Sticky ? ExecTier::Interpreter : ExecTier::Vectorized;
    case SiteClass::Verify:
      return Sticky ? ExecTier::ScalarJit : ExecTier::Vectorized;
    case SiteClass::JitLower:
      return Sticky ? ExecTier::Interpreter : ExecTier::Vectorized;
    case SiteClass::VmAlign:
      // Unreachable from the native entry: the cycle-model VM's checked
      // accesses never execute unless something else already demoted.
      return ExecTier::ScalarJit;
    case SiteClass::NativeTrap:
      // The trap is in the native binding only; the VM re-runs the same
      // vector lowering cleanly, and sticky does not matter because the
      // site class never fires again below Native.
      return ExecTier::Vectorized;
    case SiteClass::Deadline:
    case SiteClass::QueueFull:
    case SiteClass::SocketIo:
      // Server-side site classes: their sites only exist under a fueled
      // run or inside the execution service, so classic sweeps count
      // zero hits and skip them (Classes[] below never lists them).
      return ExecTier::Native;
    }
    return ExecTier::Interpreter;
  }
  switch (S) {
  case SiteClass::Decode:
    // One-shot: the scalar re-encode decodes fine. Sticky: the
    // interchange layer itself is broken; only the interpreter is left.
    return Sticky ? ExecTier::Interpreter : ExecTier::ScalarBytecode;
  case SiteClass::Verify:
    // The gate rejected a vector lowering; forced-scalar JIT is safe.
    return ExecTier::ScalarJit;
  case SiteClass::JitLower:
    // One-shot: the forced-scalar re-JIT of the decoded module lowers
    // fine. Sticky: every lowering fails, the scalar bytecode's too.
    return Sticky ? ExecTier::Interpreter : ExecTier::ScalarJit;
  case SiteClass::VmAlign:
    // Runtime trap -> deoptimizing re-JIT. Scalar code has no checked
    // accesses, so even a sticky fault cannot re-fire.
    return ExecTier::ScalarJit;
  case SiteClass::NativeTrap:
    // The native engine never runs in the classic sweep; hit counts for
    // this class are always zero and the case is skipped.
    return ExecTier::Vectorized;
  case SiteClass::Deadline:
  case SiteClass::QueueFull:
  case SiteClass::SocketIo:
    // Server-side classes; never hit in the classic sweep (no fuel is
    // armed and no admission gate runs here).
    return ExecTier::Vectorized;
  }
  return ExecTier::Interpreter;
}

/// Set by --no-elide: run every case with check elision forced off.
/// Mutually exclusive with --audit (rejected at parse time): audit mode
/// exists precisely to observe the checks elision would have removed.
bool NoElide = false;

/// Set by --tiered: run every case through the hotness engine
/// (RunOptions::Tiered). Each case gets a fresh salt and is prewarmed to
/// the sweep's clean entry ceiling first, so the per-class tier oracle
/// holds unchanged: the instrumented run enters exactly where an eager
/// run would (the code cache stands down under the armed controller, so
/// every stage -- and every fault site -- still executes).
bool Tiered = false;
std::atomic<uint64_t> NextSalt{1};

/// Drives a fresh tiering key to the clean entry ceiling (Vectorized, or
/// Native under --native) with clean runs + queue drains. \returns the
/// salt on success, 0 when the ceiling is unreachable for this cell (the
/// case then falls back to a plain eager run instead of asserting the
/// oracle against a cold forced-scalar entry, which never reaches the
/// vector tiers the fault classes target).
uint64_t prewarmTiered(const kernels::Kernel &K, const target::TargetDesc &T,
                       bool Native, bool Audit) {
  if (!Tiered)
    return 0;
  uint64_t Salt = NextSalt.fetch_add(1, std::memory_order_relaxed);
  RunOptions O;
  O.Target = T;
  O.UseNative = Native;
  if (Audit)
    O.Elide = target::ElisionMode::Audit;
  else if (NoElide)
    O.Elide = target::ElisionMode::Off;
  O.Tiered = true;
  O.TieringSalt = Salt;
  const ExecTier Ceiling = Native ? ExecTier::Native : ExecTier::Vectorized;
  for (int R = 0; R < 64; ++R) {
    RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
    jit::tiering::engine().drain();
    if (Out.EntryTier == Ceiling)
      return Salt;
    if (!Out.Terminal.ok())
      break;
  }
  return 0;
}

bool runCase(const kernels::Kernel &K, const target::TargetDesc &T,
             const std::string &Desc, const ExecTier *Expect, Stats &S,
             bool Native, bool Audit, bool Verbose,
             uint64_t TieredSalt = 0) {
  ++S.Cases;
  RunOptions O;
  O.Target = T;
  O.UseNative = Native;
  if (Audit)
    O.Elide = target::ElisionMode::Audit;
  else if (NoElide)
    O.Elide = target::ElisionMode::Off;
  if (TieredSalt) {
    O.Tiered = true;
    O.TieringSalt = TieredSalt;
  }
  RunOutcome Out = runKernel(K, Flow::SplitVectorized, O);
  uint64_t Fired = faultinject::fired();
  ExecTier CleanTier = Native ? ExecTier::Native : ExecTier::Vectorized;

  S.AuditAlign += Out.AuditAlignFired;
  S.AuditBounds += Out.AuditBoundsFired;

  std::string Err;
  bool Ok = true;
  if (Out.AuditAlignFired || Out.AuditBoundsFired) {
    // An elision-granted check's predicate genuinely fired: had the run
    // been in elide mode this would have been a silent unsafe access.
    Err = "audit: " + std::to_string(Out.AuditAlignFired) + " align + " +
          std::to_string(Out.AuditBoundsFired) +
          " bounds elided-eligible checks would have fired";
    Ok = false;
  } else if (!checkAgainstGolden(K, Out, Err)) {
    Err = "golden mismatch: " + Err;
    Ok = false;
  } else if (Fired == 0) {
    if (Out.Tier != CleanTier || !Out.Demotions.empty()) {
      Err = "no fault fired but tier is " +
            std::string(tierName(Out.Tier)) + " with " +
            std::to_string(Out.Demotions.size()) + " demotions";
      Ok = false;
    }
  } else {
    if (Out.Demotions.empty()) {
      Err = "fault fired but no demotion was recorded";
      Ok = false;
    } else if (Expect && Out.Tier != *Expect) {
      Err = "fault fired but tier is " + std::string(tierName(Out.Tier)) +
            ", expected " + tierName(*Expect);
      Ok = false;
    }
  }

  S.Fired += Fired;
  S.Retries += Out.Retries;
  S.Demotions += Out.Demotions.size();
  ++S.TierCount[static_cast<unsigned>(Out.Tier)];
  if (!Ok) {
    ++S.Failures;
    std::printf("FAIL %-16s %-8s %-28s %s\n", K.Name.c_str(), T.Name.c_str(),
                Desc.c_str(), Err.c_str());
  } else if (Verbose) {
    std::printf("ok   %-16s %-8s %-28s tier=%s demotions=%zu retries=%u\n",
                K.Name.c_str(), T.Name.c_str(), Desc.c_str(),
                tierName(Out.Tier), Out.Demotions.size(), Out.Retries);
  }
  return Ok;
}

/// Dynamic hit counts per class for one clean run (site discovery).
void countSites(const kernels::Kernel &K, const target::TargetDesc &T,
                bool Native, bool Audit,
                uint64_t Hits[faultinject::NumSiteClasses]) {
  faultinject::resetHits();
  faultinject::startCounting();
  RunOptions O;
  O.Target = T;
  O.UseNative = Native;
  if (Audit)
    O.Elide = target::ElisionMode::Audit;
  else if (NoElide)
    O.Elide = target::ElisionMode::Off;
  runKernel(K, Flow::SplitVectorized, O);
  for (unsigned C = 0; C < faultinject::NumSiteClasses; ++C)
    Hits[C] = faultinject::hits(static_cast<SiteClass>(C));
  faultinject::disarm();
  faultinject::resetHits();
}

void sweepOne(const kernels::Kernel &K, const target::TargetDesc &T,
              Stats &S, bool Native, bool Audit, bool Verbose) {
  // Baseline: no injection active at all (the 1-branch fast path).
  runCase(K, T, "clean", nullptr, S, Native, Audit, Verbose,
          prewarmTiered(K, T, Native, Audit));

  uint64_t Hits[faultinject::NumSiteClasses];
  countSites(K, T, Native, Audit, Hits);

  constexpr SiteClass Classes[] = {SiteClass::Decode, SiteClass::Verify,
                                   SiteClass::JitLower, SiteClass::VmAlign,
                                   SiteClass::NativeTrap};
  for (SiteClass C : Classes) {
    uint64_t N = Hits[static_cast<unsigned>(C)];
    if (N == 0)
      continue; // This surface never runs here (e.g. no checked vector
                // accesses on an all-scalar lowering).

    // One-shot faults at sampled dynamic sites: first, middle, last.
    std::vector<uint64_t> Sites = {0, N / 2, N - 1};
    Sites.erase(std::unique(Sites.begin(), Sites.end()), Sites.end());
    for (uint64_t Site : Sites) {
      ExecTier Expect = expectedTier(C, /*Sticky=*/false, Native);
      // Prewarm BEFORE arming: promotion runs must not eat the fault.
      uint64_t Salt = prewarmTiered(K, T, Native, Audit);
      faultinject::ScopedFault F(C, Site, /*Sticky=*/false);
      runCase(K, T,
              std::string(siteClassName(C)) + "@" + std::to_string(Site),
              &Expect, S, Native, Audit, Verbose, Salt);
    }

    // Sticky fault: fires at every occurrence from the first on.
    {
      ExecTier Expect = expectedTier(C, /*Sticky=*/true, Native);
      uint64_t Salt = prewarmTiered(K, T, Native, Audit);
      faultinject::ScopedFault F(C, 0, /*Sticky=*/true);
      runCase(K, T, std::string(siteClassName(C)) + " sticky", &Expect, S,
              Native, Audit, Verbose, Salt);
    }
  }
}

void writeJson(const char *Path, const Stats &S, size_t Kernels,
               size_t Targets, bool Native, bool Audit) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::printf("cannot write %s\n", Path);
    return;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"suite\": \"vapor-crashtest\",\n");
  std::fprintf(F, "  \"flow\": \"split-vectorized\",\n");
  std::fprintf(F, "  \"native_entry\": %s,\n", Native ? "true" : "false");
  std::fprintf(F, "  \"audit_mode\": %s,\n", Audit ? "true" : "false");
  std::fprintf(F, "  \"tiered\": %s,\n", Tiered ? "true" : "false");
  std::fprintf(F, "  \"audit_align_fired\": %llu,\n",
               (unsigned long long)S.AuditAlign);
  std::fprintf(F, "  \"audit_bounds_fired\": %llu,\n",
               (unsigned long long)S.AuditBounds);
  std::fprintf(F, "  \"kernels\": %zu,\n", Kernels);
  std::fprintf(F, "  \"targets\": %zu,\n", Targets);
  std::fprintf(F, "  \"cases\": %llu,\n", (unsigned long long)S.Cases);
  std::fprintf(F, "  \"aborts\": 0,\n");
  std::fprintf(F, "  \"failures\": %llu,\n", (unsigned long long)S.Failures);
  std::fprintf(F, "  \"faults_fired\": %llu,\n",
               (unsigned long long)S.Fired);
  std::fprintf(F, "  \"demotions\": %llu,\n",
               (unsigned long long)S.Demotions);
  std::fprintf(F, "  \"deopt_retries\": %llu,\n",
               (unsigned long long)S.Retries);
  std::fprintf(F, "  \"tier_distribution\": {\n");
  const char *Names[5] = {"native", "vectorized", "scalar-jit",
                          "scalar-bytecode", "interpreter"};
  for (unsigned I = 0; I < 5; ++I)
    std::fprintf(F, "    \"%s\": %llu%s\n", Names[I],
                 (unsigned long long)S.TierCount[I], I + 1 < 5 ? "," : "");
  std::fprintf(F, "  }\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Path);
}

} // namespace

static int usage() {
  std::printf("usage: vapor-crashtest --all-kernels [--native] "
              "[--audit | --no-elide] [--tiered] "
              "[--json <path>] [--trace <path>] [--jobs N] [--verbose]\n"
              "       vapor-crashtest <kernel> [target] [--native] "
              "[--audit | --no-elide] [--tiered] "
              "[--trace <path>] [--jobs N] [--verbose]\n");
  return 2;
}

int main(int argc, char **argv) {
  bool All = false, Verbose = false, Native = false, Audit = false;
  const char *JsonPath = nullptr;
  const char *TracePath = nullptr;
  unsigned Jobs = sweep::defaultJobs();
  std::string KernelName, TargetName;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--all-kernels"))
      All = true;
    else if (!std::strcmp(argv[I], "--native"))
      Native = true;
    else if (!std::strcmp(argv[I], "--audit"))
      Audit = true;
    else if (!std::strcmp(argv[I], "--no-elide"))
      NoElide = true;
    else if (!std::strcmp(argv[I], "--tiered"))
      Tiered = true;
    else if (!std::strcmp(argv[I], "--verbose"))
      Verbose = true;
    else if (!std::strcmp(argv[I], "--json") && I + 1 < argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--trace") && I + 1 < argc)
      TracePath = argv[++I];
    else if (!std::strcmp(argv[I], "--jobs") && I + 1 < argc) {
      // atoi would fold garbage (and "0") to a zero-worker pool request;
      // validate and clamp instead.
      if (!sweep::parseJobs(argv[++I], Jobs)) {
        std::printf("invalid --jobs value '%s' (expected a number >= 1)\n",
                    argv[I]);
        return usage();
      }
    } else if (argv[I][0] == '-') {
      // A mistyped flag must not be silently swallowed as a kernel name.
      std::printf("unknown option '%s'\n", argv[I]);
      return usage();
    } else if (KernelName.empty())
      KernelName = argv[I];
    else
      TargetName = argv[I];
  }
  if (Audit && NoElide) {
    // Contradictory: --audit asks to observe elided-eligible checks
    // firing, --no-elide removes the elision grants it audits.
    std::printf("--audit conflicts with --no-elide: audit mode observes "
                "the checks elision would remove\n");
    return usage();
  }
  if (!All && KernelName.empty())
    return usage();
  if (Native && !codegen::supported()) {
    std::printf("native tier unsupported on this host (features: %s); "
                "sweeping the classic chain instead\n",
                codegen::hostFeatures().str().c_str());
    Native = false;
  }
  if (Tiered) {
    // Small thresholds keep the per-case prewarm (clean runs to the
    // entry ceiling before arming the fault) cheap across the sweep.
    jit::tiering::Config C = jit::tiering::engine().config();
    C.HotVectorized = 2;
    C.HotNative = 4;
    jit::tiering::engine().setConfig(C);
  }

  // --trace wins over the VAPOR_TRACE environment variable; the sink's
  // destructor writes the Chrome-trace JSON when main returns.
  std::unique_ptr<obs::TraceSink> Sink =
      TracePath ? std::make_unique<obs::TraceSink>(TracePath)
                : obs::TraceSink::fromEnv("VAPOR_TRACE");

  std::vector<kernels::Kernel> Ks = kernels::allKernels();
  std::vector<target::TargetDesc> Ts = target::allTargets();
  if (!All) {
    const kernels::Kernel *K = sweep::kernelByNameOrNull(Ks, KernelName);
    if (!K) {
      std::printf("unknown kernel '%s'\n", KernelName.c_str());
      return 2;
    }
    Ks = {*K};
    if (!TargetName.empty()) {
      const target::TargetDesc *T = sweep::targetByNameOrNull(Ts, TargetName);
      if (!T) {
        std::printf("unknown target '%s'\n", TargetName.c_str());
        return 2;
      }
      Ts = {*T};
    }
  }

  // One cell per kernel x target; each runs on its own pool worker with
  // its own thread-local fault controller, and merges its per-cell Stats
  // (pure sums) under one mutex.
  Stats S;
  std::mutex MergeMu;
  size_t NumCells = Ks.size() * Ts.size();
  support::parallelFor(Jobs, NumCells, [&](size_t Cell) {
    const kernels::Kernel &K = Ks[Cell / Ts.size()];
    const target::TargetDesc &T = Ts[Cell % Ts.size()];
    Stats Local;
    sweepOne(K, T, Local, Native, Audit, Verbose);
    std::lock_guard<std::mutex> Lock(MergeMu);
    S.Cases += Local.Cases;
    S.Failures += Local.Failures;
    S.Fired += Local.Fired;
    S.Retries += Local.Retries;
    S.Demotions += Local.Demotions;
    S.AuditAlign += Local.AuditAlign;
    S.AuditBounds += Local.AuditBounds;
    for (unsigned I = 0; I < 5; ++I)
      S.TierCount[I] += Local.TierCount[I];
  });

  std::printf("crashtest: %llu cases, %llu faults fired, %llu demotions, "
              "%llu deopt retries, %llu failures, 0 aborts\n",
              (unsigned long long)S.Cases, (unsigned long long)S.Fired,
              (unsigned long long)S.Demotions, (unsigned long long)S.Retries,
              (unsigned long long)S.Failures);
  std::printf("tiers: native=%llu vectorized=%llu scalar-jit=%llu "
              "scalar-bytecode=%llu interpreter=%llu\n",
              (unsigned long long)S.TierCount[0],
              (unsigned long long)S.TierCount[1],
              (unsigned long long)S.TierCount[2],
              (unsigned long long)S.TierCount[3],
              (unsigned long long)S.TierCount[4]);
  if (Audit)
    std::printf("audit: %llu align + %llu bounds elided-eligible checks "
                "would have fired (soundness requires 0 + 0)\n",
                (unsigned long long)S.AuditAlign,
                (unsigned long long)S.AuditBounds);
  if (Tiered) {
    jit::tiering::engine().drain();
    jit::tiering::EngineStats TS = jit::tiering::engine().stats();
    std::printf("tiering: %llu invocations, %llu promotions, %llu/%llu "
                "compiles ok, %llu pins\n",
                (unsigned long long)TS.Invocations,
                (unsigned long long)TS.Promotions,
                (unsigned long long)TS.CompilesOk,
                (unsigned long long)(TS.CompilesOk + TS.CompilesFailed),
                (unsigned long long)TS.Pins);
  }
  if (JsonPath)
    writeJson(JsonPath, S, Ks.size(), Ts.size(), Native, Audit);
  return static_cast<int>(S.Failures);
}
