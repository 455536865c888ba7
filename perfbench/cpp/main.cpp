//===- perfbench/cpp/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
// perfbench --workload <cold_start|hot_loop|serve_zipf> --seed <n>
//           --seconds <s> --trace <0|1>
// perfbench --calibrate [--seed <n>]
//
// Prints one "metric <name> <value> <unit> samples=<n>" line per metric,
// then, as the last line, the JSON result: the end-to-end metrics for
// --trace 0, the per-layer metrics for --trace 1.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

/// The end-to-end metrics of BENCHMARK.json. Their wall times are scaled
/// to the nominal host (HostSpeed.h); the unscaled ones are printed as
/// wall_* report lines. fail_ratio is reported on its own line only: it
/// is 0 on a healthy build and the JSON's "failed" field already carries
/// it. latency_us_p90 and latency_us_p99 too: on a shared 4-vCPU VM the
/// spread of a latency percentile over ten runs grew with the percentile
/// (serve_zipf IQR/median, unscaled: p50 0.10, p90 0.14, p95 0.19, p99
/// 0.27-0.41). Scaled, serve_zipf's p90 still spread 0.04 in one set of
/// ten runs and 0.16 in another: it sits on the upper edge of a hump of
/// cold-tier requests (2.2-2.5 ms), where the density falls about threefold,
/// so a small shift of the tier mix moves it far. The p85 lies inside the
/// hump, so the bounded tail is the p85.
const char *const EndToEnd[] = {
    "latency_us_p50",         "latency_us_p85", "latency_us_geomean",
    "ops_per_s",              "peak_rss_mb",    "modeled_cycles_geomean",
    "bytecode_bytes",         "setup_s"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --calibrate [--seed <n>]\n");
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End != S && !*End;
}

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// \returns false (with \p Error set) when the workload could not run at
/// all; wrong outputs only clear Report::Correct.
bool runWorkload(const Config &C, Report &R, std::string &Error) {
  if (C.Workload == "cold_start" || C.Workload == "hot_loop") {
    runKernelFlow(C, C.Workload == "cold_start", R);
    return true;
  }
  if (C.Workload == "serve_zipf")
    return runServe(C, R, Error);
  Error = "unknown workload '" + C.Workload + "'";
  return false;
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  bool HaveWorkload = false, Calibrate = false;
  uint64_t V = 0;
  for (int I = 1; I < argc; ++I) {
    const bool HasValue = I + 1 < argc;
    if (!std::strcmp(argv[I], "--workload") && HasValue) {
      C.Workload = argv[++I];
      HaveWorkload = true;
    } else if (!std::strcmp(argv[I], "--seed") && HasValue &&
               parseU64(argv[I + 1], V)) {
      C.Seed = V;
      ++I;
    } else if (!std::strcmp(argv[I], "--seconds") && HasValue &&
               parseU64(argv[I + 1], V) && V >= 1) {
      C.Seconds = static_cast<double>(V);
      ++I;
    } else if (!std::strcmp(argv[I], "--trace") && HasValue &&
               parseU64(argv[I + 1], V) && V <= 1) {
      C.Trace = V == 1;
      ++I;
    } else if (!std::strcmp(argv[I], "--calibrate")) {
      Calibrate = true;
    } else {
      std::fprintf(stderr, "bad argument '%s'\n", argv[I]);
      return usage();
    }
  }

  std::string Error;
  if (Calibrate) {
    double Ops = 0;
    if (!calibrateServe(C.Seed, Ops, Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return 1;
    }
    std::printf("closed-loop serve_zipf throughput: %.1f requests/s\n", Ops);
    return 0;
  }
  if (!HaveWorkload)
    return usage();

  Report R;
  if (!runWorkload(C, R, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Seconds, C.Trace ? 1 : 0);
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("metric %-34s %16s %-6s samples=%llu\n", M.Name.c_str(),
                number(M.Value).c_str(), M.Unit.c_str(),
                static_cast<unsigned long long>(M.Samples));

  std::vector<std::string> Names;
  if (C.Trace)
    for (const auto &NU : perLayerMetrics())
      Names.push_back(NU.first);
  else
    Names.assign(std::begin(EndToEnd), std::end(EndToEnd));
  std::string Json = "{\"correct\": ";
  Json += R.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const std::string &N : Names) {
    const Metric *Found = nullptr;
    for (const Metric &M : R.Metrics)
      if (M.Name == N)
        Found = &M;
    if (!Found) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   N.c_str());
      return 1;
    }
    Json += First ? "" : ", ";
    First = false;
    Json += "\"" + N + "\": {\"value\": " + number(Found->Value) +
            ", \"unit\": \"" + Found->Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return R.Correct && R.Attempted > 0 ? 0 : 1;
}
