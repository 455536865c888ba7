//===- perfbench/cpp/Ledger.cpp - Statistics and span attribution ---------===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;
using vapor::obs::Event;

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::geomean(const std::vector<double> &V) {
  double LogSum = 0;
  size_t N = 0;
  for (double X : V)
    if (X > 0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0;
}

double perfbench::mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

BlockStats perfbench::blockStats(
    const std::vector<std::vector<double>> &Latencies,
    const std::vector<double> &Seconds) {
  std::vector<double> P50, P85, P90, P99, Geo, Rate;
  for (size_t B = 0; B < Latencies.size(); ++B) {
    if (Latencies[B].empty())
      continue;
    P50.push_back(percentile(Latencies[B], 50));
    P85.push_back(percentile(Latencies[B], 85));
    P90.push_back(percentile(Latencies[B], 90));
    P99.push_back(percentile(Latencies[B], 99));
    Geo.push_back(geomean(Latencies[B]));
    if (B < Seconds.size() && Seconds[B] > 0)
      Rate.push_back(Latencies[B].size() / Seconds[B]);
  }
  BlockStats S;
  S.P50 = median(P50);
  S.P85 = median(P85);
  S.P90 = median(P90);
  S.P99 = median(P99);
  S.Geomean = median(Geo);
  S.Rate = median(Rate);
  S.Blocks = P50.size();
  return S;
}

namespace {

/// Event args hold pre-rendered JSON; string values arrive quoted.
std::string argValue(const Event &E, const std::string &Key) {
  for (const auto &KV : E.Args)
    if (KV.first == Key) {
      const std::string &V = KV.second;
      if (V.size() >= 2 && V.front() == '"' && V.back() == '"')
        return V.substr(1, V.size() - 2);
      return V;
    }
  return "";
}

} // namespace

std::map<std::string, OpLedger>
perfbench::attributeSpans(const std::vector<Event> &Events,
                          const std::string &RootCat,
                          const std::string &RootName,
                          const std::string &KeyArg) {
  // Per thread, parents sort before their children: earlier start first,
  // and at equal starts the longer span first.
  std::map<uint32_t, std::vector<const Event *>> ByThread;
  for (const Event &E : Events)
    if (E.Ph == Event::Phase::Complete)
      ByThread[E.Tid].push_back(&E);

  std::map<std::string, OpLedger> Out;
  for (auto &TV : ByThread) {
    std::vector<const Event *> &Evs = TV.second;
    std::sort(Evs.begin(), Evs.end(), [](const Event *A, const Event *B) {
      return A->TsNs != B->TsNs ? A->TsNs < B->TsNs : A->DurNs > B->DurNs;
    });
    struct Open {
      const Event *E;
      double ChildUs;
      OpLedger *Root; ///< Ledger of the enclosing root (null: none).
    };
    std::vector<Open> Stack;
    auto close = [](Open &O) {
      if (O.Root)
        O.Root->SelfUs[O.E->Cat + "/" + O.E->Name] +=
            O.E->DurNs / 1000.0 - O.ChildUs;
    };
    for (const Event *E : Evs) {
      while (!Stack.empty() &&
             Stack.back().E->TsNs + Stack.back().E->DurNs <= E->TsNs) {
        close(Stack.back());
        Stack.pop_back();
      }
      // A span that overlaps its predecessor without nesting cannot occur
      // on one thread; treat it as top level rather than misattribute.
      while (!Stack.empty() && Stack.back().E->TsNs + Stack.back().E->DurNs <
                                   E->TsNs + E->DurNs) {
        close(Stack.back());
        Stack.pop_back();
      }
      OpLedger *Root = Stack.empty() ? nullptr : Stack.back().Root;
      if (!Stack.empty())
        Stack.back().ChildUs += E->DurNs / 1000.0;
      if (E->Cat == RootCat && E->Name == RootName && !Root) {
        Root = &Out[argValue(*E, KeyArg)];
        Root->TotalUs = E->DurNs / 1000.0;
      }
      Stack.push_back({E, 0.0, Root});
    }
    while (!Stack.empty()) {
      close(Stack.back());
      Stack.pop_back();
    }
  }
  return Out;
}
