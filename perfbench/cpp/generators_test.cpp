//===- perfbench/cpp/generators_test.cpp - Generator determinism tests ----===//
//
// Part of the Vapor SIMD reproduction's benchmark.
//
// The key set, pass order, placement draw, Zipf draw and arrival
// schedule must be pure functions of the seed: the same seed gives the
// same inputs, another seed other inputs. Exits non-zero on any failure.
//
//===----------------------------------------------------------------------===//

#include "Generators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

using namespace perfbench;

static int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #Cond);              \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

/// 36 kernels, six with external arrays, as in the registry.
static std::vector<uint32_t> registryShape() {
  std::vector<uint32_t> Ext(36, 0);
  Ext[1] = 1;
  Ext[4] = 4;
  Ext[9] = 2;
  Ext[20] = 8;
  Ext[30] = 1;
  Ext[31] = 2;
  return Ext;
}

static void testKeys() {
  const std::vector<uint32_t> Ext = registryShape();
  const std::vector<Key> A = makeKeys(1, Ext, 5), B = makeKeys(1, Ext, 5),
                         C = makeKeys(2, Ext, 5);
  CHECK(A.size() == 36u * 5u * 2u);
  CHECK(A == B);
  bool Differs = false;
  for (size_t I = 0; I < A.size(); ++I) {
    const uint32_t E = Ext[A[I].Kernel];
    CHECK(A[I].Misalign < 32);
    CHECK(E ? A[I].Misalign % E == 0 : A[I].Misalign == 0);
    CHECK(A[I].Kernel == C[I].Kernel && A[I].Target == C[I].Target &&
          A[I].Native == C[I].Native);
    Differs |= A[I].Misalign != C[I].Misalign;
  }
  CHECK(Differs);
  for (const Key &K : makeKeys(1, Ext, 5, /*WithPlacement=*/false))
    CHECK(K.Misalign == 0);
  for (uint32_t I = 0; I < 100; ++I) {
    CHECK(drawMisalign(3, I, 4) == drawMisalign(3, I, 4));
    CHECK(drawMisalign(3, I, 0) == 0);
  }
}

static void testPassOrder() {
  const std::vector<uint32_t> A = passOrder(1, 0, 360), B = passOrder(1, 0, 360);
  CHECK(A == B);
  std::vector<uint32_t> Sorted = A;
  std::sort(Sorted.begin(), Sorted.end());
  for (uint32_t I = 0; I < Sorted.size(); ++I)
    CHECK(Sorted[I] == I);
  CHECK(passOrder(1, 1, 360) != A);
  CHECK(passOrder(2, 0, 360) != A);
}

static void testZipf() {
  const Zipf Z(360, 1.0);
  double Sum = 0;
  for (size_t R = 0; R < 360; ++R) {
    Sum += Z.probability(R);
    if (R)
      CHECK(Z.probability(R) <= Z.probability(R - 1));
  }
  CHECK(std::fabs(Sum - 1.0) < 1e-9);
  Rng A(9), B(9);
  size_t Head = 0;
  const size_t N = 200000;
  for (size_t I = 0; I < N; ++I) {
    const size_t X = Z.draw(A);
    CHECK(X == Z.draw(B));
    CHECK(X < 360);
    Head += X == 0;
  }
  CHECK(std::fabs(double(Head) / N - Z.probability(0)) < 0.01);
  const std::vector<uint32_t> Rank = popularityRanking(360);
  CHECK(Rank == popularityRanking(360));
  CHECK(std::set<uint32_t>(Rank.begin(), Rank.end()).size() == 360);
}

static void testArrivals() {
  const auto A = arrivalSchedule(1, 1000, 5, 1, 360, 1.0, 2);
  const auto B = arrivalSchedule(1, 1000, 5, 1, 360, 1.0, 2);
  const auto C = arrivalSchedule(2, 1000, 5, 1, 360, 1.0, 2);
  CHECK(A.size() == B.size());
  for (size_t I = 0; I < A.size() && I < B.size(); ++I)
    CHECK(A[I].AtSec == B[I].AtSec && A[I].Key == B[I].Key &&
          A[I].Conn == B[I].Conn);
  // 1 s ramping from 200/s to 1000/s, then 4 s at 1000/s.
  CHECK(std::fabs(double(A.size()) - 4600) < 300);
  for (size_t I = 0; I < A.size(); ++I) {
    CHECK(A[I].AtSec < 5 && A[I].Key < 360 && A[I].Conn == I % 2);
    if (I)
      CHECK(A[I].AtSec > A[I - 1].AtSec);
  }
  bool Differs = A.size() != C.size();
  for (size_t I = 0; !Differs && I < A.size(); ++I)
    Differs = A[I].Key != C[I].Key || A[I].AtSec != C[I].AtSec;
  CHECK(Differs);
  // A prefix of time is the same stream: a shorter phase is a prefix.
  const auto Short = arrivalSchedule(1, 1000, 2.5, 1, 360, 1.0, 2);
  for (size_t I = 0; I < Short.size(); ++I)
    CHECK(Short[I].AtSec == A[I].AtSec && Short[I].Key == A[I].Key);
}

int main() {
  testKeys();
  testPassOrder();
  testZipf();
  testArrivals();
  std::printf("%s (%d failures)\n", Failures ? "FAILED" : "generators ok",
              Failures);
  return Failures ? 1 : 0;
}
