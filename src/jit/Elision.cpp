//===- jit/Elision.cpp - Certificate-driven check elision planner ---------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "jit/Elision.h"

#include "support/Support.h"

#include <sstream>

namespace vapor {
namespace jit {

using target::ElisionMode;
using target::ElisionPlan;

namespace {

uint64_t planHash(const ElisionPlan &P) {
  uint64_t H = hashCombine(0x454c49444eULL, // "ELIDN"
                           static_cast<uint64_t>(P.Mode));
  return hashBytes(P.Proven.data(), P.Proven.size(), H);
}

std::string arrayName(const ir::Function &F, uint32_t A) {
  if (A < F.Arrays.size() && !F.Arrays[A].Name.empty())
    return F.Arrays[A].Name;
  return "arr" + std::to_string(A);
}

} // namespace

ElisionPlan buildElisionPlan(const ir::Function &F,
                             const analysis::SafetyCertificate *Cert,
                             const target::TargetDesc &T,
                             const target::MemoryImage &Image,
                             ElisionMode Mode,
                             const analysis::ParamFn &Params) {
  ElisionPlan P;
  P.Mode = Mode;
  if (Mode == ElisionMode::Off || !Cert) {
    P.Hash = planHash(P);
    return P;
  }

  // Machine-parameter binding: a certificate instantiated for a different
  // target's vector size proves nothing about this lowering.
  if (Cert->TargetName != T.Name || Cert->VSBytes != T.VSBytes) {
    P.CheckerError = "certificate bound to target '" + Cert->TargetName +
                     "' (VS=" + std::to_string(Cert->VSBytes) +
                     "), lowering for '" + T.Name +
                     "' (VS=" + std::to_string(T.VSBytes) + ")";
    P.FactsRejected = static_cast<uint32_t>(Cert->Facts.size());
    P.Hash = planHash(P);
    return P;
  }

  // Independent structural validation: content hash, access identity,
  // claimed shapes, static-range recomputation. Fails closed.
  if (std::string Err = analysis::checkCertificate(F, *Cert); !Err.empty()) {
    P.CheckerError = Err;
    P.FactsRejected = static_cast<uint32_t>(Cert->Facts.size());
    P.Hash = planHash(P);
    return P;
  }

  P.Proven.assign(F.Instrs.size(), 0);

  analysis::BoundsEvaluator BE(F, T.VSBytes, Params);
  for (const analysis::AccessFact &Fact : Cert->Facts) {
    const ir::Instr &I = F.Instrs[Fact.InstrIdx];
    std::ostringstream D;
    D << "#" << Fact.InstrIdx << " " << ir::opcodeMnemonic(I.Op) << " "
      << arrayName(F, Fact.Array) << ":";
    bool AnyElide = false, AnyKeep = false, AnyReject = false;

    if (Fact.HasAlign) {
      if (analysis::checkAlignFact(F, *Cert, Fact) !=
          analysis::FactVerdict::Confirmed) {
        AnyReject = true;
        D << " align=reject(checker)";
      } else {
        // The checked congruence is conditional on every named base
        // alignment; test them against the concrete placement.
        bool BasesOk = true;
        uint32_t BadArray = ir::NoArray;
        for (const analysis::BaseAlignReq &R : Fact.BaseReqs) {
          if (R.Array >= Image.arrayCount() || R.Bytes == 0 ||
              Image.base(R.Array) % R.Bytes != 0) {
            BasesOk = false;
            BadArray = R.Array;
            break;
          }
        }
        if (BasesOk) {
          P.Proven[Fact.InstrIdx] |= ElisionPlan::AlignBit;
          AnyElide = true;
          D << " align=elide(mod" << Fact.AlignElems << " proven, "
            << Fact.BaseReqs.size() << " base req"
            << (Fact.BaseReqs.size() == 1 ? "" : "s") << " hold)";
        } else {
          AnyKeep = true;
          D << " align=keep(base(" << arrayName(F, BadArray)
            << ") misaligned at runtime)";
        }
      }
    }

    if (Fact.HasBounds) {
      // Extent always from the bytecode, never the certificate: the
      // checker verified they agree, but bounds trust must not rest on
      // producer data.
      int64_t Limit =
          static_cast<int64_t>(F.Arrays[Fact.Array].NumElems) -
          static_cast<int64_t>(Fact.SpanElems);
      std::optional<analysis::Interval> Rng = BE.eval(Fact.IndexVal);
      if (Rng && Limit >= 0 && Rng->Min >= 0 && Rng->Max <= Limit) {
        P.Proven[Fact.InstrIdx] |= ElisionPlan::BoundsBit;
        AnyElide = true;
        D << " bounds=elide([" << Rng->Min << "," << Rng->Max << "] in [0,"
          << Limit << "])";
      } else if (!Rng) {
        AnyKeep = true;
        D << " bounds=keep(range not derivable with run parameters)";
      } else {
        AnyKeep = true;
        D << " bounds=keep([" << Rng->Min << "," << Rng->Max
          << "] not in [0," << Limit << "])";
      }
    }

    if (AnyReject)
      ++P.FactsRejected;
    if (P.Proven[Fact.InstrIdx] & ElisionPlan::AlignBit)
      ++P.AlignElided;
    if (P.Proven[Fact.InstrIdx] & ElisionPlan::BoundsBit)
      ++P.BoundsElided;
    if (AnyKeep || (AnyReject && !AnyElide))
      ++P.ChecksKept;
    P.Decisions.push_back(D.str());
  }

  P.Hash = planHash(P);
  return P;
}

} // namespace jit
} // namespace vapor
