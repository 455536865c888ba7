//===- bytecode/Bytecode.cpp - Split-layer container format ---------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"

#include "bytecode/Encoding.h"
#include "ir/Verifier.h"
#include "support/FaultInject.h"
#include "support/Support.h"

using namespace vapor;
using namespace vapor::bytecode;
using namespace vapor::ir;

namespace {

constexpr uint32_t Magic = 0x56534d44; // "VSMD"
constexpr uint32_t Version = 1;

void encodeType(ByteWriter &W, Type T) {
  W.writeU8(static_cast<uint8_t>(T.Elem) | (T.Vector ? 0x80 : 0));
}

bool validKind(uint8_t K) {
  return K <= static_cast<uint8_t>(ScalarKind::F64);
}

/// \returns false on an out-of-range element kind: a garbage kind must be
/// rejected here, before it can reach kind-dispatched code (widening
/// tables, size computations) downstream.
bool decodeType(ByteReader &R, Type &Out) {
  uint8_t B = R.readU8();
  if (!validKind(B & 0x7f))
    return false;
  Out = Type(static_cast<ScalarKind>(B & 0x7f), (B & 0x80) != 0);
  return !R.failed();
}

void encodeRegion(ByteWriter &W, const Region &R) {
  W.writeU64(R.Nodes.size());
  for (const NodeRef &N : R.Nodes) {
    W.writeU8(static_cast<uint8_t>(N.Kind));
    W.writeU64(N.Index);
  }
}

// The fewest bytes one table entry encodes to: every field takes at least
// one byte. A count read from the stream is checked against the bytes left
// at these sizes before anything is sized from it.
constexpr uint64_t MinArrayBytes = 4;   // Name, kind, count, alignment.
constexpr uint64_t MinValueBytes = 5;   // Type, def, A, B, name.
constexpr uint64_t MinParamBytes = 1;   // Value id.
constexpr uint64_t MinInstrBytes = 5;   // Op, type, result, #ops, flags.
constexpr uint64_t MinOperandBytes = 1; // Value or array id.
constexpr uint64_t MinLoopBytes = 8;    // 4 ids, role, limit, #carried,
                                        // #body nodes.
constexpr uint64_t MinCarriedBytes = 4; // Phi, init, next, result.
constexpr uint64_t MinIfBytes = 3;      // Cond, #then, #else.
constexpr uint64_t MinNodeBytes = 2;    // Kind, index.

Status malformed(std::string Msg) {
  return Status::error(status::Code::MalformedModule, status::Layer::Bytecode,
                       std::move(Msg));
}

/// A module that claims more entries than its remaining bytes can hold
/// is cut short or lying: it fails here, before a table is sized from the
/// count or a loop runs over it.
Status checkCount(const ByteReader &R, uint64_t Count, uint64_t MinBytes,
                  const char *Table) {
  if (Count <= R.remaining() / MinBytes)
    return Status::okStatus();
  return Status::error(status::Code::TruncatedModule, status::Layer::Bytecode,
                       std::string(Table) + ": count " +
                           std::to_string(Count) + " exceeds the " +
                           std::to_string(R.remaining()) + " bytes left");
}

Status decodeRegion(ByteReader &R, Region &Out, const char *Malformed) {
  uint64_t N = R.readU64();
  if (R.failed() || N > (1u << 24))
    return malformed(Malformed);
  if (Status S = checkCount(R, N, MinNodeBytes, "region nodes"); !S.ok())
    return S;
  Out.Nodes.resize(N);
  for (uint64_t I = 0; I < N; ++I) {
    uint8_t K = R.readU8();
    if (K > static_cast<uint8_t>(NodeKind::If))
      return malformed(Malformed);
    Out.Nodes[I].Kind = static_cast<NodeKind>(K);
    Out.Nodes[I].Index = static_cast<uint32_t>(R.readU64());
  }
  if (R.failed())
    return malformed(Malformed);
  return Status::okStatus();
}

void encodeInstr(ByteWriter &W, const Instr &I) {
  W.writeU8(static_cast<uint8_t>(I.Op));
  encodeType(W, I.Ty);
  W.writeU64(I.Result == NoValue ? 0 : I.Result + 1);
  W.writeU64(I.Ops.size());
  for (ValueId Op : I.Ops)
    W.writeU64(Op);

  // Optional payloads are flag-gated so common instructions stay small.
  uint8_t Flags = 0;
  if (I.IntImm)
    Flags |= 1;
  if (I.IntImm2)
    Flags |= 2;
  if (I.FPImm != 0)
    Flags |= 4;
  if (I.Array != NoArray)
    Flags |= 8;
  if (I.TyParam != ScalarKind::None)
    Flags |= 16;
  if (I.Hint.Mod != 0 || I.Hint.Mis != -1 || I.Hint.IfJitAligns)
    Flags |= 32;
  if (I.Guard != GuardKind::None)
    Flags |= 64;
  W.writeU8(Flags);
  if (Flags & 1)
    W.writeI64(I.IntImm);
  if (Flags & 2)
    W.writeI64(I.IntImm2);
  if (Flags & 4)
    W.writeF64(I.FPImm);
  if (Flags & 8)
    W.writeU64(I.Array);
  if (Flags & 16)
    W.writeU8(static_cast<uint8_t>(I.TyParam));
  if (Flags & 32) {
    W.writeI64(I.Hint.Mis);
    W.writeI64(I.Hint.Mod);
    W.writeU8(I.Hint.IfJitAligns);
  }
  if (Flags & 64) {
    W.writeU8(static_cast<uint8_t>(I.Guard));
    W.writeU64(I.GuardArgs.size());
    for (uint32_t A : I.GuardArgs)
      W.writeU64(A);
  }
}

Status decodeInstr(ByteReader &R, Instr &I, uint64_t Idx) {
  auto Bad = [&] {
    return malformed("malformed instruction #" + std::to_string(Idx));
  };
  uint8_t Op = R.readU8();
  if (Op >= NumOpcodes)
    return Bad();
  I.Op = static_cast<Opcode>(Op);
  if (!decodeType(R, I.Ty))
    return Bad();
  uint64_t Res = R.readU64();
  I.Result = Res == 0 ? NoValue : static_cast<ValueId>(Res - 1);
  uint64_t NOps = R.readU64();
  if (R.failed() || NOps > (1u << 16))
    return Bad();
  if (Status S = checkCount(R, NOps, MinOperandBytes, "instruction operands");
      !S.ok())
    return S;
  I.Ops.resize(NOps);
  for (uint64_t J = 0; J < NOps; ++J)
    I.Ops[J] = static_cast<ValueId>(R.readU64());

  uint8_t Flags = R.readU8();
  if (Flags & 1)
    I.IntImm = R.readI64();
  if (Flags & 2)
    I.IntImm2 = R.readI64();
  if (Flags & 4)
    I.FPImm = R.readF64();
  if (Flags & 8)
    I.Array = static_cast<uint32_t>(R.readU64());
  if (Flags & 16) {
    uint8_t K = R.readU8();
    if (!validKind(K))
      return Bad();
    I.TyParam = static_cast<ScalarKind>(K);
  }
  if (Flags & 32) {
    I.Hint.Mis = static_cast<int32_t>(R.readI64());
    I.Hint.Mod = static_cast<int32_t>(R.readI64());
    I.Hint.IfJitAligns = R.readU8() != 0;
    // A hint is a claim, not an instruction: garbage values must not be
    // able to smuggle negative or absurd moduli past the consumer.
    if (I.Hint.Mis < -1 || I.Hint.Mod < 0 || I.Hint.Mod > (1 << 20) ||
        I.Hint.Mis > (1 << 20))
      return Bad();
  }
  if (Flags & 64) {
    uint8_t G = R.readU8();
    if (G > static_cast<uint8_t>(GuardKind::PreferOuterLoop))
      return Bad();
    I.Guard = static_cast<GuardKind>(G);
    uint64_t NArgs = R.readU64();
    if (R.failed() || NArgs > (1u << 16))
      return Bad();
    if (Status S = checkCount(R, NArgs, MinOperandBytes, "guard arrays");
        !S.ok())
      return S;
    I.GuardArgs.resize(NArgs);
    for (uint64_t J = 0; J < NArgs; ++J)
      I.GuardArgs[J] = static_cast<uint32_t>(R.readU64());
  }
  if (R.failed())
    return Bad();
  return Status::okStatus();
}

} // namespace

std::vector<uint8_t> bytecode::encode(const Function &F) {
  ByteWriter W;
  W.writeU64(Magic);
  W.writeU64(Version);
  W.writeString(F.Name);
  W.writeU8(F.IsSplitLayer);

  W.writeU64(F.Arrays.size());
  for (const ArrayInfo &A : F.Arrays) {
    W.writeString(A.Name);
    W.writeU8(static_cast<uint8_t>(A.Elem));
    W.writeU64(A.NumElems);
    W.writeU64(A.BaseAlign);
  }

  W.writeU64(F.Values.size());
  for (const ValueInfo &V : F.Values) {
    encodeType(W, V.Ty);
    W.writeU8(static_cast<uint8_t>(V.Def));
    W.writeU64(V.A);
    W.writeU64(V.B);
    W.writeString(V.Name);
  }

  W.writeU64(F.Params.size());
  for (ValueId P : F.Params)
    W.writeU64(P);

  W.writeU64(F.Instrs.size());
  for (const Instr &I : F.Instrs)
    encodeInstr(W, I);

  W.writeU64(F.Loops.size());
  for (const LoopStmt &L : F.Loops) {
    W.writeU64(L.IndVar);
    W.writeU64(L.Lower);
    W.writeU64(L.Upper);
    W.writeU64(L.Step);
    W.writeU8(static_cast<uint8_t>(L.Role));
    W.writeI64(L.MaxSafeVF);
    W.writeU64(L.Carried.size());
    for (const auto &C : L.Carried) {
      W.writeU64(C.Phi);
      W.writeU64(C.Init);
      W.writeU64(C.Next);
      W.writeU64(C.Result);
    }
    encodeRegion(W, L.Body);
  }

  W.writeU64(F.Ifs.size());
  for (const IfStmt &S : F.Ifs) {
    W.writeU64(S.Cond);
    encodeRegion(W, S.Then);
    encodeRegion(W, S.Else);
  }

  encodeRegion(W, F.Body);
  return W.take();
}

size_t bytecode::encodedSize(const Function &F) { return encode(F).size(); }

Expected<Function> bytecode::decode(const std::vector<uint8_t> &Bytes) {
  using status::Code;
  using status::Layer;

  if (faultinject::shouldFire(faultinject::SiteClass::Decode))
    return Status::error(Code::MalformedModule, Layer::Bytecode,
                         "fault-injection: forced decode failure");

  ByteReader R(Bytes);
  // Running out of bytes dominates any site-level diagnosis: a truncated
  // stream reports TruncatedModule even when the zero a failed read
  // returned would also have flunked a structural check.
  auto Fail = [&](Code C, const std::string &Msg) -> Expected<Function> {
    if (R.failed())
      C = Code::TruncatedModule;
    return Status::error(C, Layer::Bytecode, Msg);
  };

  if (R.readU64() != Magic)
    return Fail(Code::BadMagic, "bad magic number; not a vapor bytecode module");
  if (R.readU64() != Version)
    return Fail(Code::BadVersion, "unsupported bytecode version");

  Function F(R.readString());
  F.IsSplitLayer = R.readU8() != 0;
  auto FailWith = [&](const Status &S) { return Fail(S.code(), S.context()); };

  uint64_t NArrays = R.readU64();
  if (R.failed() || NArrays > (1u << 16))
    return Fail(Code::MalformedModule, "truncated array table");
  if (Status S = checkCount(R, NArrays, MinArrayBytes, "arrays"); !S.ok())
    return FailWith(S);
  F.Arrays.reserve(NArrays);
  for (uint64_t I = 0; I < NArrays; ++I) {
    ArrayInfo A;
    A.Name = R.readString();
    uint8_t Elem = R.readU8();
    if (!validKind(Elem))
      return Fail(Code::MalformedModule, "bad element kind for array " + A.Name);
    A.Elem = static_cast<ScalarKind>(Elem);
    A.NumElems = R.readU64();
    A.BaseAlign = static_cast<uint32_t>(R.readU64());
    if (scalarSize(A.Elem) == 0 || !isPowerOf2(A.BaseAlign) ||
        A.BaseAlign < scalarSize(A.Elem))
      return Fail(Code::MalformedModule, "malformed array declaration for " + A.Name);
    if (A.NumElems == 0 || A.NumElems > (1u << 28))
      return Fail(Code::MalformedModule, "implausible element count for array " + A.Name);
    F.Arrays.push_back(std::move(A));
  }

  uint64_t NValues = R.readU64();
  if (R.failed() || NValues > (1u << 24))
    return Fail(Code::MalformedModule, "truncated value table");
  if (Status S = checkCount(R, NValues, MinValueBytes, "values"); !S.ok())
    return FailWith(S);
  F.Values.reserve(NValues);
  for (uint64_t I = 0; I < NValues; ++I) {
    ValueInfo &V = F.Values.emplace_back();
    if (!decodeType(R, V.Ty))
      return Fail(Code::MalformedModule, "bad type for value #" + std::to_string(I));
    uint8_t D = R.readU8();
    if (D > static_cast<uint8_t>(ValueDef::LoopResult))
      return Fail(Code::MalformedModule, "bad value definition kind");
    V.Def = static_cast<ValueDef>(D);
    V.A = static_cast<uint32_t>(R.readU64());
    V.B = static_cast<uint32_t>(R.readU64());
    V.Name = R.readString();
  }

  uint64_t NParams = R.readU64();
  if (R.failed() || NParams > NValues)
    return Fail(Code::MalformedModule, "truncated parameter list");
  if (Status S = checkCount(R, NParams, MinParamBytes, "parameters"); !S.ok())
    return FailWith(S);
  F.Params.reserve(NParams);
  for (uint64_t I = 0; I < NParams; ++I) {
    ValueId P = static_cast<ValueId>(R.readU64());
    if (P >= F.Values.size())
      return Fail(Code::MalformedModule, "parameter references out-of-range value");
    F.Params.push_back(P);
  }

  uint64_t NInstrs = R.readU64();
  if (R.failed() || NInstrs > (1u << 24))
    return Fail(Code::MalformedModule, "truncated instruction stream");
  if (Status S = checkCount(R, NInstrs, MinInstrBytes, "instructions"); !S.ok())
    return FailWith(S);
  F.Instrs.resize(NInstrs);
  for (uint64_t I = 0; I < NInstrs; ++I)
    if (Status S = decodeInstr(R, F.Instrs[I], I); !S.ok())
      return FailWith(S);

  uint64_t NLoops = R.readU64();
  if (R.failed() || NLoops > (1u << 20))
    return Fail(Code::MalformedModule, "truncated loop table");
  if (Status S = checkCount(R, NLoops, MinLoopBytes, "loops"); !S.ok())
    return FailWith(S);
  F.Loops.reserve(NLoops);
  for (uint64_t I = 0; I < NLoops; ++I) {
    LoopStmt L;
    L.IndVar = static_cast<ValueId>(R.readU64());
    L.Lower = static_cast<ValueId>(R.readU64());
    L.Upper = static_cast<ValueId>(R.readU64());
    L.Step = static_cast<ValueId>(R.readU64());
    uint8_t Role = R.readU8();
    if (Role > static_cast<uint8_t>(LoopRole::Epilogue))
      return Fail(Code::MalformedModule, "bad loop role");
    L.Role = static_cast<LoopRole>(Role);
    L.MaxSafeVF = R.readI64();
    // A negative limit would read as "unconstrained" to every consumer
    // that checks MaxSafeVF > 0 before clamping.
    if (L.MaxSafeVF < 0)
      return Fail(Code::MalformedModule, "negative dependence-distance limit");
    uint64_t NCarried = R.readU64();
    if (R.failed() || NCarried > (1u << 16))
      return Fail(Code::MalformedModule, "truncated carried-variable list");
    if (Status S = checkCount(R, NCarried, MinCarriedBytes, "carried variables");
        !S.ok())
      return FailWith(S);
    L.Carried.resize(NCarried);
    for (LoopStmt::CarriedVar &C : L.Carried) {
      C.Phi = static_cast<ValueId>(R.readU64());
      C.Init = static_cast<ValueId>(R.readU64());
      C.Next = static_cast<ValueId>(R.readU64());
      C.Result = static_cast<ValueId>(R.readU64());
    }
    if (Status S = decodeRegion(R, L.Body, "malformed loop body"); !S.ok())
      return FailWith(S);
    F.Loops.push_back(std::move(L));
  }

  uint64_t NIfs = R.readU64();
  if (R.failed() || NIfs > (1u << 20))
    return Fail(Code::MalformedModule, "truncated if table");
  if (Status S = checkCount(R, NIfs, MinIfBytes, "ifs"); !S.ok())
    return FailWith(S);
  F.Ifs.reserve(NIfs);
  for (uint64_t I = 0; I < NIfs; ++I) {
    IfStmt S;
    S.Cond = static_cast<ValueId>(R.readU64());
    for (Region *Arm : {&S.Then, &S.Else})
      if (Status St = decodeRegion(R, *Arm, "malformed if arms"); !St.ok())
        return FailWith(St);
    F.Ifs.push_back(std::move(S));
  }

  if (Status S = decodeRegion(R, F.Body, "malformed function body"); !S.ok())
    return FailWith(S);
  if (R.failed())
    return Fail(Code::TruncatedModule, "truncated module");
  if (!R.atEnd())
    return Fail(Code::TrailingGarbage, "trailing garbage after function");

  // Everything structural decoded; semantic well-formedness is the
  // verifier's job. Decoded code must never crash the consumer.
  std::vector<std::string> Diags = ir::verify(F);
  if (!Diags.empty())
    return Fail(Code::RejectedByVerifier,
                "verifier rejected decoded function: " + Diags.front());
  return F;
}
