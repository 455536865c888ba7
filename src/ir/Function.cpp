//===- ir/Function.cpp - IR core implementation --------------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

#include "support/Support.h"

#include <bit>

using namespace vapor;
using namespace vapor::ir;

namespace {

struct OpcodeInfo {
  const char *Mnemonic;
  int NumOperands;
  uint8_t Flags;
};

constexpr OpcodeInfo OpcodeTable[] = {
#define VAPOR_OPCODE(NAME, MNEMONIC, NOPS, FLAGS)                              \
  {MNEMONIC, NOPS, static_cast<uint8_t>(FLAGS)},
#include "ir/Opcode.def"
};

} // namespace

const char *ir::opcodeMnemonic(Opcode Op) {
  return OpcodeTable[static_cast<unsigned>(Op)].Mnemonic;
}

int ir::opcodeNumOperands(Opcode Op) {
  return OpcodeTable[static_cast<unsigned>(Op)].NumOperands;
}

uint8_t ir::opcodeFlags(Opcode Op) {
  return OpcodeTable[static_cast<unsigned>(Op)].Flags;
}

const char *ir::scalarKindName(ScalarKind K) {
  switch (K) {
  case ScalarKind::None:
    return "none";
  case ScalarKind::I1:
    return "i1";
  case ScalarKind::I8:
    return "i8";
  case ScalarKind::U8:
    return "u8";
  case ScalarKind::I16:
    return "i16";
  case ScalarKind::U16:
    return "u16";
  case ScalarKind::I32:
    return "i32";
  case ScalarKind::U32:
    return "u32";
  case ScalarKind::I64:
    return "i64";
  case ScalarKind::U64:
    return "u64";
  case ScalarKind::F32:
    return "f32";
  case ScalarKind::F64:
    return "f64";
  }
  vapor_unreachable("bad scalar kind");
}

std::string Type::str() const {
  if (isNone())
    return "void";
  std::string S = scalarKindName(Elem);
  if (Vector)
    return "v" + S;
  return S;
}

ValueId Function::addParam(const std::string &ParamName, Type Ty) {
  assert(Ty.isScalar() && "parameters are scalars");
  ValueId V = makeValue(Ty, ValueDef::Param, 0, 0);
  Values[V].Name = ParamName;
  Params.push_back(V);
  return V;
}

uint32_t Function::addArray(const std::string &ArrName, ScalarKind Elem,
                            uint64_t NumElems, uint32_t BaseAlign) {
  assert(BaseAlign >= scalarSize(Elem) && isPowerOf2(BaseAlign) &&
         "base alignment must be a power of two >= element size");
  ArrayInfo AI;
  AI.Name = ArrName;
  AI.Elem = Elem;
  AI.NumElems = NumElems;
  AI.BaseAlign = BaseAlign;
  Arrays.push_back(AI);
  return static_cast<uint32_t>(Arrays.size() - 1);
}

uint32_t Function::arrayIdByName(const std::string &ArrName) const {
  for (uint32_t I = 0, E = static_cast<uint32_t>(Arrays.size()); I != E; ++I)
    if (Arrays[I].Name == ArrName)
      return I;
  vapor_unreachable("no array with that name");
}

ValueId Function::makeValue(Type Ty, ValueDef Def, uint32_t A, uint32_t B) {
  ValueInfo VI;
  VI.Ty = Ty;
  VI.Def = Def;
  VI.A = A;
  VI.B = B;
  Values.push_back(VI);
  return static_cast<ValueId>(Values.size() - 1);
}

namespace {

/// Structural hash accumulator over the shared word mixer. Strings feed
/// their length first, so "ab","c" and "a","bc" cannot collide by
/// concatenation.
struct StructHash {
  uint64_t H = 0x5641504f52464eULL; // "VAPORFN"

  void word(uint64_t W) { H = hashCombine(H, W); }
  void str(const std::string &S) { H = hashBytes(S.data(), S.size(), H); }
  void type(Type T) {
    word((static_cast<uint64_t>(T.Elem) << 1) | (T.Vector ? 1 : 0));
  }
  void region(const Region &R) {
    word(R.Nodes.size());
    for (const NodeRef &N : R.Nodes)
      word((static_cast<uint64_t>(N.Kind) << 32) | N.Index);
  }
};

} // namespace

uint64_t ir::hashFunction(const Function &F) {
  StructHash S;
  S.str(F.Name);
  S.word(F.IsSplitLayer);

  S.word(F.Values.size());
  for (const ValueInfo &V : F.Values) {
    S.type(V.Ty);
    S.word((static_cast<uint64_t>(V.Def) << 32) | V.A);
    S.word(V.B);
    S.str(V.Name);
  }

  S.word(F.Instrs.size());
  for (const Instr &I : F.Instrs) {
    S.word(static_cast<uint64_t>(I.Op));
    S.type(I.Ty);
    S.word(I.Result);
    S.word(I.Ops.size());
    for (ValueId V : I.Ops)
      S.word(V);
    S.word(static_cast<uint64_t>(I.IntImm));
    S.word(static_cast<uint64_t>(I.IntImm2));
    S.word(std::bit_cast<uint64_t>(I.FPImm));
    S.word(I.Array);
    S.word(static_cast<uint64_t>(I.TyParam));
    S.word((static_cast<uint64_t>(static_cast<uint32_t>(I.Hint.Mis)) << 32) |
           static_cast<uint32_t>(I.Hint.Mod));
    S.word((static_cast<uint64_t>(I.Hint.IfJitAligns) << 8) |
           static_cast<uint64_t>(I.Guard));
    S.word(I.GuardArgs.size());
    for (uint32_t A : I.GuardArgs)
      S.word(A);
  }

  S.word(F.Loops.size());
  for (const LoopStmt &L : F.Loops) {
    S.word(L.IndVar);
    S.word(L.Lower);
    S.word(L.Upper);
    S.word(L.Step);
    S.word(L.Carried.size());
    for (const LoopStmt::CarriedVar &C : L.Carried) {
      S.word((static_cast<uint64_t>(C.Phi) << 32) | C.Init);
      S.word((static_cast<uint64_t>(C.Next) << 32) | C.Result);
    }
    S.region(L.Body);
    S.word(static_cast<uint64_t>(L.Role));
    S.word(static_cast<uint64_t>(L.MaxSafeVF));
  }

  S.word(F.Ifs.size());
  for (const IfStmt &I : F.Ifs) {
    S.word(I.Cond);
    S.region(I.Then);
    S.region(I.Else);
  }

  S.word(F.Arrays.size());
  for (const ArrayInfo &A : F.Arrays) {
    S.str(A.Name);
    S.word(static_cast<uint64_t>(A.Elem));
    S.word(A.NumElems);
    S.word(A.BaseAlign);
  }

  S.word(F.Params.size());
  for (ValueId P : F.Params)
    S.word(P);

  S.region(F.Body);
  return S.H;
}
