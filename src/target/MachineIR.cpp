//===- target/MachineIR.cpp - Machine code printer ------------------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "target/MachineIR.h"

#include "support/Support.h"

#include <sstream>

using namespace vapor;
using namespace vapor::target;

const char *target::mopMnemonic(MOp Op) {
  switch (Op) {
  case MOp::LdImm:
    return "ldimm";
  case MOp::LdFImm:
    return "ldfimm";
  case MOp::Mov:
    return "mov";
  case MOp::LoadBase:
    return "loadbase";
  case MOp::Addr:
    return "addr";
  case MOp::Alu:
    return "alu";
  case MOp::Load:
    return "load";
  case MOp::Store:
    return "store";
  case MOp::VLoadA:
    return "vload.a";
  case MOp::VLoadU:
    return "vload.u";
  case MOp::VStoreA:
    return "vstore.a";
  case MOp::VStoreU:
    return "vstore.u";
  case MOp::GetPerm:
    return "getperm";
  case MOp::VPerm:
    return "vperm";
  case MOp::VSplat:
    return "vsplat";
  case MOp::VAffine:
    return "vaffine";
  case MOp::VSetLane0:
    return "vsetlane0";
  case MOp::VExtract:
    return "vextract";
  case MOp::VIlvLo:
    return "vilv.lo";
  case MOp::VIlvHi:
    return "vilv.hi";
  case MOp::VWMulLo:
    return "vwmul.lo";
  case MOp::VWMulHi:
    return "vwmul.hi";
  case MOp::VPack:
    return "vpack";
  case MOp::VUnpackLo:
    return "vunpack.lo";
  case MOp::VUnpackHi:
    return "vunpack.hi";
  case MOp::VDot:
    return "vdot";
  case MOp::Reduce:
    return "reduce";
  case MOp::CallLib:
    return "calllib";
  case MOp::SpillLd:
    return "spill.ld";
  case MOp::SpillSt:
    return "spill.st";
  }
  vapor_unreachable("bad machine opcode");
}

bool target::isHoistable(MOp Op) {
  switch (Op) {
  case MOp::LdImm:
  case MOp::LdFImm:
  case MOp::Mov:
  case MOp::LoadBase:
  case MOp::Alu:
  case MOp::Addr:
  case MOp::VSplat:
  case MOp::VAffine:
  case MOp::VSetLane0:
  case MOp::GetPerm:
    return true;
  default:
    return false;
  }
}

namespace {

class Printer {
public:
  explicit Printer(const MFunction &Fn) : F(Fn) {}

  std::string print() {
    OS << "func " << F.Name << " vs=" << F.VSBytes << "\n";
    for (size_t A = 0; A < F.Arrays.size(); ++A) {
      const ir::ArrayInfo &AI = F.Arrays[A];
      OS << "  array " << A << ": " << AI.Name << " "
         << ir::scalarKindName(AI.Elem) << "[" << AI.NumElems << "] align "
         << AI.BaseAlign << "\n";
    }
    for (const MParam &P : F.Params)
      OS << "  param " << P.Name << " = " << reg(P.Reg) << "\n";
    region(F.Body, 1);
    return OS.str();
  }

private:
  const MFunction &F;
  std::ostringstream OS;

  std::string reg(MReg R) const {
    if (R == NoReg)
      return "r?";
    return "r" + std::to_string(R);
  }

  void indent(unsigned Depth) {
    for (unsigned I = 0; I < Depth; ++I)
      OS << "  ";
  }

  void region(const MRegion &R, unsigned Depth) {
    for (const MNodeRef &N : R.Nodes) {
      switch (N.Kind) {
      case MNodeKind::Instr:
        instr(F.Instrs[N.Index], Depth);
        break;
      case MNodeKind::Loop:
        loop(F.Loops[N.Index], Depth);
        break;
      case MNodeKind::If: {
        const MIf &S = F.Ifs[N.Index];
        indent(Depth);
        OS << "if " << reg(S.Cond) << " {\n";
        region(S.Then, Depth + 1);
        indent(Depth);
        OS << "} else {\n";
        region(S.Else, Depth + 1);
        indent(Depth);
        OS << "}\n";
        break;
      }
      }
    }
  }

  void loop(const MLoop &L, unsigned Depth) {
    indent(Depth);
    OS << "for " << reg(L.IndVar) << " = " << reg(L.Lower) << " to "
       << reg(L.Upper) << " step " << reg(L.Step);
    if (L.IsVectorMain)
      OS << " [vec-main]";
    OS << " {\n";
    for (const MLoop::CarriedVar &C : L.Carried) {
      indent(Depth + 1);
      OS << reg(C.Phi) << " = phi(init " << reg(C.Init) << ", next "
         << reg(C.Next) << ")\n";
    }
    region(L.Body, Depth + 1);
    indent(Depth);
    OS << "}\n";
  }

  void instr(const MInstr &I, unsigned Depth) {
    indent(Depth);
    if (I.Dst != NoReg)
      OS << reg(I.Dst) << " = ";
    OS << mopMnemonic(I.Op);
    if (I.Op == MOp::Alu || I.Op == MOp::Reduce || I.Op == MOp::CallLib)
      OS << "." << ir::opcodeMnemonic(I.SubOp);
    if (I.Kind != ir::ScalarKind::None) {
      OS << "." << ir::scalarKindName(I.Kind);
      if (I.Vector)
        OS << "v";
    }
    switch (I.Op) {
    case MOp::LdImm:
      OS << " " << I.Imm;
      break;
    case MOp::LdFImm:
      OS << " " << I.FImm;
      break;
    case MOp::LoadBase:
      OS << " " << (I.Array < F.Arrays.size() ? F.Arrays[I.Array].Name
                                              : std::to_string(I.Array));
      break;
    case MOp::Addr:
      OS << " " << reg(I.Srcs[0]) << " + " << reg(I.Srcs[1]) << "*"
         << I.Scale;
      if (I.Folded)
        OS << " [folded]";
      break;
    case MOp::VExtract:
      for (MReg S : I.Srcs)
        OS << " " << reg(S);
      OS << " start " << I.Imm << " stride " << I.Imm2;
      break;
    default:
      for (size_t S = 0; S < I.Srcs.size(); ++S)
        OS << (S ? ", " : " ") << reg(I.Srcs[S]);
      break;
    }
    OS << "\n";
  }
};

} // namespace

std::string MFunction::str() const { return Printer(*this).print(); }
