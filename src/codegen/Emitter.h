//===- codegen/Emitter.h - x86-64 binary instruction encoder ---*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small raw x86-64 encoder for the native tier's binary emitter: a
/// growable byte buffer plus typed helpers for exactly the instruction
/// forms NativeJit.cpp emits. Both legacy-SSE and VEX encodings of the
/// vector forms are provided; the `UseVEX` switch (set from the CPUID
/// probe) selects between them uniformly so a function never mixes
/// encodings (which would incur AVX<->SSE transition stalls).
///
/// Register numbering follows the hardware: rax=0 rcx=1 rdx=2 rbx=3
/// rsp=4 rbp=5 rsi=6 rdi=7 r8..r15=8..15, xmm0..15 likewise.
///
/// Labels are byte positions; forward references go through 32-bit
/// fixups patched with patch32().
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_CODEGEN_EMITTER_H
#define VAPOR_CODEGEN_EMITTER_H

#include "support/Support.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace vapor {
namespace codegen {

// GPR numbers.
enum : unsigned {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// x86 condition codes (the 0F 8x / 0F 9x / 0F 4x low nibble).
enum class CC : uint8_t {
  O = 0x0,
  NO = 0x1,
  B = 0x2,  ///< below (CF=1)
  AE = 0x3, ///< above-or-equal (CF=0)
  E = 0x4,  ///< equal (ZF=1)
  NE = 0x5,
  BE = 0x6, ///< below-or-equal (CF=1 or ZF=1)
  A = 0x7,  ///< above (CF=0 and ZF=0)
  S = 0x8,
  NS = 0x9,
  L = 0xC, ///< signed less
  GE = 0xD,
  LE = 0xE,
  G = 0xF,
};

class Emitter {
public:
  bool UseVEX = false; ///< Emit VEX forms of all SSE ops (AVX host).

  const std::vector<uint8_t> &code() const { return Buf; }
  size_t here() const { return Buf.size(); }

  //===--- Raw bytes ------------------------------------------------------===//

  void u8(uint8_t B) { Buf.push_back(B); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  /// Overwrites the 8 bytes at \p Pos (a movImm64's immediate) with \p V.
  void patch64(size_t Pos, uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf[Pos + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  /// Patches the 4 bytes at \p Pos with (Target - (Pos + 4)): rel32
  /// fields of jcc/jmp whose next-instruction boundary is Pos + 4.
  void patch32(size_t Pos, size_t Target) {
    int64_t Rel = static_cast<int64_t>(Target) - static_cast<int64_t>(Pos + 4);
    assert(Rel >= INT32_MIN && Rel <= INT32_MAX && "jump out of rel32 range");
    uint32_t V = static_cast<uint32_t>(static_cast<int32_t>(Rel));
    for (int I = 0; I < 4; ++I)
      Buf[Pos + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  //===--- Prefixes and operand bytes -------------------------------------===//

  void rex(bool W, unsigned Reg, unsigned Idx, unsigned Base, bool Force8 = false) {
    uint8_t R = 0x40 | (W ? 8 : 0) | ((Reg >> 3) << 2) | ((Idx >> 3) << 1) |
                (Base >> 3);
    // The prefix is mandatory with W/R/X/B set, and for SPL/BPL/SIL/DIL
    // byte registers; otherwise optional -- emit only when needed.
    if (R != 0x40 || Force8)
      u8(R);
  }

  void modrm(unsigned Mod, unsigned Reg, unsigned Rm) {
    u8(static_cast<uint8_t>((Mod << 6) | ((Reg & 7) << 3) | (Rm & 7)));
  }

  /// ModRM+SIB+disp for [Base + disp32] (no index). Base must not be
  /// rsp/r12 (would need a SIB byte) -- the emitter only uses rbx here.
  void memDisp(unsigned Reg, unsigned Base, int32_t Disp) {
    assert((Base & 7) != RSP && "rsp/r12 base needs SIB");
    if (Disp == 0 && (Base & 7) != RBP) {
      modrm(0, Reg, Base);
    } else if (Disp >= -128 && Disp <= 127) {
      modrm(1, Reg, Base);
      u8(static_cast<uint8_t>(Disp));
    } else {
      modrm(2, Reg, Base);
      u32(static_cast<uint32_t>(Disp));
    }
  }

  /// ModRM+SIB+disp for [Base + Index*2^Scale + Disp].
  void memSib(unsigned Reg, unsigned Base, unsigned Index, unsigned Scale,
              int32_t Disp) {
    assert(Index != RSP && "rsp cannot be an index register");
    uint8_t Sib = static_cast<uint8_t>((Scale << 6) | ((Index & 7) << 3) |
                                       (Base & 7));
    if (Disp == 0 && (Base & 7) != RBP) {
      modrm(0, Reg, 4);
      u8(Sib);
    } else if (Disp >= -128 && Disp <= 127) {
      modrm(1, Reg, 4);
      u8(Sib);
      u8(static_cast<uint8_t>(Disp));
    } else {
      modrm(2, Reg, 4);
      u8(Sib);
      u32(static_cast<uint32_t>(Disp));
    }
  }

  //===--- Moves ----------------------------------------------------------===//

  /// mov Dst64, [rbx + Disp] -- lane-file load (canonical 64-bit lane).
  void movRM64(unsigned Dst, unsigned Base, int32_t Disp) {
    rex(true, Dst, 0, Base);
    u8(0x8B);
    memDisp(Dst, Base, Disp);
  }
  /// mov [rbx + Disp], Src64.
  void movMR64(unsigned Base, int32_t Disp, unsigned Src) {
    rex(true, Src, 0, Base);
    u8(0x89);
    memDisp(Src, Base, Disp);
  }
  /// movsx Dst64, 1/2/4-byte [Base + Disp].
  void movsxRM(unsigned Dst, unsigned Base, int32_t Disp, unsigned Size) {
    rex(true, Dst, 0, Base);
    if (Size == 4) {
      u8(0x63); // movsxd
    } else {
      u8(0x0F);
      u8(Size == 1 ? 0xBE : 0xBF);
    }
    memDisp(Dst, Base, Disp);
  }

  /// SIB-addressed loads/stores for host memory: [Base + Index + Disp].
  void movRMSib(unsigned Dst, unsigned Base, unsigned Index, int32_t Disp,
                unsigned Size) {
    if (Size == 8) {
      rex(true, Dst, Index, Base);
      u8(0x8B);
    } else if (Size == 4) {
      rex(false, Dst, Index, Base);
      u8(0x8B);
    } else {
      rex(false, Dst, Index, Base);
      u8(0x0F);
      u8(Size == 1 ? 0xB6 : 0xB7); // movzx
    }
    memSib(Dst, Base, Index, 0, Disp);
  }
  void movMRSib(unsigned Base, unsigned Index, int32_t Disp, unsigned Src,
                unsigned Size) {
    if (Size == 2)
      u8(0x66);
    rex(Size == 8, Src, Index, Base, /*Force8=*/Size == 1 && Src >= RSP);
    u8(Size == 1 ? 0x88 : 0x89);
    memSib(Src, Base, Index, 0, Disp);
  }

  /// mov Dst64, imm64 (movabs).
  void movImm64(unsigned Dst, uint64_t Imm) {
    rex(true, 0, 0, Dst);
    u8(static_cast<uint8_t>(0xB8 | (Dst & 7)));
    u64(Imm);
  }
  /// mov Dst32, imm32 (zero-extends).
  void movImm32(unsigned Dst, uint32_t Imm) {
    rex(false, 0, 0, Dst);
    u8(static_cast<uint8_t>(0xB8 | (Dst & 7)));
    u32(Imm);
  }
  /// mov Dst64, Src64.
  void movRR64(unsigned Dst, unsigned Src) {
    rex(true, Src, 0, Dst);
    u8(0x89);
    modrm(3, Src, Dst);
  }
  /// mov Dst32, Src32 (canonicalizing zero-extension; `mov eax, eax`).
  void movRR32(unsigned Dst, unsigned Src) {
    rex(false, Src, 0, Dst);
    u8(0x89);
    modrm(3, Src, Dst);
  }

  //===--- GPR ALU --------------------------------------------------------===//

  /// Two-register ALU op, 0x01-style opcode (add=0x01 or=0x09 and=0x21
  /// sub=0x29 xor=0x31 cmp=0x39 test=0x85): op Dst, Src.
  void aluRR(uint8_t Opc, unsigned Dst, unsigned Src, bool W) {
    rex(W, Src, 0, Dst);
    u8(Opc);
    modrm(3, Src, Dst);
  }
  void addRR64(unsigned D, unsigned S) { aluRR(0x01, D, S, true); }
  void subRR64(unsigned D, unsigned S) { aluRR(0x29, D, S, true); }
  void andRR64(unsigned D, unsigned S) { aluRR(0x21, D, S, true); }
  void xorRR64(unsigned D, unsigned S) { aluRR(0x31, D, S, true); }
  void cmpRR64(unsigned D, unsigned S) { aluRR(0x39, D, S, true); }
  void testRR64(unsigned D, unsigned S) { aluRR(0x85, D, S, true); }

  /// Reg <- Reg OP [Base + Disp], 0x03-style opcode (add=0x03 or=0x0B
  /// and=0x23 sub=0x2B xor=0x33 cmp=0x3B).
  void aluRM(uint8_t Opc, unsigned Dst, unsigned Base, int32_t Disp, bool W) {
    rex(W, Dst, 0, Base);
    u8(Opc);
    memDisp(Dst, Base, Disp);
  }
  void cmpRM64(unsigned Dst, unsigned Base, int32_t Disp) {
    aluRM(0x3B, Dst, Base, Disp, true);
  }
  /// imul Dst, [Base + Disp].
  void imulRM(unsigned Dst, unsigned Base, int32_t Disp, bool W) {
    rex(W, Dst, 0, Base);
    u8(0x0F);
    u8(0xAF);
    memDisp(Dst, Base, Disp);
  }
  /// [Base + Disp] OP<- Src64, 0x01-style opcode (add=0x01); used for
  /// the loop latch `add [iv], step`.
  void aluMR64(uint8_t Opc, unsigned Base, int32_t Disp, unsigned Src) {
    rex(true, Src, 0, Base);
    u8(Opc);
    memDisp(Src, Base, Disp);
  }

  /// mov dword [Base + Disp], imm32 (C7 /0).
  void movMImm32(unsigned Base, int32_t Disp, uint32_t Imm) {
    rex(false, 0, 0, Base);
    u8(0xC7);
    memDisp(0, Base, Disp);
    u32(Imm);
  }
  /// mov byte [Base + Disp], imm8 (C6 /0).
  void movMImm8(unsigned Base, int32_t Disp, uint8_t Imm) {
    rex(false, 0, 0, Base);
    u8(0xC6);
    memDisp(0, Base, Disp);
    u8(Imm);
  }

  /// mov Dst64, [Base + Index*8 + Disp] -- scaled lane-file indexing.
  void movRM64Scale8(unsigned Dst, unsigned Base, unsigned Index,
                     int32_t Disp) {
    rex(true, Dst, Index, Base);
    u8(0x8B);
    memSib(Dst, Base, Index, 3, Disp);
  }

  /// 0x81-group immediate ALU: /0 add, /4 and, /5 sub, /7 cmp.
  void aluImm32(unsigned Ext, unsigned Dst, int32_t Imm, bool W) {
    rex(W, 0, 0, Dst);
    u8(0x81);
    modrm(3, Ext, Dst);
    u32(static_cast<uint32_t>(Imm));
  }
  void andImm32(unsigned Dst, uint32_t Mask) {
    aluImm32(4, Dst, static_cast<int32_t>(Mask), false);
  }
  void addImm64(unsigned Dst, int32_t Imm) { aluImm32(0, Dst, Imm, true); }
  void subImm64(unsigned Dst, int32_t Imm) { aluImm32(5, Dst, Imm, true); }

  /// test Dst64, imm32 (F7 /0; imm sign-extends -- keep masks < 2^31).
  void testImm(unsigned Dst, uint32_t Imm) {
    rex(true, 0, 0, Dst);
    u8(0xF7);
    modrm(3, 0, Dst);
    u32(Imm);
  }

  /// Shifts by cl: shl /4, shr /5, sar /7.
  void shiftCl(unsigned Ext, unsigned Dst, bool W) {
    rex(W, 0, 0, Dst);
    u8(0xD3);
    modrm(3, Ext, Dst);
  }
  /// Shift by immediate (C1 group).
  void shiftImm(unsigned Ext, unsigned Dst, uint8_t Amt, bool W) {
    rex(W, 0, 0, Dst);
    u8(0xC1);
    modrm(3, Ext, Dst);
    u8(Amt);
  }

  /// neg Dst (F7 /3).
  void negR(unsigned Dst, bool W) {
    rex(W, 0, 0, Dst);
    u8(0xF7);
    modrm(3, 3, Dst);
  }

  /// cmovcc Dst, Src (0F 4x).
  void cmov(CC C, unsigned Dst, unsigned Src, bool W = true) {
    rex(W, Dst, 0, Src);
    u8(0x0F);
    u8(static_cast<uint8_t>(0x40 | static_cast<uint8_t>(C)));
    modrm(3, Dst, Src);
  }

  /// setcc Dst8 (0F 9x) -- use with Dst < 4 (al..bl) to skip REX games.
  void setcc(CC C, unsigned Dst) {
    assert(Dst < 4 && "setcc helper limited to al..bl");
    u8(0x0F);
    u8(static_cast<uint8_t>(0x90 | static_cast<uint8_t>(C)));
    modrm(3, 0, Dst);
  }
  /// movzx Dst32, Src8 (Src < 4).
  void movzxR8(unsigned Dst, unsigned Src) {
    assert(Src < 4 && "movzx8 helper limited to al..bl");
    rex(false, Dst, 0, Src);
    u8(0x0F);
    u8(0xB6);
    modrm(3, Dst, Src);
  }

  /// lea Dst, [Base + Disp].
  void lea(unsigned Dst, unsigned Base, int32_t Disp) {
    rex(true, Dst, 0, Base);
    u8(0x8D);
    memDisp(Dst, Base, Disp);
  }

  /// inc qword [Base + Disp] (FF /0) -- audit-mode fire counters.
  void incM64(unsigned Base, int32_t Disp) {
    rex(true, 0, 0, Base);
    u8(0xFF);
    memDisp(0, Base, Disp);
  }

  //===--- Control flow ---------------------------------------------------===//

  void push(unsigned R) {
    if (R >= 8)
      u8(0x41);
    u8(static_cast<uint8_t>(0x50 | (R & 7)));
  }
  void pop(unsigned R) {
    if (R >= 8)
      u8(0x41);
    u8(static_cast<uint8_t>(0x58 | (R & 7)));
  }
  void ret() { u8(0xC3); }
  void callR(unsigned R) {
    if (R >= 8)
      u8(0x41);
    u8(0xFF);
    modrm(3, 2, R);
  }

  /// jcc rel32; \returns the fixup position for patch32().
  size_t jcc(CC C) {
    u8(0x0F);
    u8(static_cast<uint8_t>(0x80 | static_cast<uint8_t>(C)));
    size_t Pos = here();
    u32(0);
    return Pos;
  }
  /// jmp rel32; \returns the fixup position.
  size_t jmp() {
    u8(0xE9);
    size_t Pos = here();
    u32(0);
    return Pos;
  }
  /// jmp rel32 to a known earlier target.
  void jmpTo(size_t Target) { patch32(jmp(), Target); }

  /// test byte [Base+Disp], imm8 (F6 /0).
  void testM8(unsigned Base, int32_t Disp, uint8_t Imm) {
    u8(0xF6);
    memDisp(0, Base, Disp);
    u8(Imm);
  }

  //===--- SSE / VEX ------------------------------------------------------===//
  //
  // One helper per addressing shape; PP selects the mandatory prefix
  // (0=none, 1=66, 2=F3, 3=F2) and Opc the 0F-map opcode byte. The VEX
  // path encodes the same operation with vvvv = the first source, which
  // for our two-operand use is the destination itself (in-place forms).

private:
  void legacyPrefix(unsigned PP) {
    static const uint8_t P[4] = {0x00, 0x66, 0xF3, 0xF2};
    if (P[PP])
      u8(P[PP]);
  }

  /// VEX prefix for a 0F-map op. Uses the 2-byte form when possible.
  void vex(unsigned Reg, unsigned Idx, unsigned Base, unsigned VVVV,
           bool L256, unsigned PP) {
    bool R = Reg >= 8, X = Idx >= 8, B = Base >= 8;
    if (!X && !B) {
      u8(0xC5);
      u8(static_cast<uint8_t>((R ? 0 : 0x80) | ((~VVVV & 0xF) << 3) |
                              (L256 ? 4 : 0) | PP));
    } else {
      u8(0xC4);
      u8(static_cast<uint8_t>((R ? 0 : 0x80) | (X ? 0 : 0x40) |
                              (B ? 0 : 0x20) | 0x01)); // map 0F
      u8(static_cast<uint8_t>(((~VVVV & 0xF) << 3) | (L256 ? 4 : 0) | PP));
    }
  }

public:
  /// Xmm <- [Base + Index + Disp] style SSE load (also stores with the
  /// store opcode). Legacy or VEX per UseVEX; L256 only via VEX.
  void sseMemSib(unsigned PP, uint8_t Opc, unsigned Xmm, unsigned Base,
                 unsigned Index, int32_t Disp, bool L256 = false) {
    if (UseVEX || L256) {
      vex(Xmm, Index, Base, 0, L256, PP);
    } else {
      legacyPrefix(PP);
      rex(false, Xmm, Index, Base);
      u8(0x0F);
    }
    u8(Opc);
    memSib(Xmm, Base, Index, 0, Disp);
  }

  /// Xmm <- [Base + Disp] (lane file).
  void sseMemDisp(unsigned PP, uint8_t Opc, unsigned Xmm, unsigned Base,
                  int32_t Disp, bool L256 = false) {
    if (UseVEX || L256) {
      vex(Xmm, 0, Base, 0, L256, PP);
    } else {
      legacyPrefix(PP);
      rex(false, Xmm, 0, Base);
      u8(0x0F);
    }
    u8(Opc);
    memDisp(Xmm, Base, Disp);
  }

  /// Two-operand arithmetic Dst ?= Src register form. With VEX this is
  /// the three-operand form vop Dst, Dst, Src.
  void sseRR(unsigned PP, uint8_t Opc, unsigned Dst, unsigned Src,
             bool L256 = false) {
    if (UseVEX || L256) {
      vex(Dst, 0, Src, Dst, L256, PP);
    } else {
      legacyPrefix(PP);
      rex(false, Dst, 0, Src);
      u8(0x0F);
    }
    u8(Opc);
    modrm(3, Dst, Src);
  }

  /// Arithmetic Dst ?= [Base + Disp] memory-operand form (VEX: vop
  /// Dst, Dst, mem).
  void sseRM(unsigned PP, uint8_t Opc, unsigned Dst, unsigned Base,
             int32_t Disp, bool L256 = false) {
    if (UseVEX || L256) {
      vex(Dst, 0, Base, Dst, L256, PP);
    } else {
      legacyPrefix(PP);
      rex(false, Dst, 0, Base);
      u8(0x0F);
    }
    u8(Opc);
    memDisp(Dst, Base, Disp);
  }

  /// ucomisd/ucomiss Dst, Src. Two-operand compare: the VEX form takes
  /// no vvvv source, so it must encode vvvv=0 (sseRR's vvvv=Dst would
  /// #UD here).
  void ucomis(bool F64, unsigned Dst, unsigned Src) {
    if (UseVEX) {
      vex(Dst, 0, Src, 0, false, F64 ? 1 : 0);
    } else {
      if (F64)
        u8(0x66);
      rex(false, Dst, 0, Src);
      u8(0x0F);
    }
    u8(0x2E);
    modrm(3, Dst, Src);
  }

  /// movd r32, Xmm.
  void movdFromXmm(unsigned R32, unsigned Xmm) {
    if (UseVEX) {
      vex(Xmm, 0, R32, 0, false, 1);
    } else {
      u8(0x66);
      rex(false, Xmm, 0, R32);
      u8(0x0F);
    }
    u8(0x7E);
    modrm(3, Xmm, R32);
  }

  /// vzeroupper (only meaningful on AVX hosts).
  void vzeroupper() {
    u8(0xC5);
    u8(0xF8);
    u8(0x77);
  }

private:
  std::vector<uint8_t> Buf;
};

} // namespace codegen
} // namespace vapor

#endif // VAPOR_CODEGEN_EMITTER_H
