//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// func dotAsm(out *[32]float64, tile, qz []float64, nExp int)
//
// Y0-Y7 accumulate out: query row k against lanes 0-3 in Y(2k), lanes 4-7
// in Y(2k+1). Each experiment is one 64-byte tile line and 32 bytes of qz.
TEXT ·dotAsm(SB), NOSPLIT, $0-64
	MOVQ   out+0(FP), DI
	MOVQ   tile_base+8(FP), SI
	MOVQ   qz_base+32(FP), DX
	MOVQ   nExp+56(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  CX, CX
	JLE    store

line:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VBROADCASTSD 16(DX), Y12
	VBROADCASTSD 24(DX), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, SI
	ADDQ         $32, DX
	DECQ         CX
	JNZ          line

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// 2 (the fewest joint cells with a defined r), sure and the sign-clearing
// mask: the constants of finishGo, whose tilecorr.go names them; then 1,
// what scoreAsm counts a defined correlation as.
DATA finishK<>+0(SB)/8, $2.0
DATA finishK<>+8(SB)/8, $0.999999999999
DATA finishK<>+16(SB)/8, $0x7fffffffffffffff
DATA finishK<>+24(SB)/8, $1.0
GLOBL finishK<>(SB), RODATA|NOPTR, $32

// HALF finishes four lanes of one query row from its sums — Sa, Saa, Sb,
// Sbb and the joint count N, lanes off/8 to off/8+3 — against the tile's
// guard limits LimA and the row's in Y15, the row's dots at off(SI). It
// leaves r (NaN where N < 2) in N and in MASK a bit per lane the finish
// vouches for or calls NaN. Every step rounds where finishGo's does; Sa,
// Saa and Sbb are spent. Scratch: Y12-Y14.
#define HALF(Sa, Saa, Sb, Sbb, N, LimA, off, MASK) \
	VMULPD       Saa, N, Saa; \
	VMULPD       Sa, Sa, Y12; \
	VSUBPD       Y12, Saa, Saa; \
	VMULPD       Sbb, N, Sbb; \
	VMULPD       Sb, Sb, Y12; \
	VSUBPD       Y12, Sbb, Sbb; \
	VCMPPD       $0x1e, LimA, Saa, Y12; \
	VCMPPD       $0x1e, Y15, Sbb, Y13; \
	VANDPD       Y13, Y12, Y12; \
	VBROADCASTSD finishK<>+0(SB), Y14; \
	VCMPPD       $0x1e, Y14, N, Y13; \
	VANDPD       Y13, Y12, Y12; \
	VCMPPD       $0x11, Y14, N, Y13; \
	VMULPD       Sbb, Saa, Saa; \
	VSQRTPD      Saa, Saa; \
	VMULPD       off(SI), N, N; \
	VMULPD       Sb, Sa, Sa; \
	VSUBPD       Sa, N, N; \
	VDIVPD       Saa, N, N; \
	VBROADCASTSD finishK<>+16(SB), Y14; \
	VANDPD       Y14, N, Sa; \
	VBROADCASTSD finishK<>+8(SB), Y14; \
	VCMPPD       $0x11, Y14, Sa, Sa; \
	VANDPD       Sa, Y12, Y12; \
	VORPD        Y13, N, N; \
	VORPD        Y13, Y12, Y12; \
	VMOVMSKPD    Y12, MASK

// ROWSUMS loads query row BX's sums against the tile into Y0-Y9, as finishAsm
// lays them out, and the row's guard limit lim·t2 into Y15. It reads the
// tile (DX), its totals, missing cells and width through the frame's tile,
// t1, t2 and cells arguments, which finishAsm and scoreAsm place alike, the
// unit rows at R14 and the row's query cells at R12 (z-scores) and R13
// (presence). Scratch: AX, R8, R10, R11, Y12-Y15. Its labels are its
// function's, so a function expands it once.
#define ROWSUMS(lim) \
	MOVQ         t1+40(FP), AX; \
	VMOVUPD      (AX), Y0; \
	VMOVUPD      32(AX), Y1; \
	MOVQ         t2+48(FP), AX; \
	VMOVUPD      (AX), Y2; \
	VMOVUPD      32(AX), Y3; \
	MOVQ         Row_miss(BX), R8; \
	MOVQ         Row_miss+8(BX), R11; \
	MOVQ         tile_len+24(FP), AX; \
	SHRQ         $3, AX; \
	SUBQ         R11, AX; \
	VCVTSI2SDQ   AX, X8, X8; \
	VBROADCASTSD X8, Y8; \
	VMOVAPD      Y8, Y9; \
	TESTQ        R11, R11; \
	JEQ          sums; \
qmiss: \
	MOVLQSX      (R8), AX; \
	ANDQ         $~7, AX; \
	VMOVUPD      (DX)(AX*8), Y12; \
	VMOVUPD      32(DX)(AX*8), Y13; \
	VSUBPD       Y12, Y0, Y0; \
	VSUBPD       Y13, Y1, Y1; \
	VMULPD       Y12, Y12, Y12; \
	VMULPD       Y13, Y13, Y13; \
	VSUBPD       Y12, Y2, Y2; \
	VSUBPD       Y13, Y3, Y3; \
	ADDQ         $4, R8; \
	DECQ         R11; \
	JNZ          qmiss; \
sums: \
	VBROADCASTSD Row_t1(BX), Y4; \
	VMOVAPD      Y4, Y5; \
	VBROADCASTSD Row_t2(BX), Y6; \
	VMOVAPD      Y6, Y7; \
	MOVQ         cells_base+56(FP), R8; \
	MOVQ         cells_len+64(FP), R11; \
	TESTQ        R11, R11; \
	JEQ          lanes; \
cell: \
	MOVL         (R8), AX; \
	MOVL         AX, R10; \
	ANDL         $7, AX; \
	SHLQ         $6, AX; \
	VMOVUPD      (R14)(AX*1), Y12; \
	VMOVUPD      32(R14)(AX*1), Y13; \
	SHRL         $3, R10; \
	SHLQ         $5, R10; \
	VBROADCASTSD (R12)(R10*1), Y14; \
	VBROADCASTSD (R13)(R10*1), Y15; \
	VFNMADD231PD Y14, Y12, Y4; \
	VFNMADD231PD Y14, Y13, Y5; \
	VMULPD       Y14, Y14, Y14; \
	VFNMADD231PD Y14, Y12, Y6; \
	VFNMADD231PD Y14, Y13, Y7; \
	VFNMADD231PD Y15, Y12, Y8; \
	VFNMADD231PD Y15, Y13, Y9; \
	ADDQ         $4, R8; \
	DECQ         R11; \
	JNZ          cell; \
lanes: \
	VMOVSD       Row_t2(BX), X15; \
	VMULSD       lim, X15, X15; \
	VBROADCASTSD X15, Y15

// func finishAsm(out, dots *[32]float64, tile []float64, t1, t2 *[8]float64, cells []int32, z, present []float64, rows []Row, unit *[8][8]float64, lim float64) (flagged uint32)
//
// One query row k at a time, lanes 0-3 in the even register of each pair
// and 4-7 in the odd: Y0/Y1 Sa and Y2/Y3 Saa (the tile's totals less a tile
// line per column row k misses), Y4/Y5 Sb, Y6/Y7 Sbb and Y8/Y9 the joint
// count (row k's totals and nExp − |Nb|, less row k's cell at each of the
// tile's missing cells, in that cell's lane: a broadcast times the lane's
// unit row, which an FMA subtracts exactly). Y10/Y11 hold the tile's
// guard limits lim·t2 for the whole call. DI, SI, R12 and R13 walk out,
// dots, z and present to row k; BX walks rows; CX is 8k, the row's shift
// into R9, the flags.
TEXT ·finishAsm(SB), NOSPLIT, $0-172
	MOVQ         out+0(FP), DI
	MOVQ         dots+8(FP), SI
	MOVQ         tile_base+16(FP), DX
	MOVQ         z_base+80(FP), R12
	MOVQ         present_base+104(FP), R13
	MOVQ         rows_base+128(FP), BX
	MOVQ         unit+152(FP), R14
	XORQ         R9, R9
	XORQ         CX, CX
	MOVQ         t2+48(FP), AX
	VBROADCASTSD lim+160(FP), Y12
	VMULPD       (AX), Y12, Y10
	VMULPD       32(AX), Y12, Y11
	MOVQ         rows_len+136(FP), AX
	TESTQ        AX, AX
	JEQ          done

row:
	ROWSUMS(lim+160(FP))
	HALF(Y0, Y2, Y4, Y6, Y8, Y10, 0, AX)
	HALF(Y1, Y3, Y5, Y7, Y9, Y11, 32, R10)
	VMOVUPD      Y8, (DI)
	VMOVUPD      Y9, 32(DI)
	SHLQ         $4, R10
	ORQ          R10, AX
	XORQ         $0xff, AX
	SHLQ         CX, AX
	ORQ          AX, R9
	ADDQ         $64, DI
	ADDQ         $64, SI
	ADDQ         $8, R12
	ADDQ         $8, R13
	ADDQ         $Row__size, BX
	ADDQ         $8, CX
	MOVQ         rows_len+136(FP), AX
	SHLQ         $3, AX
	CMPQ         CX, AX
	JLT          row

done:
	MOVL         R9, flagged+168(FP)
	VZEROUPPER
	RET

// func scoreAsm(sum, cnt *[8]float64, tile []float64, t1, t2 *[8]float64, cells []int32, buf []float64, rows []Row, unit *[8][8]float64, lim float64, lanes uint64) (flagged uint64)
//
// Block by block: dotAsm's loop over the block's live rows only, into the
// local dots; then one live row at a time, ROWSUMS and HALF as finishAsm
// runs them, the row's flagged lanes (masked by lanes) into R9 and its
// defined r — NaN lanes masked to +0, which adds nothing to a sum that
// starts at +0 — into sum, with 1 per defined r into cnt. DI is the block's
// cells in buf, CX the rows left; BX, SI, R12 and R13 walk rows, dots, z
// and present as in finishAsm. In the dot R8 and R10 walk the block's
// z-scores and the tile, and R11 counts the lines. The call stops after the
// first block that flags a lane.
TEXT ·scoreAsm(SB), NOSPLIT, $256-160
	MOVQ         tile_base+16(FP), DX
	MOVQ         buf_base+80(FP), DI
	MOVQ         rows_base+104(FP), BX
	MOVQ         rows_len+112(FP), CX
	MOVQ         unit+128(FP), R14
	XORQ         R9, R9
	VXORPD       Y0, Y0, Y0
	MOVQ         sum+0(FP), AX
	VMOVUPD      Y0, (AX)
	VMOVUPD      Y0, 32(AX)
	MOVQ         cnt+8(FP), AX
	VMOVUPD      Y0, (AX)
	VMOVUPD      Y0, 32(AX)
	TESTQ        CX, CX
	JEQ          done

block:
	MOVQ         DX, R10
	MOVQ         DI, R8
	MOVQ         tile_len+24(FP), R11
	SHRQ         $3, R11
	LEAQ         dots-256(SP), AX
	CMPQ         CX, $3
	JGT          dot4
	JEQ          dot3
	CMPQ         CX, $2
	JEQ          dot2
	JMP          dot1

dot4:
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VXORPD       Y4, Y4, Y4
	VXORPD       Y5, Y5, Y5
	VXORPD       Y6, Y6, Y6
	VXORPD       Y7, Y7, Y7
	TESTQ        R11, R11
	JEQ          st4

line4:
	VMOVUPD      (R10), Y8
	VMOVUPD      32(R10), Y9
	VBROADCASTSD (R8), Y10
	VBROADCASTSD 8(R8), Y11
	VBROADCASTSD 16(R8), Y12
	VBROADCASTSD 24(R8), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, R10
	ADDQ         $32, R8
	DECQ         R11
	JNZ          line4
	JMP          st4
dot3:
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VXORPD       Y4, Y4, Y4
	VXORPD       Y5, Y5, Y5
	TESTQ        R11, R11
	JEQ          st3

line3:
	VMOVUPD      (R10), Y8
	VMOVUPD      32(R10), Y9
	VBROADCASTSD (R8), Y10
	VBROADCASTSD 8(R8), Y11
	VBROADCASTSD 16(R8), Y12
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	ADDQ         $64, R10
	ADDQ         $32, R8
	DECQ         R11
	JNZ          line3
	JMP          st3
dot2:
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	TESTQ        R11, R11
	JEQ          st2

line2:
	VMOVUPD      (R10), Y8
	VMOVUPD      32(R10), Y9
	VBROADCASTSD (R8), Y10
	VBROADCASTSD 8(R8), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	ADDQ         $64, R10
	ADDQ         $32, R8
	DECQ         R11
	JNZ          line2
	JMP          st2
dot1:
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	TESTQ        R11, R11
	JEQ          st1

line1:
	VMOVUPD      (R10), Y8
	VMOVUPD      32(R10), Y9
	VBROADCASTSD (R8), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	ADDQ         $64, R10
	ADDQ         $32, R8
	DECQ         R11
	JNZ          line1
	JMP          st1
st4:
	VMOVUPD      Y6, 192(AX)
	VMOVUPD      Y7, 224(AX)

st3:
	VMOVUPD      Y4, 128(AX)
	VMOVUPD      Y5, 160(AX)

st2:
	VMOVUPD      Y2, 64(AX)
	VMOVUPD      Y3, 96(AX)

st1:
	VMOVUPD      Y0, (AX)
	VMOVUPD      Y1, 32(AX)
	MOVQ         t2+48(FP), AX
	VBROADCASTSD lim+136(FP), Y12
	VMULPD       (AX), Y12, Y10
	VMULPD       32(AX), Y12, Y11
	LEAQ         dots-256(SP), SI
	MOVQ         DI, R12
	MOVQ         tile_len+24(FP), AX
	LEAQ         (DI)(AX*4), R13

row:
	ROWSUMS(lim+136(FP))
	HALF(Y0, Y2, Y4, Y6, Y8, Y10, 0, AX)
	HALF(Y1, Y3, Y5, Y7, Y9, Y11, 32, R10)
	SHLQ         $4, R10
	ORQ          R10, AX
	XORQ         $0xff, AX
	ANDQ         lanes+144(FP), AX
	ORQ          AX, R9
	VCMPPD       $0x07, Y8, Y8, Y12
	VCMPPD       $0x07, Y9, Y9, Y13
	VANDPD       Y12, Y8, Y8
	VANDPD       Y13, Y9, Y9
	MOVQ         sum+0(FP), AX
	VADDPD       (AX), Y8, Y8
	VADDPD       32(AX), Y9, Y9
	VMOVUPD      Y8, (AX)
	VMOVUPD      Y9, 32(AX)
	VBROADCASTSD finishK<>+24(SB), Y14
	VANDPD       Y14, Y12, Y12
	VANDPD       Y14, Y13, Y13
	MOVQ         cnt+8(FP), AX
	VADDPD       (AX), Y12, Y12
	VADDPD       32(AX), Y13, Y13
	VMOVUPD      Y12, (AX)
	VMOVUPD      Y13, 32(AX)
	ADDQ         $64, SI
	ADDQ         $8, R12
	ADDQ         $8, R13
	ADDQ         $Row__size, BX
	DECQ         CX
	JEQ          done
	LEAQ         dots-256(SP), AX
	ADDQ         $256, AX
	CMPQ         SI, AX
	JNE          row
	TESTQ        R9, R9
	JNE          done
	MOVQ         tile_len+24(FP), AX
	LEAQ         (DI)(AX*8), DI
	JMP          block

done:
	MOVQ         R9, flagged+152(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
