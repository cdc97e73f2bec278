//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// 2 (the fewest joint cells with a defined r), sure, the sign-clearing mask
// and 1: dot_amd64.s's finishK; then Split's constants 1.5·2^22 and
// 1.5·2^-18. tilecorr.go names them all.
DATA rangeK<>+0(SB)/8, $2.0
DATA rangeK<>+8(SB)/8, $0.999999999999
DATA rangeK<>+16(SB)/8, $0x7fffffffffffffff
DATA rangeK<>+24(SB)/8, $1.0
DATA rangeK<>+32(SB)/8, $0x4158000000000000
DATA rangeK<>+40(SB)/8, $0x3ed8000000000000
GLOBL rangeK<>(SB), RODATA|NOPTR, $48

// 0-7 as int32: a tile's gene indices less its first, when its rows are
// eight consecutive genes.
DATA rangeIota<>+0(SB)/8, $0x0000000100000000
DATA rangeIota<>+8(SB)/8, $0x0000000300000002
DATA rangeIota<>+16(SB)/8, $0x0000000500000004
DATA rangeIota<>+24(SB)/8, $0x0000000700000006
GLOBL rangeIota<>(SB), RODATA|NOPTR, $32

// DOTROW adds one experiment of the block's query row at q(R8) into row
// k's dots with tile A (Z8) in DA and with tile B (Z9) in DB: the FMA
// dotAsm runs for that row, once a tile.
#define DOTROW(q, DA, DB) \
	VBROADCASTSD q(R8), Z10; \
	VFMADD231PD  Z8, Z10, DA; \
	VFMADD231PD  Z9, Z10, DB

// LINE loads the next tile lines of A (R10) and B (R11) and moves the
// walks on by one experiment.
#define LINE \
	VMOVUPD (R10), Z8; \
	VMOVUPD (R11), Z9; \
	ADDQ    $64, R10; \
	ADDQ    $64, R11

#define NEXT \
	ADDQ $32, R8; \
	DECQ AX

// HALF512 is dot_amd64.s's HALF on one whole tile: the finish of one query
// row against eight lanes from their sums Sa, Saa, Sb, Sbb and N, the
// tile's guard limits in LimA, the row's in Z14 and the row's dots at dot.
// It leaves r in N, in KV a bit per lane the finish vouches for or calls
// NaN, and in KN a bit per lane with N < 2. Every step rounds where HALF's
// does; Sa, Saa and Sbb are spent. Scratch: Z30.
#define HALF512(Sa, Saa, Sb, Sbb, N, LimA, dot, KV, KN) \
	VMULPD  Saa, N, Saa; \
	VMULPD  Sa, Sa, Z30; \
	VSUBPD  Z30, Saa, Saa; \
	VMULPD  Sbb, N, Sbb; \
	VMULPD  Sb, Sb, Z30; \
	VSUBPD  Z30, Sbb, Sbb; \
	VCMPPD  $0x1e, LimA, Saa, KV; \
	VCMPPD  $0x1e, Z14, Sbb, KV, KV; \
	VCMPPD  $0x1e, Z26, N, KV, KV; \
	VCMPPD  $0x11, Z26, N, KN; \
	VMULPD  Sbb, Saa, Saa; \
	VSQRTPD Saa, Saa; \
	VMULPD  dot, N, N; \
	VMULPD  Sb, Sa, Sa; \
	VSUBPD  Sa, N, N; \
	VDIVPD  Saa, N, N; \
	VPANDQ  Z28, N, Sa; \
	VCMPPD  $0x11, Z27, Sa, KV, KV; \
	KORW    KN, KV, KV

// TALLY folds one row's finish of one tile into the pass: the lanes of
// lanes that KV does not vouch for into flags, and r (in N) where it is
// defined — not NaN, and N ≥ 2 — into SUM, with 1 into CNT, as scoreAsm
// adds them. Scratch: AX, K5.
#define TALLY(N, KV, KN, lanes, flags, SUM, CNT) \
	KMOVW  KV, AX; \
	NOTL   AX; \
	ANDL   lanes, AX; \
	ORL    AX, flags; \
	KNOTW  KN, K5; \
	VCMPPD $0x07, N, N, K5, K5; \
	VADDPD N, SUM, K5, SUM; \
	VADDPD Z29, CNT, K5, CNT

// CELLS subtracts a query row's cell, broadcast, at each of a tile's
// missing cells — R8 walks them, R11 counts them — from the row's sums Sb,
// Sbb and N in that cell's lane, as ROWSUMS does: the cell's unit row (CX)
// times the broadcast, which an FMA subtracts exactly. The row's z-scores
// are at R12 and its presence at R13. Scratch: AX, R10, Z10-Z12.
#define CELLS(Sb, Sbb, N, loop, done) \
	TESTQ        R11, R11; \
	JEQ          done; \
loop: \
	MOVL         (R8), AX; \
	MOVL         AX, R10; \
	ANDL         $7, AX; \
	SHLQ         $6, AX; \
	VMOVUPD      (CX)(AX*1), Z10; \
	SHRL         $3, R10; \
	SHLQ         $5, R10; \
	VBROADCASTSD (R12)(R10*1), Z11; \
	VBROADCASTSD (R13)(R10*1), Z12; \
	VFNMADD231PD Z11, Z10, Sb; \
	VMULPD       Z11, Z11, Z11; \
	VFNMADD231PD Z11, Z10, Sbb; \
	VFNMADD231PD Z12, Z10, N; \
	ADDQ         $4, R8; \
	DECQ         R11; \
	JNZ          loop; \
done:

// LANES sets OUT to the lanes of tile T in the range [r0, r1): bit j for
// row 8T+j. Scratch: CX, R10, R11.
#define LANES(T, OUT) \
	MOVQ    T, R10; \
	SHLQ    $3, R10; \
	MOVQ    rangeArgs_r0(DI), CX; \
	SUBQ    R10, CX; \
	XORQ    R11, R11; \
	CMPQ    CX, $0; \
	CMOVQLT R11, CX; \
	MOVQ    $1, R11; \
	SHLQ    CX, R11; \
	MOVQ    rangeArgs_r1(DI), CX; \
	SUBQ    R10, CX; \
	MOVQ    $8, OUT; \
	CMPQ    CX, $8; \
	CMOVQGT OUT, CX; \
	MOVQ    $1, OUT; \
	SHLQ    CX, OUT; \
	SUBQ    R11, OUT

// func scoreRange512(a *rangeArgs) (flagged int)
//
// A pass scores tiles A = tA and B = tA+1 (B = A, with no lanes, when A is
// the range's last tile): block by block, the dots of the block's live rows
// with both tiles — Z(2k) and Z(2k+1) for row k, each lane's FMAs in
// ascending experiment order, as dotAsm's — into the frame's dots; then
// row by row the sums of both tiles, Z0-Z4 for A and Z5-Z9 for B (Sa, Saa,
// Sb, Sbb, N as ROWSUMS lays them out), HALF512 and TALLY. Z16/Z18 hold
// A's sum and count of defined correlations over the pass, Z17/Z19 B's;
// Z20-Z23 the tiles' totals t1A, t2A, t1B, t2B and Z24/Z25 their guard
// limits; Z26-Z29 the constants 2, sure, the sign mask and 1. DX and R14
// hold the tiles, R9 the block, BX, SI, R12 and R13 walk rows, dots,
// z-scores and presence. After the blocks a tile with a flagged lane in the
// range ends the call; otherwise its lanes go onto the grid, eight adds a
// column when its rows are eight consecutive genes and one add a lane
// otherwise.
TEXT ·scoreRange512(SB), 0, $736-16
	MOVQ         a+0(FP), DI
	VBROADCASTSD rangeK<>+0(SB), Z26
	VBROADCASTSD rangeK<>+8(SB), Z27
	VBROADCASTSD rangeK<>+16(SB), Z28
	VBROADCASTSD rangeK<>+24(SB), Z29
	MOVQ         rangeArgs_r0(DI), AX
	SHRQ         $3, AX
	MOVQ         AX, tA-96(SP)

pass:
	MOVQ rangeArgs_r1(DI), AX
	ADDQ $7, AX
	SHRQ $3, AX
	MOVQ tA-96(SP), R8
	CMPQ R8, AX
	JGE  finished
	LEAQ 1(R8), R9
	MOVQ R9, tB-88(SP)
	CMPQ R9, AX
	JLT  pair
	MOVQ R8, tB-88(SP)
	MOVQ $0, laneB-72(SP)
	LANES(R8, AX)
	MOVQ AX, laneA-80(SP)
	JMP  tiles

pair:
	LANES(R8, AX)
	MOVQ AX, laneA-80(SP)
	LANES(R9, AX)
	MOVQ AX, laneB-72(SP)

tiles:
	// Tile A's cells, totals, guard limits and missing cells, then B's.
	MOVQ         rangeArgs_nExp(DI), AX
	SHLQ         $6, AX
	MOVQ         tA-96(SP), R8
	MOVQ         AX, DX
	IMULQ        R8, DX
	ADDQ         rangeArgs_zt(DI), DX
	MOVQ         tB-88(SP), R9
	MOVQ         AX, R14
	IMULQ        R9, R14
	ADDQ         rangeArgs_zt(DI), R14
	VBROADCASTSD rangeArgs_lim(DI), Z30
	MOVQ         R8, R10
	SHLQ         $6, R10
	MOVQ         rangeArgs_t1(DI), AX
	VMOVUPD      (AX)(R10*1), Z20
	MOVQ         rangeArgs_t2(DI), AX
	VMOVUPD      (AX)(R10*1), Z21
	VMULPD       Z21, Z30, Z24
	MOVQ         R9, R10
	SHLQ         $6, R10
	MOVQ         rangeArgs_t1(DI), AX
	VMOVUPD      (AX)(R10*1), Z22
	MOVQ         rangeArgs_t2(DI), AX
	VMOVUPD      (AX)(R10*1), Z23
	VMULPD       Z23, Z30, Z25
	MOVQ         rangeArgs_missOff(DI), CX
	MOVQ         rangeArgs_miss(DI), R11
	SHLQ         $5, R8
	MOVLQSX      (CX)(R8*1), AX
	MOVLQSX      32(CX)(R8*1), R10
	SUBQ         AX, R10
	MOVQ         R10, nA-40(SP)
	LEAQ         (R11)(AX*4), AX
	MOVQ         AX, cellsA-48(SP)
	SHLQ         $5, R9
	MOVLQSX      (CX)(R9*1), AX
	MOVLQSX      32(CX)(R9*1), R10
	SUBQ         AX, R10
	MOVQ         R10, nB-24(SP)
	LEAQ         (R11)(AX*4), AX
	MOVQ         AX, cellsB-32(SP)

	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	MOVQ   $0, flagsA-64(SP)
	MOVQ   $0, flagsB-56(SP)
	MOVQ   rangeArgs_buf(DI), R9
	MOVQ   rangeArgs_rows(DI), BX
	MOVQ   rangeArgs_rows+8(DI), AX
	MOVQ   AX, left-16(SP)
	TESTQ  AX, AX
	JEQ    blocksdone

block:
	MOVQ DX, R10
	MOVQ R14, R11
	MOVQ R9, R8
	MOVQ rangeArgs_nExp(DI), AX
	MOVQ left-16(SP), CX
	CMPQ CX, $3
	JGT  dot4
	JEQ  dot3
	CMPQ CX, $2
	JEQ  dot2
	JMP  dot1

dot4:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ  AX, AX
	JEQ    st4

line4:
	LINE
	DOTROW(0, Z0, Z1)
	DOTROW(8, Z2, Z3)
	DOTROW(16, Z4, Z5)
	DOTROW(24, Z6, Z7)
	NEXT
	JNZ    line4
	JMP    st4

dot3:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	TESTQ  AX, AX
	JEQ    st3

line3:
	LINE
	DOTROW(0, Z0, Z1)
	DOTROW(8, Z2, Z3)
	DOTROW(16, Z4, Z5)
	NEXT
	JNZ    line3
	JMP    st3

dot2:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	TESTQ  AX, AX
	JEQ    st2

line2:
	LINE
	DOTROW(0, Z0, Z1)
	DOTROW(8, Z2, Z3)
	NEXT
	JNZ    line2
	JMP    st2

dot1:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	TESTQ  AX, AX
	JEQ    st1

line1:
	LINE
	DOTROW(0, Z0, Z1)
	NEXT
	JNZ    line1
	JMP    st1

st4:
	VMOVUPD Z6, dots-544(SP)
	VMOVUPD Z7, dots-288(SP)

st3:
	VMOVUPD Z4, dots-608(SP)
	VMOVUPD Z5, dots-352(SP)

st2:
	VMOVUPD Z2, dots-672(SP)
	VMOVUPD Z3, dots-416(SP)

st1:
	VMOVUPD Z0, dots-736(SP)
	VMOVUPD Z1, dots-480(SP)
	LEAQ    dots-736(SP), SI
	MOVQ    R9, R12
	MOVQ    rangeArgs_nExp(DI), AX
	SHLQ    $5, AX
	LEAQ    (R9)(AX*1), R13

row:
	// The row's sums against both tiles: the tiles' totals less a tile
	// line per column the row misses, and the row's totals and count less
	// its cell at each of a tile's missing cells.
	VMOVAPD      Z20, Z0
	VMOVAPD      Z21, Z1
	VMOVAPD      Z22, Z5
	VMOVAPD      Z23, Z6
	MOVQ         Row_miss(BX), R8
	MOVQ         Row_miss+8(BX), R11
	MOVQ         rangeArgs_nExp(DI), AX
	SUBQ         R11, AX
	VCVTSI2SDQ   AX, X4, X4
	VBROADCASTSD X4, Z4
	VMOVAPD      Z4, Z9
	TESTQ        R11, R11
	JEQ          sums

qmiss:
	MOVLQSX (R8), AX
	ANDQ    $~7, AX
	VMOVUPD (DX)(AX*8), Z10
	VMOVUPD (R14)(AX*8), Z11
	VSUBPD  Z10, Z0, Z0
	VSUBPD  Z11, Z5, Z5
	VMULPD  Z10, Z10, Z10
	VMULPD  Z11, Z11, Z11
	VSUBPD  Z10, Z1, Z1
	VSUBPD  Z11, Z6, Z6
	ADDQ    $4, R8
	DECQ    R11
	JNZ     qmiss

sums:
	VBROADCASTSD Row_t1(BX), Z2
	VMOVAPD      Z2, Z7
	VBROADCASTSD Row_t2(BX), Z3
	VMOVAPD      Z3, Z8
	MOVQ         rangeArgs_unit(DI), CX
	MOVQ         cellsA-48(SP), R8
	MOVQ         nA-40(SP), R11
	CELLS(Z2, Z3, Z4, cellA, cellsAdone)
	MOVQ         cellsB-32(SP), R8
	MOVQ         nB-24(SP), R11
	CELLS(Z7, Z8, Z9, cellB, cellsBdone)
	VMOVSD       Row_t2(BX), X14
	VMULSD       rangeArgs_lim(DI), X14, X14
	VBROADCASTSD X14, Z14

	HALF512(Z0, Z1, Z2, Z3, Z4, Z24, (SI), K1, K2)
	TALLY(Z4, K1, K2, laneA-80(SP), flagsA-64(SP), Z16, Z18)
	HALF512(Z5, Z6, Z7, Z8, Z9, Z25, 256(SI), K3, K4)
	TALLY(Z9, K3, K4, laneB-72(SP), flagsB-56(SP), Z17, Z19)

	ADDQ $64, SI
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $Row__size, BX
	DECQ left-16(SP)
	JEQ  blocksdone
	LEAQ dots-480(SP), AX
	CMPQ SI, AX
	JNE  row
	MOVQ rangeArgs_nExp(DI), AX
	SHLQ $6, AX
	ADDQ AX, R9
	JMP  block

blocksdone:
	MOVL flagsA-64(SP), AX
	TESTL AX, AX
	JNZ  retA
	MOVQ tA-96(SP), R8
	MOVQ laneA-80(SP), R9
	MOVQ $1, more-8(SP)

add:
	// Tile R8's lanes R9 with a defined correlation, K1, go onto the grid:
	// Z13 their hi terms and Z11 their lo terms, as AddMeans splits them.
	KMOVW        R9, K1
	VPXORQ       Z10, Z10, Z10
	VCMPPD       $0x1e, Z10, Z18, K1, K1
	KORTESTW     K1, K1
	JEQ          added
	VDIVPD       Z18, Z16, Z11
	VBROADCASTSD rangeArgs_w(DI), Z12
	VMULPD       Z12, Z11, Z11
	VBROADCASTSD rangeK<>+32(SB), Z12
	VADDPD       Z12, Z11, Z13
	VSUBPD       Z12, Z13, Z13
	VSUBPD       Z13, Z11, Z11
	VBROADCASTSD rangeK<>+40(SB), Z12
	VADDPD       Z12, Z11, Z11
	VSUBPD       Z12, Z11, Z11
	MOVQ         rangeArgs_gids(DI), SI
	SHLQ         $5, R8
	ADDQ         R8, SI
	MOVQ         rangeArgs_acc(DI), BX
	MOVQ         rangeArgs_accLen(DI), R12
	CMPQ         R9, $0xff
	JNE          scalar
	VMOVDQU      (SI), Y10
	VPBROADCASTD (SI), Y12
	VPSUBD       Y12, Y10, Y10
	VPCMPEQD     rangeIota<>(SB), Y10, Y10
	VPMOVMSKB    Y10, AX
	CMPL         AX, $-1
	JNE          scalar
	MOVLQSX      (SI), R8
	CMPQ         R8, R12
	JAE          bad
	LEAQ         7(R8), R10
	CMPQ         R10, R12
	JAE          bad
	MOVQ         0(BX), AX
	VADDPD       (AX)(R8*8), Z13, K1, Z15
	VMOVUPD      Z15, K1, (AX)(R8*8)
	MOVQ         24(BX), AX
	VADDPD       (AX)(R8*8), Z11, K1, Z15
	VMOVUPD      Z15, K1, (AX)(R8*8)
	VBROADCASTSD rangeArgs_cHi(DI), Z12
	MOVQ         48(BX), AX
	VADDPD       (AX)(R8*8), Z12, K1, Z15
	VMOVUPD      Z15, K1, (AX)(R8*8)
	VBROADCASTSD rangeArgs_cLo(DI), Z12
	MOVQ         72(BX), AX
	VADDPD       (AX)(R8*8), Z12, K1, Z15
	VMOVUPD      Z15, K1, (AX)(R8*8)
	JMP          added

scalar:
	VMOVUPD  Z13, hi-224(SP)
	VMOVUPD  Z11, lo-160(SP)
	LEAQ     hi-224(SP), R13
	KMOVW    K1, R9

lane:
	BSFL     R9, CX
	MOVLQSX  (SI)(CX*4), R8
	CMPQ     R8, R12
	JAE      bad
	MOVQ     0(BX), AX
	VMOVSD   (AX)(R8*8), X10
	VADDSD   (R13)(CX*8), X10, X10
	VMOVSD   X10, (AX)(R8*8)
	MOVQ     24(BX), AX
	VMOVSD   (AX)(R8*8), X10
	VADDSD   64(R13)(CX*8), X10, X10
	VMOVSD   X10, (AX)(R8*8)
	MOVQ     48(BX), AX
	VMOVSD   (AX)(R8*8), X10
	VADDSD   rangeArgs_cHi(DI), X10, X10
	VMOVSD   X10, (AX)(R8*8)
	MOVQ     72(BX), AX
	VMOVSD   (AX)(R8*8), X10
	VADDSD   rangeArgs_cLo(DI), X10, X10
	VMOVSD   X10, (AX)(R8*8)
	LEAL     -1(R9), AX
	ANDL     AX, R9
	JNZ      lane

added:
	MOVQ more-8(SP), AX
	TESTQ AX, AX
	JEQ  advance
	MOVQ $0, more-8(SP)
	MOVL flagsB-56(SP), AX
	TESTL AX, AX
	JNZ  retB
	VMOVAPD Z17, Z16
	VMOVAPD Z19, Z18
	MOVQ tB-88(SP), R8
	MOVQ laneB-72(SP), R9
	JMP  add

advance:
	MOVQ tA-96(SP), AX
	ADDQ $2, AX
	MOVQ AX, tA-96(SP)
	JMP  pass

finished:
	MOVQ $-1, flagged+8(FP)
	VZEROUPPER
	RET

retA:
	MOVQ tA-96(SP), AX
	MOVQ AX, flagged+8(FP)
	VZEROUPPER
	RET

retB:
	MOVQ tB-88(SP), AX
	MOVQ AX, flagged+8(FP)
	VZEROUPPER
	RET

bad:
	MOVQ $-2, flagged+8(FP)
	VZEROUPPER
	RET
