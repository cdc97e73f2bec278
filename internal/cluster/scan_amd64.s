//go:build !purego

#include "textflag.h"

// func skipAsm(row []float64, j int, bd float64) int
//
// Y0 holds bd in every lane. A block of 16 cells is four compares of bd >
// cell (ordered: a NaN on either side is false, as d < bd is in Go), ORed
// together; AX is the block's start and DX its end.
TEXT ·skipAsm(SB), NOSPLIT, $0-48
	MOVQ         row_base+0(FP), SI
	MOVQ         row_len+8(FP), CX
	MOVQ         j+24(FP), AX
	VBROADCASTSD bd+32(FP), Y0
	LEAQ         16(AX), DX
	CMPQ         DX, CX
	JGT          done

block:
	VCMPPD $0x1e, (SI)(AX*8), Y0, Y1
	VCMPPD $0x1e, 32(SI)(AX*8), Y0, Y2
	VCMPPD $0x1e, 64(SI)(AX*8), Y0, Y3
	VCMPPD $0x1e, 96(SI)(AX*8), Y0, Y4
	VORPD  Y2, Y1, Y1
	VORPD  Y4, Y3, Y3
	VORPD  Y3, Y1, Y1
	VPTEST Y1, Y1
	JNE    done
	MOVQ   DX, AX
	ADDQ   $16, DX
	CMPQ   DX, CX
	JLE    block

done:
	MOVQ       AX, ret+40(FP)
	VZEROUPPER
	RET
