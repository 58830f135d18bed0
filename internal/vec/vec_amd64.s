//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 forms of vec.go's Go forms. Each float64 lane is one output's
// accumulator: it multiplies and adds exactly what the Go form's scalar
// accumulator does, in the same order, with VMULPD and VADDPD (VMULSD and
// VADDSD for a tail) and never a fused multiply-add.

// func dotBlocksAVX2(x *float64, n int, p, out *float64, blocks int)
//
// Passes of four blocks (sixteen outputs) keep four independent add
// chains in flight; the last two blocks, or the last one, take a pass of
// their own.
TEXT ·dotBlocksAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ p+16(FP), DI
	MOVQ out+24(FP), DX
	MOVQ blocks+32(FP), BX   // blocks left
	MOVQ CX, R8
	SHLQ $5, R8              // bytes per block: 4 rows of n float64s

quad:
	CMPQ BX, $4
	JLT  pair
	LEAQ (DI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R13             // x[i]
	XORQ R12, R12            // offset of band i in a block
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   quaddone

quadloop:
	VBROADCASTSD (R13), Y4
	VMULPD (DI)(R12*1), Y4, Y5
	VMULPD (R9)(R12*1), Y4, Y6
	VMULPD (R10)(R12*1), Y4, Y7
	VMULPD (R11)(R12*1), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, R13
	ADDQ $32, R12
	DECQ AX
	JNZ  quadloop

quaddone:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, DX
	LEAQ (R11)(R8*1), DI
	SUBQ $4, BX
	JMP  quad

pair:
	CMPQ BX, $2
	JLT  single
	LEAQ (DI)(R8*1), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, R13
	XORQ R12, R12
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   pairdone

pairloop:
	VBROADCASTSD (R13), Y4
	VMULPD (DI)(R12*1), Y4, Y5
	VMULPD (R9)(R12*1), Y4, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	ADDQ $8, R13
	ADDQ $32, R12
	DECQ AX
	JNZ  pairloop

pairdone:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ $64, DX
	LEAQ (R9)(R8*1), DI
	SUBQ $2, BX

single:
	TESTQ BX, BX
	JZ   done
	VXORPD Y0, Y0, Y0
	MOVQ SI, R13
	XORQ R12, R12
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   singledone

singleloop:
	VBROADCASTSD (R13), Y4
	VMULPD (DI)(R12*1), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, R13
	ADDQ $32, R12
	DECQ AX
	JNZ  singleloop

singledone:
	VMOVUPD Y0, (DX)

done:
	VZEROUPPER
	RET

// func addProducts4AVX2(dst *float64, n int, a *[4]float64, f0, f1, f2, f3 *float64)
//
// Four entries of dst per pass, then one at a time; each entry adds its
// four products left to right.
TEXT ·addProducts4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	MOVQ f0+24(FP), R8
	MOVQ f1+32(FP), R9
	MOVQ f2+40(FP), R10
	MOVQ f3+48(FP), R11
	XORQ AX, AX              // byte offset of entry j
	MOVQ CX, BX
	SHRQ $2, BX              // passes of four
	TESTQ BX, BX
	JZ   tail

loop4:
	VMOVUPD (DI)(AX*1), Y4
	VMULPD (R8)(AX*1), Y0, Y5
	VMULPD (R9)(AX*1), Y1, Y6
	VMULPD (R10)(AX*1), Y2, Y7
	VMULPD (R11)(AX*1), Y3, Y8
	VADDPD Y5, Y4, Y4
	VADDPD Y6, Y4, Y4
	VADDPD Y7, Y4, Y4
	VADDPD Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $32, AX
	DECQ BX
	JNZ  loop4

tail:
	ANDQ $3, CX
	JZ   adddone

loop1:
	VMOVSD (DI)(AX*1), X4
	VMULSD (R8)(AX*1), X0, X5
	VMULSD (R9)(AX*1), X1, X6
	VMULSD (R10)(AX*1), X2, X7
	VMULSD (R11)(AX*1), X3, X8
	VADDSD X5, X4, X4
	VADDSD X6, X4, X4
	VADDSD X7, X4, X4
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ $8, AX
	DECQ CX
	JNZ  loop1

adddone:
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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
