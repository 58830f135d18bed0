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

// func dot4AVX2(x, a, b, c, d *float32, n int, out *[5]float64)
//
// out[0] is x's squared norm, out[1:] its dot products with a, b, c and
// d. Y0's lanes are the four dot products' accumulators, X1 the norm's. A
// block of four bands widens each vector's four samples, multiplies them
// by x's, and transposes the four rows of products so that each lane
// takes its pair's four products in band order; the bands past the last
// block take a lane-wise pass each.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ c+24(FP), R10
	MOVQ d+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD X1, X1, X1
	XORQ AX, AX              // band index
	MOVQ CX, BX
	ANDQ $-4, BX             // bands in whole blocks
	JZ   d4tail

d4block:
	VCVTPS2PD (SI)(AX*4), Y2
	VCVTPS2PD (R8)(AX*4), Y3
	VCVTPS2PD (R9)(AX*4), Y4
	VCVTPS2PD (R10)(AX*4), Y5
	VCVTPS2PD (R11)(AX*4), Y6
	VMULPD Y2, Y3, Y3
	VMULPD Y2, Y4, Y4
	VMULPD Y2, Y5, Y5
	VMULPD Y2, Y6, Y6
	VMULPD Y2, Y2, Y7
	VUNPCKLPD Y4, Y3, Y8     // a0 b0 a2 b2
	VUNPCKHPD Y4, Y3, Y9     // a1 b1 a3 b3
	VUNPCKLPD Y6, Y5, Y10    // c0 d0 c2 d2
	VUNPCKHPD Y6, Y5, Y11    // c1 d1 c3 d3
	VPERM2F128 $0x20, Y10, Y8, Y3 // a0 b0 c0 d0
	VPERM2F128 $0x20, Y11, Y9, Y4 // a1 b1 c1 d1
	VPERM2F128 $0x31, Y10, Y8, Y5 // a2 b2 c2 d2
	VPERM2F128 $0x31, Y11, Y9, Y6 // a3 b3 c3 d3
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y0, Y0
	VEXTRACTF128 $1, Y7, X8  // x2² x3²
	VPERMILPD $1, X7, X9     // x1²
	VPERMILPD $1, X8, X10    // x3²
	VADDSD X7, X1, X1
	VADDSD X9, X1, X1
	VADDSD X8, X1, X1
	VADDSD X10, X1, X1
	ADDQ $4, AX
	CMPQ AX, BX
	JLT  d4block

d4tail:
	CMPQ AX, CX
	JGE  d4done
	VMOVSS (SI)(AX*4), X2
	VCVTSS2SD X2, X2, X2
	VMOVSS (R8)(AX*4), X3
	VINSERTPS $0x10, (R9)(AX*4), X3, X3
	VINSERTPS $0x20, (R10)(AX*4), X3, X3
	VINSERTPS $0x30, (R11)(AX*4), X3, X3
	VCVTPS2PD X3, Y3
	VBROADCASTSD X2, Y4
	VMULPD Y4, Y3, Y3
	VADDPD Y3, Y0, Y0
	VMULSD X2, X2, X5
	VADDSD X5, X1, X1
	INCQ AX
	JMP  d4tail

d4done:
	VMOVSD X1, (DX)
	VMOVUPD Y0, 8(DX)
	VZEROUPPER
	RET

// func dotPairsAVX2(a0, a1, a2, a3, b0, b1, b2, b3 *float32, n int, out *[4]float64)
//
// dot4AVX2's blocks and lanes for four pairs that share no vector.
TEXT ·dotPairsAVX2(SB), NOSPLIT, $0-80
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b0+32(FP), R12
	MOVQ b1+40(FP), R13
	MOVQ b2+48(FP), SI
	MOVQ b3+56(FP), DI
	MOVQ n+64(FP), CX
	MOVQ out+72(FP), DX
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   dptail

dpblock:
	VCVTPS2PD (R8)(AX*4), Y3
	VCVTPS2PD (R12)(AX*4), Y7
	VMULPD Y7, Y3, Y3
	VCVTPS2PD (R9)(AX*4), Y4
	VCVTPS2PD (R13)(AX*4), Y8
	VMULPD Y8, Y4, Y4
	VCVTPS2PD (R10)(AX*4), Y5
	VCVTPS2PD (SI)(AX*4), Y9
	VMULPD Y9, Y5, Y5
	VCVTPS2PD (R11)(AX*4), Y6
	VCVTPS2PD (DI)(AX*4), Y10
	VMULPD Y10, Y6, Y6
	VUNPCKLPD Y4, Y3, Y8
	VUNPCKHPD Y4, Y3, Y9
	VUNPCKLPD Y6, Y5, Y10
	VUNPCKHPD Y6, Y5, Y11
	VPERM2F128 $0x20, Y10, Y8, Y3
	VPERM2F128 $0x20, Y11, Y9, Y4
	VPERM2F128 $0x31, Y10, Y8, Y5
	VPERM2F128 $0x31, Y11, Y9, Y6
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y0, Y0
	ADDQ $4, AX
	CMPQ AX, BX
	JLT  dpblock

dptail:
	CMPQ AX, CX
	JGE  dpdone
	VMOVSS (R8)(AX*4), X3
	VINSERTPS $0x10, (R9)(AX*4), X3, X3
	VINSERTPS $0x20, (R10)(AX*4), X3, X3
	VINSERTPS $0x30, (R11)(AX*4), X3, X3
	VMOVSS (R12)(AX*4), X4
	VINSERTPS $0x10, (R13)(AX*4), X4, X4
	VINSERTPS $0x20, (SI)(AX*4), X4, X4
	VINSERTPS $0x30, (DI)(AX*4), X4, X4
	VCVTPS2PD X3, Y3
	VCVTPS2PD X4, Y4
	VMULPD Y4, Y3, Y3
	VADDPD Y3, Y0, Y0
	INCQ AX
	JMP  dptail

dpdone:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// acosK holds the constants of anglesAVX2, at the byte offsets its
// VBROADCASTSDs name: math.Acos's, and the thresholds of its branches.
DATA ·acosK+0(SB)/8, $0x3ff921fb54442d18   // π/2
DATA ·acosK+8(SB)/8, $0x3fe921fb54442d18   // π/4
DATA ·acosK+16(SB)/8, $0x400921fb54442d18  // π
DATA ·acosK+24(SB)/8, $0x3c81a62633145c07  // morebits/2
DATA ·acosK+32(SB)/8, $0x3fe6666666666666  // 0.7
DATA ·acosK+40(SB)/8, $0x3fe51eb851eb851f  // 0.66
DATA ·acosK+48(SB)/8, $0x3ff0000000000000  // 1
DATA ·acosK+56(SB)/8, $0xbff0000000000000  // -1
DATA ·acosK+64(SB)/8, $0x8000000000000000  // the sign bit
DATA ·acosK+72(SB)/8, $0xbfec007fa1f72594  // P0
DATA ·acosK+80(SB)/8, $0xc03028545b6b807a  // P1
DATA ·acosK+88(SB)/8, $0xc052c08c36880273  // P2
DATA ·acosK+96(SB)/8, $0xc05eb8bf2d05ba25  // P3
DATA ·acosK+104(SB)/8, $0xc0503669fd28ec8e // P4
DATA ·acosK+112(SB)/8, $0x4038dbc45b14603c // Q0
DATA ·acosK+120(SB)/8, $0x4064a0dd43b8fa25 // Q1
DATA ·acosK+128(SB)/8, $0x407b0e18d2e2be3b // Q2
DATA ·acosK+136(SB)/8, $0x407e563f13b049ea // Q3
DATA ·acosK+144(SB)/8, $0x4068519efbbd62ec // Q4
GLOBL ·acosK(SB), RODATA|NOPTR, $152

// func anglesAVX2(out, dot, na, nb *float64, groups int)
//
// Angle in four lanes, for each of groups groups of four. The groups
// share no register, so the processor overlaps one group's long chain of
// dependent operations with the next one's. Every lane computes every
// branch of Angle, asin,
// satan and xatan, in the Go form's order, and VBLENDVPD keeps the one
// the lane's comparison picks: two branches that divide select their
// operands first and share one VDIVPD. The comparisons are ordered, so a
// NaN takes the branch the Go form's would. satan has the Go form's two
// branches (see satan in sad.go).
TEXT ·anglesAVX2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DX
	MOVQ dot+8(FP), AX
	MOVQ na+16(FP), BX
	MOVQ nb+24(FP), CX
	MOVQ groups+32(FP), DI
	LEAQ ·acosK(SB), SI

group:
	// The caller has just stored the inputs, eight bytes at a time: a
	// wider load would wait for those stores to retire, and so for every
	// older instruction, the last call's arithmetic too.
	VMOVSD (AX), X0
	VMOVHPD 8(AX), X0, X0
	VMOVSD 16(AX), X4
	VMOVHPD 24(AX), X4, X4
	VINSERTF128 $1, X4, Y0, Y0
	VMOVSD (BX), X1
	VMOVHPD 8(BX), X1, X1
	VMOVSD 16(BX), X4
	VMOVHPD 24(BX), X4, X4
	VINSERTF128 $1, X4, Y1, Y1
	VMOVSD (CX), X2
	VMOVHPD 8(CX), X2, X2
	VMOVSD 16(CX), X4
	VMOVHPD 24(CX), X4, X4
	VINSERTF128 $1, X4, Y2, Y2
	VXORPD Y15, Y15, Y15
	VBROADCASTSD 48(SI), Y12     // 1
	VCMPPD $0, Y15, Y1, Y13      // na == 0
	VCMPPD $0, Y15, Y2, Y14      // nb == 0
	VORPD Y14, Y13, Y13          // Y13: a zero norm, π/2
	VMULPD Y2, Y1, Y3
	VSQRTPD Y3, Y3
	VDIVPD Y3, Y0, Y3            // c = dot / sqrt(na*nb)
	VCMPPD $3, Y3, Y3, Y14       // Y14: c is NaN, π
	VBROADCASTSD 56(SI), Y4
	VMINPD Y12, Y3, Y3           // c > 1: 1
	VMAXPD Y4, Y3, Y3            // c < -1: -1

	// asin(x) for x = c (Y3).
	VCMPPD $0, Y15, Y3, Y11      // Y11: x == 0, asin is x
	VCMPPD $1, Y15, Y3, Y10      // x < 0
	VBROADCASTSD 64(SI), Y4
	VANDPD Y4, Y10, Y10          // Y10: the sign bit where x < 0
	VXORPD Y10, Y3, Y5           // Y5: x = -x where x < 0
	VMULPD Y5, Y5, Y6
	VSUBPD Y6, Y12, Y6
	VSQRTPD Y6, Y6               // temp = sqrt(1 - x*x)
	VBROADCASTSD 32(SI), Y4
	VCMPPD $1, Y5, Y4, Y9        // Y9: x > 0.7
	VBLENDVPD Y9, Y6, Y5, Y7     // temp/x where x > 0.7, else x/temp
	VBLENDVPD Y9, Y5, Y6, Y8
	VDIVPD Y8, Y7, Y7            // Y7: y, satan's argument

	// satan(y): xatan of y or of (y-1)/(y+1). When every lane takes y,
	// as small angles do, the blends would pick y/1, which is y: the
	// group skips them and the division.
	VBROADCASTSD 40(SI), Y4
	VCMPPD $2, Y4, Y7, Y8        // Y8: y <= 0.66
	VMOVMSKPD Y8, R8
	CMPQ R8, $15
	JNE  reduce
	VMOVAPD Y7, Y4
	JMP  xatan

reduce:
	VSUBPD Y12, Y7, Y4
	VADDPD Y12, Y7, Y5
	VBLENDVPD Y8, Y7, Y4, Y4
	VBLENDVPD Y8, Y12, Y5, Y5
	VDIVPD Y5, Y4, Y4            // Y4: xatan's argument

xatan:

	// xatan(Y4).
	VMULPD Y4, Y4, Y5            // z
	VBROADCASTSD 72(SI), Y7
	VMULPD Y5, Y7, Y7
	VBROADCASTSD 80(SI), Y2
	VADDPD Y2, Y7, Y7
	VMULPD Y5, Y7, Y7
	VBROADCASTSD 88(SI), Y2
	VADDPD Y2, Y7, Y7
	VMULPD Y5, Y7, Y7
	VBROADCASTSD 96(SI), Y2
	VADDPD Y2, Y7, Y7
	VMULPD Y5, Y7, Y7
	VBROADCASTSD 104(SI), Y2
	VADDPD Y2, Y7, Y7            // Y7: p
	VBROADCASTSD 112(SI), Y2
	VADDPD Y2, Y5, Y1
	VMULPD Y5, Y1, Y1
	VBROADCASTSD 120(SI), Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y5, Y1, Y1
	VBROADCASTSD 128(SI), Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y5, Y1, Y1
	VBROADCASTSD 136(SI), Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y5, Y1, Y1
	VBROADCASTSD 144(SI), Y2
	VADDPD Y2, Y1, Y1            // Y1: q
	VMULPD Y7, Y5, Y5
	VDIVPD Y1, Y5, Y5            // z = z*p/q
	VMULPD Y5, Y4, Y5
	VADDPD Y4, Y5, Y5            // Y5: xatan = x*z + x

	// satan's two results, then asin's and acos's.
	VMOVAPD Y5, Y2
	CMPQ R8, $15
	JEQ  asin
	VBROADCASTSD 8(SI), Y2
	VADDPD Y5, Y2, Y2
	VBROADCASTSD 24(SI), Y4
	VADDPD Y4, Y2, Y2            // π/4 + xatan + morebits/2
	VBLENDVPD Y8, Y5, Y2, Y2     // Y2: satan(y)

asin:
	VBROADCASTSD 0(SI), Y0       // π/2
	VSUBPD Y2, Y0, Y1
	VBLENDVPD Y9, Y1, Y2, Y2     // π/2 - satan where x > 0.7
	VXORPD Y10, Y2, Y2           // -temp where x < 0
	VBLENDVPD Y11, Y3, Y2, Y2    // Y2: asin(x)
	VSUBPD Y2, Y0, Y2            // acos(x) = π/2 - asin(x)
	VBROADCASTSD 16(SI), Y4
	VBLENDVPD Y14, Y4, Y2, Y2
	VBLENDVPD Y13, Y0, Y2, Y2
	VMOVUPD Y2, (DX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	DECQ DI
	JNZ  group
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
