//go:build amd64 && !purego

#include "textflag.h"

// AVX2 forms of the loops in kernels_generic.go. The contract (DESIGN.md §15):
// a lane is one output element's one accumulator, lanes run across the output
// index only, and every lane evaluates the generic loop's expression tree in
// its association — packed and scalar IEEE multiply, add, subtract, divide and
// square root round identically, and nothing here fuses a multiply into an
// add (repolint.FusedMultiplyAdd). Each routine takes pointers its Go wrapper
// has bounds-checked against n, runs whole 4-lane vectors to n&^3, finishes
// the last 1–3 elements with the scalar forms of the same instructions (but
// addKeptAVX2, whose caller finishes them), and returns through VZEROUPPER. Loop heads are 64-byte aligned, which also
// aligns the routines themselves.

// Y4 (X4) += a·b[AX] for one more term of an axpy.
#define VTERM(b, a) \
	VMULPD (b)(AX*8), a, Y5; \
	VADDPD Y5, Y4, Y4
#define STERM(b, a) \
	VMULSD (b)(AX*8), a, X5; \
	VADDSD X5, X4, X4

// R10 = n rounded down to whole vectors; AX = 0.
#define VECTORS(n) \
	XORQ AX, AX; \
	MOVQ n, R10; \
	ANDQ $-4, R10

// func axpy4AVX2(c, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-80
	MOVQ         c+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         b1+16(FP), DX
	MOVQ         b2+24(FP), CX
	MOVQ         b3+32(FP), R8
	MOVQ         n+40(FP), R9
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	VECTORS(R9)
	JZ           tail

	PCALIGN $64
loop:
	VMOVUPD (DI)(AX*8), Y4
	VTERM(SI, Y0)
	VTERM(DX, Y1)
	VTERM(CX, Y2)
	VTERM(R8, Y3)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     loop

tail:
	CMPQ AX, R9
	JGE  done

tail1:
	VMOVSD (DI)(AX*8), X4
	STERM(SI, X0)
	STERM(DX, X1)
	STERM(CX, X2)
	STERM(R8, X3)
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VZEROUPPER
	RET

// func axpy3AVX2(c, b0, b1, b2 *float64, n int, a0, a1, a2 float64)
TEXT ·axpy3AVX2(SB), NOSPLIT, $0-64
	MOVQ         c+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         b1+16(FP), DX
	MOVQ         b2+24(FP), CX
	MOVQ         n+32(FP), R9
	VBROADCASTSD a0+40(FP), Y0
	VBROADCASTSD a1+48(FP), Y1
	VBROADCASTSD a2+56(FP), Y2
	VECTORS(R9)
	JZ           tail

	PCALIGN $64
loop:
	VMOVUPD (DI)(AX*8), Y4
	VTERM(SI, Y0)
	VTERM(DX, Y1)
	VTERM(CX, Y2)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     loop

tail:
	CMPQ AX, R9
	JGE  done

tail1:
	VMOVSD (DI)(AX*8), X4
	STERM(SI, X0)
	STERM(DX, X1)
	STERM(CX, X2)
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VZEROUPPER
	RET

// func axpy2AVX2(c, b0, b1 *float64, n int, a0, a1 float64)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-48
	MOVQ         c+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         b1+16(FP), DX
	MOVQ         n+24(FP), R9
	VBROADCASTSD a0+32(FP), Y0
	VBROADCASTSD a1+40(FP), Y1
	VECTORS(R9)
	JZ           tail

	PCALIGN $64
loop:
	VMOVUPD (DI)(AX*8), Y4
	VTERM(SI, Y0)
	VTERM(DX, Y1)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     loop

tail:
	CMPQ AX, R9
	JGE  done

tail1:
	VMOVSD (DI)(AX*8), X4
	STERM(SI, X0)
	STERM(DX, X1)
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VZEROUPPER
	RET

// func axpy1AVX2(c, b *float64, n int, a float64)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ         c+0(FP), DI
	MOVQ         b+8(FP), SI
	MOVQ         n+16(FP), R9
	VBROADCASTSD a+24(FP), Y0
	VECTORS(R9)
	JZ           tail

	PCALIGN $64
loop:
	VMOVUPD (DI)(AX*8), Y4
	VTERM(SI, Y0)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     loop

tail:
	CMPQ AX, R9
	JGE  done

tail1:
	VMOVSD (DI)(AX*8), X4
	STERM(SI, X0)
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VZEROUPPER
	RET

// func addRowAVX2(dst, src *float64, n int)
TEXT ·addRowAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R9
	VECTORS(R9)
	JZ   tail

	PCALIGN $64
loop:
	VMOVUPD (DI)(AX*8), Y4
	VADDPD  (SI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     loop

tail:
	CMPQ AX, R9
	JGE  done

tail1:
	VMOVSD (DI)(AX*8), X4
	VADDSD (SI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VZEROUPPER
	RET

// func scaleAVX2(x *float64, n int, s float64)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), R9
	VBROADCASTSD s+16(FP), Y0
	VECTORS(R9)
	JZ           tail

	PCALIGN $64
loop:
	VMULPD  (DI)(AX*8), Y0, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     loop

tail:
	CMPQ AX, R9
	JGE  done

tail1:
	VMULSD (DI)(AX*8), X0, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VZEROUPPER
	RET

// func adamUpdateAVX2(value, grad, m, v *float64, n int, k *AdamCoef, sumSq float64) float64
//
// Per lane, adamUpdateGeneric's body:
//	g     = grad + decay·value
//	m     = β1·m + (1−β1)·g
//	v     = β2·v + ((1−β2)·g)·g
//	value = value − (η·(m/bc1)) / (√(v/bc2) + ε)
// and then, one lane at a time from lane 0 to lane 3, sumSq += value²: the
// ordered sum rides the loop, its adds waiting on the divides in X6.
TEXT ·adamUpdateAVX2(SB), NOSPLIT, $0-64
	MOVQ         value+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), DX
	MOVQ         v+24(FP), CX
	MOVQ         n+32(FP), R9
	MOVQ         k+40(FP), R8
	VMOVSD       sumSq+48(FP), X6
	VBROADCASTSD 0(R8), Y15  // Decay
	VBROADCASTSD 8(R8), Y14  // Beta1
	VBROADCASTSD 16(R8), Y13 // OneMinusBeta1
	VBROADCASTSD 24(R8), Y12 // Beta2
	VBROADCASTSD 32(R8), Y11 // OneMinusBeta2
	VBROADCASTSD 40(R8), Y10 // BiasCorr1
	VBROADCASTSD 48(R8), Y9  // BiasCorr2
	VBROADCASTSD 56(R8), Y8  // LR
	VBROADCASTSD 64(R8), Y7  // Eps
	VECTORS(R9)
	JZ           tail

	PCALIGN $64
loop:
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  Y0, Y15, Y1
	VADDPD  (SI)(AX*8), Y1, Y1 // g
	VMULPD  (DX)(AX*8), Y14, Y2
	VMULPD  Y1, Y13, Y3
	VADDPD  Y3, Y2, Y2         // m
	VMOVUPD Y2, (DX)(AX*8)
	VMULPD  (CX)(AX*8), Y12, Y4
	VMULPD  Y1, Y11, Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y5, Y4, Y4         // v
	VMOVUPD Y4, (CX)(AX*8)
	VDIVPD  Y10, Y2, Y2        // mHat
	VDIVPD  Y9, Y4, Y4         // vHat
	VSQRTPD Y4, Y4
	VADDPD  Y7, Y4, Y4
	VMULPD  Y2, Y8, Y2
	VDIVPD  Y4, Y2, Y2
	VSUBPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VMULPD  Y0, Y0, Y3         // value²
	VADDSD  X3, X6, X6         // + lane 0
	VUNPCKHPD X3, X3, X5
	VADDSD  X5, X6, X6         // + lane 1
	VEXTRACTF128 $1, Y3, X3
	VADDSD  X3, X6, X6         // + lane 2
	VUNPCKHPD X3, X3, X5
	VADDSD  X5, X6, X6         // + lane 3
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     loop

tail:
	CMPQ AX, R9
	JGE  done

tail1:
	VMOVSD  (DI)(AX*8), X0
	VMULSD  X0, X15, X1
	VADDSD  (SI)(AX*8), X1, X1
	VMULSD  (DX)(AX*8), X14, X2
	VMULSD  X1, X13, X3
	VADDSD  X3, X2, X2
	VMOVSD  X2, (DX)(AX*8)
	VMULSD  (CX)(AX*8), X12, X4
	VMULSD  X1, X11, X5
	VMULSD  X1, X5, X5
	VADDSD  X5, X4, X4
	VMOVSD  X4, (CX)(AX*8)
	VDIVSD  X10, X2, X2
	VDIVSD  X9, X4, X4
	VSQRTSD X4, X4, X4
	VADDSD  X7, X4, X4
	VMULSD  X2, X8, X2
	VDIVSD  X4, X2, X2
	VSUBSD  X2, X0, X0
	VMOVSD  X0, (DI)(AX*8)
	VMULSD  X0, X0, X3
	VADDSD  X3, X6, X6
	INCQ    AX
	CMPQ    AX, R9
	JLT     tail1

done:
	VMOVSD     X6, ret+56(FP)
	VZEROUPPER
	RET

// func addKeptAVX2(dst, base, delta *float64, n int, thr float64, ties int) int
//
// Per lane, addKeptGeneric's body where no tie is taken: dst = base + delta
// if |delta| > thr, else base, picked by VBLENDVPD from the compare's mask
// with no branch. While ties > 0, a vector holding a lane equal to thr stops
// the loop before it is written, and the count written so far is returned:
// the caller finishes that vector with the scalar rule, which takes the ties
// in index order. n is a multiple of 4.
TEXT ·addKeptAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         base+8(FP), SI
	MOVQ         delta+16(FP), DX
	MOVQ         n+24(FP), R9
	VBROADCASTSD thr+32(FP), Y14
	MOVQ         ties+40(FP), R8
	VPCMPEQQ     Y15, Y15, Y15
	VPSRLQ       $1, Y15, Y15    // every bit but the sign
	XORQ         AX, AX
	TESTQ        R9, R9
	JZ           done

	PCALIGN $64
loop:
	VMOVUPD   (DX)(AX*8), Y1
	VANDPD    Y15, Y1, Y2       // |delta|
	TESTQ     R8, R8
	JZ        blend
	VCMPPD    $0x00, Y14, Y2, Y3 // |delta| == thr, ordered
	VMOVMSKPD Y3, BX
	TESTL     BX, BX
	JNZ       done

blend:
	VCMPPD    $0x1e, Y14, Y2, Y3 // |delta| > thr, ordered
	VMOVUPD   (SI)(AX*8), Y0
	VADDPD    Y1, Y0, Y4         // base + delta
	VBLENDVPD Y3, Y4, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	CMPQ      AX, R9
	JLT       loop

done:
	MOVQ       AX, ret+48(FP)
	VZEROUPPER
	RET

// func decaySumSquaresAVX2(grad, value *float64, n int, decay float64) float64
//
// Per lane, decaySumSquaresGeneric's body: grad = grad + decay·value, then
// the lane's sum += grad². The lanes join as (0+2) + (1+3) before the last
// 1–3 elements add in one at a time.
TEXT ·decaySumSquaresAVX2(SB), NOSPLIT, $0-40
	MOVQ         grad+0(FP), DI
	MOVQ         value+8(FP), SI
	MOVQ         n+16(FP), R9
	VBROADCASTSD decay+24(FP), Y0
	VXORPD       Y6, Y6, Y6
	VECTORS(R9)
	JZ           join

	PCALIGN $64
loop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1 // g
	VMOVUPD Y1, (DI)(AX*8)
	VMULPD  Y1, Y1, Y2
	VADDPD  Y2, Y6, Y6
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     loop

join:
	VEXTRACTF128 $1, Y6, X7
	VADDPD       X7, X6, X6 // lanes 0+2, 1+3
	VUNPCKHPD    X6, X6, X7
	VADDSD       X7, X6, X6
	CMPQ         AX, R9
	JGE          done

tail1:
	VMOVSD (SI)(AX*8), X1
	VMULSD X1, X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	VMULSD X1, X1, X2
	VADDSD X2, X6, X6
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VMOVSD     X6, ret+32(FP)
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
