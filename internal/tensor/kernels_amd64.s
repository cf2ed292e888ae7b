//go:build amd64 && !purego

#include "textflag.h"

// AVX2 forms of the loops in kernels_generic.go. The contract (DESIGN.md §15):
// a lane is one output element's one accumulator, lanes run across the output
// index only, and every lane evaluates the generic loop's expression tree in
// its association — packed and scalar IEEE multiply, add, subtract, divide and
// square root round identically, and nothing here fuses a multiply into an
// add (repolint.FusedMultiplyAdd). The elementwise routines take pointers
// their Go wrapper has bounds-checked against n, run whole 4-lane vectors to
// n&^3, finish the last 1–3 elements with the scalar forms of the same
// instructions (but addKeptAVX2, whose caller finishes them), and return
// through VZEROUPPER; the screens run whole vectors or blocks and leave the
// rest to their wrapper, and the gather trusts the row indices its callers
// list. No instruction here has a legacy-SSE encoding: one between YMM
// instructions costs a state transition. Loop heads are 64-byte aligned,
// which also aligns the routines themselves.

// R10 = n rounded down to whole vectors; AX = 0.
#define VECTORS(n) \
	XORQ AX, AX; \
	MOVQ n, R10; \
	ANDQ $-4, R10

// func gatherAVX2(c *float64, n int, b *float64, idx *int32, val *float64, cnt int, add bool)
//
// gatherGeneric's sum for every column j of c: acc = ((+0 + val[0]·B[idx[0], j])
// + val[1]·B[idx[1], j]) + … over the cnt survivors in list order, B being
// row-major with n columns; c[j] = acc, or c[j] + acc when add. The columns
// go 32 at a time, eight accumulators Y0–Y7 held in registers across the
// whole list and stored once; then 4-lane strips in Y0; then one column at a
// time in X0. Each step of the wide loop prefetches the strip of the row
// GATHER_AHEAD survivors on (the last survivor's near the end of the list).
#define GATHER_AHEAD 6

// Y(acc) += Y8·B[row AX, strip column off/8].
#define GTERM(off, acc, tmp) \
	VMULPD off(AX), Y8, tmp; \
	VADDPD tmp, acc, acc

TEXT ·gatherAVX2(SB), NOSPLIT, $0-49
	MOVQ    c+0(FP), DI
	MOVQ    n+8(FP), R9
	MOVQ    b+16(FP), SI
	MOVQ    idx+24(FP), DX
	MOVQ    val+32(FP), CX
	MOVQ    cnt+40(FP), R8
	MOVBQZX add+48(FP), R12
	MOVQ    R9, R13
	SHLQ    $3, R13         // bytes per row of B
	LEAQ    -1(R8), R11     // the last survivor, where prefetches stop
	XORQ    R10, R10        // first column of the strip

wide:
	LEAQ   32(R10), AX
	CMPQ   AX, R9
	JGT    narrow
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (SI)(R10*8), R14 // the strip's column in row 0 of B
	XORQ   BX, BX
	TESTQ  R8, R8
	JZ     widestore

	PCALIGN $64
wideloop:
	LEAQ         GATHER_AHEAD(BX), AX
	CMPQ         AX, R8
	CMOVQGE      R11, AX
	MOVLQSX      (DX)(AX*4), AX
	IMULQ        R13, AX
	PREFETCHT0   (R14)(AX*1)
	PREFETCHT0   128(R14)(AX*1)
	MOVLQSX      (DX)(BX*4), AX
	IMULQ        R13, AX
	ADDQ         R14, AX
	VBROADCASTSD (CX)(BX*8), Y8
	GTERM(0, Y0, Y9)
	GTERM(32, Y1, Y10)
	GTERM(64, Y2, Y11)
	GTERM(96, Y3, Y12)
	GTERM(128, Y4, Y9)
	GTERM(160, Y5, Y10)
	GTERM(192, Y6, Y11)
	GTERM(224, Y7, Y12)
	INCQ         BX
	CMPQ         BX, R8
	JLT          wideloop

widestore:
	TESTQ   R12, R12
	JZ      wideput
	VMOVUPD 0(DI)(R10*8), Y9
	VADDPD  Y0, Y9, Y0
	VMOVUPD 32(DI)(R10*8), Y10
	VADDPD  Y1, Y10, Y1
	VMOVUPD 64(DI)(R10*8), Y11
	VADDPD  Y2, Y11, Y2
	VMOVUPD 96(DI)(R10*8), Y12
	VADDPD  Y3, Y12, Y3
	VMOVUPD 128(DI)(R10*8), Y9
	VADDPD  Y4, Y9, Y4
	VMOVUPD 160(DI)(R10*8), Y10
	VADDPD  Y5, Y10, Y5
	VMOVUPD 192(DI)(R10*8), Y11
	VADDPD  Y6, Y11, Y6
	VMOVUPD 224(DI)(R10*8), Y12
	VADDPD  Y7, Y12, Y7

wideput:
	VMOVUPD Y0, 0(DI)(R10*8)
	VMOVUPD Y1, 32(DI)(R10*8)
	VMOVUPD Y2, 64(DI)(R10*8)
	VMOVUPD Y3, 96(DI)(R10*8)
	VMOVUPD Y4, 128(DI)(R10*8)
	VMOVUPD Y5, 160(DI)(R10*8)
	VMOVUPD Y6, 192(DI)(R10*8)
	VMOVUPD Y7, 224(DI)(R10*8)
	ADDQ    $32, R10
	JMP     wide

narrow:
	LEAQ   4(R10), AX
	CMPQ   AX, R9
	JGT    scalar
	VXORPD Y0, Y0, Y0
	LEAQ   (SI)(R10*8), R14
	XORQ   BX, BX
	TESTQ  R8, R8
	JZ     narrowstore

narrowloop:
	MOVLQSX      (DX)(BX*4), AX
	IMULQ        R13, AX
	VBROADCASTSD (CX)(BX*8), Y8
	VMULPD       (R14)(AX*1), Y8, Y9
	VADDPD       Y9, Y0, Y0
	INCQ         BX
	CMPQ         BX, R8
	JLT          narrowloop

narrowstore:
	TESTQ   R12, R12
	JZ      narrowput
	VMOVUPD (DI)(R10*8), Y9
	VADDPD  Y0, Y9, Y0

narrowput:
	VMOVUPD Y0, (DI)(R10*8)
	ADDQ    $4, R10
	JMP     narrow

scalar:
	CMPQ   R10, R9
	JGE    done
	VXORPD X0, X0, X0
	LEAQ   (SI)(R10*8), R14
	XORQ   BX, BX
	TESTQ  R8, R8
	JZ     scalarstore

scalarloop:
	MOVLQSX (DX)(BX*4), AX
	IMULQ   R13, AX
	VMOVSD  (CX)(BX*8), X8
	VMULSD  (R14)(AX*1), X8, X9
	VADDSD  X9, X0, X0
	INCQ    BX
	CMPQ    BX, R8
	JLT     scalarloop

scalarstore:
	TESTQ  R12, R12
	JZ     scalarput
	VMOVSD (DI)(R10*8), X9
	VADDSD X0, X9, X0

scalarput:
	VMOVSD X0, (DI)(R10*8)
	INCQ   R10
	JMP    scalar

done:
	VZEROUPPER
	RET

// X14 = the int32 lanes (0, 1, 2, 3).
#define LANES \
	MOVQ   $0x0000000100000000, AX; \
	VMOVQ  AX, X14; \
	MOVQ   $0x0000000300000002, AX; \
	VPINSRQ $1, AX, X14, X14

// func screenAVX2(idx *int32, val *float64, a *float64, n int, tab *[16][16]int32) int
//
// screenGeneric's list of a's nonzero entries (a != 0: NaN listed, −0 not)
// for whole vectors, n a multiple of 4: VCMPPD NEQ_UQ against zero, VMOVMSKPD
// to a 4-bit mask, and the mask's entry of tab packs the listed lanes to the
// front — VPERMD over the values' dword pairs, VPERMILPS over the indices.
// All four lanes are stored at the count, which POPCNT then advances, so a
// vector writes at most to its own last element's position.
TEXT ·screenAVX2(SB), NOSPLIT, $0-48
	MOVQ   idx+0(FP), DI
	MOVQ   val+8(FP), SI
	MOVQ   a+16(FP), DX
	MOVQ   n+24(FP), R9
	MOVQ   tab+32(FP), R8
	LANES
	MOVL   $4, AX
	VMOVD  AX, X13
	VPBROADCASTD X13, X13 // (4, 4, 4, 4)
	VXORPD Y15, Y15, Y15
	XORQ   AX, AX
	XORQ   BX, BX
	TESTQ  R9, R9
	JZ     done

	PCALIGN $64
loop:
	VMOVUPD   (DX)(AX*8), Y1
	VCMPPD    $4, Y15, Y1, Y2 // a != 0, unordered or not equal
	VMOVMSKPD Y2, R10
	SHLQ      $6, R10
	VMOVDQU   (R8)(R10*1), Y3
	VPERMD    Y1, Y3, Y1
	VMOVUPD   Y1, (SI)(BX*8)
	VPERMILPS 32(R8)(R10*1), X14, X4
	VMOVDQU   X4, (DI)(BX*4)
	SHRQ      $6, R10
	POPCNTQ   R10, R10
	ADDQ      R10, BX
	VPADDD    X13, X14, X14
	ADDQ      $4, AX
	CMPQ      AX, R9
	JLT       loop

done:
	MOVQ       BX, ret+40(FP)
	VZEROUPPER
	RET

// func screenBytesAVX2(idx *int32, val *float64, b *uint8, n int, tab *[16][16]int32) int
//
// screenBytesGeneric's list of b's nonzero bytes, as float64, for whole
// 32-byte blocks (n a multiple of 32): VPCMPEQB against zero and VPMOVMSKB
// give a block's 32-bit mask of zero bytes; its complement is walked one
// nonzero nibble at a time (BSF), lowest first, and each nibble's four bytes
// widen to doubles (VPMOVZXBD, VCVTDQ2PD) and pack through tab's entry as in
// screenAVX2. Only nibbles that list something are stored, so the stores end
// at most three entries past the count returned.
TEXT ·screenBytesAVX2(SB), NOSPLIT, $0-48
	MOVQ  idx+0(FP), DI
	MOVQ  val+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  n+24(FP), R9
	MOVQ  tab+32(FP), R8
	LANES
	VPXOR Y15, Y15, Y15
	XORQ  AX, AX
	XORQ  BX, BX
	TESTQ R9, R9
	JZ    done

	PCALIGN $64
block:
	VMOVDQU   (DX)(AX*1), Y1
	VPCMPEQB  Y15, Y1, Y2
	VPMOVMSKB Y2, R10
	NOTL      R10
	TESTL     R10, R10
	JZ        next

nibble:
	BSFL         R10, CX
	ANDL         $-4, CX          // the nibble's first byte in the block
	MOVL         R10, R11
	SHRL         CX, R11
	ANDL         $15, R11         // its lanes
	MOVL         $15, R12
	SHLL         CX, R12
	NOTL         R12
	ANDL         R12, R10         // and off the walk
	LEAQ         (AX)(CX*1), R12  // the nibble's index in b
	VPMOVZXBD    (DX)(R12*1), X3
	VCVTDQ2PD    X3, Y3
	MOVQ         R11, R13
	SHLQ         $6, R13
	VMOVDQU      (R8)(R13*1), Y4
	VPERMD       Y3, Y4, Y3
	VMOVUPD      Y3, (SI)(BX*8)
	VMOVD        R12, X5
	VPBROADCASTD X5, X5
	VPADDD       X14, X5, X5
	VPERMILPS    32(R8)(R13*1), X5, X5
	VMOVDQU      X5, (DI)(BX*4)
	POPCNTL      R11, R11
	ADDQ         R11, BX
	TESTL        R10, R10
	JNZ          nibble

next:
	ADDQ $32, AX
	CMPQ AX, R9
	JLT  block

done:
	MOVQ       BX, ret+40(FP)
	VZEROUPPER
	RET

// func countBytesAVX2(b *uint8, n int) int
//
// countBytesGeneric's count of b's nonzero bytes for whole 32-byte blocks (n
// a multiple of 32): POPCNT of each block's VPCMPEQB/VPMOVMSKB mask of
// nonzero bytes.
TEXT ·countBytesAVX2(SB), NOSPLIT, $0-24
	MOVQ  b+0(FP), DX
	MOVQ  n+8(FP), R9
	VPXOR Y15, Y15, Y15
	XORQ  AX, AX
	XORQ  BX, BX
	TESTQ R9, R9
	JZ    done

	PCALIGN $64
loop:
	VPCMPEQB  (DX)(AX*1), Y15, Y2
	VPMOVMSKB Y2, R10
	NOTL      R10
	POPCNTL   R10, R10
	ADDQ      R10, BX
	ADDQ      $32, AX
	CMPQ      AX, R9
	JLT       loop

done:
	MOVQ       BX, ret+16(FP)
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
