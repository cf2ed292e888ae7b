//go:build amd64 && !purego

#include "textflag.h"

// AVX2 forms of the loops in kernels_generic.go. The contract (DESIGN.md §15):
// a lane is one output element's one accumulator, lanes run across the output
// index only, and every lane evaluates the generic loop's expression tree in
// its association — packed and scalar IEEE multiply, add, subtract, divide and
// square root round identically, and nothing here fuses a multiply into an
// add (repolint.FusedMultiplyAdd). The elementwise routines take pointers
// their Go wrapper has bounds-checked against n, run whole 4-lane vectors to
// n&^3 (the sums of squares: whole blocks of 16 to n&^15, in four
// accumulators), finish the rest with the scalar forms of the same
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

// func gatherAVX2(c *float64, n int, b *float64, idx *int32, val *float64, cnt int)
//
// gatherGeneric's sum for every column j of c: c[j] = ((+0 + val[0]·B[idx[0], j])
// + val[1]·B[idx[1], j]) + … over the cnt survivors in list order, B being
// row-major with n columns. The columns go 32 at a time, eight accumulators
// Y0–Y7 held in registers across the whole list and stored once; then
// 4-lane strips in Y0; then one column at a time in X0. Each step of the wide loop prefetches the strip of the row
// GATHER_AHEAD survivors on (the last survivor's near the end of the list).
#define GATHER_AHEAD 6

// Y(acc) += Y8·B[row AX, strip column off/8].
#define GTERM(off, acc, tmp) \
	VMULPD off(AX), Y8, tmp; \
	VADDPD tmp, acc, acc

TEXT ·gatherAVX2(SB), NOSPLIT, $0-48
	MOVQ    c+0(FP), DI
	MOVQ    n+8(FP), R9
	MOVQ    b+16(FP), SI
	MOVQ    idx+24(FP), DX
	MOVQ    val+32(FP), CX
	MOVQ    cnt+40(FP), R8
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
	JZ     wideput

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
	JZ     narrowput

narrowloop:
	MOVLQSX      (DX)(BX*4), AX
	IMULQ        R13, AX
	VBROADCASTSD (CX)(BX*8), Y8
	VMULPD       (R14)(AX*1), Y8, Y9
	VADDPD       Y9, Y0, Y0
	INCQ         BX
	CMPQ         BX, R8
	JLT          narrowloop

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
	JZ     scalarput

scalarloop:
	MOVLQSX (DX)(BX*4), AX
	IMULQ   R13, AX
	VMOVSD  (CX)(BX*8), X8
	VMULSD  (R14)(AX*1), X8, X9
	VADDSD  X9, X0, X0
	INCQ    BX
	CMPQ    BX, R8
	JLT     scalarloop

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

// func keepPositiveAVX2(dst, val, ref *float64, n int)
//
// Per lane, keepPositiveGeneric's choice with no branch: the ordered
// compare ref > 0 (false for NaN) is a mask of all ones or all zeros, and
// val AND mask is val's bits or +0.
TEXT ·keepPositiveAVX2(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   val+8(FP), SI
	MOVQ   ref+16(FP), DX
	MOVQ   n+24(FP), R9
	VXORPD Y15, Y15, Y15
	VECTORS(R9)
	JZ     tail

	PCALIGN $64
loop:
	VMOVUPD (DX)(AX*8), Y1
	VCMPPD  $0x1e, Y15, Y1, Y1 // ref > 0, ordered
	VANDPD  (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     loop

tail:
	CMPQ AX, R9
	JGE  done

tail1:
	VMOVSD (DX)(AX*8), X1
	VCMPSD $0x1e, X15, X1, X1
	VMOVSD (SI)(AX*8), X2
	VANDPD X2, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VZEROUPPER
	RET

// func adamUpdateAVX2(value, grad, m, v *float64, n int, k *AdamCoef)
//
// Per lane, adamUpdateGeneric's body:
//	g     = grad + decay·value
//	m     = β1·m + (1−β1)·g
//	v     = β2·v + ((1−β2)·g)·g
//	value = value − (s·m) / (√(v·c) + ε)
// with s = η/(1−β1ᵗ) and c = 1/(1−β2ᵗ) from the caller: one VDIVPD and one
// VSQRTPD per four parameters, and no dependence between vectors.
TEXT ·adamUpdateAVX2(SB), NOSPLIT, $0-48
	MOVQ         value+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), DX
	MOVQ         v+24(FP), CX
	MOVQ         n+32(FP), R9
	MOVQ         k+40(FP), R8
	VBROADCASTSD 0(R8), Y15  // Decay
	VBROADCASTSD 8(R8), Y14  // Beta1
	VBROADCASTSD 16(R8), Y13 // OneMinusBeta1
	VBROADCASTSD 24(R8), Y12 // Beta2
	VBROADCASTSD 32(R8), Y11 // OneMinusBeta2
	VBROADCASTSD 40(R8), Y10 // StepSize
	VBROADCASTSD 48(R8), Y9  // InvBiasCorr2
	VBROADCASTSD 56(R8), Y8  // Eps
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
	VMULPD  Y2, Y10, Y2        // s·m
	VMULPD  Y9, Y4, Y4         // v·c
	VSQRTPD Y4, Y4
	VADDPD  Y8, Y4, Y4
	VDIVPD  Y4, Y2, Y2
	VSUBPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
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
	VMULSD  X2, X10, X2
	VMULSD  X9, X4, X4
	VSQRTSD X4, X4, X4
	VADDSD  X8, X4, X4
	VDIVSD  X4, X2, X2
	VSUBSD  X2, X0, X0
	VMOVSD  X0, (DI)(AX*8)
	INCQ    AX
	CMPQ    AX, R9
	JLT     tail1

done:
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

// JOIN(a0, a1, a2, a3) leaves in the low lane of X-form a0 the sixteen
// lanes of four accumulators joined as joinLanes does: (a0 + a2) + (a1 + a3)
// lane by lane, then lanes (0+2) + (1+3). It overwrites a1 and a2.
#define JOIN(a0, a1, a2, a3, x0, x1) \
	VADDPD       a2, a0, a0; \
	VADDPD       a3, a1, a1; \
	VADDPD       a1, a0, a0; \
	VEXTRACTF128 $1, a0, x1; \
	VADDPD       x1, x0, x0; \
	VUNPCKHPD    x0, x0, x1; \
	VADDSD       x1, x0, x0

// func sumSquaresAVX2(x *float64, n int) float64
//
// sumSquaresGeneric's sum: four accumulators Y6–Y9 of four lanes, lane j of
// accumulator a summing x[16i+4a+j]² over the whole blocks of 16. They join
// as (Y6 + Y8) + (Y7 + Y9), its lanes as (0+2) + (1+3), and the last 0–15
// elements add in one at a time.
TEXT ·sumSquaresAVX2(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), R9
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	XORQ   AX, AX
	MOVQ   R9, R10
	ANDQ   $-16, R10
	JZ     join

	PCALIGN $64
loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VMULPD  Y0, Y0, Y0
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VMULPD  Y3, Y3, Y3
	VADDPD  Y0, Y6, Y6
	VADDPD  Y1, Y7, Y7
	VADDPD  Y2, Y8, Y8
	VADDPD  Y3, Y9, Y9
	ADDQ    $16, AX
	CMPQ    AX, R10
	JLT     loop

join:
	JOIN(Y6, Y7, Y8, Y9, X6, X7)
	CMPQ AX, R9
	JGE  done

tail1:
	VMOVSD (DI)(AX*8), X1
	VMULSD X1, X1, X1
	VADDSD X1, X6, X6
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VMOVSD     X6, ret+16(FP)
	VZEROUPPER
	RET

// func decaySumSquaresAVX2(grad, value *float64, n int, decay float64) (decayed, values float64)
//
// decaySumSquaresGeneric's two sums from one read of grad and value, writing
// nothing: per lane, g = grad + decay·value, then the lane's decayed sum +=
// g² and its value sum += value². Each sum keeps sumSquaresAVX2's four
// accumulators — Y6–Y9 for the decayed, Y10–Y13 for the values — joins as
// it does, and takes the last 0–15 elements one at a time.
TEXT ·decaySumSquaresAVX2(SB), NOSPLIT, $0-48
	MOVQ         grad+0(FP), DI
	MOVQ         value+8(FP), SI
	MOVQ         n+16(FP), R9
	VBROADCASTSD decay+24(FP), Y15
	VXORPD       Y6, Y6, Y6
	VXORPD       Y7, Y7, Y7
	VXORPD       Y8, Y8, Y8
	VXORPD       Y9, Y9, Y9
	VXORPD       Y10, Y10, Y10
	VXORPD       Y11, Y11, Y11
	VXORPD       Y12, Y12, Y12
	VXORPD       Y13, Y13, Y13
	XORQ         AX, AX
	MOVQ         R9, R10
	ANDQ         $-16, R10
	JZ           join

// DTERM(off, gacc, vacc): the vector at element AX + off/8.
#define DTERM(off, gacc, vacc) \
	VMOVUPD off(SI)(AX*8), Y0; \
	VMULPD  Y0, Y15, Y1; \
	VADDPD  off(DI)(AX*8), Y1, Y1; \
	VMULPD  Y1, Y1, Y1; \
	VADDPD  Y1, gacc, gacc; \
	VMULPD  Y0, Y0, Y0; \
	VADDPD  Y0, vacc, vacc

	PCALIGN $64
loop:
	DTERM(0, Y6, Y10)
	DTERM(32, Y7, Y11)
	DTERM(64, Y8, Y12)
	DTERM(96, Y9, Y13)
	ADDQ $16, AX
	CMPQ AX, R10
	JLT  loop

join:
	JOIN(Y6, Y7, Y8, Y9, X6, X7)
	JOIN(Y10, Y11, Y12, Y13, X10, X11)
	CMPQ AX, R9
	JGE  done

tail1:
	VMOVSD (SI)(AX*8), X0
	VMULSD X0, X15, X1
	VADDSD (DI)(AX*8), X1, X1
	VMULSD X1, X1, X1
	VADDSD X1, X6, X6
	VMULSD X0, X0, X0
	VADDSD X0, X10, X10
	INCQ   AX
	CMPQ   AX, R9
	JLT    tail1

done:
	VMOVSD     X6, decayed+32(FP)
	VMOVSD     X10, values+40(FP)
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
