#include "textflag.h"

// The AVX2 scan kernels declared in kernels_amd64.go. Every lane runs
// the IEEE operations of the Go loop it stands in for, on the same
// operands and in the same order, with no fused multiply-add: a
// difference q - p per coordinate, its square, and the block sum added
// in coordinate order. A count lane counts on the unordered
// not-greater-than predicate (VCMPPD $0x1a, true for a NaN sum, as
// !(s > r) is); a screen rejects on the ordered greater-than predicate
// (VCMPPD $0x1e, false for a NaN sum, as s > bound is).

// func count2AVX2(q0, q1 float64, pts []float64, r float64) int
TEXT ·count2AVX2(SB), NOSPLIT, $0-56
	MOVQ         pts_base+16(FP), SI
	MOVQ         pts_len+24(FP), CX
	VBROADCASTSD q0+0(FP), Y4
	VBROADCASTSD q1+8(FP), Y5
	VBROADCASTSD r+40(FP), Y6
	XORQ         AX, AX
	SHRQ         $3, CX            // steps of four 2-D rows
	JZ           count2done

count2loop:
	VMOVUPD   (SI), Y0             // x0 y0 x1 y1
	VMOVUPD   32(SI), Y1           // x2 y2 x3 y3
	VUNPCKLPD Y1, Y0, Y2           // x0 x2 x1 x3
	VUNPCKHPD Y1, Y0, Y3           // y0 y2 y1 y3
	VSUBPD    Y2, Y4, Y2           // d0 = q0 - x
	VSUBPD    Y3, Y5, Y3           // d1 = q1 - y
	VMULPD    Y2, Y2, Y2           // s = d0 * d0
	VMULPD    Y3, Y3, Y3
	VADDPD    Y3, Y2, Y2           // s += d1 * d1
	VCMPPD    $0x1a, Y6, Y2, Y2    // !(s > r)
	VMOVMSKPD Y2, DX
	POPCNTL   DX, DX
	ADDQ      DX, AX
	ADDQ      $64, SI
	DECQ      CX
	JNZ       count2loop

count2done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func countRowsAVX2(q, pts []float64, r float64) int
TEXT ·countRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ         q_base+0(FP), DI
	MOVQ         q_len+8(FP), DX
	MOVQ         pts_base+24(FP), SI
	MOVQ         pts_len+32(FP), CX
	VBROADCASTSD r+48(FP), Y7
	XORQ         AX, AX
	TESTQ        DX, DX
	JZ           rowsdone
	SHLQ         $3, DX            // row stride in bytes
	SHLQ         $3, CX            // bytes left
	LEAQ         (DX)(DX*2), R8    // three strides
	MOVQ         DX, R9
	SHLQ         $2, R9            // four strides: one step
	MOVQ         DX, R10
	ANDQ         $-16, R10         // bytes of the coordinate pairs

rowsstep:
	CMPQ   CX, R9
	JB     rowsdone
	VXORPD Y6, Y6, Y6              // four sums from +0
	XORQ   BX, BX                  // byte offset of coordinate c
	TESTQ  R10, R10
	JZ     rowsodd

rowspair:
	LEAQ         (SI)(BX*1), R11
	VMOVUPD      (R11), X0                    // rows 0, 2: coordinates c, c+1
	VINSERTF128  $1, (R11)(DX*2), Y0, Y0
	VMOVUPD      (R11)(DX*1), X1              // rows 1, 3
	VINSERTF128  $1, (R11)(R8*1), Y1, Y1
	VUNPCKLPD    Y1, Y0, Y2                   // coordinate c of rows 0..3
	VUNPCKHPD    Y1, Y0, Y3                   // coordinate c+1
	VBROADCASTSD (DI)(BX*1), Y4
	VBROADCASTSD 8(DI)(BX*1), Y5
	VSUBPD       Y2, Y4, Y2                   // d = q - p
	VSUBPD       Y3, Y5, Y3
	VMULPD       Y2, Y2, Y2
	VMULPD       Y3, Y3, Y3
	VADDPD       Y2, Y6, Y6                   // s += d * d, coordinate c
	VADDPD       Y3, Y6, Y6                   // then c+1
	ADDQ         $16, BX
	CMPQ         BX, R10
	JB           rowspair

rowsodd:
	CMPQ         BX, DX
	JAE          rowstest
	LEAQ         (SI)(BX*1), R11
	VMOVSD       (R11), X0                    // the last coordinate of rows 0..3
	VMOVHPD      (R11)(DX*1), X0, X0
	VMOVSD       (R11)(DX*2), X1
	VMOVHPD      (R11)(R8*1), X1, X1
	VINSERTF128  $1, X1, Y0, Y0
	VBROADCASTSD (DI)(BX*1), Y4
	VSUBPD       Y0, Y4, Y0
	VMULPD       Y0, Y0, Y0
	VADDPD       Y0, Y6, Y6

rowstest:
	VCMPPD    $0x1a, Y7, Y6, Y6    // !(s > r)
	VMOVMSKPD Y6, R11
	POPCNTL   R11, R11
	ADDQ      R11, AX
	ADDQ      R9, SI
	SUBQ      R9, CX
	JMP       rowsstep

rowsdone:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET

// func nextPairsAVX2(q, pts []float64, bound float64) int
TEXT ·nextPairsAVX2(SB), NOSPLIT, $0-64
	MOVQ         q_base+0(FP), DI
	MOVQ         q_len+8(FP), DX
	MOVQ         pts_base+24(FP), SI
	MOVQ         pts_len+32(FP), CX
	VBROADCASTSD bound+48(FP), Y7
	XORQ         AX, AX            // rows passed over
	TESTQ        DX, DX
	JZ           pairsdone
	MOVQ         DX, R8
	ANDQ         $-16, R8          // coordinates in steps of eight blocks
	MOVQ         DX, R9
	ANDQ         $14, R9           // then 0 to 14 coordinates
	SHLQ         $3, DX            // row stride in bytes
	SHLQ         $3, R8
	SHLQ         $3, CX            // bytes left

pairsrow:
	CMPQ  CX, DX
	JB    pairsdone
	XORQ  BX, BX                   // byte offset within the row
	TESTQ R8, R8
	JZ    pairsquad

pairsoct:
	VMOVUPD   (DI)(BX*1), Y0
	VMOVUPD   32(DI)(BX*1), Y1
	VMOVUPD   64(DI)(BX*1), Y2
	VMOVUPD   96(DI)(BX*1), Y3
	VSUBPD    (SI)(BX*1), Y0, Y0   // d = q - p
	VSUBPD    32(SI)(BX*1), Y1, Y1
	VSUBPD    64(SI)(BX*1), Y2, Y2
	VSUBPD    96(SI)(BX*1), Y3, Y3
	VMULPD    Y0, Y0, Y0
	VMULPD    Y1, Y1, Y1
	VMULPD    Y2, Y2, Y2
	VMULPD    Y3, Y3, Y3
	VHADDPD   Y1, Y0, Y0           // s = d0 * d0 + d1 * d1, four blocks
	VHADDPD   Y3, Y2, Y2           // and four more
	VCMPPD    $0x1e, Y7, Y0, Y0    // s > bound
	VCMPPD    $0x1e, Y7, Y2, Y2
	VORPD     Y2, Y0, Y0
	VMOVMSKPD Y0, R10
	TESTL     R10, R10
	JNZ       pairsreject
	ADDQ      $128, BX
	CMPQ      BX, R8
	JB        pairsoct

pairsquad:
	TESTQ     $8, R9
	JZ        pairstail
	VMOVUPD   (DI)(BX*1), Y0
	VMOVUPD   32(DI)(BX*1), Y1
	VSUBPD    (SI)(BX*1), Y0, Y0
	VSUBPD    32(SI)(BX*1), Y1, Y1
	VMULPD    Y0, Y0, Y0
	VMULPD    Y1, Y1, Y1
	VHADDPD   Y1, Y0, Y0
	VCMPPD    $0x1e, Y7, Y0, Y0
	VMOVMSKPD Y0, R10
	TESTL     R10, R10
	JNZ       pairsreject
	ADDQ      $64, BX

pairstail:
	TESTQ     $4, R9
	JZ        pairstail2
	VMOVUPD   (DI)(BX*1), Y0
	VSUBPD    (SI)(BX*1), Y0, Y0
	VMULPD    Y0, Y0, Y0
	VHADDPD   Y0, Y0, Y0
	VCMPPD    $0x1e, Y7, Y0, Y0
	VMOVMSKPD Y0, R10
	TESTL     R10, R10
	JNZ       pairsreject
	ADDQ      $32, BX

pairstail2:
	TESTQ     $2, R9
	JZ        pairsdone
	VMOVUPD   (DI)(BX*1), X0
	VSUBPD    (SI)(BX*1), X0, X0
	VMULPD    X0, X0, X0
	VHADDPD   X0, X0, X0
	VCMPPD    $0x1e, X7, X0, X0
	VMOVMSKPD X0, R10
	TESTL     R10, R10
	JZ        pairsdone

pairsreject:
	ADDQ DX, SI
	SUBQ DX, CX
	INCQ AX
	JMP  pairsrow

pairsdone:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
