//go:build amd64 && !noasm

#include "textflag.h"

// PQ lookup-table fill kernels over a transposed codebook, laid out
// [m][dsub][ks]: row t of sub-space i holds dimension t of all ks
// codewords, so eight consecutive codewords are one YMM load. Like the
// scan kernels they vectorize ACROSS outputs — each lane owns one table
// entry and performs the scalar loop's float32 operations in the same
// order, dimension t = 0..dsub-1, starting from a zero accumulator:
//
//	L2: acc += (q_t - b_t[j]) * (q_t - b_t[j])   (VSUBPS, VMULPS, VADDPS)
//	IP: acc += q_t * b_t[j]                      (VMULPS, VADDPS)
//
// No FMA and no reassociation, so every entry is bit-identical to the
// per-entry scalar loop. The L2 result is negated with a sign-bit XOR,
// exactly Go's unary minus (a zero distance gives -0, as the reference).
// Each sub-space covers its first n8 entries (a multiple of 8): four
// independent 8-lane accumulators per 32-entry block hide the add
// latency, then single 8-entry blocks; the caller fills entries
// n8..ks-1 in Go.
//
// Registers: DI dst cursor, SI query cursor, DX table cursor, R8 sub-spaces
// left, R9 dsub, R10 row stride in bytes (ks*4), R11 n8 in bytes, BX entry
// offset in bytes, R12 row walker, R13 query walker, AX dimension counter,
// Y15 sign mask.

// LUTBLOCK32 runs the dimension loop for entries BX..BX+31 into Y0..Y3,
// applying STEP(offset, accumulator) per dimension.
#define LUTBLOCK32(STEP, LOOP) \
	VXORPS       Y0, Y0, Y0     \
	VXORPS       Y1, Y1, Y1     \
	VXORPS       Y2, Y2, Y2     \
	VXORPS       Y3, Y3, Y3     \
	LEAQ         (DX)(BX*1), R12 \
	MOVQ         SI, R13        \
	MOVQ         R9, AX         \
LOOP:                           \
	VBROADCASTSS (R13), Y4      \
	STEP(0, Y5, Y0)             \
	STEP(32, Y6, Y1)            \
	STEP(64, Y7, Y2)            \
	STEP(96, Y8, Y3)            \
	ADDQ         R10, R12       \
	ADDQ         $4, R13        \
	DECQ         AX             \
	JNZ          LOOP

// LUTBLOCK8 is LUTBLOCK32 for the single block BX..BX+7 into Y0.
#define LUTBLOCK8(STEP, LOOP) \
	VXORPS       Y0, Y0, Y0     \
	LEAQ         (DX)(BX*1), R12 \
	MOVQ         SI, R13        \
	MOVQ         R9, AX         \
LOOP:                           \
	VBROADCASTSS (R13), Y4      \
	STEP(0, Y5, Y0)             \
	ADDQ         R10, R12       \
	ADDQ         $4, R13        \
	DECQ         AX             \
	JNZ          LOOP

// L2STEP: ACC += (q_t - row[OFF/4..])², as sub, mul, add.
#define L2STEP(OFF, T, ACC) \
	VSUBPS OFF(R12), Y4, T \
	VMULPS T, T, T         \
	VADDPS T, ACC, ACC

// IPSTEP: ACC += q_t * row[OFF/4..], as mul, add.
#define IPSTEP(OFF, T, ACC) \
	VMULPS OFF(R12), Y4, T \
	VADDPS T, ACC, ACC

// LUTPROLOGUE loads the arguments; both kernels share the frame layout.
#define LUTPROLOGUE \
	MOVQ dst+0(FP), DI   \
	MOVQ q+8(FP), SI     \
	MOVQ tab+16(FP), DX  \
	MOVQ m+24(FP), R8    \
	MOVQ dsub+32(FP), R9 \
	MOVQ ks+40(FP), R10  \
	SHLQ $2, R10         \
	MOVQ n8+48(FP), R11  \
	SHLQ $2, R11

// LUTNEXT advances the cursors to the next sub-space: q by dsub floats,
// the table by dsub rows, dst by one table.
#define LUTNEXT \
	MOVQ  R9, AX   \
	SHLQ  $2, AX   \
	ADDQ  AX, SI   \
	MOVQ  R9, AX   \
	IMULQ R10, AX  \
	ADDQ  AX, DX   \
	ADDQ  R10, DI  \
	DECQ  R8

// func lutL2Asm(dst, q, tab *float32, m, dsub, ks, n8 int)
TEXT ·lutL2Asm(SB), NOSPLIT, $0-56
	LUTPROLOGUE
	VPCMPEQD Y15, Y15, Y15
	VPSLLD   $31, Y15, Y15

l2sub:
	XORQ BX, BX

l2blk32:
	LEAQ 128(BX), AX
	CMPQ AX, R11
	JGT  l2blk8
	LUTBLOCK32(L2STEP, l2dim32)
	VXORPS  Y15, Y0, Y0
	VXORPS  Y15, Y1, Y1
	VXORPS  Y15, Y2, Y2
	VXORPS  Y15, Y3, Y3
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     l2blk32

l2blk8:
	CMPQ BX, R11
	JGE  l2next
	LUTBLOCK8(L2STEP, l2dim8)
	VXORPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     l2blk8

l2next:
	LUTNEXT
	JNZ l2sub
	VZEROUPPER
	RET

// func lutIPAsm(dst, q, tab *float32, m, dsub, ks, n8 int)
TEXT ·lutIPAsm(SB), NOSPLIT, $0-56
	LUTPROLOGUE

ipsub:
	XORQ BX, BX

ipblk32:
	LEAQ 128(BX), AX
	CMPQ AX, R11
	JGT  ipblk8
	LUTBLOCK32(IPSTEP, ipdim32)
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     ipblk32

ipblk8:
	CMPQ BX, R11
	JGE  ipnext
	LUTBLOCK8(IPSTEP, ipdim8)
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     ipblk8

ipnext:
	LUTNEXT
	JNZ ipsub
	VZEROUPPER
	RET
