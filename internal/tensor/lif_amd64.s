#include "textflag.h"

// The LIF kernels, four neurons per iteration; LIFStepInto and
// LIFGradInto run the last len mod 4 in Go. Each lane does what the
// scalar loop in lif.go compiles to: the same IEEE operations with the
// same destination operand. The destination decides the payload only
// when both inputs are NaN, and there Go's compiler may choose either
// (the tests accept any NaN). A comparison becomes a lane mask instead
// of a branch, and a lane the mask leaves out subtracts +0 or XORs 0,
// which changes no value the branch would have left alone. SSE and
// SSE2 only (no POPCNT, SSE4.1 or AVX), which amd64 guarantees at
// every GOAMD64 level. Loads and stores are MOVUPS.

// func lifStepSSE(v, x, out, pre []float32, decay, vth float32) (spikes int)
//
// Per lane: vv = v·decay + x; mask = vth ≤ vv (CMPPS-LE, ordered, so
// false on NaN as Go's vv >= vth is); v = vv − (mask & vth); out =
// mask & 1; pre = out·vth + v when pre is non-empty. The spike count
// subtracts each mask (−1 per spiking lane) from four int32 lanes,
// summed once at the end, so len(x) must stay below 2³².
TEXT ·lifStepSSE(SB), NOSPLIT, $0-112
	MOVQ   v_base+0(FP), DI
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), CX
	MOVQ   out_base+48(FP), DX
	MOVQ   pre_base+72(FP), R8
	MOVQ   pre_len+80(FP), R9
	MOVSS  decay+96(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  vth+100(FP), X1
	SHUFPS $0x00, X1, X1
	MOVL   $0x3f800000, AX    // 1.0
	MOVQ   AX, X2
	SHUFPS $0x00, X2, X2
	PXOR   X3, X3             // spike counts
	SHRQ   $2, CX
	JEQ    sum

step:
	MOVUPS (DI), X4
	MULPS  X0, X4             // v·decay
	MOVUPS (SI), X5
	ADDPS  X5, X4             // vv = v·decay + x
	MOVAPS X1, X6
	CMPPS  X4, X6, $2         // mask = vth ≤ vv
	PSUBL  X6, X3
	MOVAPS X6, X7
	ANDPS  X1, X7             // vth where spiking, +0 elsewhere
	SUBPS  X7, X4             // soft reset
	ANDPS  X2, X6             // out ∈ {0, 1}
	MOVUPS X6, (DX)
	MOVUPS X4, (DI)
	TESTQ  R9, R9
	JEQ    stepnext
	MULPS  X1, X6             // out·vth
	ADDPS  X4, X6             // pre = out·vth + v
	MOVUPS X6, (R8)
	ADDQ   $16, R8

stepnext:
	ADDQ $16, DI
	ADDQ $16, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  step

sum:
	PSHUFD $0x4e, X3, X4
	PADDL  X4, X3
	PSHUFD $0xb1, X3, X4
	PADDL  X4, X3
	MOVQ   X3, AX
	MOVL   AX, AX             // the low lane, zero-extended
	MOVQ   AX, spikes+104(FP)
	RET

// func lifGradSSE(carry, grad, pre []float32, vth, beta, decay float32, first bool)
//
// Per lane: u = pre − vth; u ^= sign where u < 0 (CMPPS-LT against
// zero, then XORPS: a NaN keeps its sign, as Go's if u < 0 { u = -u }
// leaves it, where ANDPS would clear it); d = u·beta + 1; carry =
// (beta / d·d)·grad, plus carry·decay unless first.
TEXT ·lifGradSSE(SB), NOSPLIT, $0-85
	MOVQ    carry_base+0(FP), DI
	MOVQ    grad_base+24(FP), SI
	MOVQ    grad_len+32(FP), CX
	MOVQ    pre_base+48(FP), R8
	MOVSS   vth+72(FP), X0
	SHUFPS  $0x00, X0, X0
	MOVSS   beta+76(FP), X1
	SHUFPS  $0x00, X1, X1
	MOVSS   decay+80(FP), X2
	SHUFPS  $0x00, X2, X2
	MOVBLZX first+84(FP), BX
	MOVL    $0x3f800000, AX   // 1.0
	MOVQ    AX, X3
	SHUFPS  $0x00, X3, X3
	MOVL    $0x80000000, AX   // the sign bit
	MOVQ    AX, X4
	SHUFPS  $0x00, X4, X4
	XORPS   X5, X5
	SHRQ    $2, CX
	JEQ     done

grad:
	MOVUPS (R8), X6
	SUBPS  X0, X6             // u = pre − vth
	MOVAPS X6, X7
	CMPPS  X5, X7, $1         // u < 0
	ANDPS  X4, X7
	XORPS  X7, X6             // |u|
	MULPS  X1, X6             // u·beta
	ADDPS  X3, X6             // d = u·beta + 1
	MULPS  X6, X6             // d·d
	MOVAPS X1, X7
	DIVPS  X6, X7             // beta / d·d
	MOVUPS (SI), X8
	MULPS  X8, X7             // dv = surrogate·grad
	TESTB  BX, BX
	JNE    gradstore
	MOVUPS (DI), X9
	MULPS  X2, X9             // carry·decay
	ADDPS  X9, X7             // dv + carry·decay

gradstore:
	MOVUPS X7, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	ADDQ   $16, R8
	DECQ   CX
	JNZ    grad

done:
	RET
