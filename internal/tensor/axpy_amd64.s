#include "textflag.h"

// func axpySSE(a float32, x, y []float32)
//
// y[i] += a·x[i], eight lanes per iteration as two 4-lane vectors, then
// one 4-lane vector, then a scalar tail. Every lane computes x·a with
// MULPS and then (x·a)+y with ADDPS, the operand order of Go's scalar
// MULSS/ADDSS code for y[i] += a*x[i], so even NaN payloads match it.
// Loads are MOVUPS (no alignment needed); SSE only, which amd64
// guarantees at every GOAMD64 level.
TEXT ·axpySSE(SB), NOSPLIT, $0-56
	MOVSS  a+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI
	CMPQ   CX, $8
	JLT    vec4

loop8:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	ADDPS  X3, X1
	ADDPS  X4, X2
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $8, CX
	CMPQ   CX, $8
	JGE    loop8

vec4:
	CMPQ   CX, $4
	JLT    tail
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X3
	ADDPS  X3, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX

tail:
	TESTQ CX, CX
	JEQ   done

loop1:
	MOVSS (SI), X1
	MULSS X0, X1
	ADDSS (DI), X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   loop1

done:
	RET
