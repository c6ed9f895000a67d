#include "textflag.h"

// func dotAVX2(a, b []float64) float64
//
// Four YMM accumulators (Y0–Y3) take 16 products per iteration, so four
// independent FMA chains hide the multiply-add latency; a 4-wide tail
// feeds Y0, the accumulators reduce to one lane, and a scalar tail
// finishes the last len%4 elements.
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ CX, $16
	JL   dot_tail4

dot_loop16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	SUBQ        $16, CX
	CMPQ        CX, $16
	JGE         dot_loop16

dot_tail4:
	CMPQ        CX, $4
	JL          dot_reduce
	VMOVUPD     (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $4, CX
	JMP         dot_tail4

dot_reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0

dot_tail1:
	TESTQ       CX, CX
	JE          dot_done
	VMOVSD      (SI), X1
	VFMADD231SD (DI), X1, X0
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JMP         dot_tail1

dot_done:
	VZEROUPPER
	VMOVSD X0, ret+48(FP)
	RET

// func dotQFAVX2(q []float64, c []int16) float64
//
// The same accumulator layout as dotAVX2; each group of four counts is
// sign-extended to int32 (VPMOVSXWD) and converted to float64
// (VCVTDQ2PD) before the FMA. Both conversions are exact, so only the
// summation order differs from the Go loop.
TEXT ·dotQFAVX2(SB), NOSPLIT, $0-56
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ c_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ CX, $16
	JL   qf_tail4

qf_loop16:
	VPMOVSXWD   (DI), X4
	VPMOVSXWD   8(DI), X5
	VPMOVSXWD   16(DI), X6
	VPMOVSXWD   24(DI), X7
	VCVTDQ2PD   X4, Y4
	VCVTDQ2PD   X5, Y5
	VCVTDQ2PD   X6, Y6
	VCVTDQ2PD   X7, Y7
	VFMADD231PD (SI), Y4, Y0
	VFMADD231PD 32(SI), Y5, Y1
	VFMADD231PD 64(SI), Y6, Y2
	VFMADD231PD 96(SI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $32, DI
	SUBQ        $16, CX
	CMPQ        CX, $16
	JGE         qf_loop16

qf_tail4:
	CMPQ        CX, $4
	JL          qf_reduce
	VPMOVSXWD   (DI), X4
	VCVTDQ2PD   X4, Y4
	VFMADD231PD (SI), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $8, DI
	SUBQ        $4, CX
	JMP         qf_tail4

qf_reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0

qf_tail1:
	TESTQ       CX, CX
	JE          qf_done
	MOVWLSX     (DI), AX
	VCVTSI2SDL  AX, X1, X1
	VFMADD231SD (SI), X1, X0
	ADDQ        $8, SI
	ADDQ        $2, DI
	DECQ        CX
	JMP         qf_tail1

qf_done:
	VZEROUPPER
	VMOVSD X0, ret+48(FP)
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
//
// Reads XCR0. Executed only after CPUID reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
