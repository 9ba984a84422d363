#include "textflag.h"

// func addIntoAVX2(dst, src *float64, n int)
//
// dst[i] += src[i] for i in [0, n). One VADDPD per 4 doubles, elements in
// ascending index order, no FMA: every element sees exactly one IEEE-754
// addition, so the result is bit-identical to the scalar loop.
TEXT ·addIntoAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   tail4

blk16:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    DX
	JNZ     blk16

tail4:
	ANDQ $15, CX
	JZ   done
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   tail1

blk4:
	VMOVUPD (SI), Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     blk4

tail1:
	ANDQ $3, CX
	JZ   done

scalar:
	VMOVSD (SI), X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    scalar

done:
	VZEROUPPER
	RET

// func mulAddIntoAVX2(dst, src *float64, alpha float64, n int)
//
// dst[i] += alpha*src[i] for i in [0, n). Each element is one VMULPD
// rounding followed by one VADDPD rounding — deliberately NOT VFMADD — so
// the result is bit-identical to the generic two-step scalar loop.
TEXT ·mulAddIntoAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD alpha+16(FP), Y15
	MOVQ         n+24(FP), CX
	MOVQ         CX, DX
	SHRQ         $4, DX
	JZ           matail4

mablk16:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y15, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    DX
	JNZ     mablk16

matail4:
	ANDQ $15, CX
	JZ   madone
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   matail1

mablk4:
	VMOVUPD (SI), Y0
	VMULPD  Y15, Y0, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     mablk4

matail1:
	ANDQ $3, CX
	JZ   madone

mascalar:
	VMOVSD (SI), X0
	VMULSD X15, X0, X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    mascalar

madone:
	VZEROUPPER
	RET

// func addSumIntoAVX2(dst, a, b *float64, n int)
//
// dst[i] += a[i] + b[i] for i in [0, n). Each element is one VADDPD of a
// and b, rounded, then one VADDPD into dst, so the result is bit-identical
// to the generic two-step loop.
TEXT ·addSumIntoAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   astail4

asblk16:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VADDPD  (BX), Y0, Y0
	VADDPD  32(BX), Y1, Y1
	VADDPD  64(BX), Y2, Y2
	VADDPD  96(BX), Y3, Y3
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, BX
	ADDQ    $128, DI
	DECQ    DX
	JNZ     asblk16

astail4:
	ANDQ $15, CX
	JZ   asdone
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   astail1

asblk4:
	VMOVUPD (SI), Y0
	VADDPD  (BX), Y0, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	DECQ    DX
	JNZ     asblk4

astail1:
	ANDQ $3, CX
	JZ   asdone

asscalar:
	VMOVSD (SI), X0
	VADDSD (BX), X0, X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    asscalar

asdone:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
