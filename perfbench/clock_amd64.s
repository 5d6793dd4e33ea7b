#include "textflag.h"

// func rdtsc() int64
//
// LFENCE keeps the counter read from running ahead of earlier loads, so a
// cache miss inside a span is charged to that span and not to the next one.
TEXT ·rdtsc(SB),NOSPLIT,$0-8
	LFENCE
	RDTSC
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET
