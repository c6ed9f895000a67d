package kernel

// The amd64 kernels live in dot_amd64.s: AVX2 loads with FMA
// multiply-adds into four 4-lane accumulators, 16 elements per
// iteration, then a 4-wide and a scalar tail. The wrappers below keep
// the slice contracts (and their bounds checks) in Go and hand the
// assembly a length it can trust.

func init() { useAVX2FMA = cpuHasAVX2FMA() }

// Dot returns Σ a[i]·b[i] over len(a) elements (len(b) must be at
// least len(a)).
func Dot(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	if useAVX2FMA && n >= vecMin {
		return dotAVX2(a, b)
	}
	return dotGeneric(a, b)
}

// DotQF returns Σ q[i]·float64(c[i]) over len(q) elements (len(c) must
// be at least len(q)): the mixed-domain dot the quantized search path
// uses for exact rescoring — the float query against the stored
// counts, with the record scale folded in by the caller. Multiplying
// by the scale AFTER the sum keeps the result bit-identical to
// Dot(q, dequantize(c))·1 only up to reassociation, so the caller
// treats it as its own kernel, not as a float-path replay.
func DotQF(q []float64, c []int16) float64 {
	n := len(q)
	c = c[:n]
	if useAVX2FMA && n >= vecMin {
		return dotQFAVX2(q, c)
	}
	return dotQFGeneric(q, c)
}

// cpuHasAVX2FMA reports whether the CPU implements AVX, AVX2 and FMA
// and the OS saves the YMM registers across context switches (OSXSAVE
// set and XCR0 enabling both the SSE and the AVX state).
func cpuHasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// The assembly kernels require len(b) == len(a) (resp. len(c) ==
// len(q)); the wrappers guarantee it.

//go:noescape
func dotAVX2(a, b []float64) float64

//go:noescape
func dotQFAVX2(q []float64, c []int16) float64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
