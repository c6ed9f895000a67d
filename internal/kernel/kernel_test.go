package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"emap/internal/rng"
)

// naiveDot is the single-accumulator reference all kernels are
// compared against.
func naiveDot(a, b []float64) float64 {
	var acc float64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

// dotTol is the acceptable divergence between two summation orders of
// the same products: proportional to Σ|aᵢbᵢ|, the standard backward
// error bound.
func dotTol(a, b []float64) float64 {
	var mag float64
	for i := range a {
		mag += math.Abs(a[i] * b[i])
	}
	return 1e-12*mag + 1e-300
}

func randVec(r *rng.Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64() * 100
	}
	return out
}

// naiveDotQF is the single-accumulator reference for DotQF.
func naiveDotQF(q []float64, c []int16) float64 {
	var acc float64
	for i := range q {
		acc += q[i] * float64(c[i])
	}
	return acc
}

// widen returns c as float64, for the tolerance of a DotQF result.
func widen(c []int16) []float64 {
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = float64(v)
	}
	return out
}

func randCounts(r *rng.Source, n int) []int16 {
	out := make([]int16, n)
	for i := range out {
		out[i] = int16(r.Intn(1<<16) - 1<<15)
	}
	return out
}

// forEachPath runs f once per dispatch path this host can take: "avx2"
// when the CPU has AVX2+FMA, and always "generic", with the feature
// flag cleared so the wrappers' fallback branch is what runs.
func forEachPath(t testing.TB, f func(path string)) {
	t.Helper()
	saved := useAVX2FMA
	defer func() { useAVX2FMA = saved }()
	if saved {
		f("avx2")
	}
	useAVX2FMA = false
	f("generic")
}

// checkDot compares Dot(a, b) against the naive loop and dotGeneric.
func checkDot(t *testing.T, label string, a, b []float64) {
	t.Helper()
	want, tol := naiveDot(a, b), dotTol(a, b[:len(a)])
	got := Dot(a, b)
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: Dot(n=%d) = %g, naive = %g (tol %g)", label, len(a), got, want, tol)
	}
	if g := dotGeneric(a, b); math.Abs(got-g) > tol {
		t.Fatalf("%s: Dot(n=%d) = %g, dotGeneric = %g (tol %g)", label, len(a), got, g, tol)
	}
}

// checkDotQF compares DotQF(q, c) against the naive loop and
// dotQFGeneric.
func checkDotQF(t *testing.T, label string, q []float64, c []int16) {
	t.Helper()
	want, tol := naiveDotQF(q, c), dotTol(q, widen(c[:len(q)]))
	got := DotQF(q, c)
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: DotQF(n=%d) = %g, naive = %g (tol %g)", label, len(q), got, want, tol)
	}
	if g := dotQFGeneric(q, c); math.Abs(got-g) > tol {
		t.Fatalf("%s: DotQF(n=%d) = %g, dotQFGeneric = %g (tol %g)", label, len(q), got, g, tol)
	}
}

// TestDotKernelsMatchNaive sweeps every length through 300 on both
// dispatch paths, crossing the 16-lane loop, the 4-wide tail and the
// scalar tail at every residue.
func TestDotKernelsMatchNaive(t *testing.T) {
	forEachPath(t, func(path string) {
		r := rng.New(3)
		for n := 0; n <= 300; n++ {
			a, b := randVec(r, n), randVec(r, n)
			checkDot(t, path, a, b)
			if got, want := DotPairwise(a, b), naiveDot(a, b); math.Abs(got-want) > dotTol(a, b) {
				t.Fatalf("%s: DotPairwise(n=%d) = %g, naive = %g", path, n, got, want)
			}
			checkDotQF(t, path, a, randCounts(r, n))
		}
	})
	// Long vectors cross the pairwise recursion threshold.
	r := rng.New(4)
	for _, n := range []int{pairwiseBlock, pairwiseBlock + 1, 1000, 4096} {
		a, b := randVec(r, n), randVec(r, n)
		want := naiveDot(a, b)
		if got := DotPairwise(a, b); math.Abs(got-want) > dotTol(a, b) {
			t.Fatalf("DotPairwise(n=%d) = %g, naive = %g", n, got, want)
		}
	}
}

// TestDotUnalignedWindows: scan windows start at any sample, so the
// kernels must agree on sub-slices at every offset of a backing array.
func TestDotUnalignedWindows(t *testing.T) {
	forEachPath(t, func(path string) {
		r := rng.New(6)
		a, b, c := randVec(r, 400), randVec(r, 400), randCounts(r, 400)
		for off := 1; off <= 7; off++ {
			for _, n := range []int{16, 17, 63, 256, 301} {
				label := fmt.Sprintf("%s/off=%d", path, off)
				checkDot(t, label, a[off:off+n], b[7-off:7-off+n])
				checkDotQF(t, label, a[off:off+n], c[off:off+n])
			}
		}
	})
}

// TestDotUsesPrefixOfB: kernels contract over len(a) with a longer b.
func TestDotUsesPrefixOfB(t *testing.T) {
	forEachPath(t, func(path string) {
		r := rng.New(5)
		for _, n := range []int{13, 37, 256} {
			a, b, c := randVec(r, n), randVec(r, n+27), randCounts(r, n+27)
			checkDot(t, path, a, b)
			checkDotQF(t, path, a, c)
			if got, want := DotPairwise(a, b), naiveDot(a, b); math.Abs(got-want) > dotTol(a, b[:n]) {
				t.Fatalf("%s: DotPairwise over prefix = %g, want %g", path, got, want)
			}
		}
	})
}

// TestDotPropagatesNonFinite: a NaN or an infinity anywhere — in the
// 16-lane body, the 4-wide tail or the scalar tail — must reach the
// result exactly as it does through the naive loop.
func TestDotPropagatesNonFinite(t *testing.T) {
	const n = 16*2 + 4 + 3
	same := func(got, want float64) bool {
		return math.IsNaN(got) && math.IsNaN(want) || got == want
	}
	forEachPath(t, func(path string) {
		r := rng.New(8)
		for _, pos := range []int{0, 15, 20, 33, 35, 36, 38} {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				a, b, c := randVec(r, n), randVec(r, n), randCounts(r, n)
				for i := range c {
					if c[i] == 0 {
						c[i] = 1 // keep ∞·0 out of the expectation
					}
				}
				a[pos] = v
				if got, want := Dot(a, b), naiveDot(a, b); !same(got, want) {
					t.Fatalf("%s: Dot with %g at %d = %g, naive = %g", path, v, pos, got, want)
				}
				if got, want := DotQF(a, c), naiveDotQF(a, c); !same(got, want) {
					t.Fatalf("%s: DotQF with %g at %d = %g, naive = %g", path, v, pos, got, want)
				}
			}
		}
		// Opposite infinities cancel to NaN.
		a, b := randVec(r, n), randVec(r, n)
		a[3], b[3], a[37], b[37] = math.Inf(1), 1, math.Inf(1), -1
		if got := Dot(a, b); !math.IsNaN(got) {
			t.Fatalf("%s: Dot with +∞ and −∞ products = %g, want NaN", path, got)
		}
	})
}

// TestDotQFInt16Extremes: the sign extension must hold at both ends of
// the int16 range, in every part of the loop.
func TestDotQFInt16Extremes(t *testing.T) {
	forEachPath(t, func(path string) {
		r := rng.New(10)
		for _, n := range []int{4, 16, 39, 256} {
			q := randVec(r, n)
			for _, fill := range []func(i int) int16{
				func(int) int16 { return math.MinInt16 },
				func(int) int16 { return math.MaxInt16 },
				func(i int) int16 {
					if i%2 == 0 {
						return math.MinInt16
					}
					return math.MaxInt16
				},
			} {
				c := make([]int16, n)
				for i := range c {
					c[i] = fill(i)
				}
				checkDotQF(t, path, q, c)
			}
		}
	})
}

// FuzzDot feeds arbitrary float pairs through every kernel, on both
// dispatch paths, and requires agreement with the naive loop within
// the summation-order error bound; the second float of each pair is
// also read as int16 counts for DotQF. NaN/Inf inputs are skipped —
// ω is computed over bandpass-filtered finite samples by construction,
// and TestDotPropagatesNonFinite pins their propagation.
func FuzzDot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	seed := make([]byte, 16*33)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		a, b := make([]float64, n), make([]float64, n)
		c := make([]int16, n)
		for i := 0; i < n; i++ {
			a[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			b[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			c[i] = int16(binary.LittleEndian.Uint16(data[16*i+8:]))
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				t.Skip("non-finite input")
			}
			// Extreme magnitudes overflow the product; the scan's
			// inputs are µV-scale by construction.
			if math.Abs(a[i]) > 1e150 || math.Abs(b[i]) > 1e150 {
				t.Skip("out-of-domain magnitude")
			}
		}
		forEachPath(t, func(path string) {
			checkDot(t, path, a, b)
			checkDotQF(t, path, a, c)
			if got, want := DotPairwise(a, b), naiveDot(a, b); math.Abs(got-want) > dotTol(a, b) {
				t.Fatalf("%s: DotPairwise = %g, naive = %g (n=%d)", path, got, want, n)
			}
		})
	})
}

// TestProfilerMatchesNaiveSlidingDots: the FFT profile must equal the
// scalar sliding dot product at every offset.
func TestProfilerMatchesNaiveSlidingDots(t *testing.T) {
	e := NewEngine()
	r := rng.New(9)
	for _, tc := range []struct{ segLen, n int }{
		{10, 3}, {100, 17}, {1000, 256}, {1255, 256}, {300, 300}, {2, 2},
	} {
		seg := randVec(r, tc.segLen)
		q := randVec(r, tc.n)
		p := e.Profiler(tc.segLen)
		segSpec := make([]complex128, p.Bins())
		qSpec := make([]complex128, p.Bins())
		work := make([]complex128, p.Bins())
		profile := make([]float64, p.M())
		p.Spectrum(segSpec, seg)
		p.Spectrum(qSpec, q)
		p.Correlate(profile, segSpec, qSpec, work)
		for beta := 0; beta+tc.n <= tc.segLen; beta++ {
			want := naiveDot(q, seg[beta:beta+tc.n])
			if math.Abs(profile[beta]-want) > 1e-7*(1+math.Abs(want)) {
				t.Fatalf("segLen=%d n=%d β=%d: profile %g, naive %g", tc.segLen, tc.n, beta, profile[beta], want)
			}
		}
	}
}

// TestEngineCachesPlans: repeated profilers of one size share a plan;
// Prewarm builds ahead of first use.
func TestEngineCachesPlans(t *testing.T) {
	e := NewEngine()
	p1 := e.Profiler(1000)
	p2 := e.Profiler(1024)
	if p1.M() != 1024 || p2.M() != 1024 {
		t.Fatalf("plan sizes %d, %d, want 1024", p1.M(), p2.M())
	}
	if e.Sizes() != 1 {
		t.Fatalf("cached %d sizes, want 1", e.Sizes())
	}
	e.Prewarm(2048, 2048, 1)
	if e.Sizes() != 3 { // 1024, 2048, 2
		t.Fatalf("cached %d sizes after prewarm, want 3", e.Sizes())
	}
}

// BenchmarkKernelDot measures the scan's innermost operations — the
// 256-sample dot products behind every sparse-walk ω (Dot) and every
// quantized rescore (DotQF) — on each dispatch path: the naive
// single-accumulator loop, the unrolled Go loop ("generic"), the
// AVX2+FMA assembly ("avx2", skipped on CPUs without it) and, for Dot,
// the pairwise reference.
func BenchmarkKernelDot(b *testing.B) {
	r := rng.New(1)
	x, y, c := randVec(r, 256), randVec(r, 256), randCounts(r, 256)
	saved := useAVX2FMA
	defer func() { useAVX2FMA = saved }()
	var sink float64
	for _, bc := range []struct {
		name string
		avx2 bool
		k    func() float64
	}{
		{"Dot/naive", false, func() float64 { return naiveDot(x, y) }},
		{"Dot/generic", false, func() float64 { return Dot(x, y) }},
		{"Dot/avx2", true, func() float64 { return Dot(x, y) }},
		{"Dot/pairwise", saved, func() float64 { return DotPairwise(x, y) }}, // as the host dispatches
		{"DotQF/generic", false, func() float64 { return DotQF(x, c) }},
		{"DotQF/avx2", true, func() float64 { return DotQF(x, c) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.avx2 && !saved {
				b.Skip("CPU lacks AVX2+FMA")
			}
			useAVX2FMA = bc.avx2
			for i := 0; i < b.N; i++ {
				sink += bc.k()
			}
		})
	}
	_ = sink
}
