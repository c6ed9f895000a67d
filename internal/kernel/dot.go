// Package kernel is the correlation kernel engine under the cloud
// search: the innermost arithmetic of the whole system. The paper's
// cloud tier is one operation repeated billions of times — the
// normalized cross-correlation ω of a z-normalized query against every
// offset of every stored signal-set — and this package supplies the
// two ways to compute it fast:
//
//   - dot products (Dot, DotPairwise) for the sparse skip walk, where
//     Algorithm 1 touches only a fraction of offsets — AVX2+FMA
//     assembly on amd64 CPUs that have it, an unrolled Go loop
//     elsewhere;
//   - an FFT profiler (Engine, Profiler) that computes a signal-set's
//     FULL ω numerator profile in O(L log L) — one cached-plan real
//     transform of the stored region, one per unique query, one
//     multiply + inverse per pair — for the exhaustive baseline and
//     for dense stretches of the skip walk.
//
// The search layer (internal/search) decides per set and per query
// which kernel runs; this package only does arithmetic and caches FFT
// plans per size.
package kernel

// useAVX2FMA routes Dot and DotQF to the AVX2+FMA kernels. It is set
// once at package init, on amd64 CPUs whose OS saves the YMM state
// (dot_amd64.go), and stays false everywhere else. The equivalence
// tests clear it to pin the generic path on vector-capable hosts.
var useAVX2FMA bool

// vecMin is the shortest vector handed to the assembly kernels:
// anything shorter never reaches their 16-lane loop, so the Go loop
// serves it.
const vecMin = 16

// dotGeneric is the portable Dot: Σ a[i]·b[i] over len(a) elements
// (len(b) must be at least len(a)). The loop is 8-way unrolled over
// four independent accumulators, which both feeds the CPU's FMA ports
// and — by splitting the sum into four interleaved sub-sums — already
// tightens the worst-case rounding error versus a single running sum.
func dotGeneric(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += a[i]*b[i] + a[i+4]*b[i+4]
		s1 += a[i+1]*b[i+1] + a[i+5]*b[i+5]
		s2 += a[i+2]*b[i+2] + a[i+6]*b[i+6]
		s3 += a[i+3]*b[i+3] + a[i+7]*b[i+7]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// DotPairwise returns Σ a[i]·b[i] with pairwise (cascade) summation:
// the products are reduced as a balanced binary tree of block sums, so
// the rounding error grows as O(log n) instead of the O(n) of a
// running sum. It is the error-budget reference the faster kernels are
// tested against, and the right choice when a caller accumulates over
// very long windows.
func DotPairwise(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	return pairwise(a, b, n)
}

// pairwiseBlock is the base-case size below which a straight unrolled
// dot is used; 128 doubles keeps the recursion shallow while the
// per-block error stays tiny.
const pairwiseBlock = 128

func pairwise(a, b []float64, n int) float64 {
	if n <= pairwiseBlock {
		return Dot(a[:n], b)
	}
	half := n / 2
	return pairwise(a[:half], b[:half], half) + pairwise(a[half:n], b[half:n], n-half)
}
