package kernel

// Quantized kernel: the compressed-domain arithmetic of the tiered MDB
// store (internal/mdb). Warm/cold records hold int16 counts on a
// per-record scale, so the stored side of the ω numerator is read as
// int16 — a quarter of the memory traffic of the float64 path, which
// is what the scan is bound by.

// dotQFGeneric is the portable DotQF: Σ q[i]·float64(c[i]) over len(q)
// elements (len(c) must be at least len(q)), 8-way unrolled like
// dotGeneric.
func dotQFGeneric(q []float64, c []int16) float64 {
	n := len(q)
	c = c[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += q[i]*float64(c[i]) + q[i+4]*float64(c[i+4])
		s1 += q[i+1]*float64(c[i+1]) + q[i+5]*float64(c[i+5])
		s2 += q[i+2]*float64(c[i+2]) + q[i+6]*float64(c[i+6])
		s3 += q[i+3]*float64(c[i+3]) + q[i+7]*float64(c[i+7])
	}
	for ; i < n; i++ {
		s0 += q[i] * float64(c[i])
	}
	return (s0 + s1) + (s2 + s3)
}
