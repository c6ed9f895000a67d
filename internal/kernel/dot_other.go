//go:build !amd64

package kernel

// Dot returns Σ a[i]·b[i] over len(a) elements (len(b) must be at
// least len(a)).
func Dot(a, b []float64) float64 { return dotGeneric(a, b) }

// DotQF returns Σ q[i]·float64(c[i]) over len(q) elements (len(c) must
// be at least len(q)); see the amd64 wrapper for its contract.
func DotQF(q []float64, c []int16) float64 { return dotQFGeneric(q, c) }
