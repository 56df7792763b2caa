// Package vecmath provides the dense float32 vector kernels used across
// the ANNA reproduction: inner products, squared L2 distances, norms, and
// batched variants of each. These are the primitives both the software
// ANNS reference and the accelerator's functional datapath are built on.
//
// On amd64 with AVX2+FMA the reduction kernels dispatch to the assembly
// in internal/simd (see simd.go in this package for the dispatch policy
// and the accuracy contract of each kernel class).
package vecmath

import (
	"math"

	"anna/internal/simd"
)

// Dot returns the inner product of a and b. It panics if the lengths
// differ. With SIMD enabled, vectors of at least SIMDMinLen elements use
// the FMA kernel, whose result can differ from the scalar loop in the
// last bits (see internal/simd for the tested error bound).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	if useSIMD(len(a)) {
		return simd.Dot(a, b)
	}
	var s float32
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// L2Sq returns the squared Euclidean distance between a and b.
// It panics if the lengths differ. Dispatch and accuracy follow Dot.
func L2Sq(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	if useSIMD(len(a)) {
		return simd.L2Sq(a, b)
	}
	var s float32
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// NormSq returns the squared L2 norm of a. Dispatch and accuracy follow
// Dot (a norm is the self inner product, and the SIMD path computes it
// as exactly that, so NormSq(a) == Dot(a, a) in every dispatch mode).
func NormSq(a []float32) float32 {
	if useSIMD(len(a)) {
		return simd.Dot(a, a)
	}
	var s float32
	for _, x := range a {
		s += x * x
	}
	return s
}

// Norm returns the L2 norm of a.
func Norm(a []float32) float32 { return float32(math.Sqrt(float64(NormSq(a)))) }

// Normalize scales a in place to unit L2 norm. Zero vectors are left as is.
func Normalize(a []float32) {
	n := Norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
}

// Sub stores a-b into dst. dst may alias a or b.
// It panics if the lengths differ.
func Sub(dst, a, b []float32) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vecmath: length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Add stores a+b into dst. dst may alias a or b.
// It panics if the lengths differ.
func Add(dst, a, b []float32) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("vecmath: length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Scale multiplies a in place by s.
func Scale(a []float32, s float32) {
	for i := range a {
		a[i] *= s
	}
}

// AXPY computes dst += s*a. It panics if the lengths differ.
func AXPY(dst []float32, s float32, a []float32) {
	if len(dst) != len(a) {
		panic("vecmath: length mismatch")
	}
	for i := range dst {
		dst[i] += s * a[i]
	}
}

// Matrix is a dense row-major matrix of float32 values. Rows typically
// hold vectors (database points, centroids, codewords).
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a slice sharing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// SetRow copies v into row i. It panics if len(v) != Cols.
func (m *Matrix) SetRow(i int, v []float32) {
	if len(v) != m.Cols {
		panic("vecmath: SetRow length mismatch")
	}
	copy(m.Row(i), v)
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// DotBatch computes the inner product of q with every row of m, storing
// the results in out. Rows are scanned four at a time (see Dot4) so each
// element of q is loaded once per four rows; the values are bit-identical
// to a per-row Dot loop. It panics if dimensions disagree.
func DotBatch(out []float32, m *Matrix, q []float32) {
	if len(q) != m.Cols || len(out) != m.Rows {
		panic("vecmath: DotBatch dimension mismatch")
	}
	d := m.Cols
	if useSIMD(d) {
		// Per-row FMA kernel: same kernel Dot dispatches to, so the
		// bit-identity with a per-row Dot loop is preserved.
		for i := 0; i < m.Rows; i++ {
			out[i] = simd.Dot(q, m.Data[i*d:(i+1)*d])
		}
		return
	}
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		base := i * d
		out[i], out[i+1], out[i+2], out[i+3] = Dot4(q,
			m.Data[base:base+d],
			m.Data[base+d:base+2*d],
			m.Data[base+2*d:base+3*d],
			m.Data[base+3*d:base+4*d])
	}
	for ; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), q)
	}
}

// L2SqBatch computes the squared L2 distance of q to every row of m,
// storing the results in out. It panics if dimensions disagree.
func L2SqBatch(out []float32, m *Matrix, q []float32) {
	if len(q) != m.Cols || len(out) != m.Rows {
		panic("vecmath: L2SqBatch dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		out[i] = L2Sq(m.Row(i), q)
	}
}

// ArgMin returns the index of the smallest element of s (first on ties)
// and its value. It panics on an empty slice.
func ArgMin(s []float32) (int, float32) {
	if len(s) == 0 {
		panic("vecmath: ArgMin of empty slice")
	}
	best, bv := 0, s[0]
	for i, v := range s[1:] {
		if v < bv {
			best, bv = i+1, v
		}
	}
	return best, bv
}

// ArgMax returns the index of the largest element of s (first on ties)
// and its value. It panics on an empty slice.
func ArgMax(s []float32) (int, float32) {
	if len(s) == 0 {
		panic("vecmath: ArgMax of empty slice")
	}
	best, bv := 0, s[0]
	for i, v := range s[1:] {
		if v > bv {
			best, bv = i+1, v
		}
	}
	return best, bv
}

// Mean computes the per-dimension mean of the rows of m whose indices are
// listed in idx, storing the result in dst (length m.Cols). An empty idx
// leaves dst zeroed.
func Mean(dst []float32, m *Matrix, idx []int) {
	for i := range dst {
		dst[i] = 0
	}
	if len(idx) == 0 {
		return
	}
	for _, r := range idx {
		row := m.Row(r)
		for i, v := range row {
			dst[i] += v
		}
	}
	inv := 1 / float32(len(idx))
	for i := range dst {
		dst[i] *= inv
	}
}
