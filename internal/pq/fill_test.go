package pq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anna/internal/simd"
	"anna/internal/vecmath"
)

// spreadQuantizer is fakeQuantizer with codeword values spread over
// 10^-3..10^3, so the fill's rounding is exercised at every scale.
func spreadQuantizer(m, dsub, ks int, rng *rand.Rand) *Quantizer {
	q := fakeQuantizer(m, dsub, ks, rng)
	for i := range q.Codebooks.Data {
		q.Codebooks.Data[i] *= float32(math.Pow(10, float64(rng.Intn(7)-3)))
	}
	return q
}

// TestFillBitExact pins FillL2 and FillIP to the per-entry definition
// — -vecmath.L2Sq and vecmath.Dot over each codeword — bit for bit, in
// both dispatch modes, across sub-space widths on both sides of the
// transposed-kernel cut (Dsub < 16) and codeword counts with and
// without a ks%8 tail. The query repeats one codeword per sub-space so
// zero distances (a -0 entry) are covered.
func TestFillBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, enabled := range []bool{true, false} {
		prev := simd.SetEnabled(enabled)
		for _, dsub := range []int{1, 2, 3, 4, 8, 15, 16, 32} {
			for _, ks := range []int{4, 16, 20, 256} {
				name := fmt.Sprintf("simd%v/Dsub%d/Ks%d", simd.Enabled(), dsub, ks)
				q := spreadQuantizer(3, dsub, ks, rng)
				qv := make([]float32, q.D)
				for i := range qv {
					qv[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
				}
				copy(qv[dsub:2*dsub], q.Codeword(1, ks-1))
				l2, ip := NewLUT(q), NewLUT(q)
				q.FillL2(l2, qv)
				q.FillIP(ip, qv)
				for i := 0; i < q.M; i++ {
					sv := qv[i*dsub : (i+1)*dsub]
					for j := 0; j < ks; j++ {
						wantL2 := -vecmath.L2Sq(sv, q.Codeword(i, j))
						wantIP := vecmath.Dot(sv, q.Codeword(i, j))
						if got := l2.At(i, j); math.Float32bits(got) != math.Float32bits(wantL2) {
							t.Fatalf("%s: FillL2 (%d,%d) = %v, per-entry %v", name, i, j, got, wantL2)
						}
						if got := ip.At(i, j); math.Float32bits(got) != math.Float32bits(wantIP) {
							t.Fatalf("%s: FillIP (%d,%d) = %v, per-entry %v", name, i, j, got, wantIP)
						}
					}
				}
				if l2.Bias != 0 || ip.Bias != 0 {
					t.Fatalf("%s: bias %v/%v, want 0", name, l2.Bias, ip.Bias)
				}
			}
		}
		simd.SetEnabled(prev)
	}
}

// BenchmarkFillL2 times one full L2 table fill at the SIFT shape the
// benchmarks use (D=128, M=32, Dsub=4) for both code widths; an 8-bit
// search pays it once per (query, probed cluster) pair.
func BenchmarkFillL2(b *testing.B) {
	for _, ks := range []int{16, 256} {
		b.Run(fmt.Sprintf("ks%d", ks), func(b *testing.B) {
			q, qv := benchFillSetup(ks)
			l := NewLUT(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.FillL2(l, qv)
			}
		})
	}
}

// BenchmarkFillIP is BenchmarkFillL2 for the inner-product table, which
// a search fills once per query.
func BenchmarkFillIP(b *testing.B) {
	for _, ks := range []int{16, 256} {
		b.Run(fmt.Sprintf("ks%d", ks), func(b *testing.B) {
			q, qv := benchFillSetup(ks)
			l := NewLUT(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.FillIP(l, qv)
			}
		})
	}
}

func benchFillSetup(ks int) (*Quantizer, []float32) {
	rng := rand.New(rand.NewSource(42))
	q := fakeQuantizer(32, 4, ks, rng)
	qv := make([]float32, q.D)
	for i := range qv {
		qv[i] = rng.Float32()*2 - 1
	}
	q.transposedCodebook() // built once per quantizer, not per fill
	return q, qv
}
