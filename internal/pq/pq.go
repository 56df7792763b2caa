// Package pq implements product quantization (Section II-B of the paper):
// codebook training, vector encoding into sub-space codeword identifiers,
// packed code storage (4-bit codes for k*=16, 8-bit for k*=256), lookup
// table (LUT) construction for both inner-product and L2 similarity, and
// LUT-based approximate similarity computation ("asymmetric distance
// computation").
//
// Scores follow the paper's convention throughout: larger means more
// similar, so L2 lookup tables store NEGATED squared distances and the
// ADC sum is directly comparable across metrics.
package pq

import (
	"fmt"
	"sync"

	"anna/internal/f16"
	"anna/internal/kmeans"
	"anna/internal/par"
	"anna/internal/simd"
	"anna/internal/vecmath"
)

// Metric selects the similarity function.
type Metric int

const (
	// InnerProduct scores s(q,x) = q·x (MIPS).
	InnerProduct Metric = iota
	// L2 scores s(q,x) = -||q-x||² (negated so larger is more similar).
	L2
)

func (m Metric) String() string {
	switch m {
	case InnerProduct:
		return "ip"
	case L2:
		return "l2"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Quantizer is a trained product quantizer: M codebooks of Ks codewords,
// each codeword spanning Dsub = D/M dimensions.
type Quantizer struct {
	D    int // full vector dimensionality
	M    int // number of sub-spaces
	Ks   int // codewords per codebook (k* in the paper; 16 or 256 on ANNA)
	Dsub int // D / M

	// Codebooks holds M*Ks rows of Dsub values: codeword j of sub-space i
	// is row i*Ks+j.
	Codebooks *vecmath.Matrix

	// norms caches ‖codeword‖² per codebook row (same i*Ks+j layout),
	// computed lazily by codewordNorms for the batch encoder's
	// dot-product identity. Codebooks must not change once the first
	// encoder reads the cache; every construction path (Train, ivf.Build
	// with its f16 rounding pass, the index loader) finalizes codebooks
	// before any encoding starts.
	normsOnce sync.Once
	norms     []float32

	// transposed caches the codebooks laid out [M][Dsub][Ks] (dimension
	// t of all Ks codewords of a sub-space contiguous), the layout the
	// LUT fill kernels read: M·Ks·Dsub floats, as much again as the
	// codebooks. Built lazily by transposedCodebook under the same
	// "codebooks are final" rule as norms.
	transposedOnce sync.Once
	transposed     []float32
}

// codewordNorms returns the cached squared-norm table, computing it on
// first use. Safe for concurrent callers.
func (q *Quantizer) codewordNorms() []float32 {
	q.normsOnce.Do(func() {
		n := make([]float32, q.M*q.Ks)
		for j := range n {
			n[j] = vecmath.NormSq(q.Codebooks.Row(j))
		}
		q.norms = n
	})
	return q.norms
}

// transposedCodebook returns the cached [M][Dsub][Ks] copy of the
// codebooks, building it on first use. Safe for concurrent callers.
func (q *Quantizer) transposedCodebook() []float32 {
	q.transposedOnce.Do(func() {
		t := make([]float32, q.M*q.Dsub*q.Ks)
		for i := 0; i < q.M; i++ {
			for j := 0; j < q.Ks; j++ {
				for d, v := range q.Codeword(i, j) {
					t[(i*q.Dsub+d)*q.Ks+j] = v
				}
			}
		}
		q.transposed = t
	})
	return q.transposed
}

// transposedFill reports whether LUT fills take the transposed-codebook
// kernels (simd.LUTL2/LUTIP). They reproduce the sequential scalar loop
// of vecmath.L2Sq/Dot bit for bit, which is what those compute below
// vecmath.SIMDMinLen; from there on vecmath may take its FMA kernel,
// whose lane reassociation the transposed kernels cannot reproduce, so
// wider sub-spaces keep the per-entry fill.
func (q *Quantizer) transposedFill() bool { return q.Dsub < vecmath.SIMDMinLen }

// Config controls quantizer training.
type Config struct {
	M          int   // sub-spaces; must divide D
	Ks         int   // codewords per codebook; must fit the code layout (<= 256)
	Iters      int   // k-means iterations per codebook (default 25)
	Seed       int64 // RNG seed
	Workers    int   // k-means parallelism
	MaxSamples int   // per-codebook training subsample (0 = all)
}

// Train learns codebooks from the rows of data (typically residual
// vectors r(x) = x - c). It panics on invalid configuration.
func Train(data *vecmath.Matrix, cfg Config) *Quantizer {
	if cfg.M <= 0 || data.Cols%cfg.M != 0 {
		panic(fmt.Sprintf("pq: M=%d must divide D=%d", cfg.M, data.Cols))
	}
	if cfg.Ks <= 1 || cfg.Ks > 256 {
		panic(fmt.Sprintf("pq: Ks=%d out of range (2..256)", cfg.Ks))
	}
	if data.Rows < cfg.Ks {
		panic(fmt.Sprintf("pq: %d training vectors < Ks=%d", data.Rows, cfg.Ks))
	}
	q := &Quantizer{
		D:         data.Cols,
		M:         cfg.M,
		Ks:        cfg.Ks,
		Dsub:      data.Cols / cfg.M,
		Codebooks: vecmath.NewMatrix(cfg.M*cfg.Ks, data.Cols/cfg.M),
	}
	// The M sub-space k-means runs are independent (each has its own
	// seed cfg.Seed+i and its own codebook rows), so they parallelize
	// with no effect on the trained result: outer workers split the
	// sub-spaces, leftover workers go to each run's internal passes —
	// which are themselves Workers-invariant — and every split yields
	// codebooks bit-identical to the serial loop.
	workers := par.Workers(cfg.Workers)
	outer := workers
	if outer > cfg.M {
		outer = cfg.M
	}
	inner := workers / outer
	subs := make([]*vecmath.Matrix, outer)
	par.Run(q.M, 1, outer, func(w, lo, _ int) {
		i := lo
		if subs[w] == nil {
			subs[w] = vecmath.NewMatrix(data.Rows, q.Dsub)
		}
		sub := subs[w]
		// Slice out sub-space i of every training vector.
		for r := 0; r < data.Rows; r++ {
			copy(sub.Row(r), data.Row(r)[i*q.Dsub:(i+1)*q.Dsub])
		}
		res := kmeans.Train(sub, kmeans.Config{
			K:          cfg.Ks,
			MaxIters:   cfg.Iters,
			Seed:       cfg.Seed + int64(i),
			Workers:    inner,
			MaxSamples: cfg.MaxSamples,
			// Only the codebook is consumed; skip the full-data
			// assignment pass kmeans would otherwise run per sub-space.
			SkipFinalAssign: true,
		})
		for j := 0; j < cfg.Ks; j++ {
			q.Codebooks.SetRow(i*cfg.Ks+j, res.Centroids.Row(j))
		}
	})
	return q
}

// Codeword returns codeword j of sub-space i (shared storage).
func (q *Quantizer) Codeword(i, j int) []float32 { return q.Codebooks.Row(i*q.Ks + j) }

// CodeBits returns the bits per sub-space identifier (log2 Ks, rounded up).
func (q *Quantizer) CodeBits() int {
	bits := 0
	for 1<<bits < q.Ks {
		bits++
	}
	return bits
}

// CodeBytes returns the packed size of one encoded vector:
// M*log2(Ks)/8 bytes (Section II-B).
func (q *Quantizer) CodeBytes() int { return (q.M*q.CodeBits() + 7) / 8 }

// CodebookBytes returns the on-chip storage for all codebooks at 2 bytes
// per element: 2*Ks*D bytes (Section III-B SRAM sizing).
func (q *Quantizer) CodebookBytes() int { return 2 * q.Ks * q.D }

// LUTBytes returns the storage of one full set of M lookup tables at
// 2 bytes per entry: 2*Ks*M bytes (Section III-B SRAM sizing).
func (q *Quantizer) LUTBytes() int { return 2 * q.Ks * q.M }

// Encode quantizes v into one codeword identifier per sub-space, appending
// to dst and returning the extended slice. Each identifier is the codeword
// minimising the squared L2 distance to the sub-vector (the training
// objective), regardless of search metric.
func (q *Quantizer) Encode(dst []byte, v []float32) []byte {
	if len(v) != q.D {
		panic("pq: Encode dimension mismatch")
	}
	for i := 0; i < q.M; i++ {
		sv := v[i*q.Dsub : (i+1)*q.Dsub]
		best, bd := 0, vecmath.L2Sq(sv, q.Codeword(i, 0))
		for j := 1; j < q.Ks; j++ {
			if d := vecmath.L2Sq(sv, q.Codeword(i, j)); d < bd {
				best, bd = j, d
			}
		}
		dst = append(dst, byte(best))
	}
	return dst
}

// Decode reconstructs the quantized vector from one identifier per
// sub-space into dst (length D).
func (q *Quantizer) Decode(dst []float32, codes []byte) {
	if len(codes) != q.M || len(dst) != q.D {
		panic("pq: Decode size mismatch")
	}
	for i := 0; i < q.M; i++ {
		copy(dst[i*q.Dsub:(i+1)*q.Dsub], q.Codeword(i, int(codes[i])))
	}
}

// LUT is a set of M lookup tables with Ks entries each, laid out
// row-major: entry j of table i is Values[i*Ks+j].
type LUT struct {
	M, Ks  int
	Values []float32
	// Bias is added to every ADC sum: q·c for inner-product search with a
	// cluster centroid (Section II-C); zero otherwise.
	Bias float32
}

// NewLUT allocates an empty LUT for quantizer q.
func NewLUT(q *Quantizer) *LUT {
	return &LUT{M: q.M, Ks: q.Ks, Values: make([]float32, q.M*q.Ks)}
}

// At returns entry j of table i.
func (l *LUT) At(i, j int) float32 { return l.Values[i*l.Ks+j] }

// FillIP fills l with inner-product tables for query qv:
// L_i[j] = q_i · B_i[j]. The tables are independent of the cluster, so a
// single fill serves all selected clusters (Section II-C). Every entry
// equals vecmath.Dot(q_i, B_i[j]) bit for bit.
func (q *Quantizer) FillIP(l *LUT, qv []float32) {
	if len(qv) != q.D {
		panic("pq: FillIP dimension mismatch")
	}
	l.Bias = 0
	if q.transposedFill() {
		simd.LUTIP(l.Values, qv, q.transposedCodebook(), q.M, q.Dsub, q.Ks)
		return
	}
	for i := 0; i < q.M; i++ {
		sv := qv[i*q.Dsub : (i+1)*q.Dsub]
		for j := 0; j < q.Ks; j++ {
			l.Values[i*q.Ks+j] = vecmath.Dot(sv, q.Codeword(i, j))
		}
	}
}

// FillL2 fills l with negated squared-L2 tables for the residual query
// rq = q - c: L_i[j] = -||rq_i - B_i[j]||². The tables depend on the
// selected cluster and must be rebuilt per cluster (Section II-C) — on
// the CPU this fill, not the list scan, is most of an 8-bit search.
// Every entry equals -vecmath.L2Sq(rq_i, B_i[j]) bit for bit.
func (q *Quantizer) FillL2(l *LUT, rq []float32) {
	if len(rq) != q.D {
		panic("pq: FillL2 dimension mismatch")
	}
	l.Bias = 0
	if q.transposedFill() {
		simd.LUTL2(l.Values, rq, q.transposedCodebook(), q.M, q.Dsub, q.Ks)
		return
	}
	for i := 0; i < q.M; i++ {
		sv := rq[i*q.Dsub : (i+1)*q.Dsub]
		for j := 0; j < q.Ks; j++ {
			l.Values[i*q.Ks+j] = -vecmath.L2Sq(sv, q.Codeword(i, j))
		}
	}
}

// RoundF16 rounds every table entry (and the bias) through half precision,
// matching the 2-byte LUT SRAM of the accelerator.
func (l *LUT) RoundF16() {
	f16.RoundSlice(l.Values, l.Values)
	l.Bias = f16.Round(l.Bias)
}

// ADC computes the approximate similarity of the encoded vector (one
// identifier per sub-space) against the query represented by l:
// Bias + Σ_i L_i[code_i] (Section II-B memoized computation).
func (l *LUT) ADC(codes []byte) float32 {
	if len(codes) != l.M {
		panic("pq: ADC code length mismatch")
	}
	s := l.Bias
	for i, c := range codes {
		s += l.Values[i*l.Ks+int(c)]
	}
	return s
}

// ADCf16 is ADC with the accumulator rounded to half precision after every
// addition, matching a 16-bit hardware adder tree exactly is not required
// by the paper (the adder tree reduces in higher precision); ANNA stores
// only the final score as f16. ADCf16 therefore computes the full-precision
// sum and rounds once, which is what the top-k unit receives.
func (l *LUT) ADCf16(codes []byte) float32 { return f16.Round(l.ADC(codes)) }
