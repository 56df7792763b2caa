package simd

import (
	"math"
	"math/rand"
	"testing"
)

// The differential matrix runs every assembly kernel against its pure-Go
// reference on identical inputs. On builds without the assembly
// (noasm, non-amd64) the dispatchers already point at the references, so
// the comparisons are trivially true and the tests still exercise the
// reference paths. Bit-exact kernels (ADC sums, argmin) compare with ==
// on the raw float bits; the FMA reductions compare against an exact
// float64 reduction within the documented bound.

func randSlice(rng *rand.Rand, n int, scale float64) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	return s
}

func TestDetectReporting(t *testing.T) {
	t.Logf("available=%v enabled=%v dispatch=%q features=%q reason=%q",
		Available(), Enabled(), Dispatch(), Features(), Reason())
	if Enabled() && Reason() != "" {
		t.Fatalf("enabled but reason = %q", Reason())
	}
	if !Available() && Enabled() {
		t.Fatal("enabled without available")
	}
	prev := SetEnabled(false)
	if Enabled() {
		t.Fatal("SetEnabled(false) did not take effect")
	}
	if Dispatch() != "scalar" {
		t.Fatalf("disabled dispatch = %q, want scalar", Dispatch())
	}
	SetEnabled(prev)
	if Enabled() != prev {
		t.Fatal("SetEnabled did not restore")
	}
}

// --- ADC 4-bit ---

func buildRandomLUT4(rng *rand.Rand, nSub, ks int) (planes []byte, vals []float32) {
	vals = make([]float32, nSub*ks)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	planes = make([]byte, nSub*planeBytes)
	BuildNibblePlanes(planes, vals, ks, nSub)
	return planes, vals
}

func packRandom4(rng *rand.Rand, n, codeBytes, ks int) []byte {
	packed := make([]byte, n*codeBytes)
	for i := range packed {
		lo := byte(rng.Intn(ks))
		hi := byte(rng.Intn(ks))
		packed[i] = lo | hi<<4
	}
	return packed
}

func TestBuildNibblePlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ks := range []int{1, 7, 16} {
		planes, vals := buildRandomLUT4(rng, 3, ks)
		for s := 0; s < 3; s++ {
			for k := 0; k < 16; k++ {
				var want uint32
				if k < ks {
					want = math.Float32bits(vals[s*ks+k])
				}
				base := s * planeBytes
				got := uint32(planes[base+k]) |
					uint32(planes[base+16+k])<<8 |
					uint32(planes[base+32+k])<<16 |
					uint32(planes[base+48+k])<<24
				if got != want {
					t.Fatalf("ks=%d sub=%d k=%d: plane bits %#x, want %#x", ks, s, k, got, want)
				}
			}
		}
	}
}

func TestADCSums4Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		n, codeBytes, groups, ks int
	}{
		{16, 4, 1, 16},
		{16, 32, 8, 16},
		{256, 32, 8, 16},
		{48, 7, 1, 16},   // odd codeBytes: tail bytes ignored by the kernel
		{160, 13, 3, 16}, // unaligned stride, partial coverage
		{32, 32, 8, 9},   // ks < 16: upper plane entries are zero padding
		{1024, 24, 6, 16},
	} {
		planes, _ := buildRandomLUT4(rng, 8*tc.groups, tc.ks)
		packed := packRandom4(rng, tc.n, tc.codeBytes, tc.ks)
		bias := float32(rng.NormFloat64())

		want := make([]float32, tc.n)
		adcSums4Generic(planes, bias, packed, tc.codeBytes, tc.groups, want)
		got := make([]float32, tc.n)
		ADCSums4(planes, bias, packed, tc.codeBytes, tc.groups, got)

		for r := range want {
			if math.Float32bits(want[r]) != math.Float32bits(got[r]) {
				t.Fatalf("%+v row %d: asm %v (%#x) != ref %v (%#x)",
					tc, r, got[r], math.Float32bits(got[r]), want[r], math.Float32bits(want[r]))
			}
		}
	}
}

// --- ADC 8-bit ---

func TestADCSums8Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		n, codeBytes, m8 int
	}{
		{8, 8, 8},
		{8, 64, 64},
		{256, 64, 64},
		{64, 13, 8}, // odd stride, tail sub-spaces left to the caller
		{120, 37, 32},
		{1024, 48, 48},
	} {
		vals := make([]float32, tc.m8*256)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
		}
		packed := make([]byte, tc.n*tc.codeBytes)
		rng.Read(packed) // any byte value is a valid ks=256 index
		bias := float32(rng.NormFloat64())

		want := make([]float32, tc.n)
		adcSums8Generic(vals, bias, packed, tc.codeBytes, tc.m8, want)
		got := make([]float32, tc.n)
		ADCSums8(vals, bias, packed, tc.codeBytes, tc.m8, got)

		for r := range want {
			if math.Float32bits(want[r]) != math.Float32bits(got[r]) {
				t.Fatalf("%+v row %d: asm %v != ref %v", tc, r, got[r], want[r])
			}
		}
	}
}

// --- FMA reductions ---

// dotExact is the float64 reference both implementations are measured
// against.
func dotExact(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func l2sqExact(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// dotBound is the documented tolerance for the FMA reductions: a small
// multiple of len * ulp * sum(|a_i*b_i|), covering both the assembly's
// fused rounding and the reference's reassociation.
func dotBound(a, b []float32) float64 {
	var mag float64
	for i := range a {
		mag += math.Abs(float64(a[i]) * float64(b[i]))
	}
	return 4 * float64(len(a)+8) * (1.0 / (1 << 24)) * (mag + 1e-30)
}

func TestDotDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 100, 128, 333, 1024} {
		a := randSlice(rng, n, 1)
		b := randSlice(rng, n, 1)
		exact := dotExact(a, b)
		bound := dotBound(a, b)
		for name, got := range map[string]float32{
			"kernel":  Dot(a, b),
			"generic": dotGeneric(a, b),
		} {
			if d := math.Abs(float64(got) - exact); d > bound {
				t.Fatalf("n=%d %s: |%v - %v| = %g > bound %g", n, name, got, exact, d, bound)
			}
		}
	}
	if Dot(nil, nil) != 0 {
		t.Fatal("Dot(nil, nil) != 0")
	}
}

// TestDotErrorBound pins the documented bound on adversarial
// (large-magnitude, cancelling) inputs, not just uniform noise.
func TestDotErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(512)
		a := randSlice(rng, n, 1e4)
		b := randSlice(rng, n, 1e4)
		// Force cancellation: mirror half the products negatively.
		for i := 0; i+1 < n; i += 2 {
			a[i+1] = a[i]
			b[i+1] = -b[i] * (1 + float32(rng.Float64())*1e-3)
		}
		exact := dotExact(a, b)
		bound := dotBound(a, b)
		if d := math.Abs(float64(Dot(a, b)) - exact); d > bound {
			t.Fatalf("trial %d n=%d: err %g > bound %g", trial, n, d, bound)
		}
	}
}

func TestL2SqDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 7, 8, 9, 16, 17, 31, 32, 64, 100, 128, 500} {
		a := randSlice(rng, n, 10)
		b := randSlice(rng, n, 10)
		exact := l2sqExact(a, b)
		// |d*d| sums: reuse dotBound on the difference vector.
		diff := make([]float32, n)
		for i := range diff {
			diff[i] = a[i] - b[i]
		}
		bound := dotBound(diff, diff)
		for name, got := range map[string]float32{
			"kernel":  L2Sq(a, b),
			"generic": l2sqGeneric(a, b),
		} {
			if d := math.Abs(float64(got) - exact); d > bound {
				t.Fatalf("n=%d %s: |%v - %v| = %g > bound %g", n, name, got, exact, d, bound)
			}
		}
	}
}

// --- argmin ---

// argminScalar reproduces vecmath's unrolled kernels: sequential scan,
// strict <, fixed pairwise dot association.
func argminScalar(data, norms, q []float32, d int) (int, float32) {
	best, bv := 0, float32(math.Inf(1))
	for j := 0; j < len(norms); j++ {
		s := pairTreeDot(data[j*d:(j+1)*d], q, d)
		if v := norms[j] - 2*s; v < bv {
			best, bv = j, v
		}
	}
	return best, bv
}

func TestArgMinNM2Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{2, 4, 8} {
		for _, n := range []int{8, 9, 15, 16, 17, 64, 100, 256, 1000} {
			data := randSlice(rng, n*d, 1)
			norms := make([]float32, n)
			for j := 0; j < n; j++ {
				var s float32
				for k := 0; k < d; k++ {
					s += data[j*d+k] * data[j*d+k]
				}
				norms[j] = s
			}
			q := randSlice(rng, d, 1)
			wi, wv := argminScalar(data, norms, q, d)
			gi, gv := ArgMinNM2(data, norms, q, d)
			if gi != wi || math.Float32bits(gv) != math.Float32bits(wv) {
				t.Fatalf("d=%d n=%d: asm (%d, %v) != scalar (%d, %v)", d, n, gi, gv, wi, wv)
			}
		}
	}
}

// TestArgMinNM2Ties forces exact value ties across lanes and verifies the
// first (lowest-index) row wins, as in the scalar scan.
func TestArgMinNM2Ties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range []int{2, 4, 8} {
		for _, n := range []int{16, 33, 64} {
			data := make([]float32, n*d) // all-zero rows: every v == norms[j]
			norms := make([]float32, n)
			for j := range norms {
				norms[j] = float32(1 + rng.Intn(3)) // many duplicate values
			}
			q := randSlice(rng, d, 1)
			wi, wv := argminScalar(data, norms, q, d)
			gi, gv := ArgMinNM2(data, norms, q, d)
			if gi != wi || gv != wv {
				t.Fatalf("d=%d n=%d: asm (%d, %v) != scalar (%d, %v)", d, n, gi, gv, wi, wv)
			}
		}
	}
}

// TestArgMinNM2NonFinite checks NaN/Inf rows: strict < means NaN
// candidates never win, matching the scalar kernels.
func TestArgMinNM2NonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, d := range []int{2, 4, 8} {
		n := 24
		data := make([]float32, n*d)
		norms := make([]float32, n)
		for j := range norms {
			norms[j] = float32(j)
		}
		norms[3] = nan
		norms[5] = inf
		norms[7] = float32(math.Inf(-1))
		q := make([]float32, d)
		wi, wv := argminScalar(data, norms, q, d)
		gi, gv := ArgMinNM2(data, norms, q, d)
		if gi != wi || math.Float32bits(gv) != math.Float32bits(wv) {
			t.Fatalf("d=%d: asm (%d, %v) != scalar (%d, %v)", d, gi, gv, wi, wv)
		}

		// All-NaN: nothing beats +Inf prefill; scalar returns (0, +Inf).
		for j := range norms {
			norms[j] = nan
		}
		wi, wv = argminScalar(data, norms, q, d)
		gi, gv = ArgMinNM2(data, norms, q, d)
		if gi != wi || math.Float32bits(gv) != math.Float32bits(wv) {
			t.Fatalf("d=%d all-NaN: asm (%d, %v) != scalar (%d, %v)", d, gi, gv, wi, wv)
		}
	}
}

// --- scalar-forced paths (ANNA_NOSIMD / SetEnabled coverage) ---

func TestSetEnabledRoundTrip(t *testing.T) {
	if !Available() {
		t.Skip("no assembly on this build")
	}
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	// Kernels still dispatch on `available`, so results stay identical;
	// this pins that the policy switch doesn't change kernel results.
	rng := rand.New(rand.NewSource(9))
	a := randSlice(rng, 64, 1)
	b := randSlice(rng, 64, 1)
	off := Dot(a, b)
	SetEnabled(true)
	on := Dot(a, b)
	if math.Float32bits(off) != math.Float32bits(on) {
		t.Fatalf("Dot differs across SetEnabled: %v vs %v", off, on)
	}
}

// --- LUT fill over a transposed codebook ---

// lutRef computes one table entry the way vecmath's sequential scalar
// loops do over one codeword: d := x - b; s += d*d (L2, negated) or
// s += x*b (IP).
func lutRef(q, tab []float32, i, j, dsub, ks int, ip bool) float32 {
	var s float32
	for t := 0; t < dsub; t++ {
		x, b := q[i*dsub+t], tab[(i*dsub+t)*ks+j]
		if ip {
			s += x * b
		} else {
			d := x - b
			s += d * d
		}
	}
	if ip {
		return s
	}
	return -s
}

// randLUTInput draws a query and a transposed codebook whose values
// spread over 10^-scaleExp..10^scaleExp, with some codeword dimensions
// copied from the query so exact zeros (and the -0 of a zero L2
// distance) occur.
func randLUTInput(rng *rand.Rand, m, dsub, ks, scaleExp int) (q, tab []float32) {
	draw := func() float32 {
		mag := math.Pow(10, float64(rng.Intn(2*scaleExp+1)-scaleExp))
		return float32((rng.Float64()*2 - 1) * mag)
	}
	q = make([]float32, m*dsub)
	for i := range q {
		q[i] = draw()
	}
	tab = make([]float32, m*dsub*ks)
	for i := range tab {
		tab[i] = draw()
	}
	for i := 0; i < m; i++ {
		j := rng.Intn(ks)
		for t := 0; t < dsub; t++ {
			tab[(i*dsub+t)*ks+j] = q[i*dsub+t]
		}
	}
	return q, tab
}

// checkLUTFill compares LUTL2/LUTIP in the current dispatch mode and the Go
// loop against the per-entry reference, bit for bit.
func checkLUTFill(t *testing.T, q, tab []float32, m, dsub, ks int) {
	t.Helper()
	for _, ip := range []bool{false, true} {
		got := make([]float32, m*ks)
		gen := make([]float32, m*ks)
		if ip {
			LUTIP(got, q, tab, m, dsub, ks)
			lutIPGeneric(gen, q, tab, m, dsub, ks, 0)
		} else {
			LUTL2(got, q, tab, m, dsub, ks)
			lutL2Generic(gen, q, tab, m, dsub, ks, 0)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < ks; j++ {
				want := lutRef(q, tab, i, j, dsub, ks, ip)
				k := i*ks + j
				if math.Float32bits(got[k]) != math.Float32bits(want) ||
					math.Float32bits(gen[k]) != math.Float32bits(want) {
					t.Fatalf("ip=%v m=%d dsub=%d ks=%d entry (%d,%d): kernel %v (%#x), generic %v, ref %v (%#x)",
						ip, m, dsub, ks, i, j, got[k], math.Float32bits(got[k]), gen[k], want, math.Float32bits(want))
				}
			}
		}
	}
}

func TestLUTFillDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, enabled := range []bool{true, false} {
		prev := SetEnabled(enabled)
		for _, dsub := range []int{1, 2, 3, 4, 8, 15, 16, 32} {
			for _, ks := range []int{4, 8, 16, 20, 40, 256} {
				for _, m := range []int{1, 3} {
					q, tab := randLUTInput(rng, m, dsub, ks, 3)
					checkLUTFill(t, q, tab, m, dsub, ks)
				}
			}
		}
		SetEnabled(prev)
	}
}

// TestLUTFillNegZero pins the sign of a zero distance: the reference
// negates +0 into -0, and so must the kernel's sign flip.
func TestLUTFillNegZero(t *testing.T) {
	const m, dsub, ks = 2, 4, 16
	q := make([]float32, m*dsub)
	tab := make([]float32, m*dsub*ks)
	dst := make([]float32, m*ks)
	LUTL2(dst, q, tab, m, dsub, ks)
	for k, v := range dst {
		if math.Float32bits(v) != 0x80000000 {
			t.Fatalf("entry %d = %v (%#x), want -0", k, v, math.Float32bits(v))
		}
	}
}

func TestLUTFillPanics(t *testing.T) {
	buf := make([]float32, 64)
	for name, f := range map[string]func(){
		"dsub0":    func() { LUTL2(buf, buf, buf, 1, 0, 8) },
		"shortTab": func() { LUTL2(buf, buf, buf[:63], 2, 4, 8) },
		"shortDst": func() { LUTIP(buf[:15], buf, buf, 2, 4, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// --- fuzzers (also run with -fuzz in CI's differential fuzz job) ---

func FuzzScanADCDiff(f *testing.F) {
	f.Add(uint16(16), uint8(8), uint8(1), []byte{0x21, 0x43, 0x65, 0x87})
	f.Add(uint16(64), uint8(13), uint8(3), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, nRaw uint16, cbRaw, gRaw uint8, seedBytes []byte) {
		n := (int(nRaw)%512 + 16) &^ 15
		groups := int(gRaw)%8 + 1
		codeBytes := 4*groups + int(cbRaw)%8
		var seed int64
		for _, b := range seedBytes {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))

		planes, _ := buildRandomLUT4(rng, 8*groups, 16)
		packed := make([]byte, n*codeBytes)
		rng.Read(packed)
		// Splice fuzz bytes in for adversarial nibble patterns.
		copy(packed, seedBytes)
		bias := float32(rng.NormFloat64())

		want := make([]float32, n)
		adcSums4Generic(planes, bias, packed, codeBytes, groups, want)
		got := make([]float32, n)
		ADCSums4(planes, bias, packed, codeBytes, groups, got)
		for r := range want {
			if math.Float32bits(want[r]) != math.Float32bits(got[r]) {
				t.Fatalf("row %d: asm %v != ref %v (n=%d codeBytes=%d groups=%d)",
					r, got[r], want[r], n, codeBytes, groups)
			}
		}

		// 8-bit kernel on the same packed block where it fits.
		m8 := 8 * (int(gRaw)%4 + 1)
		if m8 <= codeBytes {
			vals := make([]float32, m8*256)
			for i := range vals {
				vals[i] = float32(rng.NormFloat64())
			}
			n8 := n &^ 7
			want8 := make([]float32, n8)
			adcSums8Generic(vals, bias, packed, codeBytes, m8, want8)
			got8 := make([]float32, n8)
			ADCSums8(vals, bias, packed, codeBytes, m8, got8)
			for r := range want8 {
				if math.Float32bits(want8[r]) != math.Float32bits(got8[r]) {
					t.Fatalf("8-bit row %d: asm %v != ref %v", r, got8[r], want8[r])
				}
			}
		}
	})
}

func FuzzDotDiff(f *testing.F) {
	f.Add(uint16(17), int64(1))
	f.Add(uint16(256), int64(42))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := int(nRaw)%2048 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randSlice(rng, n, 100)
		b := randSlice(rng, n, 100)

		if d := math.Abs(float64(Dot(a, b)) - dotExact(a, b)); d > dotBound(a, b) {
			t.Fatalf("Dot n=%d seed=%d: err %g > bound %g", n, seed, d, dotBound(a, b))
		}
		diff := make([]float32, n)
		for i := range diff {
			diff[i] = a[i] - b[i]
		}
		if d := math.Abs(float64(L2Sq(a, b)) - l2sqExact(a, b)); d > dotBound(diff, diff) {
			t.Fatalf("L2Sq n=%d seed=%d: err %g > bound %g", n, seed, d, dotBound(diff, diff))
		}

		// Argmin differential ride-along: d cycles through 2/4/8.
		d := []int{2, 4, 8}[n%3]
		rows := n%97 + 8
		data := randSlice(rng, rows*d, 1)
		norms := randSlice(rng, rows, 2)
		q := randSlice(rng, d, 1)
		wi, wv := argminScalar(data, norms, q, d)
		gi, gv := ArgMinNM2(data, norms, q, d)
		if gi != wi || math.Float32bits(gv) != math.Float32bits(wv) {
			t.Fatalf("argmin d=%d rows=%d: asm (%d, %v) != scalar (%d, %v)", d, rows, gi, gv, wi, wv)
		}
	})
}

// FuzzFillL2Diff runs the LUT fill kernels (assembly where available)
// against the Go loop on fuzzed shapes and magnitudes; both must equal
// the per-entry reference bit for bit.
func FuzzFillL2Diff(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint16(256), uint8(3), int64(1))
	f.Add(uint8(1), uint8(15), uint16(20), uint8(6), int64(7))
	f.Fuzz(func(t *testing.T, mRaw, dRaw uint8, ksRaw uint16, expRaw uint8, seed int64) {
		m := int(mRaw)%8 + 1
		dsub := int(dRaw)%32 + 1
		ks := int(ksRaw)%256 + 1
		exp := int(expRaw) % 16
		rng := rand.New(rand.NewSource(seed))
		q, tab := randLUTInput(rng, m, dsub, ks, exp)
		checkLUTFill(t, q, tab, m, dsub, ks)
	})
}

// --- benchmarks ---

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randSlice(rng, 128, 1)
	y := randSlice(rng, 128, 1)
	b.SetBytes(128 * 4 * 2)
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkADCSums4(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const n, groups = 1024, 8
	codeBytes := 4 * groups
	planes, _ := buildRandomLUT4(rng, 8*groups, 16)
	packed := packRandom4(rng, n, codeBytes, 16)
	sums := make([]float32, n)
	b.SetBytes(int64(n * codeBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ADCSums4(planes, 0, packed, codeBytes, groups, sums)
	}
}

func BenchmarkADCSums8(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const n, m8 = 1024, 32
	vals := make([]float32, m8*256)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	packed := make([]byte, n*m8)
	rng.Read(packed)
	sums := make([]float32, n)
	b.SetBytes(int64(n * m8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ADCSums8(vals, 0, packed, m8, m8, sums)
	}
}

func BenchmarkArgMinNM2(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const n, d = 256, 8
	data := randSlice(rng, n*d, 1)
	norms := randSlice(rng, n, 2)
	q := randSlice(rng, d, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ArgMinNM2(data, norms, q, d)
	}
}
