package simd

import "math"

// Pure-Go references for every kernel. They define the exact semantics
// the assembly must reproduce (bit-exact for the ADC-sum and argmin
// kernels, within the documented error bound for the FMA reductions) and
// they ARE the implementation on fallback builds. The differential test
// matrix and the fuzzers run assembly and reference on identical inputs.

// planeBytes is the byte-plane table size of one 16-entry sub-space LUT:
// 4 planes of 16 bytes, plane p holding byte p of each float32 entry.
const planeBytes = 64

// BuildNibblePlanes fills planes (nSub*64 bytes) with the byte-plane
// transpose of the first nSub sub-space tables of vals (stride ks
// entries, ks <= 16). Entries k >= ks are left zero; 4-bit codes can
// never select them when ks is the quantizer's codeword count. The
// transposed layout is what lets the scan kernel look a float32 up with
// four in-register PSHUFBs instead of a memory gather.
func BuildNibblePlanes(planes []byte, vals []float32, ks, nSub int) {
	if ks <= 0 || ks > 16 {
		panic("simd: BuildNibblePlanes ks out of range")
	}
	if len(planes) < nSub*planeBytes || len(vals) < nSub*ks {
		panic("simd: BuildNibblePlanes buffer too small")
	}
	for s := 0; s < nSub; s++ {
		base := s * planeBytes
		row := vals[s*ks : s*ks+ks]
		for k, v := range row {
			bits := math.Float32bits(v)
			planes[base+k] = byte(bits)
			planes[base+16+k] = byte(bits >> 8)
			planes[base+32+k] = byte(bits >> 16)
			planes[base+48+k] = byte(bits >> 24)
		}
	}
}

// ADCSums4 computes, for each of the len(sums) packed rows, the partial
// ADC sum over the first 8*groups sub-spaces of the 4-bit code layout:
//
//	sums[r] = bias + Σ_{s=0}^{8g-1} value(s, nibble(r, s))
//
// with the additions performed in ascending sub-space order per row —
// bit-identical to the scalar kernel in pq. nibble(r, s) is the low
// (even s) or high (odd s) nibble of packed[r*codeBytes + s/2]; values
// come from the plane table built by BuildNibblePlanes. len(sums) must
// be a multiple of 16 and groups counts 4-byte code columns (8
// sub-spaces each).
func ADCSums4(planes []byte, bias float32, packed []byte, codeBytes, groups int, sums []float32) {
	n := len(sums)
	if n == 0 {
		return
	}
	if n%16 != 0 {
		panic("simd: ADCSums4 row count not a multiple of 16")
	}
	if groups <= 0 || 4*groups > codeBytes {
		panic("simd: ADCSums4 groups out of range")
	}
	if len(packed) < (n-1)*codeBytes+4*groups {
		panic("simd: ADCSums4 packed too short")
	}
	if len(planes) < 8*groups*planeBytes {
		panic("simd: ADCSums4 planes too short")
	}
	adcSums4(planes, bias, packed, codeBytes, groups, sums)
}

func adcSums4Generic(planes []byte, bias float32, packed []byte, codeBytes, groups int, sums []float32) {
	nSub := 8 * groups
	for r := range sums {
		row := packed[r*codeBytes:]
		s := bias
		for ss := 0; ss < nSub; ss++ {
			b := row[ss/2]
			var idx int
			if ss&1 == 0 {
				idx = int(b & 0x0F)
			} else {
				idx = int(b >> 4)
			}
			base := ss * planeBytes
			bits := uint32(planes[base+idx]) |
				uint32(planes[base+16+idx])<<8 |
				uint32(planes[base+32+idx])<<16 |
				uint32(planes[base+48+idx])<<24
			s += math.Float32frombits(bits)
		}
		sums[r] = s
	}
}

// ADCSums8 is ADCSums4 for the 8-bit code layout with ks=256 (one full
// byte per sub-space identifier, LUT stride 256 entries):
//
//	sums[r] = bias + Σ_{j=0}^{m8-1} vals[j*256 + packed[r*codeBytes+j]]
//
// additions in ascending sub-space order per row, bit-identical to the
// scalar kernel. len(sums) must be a multiple of 8 and m8 a multiple of
// 8. The fixed 256-entry stride is what makes any code byte a valid
// index, so the kernel needs no per-element bounds logic.
func ADCSums8(vals []float32, bias float32, packed []byte, codeBytes, m8 int, sums []float32) {
	n := len(sums)
	if n == 0 {
		return
	}
	if n%8 != 0 {
		panic("simd: ADCSums8 row count not a multiple of 8")
	}
	if m8 <= 0 || m8%8 != 0 || m8 > codeBytes {
		panic("simd: ADCSums8 m8 out of range")
	}
	if len(packed) < (n-1)*codeBytes+m8 {
		panic("simd: ADCSums8 packed too short")
	}
	if len(vals) < m8*256 {
		panic("simd: ADCSums8 vals too short")
	}
	adcSums8(vals, bias, packed, codeBytes, m8, sums)
}

func adcSums8Generic(vals []float32, bias float32, packed []byte, codeBytes, m8 int, sums []float32) {
	for r := range sums {
		row := packed[r*codeBytes:]
		s := bias
		off := 0
		for j := 0; j < m8; j++ {
			s += vals[off+int(row[j])]
			off += 256
		}
		sums[r] = s
	}
}

// Dot returns the inner product of a and b using the FMA kernel when the
// assembly is compiled in (regardless of Enabled — callers gate). The
// reduction splits the input into two 8-lane accumulators over 16-element
// strides, adds them lane-wise, reduces the 8 lanes pairwise
// ((l0+l4)+(l2+l6) style tree) and folds the tail elements in serially.
// Because of the reassociation and the fused multiply-adds the result is
// NOT bit-identical to a sequential scalar loop; both stay within the
// error bound pinned by TestDotErrorBound (on the order of
// len(a)*2^-24*Σ|a_i*b_i| relative to an exact float64 reduction).
// It panics if the lengths differ.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("simd: Dot length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	return dotKernel(a, b)
}

// dotGeneric mirrors the assembly's lane structure (two 8-lane
// accumulators, pairwise lane reduction, serial tail) without FMA; it is
// the fallback-build implementation and the shape the differential tests
// compare the assembly against.
func dotGeneric(a, b []float32) float32 {
	var acc0, acc1 [8]float32
	i := 0
	for ; i+16 <= len(a); i += 16 {
		for l := 0; l < 8; l++ {
			acc0[l] += a[i+l] * b[i+l]
			acc1[l] += a[i+8+l] * b[i+8+l]
		}
	}
	if i+8 <= len(a) {
		for l := 0; l < 8; l++ {
			acc0[l] += a[i+l] * b[i+l]
		}
		i += 8
	}
	s := laneReduce(&acc0, &acc1)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// laneReduce folds acc0+acc1 with the exact tree the assembly uses:
// lane-wise add, fold high half onto low, then (x0+x2)+(x1+x3).
func laneReduce(acc0, acc1 *[8]float32) float32 {
	var acc [8]float32
	for l := 0; l < 8; l++ {
		acc[l] = acc0[l] + acc1[l]
	}
	var x [4]float32
	for l := 0; l < 4; l++ {
		x[l] = acc[l] + acc[l+4]
	}
	return (x[0] + x[2]) + (x[1] + x[3])
}

// L2Sq returns the squared L2 distance of a and b with the same
// accumulator structure (d = a-b, acc += d*d fused) and tolerance class
// as Dot. It panics if the lengths differ.
func L2Sq(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("simd: L2Sq length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	return l2sqKernel(a, b)
}

func l2sqGeneric(a, b []float32) float32 {
	var acc0, acc1 [8]float32
	i := 0
	for ; i+16 <= len(a); i += 16 {
		for l := 0; l < 8; l++ {
			d0 := a[i+l] - b[i+l]
			acc0[l] += d0 * d0
			d1 := a[i+8+l] - b[i+8+l]
			acc1[l] += d1 * d1
		}
	}
	if i+8 <= len(a) {
		for l := 0; l < 8; l++ {
			d := a[i+l] - b[i+l]
			acc0[l] += d * d
		}
		i += 8
	}
	s := laneReduce(&acc0, &acc1)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// LUTL2 fills the m lookup tables of dst (ks entries each, table i at
// dst[i*ks:]) with negated squared L2 distances between the query
// sub-vectors and the codewords of a transposed codebook:
//
//	dst[i*ks+j] = -Σ_{t=0}^{dsub-1} (q[i*dsub+t] - tab[(i*dsub+t)*ks+j])²
//
// tab is laid out [m][dsub][ks]: row t of sub-space i holds dimension t
// of all ks codewords. Each entry starts from zero and adds d*d in
// ascending t, one rounded float32 subtract, multiply and add per
// dimension — bit-identical to the sequential scalar loop
// `s += d*d; return -s` over one codeword. The assembly runs when
// Enabled (see stubs_amd64.go); otherwise, and for the last ks%8
// entries of every table, the Go loop does.
func LUTL2(dst, q, tab []float32, m, dsub, ks int) {
	checkLUT("LUTL2", dst, q, tab, m, dsub, ks)
	lutL2(dst, q, tab, m, dsub, ks)
}

// LUTIP is LUTL2 for inner products, bit-identical to the sequential
// loop `s += q_t*b_t` over one codeword:
//
//	dst[i*ks+j] = Σ_{t=0}^{dsub-1} q[i*dsub+t] * tab[(i*dsub+t)*ks+j]
func LUTIP(dst, q, tab []float32, m, dsub, ks int) {
	checkLUT("LUTIP", dst, q, tab, m, dsub, ks)
	lutIP(dst, q, tab, m, dsub, ks)
}

func checkLUT(name string, dst, q, tab []float32, m, dsub, ks int) {
	if m <= 0 || dsub <= 0 || ks <= 0 {
		panic("simd: " + name + " shape out of range")
	}
	if len(dst) < m*ks || len(q) < m*dsub || len(tab) < m*dsub*ks {
		panic("simd: " + name + " buffer too small")
	}
}

// lutL2Generic is LUTL2 over entries lo..ks-1 of every table. The
// accumulators live in dst, one per entry, each with the reference's
// `s += d*d` shape over ascending dimensions.
func lutL2Generic(dst, q, tab []float32, m, dsub, ks, lo int) {
	if lo >= ks {
		return
	}
	for i := 0; i < m; i++ {
		out := dst[i*ks+lo : i*ks+ks]
		clear(out)
		for t, x := range q[i*dsub : i*dsub+dsub] {
			row := tab[(i*dsub+t)*ks+lo : (i*dsub+t+1)*ks]
			row = row[:len(out)]
			for j, b := range row {
				d := x - b
				out[j] += d * d
			}
		}
		for j, v := range out {
			out[j] = -v
		}
	}
}

// lutIPGeneric is LUTIP over entries lo..ks-1 of every table.
func lutIPGeneric(dst, q, tab []float32, m, dsub, ks, lo int) {
	if lo >= ks {
		return
	}
	for i := 0; i < m; i++ {
		out := dst[i*ks+lo : i*ks+ks]
		clear(out)
		for t, x := range q[i*dsub : i*dsub+dsub] {
			row := tab[(i*dsub+t)*ks+lo : (i*dsub+t+1)*ks]
			row = row[:len(out)]
			for j, b := range row {
				out[j] += x * b
			}
		}
	}
}

// lanePerm maps SIMD lane l to the row offset it owns within each
// 8-row block of the argmin kernels. The horizontal-add trees of the
// different dimensions emit rows in different lane orders; the table is
// part of the kernel contract and shared by assembly, reference and
// tests.
func lanePerm(d int) *[8]int32 {
	switch d {
	case 2:
		return &permD2
	case 4:
		return &permD4
	case 8:
		return &permD8
	}
	panic("simd: argmin dimension must be 2, 4 or 8")
}

var (
	permD2 = [8]int32{0, 1, 4, 5, 2, 3, 6, 7}
	permD4 = [8]int32{0, 2, 4, 6, 1, 3, 5, 7}
	permD8 = [8]int32{0, 1, 2, 3, 4, 5, 6, 7}
)

// pairTreeDot is the fixed-association pairwise dot product of the
// small-dimension argmin kernels — identical to the unrolled scalar
// kernels in vecmath (no FMA, so the SIMD lanes reproduce it exactly).
func pairTreeDot(row, q []float32, d int) float32 {
	switch d {
	case 2:
		return q[0]*row[0] + q[1]*row[1]
	case 4:
		return (q[0]*row[0] + q[1]*row[1]) + (q[2]*row[2] + q[3]*row[3])
	case 8:
		return ((q[0]*row[0] + q[1]*row[1]) + (q[2]*row[2] + q[3]*row[3])) +
			((q[4]*row[4] + q[5]*row[5]) + (q[6]*row[6] + q[7]*row[7]))
	}
	panic("simd: argmin dimension must be 2, 4 or 8")
}

func argminLanesGeneric(data, norms, q []float32, d, n8 int, outV *[8]float32, outI *[8]int32) {
	perm := lanePerm(d)
	for base := 0; base < n8; base += 8 {
		for l := 0; l < 8; l++ {
			j := base + int(perm[l])
			s := pairTreeDot(data[j*d:(j+1)*d], q, d)
			v := norms[j] - 2*s
			if v < outV[l] {
				outV[l] = v
				outI[l] = int32(j)
			}
		}
	}
}

// ArgMinNM2 returns the index j minimizing norms[j] - 2*dot(q, row_j)
// over the len(norms) rows of dim-d row-major data, and that minimal
// value — bit-identical (value AND index, ties to the lowest index) to
// the unrolled scalar kernels in vecmath for d in {2, 4, 8}. Eight SIMD
// lanes each own every eighth row and perform the exact scalar pairwise
// arithmetic, so no tolerance is needed; the lane results merge by
// (value, index) order. len(norms) must be at least 8.
func ArgMinNM2(data, norms, q []float32, d int) (int, float32) {
	n := len(norms)
	if n < 8 {
		panic("simd: ArgMinNM2 needs at least 8 rows")
	}
	if len(q) != d || len(data) < n*d {
		panic("simd: ArgMinNM2 dimension mismatch")
	}
	n8 := n &^ 7
	inf := float32(math.Inf(1))
	outV := [8]float32{inf, inf, inf, inf, inf, inf, inf, inf}
	var outI [8]int32
	argminLanes(data, norms, q, d, n8, &outV, &outI)
	// Merge: smallest value wins; on exactly-equal values the smallest
	// row index wins, which reproduces the scalar first-strict-min scan.
	best, bv := int(outI[0]), outV[0]
	for l := 1; l < 8; l++ {
		if outV[l] < bv || (outV[l] == bv && outI[l] < int32(best)) {
			best, bv = int(outI[l]), outV[l]
		}
	}
	for j := n8; j < n; j++ {
		s := pairTreeDot(data[j*d:(j+1)*d], q, d)
		if v := norms[j] - 2*s; v < bv {
			best, bv = j, v
		}
	}
	return best, bv
}
