package vecmath

import "anna/internal/simd"

// SIMD dispatch policy for this package.
//
// Two kernel classes cross the simd boundary with different contracts:
//
//   - FMA reductions (Dot, L2Sq, NormSq and everything built on them):
//     the AVX2 kernel fuses multiply-adds and reassociates across lanes,
//     so results differ from the scalar loops in the last bits — within
//     the error bound pinned by the simd package's differential tests.
//     Each function's multi-row variants keep their documented
//     bit-identities (Dot4 == four Dot calls, DotBatch == per-row Dot)
//     in BOTH dispatch modes, because they route through the same
//     single-vector kernel whenever SIMD is on.
//
//   - Small-dimension argmin (ArgMinNormMinus2Dot for Cols 2/4/8): the
//     assembly reproduces the scalar pairwise association exactly (no
//     FMA), so values AND indices are bit-identical to the scalar
//     kernels regardless of dispatch mode. Build artifacts that depend
//     on these paths (PQ code assignments) are therefore reproducible
//     across scalar and SIMD builds.
//
// Dispatch is decided per call from simd.Enabled(), which is fixed at
// process start (CPUID + ANNA_NOSIMD); within one process every call of
// a given shape takes the same path, preserving the determinism
// guarantees the batch encoder documents.

// SIMDMinLen is the vector length at which the AVX2 reduction kernels
// overtake the scalar loops (call overhead plus one stride of warm-up).
// Shorter vectors always run the sequential scalar loop, in every
// dispatch mode; pq's transposed LUT fill relies on that bit-identity.
const SIMDMinLen = 16

func useSIMD(n int) bool { return n >= SIMDMinLen && simd.Enabled() }

// useSIMDArgmin reports whether the dim-d argmin over n rows should use
// the bit-exact assembly kernel (needs at least one full 8-row block).
func useSIMDArgmin(d, n int) bool {
	return (d == 2 || d == 4 || d == 8) && n >= 8 && simd.Enabled()
}
