//go:build !amd64 || noasm

package simd

import "runtime"

const goArch = runtime.GOARCH

var (
	available         = false
	unavailableReason = fallbackReason()
	featureString     = ""
)

func fallbackReason() string {
	if runtime.GOARCH == "amd64" {
		return "noasm build tag"
	}
	return ""
}

// On fallback builds the exported kernels run their pure-Go references,
// so a caller that forgets to gate on Enabled() is still correct — just
// not faster.

func adcSums4(planes []byte, bias float32, packed []byte, codeBytes, groups int, sums []float32) {
	adcSums4Generic(planes, bias, packed, codeBytes, groups, sums)
}

func adcSums8(vals []float32, bias float32, packed []byte, codeBytes, m8 int, sums []float32) {
	adcSums8Generic(vals, bias, packed, codeBytes, m8, sums)
}

func dotKernel(a, b []float32) float32 { return dotGeneric(a, b) }

func l2sqKernel(a, b []float32) float32 { return l2sqGeneric(a, b) }

func lutL2(dst, q, tab []float32, m, dsub, ks int) { lutL2Generic(dst, q, tab, m, dsub, ks, 0) }

func lutIP(dst, q, tab []float32, m, dsub, ks int) { lutIPGeneric(dst, q, tab, m, dsub, ks, 0) }

func argminLanes(data, norms, q []float32, d, n8 int, outV *[8]float32, outI *[8]int32) {
	argminLanesGeneric(data, norms, q, d, n8, outV, outI)
}
