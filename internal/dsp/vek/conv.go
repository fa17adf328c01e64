package vek

// ConvRow sets every dst[i] to the tap sum Σ_j src[i+j]·kern[j] — the
// horizontal pass of the separable Gaussian blur. Each sum starts from +0
// and adds the products in ascending j, one rounding per multiply and per
// add (no FMA), exactly as the Go loop in convRowGeneric does. src must
// hold at least len(dst)+len(kern)-1 elements.
//
//postopc:allocfree
func ConvRow(dst, src, kern []float64) {
	if len(dst) == 0 {
		return
	}
	src = src[:len(dst)+len(kern)-1]
	convRow(dst, src, kern)
}

// AddScaled adds src[i]·w to every dst[i] — the vertical pass of the
// separable Gaussian blur, one multiply then one add per element (no FMA).
// src must hold at least len(dst) elements.
//
//postopc:allocfree
func AddScaled(dst, src []float64, w float64) {
	src = src[:len(dst)]
	addScaled(dst, src, w)
}

// convRowGeneric is ConvRow's reference loop: the !amd64 implementation
// and the oracle the amd64 assembly is tested against.
//
//postopc:allocfree
func convRowGeneric(dst, src, kern []float64) {
	for i := range dst {
		var s float64
		win := src[i : i+len(kern)]
		for j, k := range kern {
			s += win[j] * k
		}
		dst[i] = s
	}
}

// addScaledGeneric is AddScaled's reference loop (see convRowGeneric).
//
//postopc:allocfree
func addScaledGeneric(dst, src []float64, w float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i] * w
	}
}
