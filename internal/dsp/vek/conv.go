package vek

// ConvRow sets every dst[i] to the tap sum Σ_j src[i+j]·kern[j] — the
// horizontal pass of the separable Gaussian blur. Each sum starts from +0
// and adds the products in ascending j, one rounding per multiply and per
// add (no FMA), exactly as the Go loop in convRowGeneric does. src must
// hold at least len(dst)+len(kern)-1 elements, and dst must not overlap
// src.
//
//postopc:allocfree
func ConvRow(dst, src, kern []float64) {
	n := len(dst)
	if n == 0 || len(kern) == 0 {
		Zero(dst)
		return
	}
	src = src[:n+len(kern)-1]
	if !simdOn || n < 4 {
		convRowGeneric(dst, src, kern)
		return
	}
	m := n &^ 3
	convRowSIMD(&dst[0], &src[0], &kern[0], m, len(kern))
	if m < n {
		// One overlapping 4-wide block ends the row. The outputs are
		// independent, so the up to three it recomputes come out with
		// the same bits.
		convRowSIMD(&dst[n-4], &src[n-4], &kern[0], 4, len(kern))
	}
}

// ConvCol sets every dst[i] to the column tap sum Σ_j src[j·stride+i]·kern[j]
// — the vertical pass of the separable Gaussian blur, the taps running
// down the columns of a row-major plane whose rows are stride elements
// apart. Each sum starts from +0 and adds the products in ascending j, one
// rounding per multiply and per add (no FMA), exactly as the Go loop in
// convColGeneric does. stride must not be negative, src must hold at least
// (len(kern)-1)·stride+len(dst) elements, and dst must not overlap src.
//
//postopc:allocfree
func ConvCol(dst, src []float64, stride int, kern []float64) {
	n := len(dst)
	if n == 0 || len(kern) == 0 {
		Zero(dst)
		return
	}
	if stride < 0 {
		panic("vek: negative ConvCol stride")
	}
	src = src[:(len(kern)-1)*stride+n]
	if !simdOn || n < 4 {
		convColGeneric(dst, src, stride, kern)
		return
	}
	m := n &^ 3
	convColSIMD(&dst[0], &src[0], &kern[0], m, stride, len(kern))
	if m < n {
		// One overlapping 4-wide block ends the row (see ConvRow).
		convColSIMD(&dst[n-4], &src[n-4], &kern[0], 4, stride, len(kern))
	}
}

// convRowGeneric is ConvRow's reference loop: the path without AVX2, for
// rows shorter than 4, and the oracle the assembly is tested against.
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

// convColGeneric is ConvCol's reference loop (see convRowGeneric).
//
//postopc:allocfree
func convColGeneric(dst, src []float64, stride int, kern []float64) {
	for i := range dst {
		var s float64
		for j, k := range kern {
			s += src[j*stride+i] * k
		}
		dst[i] = s
	}
}
