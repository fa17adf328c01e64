//go:build !amd64

package vek

//postopc:allocfree
func convRow(dst, src, kern []float64) { convRowGeneric(dst, src, kern) }

//postopc:allocfree
func addScaled(dst, src []float64, w float64) { addScaledGeneric(dst, src, w) }
