// Fixture for the allocbudget analyzer: single-package checks.
package allocbudget

type point struct{ x, y int }

func notMarked() int { return 0 }

// hot is allocation-free: arithmetic and calls to other marked functions.
//postopc:allocfree
func hot(xs []float64) float64 { // want hot:`allocfree`
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return s
}

// caller rides on hot's annotation.
//postopc:allocfree
func caller(xs []float64) float64 { // want caller:`allocfree`
	return hot(xs)
}

// leaky trips every construct the analyzer knows.
//postopc:allocfree
func leaky(n int, s string) int { // want leaky:`allocfree`
	buf := make([]byte, n) // want `calls make, which allocates`
	buf = append(buf, 1)   // want `calls append, which allocates`
	_ = []int{1, n}        // want `builds a slice literal, which allocates`
	m := map[int]int{}     // want `builds a map literal, which allocates`
	_ = m
	_ = &point{1, 2} // want `takes the address of a composite literal`
	_ = func() {}    // want `creates a closure`
	_ = s + "x"      // want `concatenates strings, which allocates`
	_ = []byte(s)    // want `converts between string and byte slice`
	_ = notMarked()  // want `calls notMarked, which is not marked //postopc:allocfree`
	go notMarked()   // want `starts a goroutine` `calls notMarked, which is not marked`
	return len(buf)
}

// grow documents its cold path with a line-scoped suppression.
//postopc:allocfree
func grow(dst []float64, n int) []float64 { // want grow:`allocfree`
	if cap(dst) < n {
		return make([]float64, n) //postopc:nolint:allocbudget growth on first use at a new size is the cold path
	}
	return dst[:n]
}

// asmKernel is an assembly declaration: //go:noescape sits between the
// directive and the func line, and the directive must still count.
//postopc:allocfree
//go:noescape
func asmKernel(dst *float64, n int) // want asmKernel:`allocfree`

// callsAsm rides on asmKernel's annotation.
//postopc:allocfree
func callsAsm(xs []float64) { // want callsAsm:`allocfree`
	asmKernel(&xs[0], len(xs))
}
