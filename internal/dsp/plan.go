package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"postopc/internal/dsp/vek"
)

// plan holds the precomputed tables of one radix-2 transform size: the
// bit-reversal permutation and the per-stage twiddle factors for both
// directions, stored as structure-of-arrays planes for the vek kernels.
// Twiddles are generated by the same w *= wstep recurrence the butterfly
// loop used before the tables existed, so a planned transform is
// bit-identical to the historical un-planned one — swapping table lookups
// for the recurrence must never move a result.
type plan struct {
	n   int
	rev []int32
	// fwdRe[s]/fwdIm[s] (and the inv pair) hold the size>>1 twiddles of
	// butterfly stage s (size = 2<<s), deinterleaved into real/imag planes.
	// The values are exactly the complex128 recurrence outputs — splitting a
	// complex into its two floats moves no bit.
	fwdRe, fwdIm, invRe, invIm [][]float64
}

// planCache maps transform size -> *plan. Plans are immutable once built
// and deterministic, so a racing double-build stores equal tables; the
// LoadOrStore keeps exactly one.
var planCache sync.Map

//postopc:allocfree
func planFor(n int) *plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*plan)
	}
	p, _ := planCache.LoadOrStore(n, newPlan(n)) //postopc:nolint:allocbudget plan construction is the one-time cold path per transform size
	return p.(*plan)
}

func newPlan(n int) *plan {
	p := &plan{n: n, rev: make([]int32, n)}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	for _, inverse := range []bool{false, true} {
		var stagesRe, stagesIm [][]float64
		for size := 2; size <= n; size <<= 1 {
			half := size >> 1
			angle := 2 * math.Pi / float64(size)
			if !inverse {
				angle = -angle
			}
			wstep := cmplx.Exp(complex(0, angle))
			tw := make([]complex128, half)
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				tw[k] = w
				w *= wstep
			}
			twRe := make([]float64, half)
			twIm := make([]float64, half)
			vek.Split(twRe, twIm, tw)
			stagesRe = append(stagesRe, twRe)
			stagesIm = append(stagesIm, twIm)
		}
		if inverse {
			p.invRe, p.invIm = stagesRe, stagesIm
		} else {
			p.fwdRe, p.fwdIm = stagesRe, stagesIm
		}
	}
	return p
}

//postopc:allocfree
func (p *plan) twiddlePlanes(inverse bool) (re, im [][]float64) {
	if inverse {
		return p.invRe, p.invIm
	}
	return p.fwdRe, p.fwdIm
}

// swapSpans exchanges two equal-length float spans element by element — the
// bit-reversal permutation over plane rows.
//
//postopc:allocfree
func swapSpans(a, b []float64) {
	b = b[:len(a)]
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
}

// fftLinePlanes runs the in-place radix-2 transform over one contiguous
// line stored as re/im planes, applying the inverse 1/N scaling exactly as
// the public IFFT does. Per element the float operation sequence is
// identical to the historical complex128 implementation: the butterfly
// stages run in the same (stage, start, k) order through vek.ButterflyRow,
// and the scaling mirrors x /= complex(n, 0) through vek.ScaleInv.
//
//postopc:allocfree
func fftLinePlanes(re, im []float64, p *plan, inverse bool) {
	for i, j := range p.rev {
		if int(j) > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	twRe, twIm := p.twiddlePlanes(inverse)
	for s := range twRe {
		size := 2 << uint(s)
		half := size >> 1
		for start := 0; start < p.n; start += size {
			vek.ButterflyRow(
				re[start:start+half], im[start:start+half],
				re[start+half:start+size], im[start+half:start+size],
				twRe[s], twIm[s])
		}
	}
	if inverse {
		vek.ScaleInv(re, im, float64(p.n))
	}
}

// columnBlockW is the width of one column block: 16 columns of float64
// planes span two 64-byte cache lines per plane row, enough for the
// butterfly loop to reuse every fetched line across the whole block.
const columnBlockW = 16

// fftColumnsBlockedPlanes transforms columns [0, cols) of the row-major
// nx-wide plane pair in place. Columns advance through the butterfly stages
// in blocks of adjacent columns so each cache line is reused across the
// whole block instead of being refetched per column. Within any single
// column the sequence of floating-point operations is identical to a 1-D
// transform of the gathered column, so results are unchanged; only the
// interleaving across (independent) columns differs. The inverse 1/N
// scaling is NOT applied here — callers scale, which divides each element
// exactly once in the same way. live is nil or a support bitmap from
// supportLiveness (see fftColumnsBlockPlanes).
//
//postopc:allocfree
func fftColumnsBlockedPlanes(re, im []float64, nx, cols int, p *plan, inverse bool, live []uint64) {
	for c0 := 0; c0 < cols; c0 += columnBlockW {
		cw := columnBlockW
		if cols-c0 < cw {
			cw = cols - c0
		}
		fftColumnsBlockPlanes(re, im, nx, p, inverse, c0, cw, live)
	}
}

// fftColumnsBlockPlanes runs the butterflies of columns [c0, c0+cw) — one
// block of fftColumnsBlockedPlanes, one vek.ButterflyGroup call per
// (stage, start) group. Columns are independent, so executing blocks in
// any order leaves every column's float sequence — and therefore its
// result — unchanged.
//
// With a nil live every swap and group runs. Otherwise live describes
// which rows may be nonzero (supportLiveness), every other row must hold
// +0 in the block's columns, and the block skips the work that provably
// leaves +0 in place:
//
//   - a bit-reversal swap between two zero rows;
//   - a butterfly group none of whose inputs can be nonzero. After the
//     permutation, the group of stage s starting at start holds exactly
//     the original rows congruent to rev[start] modulo n>>(s+1); when no
//     support row is in that class, every value the group reads is +0,
//     and a radix-2 butterfly maps (+0, +0) to (+0, +0) under any finite
//     twiddle because +0 ± (±0) = +0. The skipped group therefore already
//     holds, bit for bit, what its butterflies would have written.
//
//postopc:allocfree
func fftColumnsBlockPlanes(re, im []float64, nx int, p *plan, inverse bool, c0, cw int, live []uint64) {
	n := p.n // number of rows
	for i, j := range p.rev {
		if int(j) > i && (live == nil || hasBit(live, n+i) || hasBit(live, n+int(j))) {
			ri := i*nx + c0
			rj := int(j)*nx + c0
			swapSpans(re[ri:ri+cw], re[rj:rj+cw])
			swapSpans(im[ri:ri+cw], im[rj:rj+cw])
		}
	}
	twRe, twIm := p.twiddlePlanes(inverse)
	for s := range twRe {
		size := 2 << uint(s)
		classes := n / size // residue classes of the rows at this stage
		for start := 0; start < n; start += size {
			if live != nil && !hasBit(live, classes+int(p.rev[start])) {
				continue
			}
			base := start*nx + c0
			vek.ButterflyGroup(re[base:], im[base:], nx, cw, twRe[s], twIm[s])
		}
	}
}

// liveStackWords sizes the stack buffer of the support bitmap: 2n bits
// cover column transforms of up to 4096 rows without a heap allocation.
const liveStackWords = 128

// supportLiveness builds the bitmap fftColumnsBlockPlanes skips by, for an
// n-row column transform whose nonzero rows are listed in rows: bit n+y is
// set for every listed row y, and for every power of two m < n bit m+r is
// set iff some listed row y has y mod m == r — the stage whose groups
// each hold one residue class modulo m. buf is used when it holds the
// 2n bits, so the caller's stack array keeps the bookkeeping allocation
// free; every row must be in [0, n).
//
//postopc:allocfree
func supportLiveness(buf []uint64, rows []int, n int) []uint64 {
	words := (2*n + 63) / 64
	live := buf
	if words > len(buf) {
		live = make([]uint64, words) //postopc:nolint:allocbudget only column transforms taller than 4096 rows reach the heap
	}
	live = live[:words]
	for i := range live {
		live[i] = 0
	}
	for _, y := range rows {
		setBit(live, n+y)
	}
	// Level m folds level 2m: class r modulo m is the union of classes r
	// and r+m modulo 2m.
	for m := n / 2; m >= 1; m /= 2 {
		for r := 0; r < m; r++ {
			if hasBit(live, 2*m+r) || hasBit(live, 3*m+r) {
				setBit(live, m+r)
			}
		}
	}
	return live
}

//postopc:allocfree
func hasBit(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

//postopc:allocfree
func setBit(b []uint64, i int) { b[i>>6] |= 1 << (uint(i) & 63) }
