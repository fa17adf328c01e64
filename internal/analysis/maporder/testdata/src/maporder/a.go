package maporder

import (
	"fmt"
	"io"
	"sort"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside a map-range loop`
	}
	return keys
}

func goodSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goodSortSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func badPrint(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside a map-range loop`
	}
}

func goodSliceRange(keys []string, w io.Writer) {
	for _, k := range keys {
		fmt.Fprintln(w, k) // slice order is deterministic
	}
}

// Table mimics report.Table for the row-building rule.
type Table struct{ Rows [][]string }

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

func badRows(t *Table, m map[string]int) {
	for k := range m {
		t.Add(k) // want `report row Add inside a map-range loop`
	}
}

func goodAggregate(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v // order-independent aggregation is fine
	}
	return sum
}

func suppressed(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //postopc:nolint:maporder fixture exercises suppression
	}
	return keys
}

func badFloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `floating-point \+= into sum inside a map-range loop`
	}
	return sum
}

type siteStats struct{ meanCD []float64 }

type cdStats struct{ absErr float64 }

func badNestedFieldSum(m map[string]siteStats, st *cdStats) {
	for _, s := range m {
		for _, cd := range s.meanCD {
			st.absErr -= cd // want `floating-point -= into st inside a map-range loop`
		}
	}
}

func goodFloatSumSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k] // slice order is deterministic
	}
	return sum
}

func goodIntCount(m map[string][]float64) int {
	n := 0
	for _, vs := range m {
		n += len(vs) // integer sums are exact in any order
	}
	return n
}

func goodPerKeyMean(sums map[string]float64, counts map[string]int) {
	for k, c := range counts {
		sums[k] /= float64(c) // one element per key: no other iteration touches it
	}
}

type lengths struct{ delayL, leakL float64 }

func goodClosureLocal(m map[string]func() lengths, sigma float64) map[string]func() lengths {
	out := map[string]func() lengths{}
	for k, f := range m {
		out[k] = func() lengths {
			l := f()
			l.delayL += sigma // accumulator local to a closure built in the loop
			l.leakL += sigma
			return l
		}
	}
	return out
}
