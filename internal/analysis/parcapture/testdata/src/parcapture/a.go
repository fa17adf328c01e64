package parcapture

import "par"

func badSharedWrites(n int) int {
	total := 0
	out := make([]int, n)
	par.ForEach(n, func(i int) error {
		total += i // want `writes captured variable total`
		out[0] = i // want `writes shared out at an index not derived from the closure's index parameter`
		return nil
	})
	return total + out[0]
}

func badCount(n int) int {
	count := 0
	par.ForEach(n, func(i int) error {
		count++ // want `writes captured variable count`
		return nil
	})
	return count
}

type result struct{ v int }

func badFieldWrite(n int) result {
	var acc result
	par.ForEach(n, func(i int) error {
		acc.v = i // want `writes field of captured acc`
		return nil
	})
	return acc
}

func goodDisjoint(n int) []int {
	out := make([]int, n)
	par.ForEach(n, func(i int) error {
		out[i] = i * i // index-disjoint slot: the sanctioned pattern
		return nil
	})
	return out
}

func goodLocals(n int) []int {
	out := make([]int, n)
	par.ForEach(n, func(i int) error {
		acc := 0 // locals inside the closure are worker-private
		for j := 0; j < i; j++ {
			acc += j
		}
		out[i] = acc
		return nil
	})
	return out
}

func badLoopVar(rows [][]int) {
	for j := range rows {
		row := rows[j]
		par.ForEach(len(row), func(i int) error {
			row[i] = j // want `references enclosing loop variable j`
			return nil
		})
	}
}

func suppressed(n int) int {
	best := 0
	par.ForEach(n, func(i int) error {
		best = i //postopc:nolint:parcapture fixture exercises suppression
		return nil
	})
	return best
}

type scratch struct{ buf []int }

func workerSlots(n, workers int) ([]int, int) {
	state := make([]*scratch, workers)
	out := make([]int, n)
	total := 0
	par.ForEachWorker(n, func(w, i int) error {
		if state[w] == nil {
			state[w] = &scratch{} // per-slot state: one goroutine owns slot w
		}
		st := state[w]
		st.buf = append(st.buf[:0], i)
		out[i] = st.buf[0] // index-disjoint slot
		out[0] = i         // want `par.ForEachWorker closure writes shared out at an index not derived from the closure's index parameter`
		total += i         // want `par.ForEachWorker closure writes captured variable total`
		return nil
	})
	return out, total
}
