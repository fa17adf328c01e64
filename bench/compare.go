package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is one run's result object, tagged with the workload named by
// the identity line printed before it.
type runOutput struct {
	workload string
	correct  bool
	metrics  map[string]float64
}

// readRunOutputs collects the untraced run results in a file holding the
// standard output of any number of runs, one after another.
func readRunOutputs(path string) ([]runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runOutput
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var v struct {
			Identity *struct {
				Workload string `json:"workload"`
			} `json:"identity"`
			Correct *bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if json.Unmarshal(line, &v) != nil {
			continue
		}
		switch {
		case v.Identity != nil:
			workload = v.Identity.Workload
		case v.Correct != nil && v.Metrics != nil:
			r := runOutput{workload: workload, correct: *v.Correct, metrics: map[string]float64{}}
			for k, m := range v.Metrics {
				r.metrics[k] = m.Value
			}
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdict judges set b against set a for one metric. A metric whose spread
// (interquartile distance over median) exceeds its bound in either set is
// unresolved, unless every run of b reads better than every run of a;
// otherwise it is worse when b's median is worse than a's by more than the
// bound, and ok if not.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	if higherBetter {
		change = -change
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "ok"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	case change > bound:
		return "worse"
	}
	return "ok"
}

// compareLogs applies the BENCHMARK.json bounds to every workload ×
// end-to-end metric of two sets of runs and prints one row per pairing.
// It exits 1 unless every pairing is ok and every run was correct.
func compareLogs(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "postopc-bench:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "postopc-bench: %s: %v\n", specPath, err)
		return 2
	}
	sets := make([][]runOutput, 2)
	for i, p := range []string{aPath, bPath} {
		if sets[i], err = readRunOutputs(p); err != nil {
			fmt.Fprintln(stderr, "postopc-bench:", err)
			return 2
		}
	}
	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	for _, wl := range spec.Workloads {
		for si, set := range sets {
			for _, r := range set {
				if r.workload == wl.Name && !r.correct {
					fmt.Fprintf(stderr, "%s: set %c has an incorrect run\n", wl.Name, 'A'+si)
					code = 1
				}
			}
		}
		for _, m := range spec.EndToEnd {
			var vals [2][]float64
			for si, set := range sets {
				for _, r := range set {
					if v, ok := r.metrics[m.Name]; ok && r.workload == wl.Name {
						vals[si] = append(vals[si], v)
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t(n=%d)\t(n=%d)\t\t%.2f\tmissing\n", wl.Name, m.Name, len(vals[0]), len(vals[1]), m.Bound)
				code = 1
				continue
			}
			v := verdict(vals[0], vals[1], m.Better == "higher", m.Bound)
			if v != "ok" {
				code = 1
			}
			ma, mb := median(vals[0]), median(vals[1])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.2f\t%s\n", wl.Name, m.Name,
				summary(vals[0], m.Unit), summary(vals[1], m.Unit), 100*(mb-ma)/ma, m.Bound, v)
		}
	}
	tw.Flush()
	return code
}

func summary(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g] (%d)", median(xs), unit, q1, q3, len(xs))
}
