package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare and the tests read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// readRecords loads an -out file: per workload, per metric, the values
// of its untraced runs in file order. A run with a failed check or a
// failed op measured something else than the benchmark; it is left out
// and counted in skipped.
func readRecords(path string) (vals map[string]map[string][]float64, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, 0, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Correct {
			skipped++
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, skipped, sc.Err()
}

// quartiles is Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), the rule the driver applies to ten runs.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// verdict classifies one workload × metric pair: b against a.
//
//	unresolved — either side's run-to-run spread is wider than the
//	             bound, unless every run of b reads better than every
//	             run of a;
//	worse      — b's median is worse than a's by more than the bound;
//	ok         — otherwise.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (string, float64, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worseBy := 0.0
	if ma != 0 {
		worseBy = (mb - ma) / math.Abs(ma)
		if higherIsBetter {
			worseBy = -worseBy
		}
	}
	sp := math.Max(spread(a), spread(b))
	if sp > bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		allBetter := sb[len(sb)-1] < sa[0]
		if higherIsBetter {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return "unresolved", worseBy, sp
		}
	}
	if worseBy > bound {
		return "worse", worseBy, sp
	}
	return "ok", worseBy, sp
}

// compareFiles prints one row per workload × end-to-end metric and
// reports whether any row is worse.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (anyWorse bool, err error) {
	bench, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, skipA, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, skipB, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	if skipA+skipB > 0 {
		fmt.Fprintf(w, "left out %d run(s) of %s and %d of %s: correct=false\n", skipA, aPath, skipB, bPath)
	}
	fmt.Fprintf(w, "%-14s %-20s %5s %12s %12s %9s %8s %6s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "b worse", "spread", "bound", "verdict")
	for _, wlDecl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := a[wlDecl.Name][m.Name], b[wlDecl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-20s %5s %12s %12s %9s %8s %6.2f  %s\n",
					wlDecl.Name, m.Name, fmt.Sprintf("%d/%d", len(va), len(vb)), "-", "-", "-", "-", m.Bound, "missing")
				continue
			}
			v, worseBy, sp := verdict(va, vb, m.Better == "higher", m.Bound)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(w, "%-14s %-20s %5s %12.5g %12.5g %+8.2f%% %7.2f%% %6.2f  %s\n",
				wlDecl.Name, m.Name, fmt.Sprintf("%d/%d", len(va), len(vb)), ma, mb, 100*worseBy, 100*sp, m.Bound, v)
			anyWorse = anyWorse || v == "worse"
		}
	}
	return anyWorse, nil
}
