package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchMetric is one metric listed in BENCHMARK.json; per-layer
// metrics have no bound.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json the benchmark reads: the
// metrics it reports, with their units, and the end-to-end bounds.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end or no per_layer metrics", path)
	}
	return &bf, nil
}

// runLine is one run in a set file, as steady.sh writes it.
type runLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// readSet groups a set file's values by workload and metric.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r runLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s: %s seed %d failed its correctness check", path, r.Workload, r.Seed)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Result.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) (med, q1, q3, rel float64) {
	q1, _, q3 = quartiles(values)
	med = median(values)
	return med, q1, q3, (q3 - q1) / med
}

// steadyCheck compares two sets of runs of the same code against the
// bounds in BENCHMARK.json. For every workload and end-to-end metric it
// prints each set's median, quartiles and spread, and the shift of the
// second median against the first in the worse direction. A metric
// whose spread exceeds its bound cannot resolve a regression of that
// size and is printed as unresolved; a spread above a third of the
// bound is flagged as wide. It fails when any metric is unresolved or
// shifted by more than its bound.
func steadyCheck(w io.Writer, bf *benchFile, set1, set2 string) error {
	a, err := readSet(set1)
	if err != nil {
		return err
	}
	c, err := readSet(set2)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		names = append(names, wl)
	}
	sort.Strings(names)
	bad := 0
	fmt.Fprintf(w, "%-15s %-16s %5s | %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %s\n",
		"workload", "metric", "bound", "med1", "q1", "q3", "spread1", "med2", "q1", "q3", "spread2", "shift", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			v1, v2 := a[wl][m.Name], c[wl][m.Name]
			if len(v1) == 0 || len(v2) == 0 {
				fmt.Fprintf(w, "%-15s %-16s missing in a set\n", wl, m.Name)
				bad++
				continue
			}
			m1, a1, a3, s1 := spread(v1)
			m2, b1, b3, s2 := spread(v2)
			shift := (m2 - m1) / m1
			if m.Better == "higher" {
				shift = -shift
			}
			verdict := "ok"
			switch {
			case max(s1, s2) > m.Bound:
				verdict = "unresolved"
				bad++
			case shift > m.Bound:
				verdict = "shifted"
				bad++
			case max(s1, s2) > m.Bound/3:
				verdict = "wide"
			}
			fmt.Fprintf(w, "%-15s %-16s %5.2f | %12.6g %12.6g %12.6g %7.4f | %12.6g %12.6g %12.6g %7.4f | %7.4f %s\n",
				wl, m.Name, m.Bound, m1, a1, a3, s1, m2, b1, b3, s2, shift, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) unresolved, shifted or missing", bad)
	}
	return nil
}
