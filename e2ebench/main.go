// Command e2ebench is the end-to-end and per-layer benchmark of the
// factor-window server. It launches real fwserve (and, for the routed
// workload, fwworker) processes, drives them over sockets the way a
// client does — queries registered over HTTP, binary event frames
// ingested over the stream listener or POST /ingest, results
// subscribed over the stream listener — and checks every result row
// against a reference computed from the original unshared plan.
//
// Run it from the repository root through its wrapper, which builds the
// binaries first:
//
//	bash e2ebench/run.sh --workload paper-steady --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of a closed-loop
// phase (one frame in flight, each ingest waits for its ack) plus an
// open-loop diagnostic. The timed end-to-end metrics (adj_*, setup_s)
// are scaled to a reference host speed, measured by the benchmark
// process's own fixed CPU work per event over the same interval; the
// unscaled values are printed as raw.* diagnostics. With --trace 1 it runs a shorter closed loop for
// the per-process CPU split and then replays the same generated frames
// in-process through each layer's public functions with spans around
// the calls, reporting the per-layer metrics; spans and a report per run
// are written under .bench_build/run/out. The metric names and units are
// read from BENCHMARK.json. The last line of standard output is the
// JSON result.
//
// bash e2ebench/steady.sh runs every workload over several seeds twice
// and compares the two sets against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runEnv locates the built binaries and the benchmark's scratch space.
type runEnv struct {
	bin  string // fwserve and fwworker
	work string // WAL directories
	out  string // reports and spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "event generator seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding fwserve and fwworker")
		work    = flag.String("work", ".bench_build/run", "scratch directory for WALs, reports and spans")
		bench   = flag.String("bench", "BENCHMARK.json", "benchmark definition listing the metrics to report")
		steady  = flag.Bool("steady", false, "compare two sets of result files (args: set1.jsonl set2.jsonl)")
	)
	flag.Parse()
	bf, err := readBenchFile(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if *steady {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2ebench -steady set1.jsonl set2.jsonl")
			os.Exit(2)
		}
		if err := steadyCheck(os.Stdout, bf, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	// One generator process with at most two threads running Go code,
	// and fewer GC cycles from the per-frame generation garbage.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	debug.SetGCPercent(400)

	s, err := findSpec(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("bad --seconds %d or --trace %d", *seconds, *trace)
		}
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	env := &runEnv{bin: *bin, work: *work, out: filepath.Join(*work, "out")}
	if err := os.MkdirAll(env.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res, err := run(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1, env, bf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is everything one run measured; it is written to the out
// directory next to the spans.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Result      result             `json:"result"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Parts       []partRecord       `json:"parts"`
	Digest      string             `json:"digest"`
	WantDigest  string             `json:"expected_digest"`
}

// run measures one workload and prints every metric by name with its
// unit, then the diagnostics.
func run(s *spec, seed int64, seconds time.Duration, trace bool, env *runEnv, bf *benchFile) (*result, error) {
	src := newSource(s, seed)
	e, err := runE2E(src, seconds, trace, env)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: e.correct, Attempted: e.attempted, Failed: e.failed, Metrics: make(map[string]metric)}
	rep := report{Workload: s.name, Seed: seed, Trace: trace, Digest: e.digest, WantDigest: e.wantDigest, Diagnostics: e.diag, Parts: e.parts}
	listed := bf.EndToEnd
	measured := e.metrics
	if trace {
		listed = bf.PerLayer
		lm, err := runLayers(src, env, e.workerAddrs())
		e.stopWorkers()
		if err != nil {
			return nil, err
		}
		for k, v := range e.layer {
			lm[k] = v
		}
		measured = lm
	}
	// The reported names and units are BENCHMARK.json's; a listed metric
	// the run did not measure, or a measured one it does not list, is a
	// fault of the benchmark.
	for _, m := range listed {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range measured {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	rep.Result = *res

	fmt.Printf("workload %s seed %d trace %t correct %t attempted %d failed %d\n",
		s.name, seed, trace, res.Correct, res.Attempted, res.Failed)
	for _, m := range listed {
		fmt.Printf("%-36s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	keys := make([]string, 0, len(e.diag))
	for k := range e.diag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %14.6g\n", k, e.diag[k])
	}
	fmt.Printf("  %-34s %14s\n", "digest.prefix", e.digest)
	fmt.Printf("  %-34s %14s\n", "digest.expected", e.wantDigest)

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(env.out, fmt.Sprintf("report-%s-seed%d-trace%d.json", s.name, seed, btoi(trace)))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
