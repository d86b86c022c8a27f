// Command fwrun executes a multi-window aggregate query over an event
// stream and reports either the window results or the throughput of the
// chosen plan variant.
//
// Usage:
//
//	fwrun -file query.sql -input events.csv -plan factored
//	fwrun -query "..." -dataset synthetic -events 1000000 -plan original -throughput
//	fwrun -file query.sql -dataset debs -plan slicing -throughput
//
// Plan variants: original (independent evaluation), rewritten
// (Algorithm 1), factored (Algorithm 3, the default), slicing (the
// Scotty-style baseline) and sliding (per-window incremental
// aggregation). Sketch-backed aggregates — PERCENTILE(v, φ),
// COUNT(DISTINCT v), TOPK(v, k) — run on every variant like any other
// function, with the query's parameter. Engine-based variants accept
// -shards for key-sharded parallel execution. A WHERE clause in the
// query filters events before any window sees them. Input is either a
// file with "time,key,value" CSV rows or JSON lines (-input/-format) or
// a generated dataset (-dataset).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"factorwindows/internal/asaql"
	"factorwindows/internal/core"
	"factorwindows/internal/engine"
	"factorwindows/internal/parallel"
	"factorwindows/internal/plan"
	"factorwindows/internal/slicing"
	"factorwindows/internal/sliding"
	"factorwindows/internal/stream"
	"factorwindows/internal/streamio"
	"factorwindows/internal/workload"
)

func main() {
	var (
		queryText  = flag.String("query", "", "ASA-style query text")
		queryFile  = flag.String("file", "", "file containing an ASA-style query")
		input      = flag.String("input", "", "event file (CSV time,key,value or JSON lines)")
		format     = flag.String("format", "csv", "event file format: csv or jsonl")
		dataset    = flag.String("dataset", "synthetic", "generated dataset when -input is absent: synthetic or debs")
		events     = flag.Int("events", 1_000_000, "generated dataset size")
		keys       = flag.Int("keys", 4, "generated dataset keys")
		pace       = flag.Int("pace", 4, "generated events per tick")
		seed       = flag.Int64("seed", 42, "generated dataset seed")
		planKind   = flag.String("plan", "factored", "plan variant: original, rewritten, factored, slicing, sliding")
		throughput = flag.Bool("throughput", false, "print throughput instead of results")
		limit      = flag.Int("limit", 20, "max result rows to print (0 = all)")
		shards     = flag.Int("shards", 1, "key shards for engine-based plans (>1 runs in parallel)")
	)
	flag.Parse()

	q, err := loadQuery(*queryText, *queryFile)
	if err != nil {
		fatal(err)
	}
	es, err := loadEvents(*input, *format, *dataset, *events, *keys, *pace, *seed)
	if err != nil {
		fatal(err)
	}
	if filter, err := q.Filter(); err != nil {
		fatal(err)
	} else if filter != nil {
		kept := es[:0]
		for _, e := range es {
			if filter(e.Key, e.Value) {
				kept = append(kept, e)
			}
		}
		es = kept
	}

	var sink stream.Sink
	collector := &stream.CollectingSink{}
	counter := &stream.CountingSink{}
	if *throughput {
		sink = counter
	} else {
		sink = collector
	}

	start := time.Now()
	if err := runPlan(*planKind, q, es, sink, *shards); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if *throughput {
		fmt.Printf("plan=%s events=%d elapsed=%v results=%d throughput=%.0f K events/s\n",
			*planKind, len(es), elapsed.Round(time.Millisecond), counter.N,
			float64(len(es))/elapsed.Seconds()/1e3)
		return
	}
	rows := collector.Sorted()
	fmt.Printf("plan=%s events=%d results=%d\n", *planKind, len(es), len(rows))
	for i, r := range rows {
		if *limit > 0 && i >= *limit {
			fmt.Printf("... (%d more rows)\n", len(rows)-i)
			break
		}
		fmt.Println(r)
	}
}

// runPlan evaluates the query's windows over es with the named plan
// variant. The query's finalize parameter (φ for PERCENTILE, k for TOPK)
// reaches every variant.
func runPlan(kind string, q *asaql.Query, es []stream.Event, sink stream.Sink, shards int) error {
	set, err := q.Set()
	if err != nil {
		return err
	}
	var p *plan.Plan
	switch kind {
	case "slicing":
		r, err := slicing.New(set, q.Fn, sink)
		if err != nil {
			return err
		}
		r.SetParam(q.Param)
		r.Process(es)
		r.Close()
		return nil
	case "sliding":
		r, err := sliding.New(set, q.Fn, sink)
		if err != nil {
			return err
		}
		r.SetParam(q.Param)
		r.Process(es)
		r.Close()
		return nil
	case "original":
		if p, err = plan.NewOriginal(set, q.Fn); err != nil {
			return err
		}
	case "rewritten", "factored":
		res, err := core.Optimize(set, q.Fn, core.Options{Factors: kind == "factored"})
		if err != nil {
			return err
		}
		pk := plan.Rewritten
		if kind == "factored" {
			pk = plan.Factored
		}
		if p, err = plan.FromGraph(res.Graph, q.Fn, pk); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -plan %q", kind)
	}
	p.Param = q.Param
	return runEngine(p, es, sink, shards)
}

// runEngine executes an engine plan, key-sharded when shards > 1.
func runEngine(p *plan.Plan, es []stream.Event, sink stream.Sink, shards int) error {
	if shards > 1 {
		_, err := parallel.Run(p, es, sink, shards)
		return err
	}
	_, err := engine.Run(p, es, sink)
	return err
}

func loadQuery(text, file string) (*asaql.Query, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		text = string(data)
	}
	if text == "" {
		return nil, fmt.Errorf("one of -query or -file is required")
	}
	return asaql.Parse(text)
}

func loadEvents(input, format, dataset string, events, keys, pace int, seed int64) ([]stream.Event, error) {
	if input == "" {
		cfg := workload.StreamConfig{Events: events, Keys: keys, EventsPerTick: pace, Seed: seed}
		switch dataset {
		case "synthetic":
			return workload.Synthetic(cfg), nil
		case "debs":
			return workload.DEBSLike(cfg), nil
		default:
			return nil, fmt.Errorf("unknown dataset %q", dataset)
		}
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return streamio.ReadEvents(f, format, true)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fwrun:", err)
	os.Exit(1)
}
