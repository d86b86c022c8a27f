package main

import (
	"bytes"
	"fmt"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"factorwindows/internal/admit"
	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/cost"
	"factorwindows/internal/engine"
	"factorwindows/internal/multiquery"
	"factorwindows/internal/parallel"
	"factorwindows/internal/plan"
	"factorwindows/internal/reorder"
	"factorwindows/internal/router"
	"factorwindows/internal/server"
	"factorwindows/internal/stream"
	"factorwindows/internal/wal"
	"factorwindows/internal/wire"
)

// replayFrames is how many frames the traced replay pushes through each
// layer: 2M events, enough ticks for the longest generated window (500
// ticks) to fire even at fanout-egress's one tick per frame.
const replayFrames = 512

// streamChunk mirrors the server's per-poll result frame size.
const streamChunk = 1024

// layerEnv is what one traced replay works from.
type layerEnv struct {
	s       *spec
	frames  [][]byte         // encoded event frames
	events  [][]stream.Event // the same frames decoded
	nEvents int64
	workers []string // fwworker addresses for routed passes
	work    string   // scratch directory for WALs
}

// stack picks the optional layers of one pipeline pass: routed
// execution on fwworker processes instead of in-process shards, and a
// WAL.
type stack struct {
	routed, durable bool
}

// tracedConsumer wraps the execution runner the reorder buffer feeds,
// so each Process call becomes a child span of the push.
type tracedConsumer struct {
	r    reorder.Consumer
	tr   *tracer
	name string
}

func (c *tracedConsumer) Process(events []stream.Event) {
	id := c.tr.begin(c.name)
	c.r.Process(events)
	c.tr.end(id)
}

// tracedSink times the multiquery routing sink, which the runner's
// ordered drain calls on the driving goroutine inside Barrier.
type tracedSink struct {
	inner stream.Sink
	tr    *tracer
	rows  int64
}

func (s *tracedSink) Emit(r stream.Result) {
	id := s.tr.begin("multiquery.sink")
	s.inner.Emit(r)
	s.tr.end(id)
	s.rows++
}

func (s *tracedSink) EmitBatch(rs []stream.Result) {
	id := s.tr.begin("multiquery.sink")
	stream.EmitAll(s.inner, rs)
	s.tr.end(id)
	s.rows += int64(len(rs))
}

// countConn counts the bytes the router moves over one worker connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// execRunner is the part of parallel.Runner and router.Runner the
// replay drives.
type execRunner interface {
	Process([]stream.Event)
	Advance(int64)
	Barrier()
	Close()
	Err() error
	SetOrderedDrain(bool)
}

// pipelineStats is what one hand-assembled pipeline pass measured
// outside its spans.
type pipelineStats struct {
	wall         time.Duration
	late, seen   int64
	bufferedPeak int
	egressPeak   int64
	sinkRows     int64
	encodedRows  int64
	bytesOut     int64
	routerBytes  int64
	walBytes     int64
}

// pipelinePass replays the frames through the same stack the server
// assembles — admission, frame decode, WAL staging when st.durable,
// reorder buffer, key-sharded or (st.routed) routed execution with
// ordered drain, multiquery routing, and result-frame encoding —
// calling each layer's public functions directly, with a span around
// every call.
func pipelinePass(e *layerEnv, st stack, tr *tracer) (pipelineStats, error) {
	var ps pipelineStats
	s := e.s
	mp, err := multiquery.Optimize(s.mqQueries(), agg.Min, optimizeOptions())
	if err != nil {
		return ps, err
	}
	ids := make(map[string]int)
	for q := range s.queries {
		ids[queryID(q)] = q
	}
	staged := make([][]stream.Result, len(s.queries))
	sink := &tracedSink{tr: tr, inner: mp.BatchSink(func(rb multiquery.RoutedBatch) {
		for _, id := range rb.QueryIDs {
			q := ids[id]
			staged[q] = append(staged[q], rb.Results...)
		}
	})}
	var runner execRunner
	kind := "parallel"
	var routed atomic.Int64
	if st.routed {
		kind = "router"
		runner, err = router.New(router.Spec{
			Queries:    s.mqQueries(),
			Fn:         agg.Min,
			Factors:    true,
			Shards:     s.shards,
			Workers:    e.workers,
			FreshFloor: reorder.NoRelease,
			Dial: func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return countConn{Conn: c, n: &routed}, nil
			},
		}, sink)
	} else {
		runner, err = parallel.New(mp.Combined, sink, s.shards)
	}
	if err != nil {
		return ps, err
	}
	defer runner.Close()
	runner.SetOrderedDrain(true)
	consumer := &tracedConsumer{r: runner, tr: tr, name: kind + ".process"}
	buf, err := reorder.New(consumer, s.bound, s.policy, func(stream.Event) { ps.late++ })
	if err != nil {
		return ps, err
	}
	ctl := admit.New(admit.Options{GlobalBytes: 128 << 20, SourceBytes: 32 << 20, MaxWait: 100 * time.Millisecond})
	var log *wal.Log
	walDir := filepath.Join(e.work, fmt.Sprintf("replay-wal-%d", os.Getpid()))
	if st.durable {
		os.RemoveAll(walDir)
		defer os.RemoveAll(walDir)
		if log, err = wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncInterval, FsyncInterval: 50 * time.Millisecond}); err != nil {
			return ps, err
		}
		defer func() {
			if log != nil { // an error path left it open
				log.Close(false)
			}
		}()
	}
	fr := wire.NewReader(nil)
	defer fr.Close()
	batch := make([]stream.Event, 0, 8192)
	var enc []byte
	t0 := time.Now()
	for k, fb := range e.frames {
		tr.frame = int64(k)
		root := tr.begin("frame")

		id := tr.begin("admit.acquire")
		g, err := ctl.Acquire("bench", int64(len(fb)))
		tr.end(id)
		if err != nil {
			return ps, err
		}

		id = tr.begin("wire.decode")
		fr.Reset(bytes.NewReader(fb))
		f, err := fr.Next()
		if err == nil {
			batch = f.AppendEvents(batch[:0])
		}
		tr.end(id)
		if err != nil {
			return ps, err
		}

		var commit *wal.Commit
		if log != nil {
			id = tr.begin("wal.append")
			commit, err = log.Append(batch)
			tr.end(id)
			if err != nil {
				return ps, err
			}
		}

		id = tr.begin("reorder.push")
		buf.Push(batch)
		tr.end(id)
		ps.seen += int64(len(batch))
		ps.bufferedPeak = max(ps.bufferedPeak, buf.Buffered())

		if rel := buf.Released(); rel > reorder.NoRelease {
			id = tr.begin(kind + ".advance")
			runner.Advance(rel)
			tr.end(id)
		}
		id = tr.begin(kind + ".barrier")
		runner.Barrier()
		tr.end(id)
		if err := runner.Err(); err != nil {
			return ps, err
		}

		if commit != nil {
			id = tr.begin("wal.commit_wait")
			_, err = commit.Wait()
			tr.end(id)
			if err != nil {
				return ps, err
			}
		}
		g.Release()

		id = tr.begin("wire.encode")
		for q, rows := range staged {
			for off := 0; off < len(rows); off += streamChunk {
				part := rows[off:min(off+streamChunk, len(rows))]
				re := wire.BeginResultFrame(enc[:0], uint32(q+1), ps.encodedRows, len(part))
				for i := range part {
					r := &part[i]
					re.SetRow(i, r.W.Range, r.W.Slide, r.Start, r.End, r.Key, r.Value)
				}
				enc = re.Bytes()
				ps.bytesOut += int64(len(enc))
				ps.encodedRows += int64(len(part))
			}
			staged[q] = rows[:0]
		}
		tr.end(id)
		tr.end(root)
	}
	ps.wall = time.Since(t0)
	ps.sinkRows = sink.rows
	if p, ok := runner.(*parallel.Runner); ok {
		ps.egressPeak = p.EgressPeak()
	}
	ps.routerBytes = routed.Load()
	if log != nil {
		err := log.Close(true)
		log = nil
		if err != nil {
			return ps, err
		}
		ps.walBytes = dirBytes(walDir)
	}
	return ps, nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// optimizeOptions is the optimizer configuration a fresh server plans
// with: factor windows on, the default rate η = 1.
func optimizeOptions() core.Options {
	return core.Options{Factors: true, Model: cost.Model{Eta: 1}}
}

// serverPass replays the decoded frames through an in-process server
// configured like the deployment, one Server.Ingest span per frame,
// reading each query's new rows after every frame as a subscriber would.
func serverPass(e *layerEnv, tr *tracer) (readRows int64, err error) {
	s := e.s
	cfg := server.Config{
		Shards:       s.shards,
		Factors:      true,
		ReorderBound: s.bound,
		Policy:       s.policy,
		ResultBuffer: s.resultBuffer,
		ReorderCap:   1 << 20,
	}
	if s.workers > 0 {
		cfg.Workers = e.workers
	}
	walDir := filepath.Join(e.work, fmt.Sprintf("server-wal-%d", os.Getpid()))
	if s.durable {
		os.RemoveAll(walDir)
		defer os.RemoveAll(walDir)
		cfg.Durable, cfg.WALDir, cfg.Fsync, cfg.FsyncInterval = true, walDir, wal.FsyncInterval, 50*time.Millisecond
	}
	srv, err := server.Open(cfg)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	for q, ws := range s.queries {
		if _, err := srv.Register(queryID(q), querySQL(ws)); err != nil {
			return 0, err
		}
	}
	after := make([]int64, len(s.queries))
	for q := range after {
		after[q] = -1
	}
	for k, evs := range e.events {
		tr.frame = int64(k)
		id := tr.begin("server.ingest")
		_, err := srv.Ingest(evs)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		for q := range s.queries {
			for {
				id := tr.begin("server.read")
				rows, missed, err := srv.Results(queryID(q), after[q], streamChunk)
				tr.end(id)
				if err != nil {
					return 0, err
				}
				if missed > 0 {
					return 0, fmt.Errorf("server pass: ring evicted %d rows", missed)
				}
				if len(rows) == 0 {
					break
				}
				after[q] = rows[len(rows)-1].Seq
				readRows += int64(len(rows))
			}
		}
	}
	return readRows, nil
}

// enginePass replays the stream through one single-threaded engine
// running p behind a reorder buffer: the baseline without sharding or
// serving. Spans named name cover every engine call; it returns the
// engine's update count.
func enginePass(e *layerEnv, p *plan.Plan, tr *tracer, name string) (int64, error) {
	eng, err := engine.New(p, &stream.CountingSink{})
	if err != nil {
		return 0, err
	}
	consumer := &tracedConsumer{r: eng, tr: tr, name: name}
	buf, err := reorder.New(consumer, e.s.bound, e.s.policy, nil)
	if err != nil {
		return 0, err
	}
	for k, evs := range e.events {
		tr.frame = int64(k)
		buf.Push(evs)
		if rel := buf.Released(); rel > reorder.NoRelease {
			id := tr.begin(name)
			eng.Advance(rel)
			tr.end(id)
		}
	}
	return eng.TotalUpdates(), nil
}

// layerMetrics derives per-layer metrics from one pipeline pass's
// spans: with common, those of the layers every stack has; always,
// those of the execution tier and the WAL the pass ran with. Two passes
// over complementary stacks together fill every layer.
func layerMetrics(m map[string]float64, st stack, common bool, ps pipelineStats, spans []span, ev float64) {
	total, self, calls := layerTimes(spans)
	perEvent := func(name string, t map[string]int64) float64 { return float64(t[name]) / ev }
	perCall := func(name string) float64 { return float64(total[name]) / float64(max(calls[name], 1)) }
	if st.routed {
		m["router.process_ns_per_event"] = perEvent("router.process", total)
		m["router.barrier_ns"] = perCall("router.barrier")
		m["router.bytes_per_event"] = float64(ps.routerBytes) / ev
	} else {
		m["parallel.process_ns_per_event"] = perEvent("parallel.process", total)
		m["parallel.barrier_wait_ns_per_event"] = perEvent("parallel.barrier", self)
		m["parallel.egress_peak"] = float64(ps.egressPeak)
	}
	if st.durable {
		m["wal.append_ns_per_event"] = perEvent("wal.append", total)
		m["wal.commit_wait_ns"] = perCall("wal.commit_wait")
		m["wal.bytes_per_event"] = float64(ps.walBytes) / ev
	}
	if !common {
		return
	}
	m["wire.decode_ns_per_event"] = perEvent("wire.decode", total)
	m["admit.acquire_ns"] = perCall("admit.acquire")
	m["reorder.push_self_ns_per_event"] = perEvent("reorder.push", self)
	m["reorder.late_frac"] = float64(ps.late) / float64(ps.seen)
	m["reorder.buffered_peak"] = float64(ps.bufferedPeak)
	if ps.encodedRows > 0 {
		m["wire.encode_ns_per_row"] = float64(total["wire.encode"]) / float64(ps.encodedRows)
		m["wire.bytes_out_per_row"] = float64(ps.bytesOut) / float64(ps.encodedRows)
	}
	if ps.sinkRows > 0 {
		m["multiquery.sink_ns_per_row"] = float64(total["multiquery.sink"]) / float64(ps.sinkRows)
	}
}

func stopAll(ps []*proc) {
	for _, p := range ps {
		p.stop()
	}
}

// runLayers is the traced run: it replays the workload's first frames
// through each layer and derives the per-layer metrics from the spans,
// which it writes to the out directory.
func runLayers(src *eventSource, env *runEnv, workers []string) (map[string]float64, error) {
	s := src.s
	m := make(map[string]float64)
	le := &layerEnv{s: s, workers: workers, work: env.work}
	for k := int64(0); k < replayFrames; k++ {
		evs := src.frame(k)
		fb, _ := src.encode(nil, k, uint32(k+1))
		le.events = append(le.events, evs)
		le.frames = append(le.frames, fb)
		le.nEvents += int64(len(evs))
	}
	ev := float64(le.nEvents)

	// Planning: the optimizer behind every (re)plan and setup.
	var opt []float64
	var mp *multiquery.Plan
	for i := 0; i < 5; i++ {
		t := time.Now()
		p, err := multiquery.Optimize(s.mqQueries(), agg.Min, optimizeOptions())
		if err != nil {
			return nil, err
		}
		opt = append(opt, float64(time.Since(t))/1e6)
		mp = p
	}
	m["core.optimize_ms"] = median(opt)
	ratio, _ := new(big.Rat).SetFrac(mp.Optimization.OptimizedCost, mp.Optimization.NaiveCost).Float64()
	m["core.cost_ratio"] = ratio
	m["plan.factors"] = float64(mp.Combined.CountFactors())

	// Key placement across shards.
	counts := make([]int64, s.shards)
	for _, evs := range le.events {
		for i := range evs {
			counts[parallel.ShardOf(evs[i].Key, s.shards)]++
		}
	}
	var most int64
	for _, c := range counts {
		most = max(most, c)
	}
	m["parallel.shard_skew"] = float64(most) * float64(s.shards) / ev

	// The deployment's stack with spans off, on, and off again: the
	// traced pass gives the layer numbers, and its wall time over the
	// faster untraced pass is the tracing overhead.
	deployed := stack{routed: s.workers > 0, durable: s.durable}
	off, err := pipelinePass(le, deployed, newTracer(false))
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer(true)
	ps, err := pipelinePass(le, deployed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	off2, err := pipelinePass(le, deployed, newTracer(false))
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	m["trace.overhead"] = float64(ps.wall) / float64(min(off.wall, off2.wall))
	layerMetrics(m, deployed, true, ps, tr.spans, ev)

	// The other stack, routed and WAL flipped, so that every layer is
	// measured on this workload's frames: in-process shards or the
	// router, with a WAL or without. The router runs on the deployment's
	// fwworker processes, or on two launched for this pass, whose CPU
	// over the pass is the shardworker's share.
	other := stack{routed: !deployed.routed, durable: !deployed.durable}
	var ws []*proc
	if other.routed {
		for i := 0; i < 2; i++ {
			w, err := launch(fmt.Sprintf("fwworker%d", i), filepath.Join(env.bin, "fwworker"),
				[]string{"-addr", "127.0.0.1:0"}, []string{"listening on "}, 30*time.Second)
			if err != nil {
				stopAll(ws)
				return nil, err
			}
			ws = append(ws, w)
			le.workers = append(le.workers, w.addr("listening on "))
		}
	}
	cpu0, err := cpuOf(ws)
	if err != nil {
		stopAll(ws)
		return nil, err
	}
	trOther := newTracer(true)
	psOther, err := pipelinePass(le, other, trOther)
	cpu1, cpuErr := cpuOf(ws)
	stopAll(ws)
	if err != nil {
		return nil, fmt.Errorf("%+v pass: %w", other, err)
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	layerMetrics(m, other, false, psOther, trOther.spans, ev)
	if err := writeSpans(filepath.Join(env.out, fmt.Sprintf("spans-%s-seed%d-other.json", s.name, src.seed)), trOther.spans); err != nil {
		return nil, err
	}
	if other.routed {
		var cpu int64
		for i := range ws {
			cpu += cpu1[i] - cpu0[i]
		}
		m["shardworker.cpu_ns_per_event"] = float64(cpu) / ev
	}

	// The server as one unit: Server.Ingest as the parent span over all
	// of the layers above, and ring reads.
	readRows, err := serverPass(le, tr)
	if err != nil {
		return nil, fmt.Errorf("server pass: %w", err)
	}
	total, _, _ := layerTimes(tr.spans)
	m["server.ingest_ns_per_event"] = float64(total["server.ingest"]) / ev
	if readRows > 0 {
		m["server.read_ns_per_row"] = float64(total["server.read"]) / float64(readRows)
	}

	// The single-threaded engine baseline, factored against original.
	updates, err := enginePass(le, mp.Combined, tr, "engine.factored")
	if err != nil {
		return nil, err
	}
	orig, err := plan.NewOriginal(s.unionSet(), agg.Min)
	if err != nil {
		return nil, err
	}
	if _, err := enginePass(le, orig, tr, "engine.original"); err != nil {
		return nil, err
	}
	total, _, _ = layerTimes(tr.spans)
	m["engine.process_ns_per_event"] = float64(total["engine.factored"]) / ev
	m["engine.updates_per_event"] = float64(updates) / ev
	m["engine.boost"] = float64(total["engine.original"]) / float64(total["engine.factored"])
	return m, writeSpans(filepath.Join(env.out, fmt.Sprintf("spans-%s-seed%d.json", s.name, src.seed)), tr.spans)
}
