package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"factorwindows/internal/agg"
	"factorwindows/internal/engine"
	"factorwindows/internal/plan"
	"factorwindows/internal/reorder"
	"factorwindows/internal/server"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// prefixFrames is how many leading frames the sequence-exact stream
// digest covers. Every run ingests at least this many, so the digest of
// two workloads with the same query and stream compares across runs.
const prefixFrames = 256

// groupKey identifies one fired window instance of one query.
type groupKey struct {
	q          int32
	rng, slide int64
	end        int64
}

// groupSum is an order-independent digest of a group's rows.
type groupSum struct {
	n        int64
	sum, xor uint64
}

// rowDigest digests result rows per (query, window instance), ignoring
// sequence numbers and arrival order.
type rowDigest map[groupKey]*groupSum

func rowHash(key uint64, start int64, value float64) uint64 {
	h := uint64(splitmix(int64(key), start, int64(math.Float64bits(value))))
	return h | 1
}

func (d rowDigest) add(q int, rng, slide, start, end int64, key uint64, value float64) {
	d.group(groupKey{q: int32(q), rng: rng, slide: slide, end: end}).add(key, start, value)
}

// group returns the digest of one group, creating it on first use.
func (d rowDigest) group(k groupKey) *groupSum {
	g := d[k]
	if g == nil {
		g = &groupSum{}
		d[k] = g
	}
	return g
}

func (g *groupSum) add(key uint64, start int64, value float64) {
	h := rowHash(key, start, value)
	g.n++
	g.sum += h
	g.xor ^= h
}

// mismatchedRows counts rows missing from or extra in got relative to
// want. A group whose count matches but whose digest differs counts all
// its rows as wrong.
func mismatchedRows(want, got rowDigest) int64 {
	var bad int64
	for k, w := range want {
		g := got[k]
		switch {
		case g == nil:
			bad += w.n
		case g.n != w.n:
			bad += max(w.n-g.n, g.n-w.n)
		case g.sum != w.sum || g.xor != w.xor:
			bad += w.n
		}
	}
	for k, g := range got {
		if want[k] == nil {
			bad += g.n
		}
	}
	return bad
}

// reference computes the rows the first frames of the stream must
// produce, per query, with the original unshared plan (every window
// evaluated on its own) run single-threaded through the engine behind a
// reorder buffer with the workload's bound and policy. Only instances
// the release horizon has passed are emitted, as on a server. Frames
// listed in skip were not applied by the server and are left out. It
// also returns the share of events the reorder buffer judged late.
//
// Windows of the original plan share nothing, so the union splits into
// two halves computed on two goroutines, each behind its own copy of the
// reorder buffer.
func reference(src *eventSource, frames int64, skip []int64) (rowDigest, []int64, float64, error) {
	s := src.s
	var halves [2]*window.Set
	for i, w := range s.unionSet().Sorted() {
		if halves[i%2] == nil {
			halves[i%2] = &window.Set{}
		}
		halves[i%2].Add(w)
	}
	type part struct {
		d      rowDigest
		counts []int64
		late   float64
		err    error
	}
	var parts [2]part
	var wg sync.WaitGroup
	for h, set := range halves {
		if set == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[h]
			p.d, p.counts, p.late, p.err = referenceOf(src, set, frames, skip)
		}()
	}
	wg.Wait()
	d := make(rowDigest)
	counts := make([]int64, len(s.queries))
	for _, p := range parts {
		if p.err != nil {
			return nil, nil, 0, p.err
		}
		for k, g := range p.d {
			d[k] = g
		}
		for q, c := range p.counts {
			counts[q] += c
		}
	}
	return d, counts, parts[0].late, nil
}

// referenceOf computes the reference rows of the windows in set.
func referenceOf(src *eventSource, set *window.Set, frames int64, skip []int64) (rowDigest, []int64, float64, error) {
	s := src.s
	p, err := plan.NewOriginal(set, agg.Min)
	if err != nil {
		return nil, nil, 0, err
	}
	subs := make(map[window.Window][]int)
	for q, ws := range s.queries {
		for _, w := range ws {
			if set.Contains(w) {
				subs[w] = append(subs[w], q)
			}
		}
	}
	d := make(rowDigest)
	counts := make([]int64, len(s.queries))
	sink := &refSink{fn: func(r stream.Result) {
		for _, q := range subs[r.W] {
			d.add(q, r.W.Range, r.W.Slide, r.Start, r.End, r.Key, r.Value)
			counts[q]++
		}
	}}
	eng, err := engine.New(p, sink)
	if err != nil {
		return nil, nil, 0, err
	}
	var late, seen int64
	buf, err := reorder.New(eng, s.bound, s.policy, func(stream.Event) { late++ })
	if err != nil {
		return nil, nil, 0, err
	}
	skipped := make(map[int64]bool, len(skip))
	for _, k := range skip {
		skipped[k] = true
	}
	for k := int64(0); k < frames; k++ {
		if skipped[k] {
			continue
		}
		evs := src.frame(k)
		seen += int64(len(evs))
		buf.Push(evs)
		if rel := buf.Released(); rel > reorder.NoRelease {
			eng.Advance(rel)
		}
	}
	return d, counts, float64(late) / float64(max(seen, 1)), nil
}

type refSink struct{ fn func(stream.Result) }

func (s *refSink) Emit(r stream.Result) { s.fn(r) }

func (s *refSink) EmitBatch(rs []stream.Result) {
	for _, r := range rs {
		s.fn(r)
	}
}

// seqHasher digests one query's result stream in sequence order,
// sequence numbers included, exactly as the stream listener frames it.
type seqHasher struct {
	h   hash.Hash64
	buf [56]byte
}

func newSeqHasher() *seqHasher { return &seqHasher{h: fnv.New64a()} }

func (s *seqHasher) add(seq, rng, slide, start, end int64, key uint64, value float64) {
	b := s.buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(seq))
	binary.LittleEndian.PutUint64(b[8:], uint64(rng))
	binary.LittleEndian.PutUint64(b[16:], uint64(slide))
	binary.LittleEndian.PutUint64(b[24:], uint64(start))
	binary.LittleEndian.PutUint64(b[32:], uint64(end))
	binary.LittleEndian.PutUint64(b[40:], key)
	binary.LittleEndian.PutUint64(b[48:], math.Float64bits(value))
	s.h.Write(b)
}

// prefixDigest is the sequence-exact digest of every query's stream
// over the first prefixFrames frames, and each query's row count there.
type prefixDigest struct {
	counts []int64
	sums   []uint64
}

// combined folds the per-query digests into one printable value.
func (p prefixDigest) combined() string {
	h := fnv.New64a()
	var b [16]byte
	for q := range p.sums {
		binary.LittleEndian.PutUint64(b[0:], uint64(p.counts[q]))
		binary.LittleEndian.PutUint64(b[8:], p.sums[q])
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// expectedPrefix replays the first prefixFrames frames through an
// in-process single-process server with the workload's shard count and
// digests each query's ring in sequence order. Every deployment of the
// same queries and stream must deliver byte-identical streams.
func expectedPrefix(src *eventSource) (prefixDigest, error) {
	s := src.s
	srv := server.New(server.Config{
		Shards:       s.shards,
		Factors:      true,
		ReorderBound: s.bound,
		Policy:       s.policy,
		ResultBuffer: 1 << 22,
		ReorderCap:   1 << 20,
	})
	defer srv.Close()
	for q, ws := range s.queries {
		if _, err := srv.Register(queryID(q), querySQL(ws)); err != nil {
			return prefixDigest{}, err
		}
	}
	for k := int64(0); k < prefixFrames; k++ {
		if _, err := srv.Ingest(src.frame(k)); err != nil {
			return prefixDigest{}, err
		}
	}
	pd := prefixDigest{counts: make([]int64, len(s.queries)), sums: make([]uint64, len(s.queries))}
	for q := range s.queries {
		rows, missed, err := srv.Results(queryID(q), -1, 0)
		if err != nil {
			return prefixDigest{}, err
		}
		if missed > 0 {
			return prefixDigest{}, fmt.Errorf("reference ring evicted %d rows", missed)
		}
		h := newSeqHasher()
		for _, r := range rows {
			h.add(r.Seq, r.Range, r.Slide, r.Start, r.End, r.Key, r.Value)
		}
		pd.counts[q] = int64(len(rows))
		pd.sums[q] = h.h.Sum64()
	}
	return pd, nil
}

// triggerFrame maps a window instance ending at end to the first frame
// whose running maximum event time reaches end+bound: the frame whose
// ingest moves the release horizon (max time − bound) to end or past it,
// firing the instance. runMax holds each frame's running maximum; the
// result is len(runMax) when no frame sent so far fires it.
func triggerFrame(runMax []int64, end, bound int64) int {
	return sort.Search(len(runMax), func(i int) bool { return runMax[i] >= end+bound })
}
