package factorwindows

import (
	"fmt"
	"math/rand"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/engine"
	"factorwindows/internal/parallel"
	"factorwindows/internal/plan"
	"factorwindows/internal/reorder"
	"factorwindows/internal/server"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// Batch-boundary equivalence: the batch-grouped ingest pipeline (slot
// pre-pass, run segmentation, scatter recycling, the reorder buffer's
// sorted fast path) must be invisible — identical streams driven
// through the batched and scalar (batch size 1) paths produce identical
// sorted results, for adversarial batch sizes, duplicate timestamps
// straddling batch edges, and interleaved Advance watermarks.
//
// Values are small integers, so every supported aggregate is exact in
// float64 regardless of fold order and equality can be literal.

// equivBatchSizes are the adversarial batch splits: scalar, tiny primes
// that cut through duplicate-timestamp runs, and one batch ≫ stream.
var equivBatchSizes = []int{1, 2, 3, 7, 1000}

// equivStream generates an in-order stream with heavy timestamp
// duplication (several events per tick, frequent repeats) so batch
// edges land inside same-time runs.
func equivStream(seed int64, n int) []stream.Event {
	r := rand.New(rand.NewSource(seed))
	events := make([]stream.Event, 0, n)
	tick := int64(0)
	for i := 0; i < n; i++ {
		if r.Intn(4) == 0 {
			tick += int64(r.Intn(3))
		}
		events = append(events, stream.Event{
			Time: tick, Key: uint64(r.Intn(5)), Value: float64(r.Intn(50)),
		})
	}
	return events
}

func equivPlan(t *testing.T, fn agg.Fn) *plan.Plan {
	t.Helper()
	set := window.MustSet(window.Tumbling(6), window.Tumbling(9), window.Hopping(12, 4))
	res, err := core.Optimize(set, fn, core.Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.FromGraph(res.Graph, fn, plan.Factored)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pushBatches drives events through process in batches of size batch,
// interleaving an Advance watermark at the configured stride (0 = no
// watermarks). Watermarks at already-passed times are semantically
// no-ops, so results must not depend on the interleaving.
func pushBatches(events []stream.Event, batch, advanceEvery int, process func([]stream.Event), advance func(int64)) {
	pushed := 0
	for off := 0; off < len(events); off += batch {
		end := off + batch
		if end > len(events) {
			end = len(events)
		}
		process(events[off:end])
		pushed = end
		if advanceEvery > 0 && pushed%advanceEvery < batch && pushed > 0 {
			advance(events[pushed-1].Time)
		}
	}
}

func requireSameResults(t *testing.T, label string, want, got []stream.Result) {
	t.Helper()
	stream.SortResults(want)
	stream.SortResults(got)
	if len(want) != len(got) {
		t.Fatalf("%s: result counts differ: want %d, got %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: row %d differs:\nwant %v\ngot  %v", label, i, want[i], got[i])
		}
	}
}

// TestBatchBoundaryEquivalenceEngine drives the engine with every batch
// size and watermark stride; batch size 1 is the scalar reference. The
// sketch-backed functions must be as blind to batch edges as the scalar
// ones.
func TestBatchBoundaryEquivalenceEngine(t *testing.T) {
	for _, fn := range []agg.Fn{agg.Min, agg.Sum, agg.StdDev, agg.Percentile, agg.Distinct} {
		for seed := int64(1); seed <= 3; seed++ {
			events := equivStream(seed, 900)
			p := equivPlan(t, fn)
			var want []stream.Result
			for _, batch := range equivBatchSizes {
				for _, advanceEvery := range []int{0, 137} {
					sink := &stream.CollectingSink{}
					r, err := engine.New(p, sink)
					if err != nil {
						t.Fatal(err)
					}
					pushBatches(events, batch, advanceEvery, r.Process, r.Advance)
					r.Close()
					label := fmt.Sprintf("%v seed=%d batch=%d advance=%d", fn, seed, batch, advanceEvery)
					if want == nil {
						want = sink.Sorted()
						continue
					}
					requireSameResults(t, label, want, sink.Results)
				}
			}
		}
	}
}

// TestBatchBoundaryEquivalenceParallel checks the sharded runner's
// recycled scatter (including the single-shard staging path) across
// shard counts 1, 4 and 7, against the engine's scalar reference.
func TestBatchBoundaryEquivalenceParallel(t *testing.T) {
	for _, fn := range []agg.Fn{agg.Min, agg.Sum} {
		events := equivStream(11, 900)
		p := equivPlan(t, fn)

		want := &stream.CollectingSink{}
		ref, err := engine.New(p, want)
		if err != nil {
			t.Fatal(err)
		}
		pushBatches(events, 1, 0, ref.Process, ref.Advance)
		ref.Close()

		for _, shards := range []int{1, 4, 7} {
			for _, batch := range equivBatchSizes {
				for _, advanceEvery := range []int{0, 137} {
					sink := &stream.CollectingSink{}
					r, err := parallel.New(p, sink, shards)
					if err != nil {
						t.Fatal(err)
					}
					pushBatches(events, batch, advanceEvery, r.Process, r.Advance)
					r.Close()
					if err := r.Err(); err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%v shards=%d batch=%d advance=%d", fn, shards, batch, advanceEvery)
					requireSameResults(t, label, want.Results, sink.Results)
				}
			}
		}
	}
}

// TestBatchBoundaryEquivalenceReorder feeds a block-shuffled stream
// through the reorder buffer in adversarial batch splits: the sorted
// fast path (which in-order splits hit) and the heap path (which
// shuffled splits hit) must release streams yielding identical engine
// results.
func TestBatchBoundaryEquivalenceReorder(t *testing.T) {
	events := equivStream(23, 900)
	p := equivPlan(t, agg.Sum)

	want := &stream.CollectingSink{}
	ref, err := engine.New(p, want)
	if err != nil {
		t.Fatal(err)
	}
	ref.Process(events)
	ref.Close()

	r := rand.New(rand.NewSource(29))
	shuffled := append([]stream.Event(nil), events...)
	const block = 12
	for lo := 0; lo < len(shuffled); lo += block {
		hi := lo + block
		if hi > len(shuffled) {
			hi = len(shuffled)
		}
		r.Shuffle(hi-lo, func(i, j int) {
			shuffled[lo+i], shuffled[lo+j] = shuffled[lo+j], shuffled[lo+i]
		})
	}

	for _, input := range [][]stream.Event{events, shuffled} {
		for _, batch := range equivBatchSizes {
			sink := &stream.CollectingSink{}
			eng, err := engine.New(p, sink)
			if err != nil {
				t.Fatal(err)
			}
			// Bound 16 comfortably covers the 12-position block shuffle.
			buf, err := reorder.New(eng, 16, reorder.Drop, nil)
			if err != nil {
				t.Fatal(err)
			}
			pushBatches(input, batch, 0, buf.Push, func(int64) {})
			buf.Close()
			eng.Close()
			if buf.Late() != 0 {
				t.Fatalf("batch=%d: unexpected late events: %d", batch, buf.Late())
			}
			label := fmt.Sprintf("batch=%d shuffled=%v", batch, len(input) > 0 && &input[0] == &shuffled[0])
			requireSameResults(t, label, want.Results, sink.Results)
		}
	}
}

// TestBatchBoundaryEquivalenceServer ingests one stream into the full
// serving stack (reorder → sharded engines → rings) under every batch
// split and asserts the delivered rows are identical.
func TestBatchBoundaryEquivalenceServer(t *testing.T) {
	events := equivStream(31, 600)
	var want []stream.Result
	for _, batch := range equivBatchSizes {
		srv := server.New(server.Config{Shards: 3, Factors: true, ReorderBound: 8})
		if _, err := srv.Register("q1", "SELECT Key, SUM(Value) FROM s GROUP BY Key, Windows(TumblingWindow(tick, 6))"); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Register("q2", "SELECT Key, SUM(Value) FROM s GROUP BY Key, Windows(HoppingWindow(tick, 12, 4))"); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(events); off += batch {
			end := off + batch
			if end > len(events) {
				end = len(events)
			}
			if _, err := srv.Ingest(events[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		var got []stream.Result
		for _, id := range []string{"q1", "q2"} {
			rows, missed, err := srv.Results(id, -1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if missed != 0 {
				t.Fatalf("batch=%d %s: %d rows evicted; raise ResultBuffer", batch, id, missed)
			}
			for _, row := range rows {
				got = append(got, stream.Result{
					W:     window.Window{Range: row.Range, Slide: row.Slide},
					Start: row.Start, End: row.End, Key: row.Key, Value: row.Value,
				})
			}
		}
		srv.Close()
		if want == nil {
			stream.SortResults(got)
			want = got
			continue
		}
		requireSameResults(t, fmt.Sprintf("batch=%d", batch), want, got)
	}
}
