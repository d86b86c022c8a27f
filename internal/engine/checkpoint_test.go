package engine

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"factorwindows/internal/agg"
	"factorwindows/internal/core"
	"factorwindows/internal/plan"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
)

// runWithCheckpoint processes events, snapshotting/restoring at cut.
func runWithCheckpoint(t *testing.T, p *plan.Plan, events []stream.Event, cut int) []stream.Result {
	t.Helper()
	sink := &stream.CollectingSink{}
	r1, err := New(p, sink)
	if err != nil {
		t.Fatal(err)
	}
	r1.Process(events[:cut])
	data, err := r1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Abandon r1 (simulated crash) and resume in a fresh runner that
	// shares the same sink.
	r2, err := Restore(p, sink, data)
	if err != nil {
		t.Fatal(err)
	}
	r2.Process(events[cut:])
	r2.Close()
	if r2.Events() != int64(len(events)) {
		t.Fatalf("events counter not resumed: %d", r2.Events())
	}
	return sink.Sorted()
}

func TestCheckpointRoundTripOriginal(t *testing.T) {
	set := window.MustSet(window.Tumbling(8), window.Hopping(12, 4))
	r := rand.New(rand.NewSource(1))
	events := steadyStream(80, 3, r)
	for _, fn := range []agg.Fn{agg.Min, agg.Sum, agg.StdDev} {
		p, err := plan.NewOriginal(set, fn)
		if err != nil {
			t.Fatal(err)
		}
		want := runPlan(t, p, events)
		for _, cut := range []int{1, len(events) / 3, len(events) / 2, len(events) - 1} {
			got := runWithCheckpoint(t, p, events, cut)
			sameResults(t, fn.String(), got, want)
		}
	}
}

// TestCheckpointRoundTripFactored resumes the Example 7 plan (factor
// window W(10,10)) from a snapshot, for an exact function and for the
// three sketch-backed ones. The sketch stream carries 24 values per key
// per tick, so each factor instance folds 240 > sketch.DefaultK values
// and the KLL compactors have already run before the later cuts; the
// resumed results must still match the uninterrupted run.
func TestCheckpointRoundTripFactored(t *testing.T) {
	set := window.MustSet(window.Tumbling(20), window.Tumbling(30), window.Tumbling(40))
	for _, tc := range []struct {
		fn     agg.Fn
		param  float64
		events []stream.Event
	}{
		{agg.Min, 0, steadyStream(200, 4, rand.New(rand.NewSource(2)))},
		{agg.Percentile, 0.9, denseSkewed(120, 2, 24, rand.New(rand.NewSource(11)))},
		{agg.Distinct, 0, denseSkewed(120, 2, 24, rand.New(rand.NewSource(13)))},
		{agg.TopK, 2, denseSkewed(120, 2, 24, rand.New(rand.NewSource(17)))},
	} {
		res, err := core.Optimize(set, tc.fn, core.Options{Factors: true})
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.FromGraph(res.Graph, tc.fn, plan.Factored)
		if err != nil {
			t.Fatal(err)
		}
		if p.CountFactors() != 1 {
			t.Fatalf("%v: factors = %d, want 1\n%s", tc.fn, p.CountFactors(), p)
		}
		p.Param = tc.param
		want := runPlan(t, p, tc.events)
		for _, cut := range []int{7, 333, len(tc.events) / 2, len(tc.events) - 1} {
			got := runWithCheckpoint(t, p, tc.events, cut)
			sameResults(t, tc.fn.String()+" factored", got, want)
		}
	}
}

func TestCheckpointRandomCuts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		set := &window.Set{}
		for set.Len() < 3 {
			s := int64(r.Intn(5) + 1)
			k := int64(r.Intn(3) + 1)
			w := window.Window{Range: s * k, Slide: s}
			if !set.Contains(w) {
				_ = set.Add(w)
			}
		}
		fn := agg.ShareableFns()[r.Intn(len(agg.ShareableFns()))]
		res, err := core.Optimize(set, fn, core.Options{Factors: true})
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.FromGraph(res.Graph, fn, plan.Factored)
		if err != nil {
			t.Fatal(err)
		}
		events := steadyStream(int64(r.Intn(60)+40), r.Intn(3)+1, r)
		want := runPlan(t, p, events)
		cut := r.Intn(len(events)-2) + 1
		got := runWithCheckpoint(t, p, events, cut)
		sameResults(t, set.String()+" "+fn.String(), got, want)
	}
}

func TestCheckpointRejectsWrongPlan(t *testing.T) {
	p1, _ := plan.NewOriginal(window.MustSet(window.Tumbling(8)), agg.Min)
	p2, _ := plan.NewOriginal(window.MustSet(window.Tumbling(10)), agg.Min)
	p3, _ := plan.NewOriginal(window.MustSet(window.Tumbling(8)), agg.Max)

	r, err := New(p1, &stream.CountingSink{})
	if err != nil {
		t.Fatal(err)
	}
	r.Process([]stream.Event{{Time: 0, Key: 1, Value: 2}})
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(p2, &stream.CountingSink{}, data); err == nil {
		t.Fatal("different windows must be rejected")
	}
	if _, err := Restore(p3, &stream.CountingSink{}, data); err == nil {
		t.Fatal("different aggregate function must be rejected")
	}
	if _, err := Restore(p1, &stream.CountingSink{}, []byte("garbage")); err == nil {
		t.Fatal("corrupt snapshot must be rejected")
	}
}

func TestSnapshotAfterCloseFails(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(8)), agg.Min)
	r, _ := New(p, &stream.CountingSink{})
	r.Close()
	if _, err := r.Snapshot(); err == nil {
		t.Fatal("Snapshot after Close must fail")
	}
}

func TestSnapshotPreservesStats(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(4)), agg.Count)
	r, _ := New(p, &stream.CountingSink{})
	events := steadyStream(17, 1, rand.New(rand.NewSource(4)))
	r.Process(events)
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(p, &stream.CountingSink{}, data)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats()[0].Inputs != r.Stats()[0].Inputs || r2.TotalUpdates() != r.TotalUpdates() {
		t.Fatal("stats not preserved across restore")
	}
}

// TestRestoreRejectsEmptyCell guards the columnar restore invariant:
// snapshots record only live rows, so a cell with a non-positive count
// (which would write column values without marking the row occupied,
// poisoning the recycled span) must be rejected, not absorbed.
func TestRestoreRejectsEmptyCell(t *testing.T) {
	p, _ := plan.NewOriginal(window.MustSet(window.Tumbling(8)), agg.Sum)
	r, _ := New(p, &stream.CountingSink{})
	r.Process([]stream.Event{{Time: 1, Key: 1, Value: 2}})
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	snap.Nodes[0].Instances[0].Cells[0].Cnt = 0
	var buf bytes.Buffer
	buf.WriteString(snapshotMagicV2)
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(p, &stream.CountingSink{}, buf.Bytes()); err == nil {
		t.Fatal("snapshot with zero-count cell must be rejected")
	}
}
