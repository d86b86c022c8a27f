package main

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"factorwindows/internal/reorder"
	"factorwindows/internal/server"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
)

func TestTriggerFrameAppliesTheReorderBound(t *testing.T) {
	// Running maxima of four frames of 64 ticks, the last two late.
	runMax := []int64{63, 127, 191, 255}
	cases := []struct {
		end, bound int64
		want       int
	}{
		{64, 0, 1},   // fires once the max time reaches 64
		{63, 0, 0},   // already reached by frame 0
		{64, 64, 2},  // needs max time 128
		{128, 64, 3}, // needs 192
		{200, 64, 4}, // no frame sent so far fires it
	}
	for _, c := range cases {
		if got := triggerFrame(runMax, c.end, c.bound); got != c.want {
			t.Errorf("triggerFrame(end %d, bound %d) = %d, want %d", c.end, c.bound, got, c.want)
		}
	}
}

func TestFrameLogKeepsARunningMaximum(t *testing.T) {
	l := &frameLog{base: time.Now()}
	// A jittered frame can end below its predecessor's maximum.
	l.record(100)
	l.record(90)
	l.record(150)
	if want := []int64{100, 100, 150}; len(l.runMax) != 3 || l.runMax[1] != want[1] || l.runMax[2] != want[2] {
		t.Fatalf("runMax = %v, want %v", l.runMax, want)
	}
	if k, _, ok := l.trigger(101, 0); !ok || k != 2 {
		t.Errorf("trigger(101) = %d, %v; want frame 2", k, ok)
	}
	if _, _, ok := l.trigger(151, 0); ok {
		t.Error("an unfired instance mapped to a frame")
	}
}

func TestMismatchedRows(t *testing.T) {
	want, got := make(rowDigest), make(rowDigest)
	want.add(0, 10, 10, 0, 10, 1, 5)
	want.add(0, 10, 10, 0, 10, 2, 6)
	got.add(0, 10, 10, 0, 10, 2, 6)
	got.add(0, 10, 10, 0, 10, 1, 5)
	if n := mismatchedRows(want, got); n != 0 {
		t.Fatalf("same rows in another order: %d mismatches", n)
	}
	got.add(1, 10, 10, 0, 10, 1, 5) // extra row of another query
	want.add(0, 20, 20, 0, 20, 1, 5)
	if n := mismatchedRows(want, got); n != 2 {
		t.Fatalf("one missing and one extra row: %d mismatches", n)
	}
	wrong := make(rowDigest)
	wrong.add(0, 10, 10, 0, 10, 1, 5)
	wrong.add(0, 10, 10, 0, 10, 2, 7) // right count, wrong value
	wrong.add(0, 20, 20, 0, 20, 1, 5)
	if n := mismatchedRows(want, wrong); n != 2 {
		t.Fatalf("a wrong value in a two-row group: %d mismatches, want 2", n)
	}
}

// The reference, computed with the original plan, must agree with the
// server's shared plan on late, adjusted input.
func TestReferenceMatchesServer(t *testing.T) {
	s := &spec{
		name:        "test",
		queries:     [][]window.Window{{window.Tumbling(4), window.Tumbling(12)}, {window.Tumbling(12), window.Tumbling(20)}},
		keys:        8,
		perTick:     16,
		frameEvents: 256,
		jitter:      16,
		bound:       4,
		policy:      reorder.Adjust,
		shards:      2,
	}
	const frames = 24
	src := newSource(s, 3)
	want, counts, late, err := reference(src, frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	if late == 0 {
		t.Fatal("jittered stream produced no late events")
	}
	srv := server.New(server.Config{Shards: s.shards, Factors: true, ReorderBound: s.bound, Policy: s.policy})
	defer srv.Close()
	for q, ws := range s.queries {
		if _, err := srv.Register(queryID(q), querySQL(ws)); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < frames; k++ {
		if _, err := srv.Ingest(src.frame(k)); err != nil {
			t.Fatal(err)
		}
	}
	got := make(rowDigest)
	for q := range s.queries {
		rows, _, err := srv.Results(queryID(q), -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) != counts[q] {
			t.Errorf("query %d: server %d rows, reference %d", q, len(rows), counts[q])
		}
		for _, r := range rows {
			got.add(q, r.Range, r.Slide, r.Start, r.End, r.Key, r.Value)
		}
	}
	if n := mismatchedRows(want, got); n != 0 {
		t.Errorf("%d rows differ between the server and the reference", n)
	}
}

// A frame encoded from the pool must decode to the events frame
// returns, with times shifted to the frame's ticks and clamped at 0.
func TestEncodedFrameMatchesEvents(t *testing.T) {
	s := &spec{keys: 4, perTick: 8, frameEvents: 64, jitter: 20}
	src := newSource(s, 5)
	var buf []byte
	for _, k := range []int64{0, 1, 2, 40} {
		evs := src.frame(k)
		var maxT int64
		buf, maxT = src.encode(buf, k, uint32(k+1))
		fr := wire.NewReader(bytes.NewReader(buf))
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.StreamID != uint32(k+1) {
			t.Errorf("frame %d: stream id %d", k, f.StreamID)
		}
		got := f.AppendEvents(nil)
		fr.Close()
		if !slices.Equal(got, evs) {
			t.Fatalf("frame %d: decoded events differ from frame(k)", k)
		}
		if maxT != maxTime(evs) {
			t.Errorf("frame %d: max time %d, want %d", k, maxT, maxTime(evs))
		}
		base := k * int64(s.frameEvents/s.perTick)
		for _, e := range evs {
			if e.Time < 0 || e.Time > base+int64(s.frameEvents/s.perTick) {
				t.Fatalf("frame %d: time %d outside [0, %d]", k, e.Time, base+8)
			}
		}
	}
	if !slices.Equal(newSource(s, 5).frame(3), src.frame(3)) {
		t.Error("the same seed gave another stream")
	}
	if slices.Equal(newSource(s, 6).frame(3), src.frame(3)) {
		t.Error("another seed gave the same frame")
	}
}
