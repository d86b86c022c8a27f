package factorwindows

import (
	"strings"
	"testing"
)

func TestCompileAllMultiAggregate(t *testing.T) {
	q, err := ParseQuery(`
		SELECT DeviceID, MIN(T) AS Lo, MAX(T) AS Hi, AVG(T)
		FROM Input GROUP BY DeviceID, Windows(
			TumblingWindow(tick, 20),
			TumblingWindow(tick, 40))`)
	if err != nil {
		t.Fatal(err)
	}
	// Compile refuses multi-aggregate queries, pointing at CompileAll.
	if _, err := Compile(q, Options{}); err == nil || !strings.Contains(err.Error(), "CompileAll") {
		t.Fatalf("Compile should defer to CompileAll, got %v", err)
	}
	bundles, err := CompileAll(q, Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 3 {
		t.Fatalf("got %d bundles", len(bundles))
	}
	events := SyntheticStream(StreamConfig{Events: 10_000, Keys: 2, EventsPerTick: 2, Seed: 5})
	for i, c := range bundles {
		fn := q.Aggregates[i].Fn
		if c.Optimization.Plan.Fn != fn {
			t.Errorf("bundle %d compiled for %v, want %v", i, c.Optimization.Plan.Fn, fn)
		}
		sink := &CollectingSink{}
		if err := c.Run(events, sink); err != nil {
			t.Fatal(err)
		}
		orig := &CollectingSink{}
		if err := Run(c.Optimization.Original, events, orig); err != nil {
			t.Fatal(err)
		}
		a, b := sink.Sorted(), orig.Sorted()
		if len(a) != len(b) {
			t.Fatalf("%v: %d vs %d results", fn, len(a), len(b))
		}
		for j := range b {
			if a[j] != b[j] {
				t.Fatalf("%v row %d: %v vs %v", fn, j, a[j], b[j])
			}
		}
	}
}

func TestWhereFiltersEvents(t *testing.T) {
	q, err := ParseQuery(`
		SELECT DeviceID, COUNT(T)
		FROM Input WHERE T >= 100 AND DeviceID = 1
		GROUP BY DeviceID, Windows(TumblingWindow(tick, 10))`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Time: 0, Key: 1, Value: 150}, // kept
		{Time: 1, Key: 1, Value: 50},  // T < 100
		{Time: 2, Key: 2, Value: 200}, // wrong device
		{Time: 3, Key: 1, Value: 100}, // kept (boundary)
	}
	sink := &CollectingSink{}
	if err := c.Run(events, sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != 1 {
		t.Fatalf("got %d results: %v", len(sink.Results), sink.Results)
	}
	if got := sink.Results[0]; got.Key != 1 || got.Value != 2 {
		t.Fatalf("result %+v, want key 1 count 2", got)
	}
}

func TestWhereEmptyAfterFilter(t *testing.T) {
	q, err := ParseQuery(`
		SELECT k, SUM(v) FROM s WHERE v > 1000
		GROUP BY k, Windows(TumblingWindow(tick, 5))`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &CollectingSink{}
	if err := c.Run([]Event{{Time: 0, Key: 1, Value: 5}}, sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Results) != 0 {
		t.Fatalf("all events filtered; got %v", sink.Results)
	}
}

func TestCompileAllNil(t *testing.T) {
	if _, err := CompileAll(nil, Options{}); err == nil {
		t.Error("nil query should fail")
	}
}

// TestCompileCarriesParam checks that each aggregate call's parameter
// reaches finalization on both the optimized and the original plan.
// Every window instance below holds 1, 3, 3, 5, 5, 5, 7, 7, 7, 7: the
// 0.95-quantile is 7 and the 0.25-quantile 3 (the default φ would give
// the median, 5); TOPK(v, 3) is 3, the third most frequent value (the
// default k would give the mode, 7).
func TestCompileCarriesParam(t *testing.T) {
	var events []Event
	for i, v := range []float64{7, 5, 3, 7, 1, 5, 7, 3, 5, 7} {
		events = append(events, Event{Time: int64(i / 3), Key: 1, Value: v})
	}
	check := func(c *Compiled, want float64) {
		t.Helper()
		for _, p := range []*Plan{c.Optimization.Plan, c.Optimization.Original} {
			sink := &CollectingSink{}
			if err := Run(p, events, sink); err != nil {
				t.Fatal(err)
			}
			if len(sink.Results) != 2 {
				t.Fatalf("%v %v plan: %d results, want 2", p.Fn, p.Kind, len(sink.Results))
			}
			for _, r := range sink.Results {
				if r.Value != want {
					t.Errorf("%v %v plan: %v [%d,%d) = %v, want %v", p.Fn, p.Kind, r.W, r.Start, r.End, r.Value, want)
				}
			}
		}
	}
	windows := ` FROM s GROUP BY k, Windows(TumblingWindow(tick, 4), TumblingWindow(tick, 8))`
	for _, tc := range []struct {
		sel  string
		want float64
	}{
		{"PERCENTILE(v, 0.95)", 7},
		{"TOPK(v, 3)", 3},
	} {
		q, err := ParseQuery("SELECT k, " + tc.sel + windows)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(q, Options{Factors: true})
		if err != nil {
			t.Fatal(err)
		}
		check(c, tc.want)
	}

	// Each CompileAll bundle takes its own call's parameter, not the
	// first call's.
	q, err := ParseQuery("SELECT k, TOPK(v, 3), PERCENTILE(v, 0.25)" + windows)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := CompileAll(q, Options{Factors: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{3, 3} {
		check(bundles[i], want)
	}
}
