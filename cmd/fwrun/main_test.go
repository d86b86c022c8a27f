package main

import (
	"os"
	"path/filepath"
	"testing"

	"factorwindows/internal/stream"
)

func TestLoadQuery(t *testing.T) {
	q, err := loadQuery(`SELECT k, MIN(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 5))`, "")
	if err != nil || q.KeyColumn != "k" {
		t.Fatalf("%v %v", q, err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "q.sql")
	if err := os.WriteFile(path, []byte(`SELECT k, MAX(v) FROM s GROUP BY k, Windows(TumblingWindow(tick, 7))`), 0o600); err != nil {
		t.Fatal(err)
	}
	q, err = loadQuery("", path)
	if err != nil || q.Windows[0].W.Range != 7 {
		t.Fatalf("%v %v", q, err)
	}
	if _, err := loadQuery("", ""); err == nil {
		t.Fatal("no query must fail")
	}
	if _, err := loadQuery("", filepath.Join(dir, "missing.sql")); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestLoadEventsGeneratedAndFile(t *testing.T) {
	es, err := loadEvents("", "csv", "synthetic", 100, 2, 2, 1)
	if err != nil || len(es) != 100 {
		t.Fatalf("synthetic: %d %v", len(es), err)
	}
	es, err = loadEvents("", "csv", "debs", 50, 2, 2, 1)
	if err != nil || len(es) != 50 {
		t.Fatalf("debs: %d %v", len(es), err)
	}
	if _, err := loadEvents("", "csv", "mystery", 10, 1, 1, 1); err == nil {
		t.Fatal("unknown dataset must fail")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "events.csv")
	if err := os.WriteFile(path, []byte("time,key,value\n0,1,5\n1,1,6\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	es, err = loadEvents(path, "csv", "", 0, 0, 0, 0)
	if err != nil || len(es) != 2 {
		t.Fatalf("file: %d %v", len(es), err)
	}
	if _, err := loadEvents(filepath.Join(dir, "missing.csv"), "csv", "", 0, 0, 0, 0); err == nil {
		t.Fatal("missing file must fail")
	}
}

// TestRunPlanCarriesParam checks that the query's φ reaches the result
// on every plan variant: the 0.95-quantile of 1..4 is 4, where the
// default φ would give the median, 2.
func TestRunPlanCarriesParam(t *testing.T) {
	q, err := loadQuery(`SELECT k, PERCENTILE(v, 0.95) FROM s
		GROUP BY k, Windows(TumblingWindow(tick, 4), TumblingWindow(tick, 8))`, "")
	if err != nil {
		t.Fatal(err)
	}
	var es []stream.Event
	for i := 0; i < 4; i++ {
		es = append(es, stream.Event{Time: int64(i), Key: 1, Value: float64(i + 1)})
	}
	for _, kind := range []string{"original", "rewritten", "factored", "slicing", "sliding"} {
		for _, shards := range []int{1, 2} {
			sink := &stream.CollectingSink{}
			if err := runPlan(kind, q, es, sink, shards); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if len(sink.Results) != 2 {
				t.Fatalf("%s shards=%d: %d results, want 2", kind, shards, len(sink.Results))
			}
			for _, r := range sink.Results {
				if r.Value != 4 {
					t.Errorf("%s shards=%d: %v [%d,%d) = %v, want 4", kind, shards, r.W, r.Start, r.End, r.Value)
				}
			}
		}
	}
	if err := runPlan("quantile", q, es, &stream.CollectingSink{}, 1); err == nil {
		t.Error("unknown plan variant must fail")
	}
}
