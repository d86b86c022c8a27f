package main

import "testing"

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "frame", Parent: -1, Start: 0, End: 100},
		// Overlapping children count their union once.
		{Name: "push", Parent: 0, Start: 10, End: 30},
		{Name: "push", Parent: 0, Start: 20, End: 50},
		// A child running past its parent is clipped to the parent.
		{Name: "barrier", Parent: 0, Start: 90, End: 120},
		// A grandchild reduces its own parent's self time only.
		{Name: "process", Parent: 1, Start: 12, End: 18},
	}
	total, self, calls := layerTimes(spans)
	if self["frame"] != 100-40-10 {
		t.Errorf("frame self = %d, want 50", self["frame"])
	}
	if total["push"] != 50 || self["push"] != 50-6 {
		t.Errorf("push total/self = %d/%d, want 50/44", total["push"], self["push"])
	}
	if self["process"] != 6 || calls["push"] != 2 {
		t.Errorf("process self = %d, push calls = %d", self["process"], calls["push"])
	}
}

func TestTracerNestsSpansUnderTheOpenOne(t *testing.T) {
	tr := newTracer(true)
	tr.frame = 7
	root := tr.begin("frame")
	child := tr.begin("reorder.push")
	grand := tr.begin("parallel.process")
	tr.end(grand)
	tr.end(child)
	sib := tr.begin("parallel.barrier")
	tr.end(sib)
	tr.end(root)
	want := []int32{-1, root, child, root}
	for i, s := range tr.spans {
		if s.Parent != want[i] || s.Frame != 7 || s.End < s.Start {
			t.Errorf("span %d %+v, want parent %d in frame 7", i, s, want[i])
		}
	}
	_, self, _ := layerTimes(tr.spans)
	if self["frame"] < 0 || self["reorder.push"] < 0 {
		t.Errorf("negative self time: %v", self)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	tr.end(tr.begin("frame"))
	if len(tr.spans) != 0 {
		t.Errorf("disabled tracer kept %d spans", len(tr.spans))
	}
}
