package reorder

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"factorwindows/internal/stream"
)

// refModel is the reference the property test and FuzzReorder hold
// Buffer to: the same contract over a plain slice of pending events,
// filtered and sorted on every release instead of kept in a heap. It
// records every consumer batch of the current operation, so batch
// boundaries are compared as well as contents.
type refModel struct {
	bound     int64
	policy    Policy
	cap       int
	capPolicy CapPolicy

	watermark   int64
	released    int64
	late        int64
	seen        int64
	capDropped  int64
	capReleased int64
	pending     []stream.Event

	batches [][]stream.Event
}

func newRefModel(bound int64, policy Policy) *refModel {
	return &refModel{bound: bound, policy: policy, released: NoRelease}
}

// byTimeKeyValue orders events totally, for multiset comparison.
func byTimeKeyValue(a, b stream.Event) int {
	return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Key, b.Key),
		cmp.Compare(math.Float64bits(a.Value), math.Float64bits(b.Value)))
}

// emit records one consumer batch, sorted: batches compare as
// multisets, since within equal times the buffer's release order is
// not part of its contract.
func (m *refModel) emit(batch []stream.Event) {
	if len(batch) > 0 {
		slices.SortFunc(batch, byTimeKeyValue)
		m.batches = append(m.batches, batch)
	}
}

// take removes and returns every pending event with time ≤ h.
func (m *refModel) take(h int64) []stream.Event {
	var out, keep []stream.Event
	for _, e := range m.pending {
		if e.Time <= h {
			out = append(out, e)
		} else {
			keep = append(keep, e)
		}
	}
	m.pending = keep
	return out
}

// release emits every pending event with time ≤ h as one batch and
// seals the horizon at h.
func (m *refModel) release(h int64) {
	out := m.take(h)
	m.released = max(m.released, h)
	m.emit(out)
}

// forceRelease releases whole minimum-time groups, one batch each,
// until at least k events went out.
func (m *refModel) forceRelease(k int) {
	for k > 0 && len(m.pending) > 0 {
		lo := slices.MinFunc(m.pending, byTimeKeyValue).Time
		before := len(m.pending)
		m.release(lo)
		n := before - len(m.pending)
		k -= n
		m.capReleased += int64(n)
	}
}

// capPush adds e to the pending events under the memory cap.
func (m *refModel) capPush(e stream.Event) {
	if m.cap > 0 && len(m.pending) >= m.cap {
		if m.capPolicy == RejectNewest {
			m.capDropped++
			return
		}
		m.forceRelease(len(m.pending) - m.cap + 1)
		if e.Time < m.released {
			if m.policy != Adjust {
				m.capDropped++
				return
			}
			e.Time = m.released
		}
	}
	m.pending = append(m.pending, e)
}

func (m *refModel) push(events []stream.Event) {
	if len(events) == 0 {
		return
	}
	first := events[0].Time
	sorted := slices.IsSortedFunc(events, func(a, b stream.Event) int { return cmp.Compare(a.Time, b.Time) })
	if sorted && first >= m.watermark && first >= m.released {
		// An in-order batch past everything buffered: release the
		// pending events and the batch prefix up to the new horizon —
		// as one batch while that stays within mergeLimit — then
		// buffer the tail.
		m.seen += int64(len(events))
		m.watermark = events[len(events)-1].Time
		h := m.watermark - m.bound
		drained := m.take(h)
		m.released = max(m.released, h)
		p := 0
		for p < len(events) && events[p].Time <= h {
			p++
		}
		prefix := slices.Clone(events[:p])
		if len(drained) > 0 && len(drained)+p <= mergeLimit {
			m.emit(append(drained, prefix...))
		} else {
			m.emit(drained)
			m.emit(prefix)
		}
		for _, e := range events[p:] {
			m.capPush(e)
		}
		return
	}
	for i, e := range events {
		m.seen++
		// Long batches seal the horizon every 4096 events, so lateness
		// inside one batch is judged against a moving horizon.
		if i%4096 == 4095 {
			m.release(m.watermark - m.bound)
		}
		if e.Time < m.released {
			m.late++
			if m.policy == Drop {
				continue
			}
			e.Time = m.released
		}
		m.watermark = max(m.watermark, e.Time)
		m.capPush(e)
	}
	m.release(m.watermark - m.bound)
}

func (m *refModel) setCap(n int, policy CapPolicy) {
	m.cap, m.capPolicy = n, policy
	if n > 0 && policy == ReleaseOldest && len(m.pending) > n {
		m.forceRelease(len(m.pending) - n)
	}
}

// batchRecorder is the Buffer's consumer under test: it copies every
// batch (the buffer reuses its release slice) and counts late events.
type batchRecorder struct {
	batches [][]stream.Event
	late    int64
}

func (c *batchRecorder) Process(events []stream.Event) {
	c.batches = append(c.batches, slices.Clone(events))
}

func (c *batchRecorder) onLate(stream.Event) { c.late++ }

// script decodes a byte string into reorder operations. The first
// three bytes configure the buffer; then every three bytes are one
// operation: an opcode and two parameter bytes. Missing bytes read as
// zero, so every byte string is a valid script.
type script struct {
	data []byte
	pos  int
}

func (s *script) next() byte {
	if s.pos >= len(s.data) {
		s.pos++
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *script) done() bool { return s.pos >= len(s.data) }

// genBatch builds one batch from two parameter bytes. Shape 0 is in
// order from the watermark on (the sorted fast path), shape 1 jitters
// times around the clock by up to twice the bound, and shape 2 adds
// events far below the sealed horizon. Size 254 and 255 are a long
// in-order and a long jittered batch, crossing mergeLimit and the
// 4096-event incremental seal respectively. Keys and values come from
// small ranges so equal (Time, Key) pairs with distinct values occur.
func genBatch(size, param byte, watermark, bound int64, clock *int64, seq int) []stream.Event {
	rng := rand.New(rand.NewSource(int64(size)<<16 | int64(param)<<8 | int64(seq)))
	n, shape := int(size%48), param%3
	switch size {
	case 254:
		n, shape = mergeLimit+3000, 0
	case 255:
		n, shape = 3*4096/2, 1
	}
	events := make([]stream.Event, n)
	t := max(*clock, watermark)
	for i := range events {
		t += int64(rng.Intn(3))
		e := stream.Event{Time: t, Key: uint64(rng.Intn(4)), Value: float64(rng.Intn(10))}
		switch shape {
		case 1:
			e.Time -= rng.Int63n(2*bound + 3)
		case 2:
			if rng.Intn(4) == 0 {
				e.Time -= 3*bound + 4 + rng.Int63n(8)
			}
		}
		events[i] = e
	}
	*clock = t
	return events
}

// reorderPair drives a Buffer and the reference model in lockstep and
// fails on the first divergence in consumer batches (count, sizes and
// per-batch multisets), in the counters, or in output time order.
type reorderPair struct {
	t         *testing.T
	b         *Buffer
	m         *refModel
	rec       *batchRecorder
	capN      int
	capPolicy CapPolicy
	lastOut   int64
	step      int
}

func newReorderPair(t *testing.T, bound int64, policy Policy, capN int, capPolicy CapPolicy) *reorderPair {
	t.Helper()
	rec := &batchRecorder{}
	b, err := New(rec, bound, policy, rec.onLate)
	if err != nil {
		t.Fatal(err)
	}
	p := &reorderPair{t: t, b: b, m: newRefModel(bound, policy), rec: rec, lastOut: math.MinInt64}
	p.setCap(capN, capPolicy)
	return p
}

func (p *reorderPair) push(events []stream.Event) {
	p.b.Push(events)
	p.m.push(events)
	p.compare("Push")
}

func (p *reorderPair) setCap(n int, policy CapPolicy) {
	p.capN, p.capPolicy = n, policy
	p.b.SetCap(n, policy)
	p.m.setCap(n, policy)
	p.compare("SetCap")
}

// restore is a checkpoint cut: the state carries everything but the
// cap, which the restoring deployment re-applies.
func (p *reorderPair) restore() {
	st := p.b.Snapshot()
	st.Pending = slices.Clone(st.Pending)
	b, err := NewFromState(p.rec, st, p.rec.onLate)
	if err != nil {
		p.t.Fatalf("step %d: restore: %v", p.step, err)
	}
	p.b = b
	p.setCap(p.capN, p.capPolicy)
}

func (p *reorderPair) close() {
	p.b.Close()
	p.m.release(1<<62 - 1)
	p.compare("Close")
}

func (p *reorderPair) compare(op string) {
	t, b, m, rec := p.t, p.b, p.m, p.rec
	t.Helper()
	if len(rec.batches) != len(m.batches) {
		t.Fatalf("step %d %s: %d consumer batches, model %d", p.step, op, len(rec.batches), len(m.batches))
	}
	for i, got := range rec.batches {
		for j, e := range got {
			if e.Time < p.lastOut {
				t.Fatalf("step %d %s: batch %d row %d at time %d after time %d", p.step, op, i, j, e.Time, p.lastOut)
			}
			p.lastOut = e.Time
		}
		slices.SortFunc(got, byTimeKeyValue)
		if !slices.Equal(got, m.batches[i]) {
			t.Fatalf("step %d %s: batch %d released\n%v\nmodel\n%v", p.step, op, i, got, m.batches[i])
		}
	}
	rec.batches, m.batches = rec.batches[:0], nil
	type counters struct {
		late, seen, capDropped, capReleased int64
		released                            int64
		buffered                            int
	}
	got := counters{b.Late(), b.Seen(), b.CapDropped(), b.CapReleased(), b.Released(), b.Buffered()}
	want := counters{m.late, m.seen, m.capDropped, m.capReleased, m.released, len(m.pending)}
	if got != want {
		t.Fatalf("step %d %s: counters %+v, model %+v", p.step, op, got, want)
	}
	if rec.late != m.late {
		t.Fatalf("step %d %s: onLate saw %d events, model judged %d late", p.step, op, rec.late, m.late)
	}
	p.step++
}

// checkReorderScript runs a script (see script) through a reorderPair.
func checkReorderScript(t *testing.T, data []byte) {
	t.Helper()
	s := &script{data: data}
	bound := int64(s.next() % 9)
	policy := Policy(s.next() % 2)
	capByte := s.next()
	p := newReorderPair(t, bound, policy, int(capByte%16)*2, CapPolicy(capByte>>7))
	var clock int64
	for !s.done() {
		op, p1, p2 := s.next(), s.next(), s.next()
		switch op % 8 {
		case 5:
			p.setCap(int(p1%16)*2, CapPolicy(p2%2))
		case 6:
			p.restore()
		default:
			p.push(genBatch(p1, p2, p.m.watermark, bound, &clock, p.step))
		}
	}
	p.close()
}

// timeRun returns n events at time t with cycling keys and values.
func timeRun(t int64, n int) []stream.Event {
	events := make([]stream.Event, n)
	for i := range events {
		events[i] = stream.Event{Time: t, Key: uint64(i % 3), Value: float64(i % 5)}
	}
	return events
}

// TestReorderMatchesModel drives random scripts — batches of every
// shape, both lateness policies, caps of both policies set and changed
// mid-stream, and snapshot/restore cuts — through Buffer and the
// reference model.
func TestReorderMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := range 400 {
		data := make([]byte, 3+3*(10+r.Intn(60)))
		r.Read(data)
		for i := 4; i < len(data); i += 3 {
			if data[i] >= 254 && trial%20 != 0 {
				data[i] = 0 // long batches only in every 20th script
			}
		}
		checkReorderScript(t, data)
	}
	// Long batches on purpose: a sorted one past mergeLimit after
	// buffered events, then jittered ones crossing the incremental
	// seal, under each lateness policy.
	for _, policy := range []byte{0, 1} {
		checkReorderScript(t, []byte{4, policy, 0, 0, 20, 1, 0, 254, 0, 0, 255, 1, 0, 255, 2})
	}
	// The sorted fast path merges the drained buffer and the batch
	// prefix into one consumer batch up to exactly mergeLimit events.
	for _, total := range []int{mergeLimit, mergeLimit + 1} {
		p := newReorderPair(t, 4, Drop, 0, ReleaseOldest)
		p.push(slices.Concat(timeRun(0, 3), timeRun(6, 4))) // horizon 2; 4 events buffered
		drained := p.b.Buffered()
		p.push(slices.Concat(timeRun(10, total-drained), timeRun(14, 2)))
		p.close()
	}
}

// FuzzReorder holds Buffer to the reference model on arbitrary scripts
// (see checkReorderScript for the encoding).
func FuzzReorder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 30, 0, 0, 30, 1, 0, 30, 2})
	f.Add([]byte{3, 1, 6, 0, 40, 1, 5, 8, 1, 0, 40, 1, 6, 0, 0, 0, 40, 2})
	f.Add([]byte{8, 0, 0x87, 0, 47, 1, 0, 47, 2, 5, 0, 0, 0, 47, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*64 {
			data = data[:3*64]
		}
		checkReorderScript(t, data)
	})
}
