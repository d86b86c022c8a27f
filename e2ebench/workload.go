package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"factorwindows/internal/multiquery"
	"factorwindows/internal/reorder"
	"factorwindows/internal/stream"
	"factorwindows/internal/window"
	"factorwindows/internal/wire"
	"factorwindows/internal/workload"
)

// windowSetSeed fixes the generated window sets, so every run of a
// workload poses the same queries; --seed varies only the events.
const windowSetSeed = 28

// spec is one workload: the queries, the event stream, the transport
// and the deployment under test.
type spec struct {
	name string
	// queries are the registered queries' window sets.
	queries [][]window.Window
	// keys, perTick and frameEvents shape the event stream; frameEvents
	// is a multiple of both keys and perTick.
	keys, perTick, frameEvents int
	// jitter is the largest backward time jitter in ticks (0: in order).
	jitter int64
	bound  int64
	policy reorder.Policy
	// ingest is "tcp" (the stream listener) or "http" (POST /ingest).
	ingest string
	shards int
	// workers is the number of fwworker processes (0: single process).
	workers int
	// durable keeps a WAL with the interval fsync policy.
	durable      bool
	resultBuffer int
	// openRate is the open-loop diagnostic's fixed rate in events/s.
	openRate float64
	// refClientNs is the reference host speed the end-to-end times are
	// scaled to, given as the benchmark process's own CPU time per event
	// on such a host (see loopStats.hostAdjust).
	refClientNs float64
}

func paperWindows() []window.Window {
	set, err := workload.RandomGen(workload.PaperDefaults(10, true), rand.New(rand.NewSource(windowSetSeed)))
	if err != nil {
		panic(err)
	}
	return set.Sorted()
}

// fanoutQueries gives each of four queries five consecutive windows of
// the paper set (cyclically), so every window is shared by two queries
// and the multiquery plan computes it once.
func fanoutQueries() [][]window.Window {
	union := paperWindows()
	qs := make([][]window.Window, 4)
	for q := range qs {
		for j := 0; j < 5; j++ {
			qs[q] = append(qs[q], union[(2*q+j)%len(union)])
		}
	}
	return qs
}

func workloads() []*spec {
	paper := spec{
		name:         "paper-steady",
		queries:      [][]window.Window{paperWindows()},
		keys:         16,
		perTick:      64,
		frameEvents:  4096,
		policy:       reorder.Drop,
		ingest:       "tcp",
		shards:       2,
		resultBuffer: 1 << 16,
		openRate:     4e6,
		refClientNs:  32,
	}
	late := paper
	late.name = "late-storm"
	late.bound = 64
	late.policy = reorder.Adjust
	late.jitter = 4 * late.bound
	late.openRate = 1.2e6
	late.refClientNs = 48
	router := paper
	router.name = "router-durable"
	router.workers = 2
	router.durable = true
	router.openRate = 1.4e6
	router.refClientNs = 44
	fanout := spec{
		name:         "fanout-egress",
		queries:      fanoutQueries(),
		keys:         4096,
		perTick:      4096,
		frameEvents:  4096,
		policy:       reorder.Drop,
		ingest:       "http",
		shards:       2,
		resultBuffer: 1 << 17,
		openRate:     2e6,
		refClientNs:  72,
	}
	return []*spec{&paper, &fanout, &late, &router}
}

func findSpec(name string) (*spec, error) {
	var names []string
	for _, s := range workloads() {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// queryID names query q on the server.
func queryID(q int) string { return fmt.Sprintf("q%d", q+1) }

// querySQL renders one query's windows as the MIN query clients register.
func querySQL(ws []window.Window) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		if w.Range == w.Slide {
			parts[i] = fmt.Sprintf("TumblingWindow(tick, %d)", w.Range)
		} else {
			parts[i] = fmt.Sprintf("HoppingWindow(tick, %d, %d)", w.Range, w.Slide)
		}
	}
	return "SELECT DeviceID, MIN(T) FROM In GROUP BY DeviceID, Windows(" + strings.Join(parts, ", ") + ")"
}

// mqQueries is the spec's query set in multiquery form, ids as served.
func (s *spec) mqQueries() []multiquery.Query {
	qs := make([]multiquery.Query, len(s.queries))
	for i, ws := range s.queries {
		qs[i] = multiquery.Query{ID: queryID(i), Windows: ws}
	}
	return qs
}

// unionSet is the deduplicated union of every query's windows.
func (s *spec) unionSet() *window.Set {
	set := &window.Set{}
	for _, ws := range s.queries {
		for _, w := range ws {
			if !set.Contains(w) {
				set.Add(w)
			}
		}
	}
	return set
}

// splitmix mixes a seed and a stream position into an independent
// generator seed.
func splitmix(seed, k, salt int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9 + uint64(salt)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// poolBlocks is how many distinct event blocks a stream draws its
// frames from.
const poolBlocks = 64

// eventSource is one workload's event stream for one seed. Frame k is a
// block drawn from a pool of workload.Synthetic blocks, with the spec's
// backward jitter applied, shifted to the frame's ticks. Drawing from a
// pool cuts the generator's per-frame work to a copy and a time shift,
// so the benchmark process takes little CPU from the server processes
// it shares the host with. The same (spec, seed, k) always gives the
// same events.
type eventSource struct {
	s    *spec
	seed int64
	// blocks hold frame-relative times, negative where jitter reaches
	// back past the frame's first tick; enc holds them encoded, and
	// maxT is each block's largest time.
	blocks [][]stream.Event
	enc    [][]byte
	maxT   []int64
}

func newSource(s *spec, seed int64) *eventSource {
	src := &eventSource{s: s, seed: seed}
	for b := int64(0); b < poolBlocks; b++ {
		evs := workload.Synthetic(workload.StreamConfig{
			Events:        s.frameEvents,
			Keys:          s.keys,
			EventsPerTick: s.perTick,
			Seed:          splitmix(seed, b, 1),
		})
		if s.jitter > 0 {
			rng := rand.New(rand.NewSource(splitmix(seed, b, 2)))
			for i := range evs {
				evs[i].Time -= rng.Int63n(s.jitter + 1)
			}
		}
		src.blocks = append(src.blocks, evs)
		src.enc = append(src.enc, wire.AppendEventFrame(nil, evs))
		src.maxT = append(src.maxT, maxTime(evs))
	}
	return src
}

// block is the pool block frame k draws, and base its first tick.
func (src *eventSource) block(k int64) (b int, base int64) {
	return int(uint64(splitmix(src.seed, k, 3)) % poolBlocks), k * int64(src.s.frameEvents/src.s.perTick)
}

// frame returns frame k's events; times before 0 are clamped to 0.
func (src *eventSource) frame(k int64) []stream.Event {
	b, base := src.block(k)
	evs := slices.Clone(src.blocks[b])
	for i := range evs {
		evs[i].Time = max(evs[i].Time+base, 0)
	}
	return evs
}

// encode writes frame k into dst as one event frame tagged with stream
// id (the stream listener echoes it in the ingest ack), patching the
// pool block's encoded time column in place of re-encoding. It returns
// the frame and its largest event time.
func (src *eventSource) encode(dst []byte, k int64, id uint32) ([]byte, int64) {
	b, base := src.block(k)
	dst = append(dst[:0], src.enc[b]...)
	binary.LittleEndian.PutUint32(dst[12:], id)
	times := dst[len(dst)-3*8*len(src.blocks[b]):]
	for i := range src.blocks[b] {
		t := max(src.blocks[b][i].Time+base, 0)
		binary.LittleEndian.PutUint64(times[8*i:], uint64(t))
	}
	return dst, max(src.maxT[b]+base, 0)
}

// maxTime is the largest event time in events.
func maxTime(events []stream.Event) int64 {
	m := int64(math.MinInt64)
	for i := range events {
		m = max(m, events[i].Time)
	}
	return m
}
