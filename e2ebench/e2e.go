package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// measureParts is how many parts the measured closed loop is cut into.
// The end-to-end metrics are medians over the least stolen half of
// them, each part's times scaled to the reference host speed.
const measureParts = 20

// setupsPerPart is how many throwaway deployments precede each part;
// each gives one setup_s sample.
const setupsPerPart = 3

// deployment is one running instance of the system under test plus the
// benchmark's two client connections to it.
type deployment struct {
	workers []*proc
	server  *proc
	walDir  string
	sub     *subscriber
	ing     ingester
}

// procs lists the server processes, fwserve first.
func (d *deployment) procs() []*proc {
	return append([]*proc{d.server}, d.workers...)
}

// deploy launches the workload's processes, registers its queries and
// subscribes to them; the returned duration is setup_s's sample.
func deploy(s *spec, env *runEnv, log *frameLog, want prefixDigest, rep int) (*deployment, time.Duration, error) {
	d := &deployment{}
	t0 := time.Now()
	var workerAddrs []string
	for i := 0; i < s.workers; i++ {
		w, err := launch(fmt.Sprintf("fwworker%d", i), filepath.Join(env.bin, "fwworker"),
			[]string{"-addr", "127.0.0.1:0"}, []string{"listening on "}, 30*time.Second)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.workers = append(d.workers, w)
		workerAddrs = append(workerAddrs, w.addr("listening on "))
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-listen-stream", "127.0.0.1:0",
		"-shards", strconv.Itoa(s.shards),
		"-reorder-bound", strconv.FormatInt(s.bound, 10),
		"-policy", s.policy.String(),
		"-result-buffer", strconv.Itoa(s.resultBuffer),
	}
	if s.workers > 0 {
		args = append(args, "-workers", strings.Join(workerAddrs, ","))
	}
	if s.durable {
		d.walDir = filepath.Join(env.work, fmt.Sprintf("wal-%s-%d-%d", s.name, os.Getpid(), rep))
		os.RemoveAll(d.walDir)
		args = append(args, "-wal-dir", d.walDir, "-fsync", "interval")
	}
	srv, err := launch("fwserve", filepath.Join(env.bin, "fwserve"), args,
		[]string{"listening on ", "streaming listener on "}, 30*time.Second)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	d.server = srv
	base := "http://" + srv.addr("listening on ")
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	for q, ws := range s.queries {
		if err := register(hc, base, queryID(q), querySQL(ws)); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	streamAddr := srv.addr("streaming listener on ")
	if d.sub, err = subscribe(streamAddr, s, log, want); err != nil {
		d.stop()
		return nil, 0, err
	}
	if s.ingest == "http" {
		d.ing = newHTTPIngester(base)
	} else if d.ing, err = dialTCPIngest(streamAddr); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// stop closes the client connections, then stops fwserve before its
// workers, and removes the WAL.
func (d *deployment) stop() {
	if d.ing != nil {
		d.ing.close()
	}
	if d.sub != nil {
		d.sub.close()
	}
	if d.server != nil {
		d.server.stop()
	}
	for _, w := range d.workers {
		w.stop()
	}
	if d.walDir != "" {
		os.RemoveAll(d.walDir)
	}
}

// cpuOf reads each process's user+system CPU time, in ns.
func cpuOf(ps []*proc) ([]int64, error) {
	out := make([]int64, len(ps))
	for i, p := range ps {
		c, err := procCPU(p.pid)
		if err != nil {
			return nil, fmt.Errorf("%s cpu: %w", p.name, err)
		}
		out[i] = c
	}
	return out, nil
}

// genFrame is one pre-encoded frame from the generator goroutine.
type genFrame struct {
	k    int64
	buf  []byte
	rows int
	maxT int64
}

// generator encodes frames ahead of the sender on its own goroutine,
// recycling frame buffers.
type generator struct {
	out  chan genFrame
	free chan []byte
	stop chan struct{}
	done chan struct{}
}

// genDepth is how many encoded frames the generator keeps ready: enough
// to hide encoding behind one ack round trip.
const genDepth = 4

func startGenerator(src *eventSource) *generator {
	g := &generator{out: make(chan genFrame, genDepth), free: make(chan []byte, genDepth+2),
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		for k := int64(0); ; k++ {
			var buf []byte
			select {
			case buf = <-g.free:
			default:
			}
			buf, maxT := src.encode(buf, k, uint32(k+1))
			gf := genFrame{k: k, buf: buf, rows: src.s.frameEvents, maxT: maxT}
			select {
			case g.out <- gf:
			case <-g.stop:
				return
			}
		}
	}()
	return g
}

func (g *generator) recycle(buf []byte) {
	select {
	case g.free <- buf:
	default:
	}
}

func (g *generator) close() {
	close(g.stop)
	<-g.done
}

// loopStats accumulates one ingest phase.
type loopStats struct {
	frames, events int64
	firstK, endK   int64 // frames [firstK, endK) belong to the phase
	acks           []float64
	lateness       []float64 // open loop: send time minus due time, ms
	backlog        int64
	failed, shed   int64
	elapsed        time.Duration
	cpu0, cpu1     []int64
	// self0 and self1 are the benchmark process's own CPU time. Its
	// work per event is fixed, so its cost per event rises only when
	// the host slows it: when the hypervisor steals time or other
	// tenants compete for the physical cores and caches.
	self0, self1 int64
	host0, host1 hostCPU
	// setups are the setup_s samples of the throwaway deployments
	// launched just before this part.
	setups []float64
	// sends are the frames' send times, in ns since the frame log's base.
	sends []int64
}

// partRecord is one closed-loop part as the run report lists it.
type partRecord struct {
	Kept          bool    `json:"kept"`
	ThroughputEPS float64 `json:"throughput_eps"`
	CPUNsPerEvent float64 `json:"cpu_ns_per_event"`
	AckP50Ms      float64 `json:"ack_p50_ms"`
	HostCost      float64 `json:"host_cost_ns_per_event"`
	HostAdjust    float64 `json:"host_adjust"`
	Steal         float64 `json:"steal_frac"`
	SetupS        float64 `json:"setup_s"`
	TypicalEPS    float64 `json:"typical_eps"`
}

// hostCost is the benchmark process's own CPU time per event in the part.
func (st *loopStats) hostCost() float64 {
	return float64(st.self1-st.self0) / float64(max(st.events, 1))
}

// typicalRate is the part's throughput at its typical frame: events
// per frame over the median interval between consecutive sends. The
// mean rate, events over the part's duration, also counts every stall,
// and a hypervisor that steals a fifth of the host's time stalls many
// frames for milliseconds while leaving the median frame as it was;
// the mean rate is printed as raw.mean_throughput_eps.
func (st *loopStats) typicalRate() float64 {
	if len(st.sends) < 2 || st.frames == 0 {
		return 0
	}
	gaps := make([]float64, len(st.sends)-1)
	for i := range gaps {
		gaps[i] = float64(st.sends[i+1] - st.sends[i])
	}
	return float64(st.events) / float64(st.frames) / median(gaps) * 1e9
}

// steal is the share of host CPU time the hypervisor stole in the part.
func (st *loopStats) steal() float64 { return stealFrac(st.host0, st.host1) }

// hostAdjust is the factor that scales the part's times to the
// workload's reference host speed: the benchmark's own work per event
// is fixed, so its CPU cost per event measures how fast the host ran
// the part, and every process on the host speeds up and slows down
// with it. Times are multiplied by the factor, rates divided by it.
func (st *loopStats) hostAdjust(s *spec) float64 {
	return s.refClientNs / st.hostCost()
}

// quietest returns the n parts in which the hypervisor stole least,
// ties broken by the lower hostCost, in the order they ran. Steal
// lengthens every wall-clock time without showing in CPU time, so
// hostAdjust cannot correct a stolen part.
func quietest(parts []*loopStats, n int) []*loopStats {
	idx := make([]int, len(parts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := parts[idx[a]], parts[idx[b]]
		if sa, sb := pa.steal(), pb.steal(); sa != sb {
			return sa < sb
		}
		return pa.hostCost() < pb.hostCost()
	})
	idx = idx[:min(n, len(idx))]
	sort.Ints(idx)
	out := make([]*loopStats, len(idx))
	for i, j := range idx {
		out[i] = parts[j]
	}
	return out
}

// sender drives frames from the generator into the deployment.
type sender struct {
	s    *spec
	d    *deployment
	gen  *generator
	log  *frameLog
	next int64
	skip []int64
}

// sendOne sends the next frame and records its ack latency, timed from
// the send, or in the open loop (due >= 0) from when it was due.
func (sn *sender) sendOne(st *loopStats, due int64) error {
	gf := <-sn.gen.out
	sent := sn.log.record(gf.maxT)
	st.sends = append(st.sends, sent)
	a, err := sn.d.ing.send(gf.buf)
	acked := sn.log.now()
	sn.gen.recycle(gf.buf)
	sn.next++
	if err != nil {
		return err
	}
	from := sent
	if due >= 0 {
		from = due
		st.lateness = append(st.lateness, float64(sent-due)/1e6)
	}
	st.frames++
	switch {
	case a.shed:
		st.shed++
		sn.skip = append(sn.skip, gf.k)
	case a.err != "" || a.accepted != gf.rows:
		st.failed++
		sn.skip = append(sn.skip, gf.k)
	default:
		st.events += int64(gf.rows)
	}
	st.acks = append(st.acks, float64(acked-from)/1e6)
	return nil
}

// closedLoop sends frames back to back, each after the previous ack,
// for at least dur and at least minFrames frames in total.
func (sn *sender) closedLoop(dur time.Duration, minFrames int64, measure bool) (*loopStats, error) {
	st := &loopStats{firstK: sn.next}
	ps := sn.d.procs()
	var err error
	if measure {
		if st.cpu0, err = cpuOf(ps); err != nil {
			return nil, err
		}
		st.host0, _ = readHostCPU()
		if st.self0, err = selfCPU(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	for time.Since(t0) < dur || sn.next < minFrames {
		if err := sn.sendOne(st, -1); err != nil {
			return nil, err
		}
	}
	st.elapsed = time.Since(t0)
	st.endK = sn.next
	if measure {
		if st.cpu1, err = cpuOf(ps); err != nil {
			return nil, err
		}
		st.host1, _ = readHostCPU()
		if st.self1, err = selfCPU(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// openLoop sends frames on a fixed schedule at rate events/s for dur,
// timing each ack from when its frame was due; a stall therefore
// charges every frame it delayed. Frames still due at the end are the
// backlog.
func (sn *sender) openLoop(rate float64, dur time.Duration) (*loopStats, error) {
	st := &loopStats{}
	interval := time.Duration(float64(sn.s.frameEvents) / rate * 1e9)
	start := sn.log.now()
	end := start + int64(dur)
	for i := int64(0); ; i++ {
		due := start + i*int64(interval)
		now := sn.log.now()
		if due >= end || now >= end {
			st.backlog = max(0, (end-start+int64(interval)-1)/int64(interval)-i)
			break
		}
		if wait := due - now; wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if err := sn.sendOne(st, due); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// outcome is one run's end-to-end measurements and checks.
type outcome struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64 // end-to-end metrics
	layer             map[string]float64 // per-layer metrics measured on the processes
	diag              map[string]float64
	parts             []partRecord // every closed-loop part, for the report
	// digest is the received streams' prefix digest, wantDigest the
	// in-process expectation it is checked against.
	digest, wantDigest string
	// workers are fwworker processes kept for the traced replay.
	workers []*proc
}

func (o *outcome) workerAddrs() []string {
	var addrs []string
	for _, w := range o.workers {
		addrs = append(addrs, w.addr("listening on "))
	}
	return addrs
}

func (o *outcome) stopWorkers() {
	for _, w := range o.workers {
		w.stop()
	}
	o.workers = nil
}

// runE2E deploys the workload, then drives it: a warm-up, the measured
// closed loop and (untraced runs) the open-loop diagnostic, and finally
// checks every received row. Traced runs keep the fwworker processes
// for the in-process replay.
//
// setup_s is the median over throwaway deployments, setupsPerPart
// launched before each kept closed-loop part and scaled by that part's
// hostAdjust. Spreading the samples over the run, instead of taking
// them back to back, keeps a second of host noise from shifting all of
// them at once.
func runE2E(src *eventSource, seconds time.Duration, trace bool, env *runEnv) (*outcome, error) {
	s := src.s
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		return nil, err
	}
	want, err := expectedPrefix(src)
	if err != nil {
		return nil, fmt.Errorf("expected prefix: %w", err)
	}
	log := &frameLog{base: time.Now()}
	d, _, err := deploy(s, env, log, want, 0)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	// While the system is driven the benchmark runs Go code on one
	// thread: its sender, generator and subscriber then take at most one
	// of the host's cores from the servers, and no thread of it spins
	// for work. The reference check afterwards gets both back.
	prev := runtime.GOMAXPROCS(1)
	gen := startGenerator(src)
	sn := &sender{s: s, d: d, gen: gen, log: log}
	closedDur, openDur := seconds*8/10, seconds/10
	if trace {
		closedDur, openDur = seconds*3/10, 0
	}
	// The measured closed loop runs as consecutive parts. Each metric is
	// the median over the half of the parts in which the hypervisor stole
	// least, of the part's value scaled to the reference host speed: the
	// host's speed moves by a quarter within seconds on a shared machine,
	// and every process on it moves with it, so the scaled value stays
	// put where the raw one does not.
	phases := make([]*loopStats, 0, measureParts+3)
	st, err := sn.closedLoop(min(seconds/10, time.Second), 0, false)
	phases = append(phases, st)
	var all []*loopStats
	for i := 0; err == nil && i < measureParts; i++ {
		var setups []float64
		for j := 0; err == nil && j < setupsPerPart; j++ {
			dd, took, derr := deploy(s, env, log, want, i*setupsPerPart+j+1)
			if derr != nil {
				err = fmt.Errorf("deploy: %w", derr)
				break
			}
			dd.stop()
			setups = append(setups, took.Seconds())
		}
		if err != nil {
			break
		}
		if st, err = sn.closedLoop(closedDur/measureParts, 0, true); err == nil {
			st.setups = setups
			all = append(all, st)
			phases = append(phases, st)
		}
	}
	if err == nil && sn.next < prefixFrames {
		st, err = sn.closedLoop(0, prefixFrames, false)
		phases = append(phases, st)
	}
	var open *loopStats
	if err == nil && openDur > 0 {
		open, err = sn.openLoop(s.openRate, openDur)
		phases = append(phases, open)
	}
	gen.close()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	frames := sn.next

	o := &outcome{metrics: make(map[string]float64), layer: make(map[string]float64), diag: make(map[string]float64)}
	ps := d.procs()
	var rss int64
	for _, p := range ps {
		hwm, err := procHWM(p.pid)
		if err != nil {
			return nil, fmt.Errorf("%s rss: %w", p.name, err)
		}
		rss += hwm
		o.diag["proc."+p.name+".rss_mb"] = float64(hwm) / (1 << 20)
	}

	ref, counts, late, err := reference(src, frames, sn.skip)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var expected int64
	for _, c := range counts {
		expected += c
	}
	d.sub.await(expected, 10*time.Second)
	d.sub.close()
	sub := d.sub
	d.sub = nil
	if trace {
		// The workers stay up for the replay; fwserve goes now.
		d.ing.close()
		d.ing = nil
		d.server.stop()
		o.workers, d.workers = d.workers, nil
	}
	d.stop()
	stopped = true

	// Correctness.
	mismatch := mismatchedRows(ref, sub.got)
	got := sub.received()
	prefixOK := got.combined() == want.combined()
	var sent, badFrames int64
	for _, st := range phases {
		sent += st.frames
		badFrames += st.failed + st.shed
	}
	o.failed = badFrames + sub.gaps + mismatch + sub.seqErrors
	if !prefixOK {
		o.failed++
	}
	if sub.readErr != nil {
		o.failed++
		fmt.Fprintln(os.Stderr, "e2ebench: result stream:", sub.readErr)
	}
	o.attempted = sent + expected
	o.correct = o.failed == 0
	o.digest, o.wantDigest = got.combined(), want.combined()
	o.diag["error_rate"] = float64(o.failed) / float64(o.attempted)
	o.diag["check.missing_or_extra_rows"] = float64(mismatch)
	o.diag["check.seq_errors"] = float64(sub.seqErrors)
	o.diag["check.gap_notices"] = float64(sub.gaps)
	o.diag["check.bad_frames"] = float64(badFrames)
	o.diag["check.unfired_rows"] = float64(sub.unfired)
	o.diag["check.prefix_digest_ok"] = float64(btoi(prefixOK))
	o.diag["rows_per_event"] = float64(expected) / float64(frames*int64(s.frameEvents))
	o.diag["reorder.late_frac"] = late

	// End-to-end metrics: medians over the kept closed-loop parts, each
	// part's times scaled to the reference host speed by its hostAdjust.
	// The unscaled medians are printed beside them as raw.*.
	parts := quietest(all, measureParts/2)
	raw := map[string][]float64{}
	adj := map[string][]float64{}
	add := func(name string, v, f float64) {
		raw[name] = append(raw[name], v)
		adj[name] = append(adj[name], v*f)
	}
	var selfs, factors, meanTput, ackAll []float64
	var visAll []weighted
	var visRows int64
	cpuBy := make([]int64, len(ps))
	var events int64
	for _, pt := range parts {
		f := pt.hostAdjust(s)
		factors = append(factors, f)
		ev := float64(pt.events)
		events += pt.events
		add("throughput_eps", pt.typicalRate(), 1/f)
		meanTput = append(meanTput, ev/pt.elapsed.Seconds())
		var cpu int64
		for i := range ps {
			c := pt.cpu1[i] - pt.cpu0[i]
			cpu += c
			cpuBy[i] += c
		}
		add("cpu_ns_per_event", float64(cpu)/ev, f)
		selfs = append(selfs, pt.hostCost())
		for _, v := range pt.setups {
			add("setup_s", v, f)
		}
		add("ack_p50_ms", percentile(sortedCopy(pt.acks), 50), f)
		ackAll = append(ackAll, pt.acks...)
		var vis []weighted
		for _, v := range sub.samples {
			if int64(v.frame) >= pt.firstK && int64(v.frame) < pt.endK {
				vis = append(vis, weighted{v: float64(v.ns) / 1e6, w: v.rows})
				visRows += v.rows
			}
		}
		visAll = append(visAll, vis...)
		if len(vis) > 0 { // a part in which no instance fired has no sample
			add("visible_p50_ms", weightedPercentile(vis, 50), f)
		}
	}
	if len(adj["visible_p50_ms"]) == 0 {
		return nil, fmt.Errorf("no window instance fired during the measured phase")
	}
	o.metrics["setup_s"] = median(adj["setup_s"])
	for _, name := range []string{"throughput_eps", "cpu_ns_per_event", "ack_p50_ms", "visible_p50_ms"} {
		o.metrics["adj_"+name] = median(adj[name])
		o.diag["raw."+name] = median(raw[name])
		q1, q2, q3 := quartiles(adj[name])
		o.diag["parts.adj_"+name+".spread"] = (q3 - q1) / q2
	}
	o.diag["raw.setup_s"] = median(raw["setup_s"])
	o.metrics["rss_peak_mb"] = float64(rss) / (1 << 20)
	o.diag["raw.mean_throughput_eps"] = median(meanTput)
	o.diag["host.adjust"] = median(factors)
	o.diag["proc.e2ebench.cpu_ns_per_event"] = median(selfs)
	for i, p := range ps {
		perEvent := float64(cpuBy[i]) / float64(events)
		o.diag["proc."+p.name+".cpu_ns_per_event"] = perEvent
		if p == d.server {
			o.layer["server.cpu_ns_per_event"] = perEvent
		} else {
			o.layer["shardworker.cpu_ns_per_event"] += perEvent
		}
	}

	// Tails over every frame and row of the kept parts, as diagnostics.
	tailStat(o.diag, "ack", sortedCopy(ackAll))
	if p := tailPercentile(int(visRows)); p > 50 {
		o.diag[fmt.Sprintf("visible_p%g_ms", p)] = weightedPercentile(visAll, p)
	}
	o.diag["visible.rows"] = float64(visRows)
	// Host noise over the whole measured loop, dropped parts included.
	steal := stealFrac(all[0].host0, all[len(all)-1].host1)
	o.diag["host.steal_frac"] = steal
	o.layer["host.steal_frac"] = steal
	var allCost, allTput []float64
	for _, pt := range all {
		allCost = append(allCost, pt.hostCost())
		allTput = append(allTput, float64(pt.events)/pt.elapsed.Seconds())
	}
	o.diag["parts.all.proc.e2ebench.cpu_ns_per_event"] = median(allCost)
	o.diag["parts.all.throughput_eps"] = median(allTput)
	kept := make(map[*loopStats]bool, len(parts))
	for _, pt := range parts {
		kept[pt] = true
	}
	for _, pt := range all {
		var cpu int64
		for i := range ps {
			cpu += pt.cpu1[i] - pt.cpu0[i]
		}
		o.parts = append(o.parts, partRecord{
			Kept:          kept[pt],
			ThroughputEPS: float64(pt.events) / pt.elapsed.Seconds(),
			CPUNsPerEvent: float64(cpu) / float64(max(pt.events, 1)),
			AckP50Ms:      percentile(sortedCopy(pt.acks), 50),
			HostCost:      pt.hostCost(),
			HostAdjust:    pt.hostAdjust(s),
			Steal:         pt.steal(),
			SetupS:        median(pt.setups),
			TypicalEPS:    pt.typicalRate(),
		})
	}
	o.diag["setup.samples"] = float64(len(adj["setup_s"]))
	q1, q2, q3 := quartiles(adj["setup_s"])
	o.diag["setup.spread"] = (q3 - q1) / q2

	if open != nil {
		o.diag["openloop.rate_eps"] = s.openRate
		oa := sortedCopy(open.acks)
		o.diag["openloop.ack_p50_ms"] = percentile(oa, 50)
		tailStat(o.diag, "openloop.ack", oa)
		ol := sortedCopy(open.lateness)
		o.diag["openloop.lateness_p50_ms"] = percentile(ol, 50)
		tailStat(o.diag, "openloop.lateness", ol)
		o.diag["openloop.backlog_frames"] = float64(open.backlog)
	}
	return o, nil
}

// tailStat records a sorted sample's tail at the highest percentile the
// sample count supports, with the count.
func tailStat(diag map[string]float64, name string, sorted []float64) {
	diag[name+".samples"] = float64(len(sorted))
	if p := tailPercentile(len(sorted)); p > 50 {
		diag[fmt.Sprintf("%s_p%g_ms", name, p)] = percentile(sorted, p)
	}
}

// selfCPU is the benchmark process's user plus system CPU time in ns,
// at the microsecond resolution of getrusage.
func selfCPU() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}
