package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factorwindows/internal/wire"
)

// Control-frame aux flags of the stream listener protocol (see the
// server's streamlisten.go).
const (
	auxGap  int64 = 1 << 1
	auxShed int64 = 1 << 2
)

// register posts one query over HTTP, as a client would.
func register(c *http.Client, base, id, sql string) error {
	resp, err := c.Post(base+"/queries?id="+id, "text/plain", strings.NewReader(sql))
	if err != nil {
		return fmt.Errorf("register %s: %w", id, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("register %s: %s: %s", id, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// ackResult is the server's answer to one ingested frame.
type ackResult struct {
	accepted int
	shed     bool
	err      string
}

// ingester sends one event frame and waits for its ack: a closed loop
// with one frame in flight per connection.
type ingester interface {
	send(frame []byte) (ackResult, error)
	close()
}

// tcpIngester ingests frames over a stream-listener connection.
type tcpIngester struct {
	conn net.Conn
	fr   *wire.Reader
}

func dialTCPIngest(addr string) (*tcpIngester, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpIngester{conn: c, fr: wire.NewReader(bufio.NewReaderSize(c, 4096))}, nil
}

func (t *tcpIngester) send(frame []byte) (ackResult, error) {
	if _, err := t.conn.Write(frame); err != nil {
		return ackResult{}, fmt.Errorf("ingest write: %w", err)
	}
	f, err := t.fr.Next()
	if err != nil {
		return ackResult{}, fmt.Errorf("ingest ack: %w", err)
	}
	if f.Kind != wire.KindControl {
		return ackResult{}, fmt.Errorf("ingest ack: frame kind %d", f.Kind)
	}
	var a struct {
		Ingest   bool   `json:"ingest"`
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(f.Control(), &a); err != nil {
		return ackResult{}, fmt.Errorf("ingest ack: %w", err)
	}
	if !a.Ingest {
		return ackResult{}, fmt.Errorf("ingest ack: unexpected control %s", f.Control())
	}
	return ackResult{accepted: a.Accepted, shed: f.Seq&auxShed != 0, err: a.Error}, nil
}

func (t *tcpIngester) close() {
	t.fr.Close()
	t.conn.Close()
}

// httpIngester ingests one frame per POST /ingest on a keep-alive
// connection.
type httpIngester struct {
	c   *http.Client
	url string
}

func newHTTPIngester(base string) *httpIngester {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpIngester{c: &http.Client{Transport: tr}, url: base + "/ingest"}
}

func (h *httpIngester) send(frame []byte) (ackResult, error) {
	resp, err := h.c.Post(h.url, "application/x-fw-frame", bytes.NewReader(frame))
	if err != nil {
		return ackResult{}, fmt.Errorf("ingest post: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return ackResult{}, fmt.Errorf("ingest response: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return ackResult{shed: true, err: string(body)}, nil
	default:
		return ackResult{err: fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body))}, nil
	}
	var st struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return ackResult{}, fmt.Errorf("ingest response: %w", err)
	}
	return ackResult{accepted: st.Accepted}, nil
}

func (h *httpIngester) close() { h.c.CloseIdleConnections() }

// frameLog records, per ingested frame, the running maximum event time
// and when the frame was sent, for mapping result rows to the frame
// that fired them.
type frameLog struct {
	base time.Time

	mu     sync.Mutex
	runMax []int64
	sentNs []int64
}

func (l *frameLog) now() int64 { return int64(time.Since(l.base)) }

// record logs the next frame; it returns the frame's send time.
func (l *frameLog) record(frameMax int64) int64 {
	at := l.now()
	l.mu.Lock()
	m := frameMax
	if n := len(l.runMax); n > 0 {
		m = max(m, l.runMax[n-1])
	}
	l.runMax = append(l.runMax, m)
	l.sentNs = append(l.sentNs, at)
	l.mu.Unlock()
	return at
}

// trigger returns the frame that fired an instance ending at end, and
// when it was sent; ok is false when no frame sent so far fires it.
func (l *frameLog) trigger(end, bound int64) (k int, sentNs int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k = triggerFrame(l.runMax, end, bound)
	if k == len(l.runMax) {
		return k, 0, false
	}
	return k, l.sentNs[k], true
}

// visSample is one group of rows that arrived in one result frame and
// were fired by the same ingest frame.
type visSample struct {
	frame int
	ns    int64
	rows  int64
}

// subscriber holds every query's subscription on one stream-listener
// connection and checks each row it receives.
type subscriber struct {
	conn  net.Conn
	fr    *wire.Reader
	spec  *spec
	log   *frameLog
	want  prefixDigest
	done  chan struct{}
	total atomic.Int64 // rows received, all queries

	// Owned by the reader goroutine until done is closed.
	got       rowDigest
	rows      []int64
	prefix    []*seqHasher
	seqErrors int64
	gaps      int64
	unfired   int64 // rows no frame sent so far should have fired
	samples   []visSample
	readErr   error
}

// subscribe opens the subscription connection and subscribes query q
// under stream id q+1, replaying from the start of each ring.
func subscribe(addr string, s *spec, log *frameLog, want prefixDigest) (*subscriber, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sub := &subscriber{conn: c, fr: wire.NewReader(bufio.NewReaderSize(c, 256<<10)), spec: s, log: log, want: want,
		done: make(chan struct{}), got: make(rowDigest), rows: make([]int64, len(s.queries))}
	var lines bytes.Buffer
	for q := range s.queries {
		fmt.Fprintf(&lines, `{"op":"subscribe","stream":%d,"id":%q,"after":-1}`+"\n", q+1, queryID(q))
		sub.prefix = append(sub.prefix, newSeqHasher())
	}
	if _, err := c.Write(lines.Bytes()); err != nil {
		sub.abort()
		return nil, err
	}
	for range s.queries {
		f, err := sub.fr.Next()
		if err != nil {
			sub.abort()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		var a struct {
			OK    bool   `json:"ok"`
			Error string `json:"error"`
		}
		if f.Kind != wire.KindControl || json.Unmarshal(f.Control(), &a) != nil || !a.OK {
			sub.abort()
			return nil, fmt.Errorf("subscribe: unexpected answer kind %d: %s", f.Kind, a.Error)
		}
	}
	go sub.read()
	return sub, nil
}

// read consumes result frames until the connection closes.
func (sub *subscriber) read() {
	defer close(sub.done)
	bound := sub.spec.bound
	for {
		f, err := sub.fr.Next()
		if err != nil {
			// The reader turns every cut-off read, the benchmark
			// closing the connection included, into ErrShort.
			if err != io.EOF && err != wire.ErrShort {
				sub.readErr = err
			}
			return
		}
		at := sub.log.now()
		q := int(f.StreamID) - 1
		switch {
		case q < 0 || q >= len(sub.rows):
			sub.readErr = fmt.Errorf("result frame for unknown stream %d", f.StreamID)
			return
		case f.Kind == wire.KindControl:
			if f.Seq&auxGap != 0 {
				sub.gaps++
			}
			continue
		case f.Kind != wire.KindResults:
			sub.readErr = fmt.Errorf("unexpected frame kind %d", f.Kind)
			return
		}
		// Rows come in same-instance runs: look the group and the
		// trigger frame up once per run, not per row.
		cur := visSample{frame: -1}
		var (
			gk      groupKey
			g       *groupSum
			k       int
			sent    int64
			ok      bool
			lastEnd = int64(math.MinInt64)
		)
		for i := 0; i < f.Rows(); i++ {
			seq, rng, slide, start, end, key, value := f.Result(i)
			if seq != sub.rows[q] {
				sub.seqErrors++
			}
			sub.rows[q]++
			if seq < sub.want.counts[q] {
				sub.prefix[q].add(seq, rng, slide, start, end, key, value)
			}
			if nk := (groupKey{q: int32(q), rng: rng, slide: slide, end: end}); g == nil || nk != gk {
				gk, g = nk, sub.got.group(nk)
			}
			g.add(key, start, value)
			if end != lastEnd {
				lastEnd = end
				k, sent, ok = sub.log.trigger(end, bound)
			}
			if !ok {
				sub.unfired++
				continue
			}
			if k != cur.frame {
				if cur.rows > 0 {
					sub.samples = append(sub.samples, cur)
				}
				cur = visSample{frame: k, ns: at - sent}
			}
			cur.rows++
		}
		if cur.rows > 0 {
			sub.samples = append(sub.samples, cur)
		}
		sub.total.Add(int64(f.Rows()))
	}
}

// await waits until n rows have arrived or the timeout passes.
func (sub *subscriber) await(n int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for sub.total.Load() < n && time.Now().Before(deadline) {
		select {
		case <-sub.done:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// close ends the subscription connection and waits for the reader.
func (sub *subscriber) close() {
	sub.conn.Close()
	<-sub.done
	sub.fr.Close()
}

// abort releases a subscriber whose reader never started.
func (sub *subscriber) abort() {
	sub.conn.Close()
	sub.fr.Close()
}

// received is the sequence-exact digest of the rows that arrived within
// each query's expected prefix, and how many did.
func (sub *subscriber) received() prefixDigest {
	pd := prefixDigest{counts: make([]int64, len(sub.prefix)), sums: make([]uint64, len(sub.prefix))}
	for q, h := range sub.prefix {
		pd.counts[q] = min(sub.rows[q], sub.want.counts[q])
		pd.sums[q] = h.h.Sum64()
	}
	return pd
}
