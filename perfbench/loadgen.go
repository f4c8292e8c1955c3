package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind is one kind of request the generator sends.
type opKind int

const (
	opSingle opKind = iota
	opBatch
	opObserve
	numOpKinds
)

var opPaths = [numOpKinds]string{"/v1/query", "/v1/query/batch", "/v1/observe"}
var opNames = [numOpKinds]string{"single", "batch", "observe"}

// op is one prepared request: its kind, encoded body, and the index the
// workload's checker uses to find the expected answer. A lazy op's answer
// is recorded and checked after the run.
type op struct {
	kind opKind
	body []byte
	idx  int
	lazy bool
}

// event is an op due at a fixed offset from the start of an open-loop
// phase.
type event struct {
	due time.Duration
	op  *op
}

// checker validates one response; a non-nil error counts the operation as
// failed.
type checker func(o *op, status int, body []byte) error

// loadClient sends ops to one server over at most maxConns connections.
type loadClient struct {
	hc   *http.Client
	base string
	tr   *tracer
	seq  atomic.Int64
}

// clientConns is the number of connections and client goroutines the
// generator uses: the host's core count, which the serving side shares.
const clientConns = 2

func newLoadClient(base string, tr *tracer) *loadClient {
	t := &http.Transport{
		MaxIdleConns:        clientConns,
		MaxIdleConnsPerHost: clientConns,
		MaxConnsPerHost:     clientConns,
		DisableCompression:  true,
	}
	return &loadClient{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, base: base, tr: tr}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// send posts o and returns the status and body.
func (c *loadClient) send(o *op) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+opPaths[o.kind], bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := -1
	if c.tr != nil {
		rid := c.seq.Add(1)
		id = c.tr.begin(spanClient, -1, rid)
		req.Header.Set(headerReq, strconv.FormatInt(rid, 10))
		req.Header.Set(headerSpan, strconv.Itoa(id))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(id)
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(id)
	return resp.StatusCode, body, err
}

// get fetches path and returns its body.
func (c *loadClient) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// phase is what one load phase measured.
type phase struct {
	elapsed   time.Duration
	lat       [numOpKinds]dist // µs, from the due time (open loop) or send (closed loop)
	late      dist             // ms the dispatcher's timer woke after the due time
	attempted [numOpKinds]int64
	failed    [numOpKinds]int64
	firstErr  error
	mallocs   uint64
	allocB    uint64
	cpu       time.Duration
	// start and perWindow count each kind's successful ops per
	// rateWindow of the phase, for a rate robust to a passing stall.
	start     time.Time
	perWindow [numOpKinds][]int64
}

// rateWindow is the window the closed loop counts completions in.
const rateWindow = time.Second

func (p *phase) merge(o *phase) {
	for k := range p.lat {
		p.lat[k].merge(&o.lat[k])
		p.attempted[k] += o.attempted[k]
		p.failed[k] += o.failed[k]
		for w, n := range o.perWindow[k] {
			for len(p.perWindow[k]) <= w {
				p.perWindow[k] = append(p.perWindow[k], 0)
			}
			p.perWindow[k][w] += n
		}
	}
	p.late.merge(&o.late)
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

func (p *phase) totals() (attempted, failed int64) {
	for k := range p.attempted {
		attempted += p.attempted[k]
		failed += p.failed[k]
	}
	return attempted, failed
}

// outcome records one finished op on a worker's own phase.
func (p *phase) outcome(o *op, lat time.Duration, status int, body []byte, err error, check checker) {
	p.attempted[o.kind]++
	if err == nil {
		err = check(o, status, body)
	}
	if err != nil {
		p.failed[o.kind]++
		if p.firstErr == nil {
			p.firstErr = fmt.Errorf("%s op %d: %w", opNames[o.kind], o.idx, err)
		}
		return
	}
	p.lat[o.kind].add(float64(lat) / 1e3)
	if !p.start.IsZero() {
		w := int(time.Since(p.start) / rateWindow)
		for len(p.perWindow[o.kind]) <= w {
			p.perWindow[o.kind] = append(p.perWindow[o.kind], 0)
		}
		p.perWindow[o.kind][w]++
	}
}

// windowRate is the median over the phase's whole windows of kind k's
// completions per second, or the plain rate when the phase is shorter
// than three windows.
func (p *phase) windowRate(k opKind) float64 {
	whole := int(p.elapsed / rateWindow)
	if whole < 3 {
		return float64(p.lat[k].n()) / p.elapsed.Seconds()
	}
	var d dist
	for w := 0; w < whole; w++ {
		n := int64(0)
		if w < len(p.perWindow[k]) {
			n = p.perWindow[k][w]
		}
		d.add(float64(n) / rateWindow.Seconds())
	}
	return d.p50()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// openLoop sends every event at its due time over clientConns
// connections and returns when every event has completed. A dispatcher
// hands each event, once due, to whichever connection is free. An op is
// timed from its due time, so waiting for a free connection (the system
// falling behind) is charged to it; but when the dispatcher's own timer
// woke late, the op is timed from that wake-up instead: Go's timers can
// overshoot sub-millisecond sleeps by up to a millisecond, and that
// lateness is the generator's, reported as late.
func openLoop(c *loadClient, events []event, check checker) *phase {
	type job struct {
		op   *op
		from time.Time
	}
	jobs := make(chan job)
	parts := make([]phase, clientConns)
	var lateness dist
	before := memStats()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for j := range jobs {
				status, body, err := c.send(j.op)
				p.outcome(j.op, time.Since(j.from), status, body, err, check)
			}
		}(&parts[w])
	}
	var woke time.Time
	for _, ev := range events {
		due := start.Add(ev.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			woke = time.Now()
			lateness.add(float64(woke.Sub(due)) / 1e6)
		}
		from := due
		if woke.After(due) {
			from = woke
		}
		jobs <- job{op: ev.op, from: from}
	}
	close(jobs)
	wg.Wait()
	out := &phase{elapsed: time.Since(start), late: lateness, cpu: cpuTime() - cpu0}
	after := memStats()
	out.mallocs, out.allocB = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// closedLoop sends back to back from clientConns goroutines for d, each
// taking its next op from next (nil ends that goroutine early), and times
// each op from its send.
func closedLoop(c *loadClient, d time.Duration, next func() *op, check checker) *phase {
	parts := make([]phase, clientConns)
	before := memStats()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for i := range parts {
		parts[i].start = start
	}
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := next()
				if o == nil {
					return
				}
				sent := time.Now()
				status, body, err := c.send(o)
				p.outcome(o, time.Since(sent), status, body, err, check)
			}
		}(&parts[w])
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	after := memStats()
	out.mallocs, out.allocB = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// schedule lays n ops at a fixed rate (per second) starting at offset 0.
func schedule(ops []*op, rate float64) []event {
	out := make([]event, len(ops))
	for i, o := range ops {
		out[i] = event{due: time.Duration(float64(i) / rate * float64(time.Second)), op: o}
	}
	return out
}
