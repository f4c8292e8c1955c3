package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pka"
	"pka/internal/cluster"
	"pka/internal/par"
	"pka/internal/query"
)

// phaseSecs splits a run between the open-loop phase, whose median
// settles on few seconds of samples, and the closed-loop phase, whose
// per-second capacity wanders with the host and needs more windows.
func phaseSecs(seconds float64) (open, closed float64) {
	return seconds / 3, seconds - seconds/3
}

// serveCacheBytes is the serving cache size, pka serve's default.
const serveCacheBytes = 32 << 20

// serveSetups is how many times a run sets a serve workload up; setup_s is
// their median.
const serveSetups = 5

type serveKind int

const (
	kindHot serveKind = iota
	kindChurn
	kindSharded
)

// serveConfig fixes one serve workload's traffic. Rates are requests per
// second of the open-loop phase.
type serveConfig struct {
	name string
	kind serveKind
	// headline is the op kind the end-to-end metrics describe.
	headline opKind
	// rate is the headline op's open-loop rate.
	rate float64
	// distinct and zipfS shape serve_hot's repeated key set.
	distinct int
	zipfS    float64
	// singleRate, observeRate, observeRows and batch shape serve_churn.
	singleRate  float64
	observeRate float64
	observeRows int
	batchGroups int
	groupSize   int
	batchPool   int
	shards      int
}

var (
	hotConfig = serveConfig{name: "serve_hot", kind: kindHot, headline: opSingle,
		rate: 8000, distinct: 256, zipfS: 1.1}
	churnConfig = serveConfig{name: "serve_churn", kind: kindChurn, headline: opBatch,
		rate: 200, singleRate: 300, observeRate: 10, observeRows: 50,
		batchGroups: 16, groupSize: 4, batchPool: 2048}
	shardedConfig = serveConfig{name: "serve_sharded", kind: kindSharded, headline: opSingle,
		rate: 2000, shards: 2}
)

func runServeHot(cfg runConfig) (*report, error)     { return runServe(cfg, hotConfig) }
func runServeChurn(cfg runConfig) (*report, error)   { return runServe(cfg, churnConfig) }
func runServeSharded(cfg runConfig) (*report, error) { return runServe(cfg, shardedConfig) }

// traffic is a serve workload's prepared input: every request body and
// the answers to check against.
type traffic struct {
	sc   serveConfig
	snap []byte
	// warm ops go out during set-up, never again.
	warm []*op
	// open is the open-loop script; closedNext feeds the closed loop.
	open       []event
	closedNext func(start time.Time) func() *op
	// want holds the hash of each single op's expected answer by idx
	// (hot, sharded).
	want []uint64
	// lazySeed and lazySeen define serve_sharded's closed-loop stream, and
	// got holds the hash of each of its answers by idx, checked at the end.
	lazySeed int64
	lazySeen map[uint64]bool
	got      []uint64
	// observes are serve_churn's row batches by idx, and probes the
	// queries checked against an offline model fed the same batches.
	observes [][][]string
	probes   []pka.Query
	// singles and batches keep sent queries for the layer replays: the
	// open-loop singles, and the first batchReplay batches.
	singles []pka.Query
	batches [][]pka.Query
	// observed maps each applied observe's resulting version to its idx.
	mu       sync.Mutex
	observed map[int64]int
}

func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding %T: %v", v, err))
	}
	return b
}

// prepare builds the snapshot once, untimed, and draws every request of
// the run from seed.
func prepare(sc serveConfig, shape serveShape, seed int64, seconds float64) (*traffic, error) {
	snap, gen, err := buildServeSnapshot(shape, seed)
	if err != nil {
		return nil, err
	}
	oracle, err := pka.LoadSnapshot(bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	t := &traffic{sc: sc, snap: snap, observed: make(map[int64]int)}
	qg := newQueryGen(oracle.Schema(), seed*7919+1)
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	openSecs, _ := phaseSecs(seconds)
	nOpen := int(sc.rate * openSecs)
	seen := make(map[uint64]bool)
	single := func(q pka.Query, idx int) *op {
		return &op{kind: opSingle, body: marshal(q), idx: idx}
	}

	switch sc.kind {
	case kindHot:
		qs, want, err := distinctQueries(qg, oracle, sc.distinct, seen)
		if err != nil {
			return nil, err
		}
		t.want = want
		ops := make([]*op, len(qs))
		for i, q := range qs {
			ops[i] = single(q, i)
		}
		t.warm = ops
		zipf := rand.NewZipf(rng, sc.zipfS, 1, uint64(len(ops)-1))
		pick := make([]*op, nOpen)
		for i := range pick {
			pick[i] = ops[zipf.Uint64()]
			t.singles = append(t.singles, qs[pick[i].idx])
		}
		t.open = schedule(pick, sc.rate)
		stream := make([]*op, 1<<16)
		for i := range stream {
			stream[i] = ops[zipf.Uint64()]
		}
		t.closedNext = func(time.Time) func() *op {
			var n atomic.Int64
			return func() *op { return stream[int(n.Add(1)-1)%len(stream)] }
		}

	case kindSharded:
		const warm = 64
		qs, want, err := distinctQueries(qg, oracle, warm+nOpen, seen)
		if err != nil {
			return nil, err
		}
		t.want = want
		ops := make([]*op, len(qs))
		for i, q := range qs {
			ops[i] = single(q, i)
		}
		t.warm = ops[:warm]
		t.open = schedule(ops[warm:], sc.rate)
		t.singles = qs[warm:]
		// The closed loop outruns any pool worth preparing, so it draws
		// fresh queries as it goes; verifyEnd draws the same stream again
		// and checks every answer against the offline model.
		t.lazySeed, t.lazySeen = seed*15485863+5, seen
		t.closedNext = func(time.Time) func() *op {
			var mu sync.Mutex
			u := newUniqueStream(oracle.Schema(), t.lazySeed, t.lazySeen)
			n := 0
			return func() *op {
				mu.Lock()
				defer mu.Unlock()
				o := &op{kind: opSingle, body: marshal(u.next()), idx: n, lazy: true}
				n++
				return o
			}
		}

	case kindChurn:
		const warm = 32
		nSingles := int(sc.singleRate * openSecs)
		qs, _, err := distinctQueries(qg, oracle, warm+nSingles, seen)
		if err != nil {
			return nil, err
		}
		for i, q := range qs[:warm] {
			t.warm = append(t.warm, single(q, i))
		}
		singles := make([]*op, nSingles)
		for i, q := range qs[warm:] {
			singles[i] = single(q, warm+i)
		}
		t.singles = qs[warm:]
		batchOps := make([]*op, sc.batchPool)
		for b := range batchOps {
			var batch []pka.Query
			for g := 0; g < sc.batchGroups; g++ {
				given := qg.evidence(make(map[int]bool))
				for j := 0; j < sc.groupSize; j++ {
					batch = append(batch, qg.withEvidence(queryKinds[qg.rng.Intn(len(queryKinds))], given))
				}
			}
			if b < batchReplay {
				t.batches = append(t.batches, batch)
			}
			batchOps[b] = &op{kind: opBatch, body: marshal(map[string]any{"queries": batch}), idx: b}
		}
		nOpenObs := int(sc.observeRate * openSecs)
		nObs := int(sc.observeRate*seconds) + 2
		obsOps := make([]*op, nObs)
		t.observes = make([][][]string, nObs)
		for i := range obsOps {
			t.observes[i] = gen.labeledBatch(sc.observeRows)
			obsOps[i] = &op{kind: opObserve, body: marshal(map[string]any{"rows": t.observes[i]}), idx: i}
		}
		t.open = append(t.open, schedule(singles, sc.singleRate)...)
		if nOpen > len(batchOps) {
			return nil, fmt.Errorf("open loop needs %d batches, pool has %d", nOpen, len(batchOps))
		}
		t.open = append(t.open, schedule(batchOps[:nOpen], sc.rate)...)
		t.open = append(t.open, schedule(obsOps[:nOpenObs], sc.observeRate)...)
		sort.SliceStable(t.open, func(i, j int) bool { return t.open[i].due < t.open[j].due })
		t.probes, _, err = distinctQueries(qg, oracle, 48, seen)
		if err != nil {
			return nil, err
		}
		// The closed loop sends batches back to back, except that an
		// observe goes out whenever one falls due on the fixed-rate clock.
		var nextObs atomic.Int64
		nextObs.Store(int64(nOpenObs))
		t.closedNext = func(start time.Time) func() *op {
			var n atomic.Int64
			return func() *op {
				k := nextObs.Load()
				due := start.Add(time.Duration(float64(k-int64(nOpenObs)) / sc.observeRate * float64(time.Second)))
				if int(k) < len(obsOps) && !time.Now().Before(due) && nextObs.CompareAndSwap(k, k+1) {
					return obsOps[k]
				}
				return batchOps[int(n.Add(1)-1)%len(batchOps)]
			}
		}
	}
	return t, nil
}

// resetObserved forgets the observes of a previous stack.
func (t *traffic) resetObserved() {
	t.mu.Lock()
	t.observed = make(map[int64]int)
	t.mu.Unlock()
}

// check validates one response against the prepared answers.
func (t *traffic) check(o *op, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	switch o.kind {
	case opSingle:
		if o.lazy {
			t.mu.Lock()
			for len(t.got) <= o.idx {
				t.got = append(t.got, 0)
			}
			t.got[o.idx] = bodyHash(body)
			t.mu.Unlock()
			return nil
		}
		if t.want != nil && bodyHash(body) != t.want[o.idx] {
			return fmt.Errorf("answer %q differs from the offline answer", body)
		}
	case opBatch:
		if bytes.Contains(body, []byte(`"error"`)) {
			return fmt.Errorf("batch carried a failed query: %.200s", body)
		}
	case opObserve:
		var rep query.IngestReport
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("observe answer: %w", err)
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		if _, dup := t.observed[rep.Version]; dup {
			return fmt.Errorf("two observes reported version %d", rep.Version)
		}
		t.observed[rep.Version] = o.idx
	}
	return nil
}

// serveEnv is one running serving stack.
type serveEnv struct {
	base      string
	servers   []*http.Server
	done      []chan struct{}
	wrapped   servedQuerier // the timing wrapper, when traced
	handler   http.Handler  // the front server, without the timing wrapper
	transport *timedTransport
	coordTr   *http.Transport
	shardURLs []string
}

func (e *serveEnv) close() {
	for i, s := range e.servers {
		s.Close()
		<-e.done[i]
	}
	if e.coordTr != nil {
		e.coordTr.CloseIdleConnections()
	}
}

// listen serves h on a loopback port.
func (e *serveEnv) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("binding loopback listener: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	e.servers = append(e.servers, srv)
	e.done = append(e.done, done)
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns http.ErrServerClosed on close
	}()
	return "http://" + l.Addr().String(), nil
}

// load restores one serving process's model from the snapshot, with the
// engine cache on.
func load(snap []byte, updatable bool, tr *tracer) (pka.Querier, error) {
	id := tr.begin(spanSetupLoad, -1, 0)
	defer tr.end(id)
	var q pka.Querier
	var err error
	if updatable {
		var m *pka.Model
		if m, err = pka.LoadModelSnapshot(bytes.NewReader(snap)); err == nil {
			m.EnableCache(serveCacheBytes)
			q = m
		}
	} else {
		var m *pka.QueryModel
		if m, err = pka.LoadSnapshot(bytes.NewReader(snap)); err == nil {
			m.EnableCache(serveCacheBytes)
			q = m
		}
	}
	return q, err
}

// startEnv boots sc's serving stack on snap; a non-nil tracer wraps every
// layer boundary in spans. batchWorkers is the server's batch parallelism
// (0: GOMAXPROCS, as pka serve runs).
func startEnv(sc serveConfig, snap []byte, tr *tracer, batchWorkers int) (env *serveEnv, err error) {
	e := &serveEnv{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	var served pka.Querier
	switch sc.kind {
	case kindHot, kindChurn:
		if served, err = load(snap, sc.kind == kindChurn, tr); err != nil {
			return nil, err
		}
	case kindSharded:
		for i := 0; i < sc.shards; i++ {
			m, err := load(snap, false, tr)
			if err != nil {
				return nil, err
			}
			sh, err := cluster.NewShard(m.(*pka.QueryModel).KnowledgeBase(), i, sc.shards)
			if err != nil {
				return nil, err
			}
			url, err := e.listen(timedHandler(sh.Handler(), tr, spanShardEval, headerRPCSpan))
			if err != nil {
				return nil, err
			}
			e.shardURLs = append(e.shardURLs, url)
		}
		front, err := load(snap, false, tr)
		if err != nil {
			return nil, err
		}
		if served, err = e.coordinator(front.(*pka.QueryModel), tr); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		e.wrapped = wrapQuerier(served, tr)
		served = e.wrapped
	}
	e.handler = pka.NewServerWithOptions(served, pka.ServerOptions{CacheBytes: serveCacheBytes, Workers: batchWorkers})
	e.base, err = e.listen(timedHandler(e.handler, tr, spanHandler, headerSpan))
	if err != nil {
		return nil, err
	}
	return e, nil
}

// coordinator connects a coordinator for front to the env's shards, over
// a client whose transport is timed when tr is set.
func (e *serveEnv) coordinator(front *pka.QueryModel, tr *tracer) (*cluster.Coordinator, error) {
	tport := &http.Transport{MaxIdleConnsPerHost: clientConns}
	if e.coordTr == nil {
		e.coordTr = tport
	}
	client := &http.Client{Transport: tport, Timeout: 30 * time.Second}
	if tr != nil {
		e.transport = &timedTransport{base: tport, tr: tr}
		client.Transport = e.transport
	}
	coord, err := cluster.NewCoordinator(front.KnowledgeBase(), e.shardURLs, client)
	if err != nil {
		return nil, err
	}
	coord.EnableCache(serveCacheBytes)
	return coord, nil
}

// setupOnce is one timed set-up: rows, discovery, snapshot, load, listen,
// warm-up. The snapshot must match the prepared one byte for byte.
func setupOnce(t *traffic, shape serveShape, seed int64, tr *tracer) (*serveEnv, time.Duration, error) {
	start := time.Now()
	snap, _, err := buildServeSnapshot(shape, seed)
	if err != nil {
		return nil, 0, err
	}
	if sha256.Sum256(snap) != sha256.Sum256(t.snap) {
		return nil, 0, fmt.Errorf("rediscovered snapshot differs from the first for the same seed")
	}
	env, err := startEnv(t.sc, snap, tr, 0)
	if err != nil {
		return nil, 0, err
	}
	c := newLoadClient(env.base, nil)
	defer c.close()
	for _, o := range t.warm {
		status, body, err := c.send(o)
		if err == nil {
			err = t.check(o, status, body)
		}
		if err != nil {
			env.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, time.Since(start), nil
}

// setupMany sets up serveSetups times, keeping the last stack running.
func setupMany(t *traffic, shape serveShape, seed int64, tr *tracer) (*serveEnv, *dist, error) {
	var d dist
	var env *serveEnv
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			env.close()
		}
		e, dur, err := setupOnce(t, shape, seed, tr)
		if err != nil {
			return nil, nil, err
		}
		env = e
		d.addDur(dur)
	}
	return env, &d, nil
}

func runServe(cfg runConfig, sc serveConfig) (*report, error) {
	shape := serveFull
	if cfg.tiny {
		// Still past the dense ceiling, so the model is factored and
		// can be sharded.
		shape = serveShape{Chains: 4, ChainLen: 4, Rows: 2000, Couple: 0.5}
		sc.distinct = min(sc.distinct, 64)
		sc.batchPool = min(sc.batchPool, 256)
	}
	rep := newReport(cfg)
	rep.detail["config"] = map[string]any{
		"rate_per_s": sc.rate, "single_rate_per_s": sc.singleRate, "observe_rate_per_s": sc.observeRate,
		"observe_rows": sc.observeRows, "batch_queries": sc.batchGroups * sc.groupSize,
		"distinct": sc.distinct, "zipf_s": sc.zipfS, "shards": sc.shards, "cache_bytes": serveCacheBytes,
		"client_conns": clientConns, "shape": shape, "headline": opNames[sc.headline],
	}
	t, err := prepare(sc, shape, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	runtime.GC() // set-up should not pay for the preparation's garbage
	if !cfg.trace {
		env, setups, err := setupMany(t, shape, cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		defer env.close()
		rep.setup(setups)
		open, closed := measureServe(t, env, cfg, nil, true)
		rep.servePhases(sc, open, closed)
		return rep, t.verifyEnd(env, rep)
	}
	return rep, runServeTraced(cfg, sc, shape, t, rep)
}

// measureServe runs the open-loop phase, then, when withClosed is set,
// the closed-loop phase, on a warmed stack.
func measureServe(t *traffic, env *serveEnv, cfg runConfig, tr *tracer, withClosed bool) (open, closed *phase) {
	c := newLoadClient(env.base, tr)
	defer c.close()
	open = openLoop(c, t.open, t.check)
	if withClosed {
		_, closedSecs := phaseSecs(cfg.seconds)
		closed = closedLoop(c, time.Duration(closedSecs*float64(time.Second)), t.closedNext(time.Now()), t.check)
	}
	return open, closed
}

// servePhases fills the end-to-end metrics and phase detail.
func (r *report) servePhases(sc serveConfig, open, closed *phase) {
	k := sc.headline
	r.countPhase(open)
	r.countPhase(closed)
	lat := &open.lat[k]
	tail, label := lat.tail()
	r.e2e["op_p50_ms"] = lat.p50() / 1e3
	r.e2e["op_per_s"] = closed.windowRate(k)
	r.e2e["allocs_per_op"] = float64(open.mallocs) / float64(open.attempted[k])
	r.e2e["alloc_kb_per_op"] = float64(open.allocB) / 1024 / float64(open.attempted[k])
	r.detail["op"] = map[string]any{"name": opNames[k], "tail": label, "tail_ms": tail / 1e3, "n": lat.n()}
	r.detail["open_loop"] = phaseDetail(open)
	r.detail["closed_loop"] = phaseDetail(closed)
}

func (r *report) countPhase(p *phase) {
	if p == nil {
		return
	}
	a, f := p.totals()
	r.attempted += a
	r.failed += f
	if p.firstErr != nil && len(r.failures) < 5 {
		r.failures = append(r.failures, p.firstErr.Error())
	}
}

// phaseDetail summarises a phase per op kind, each percentile with its
// sample count and how many samples lie beyond it.
func phaseDetail(p *phase) map[string]any {
	out := map[string]any{"elapsed_s": p.elapsed.Seconds(), "cpu_s": p.cpu.Seconds()}
	for k := opKind(0); k < numOpKinds; k++ {
		if p.attempted[k] == 0 {
			continue
		}
		kd := map[string]any{"attempted": p.attempted[k], "succeeded": p.attempted[k] - p.failed[k],
			"failed": p.failed[k], "n": p.lat[k].n(), "per_s": float64(p.lat[k].n()) / p.elapsed.Seconds()}
		for _, q := range []struct {
			p    float64
			name string
		}{{0.5, "p50_us"}, {0.9, "p90_us"}, {0.99, "p99_us"}} {
			v, beyond := p.lat[k].quantile(q.p)
			if beyond >= minBeyond {
				kd[q.name] = v
				kd[q.name+"_beyond"] = beyond
			}
		}
		if len(p.perWindow[k]) > 0 {
			kd["per_window"] = p.perWindow[k]
		}
		out[opNames[k]] = kd
	}
	if p.late.n() > 0 {
		v, beyond := p.late.quantile(0.99)
		out["late_ms"] = map[string]any{"p50": p.late.p50(), "p99": v, "p99_beyond": beyond, "n": p.late.n()}
	}
	return out
}

// verifyEnd checks what only the end of a run shows. serve_churn's model
// must be at version = observes applied, and a probe set must answer as an
// offline model fed the same batches in the same order.
func (t *traffic) verifyEnd(env *serveEnv, rep *report) error {
	if t.sc.kind == kindSharded {
		return t.verifyLazy(rep)
	}
	if t.sc.kind != kindChurn {
		return nil
	}
	_, version, err := fetchStats(env.base)
	if err != nil {
		return err
	}
	t.mu.Lock()
	applied := int64(len(t.observed))
	order := make([]int, 0, applied)
	for v := int64(1); v <= applied; v++ {
		idx, ok := t.observed[v]
		if !ok {
			t.mu.Unlock()
			rep.fail(fmt.Errorf("no observe reported version %d", v))
			return nil
		}
		order = append(order, idx)
	}
	t.mu.Unlock()
	rep.attempted++
	if version != applied {
		rep.fail(fmt.Errorf("model at version %d after %d observes", version, applied))
	}
	offline, err := pka.LoadModelSnapshot(bytes.NewReader(t.snap))
	if err != nil {
		return err
	}
	for _, idx := range order {
		if _, err := offline.ObserveLabeled(t.observes[idx]); err != nil {
			return fmt.Errorf("offline replay: %w", err)
		}
	}
	c := newLoadClient(env.base, nil)
	defer c.close()
	for i, q := range t.probes {
		want, err := oracleBytes(offline, q)
		if err != nil {
			return err
		}
		status, got, err := c.send(&op{kind: opSingle, body: marshal(q), idx: i})
		rep.attempted++
		if err != nil || status != http.StatusOK || !bytes.Equal(got, want) {
			rep.fail(fmt.Errorf("probe %d after %d observes: served %q (status %d, %v), offline %q", i, applied, got, status, err, want))
		}
	}
	rep.detail["observes_applied"] = applied
	return nil
}

// verifyLazy draws serve_sharded's closed-loop stream again and checks
// every answer it received against single-process serving of the same
// snapshot.
func (t *traffic) verifyLazy(rep *report) error {
	if len(t.got) == 0 {
		return nil
	}
	local, err := pka.LoadSnapshot(bytes.NewReader(t.snap))
	if err != nil {
		return err
	}
	u := newUniqueStream(local.Schema(), t.lazySeed, t.lazySeen)
	const chunk = 4096
	qs := make([]pka.Query, chunk)
	bad := make([]bool, chunk)
	for base := 0; base < len(t.got); base += chunk {
		n := min(chunk, len(t.got)-base)
		for i := range qs[:n] {
			qs[i] = u.next()
		}
		if err := par.Do(n, 0, func(i int) error {
			bad[i] = false
			if t.got[base+i] == 0 {
				return nil // failed when sent, and counted then
			}
			b, err := oracleBytes(local, qs[i])
			bad[i] = err != nil || bodyHash(b) != t.got[base+i]
			return nil
		}); err != nil {
			return err
		}
		for i, b := range bad[:n] {
			if b {
				rep.fail(fmt.Errorf("closed-loop query %d: answer differs from single-process serving", base+i))
			}
		}
	}
	rep.detail["closed_loop_checked"] = len(t.got)
	return nil
}

// tierStats is /v1/stats, tier by tier.
type tierStats map[string]query.CacheTierStats

func fetchStats(base string) (tierStats, int64, error) {
	c := newLoadClient(base, nil)
	defer c.close()
	body, err := c.get("/v1/stats")
	if err != nil {
		return nil, 0, err
	}
	var st struct {
		Version int64                  `json:"version"`
		Tiers   []query.CacheTierStats `json:"tiers"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, 0, err
	}
	out := make(tierStats)
	for _, ts := range st.Tiers {
		out[ts.Tier] = ts
	}
	return out, st.Version, nil
}

// delta returns after minus before for one tier.
func (a tierStats) delta(before tierStats, tier string) (hits, misses, evictions int64) {
	x, y := a[tier], before[tier]
	return x.Hits - y.Hits, x.Misses - y.Misses, x.Evictions - y.Evictions
}
