package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"pka"
	"pka/internal/query"
)

// runServeTraced is the traced run of a serve workload: an untraced
// open-loop phase for reference, then the same script against a traced
// stack, layer replays, and a check that tracing changed no answer and no
// cache counter.
func runServeTraced(cfg runConfig, sc serveConfig, shape serveShape, t *traffic, rep *report) error {
	ref, _, err := setupOnce(t, shape, cfg.seed, nil)
	if err != nil {
		return err
	}
	t.resetObserved()
	untraced, _ := measureServe(t, ref, cfg, nil, false)
	ref.close()
	rep.countPhase(untraced)

	tr := newTracer()
	env, _, err := setupMany(t, shape, cfg.seed, tr)
	if err != nil {
		return err
	}
	defer env.close()
	t.resetObserved()
	before, _, err := fetchStats(env.base)
	if err != nil {
		return err
	}
	i0 := len(tr.snapshot())
	traced, _ := measureServe(t, env, cfg, tr, false)
	spans := tr.snapshot()
	after, _, err := fetchStats(env.base)
	if err != nil {
		return err
	}
	rep.countPhase(traced)
	if err := t.verifyEnd(env, rep); err != nil {
		return err
	}

	k := sc.headline
	rep.detail["open_loop_untraced"] = phaseDetail(untraced)
	rep.detail["open_loop_traced"] = phaseDetail(traced)
	rep.traceOverhead(untraced.lat[k].p50()/1e3, traced.lat[k].p50()/1e3)
	if traced.late.n() > 0 {
		rep.layers["loadgen.late_ms"], _ = traced.late.quantile(0.99)
	}
	serveLayers(spans, i0, rep)
	cacheLayers(before, after, rep)
	var loads dist
	for _, s := range spans {
		if s.Name == spanSetupLoad && s.End >= 0 {
			loads.add(float64(s.dur()))
		}
	}
	rep.layers["snapshot.load_ms"] = loads.p50() / 1e6
	if ti, ok := env.wrapped.(*timedIngestor); ok {
		n := ti.observes.Load()
		rep.layers["ingest.observes"] = float64(n)
		if n > 0 {
			rep.layers["ingest.refit_sweeps"] = float64(ti.sweeps.Load()) / float64(n)
		}
		rep.layers["ingest.rediscovered"] = float64(ti.rediscovers.Load())
	}
	if env.transport != nil {
		rep.layers["cluster.rpc_errors"] = float64(env.transport.errors.Load())
	}
	if err := replayAllocs(sc, t, rep); err != nil {
		return err
	}
	if err := replayBatches(t, rep); err != nil {
		return err
	}
	if err := t.sameAcrossTracing(rep); err != nil {
		return err
	}
	return rep.writeSpans(cfg, tr)
}

// serveLayers derives the per-request layer times from the spans begun at
// or after index i0.
func serveLayers(spans []span, i0 int, rep *report) {
	single := spanHandler + " " + opPaths[opSingle]
	shardEval := spanShardEval + " /v1/shard/eval"
	children := make(map[int][]interval)
	for i := i0; i < len(spans); i++ {
		if s := spans[i]; s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var handler, self, netOver, answer, observe, rpc, eval dist
	for i := i0; i < len(spans); i++ {
		s := spans[i]
		if s.End < 0 {
			continue
		}
		switch s.Name {
		case single:
			handler.add(float64(s.dur()))
			self.add(float64(selfTime(interval{s.Start, s.End}, children[i])))
			if p := s.Parent; p >= 0 && spans[p].Name == spanClient && spans[p].End >= 0 {
				netOver.add(float64(spans[p].dur() - s.dur()))
			}
		case spanAnswer:
			answer.add(float64(s.dur()))
		case spanObserve:
			observe.add(float64(s.dur()))
		case spanRPC:
			rpc.add(float64(s.dur()))
		case shardEval:
			eval.add(float64(s.dur()))
		}
	}
	mean := func(d *dist, unit float64) float64 {
		if d.n() == 0 {
			return 0
		}
		return d.mean() / unit
	}
	rep.layers["server.handler_us"] = mean(&handler, 1e3)
	rep.layers["server.self_us"] = mean(&self, 1e3)
	rep.layers["net.overhead_us"] = mean(&netOver, 1e3)
	rep.layers["query.answer_us"] = mean(&answer, 1e3)
	rep.layers["ingest.observe_ms"] = mean(&observe, 1e6)
	rep.layers["cluster.rpc_us"] = mean(&rpc, 1e3)
	rep.layers["cluster.shard_eval_us"] = mean(&eval, 1e3)
	if rpc.n() > 0 {
		rep.layers["cluster.rpc_overhead_us"] = mean(&rpc, 1e3) - mean(&eval, 1e3)
	}
	if handler.n() > 0 {
		rep.layers["cluster.rpcs_per_query"] = float64(rpc.n()) / float64(handler.n())
	}
	rep.detail["span_counts"] = map[string]int{
		"single_handler": handler.n(), "net": netOver.n(), "answer": answer.n(),
		"observe": observe.n(), "rpc": rpc.n(), "shard_eval": eval.n(),
	}
}

// cacheLayers reads the cache tiers' hit ratios off /v1/stats deltas.
func cacheLayers(before, after tierStats, rep *report) {
	wh, wm, we := after.delta(before, "wire")
	eh, em, ee := after.delta(before, "engine")
	ch, cm, _ := after.delta(before, "cluster")
	rep.layers["memo.wire_hit_ratio"] = ratio(wh, wh+wm)
	rep.layers["memo.wire_lookups"] = float64(wh + wm)
	rep.layers["memo.engine_hit_ratio"] = ratio(eh, eh+em)
	rep.layers["memo.engine_lookups"] = float64(eh + em)
	rep.layers["memo.evictions"] = float64(we + ee)
	rep.layers["cluster.eval_hit_ratio"] = ratio(ch, ch+cm)
	rep.layers["cluster.eval_lookups"] = float64(ch + cm)
}

// discardWriter is the ResponseWriter of handler-direct replays: it keeps
// headers and status and counts the body.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}
func (w *discardWriter) WriteHeader(status int) { w.status = status }

// replayAllocs drives the recorded single-query stream straight into a
// fresh untraced handler: a tenth warms it, then up to replayMax are
// measured, giving heap allocations per query with no network or client
// in the count (in-process shards are, on serve_sharded).
func replayAllocs(sc serveConfig, t *traffic, rep *report) error {
	const replayMax = 4000
	if len(t.singles) == 0 {
		return nil
	}
	env, err := startEnv(sc, t.snap, nil, 0)
	if err != nil {
		return err
	}
	defer env.close()
	warm := len(t.singles) / 10
	n := min(len(t.singles)-warm, replayMax)
	reqs := make([]*http.Request, warm+n)
	for i := range reqs {
		r, err := http.NewRequest(http.MethodPost, opPaths[opSingle], bytes.NewReader(marshal(t.singles[i])))
		if err != nil {
			return err
		}
		reqs[i] = r
	}
	w := &discardWriter{header: make(http.Header)}
	serve := func(r *http.Request) error {
		w.status = 0
		env.handler.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			return fmt.Errorf("handler-direct replay: status %d", w.status)
		}
		return nil
	}
	for _, r := range reqs[:warm] {
		if err := serve(r); err != nil {
			return err
		}
	}
	before := memStats()
	for _, r := range reqs[warm:] {
		if err := serve(r); err != nil {
			return err
		}
	}
	after := memStats()
	rep.layers["server.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	return nil
}

// batchReplay is how many recorded batches replayBatches answers.
const batchReplay = 200

// replayBatches answers the recorded batches offline through
// AnswerBatchWorkers, timing evaluation without HTTP or JSON.
func replayBatches(t *traffic, rep *report) error {
	if len(t.batches) == 0 {
		return nil
	}
	m, err := pka.LoadModelSnapshot(bytes.NewReader(t.snap))
	if err != nil {
		return err
	}
	m.EnableCache(serveCacheBytes)
	var eval, groups dist
	for _, b := range t.batches {
		start := time.Now()
		res, err := pka.AnswerBatchWorkers(m, b, 0)
		eval.addDur(time.Since(start))
		if err != nil {
			return err
		}
		for i, r := range res {
			if r.Error != "" {
				return fmt.Errorf("batch replay query %d: %s", i, r.Error)
			}
		}
		groups.add(float64(query.CountEvidenceGroups(b)))
	}
	rep.layers["query.batch_eval_us"] = eval.mean() / 1e3
	rep.layers["query.groups_per_batch"] = groups.mean()
	return nil
}

// tracingScript is how many open-loop ops the tracing check replays.
const tracingScript = 300

// sameAcrossTracing replays the start of the open-loop script one request
// at a time against a fresh untraced and a fresh traced stack: every
// response must be byte-identical and every cache tier must count the
// same hits and misses, or the wrapper changed what it measures. Both
// stacks answer batches on one worker: evidence groups running in
// parallel may both miss an engine-cache entry either could have filled,
// which would make the counts differ by chance rather than by tracing.
func (t *traffic) sameAcrossTracing(rep *report) error {
	n := min(len(t.open), tracingScript)
	run := func(tr *tracer) ([][]byte, tierStats, error) {
		t.resetObserved()
		env, err := startEnv(t.sc, t.snap, tr, 1)
		if err != nil {
			return nil, nil, err
		}
		defer env.close()
		c := newLoadClient(env.base, tr)
		defer c.close()
		var bodies [][]byte
		for _, o := range append(append([]*op(nil), t.warm...), scriptOps(t.open[:n])...) {
			status, body, err := c.send(o)
			if err == nil {
				err = t.check(o, status, body)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("tracing check: %w", err)
			}
			bodies = append(bodies, body)
		}
		st, _, err := fetchStats(env.base)
		return bodies, st, err
	}
	plain, plainStats, err := run(nil)
	if err != nil {
		return err
	}
	traced, tracedStats, err := run(newTracer())
	if err != nil {
		return err
	}
	t.resetObserved()
	rep.attempted++
	for i := range plain {
		if !bytes.Equal(plain[i], traced[i]) {
			rep.fail(fmt.Errorf("tracing changed response %d: %q vs %q", i, plain[i], traced[i]))
			return nil
		}
	}
	for tier, ps := range plainStats {
		ts := tracedStats[tier]
		if ps.Hits != ts.Hits || ps.Misses != ts.Misses {
			rep.fail(fmt.Errorf("tracing changed %s tier counts: %d/%d hits/misses untraced, %d/%d traced",
				tier, ps.Hits, ps.Misses, ts.Hits, ts.Misses))
		}
	}
	if len(plainStats) != len(tracedStats) {
		rep.fail(fmt.Errorf("tracing changed the cache tiers: %d untraced, %d traced", len(plainStats), len(tracedStats)))
	}
	rep.detail["tracing_check"] = map[string]any{"requests": len(plain), "tiers": len(plainStats)}
	return nil
}

func scriptOps(evs []event) []*op {
	out := make([]*op, len(evs))
	for i, ev := range evs {
		out[i] = ev.op
	}
	return out
}
