package main

import (
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"pka/internal/contingency"
	"pka/internal/dataset"
	"pka/internal/kb"
	"pka/internal/query"
	"pka/internal/rules"
)

// Span names, one per layer boundary the traced run times, and the
// headers that carry a request's id and its caller's span across HTTP.
const (
	spanClient    = "client.request"
	spanHandler   = "server.handler"
	spanAnswer    = "query.answer"
	spanObserve   = "ingest.observe"
	spanRPC       = "cluster.rpc"
	spanShardEval = "cluster.shard_eval"
	spanDiscover  = "discover"
	spanSetupLoad = "snapshot.load"
	headerReq     = "X-Bench-Req"
	headerSpan    = "X-Bench-Span"
	headerRPCSpan = "X-Bench-Rpc-Span"
)

// timedQuerier times every probabilistic call into the wrapped Querier and
// forwards each optional surface the server and query packages
// type-assert. Were any missing, the wrapped server would quietly change
// behaviour: no wire tier without Versioned, no engine tier in /v1/stats
// without CacheStatsReporter, per-query batches without KnowledgeBase.
// Where the wrapped Querier lacks a surface, the forward returns what the
// server assumes in its absence.
type timedQuerier struct {
	q  query.Querier
	tr *tracer
}

// timedIngestor adds the streaming-ingest surface; it is used only when
// the wrapped Querier has one, so a read-only model stays read-only.
type timedIngestor struct {
	*timedQuerier
	in          query.Ingestor
	observes    atomic.Int64
	sweeps      atomic.Int64
	rediscovers atomic.Int64
}

// servedQuerier is what wrapQuerier returns: a Querier with every optional
// surface the serving stack looks for.
type servedQuerier interface {
	query.Querier
	query.Versioned
	query.CacheStatsReporter
	query.ReadyReporter
	KnowledgeBase() *kb.KnowledgeBase
}

// wrapQuerier returns q behind the timing wrapper.
func wrapQuerier(q query.Querier, tr *tracer) servedQuerier {
	tq := &timedQuerier{q: q, tr: tr}
	if in, ok := q.(query.Ingestor); ok {
		return &timedIngestor{timedQuerier: tq, in: in}
	}
	return tq
}

func (t *timedQuerier) Schema() *dataset.Schema { return t.q.Schema() }

func (t *timedQuerier) Probability(assigns ...kb.Assignment) (float64, error) {
	id := t.tr.begin(spanAnswer, -1, 0)
	defer t.tr.end(id)
	return t.q.Probability(assigns...)
}

func (t *timedQuerier) Conditional(target, given []kb.Assignment) (float64, error) {
	id := t.tr.begin(spanAnswer, -1, 0)
	defer t.tr.end(id)
	return t.q.Conditional(target, given)
}

func (t *timedQuerier) Distribution(attr string, given ...kb.Assignment) (map[string]float64, error) {
	id := t.tr.begin(spanAnswer, -1, 0)
	defer t.tr.end(id)
	return t.q.Distribution(attr, given...)
}

func (t *timedQuerier) MostLikely(attr string, given ...kb.Assignment) (string, float64, error) {
	id := t.tr.begin(spanAnswer, -1, 0)
	defer t.tr.end(id)
	return t.q.MostLikely(attr, given...)
}

func (t *timedQuerier) Lift(target kb.Assignment, given ...kb.Assignment) (float64, error) {
	id := t.tr.begin(spanAnswer, -1, 0)
	defer t.tr.end(id)
	return t.q.Lift(target, given...)
}

func (t *timedQuerier) MostProbableExplanation(given ...kb.Assignment) (kb.Explanation, error) {
	id := t.tr.begin(spanAnswer, -1, 0)
	defer t.tr.end(id)
	return t.q.MostProbableExplanation(given...)
}

func (t *timedQuerier) Rules(opts rules.Options) ([]rules.Rule, error) { return t.q.Rules(opts) }

func (t *timedQuerier) Explain() string { return t.q.Explain() }

func (t *timedQuerier) LogLoss(counts contingency.Counts) (float64, error) {
	return t.q.LogLoss(counts)
}

func (t *timedQuerier) Version() int64 {
	if v, ok := t.q.(query.Versioned); ok {
		return v.Version()
	}
	return 0
}

func (t *timedQuerier) CacheStats() []query.CacheTierStats {
	if c, ok := t.q.(query.CacheStatsReporter); ok {
		return c.CacheStats()
	}
	return nil
}

func (t *timedQuerier) Readiness() query.Readiness {
	if r, ok := t.q.(query.ReadyReporter); ok {
		return r.Readiness()
	}
	return query.Readiness{Ready: true, Role: "standalone", Version: t.Version()}
}

func (t *timedQuerier) KnowledgeBase() *kb.KnowledgeBase {
	if p, ok := t.q.(interface{ KnowledgeBase() *kb.KnowledgeBase }); ok {
		return p.KnowledgeBase()
	}
	return nil
}

func (t *timedIngestor) ObserveLabeled(rows [][]string) (query.IngestReport, error) {
	id := t.tr.begin(spanObserve, -1, 0)
	rep, err := t.in.ObserveLabeled(rows)
	t.tr.end(id)
	if err == nil {
		t.observes.Add(1)
		t.sweeps.Add(int64(rep.Sweeps))
		if rep.Rediscovered {
			t.rediscovers.Add(1)
		}
	}
	return rep, err
}

// timedHandler opens a span named name plus the URL path around every
// request, parented to the caller's span when the request carries one in
// parentHeader.
func timedHandler(next http.Handler, tr *tracer, name, parentHeader string) http.Handler {
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, req := -1, int64(0)
		if v := r.Header.Get(parentHeader); v != "" {
			if p, err := strconv.Atoi(v); err == nil {
				parent = p
			}
		}
		if v := r.Header.Get(headerReq); v != "" {
			if q, err := strconv.ParseInt(v, 10, 64); err == nil {
				req = q
			}
		}
		id := tr.begin(name+" "+r.URL.Path, parent, req)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// timedTransport times each coordinator-to-shard call from send until the
// caller closes the response body, and counts calls that failed.
type timedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	errors atomic.Int64
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.tr.begin(spanRPC, -1, 0)
	r2 := r.Clone(r.Context())
	r2.Header.Set(headerRPCSpan, strconv.Itoa(id))
	resp, err := t.base.RoundTrip(r2)
	if err != nil {
		t.errors.Add(1)
		t.tr.end(id)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		t.errors.Add(1)
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, id: id}
	return resp, nil
}

// spanBody ends its RPC span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	id   int
	done bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.tr.end(b.id)
	}
	return err
}
