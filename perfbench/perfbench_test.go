package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"pka"
	"pka/internal/kb"
	"pka/internal/query"
)

// TestTinyWorkloads runs every workload at tiny size, untraced and traced,
// and requires zero failed operations and every metric its mode owes.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{workload: w.name, seed: 3, seconds: 1, trace: trace, outDir: t.TempDir(), tiny: true}
				rep, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := rep.finish()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, rep.failures)
				}
			})
		}
	}
}

func TestQuantileAndTail(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}, {0.001, 1, 99}} {
		v, beyond := d.quantile(c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(%g) = %g with %d beyond, want %g with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	// p99 has one sample beyond it, p90 ten: the tail is p90.
	if v, label := d.tail(); v != 90 || label != "p90" {
		t.Errorf("tail = %g %s, want 90 p90", v, label)
	}
	var few dist
	few.add(3)
	few.add(7)
	if v, label := few.tail(); v != 7 || label != "max" {
		t.Errorf("tail of two samples = %g %s, want 7 max", v, label)
	}
	if v, _ := (&dist{}).quantile(0.5); !math.IsNaN(v) {
		t.Errorf("quantile of no samples = %g, want NaN", v)
	}
	if r := ratio(3, 4); r != 0.75 {
		t.Errorf("ratio(3,4) = %g", r)
	}
	if r := ratio(0, 0); r != 0 {
		t.Errorf("ratio(0,0) = %g", r)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped", []interval{{50, 120}, {180, 250}}, 60},
		{"outside", []interval{{10, 20}, {300, 400}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestTracerParents checks that a span opened inside another on the same
// goroutine gets it as parent and inherits its request id, and that the
// goroutine's active span is restored when the inner one ends.
func TestTracerParents(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", -1, 7)
	inner := tr.begin("inner", -1, 0)
	tr.end(inner)
	tr.end(outer)
	root := tr.begin("root", -1, 0)
	tr.end(root)
	spans := tr.snapshot()
	if spans[inner].Parent != outer || spans[inner].Req != 7 {
		t.Errorf("inner span: parent %d req %d, want %d and 7", spans[inner].Parent, spans[inner].Req, outer)
	}
	if spans[root].Parent != -1 {
		t.Errorf("span after the outer one closed has parent %d, want none", spans[root].Parent)
	}
	in := interval{spans[inner].Start, spans[inner].End}
	if self := selfTime(interval{spans[outer].Start, spans[outer].End}, []interval{in}); self != spans[outer].dur()-spans[inner].dur() {
		t.Errorf("outer self time %d, want %d", self, spans[outer].dur()-spans[inner].dur())
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", -1, 0)) // the untraced path records nothing
}

// TestWrapperForwards checks the timing Querier exposes every optional
// surface server and query type-assert, with the wrapped model's values,
// and that a server over it keeps the same cache tiers and answers.
func TestWrapperForwards(t *testing.T) {
	snap, _, err := buildServeSnapshot(serveShape{Chains: 2, ChainLen: 3, Rows: 1500, Couple: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	model, err := pka.LoadModelSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	model.EnableCache(serveCacheBytes)
	readOnly, err := pka.LoadSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	readOnly.EnableCache(serveCacheBytes)

	for _, c := range []struct {
		name   string
		q      pka.Querier
		ingest bool
	}{{"updatable", model, true}, {"read-only", readOnly, false}} {
		w := wrapQuerier(c.q, newTracer())
		if _, ok := w.(query.Ingestor); ok != c.ingest {
			t.Errorf("%s: wrapper Ingestor = %v, want %v", c.name, ok, c.ingest)
		}
		v := c.q.(query.Versioned)
		if w.Version() != v.Version() {
			t.Errorf("%s: Version %d, want %d", c.name, w.Version(), v.Version())
		}
		if !reflect.DeepEqual(w.CacheStats(), c.q.(query.CacheStatsReporter).CacheStats()) || len(w.CacheStats()) == 0 {
			t.Errorf("%s: CacheStats %v, want %v", c.name, w.CacheStats(), c.q.(query.CacheStatsReporter).CacheStats())
		}
		if w.KnowledgeBase() != c.q.(interface{ KnowledgeBase() *kb.KnowledgeBase }).KnowledgeBase() {
			t.Errorf("%s: KnowledgeBase not forwarded", c.name)
		}
		if rd := w.Readiness(); !rd.Ready || rd.Version != v.Version() {
			t.Errorf("%s: Readiness %+v", c.name, rd)
		}

		plain := pka.NewServerWithOptions(c.q, pka.ServerOptions{CacheBytes: serveCacheBytes})
		wrapped := pka.NewServerWithOptions(w, pka.ServerOptions{CacheBytes: serveCacheBytes})
		q := `{"kind":"conditional","target":[{"attr":"S01","value":"hi"}],"given":[{"attr":"S00","value":"hi"}]}`
		batch := `{"queries":[` + q + `,` + q + `]}`
		for _, req := range []struct{ path, body string }{
			{"/v1/query", q}, {"/v1/query", q}, {"/v1/query/batch", batch}, {"/readyz", ""}, {"/v1/stats", ""},
		} {
			a, b := serveOnce(t, plain, req.path, req.body), serveOnce(t, wrapped, req.path, req.body)
			if a != b {
				t.Errorf("%s %s: wrapped server answered %q, plain %q", c.name, req.path, b, a)
			}
		}
		if c.ingest {
			rows := `{"rows":[["lo","lo","lo","mid","mid","mid"]]}`
			a := serveOnce(t, plain, "/v1/observe", rows)
			if code := serveCode(wrapped, "/v1/observe", rows); code != http.StatusOK {
				t.Errorf("wrapped observe answered %d (%s)", code, a)
			}
		} else if code := serveCode(wrapped, "/v1/observe", `{"rows":[]}`); code != http.StatusNotImplemented {
			t.Errorf("read-only wrapped observe answered %d, want 501", code)
		}
	}
}

func serveOnce(t *testing.T, h http.Handler, path, body string) string {
	t.Helper()
	method := http.MethodGet
	if body != "" {
		method = http.MethodPost
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

func serveCode(h http.Handler, path, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program in step: the
// same workloads, the same metrics with the same units, and every serve
// workload's fixed open-loop rates written in its reason.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		for _, sc := range []serveConfig{hotConfig, churnConfig, shardedConfig} {
			if sc.name != w.Name {
				continue
			}
			for _, rate := range []float64{sc.rate, sc.singleRate, sc.observeRate} {
				if rate == 0 {
					continue
				}
				if s := formatRate(rate); !strings.Contains(w.Why, s) {
					t.Errorf("%s: reason %q does not state the rate %s", w.Name, w.Why, s)
				}
			}
		}
	}
}

func formatRate(r float64) string { return fmt.Sprintf("%g/s", r) }
