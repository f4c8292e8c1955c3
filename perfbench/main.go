// Command perfbench is the repository's benchmark. It generates every
// input from a seed, drives one workload against the pka packages,
// checks every answer, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, from a separate traced run.
// Run it from the repository root through perfbench/run.sh, which builds
// this module first:
//
//	bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit string
	// Moves names the end-to-end metric and workload a per-layer metric
	// is expected to move.
	Moves string
}

// endToEnd are the metrics a user of the system sees. Every workload has
// one headline operation: a discovery on discover_wide, a single query on
// serve_hot and serve_sharded, a 64-query batch on serve_churn.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "op_p50_ms", Unit: "ms"},
	{Name: "op_per_s", Unit: "1/s"},
	{Name: "allocs_per_op", Unit: "count"},
	{Name: "alloc_kb_per_op", Unit: "KB"},
}

// perLayer are the traced run's metrics, each with the end-to-end metric
// and workload it is expected to move. A layer a workload does not reach
// reads 0 there.
var perLayer = []metricDef{
	{"contingency.first_order_ms", "ms", "op_p50_ms@discover_wide"},
	{"contingency.first_order_allocs", "count", "allocs_per_op@discover_wide"},
	{"assoc.screen_ms", "ms", "op_p50_ms@discover_wide"},
	{"assoc.screen_allocs", "count", "allocs_per_op@discover_wide"},
	{"assoc.ci_ms", "ms", "op_p50_ms@discover_wide"},
	{"assoc.ci_allocs", "count", "allocs_per_op@discover_wide"},
	{"mml.scan_ms", "ms", "op_p50_ms@discover_wide"},
	{"mml.scan_allocs", "count", "allocs_per_op@discover_wide"},
	{"maxent.fit_ms", "ms", "op_p50_ms@discover_wide"},
	{"maxent.fit_allocs", "count", "allocs_per_op@discover_wide"},
	{"maxent.compile_ms", "ms", "op_p50_ms@discover_wide"},
	{"maxent.compile_allocs", "count", "allocs_per_op@discover_wide"},
	{"core.gof_ms", "ms", "op_p50_ms@discover_wide"},
	{"core.gof_allocs", "count", "allocs_per_op@discover_wide"},
	{"assoc.pairs_kept_ratio", "ratio", "op_p50_ms@discover_wide"},
	{"assoc.pairs_total", "count", "base of assoc.pairs_kept_ratio"},
	{"mml.accept_ratio", "ratio", "op_p50_ms@discover_wide"},
	{"mml.cells_tested", "count", "base of mml.accept_ratio"},
	{"maxent.fit_sweeps", "count", "op_p50_ms@discover_wide"},
	{"maxent.blocks", "count", "op_p50_ms@discover_wide"},
	{"discover.unattributed_ms", "ms", "op_p50_ms@discover_wide"},
	{"server.handler_us", "us", "op_p50_ms,op_per_s@serve_hot"},
	{"server.self_us", "us", "op_p50_ms,op_per_s@serve_hot"},
	{"net.overhead_us", "us", "op_p50_ms,op_per_s@serve_hot"},
	{"server.allocs_per_query", "count", "op_per_s,allocs_per_op@serve_hot"},
	{"memo.wire_hit_ratio", "ratio", "op_per_s@serve_hot"},
	{"memo.wire_lookups", "count", "base of memo.wire_hit_ratio"},
	{"memo.engine_hit_ratio", "ratio", "op_per_s@serve_hot,op_p50_ms@serve_churn"},
	{"memo.engine_lookups", "count", "base of memo.engine_hit_ratio"},
	{"memo.evictions", "count", "op_per_s@serve_hot,op_p50_ms@serve_churn"},
	{"query.answer_us", "us", "op_p50_ms@serve_churn,serve_sharded"},
	{"query.batch_eval_us", "us", "op_p50_ms@serve_churn"},
	{"query.groups_per_batch", "count", "op_p50_ms@serve_churn"},
	{"ingest.observe_ms", "ms", "op_p50_ms,op_per_s@serve_churn"},
	{"ingest.observes", "count", "base of ingest.refit_sweeps"},
	{"ingest.refit_sweeps", "count", "op_p50_ms,op_per_s@serve_churn"},
	{"ingest.rediscovered", "count", "op_p50_ms,op_per_s@serve_churn"},
	{"snapshot.load_ms", "ms", "setup_s@serve_hot,serve_churn,serve_sharded"},
	{"loadgen.late_ms", "ms", "generator check on every serve workload"},
	{"cluster.rpc_us", "us", "op_p50_ms,op_per_s@serve_sharded"},
	{"cluster.shard_eval_us", "us", "op_p50_ms,op_per_s@serve_sharded"},
	{"cluster.rpc_overhead_us", "us", "op_p50_ms,op_per_s@serve_sharded"},
	{"cluster.rpcs_per_query", "count", "op_p50_ms,op_per_s@serve_sharded"},
	{"cluster.eval_hit_ratio", "ratio", "op_p50_ms,op_per_s@serve_sharded"},
	{"cluster.eval_lookups", "count", "base of cluster.eval_hit_ratio"},
	{"cluster.rpc_errors", "count", "op_p50_ms,op_per_s@serve_sharded"},
	{"trace.overhead_ms", "ms", "traced minus untraced op_p50_ms, same workload"},
	{"trace.overhead_pct", "%", "trace.overhead_ms as a share of untraced op_p50_ms"},
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"discover_wide", runDiscoverWide},
	{"serve_hot", runServeHot},
	{"serve_churn", runServeChurn},
	{"serve_sharded", runServeSharded},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives spans and recorded digests.
	outDir string
	// tiny shrinks every input, for the package's own tests.
	tiny bool
}

// report is what a workload run produced.
type report struct {
	cfg       runConfig
	attempted int64
	failed    int64
	failures  []string
	e2e       map[string]float64
	layers    map[string]float64
	detail    map[string]any
	digest    string
}

func newReport(cfg runConfig) *report {
	r := &report{cfg: cfg, e2e: map[string]float64{}, layers: map[string]float64{}, detail: map[string]any{}}
	for _, m := range perLayer {
		r.layers[m.Name] = 0
	}
	return r
}

// fail records a failed check; the first few are kept for the report.
func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// setup records the median of the timed set-ups.
func (r *report) setup(d *dist) {
	r.e2e["setup_s"] = d.p50() / 1e9
	r.detail["setup_runs_s"] = scaled(d.vals, 1e9)
}

// e2eSeries fills the end-to-end metrics from a discovery series.
func (r *report) e2eSeries(s *series) {
	tail, label := s.dur.tail()
	r.e2e["op_p50_ms"] = s.dur.p50() / 1e6
	r.e2e["op_per_s"] = float64(s.dur.n()) / s.total.Seconds()
	r.e2e["allocs_per_op"] = s.mallocs.p50()
	r.e2e["alloc_kb_per_op"] = s.allocB.p50() / 1024
	r.detail["op"] = map[string]any{"name": "discovery", "n": s.dur.n(), "tail": label,
		"tail_ms": tail / 1e6, "durations_s": scaled(s.dur.vals, 1e9)}
}

// traceOverhead reports the traced minus the untraced headline median.
func (r *report) traceOverhead(untracedMs, tracedMs float64) {
	r.layers["trace.overhead_ms"] = tracedMs - untracedMs
	r.layers["trace.overhead_pct"] = 100 * (tracedMs - untracedMs) / untracedMs
	r.detail["trace"] = map[string]float64{"untraced_op_p50_ms": untracedMs, "traced_op_p50_ms": tracedMs}
}

// writeSpans writes the traced run's spans under outDir.
func (r *report) writeSpans(cfg runConfig, tr *tracer) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	r.detail["spans_file"] = path
	return tr.writeFile(path)
}

func scaled(vals []float64, div float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v / div
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish turns a report into the result line, checking every metric the
// mode owes is present and finite (and, end to end, non-zero).
func (r *report) finish() (resultLine, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return resultLine{}, err
	}
	r.e2e["peak_rss_mb"] = rss
	defs, vals := endToEnd, r.e2e
	if r.cfg.trace {
		defs, vals = perLayer, r.layers
	}
	out := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return resultLine{}, fmt.Errorf("metric %s missing or not finite (%v)", d.Name, v)
		}
		if !r.cfg.trace && v == 0 {
			return resultLine{}, fmt.Errorf("end-to-end metric %s read 0", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if r.attempted < 1 {
		return resultLine{}, fmt.Errorf("no operation attempted")
	}
	return out, nil
}

// printReport writes the human-readable table and the detail record.
func (r *report) printReport(res resultLine) {
	fmt.Printf("workload %s  seed %d  trace %v  attempted %d  succeeded %d  failed %d\n",
		r.cfg.workload, r.cfg.seed, r.cfg.trace, r.attempted, r.attempted-r.failed, r.failed)
	for _, f := range r.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %16.6f %s\n", n, m.Value, m.Unit)
	}
	r.detail["host"] = map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	r.detail["attempted"], r.detail["succeeded"], r.detail["failed"] = r.attempted, r.attempted-r.failed, r.failed
	if r.failures != nil {
		r.detail["failures"] = r.failures
	}
	if r.cfg.trace {
		moves := make(map[string]string, len(perLayer))
		for _, m := range perLayer {
			moves[m.Name] = m.Moves
		}
		r.detail["moves"] = moves
	}
	b, err := json.Marshal(map[string]any{"detail": r.detail})
	if err != nil {
		fmt.Printf("detail: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and digests")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs cfg's workload, printing its report and result line. "all"
// runs every workload in turn, each in a process of its own so that each
// peak RSS is its own.
func run(cfg runConfig) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if cfg.workload == "all" {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		for _, w := range workloads {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace, "--out", cfg.outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		return nil
	}
	for _, w := range workloads {
		if w.name == cfg.workload {
			return runOne(cfg, w)
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return fmt.Errorf("unknown workload %q (have %s, or all)", cfg.workload, strings.Join(names, ", "))
}

func runOne(cfg runConfig, w workload) error {
	rep, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res, err := rep.finish()
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.printReport(res)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
