package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pka"
	"pka/internal/assoc"
	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/maxent"
	"pka/internal/mml"
	"pka/internal/par"
	"pka/internal/stats"
	"pka/internal/synth"
)

// wideShape sizes discover_wide.
type wideShape struct {
	Pairs          int
	Rows           int
	MaxConstraints int
	// MinRecovered is how many planted pairs the capped run must promote.
	MinRecovered int
}

// wideFull is 520 binary attributes (8-word sparse keys), 1200 rows.
var wideFull = wideShape{Pairs: 260, Rows: 1200, MaxConstraints: 32, MinRecovered: 16}

const wideStrength = 3

// discoverSetups is how many times a run sets up discover_wide; setup_s
// is their median.
const discoverSetups = 5

func (s wideShape) options() pka.Options {
	return pka.Options{MaxOrder: 2, ScreenPairs: true, ScreenCI: true, MaxConstraints: s.MaxConstraints}
}

// wideInput is discover_wide's input: the planted truth and the sampled
// table every discovery clones.
type wideInput struct {
	truth  *synth.WideTruth
	master *contingency.Sparse
}

func setupWide(shape wideShape, seed int64) (*wideInput, error) {
	truth, err := synth.WidePairs(shape.Pairs, wideStrength)
	if err != nil {
		return nil, err
	}
	master, err := truth.SampleSparse(stats.NewRNG(seed), shape.Rows)
	if err != nil {
		return nil, err
	}
	return &wideInput{truth: truth, master: master}, nil
}

// discovery is one measured DiscoverSparse.
type discovery struct {
	dur     time.Duration
	mallocs uint64
	allocB  uint64
	model   *pka.Model
	digest  string
}

// discoverOnce runs one discovery on a fresh clone (the model takes
// ownership of its table) and digests its snapshot.
func (in *wideInput) discoverOnce(shape wideShape, tr *tracer) (*discovery, error) {
	tab := in.master.Clone()
	before := memStats()
	id := tr.begin(spanDiscover, -1, 0)
	start := time.Now()
	m, err := pka.DiscoverSparse(tab, in.truth.Schema(), shape.options())
	dur := time.Since(start)
	tr.end(id)
	after := memStats()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return &discovery{
		dur: dur, mallocs: after.Mallocs - before.Mallocs, allocB: after.TotalAlloc - before.TotalAlloc,
		model: m, digest: hex.EncodeToString(sum[:]),
	}, nil
}

// checkPlanted verifies the discovery promoted only planted pairs, and at
// least shape.MinRecovered of them.
func (in *wideInput) checkPlanted(shape wideShape, m *pka.Model) error {
	planted := make(map[contingency.VarSet]bool)
	for _, fam := range in.truth.Planted() {
		planted[fam] = true
	}
	recovered := make(map[contingency.VarSet]bool)
	for _, f := range m.Findings() {
		fam := f.Constraint.Family
		if fam.Len() < 2 {
			continue
		}
		if !planted[fam] {
			return fmt.Errorf("discovery promoted non-planted family %v", fam.Members())
		}
		recovered[fam] = true
	}
	if len(recovered) < shape.MinRecovered {
		return fmt.Errorf("discovery recovered %d planted pairs, want >= %d", len(recovered), shape.MinRecovered)
	}
	return nil
}

// runDiscoverWide measures discover_wide: repeated full discoveries of one
// seeded wide table, each checked for planted structure and for a snapshot
// digest identical to the first.
func runDiscoverWide(cfg runConfig) (*report, error) {
	shape := wideFull
	if cfg.tiny {
		shape = wideShape{Pairs: 20, Rows: 400, MaxConstraints: 6, MinRecovered: 3}
	}
	rep := newReport(cfg)
	rep.detail["shape"] = shape

	var setups dist
	var in *wideInput
	for i := 0; i < discoverSetups; i++ {
		start := time.Now()
		w, err := setupWide(shape, cfg.seed)
		if err != nil {
			return nil, err
		}
		setups.addDur(time.Since(start))
		in = w
	}
	rep.setup(&setups)

	// The untraced run spends all its time discovering; the traced run
	// halves it between an untraced and a traced series, then replays the
	// layers.
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	untraced, err := discoverSeries(in, shape, budget, nil, rep)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.e2eSeries(untraced)
		return rep, nil
	}
	tr := newTracer()
	traced, err := discoverSeries(in, shape, budget, tr, rep)
	if err != nil {
		return nil, err
	}
	last := traced.last
	if err := wideProbes(in, shape, last.model, tr, rep); err != nil {
		return nil, err
	}
	probeMs := 0.0
	for _, p := range wideProbeNames {
		probeMs += rep.layers[p+"_ms"]
	}
	rep.layers["discover.unattributed_ms"] = untraced.dur.p50()/1e6 - probeMs
	rep.traceOverhead(untraced.dur.p50()/1e6, traced.dur.p50()/1e6)
	return rep, rep.writeSpans(cfg, tr)
}

// series is a run of discoveries.
type series struct {
	dur     dist // ns
	mallocs dist
	allocB  dist
	total   time.Duration
	last    *discovery
}

// discoverSeries discovers repeatedly until budget seconds have passed
// (at least twice), checking every result.
func discoverSeries(in *wideInput, shape wideShape, budget float64, tr *tracer, rep *report) (*series, error) {
	s := &series{}
	start := time.Now()
	for s.dur.n() < 2 || time.Since(start).Seconds() < budget {
		d, err := in.discoverOnce(shape, tr)
		rep.attempted++
		if err != nil {
			return nil, err
		}
		if err := in.checkPlanted(shape, d.model); err != nil {
			rep.fail(err)
		} else if err := rep.checkDigest(d.digest); err != nil {
			rep.fail(err)
		}
		s.dur.addDur(d.dur)
		s.mallocs.add(float64(d.mallocs))
		s.allocB.add(float64(d.allocB))
		s.total += d.dur
		s.last = d
	}
	return s, nil
}

// wideProbeNames are the layer probes of the traced discover_wide run, in
// the order discovery reaches them.
var wideProbeNames = []string{
	"contingency.first_order", "assoc.screen", "assoc.ci", "mml.scan",
	"maxent.fit", "maxent.compile", "core.gof",
}

// wideProbes replays the table and the discovered model through each
// discovery layer's public entry point, one span and one allocation count
// per layer.
func wideProbes(in *wideInput, shape wideShape, discovered *pka.Model, tr *tracer, rep *report) error {
	tab := in.master.Clone()
	names, cards := tab.Names(), tab.Cards()
	probe := func(name string, fn func() error) error {
		before := memStats()
		id := tr.begin(name, -1, 0)
		start := time.Now()
		err := fn()
		dur := time.Since(start)
		tr.end(id)
		after := memStats()
		if err != nil {
			return fmt.Errorf("%s probe: %w", name, err)
		}
		rep.layers[name+"_ms"] = float64(dur) / 1e6
		rep.layers[name+"_allocs"] = float64(after.Mallocs - before.Mallocs)
		return nil
	}

	first, err := maxent.NewModel(names, cards)
	if err != nil {
		return err
	}
	if err := probe("contingency.first_order", func() error { return first.AddFirstOrderConstraints(tab) }); err != nil {
		return err
	}

	var pairs []assoc.PairStats
	if err := probe("assoc.screen", func() (err error) {
		pairs, err = assoc.PairwiseSparseWorkers(tab, 0)
		return err
	}); err != nil {
		return err
	}
	r := tab.R()
	adj := make([][]bool, r)
	for i := range adj {
		adj[i] = make([]bool, r)
	}
	alpha := 0.05 / float64(len(pairs))
	for _, p := range pairs {
		if p.PValue <= alpha {
			adj[p.I][p.J], adj[p.J][p.I] = true, true
		}
	}

	// The conditional-independence pass as discovery runs it: every
	// surviving edge tries each common neighbour as a separator and drops
	// at the first that explains it.
	type edge struct{ i, j int }
	var edges []edge
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			if adj[i][j] {
				edges = append(edges, edge{i, j})
			}
		}
	}
	drop := make([]bool, len(edges))
	if err := probe("assoc.ci", func() error {
		flat, err := assoc.Flatten(tab)
		if err != nil {
			return err
		}
		return par.Do(len(edges), 0, func(e int) error {
			i, j := edges[e].i, edges[e].j
			for k := 0; k < r; k++ {
				if k == i || k == j || !adj[i][k] || !adj[j][k] {
					continue
				}
				if _, _, p := flat.CondG2(i, j, k); p > 0.05 {
					drop[e] = true
					break
				}
			}
			return nil
		})
	}); err != nil {
		return err
	}
	var families []contingency.VarSet
	kept := make(map[contingency.VarSet]bool)
	for e, ed := range edges {
		if !drop[e] {
			fam := contingency.NewVarSet(ed.i, ed.j)
			families = append(families, fam)
			kept[fam] = true
		}
	}
	for _, fam := range in.truth.Planted() {
		if !kept[fam] {
			rep.fail(fmt.Errorf("screen dropped planted pair %v", fam.Members()))
		}
	}
	if sr := discovered.Screen(); sr != nil {
		rep.layers["assoc.pairs_kept_ratio"] = ratio(int64(sr.PairsKept), int64(sr.PairsTotal))
		rep.layers["assoc.pairs_total"] = float64(sr.PairsTotal)
		if sr.PairsKept != len(families) {
			rep.fail(fmt.Errorf("screen replay kept %d pairs, discovery kept %d", len(families), sr.PairsKept))
		}
	}

	kbModel := discovered.KnowledgeBase().Model()
	if err := probe("mml.scan", func() error {
		tester, err := mml.NewTester(tab, mml.DefaultConfig())
		if err != nil {
			return err
		}
		tester.RestrictFamilies(func(order int) []contingency.VarSet {
			if order == 2 {
				return families
			}
			return nil
		})
		tests, err := tester.ScanOrderParallel(2, kbModel, 0)
		if err != nil {
			return err
		}
		accepted := 0
		for _, f := range discovered.Findings() {
			if f.Order == 2 {
				accepted++
			}
		}
		rep.layers["mml.cells_tested"] = float64(len(tests))
		rep.layers["mml.accept_ratio"] = ratio(int64(accepted), int64(len(tests)))
		return nil
	}); err != nil {
		return err
	}

	// The fit and compile probes rebuild the discovered constraint set on
	// fresh models, so neither starts from the discovered coefficients or
	// its cached engine.
	rebuild := func() (*maxent.Model, error) {
		m, err := maxent.NewModel(names, cards)
		if err != nil {
			return nil, err
		}
		if err := m.AddFirstOrderConstraints(tab); err != nil {
			return nil, err
		}
		for _, c := range kbModel.Constraints() {
			if c.Family.Len() >= 2 {
				if err := m.AddConstraint(c); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	}
	fitModel, err := rebuild()
	if err != nil {
		return err
	}
	if err := probe("maxent.fit", func() error {
		fr, err := fitModel.Fit(maxent.SolveOptions{Tol: solveTol(tab.Total())})
		if err != nil {
			return err
		}
		if !fr.Converged {
			return fmt.Errorf("fit did not converge (residual %g)", fr.Residual)
		}
		rep.layers["maxent.fit_sweeps"] = float64(fr.Sweeps)
		return nil
	}); err != nil {
		return err
	}
	compileModel, err := rebuild()
	if err != nil {
		return err
	}
	if err := probe("maxent.compile", func() error {
		c, err := compileModel.Compile()
		if err != nil {
			return err
		}
		rep.layers["maxent.blocks"] = float64(c.NumBlocks())
		return nil
	}); err != nil {
		return err
	}
	return probe("core.gof", func() error {
		_, err := core.GoodnessOfFit(tab, kbModel)
		return err
	})
}

// solveTol is discovery's count-scaled solver tolerance (0.01 expected
// counts, floored at 1e-9), so the fit probe converges as discovery does.
func solveTol(total int64) float64 {
	tol := 0.01 / float64(total)
	if tol < 1e-9 {
		tol = 1e-9
	}
	return tol
}

// checkDigest fails the run when a discovery's snapshot digest differs
// from the first in this run, or from the digest an earlier run in this
// checkout recorded for the same seed.
func (r *report) checkDigest(digest string) error {
	if r.digest == "" {
		r.digest = digest
		r.detail["snapshot_sha256"] = digest
		path := filepath.Join(r.cfg.outDir, fmt.Sprintf("digest-%s-%d.txt", r.cfg.workload, r.cfg.seed))
		prev, err := os.ReadFile(path)
		switch {
		case err == nil && string(prev) != digest:
			return fmt.Errorf("snapshot digest %s differs from %s recorded by an earlier run", digest, prev)
		case err != nil && os.IsNotExist(err):
			return os.WriteFile(path, []byte(digest), 0o644)
		case err != nil:
			return err
		}
		return nil
	}
	if digest != r.digest {
		return fmt.Errorf("snapshot digest %s differs from this run's first %s", digest, r.digest)
	}
	return nil
}
