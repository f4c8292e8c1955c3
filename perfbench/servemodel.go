package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"pka"
)

// serveShape sizes the serving model: chains of attrs ternary attributes,
// discovered up to order 3 behind the pairwise screen.
type serveShape struct {
	Chains   int
	ChainLen int
	Rows     int
	// Couple is the chance an attribute copies its chain predecessor.
	Couple float64
}

// serveFull is the serving model every serve workload uses: 24 ternary
// attributes in six planted 4-attribute chains, 8000 rows.
var serveFull = serveShape{Chains: 6, ChainLen: 4, Rows: 8000, Couple: 0.5}

var serveLabels = []string{"lo", "mid", "hi"}

func (s serveShape) attrs() int { return s.Chains * s.ChainLen }

func (s serveShape) schema() (*pka.Schema, error) {
	attrs := make([]pka.Attribute, s.attrs())
	for i := range attrs {
		attrs[i] = pka.Attribute{Name: fmt.Sprintf("S%02d", i), Values: serveLabels}
	}
	return pka.NewSchema(attrs)
}

// rowGen draws serving-model rows: each chain starts uniform and every
// later attribute copies its predecessor with probability Couple. The same
// generator feeds discovery and, afterwards, the observe batches.
type rowGen struct {
	shape serveShape
	rng   *rand.Rand
}

func newRowGen(shape serveShape, seed int64) *rowGen {
	return &rowGen{shape: shape, rng: rand.New(rand.NewSource(seed))}
}

func (g *rowGen) row(cell []int) {
	for c := 0; c < g.shape.Chains; c++ {
		b := c * g.shape.ChainLen
		cell[b] = g.rng.Intn(3)
		for j := 1; j < g.shape.ChainLen; j++ {
			if g.rng.Float64() < g.shape.Couple {
				cell[b+j] = cell[b+j-1]
			} else {
				cell[b+j] = g.rng.Intn(3)
			}
		}
	}
}

// labeledBatch draws n rows in the /v1/observe wire form.
func (g *rowGen) labeledBatch(n int) [][]string {
	cell := make([]int, g.shape.attrs())
	out := make([][]string, n)
	for i := range out {
		g.row(cell)
		row := make([]string, len(cell))
		for j, v := range cell {
			row[j] = serveLabels[v]
		}
		out[i] = row
	}
	return out
}

// serveOptions is the serving model's discovery configuration.
var serveOptions = pka.Options{MaxOrder: 3, ScreenPairs: true}

// buildServeSnapshot generates the rows for seed, discovers the serving
// model and returns its PKAS snapshot bytes plus the row generator,
// positioned after the discovery rows, for observe batches.
func buildServeSnapshot(shape serveShape, seed int64) ([]byte, *rowGen, error) {
	schema, err := shape.schema()
	if err != nil {
		return nil, nil, err
	}
	tab, err := pka.NewSparseTable(schema)
	if err != nil {
		return nil, nil, err
	}
	gen := newRowGen(shape, seed)
	cell := make([]int, shape.attrs())
	for i := 0; i < shape.Rows; i++ {
		gen.row(cell)
		if err := tab.Observe(cell...); err != nil {
			return nil, nil, err
		}
	}
	m, err := pka.DiscoverSparse(tab, schema, serveOptions)
	if err != nil {
		return nil, nil, fmt.Errorf("discovering the serving model: %w", err)
	}
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), gen, nil
}

// queryGen draws random queries of all six kinds over the serving schema.
type queryGen struct {
	names []string
	rng   *rand.Rand
}

func newQueryGen(schema *pka.Schema, seed int64) *queryGen {
	return &queryGen{names: schema.Names(), rng: rand.New(rand.NewSource(seed))}
}

var queryKinds = []pka.QueryKind{
	pka.QueryProbability, pka.QueryConditional, pka.QueryDistribution,
	pka.QueryMostLikely, pka.QueryLift, pka.QueryMPE,
}

// assigns picks n assignments over distinct attributes not in used.
func (g *queryGen) assigns(n int, used map[int]bool) []pka.Assignment {
	out := make([]pka.Assignment, 0, n)
	for len(out) < n {
		a := g.rng.Intn(len(g.names))
		if used[a] {
			continue
		}
		used[a] = true
		out = append(out, pka.Assignment{Attr: g.names[a], Value: serveLabels[g.rng.Intn(3)]})
	}
	return out
}

// evidence draws 1..3 evidence assignments.
func (g *queryGen) evidence(used map[int]bool) []pka.Assignment {
	return g.assigns(1+g.rng.Intn(3), used)
}

// withEvidence draws a query of kind k over the given evidence (nil draws
// fresh evidence where the kind takes any).
func (g *queryGen) withEvidence(k pka.QueryKind, given []pka.Assignment) pka.Query {
	used := make(map[int]bool)
	for _, a := range given {
		for i, n := range g.names {
			if n == a.Attr {
				used[i] = true
			}
		}
	}
	fresh := given == nil
	q := pka.Query{Kind: k}
	switch k {
	case pka.QueryProbability:
		q.Target = g.assigns(1+g.rng.Intn(3), used)
		return q
	case pka.QueryConditional:
		q.Target = g.assigns(1+g.rng.Intn(2), used)
	case pka.QueryLift:
		q.Target = g.assigns(1, used)
	case pka.QueryDistribution, pka.QueryMostLikely:
		a := g.rng.Intn(len(g.names))
		for used[a] {
			a = g.rng.Intn(len(g.names))
		}
		used[a] = true
		q.Attr = g.names[a]
	}
	if fresh {
		given = g.evidence(used)
	}
	q.Given = given
	return q
}

// next draws one query of a uniformly chosen kind.
func (g *queryGen) next() pka.Query {
	return g.withEvidence(queryKinds[g.rng.Intn(len(queryKinds))], nil)
}

// queryKey renders a query canonically (assignment order ignored), so the
// generators can promise distinct queries.
func queryKey(q pka.Query) string {
	part := func(as []pka.Assignment) string {
		s := make([]string, len(as))
		for i, a := range as {
			s[i] = a.Attr + "=" + a.Value
		}
		sort.Strings(s)
		return strings.Join(s, ",")
	}
	return string(q.Kind) + "|" + part(q.Target) + "|" + q.Attr + "|" + part(q.Given)
}

// oracleBytes answers q offline and encodes it exactly as the server's
// /v1/query does.
func oracleBytes(m pka.Querier, q pka.Query) ([]byte, error) {
	res, err := pka.Answer(m, q)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := pka.EncodeQueryResult(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// distinctQueries draws n distinct queries, none in seen, that the model
// answers without error, each with a hash of its oracle bytes from m
// (which should serve uncached); hashes keep a large pool's expected
// answers small. seen gains every key drawn.
func distinctQueries(g *queryGen, m pka.Querier, n int, seen map[uint64]bool) ([]pka.Query, []uint64, error) {
	u := &uniqueStream{g: g, seen: seen}
	qs := make([]pka.Query, 0, n)
	want := make([]uint64, 0, n)
	for tries := 0; len(qs) < n; tries++ {
		if tries > 20*n+1000 {
			return nil, nil, fmt.Errorf("could draw only %d of %d answerable queries", len(qs), n)
		}
		q := u.next()
		b, err := oracleBytes(m, q)
		if err != nil {
			continue // e.g. zero-probability evidence: not a valid workload query
		}
		qs = append(qs, q)
		want = append(want, bodyHash(b))
	}
	return qs, want, nil
}

// keyHash identifies a query by its canonical key.
func keyHash(q pka.Query) uint64 { return bodyHash([]byte(queryKey(q))) }

// bodyHash is the FNV-1a hash answers are compared by.
func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// uniqueStream draws queries none of which repeats another or any key in
// its seen set. Its sequence is a function of the seed and the initial
// set alone, so it can be drawn again to check answers after the fact.
type uniqueStream struct {
	g    *queryGen
	seen map[uint64]bool
}

func newUniqueStream(schema *pka.Schema, seed int64, seen map[uint64]bool) *uniqueStream {
	cp := make(map[uint64]bool, len(seen))
	for k := range seen {
		cp[k] = true
	}
	return &uniqueStream{g: newQueryGen(schema, seed), seen: cp}
}

func (u *uniqueStream) next() pka.Query {
	for {
		q := u.g.next()
		if k := keyHash(q); !u.seen[k] {
			u.seen[k] = true
			return q
		}
	}
}
