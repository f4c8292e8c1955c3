package maxent

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"pka/internal/contingency"
	"pka/internal/sumprod"
)

// Compiled is an immutable snapshot of a model bound to compiled
// sum-product engines: the separation of the mutable fitting model from the
// query engine. It is safe for concurrent use by any number of goroutines —
// coefficients are deep-copied at Compile time and scratch state is pooled —
// and every probability it returns is bit-identical to the equivalent
// Model method evaluated on the snapshot's coefficients.
//
// The product form factorizes exactly over the connected components of the
// constraint graph, so a snapshot is a list of blocks: one engine per
// block (see blocks.go), with probabilities combined as products of
// per-block sums. A joint space up to denseModelCells — or, in the
// too-dense fallback, up to maxDenseCells — compiles to a single block
// over every attribute; a wider model compiles one block per component,
// and no dense joint structure is ever allocated.
type Compiled struct {
	names  []string
	cards  []int
	a0     float64
	blocks []*compiledBlock
	// scratch pools the per-query index buffers (*queryScratch).
	scratch sync.Pool
}

// compiledBlock is one constraint block's sub-engine. eng is an interface
// (see engine.go): in-process snapshots wrap a dense sumprod engine, the
// shard coordinator substitutes RPC clients — either way the combination
// loops below run unchanged, which is what keeps distributed answers
// bit-identical to local ones.
type compiledBlock struct {
	vars  []int // global attribute positions, ascending
	cards []int // cardinalities of vars
	local []int // local index per global position; -1 when not a member
	eng   BlockEngine
	sum   float64 // cached unnormalized block sum Σ Π coeffs
}

// queryScratch holds one query's index buffers, so a query allocates
// little beyond its result. cell spans the widest block; the other
// buffers grow to the widest query seen and are kept.
type queryScratch struct {
	cell   []int // block-local cell or clamps
	lv     []int // block-local positions of the members a block holds
	lvals  []int // pinned values, parallel to lv
	idx    []int // marginal: member indices of every part, back to back
	values []int // marginal: odometer over the members
	parts  []marginalPart
}

// marginalPart is one block's share of a batch marginal.
type marginalPart struct {
	midx []int // indices into the members served by this block
	arr  []float64
}

// newCompiled assembles a snapshot over its blocks and sizes the scratch
// pool to the widest block — the one set-up shared by Compile,
// RestoreModel and NewDistributed.
func newCompiled(names []string, cards []int, a0 float64, blocks []*compiledBlock) *Compiled {
	c := &Compiled{
		names:  append([]string(nil), names...),
		cards:  append([]int(nil), cards...),
		a0:     a0,
		blocks: blocks,
	}
	maxW := 0
	for _, b := range blocks {
		maxW = max(maxW, len(b.vars))
	}
	c.scratch.New = func() any {
		return &queryScratch{cell: make([]int, maxW)}
	}
	return c
}

// Compile returns the model's compiled inference engine, building it from
// the current coefficients if no snapshot is cached. The cache is
// invalidated by AddConstraint and refreshed by every successful Fit, so a
// fitted model hands out an up-to-date engine for free.
//
// Concurrency: safe to call from any number of goroutines as long as no
// mutation (AddConstraint, Fit) is in flight — the snapshot is published
// through an atomic pointer, and concurrent rebuilds of a stale cache each
// compile the same coefficients, so whichever publication wins is correct.
func (m *Model) Compile() (*Compiled, error) {
	if c := m.compiled.Load(); c != nil {
		return c, nil
	}
	parts, err := m.compilePartition()
	if err != nil {
		return nil, err
	}
	c, err := m.buildCompiled(parts, nil)
	if err != nil {
		return nil, err
	}
	m.compiled.Store(c)
	return c, nil
}

// Factored reports whether the snapshot has more than one block — i.e. its
// joint space is too wide to evaluate as a whole, so consumers must score
// over occupied cells instead of a dense joint walk.
func (c *Compiled) Factored() bool { return len(c.blocks) > 1 }

// compilePartition returns the attribute blocks a snapshot compiles: the
// constraint graph's components once the joint space exceeds
// denseModelCells, and one block over every attribute otherwise. A
// component too densely coupled for a block of its own sends a model under
// maxDenseCells back to the single block, mirroring Fit's fallback.
func (m *Model) compilePartition() ([][]int, error) {
	cells := m.NumCells()
	if cells > denseModelCells {
		blocks := m.blocks()
		var err error
		for _, blk := range blocks {
			if _, err = m.blockDenseSize(blk); err != nil {
				break
			}
		}
		if err == nil {
			return blocks, nil
		}
		if !errors.Is(err, errBlockTooDense) || cells > maxDenseCells {
			return nil, err
		}
	}
	return m.wholeBlock(), nil
}

// wholeBlock is the single-block partition: every attribute position.
func (m *Model) wholeBlock() [][]int {
	all := make([]int, len(m.cards))
	for i := range all {
		all[i] = i
	}
	return [][]int{all}
}

// buildCompiled compiles one sub-engine per block of the partition from
// the current coefficients. sums, when non-nil, are a restored snapshot's
// stored block sums; otherwise each block's engine computes its own.
func (m *Model) buildCompiled(parts [][]int, sums []float64) (*Compiled, error) {
	fams := m.sortedFamilyTerms()
	var ar blockArena
	if len(parts) == 1 {
		// A block over every attribute carves 3R ints plus one local
		// position per family member: size the arena to exactly that.
		n := 3 * len(m.cards)
		for _, ft := range fams {
			n += len(ft.vars)
		}
		ar.free = make([]int, n)
	}
	blocks := make([]*compiledBlock, len(parts))
	for i, blk := range parts {
		b, err := m.buildBlock(blk, fams, &ar)
		if err != nil {
			return nil, err
		}
		if sums != nil {
			b.sum = sums[i]
		} else if b.sum, err = b.eng.Sum(); err != nil {
			return nil, err
		}
		blocks[i] = b
	}
	return newCompiled(m.names, m.cards, m.a0, blocks), nil
}

// blockArena carves the per-block int buffers of one compilation out of
// chunked backing arrays — a model decomposes into many small blocks, and
// block compilation runs on the snapshot-restore cold-start path where a
// few allocations per block dominate the profile. Carved slices have
// len == cap and chunks are never reallocated, so handing out a new slice
// never moves one already handed out.
type blockArena struct {
	free []int
}

func (a *blockArena) take(n int) []int {
	if n == 0 {
		return nil
	}
	if len(a.free) < n {
		size := 1024
		if n > size {
			size = n
		}
		a.free = make([]int, size)
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// sortedFamilyTerms resolves the family map into deterministic mask order
// once, so per-block compilation iterates a slice instead of re-sorting
// the map for every block.
func (m *Model) sortedFamilyTerms() []*familyTerm {
	out := make([]*familyTerm, 0, len(m.families))
	for _, vs := range sortedFamilies(m.families) {
		out = append(out, m.families[vs])
	}
	return out
}

// buildBlock compiles one block's sub-engine from the current
// coefficients, leaving the cached block sum unset: buildCompiled computes
// it fresh or injects a snapshot's stored value, so the restored engine
// reproduces the saved one bit for bit. fams is the caller's
// sortedFamilyTerms() — hoisted out because it is shared by every block of
// one compilation.
func (m *Model) buildBlock(blk []int, fams []*familyTerm, ar *blockArena) (*compiledBlock, error) {
	// One arena carve serves vars, cards, and local.
	buf := ar.take(2*len(blk) + len(m.cards))
	b := &compiledBlock{
		vars:  buf[:len(blk):len(blk)],
		cards: buf[len(blk) : 2*len(blk) : 2*len(blk)],
		local: buf[2*len(blk):],
	}
	copy(b.vars, blk)
	for i := range b.local {
		b.local[i] = -1
	}
	for i, p := range blk {
		b.cards[i] = m.cards[p]
		b.local[p] = i
	}
	nt, nv := 0, 0
	for _, ft := range fams {
		if b.local[ft.vars[0]] >= 0 {
			nt++
			nv += len(ft.vars)
		}
	}
	terms := make([]sumprod.Term, 0, nt)
	lvbuf := ar.take(nv)
	for _, ft := range fams {
		if b.local[ft.vars[0]] < 0 {
			continue
		}
		lv := lvbuf[:len(ft.vars):len(ft.vars)]
		lvbuf = lvbuf[len(ft.vars):]
		for i, p := range ft.vars {
			if b.local[p] < 0 {
				return nil, fmt.Errorf("maxent: family %v straddles blocks",
					contingency.NewVarSet(ft.vars...))
			}
			lv[i] = b.local[p]
		}
		terms = append(terms, sumprod.Term{Vars: lv, Coeffs: ft.coeffs})
	}
	eng, err := sumprod.Compile(b.cards, terms)
	if err != nil {
		return nil, err
	}
	b.eng = localBlock{eng}
	return b, nil
}

// R returns the number of attributes.
func (c *Compiled) R() int { return len(c.cards) }

// Cards returns a copy of the attribute cardinalities.
func (c *Compiled) Cards() []int { return append([]int(nil), c.cards...) }

// Names returns a copy of the attribute names.
func (c *Compiled) Names() []string { return append([]string(nil), c.names...) }

// A0 returns the snapshot's normalizing coefficient.
func (c *Compiled) A0() float64 { return c.a0 }

// checkCell validates (vars, values) against the attribute space.
func (c *Compiled) checkCell(vars contingency.VarSet, values []int) ([]int, error) {
	members := vars.Members()
	if len(members) != len(values) {
		return nil, fmt.Errorf("maxent: %d values for attribute set %v", len(values), vars)
	}
	if len(members) > 0 && members[len(members)-1] >= len(c.cards) {
		return nil, fmt.Errorf("maxent: attribute set %v exceeds %d attributes", vars, len(c.cards))
	}
	for i, p := range members {
		if values[i] < 0 || values[i] >= c.cards[p] {
			return nil, fmt.Errorf("maxent: value %d out of range for attribute %d", values[i], p)
		}
	}
	return members, nil
}

// Prob returns the normalized probability that the attributes of vars take
// values — one pooled-scratch elimination sweep per block touched by the
// pins, no per-call engine build; untouched blocks contribute their cached
// sums.
func (c *Compiled) Prob(vars contingency.VarSet, values []int) (float64, error) {
	members, err := c.checkCell(vars, values)
	if err != nil {
		return 0, err
	}
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	res := c.a0
	for _, b := range c.blocks {
		sc.pin(b, members, values)
		if len(sc.lv) == 0 {
			res *= b.sum
			continue
		}
		s, err := b.eng.SumPinned(sc.lv, sc.lvals)
		if err != nil {
			return 0, err
		}
		res *= s
	}
	return res, nil
}

// pin gathers the members b holds into lv (block-local) and their values
// into lvals.
func (sc *queryScratch) pin(b *compiledBlock, members, values []int) {
	sc.lv, sc.lvals = sc.lv[:0], sc.lvals[:0]
	for i, p := range members {
		if li := b.local[p]; li >= 0 {
			sc.lv = append(sc.lv, li)
			sc.lvals = append(sc.lvals, values[i])
		}
	}
}

// clamp maps the global clamps fixed (fixed[p] >= 0 pins attribute p) onto
// b's local positions in sc.cell, or returns nil when fixed pins nothing
// in b.
func (sc *queryScratch) clamp(b *compiledBlock, fixed []int) []int {
	local := sc.cell[:len(b.vars)]
	pinned := false
	for li, p := range b.vars {
		local[li] = -1
		if p < len(fixed) && fixed[p] >= 0 {
			local[li] = fixed[p]
			pinned = true
		}
	}
	if !pinned {
		return nil
	}
	return local
}

// familyMembers validates a batch-marginal family against the attribute
// space.
func (c *Compiled) familyMembers(vars contingency.VarSet) ([]int, error) {
	members := vars.Members()
	if len(members) == 0 {
		return nil, fmt.Errorf("maxent: empty attribute set for marginal")
	}
	if members[len(members)-1] >= len(c.cards) {
		return nil, fmt.Errorf("maxent: attribute set %v exceeds %d attributes", vars, len(c.cards))
	}
	return members, nil
}

// Marginal returns the model's full marginal distribution over the family:
// every cell's probability, dense row-major over the members ascending
// (first member slowest), computed in a single batch elimination sweep.
// Each entry is bit-identical to the Prob call for that cell.
func (c *Compiled) Marginal(vars contingency.VarSet) ([]float64, error) {
	members, err := c.familyMembers(vars)
	if err != nil {
		return nil, err
	}
	return c.marginal(members, nil)
}

// MarginalGiven returns the joint probability of every cell of vars together
// with the clamped evidence: fixed[v] >= 0 pins attribute v (which must not
// be a member of vars), -1 leaves it summed over. One batch sweep computes
// the whole conditional slice's numerators.
func (c *Compiled) MarginalGiven(vars contingency.VarSet, fixed []int) ([]float64, error) {
	members, err := c.familyMembers(vars)
	if err != nil {
		return nil, err
	}
	for v := 0; v < len(fixed) && v < len(c.cards); v++ {
		if fixed[v] >= c.cards[v] {
			return nil, fmt.Errorf("maxent: value %d out of range for attribute %d", fixed[v], v)
		}
	}
	return c.marginal(members, fixed)
}

// marginal assembles a (possibly clamped) batch marginal: each block
// touched by the family computes its own dense sub-marginal in one sweep,
// blocks touched only by clamps contribute a pinned scalar sum, untouched
// blocks their cached sums, and the family's row-major result is the
// outer product of the parts.
func (c *Compiled) marginal(members []int, fixed []int) ([]float64, error) {
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	lv, idx, parts := sc.lv, sc.idx[:0], sc.parts[:0]
	defer func() {
		clear(parts) // keep no result array alive in the pool
		sc.lv, sc.idx, sc.parts = lv, idx, parts[:0]
	}()
	scalar := c.a0
	for _, b := range c.blocks {
		lv = lv[:0]
		start := len(idx) // earlier parts keep their windows if idx regrows
		for i, p := range members {
			if li := b.local[p]; li >= 0 {
				lv = append(lv, li)
				idx = append(idx, i)
			}
		}
		clamps := sc.clamp(b, fixed)
		switch {
		case len(lv) > 0:
			arr, err := b.eng.MarginalFixed(lv, clamps)
			if err != nil {
				return nil, err
			}
			parts = append(parts, marginalPart{midx: idx[start:len(idx):len(idx)], arr: arr})
		case clamps != nil:
			s, err := b.eng.SumFixed(clamps)
			if err != nil {
				return nil, err
			}
			scalar *= s
		default:
			scalar *= b.sum
		}
	}
	if len(parts) == 1 && len(parts[0].midx) == len(members) {
		// The family lies inside one block, whose marginal is already
		// row-major over the members: scale it in place.
		out := parts[0].arr
		for i := range out {
			out[i] = scalar * out[i]
		}
		return out, nil
	}
	size := 1
	for _, p := range members {
		size *= c.cards[p]
	}
	out := make([]float64, size)
	values := slices.Grow(sc.values[:0], len(members))[:len(members)]
	clear(values)
	for i := 0; i < size; i++ {
		v := scalar
		for _, pt := range parts {
			off := 0
			for _, mi := range pt.midx {
				off = off*c.cards[members[mi]] + values[mi]
			}
			v *= pt.arr[off]
		}
		out[i] = v
		for j := len(members) - 1; j >= 0; j-- {
			values[j]++
			if values[j] < c.cards[members[j]] {
				break
			}
			values[j] = 0
		}
	}
	sc.values = values
	return out, nil
}

// CellProb returns the normalized probability of one full cell by direct
// product evaluation, multiplying the family coefficients onto a0 in the
// same order Model.CellProb does.
func (c *Compiled) CellProb(cell []int) (float64, error) {
	if len(cell) != len(c.cards) {
		return 0, fmt.Errorf("maxent: cell has %d coordinates, model has %d attributes",
			len(cell), len(c.cards))
	}
	for i, v := range cell {
		if v < 0 || v >= c.cards[i] {
			return 0, fmt.Errorf("maxent: coordinate %d = %d out of range", i, v)
		}
	}
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	p, err := c.chain(sc, c.a0, cell)
	return p, err
}

// chain multiplies every block's coefficients at the full cell onto acc,
// block after block in term order — the accumulator order of direct
// product evaluation.
func (c *Compiled) chain(sc *queryScratch, acc float64, cell []int) (float64, error) {
	for _, b := range c.blocks {
		local := sc.cell[:len(b.vars)]
		for li, p := range b.vars {
			local[li] = cell[p]
		}
		var err error
		if acc, err = b.eng.CellValue(acc, local); err != nil {
			return 0, err
		}
	}
	return acc, nil
}

// MaxCell returns the most probable full cell agreeing with fixed
// (fixed[i] >= 0 pins attribute i; any negative entry leaves it free; nil
// leaves every attribute free) and that cell's normalized probability —
// the MPE/MAP primitive. Ties break toward lexicographically smaller
// cells. The argmax is taken independently per block — exact, because the
// distribution is a product over blocks — so wide-model MPE costs the sum
// of the block sizes, never the joint.
func (c *Compiled) MaxCell(fixed []int) ([]int, float64, error) {
	r := len(c.cards)
	if fixed != nil && len(fixed) != r {
		return nil, 0, fmt.Errorf("maxent: %d pins for %d attributes", len(fixed), r)
	}
	for i, v := range fixed {
		if v >= c.cards[i] {
			return nil, 0, fmt.Errorf("maxent: value %d out of range for attribute %d", v, i)
		}
	}
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	// Per-block argmax in local row-major order: within a block the local
	// order is the block's attributes ascending, so ArgmaxFixed's tie-break
	// keeps the block-lexicographically smallest maximizer — which composes
	// to the globally lexicographically smallest one, blocks being
	// independent.
	best := make([]int, r)
	for _, b := range c.blocks {
		bestLocal, err := b.eng.ArgmaxFixed(sc.clamp(b, fixed))
		if err != nil {
			return nil, 0, err
		}
		for li, p := range b.vars {
			best[p] = bestLocal[li]
		}
	}
	p, err := c.chain(sc, c.a0, best)
	if err != nil {
		return nil, 0, err
	}
	return best, p, nil
}

// Joint materializes the full normalized joint distribution in row-major
// order (attribute 0 slowest). Intended for small spaces, validation, and
// tests: each cell chains the blocks' coefficient products from 1 and
// multiplies by a0 last, and a space beyond maxDenseCells is refused —
// wide models must be queried through marginals instead.
func (c *Compiled) Joint() ([]float64, error) {
	size := 1
	for _, card := range c.cards {
		if size > maxDenseCells/card {
			return nil, fmt.Errorf("maxent: joint space too large to materialize (model over %d attributes)", len(c.cards))
		}
		size *= card
	}
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	joint := make([]float64, size)
	cell := make([]int, len(c.cards))
	for i := range joint {
		p, err := c.chain(sc, 1, cell)
		if err != nil {
			return nil, err
		}
		joint[i] = p * c.a0
		for j := len(cell) - 1; j >= 0; j-- {
			cell[j]++
			if cell[j] < c.cards[j] {
				break
			}
			cell[j] = 0
		}
	}
	return joint, nil
}

// Sum returns the unnormalized total Σ Π coefficients (1/a0 after a fit):
// the product of the block sums.
func (c *Compiled) Sum() float64 {
	s := 1.0
	for _, b := range c.blocks {
		s *= b.sum
	}
	return s
}

// constraintRatio returns the model's predicted probability of a constraint
// cell — the convergence measure Residual compares against targets: the
// product, over the blocks the constraint touches, of the pinned block sum
// over the cached block sum.
func (c *Compiled) constraintRatio(cons Constraint) float64 {
	members := cons.Family.Members()
	sc := c.scratch.Get().(*queryScratch)
	defer c.scratch.Put(sc)
	ratio := 1.0
	for _, b := range c.blocks {
		sc.pin(b, members, cons.Values)
		if len(sc.lv) > 0 {
			// Fitting only ever runs over in-process engines, whose
			// SumPinned cannot fail.
			s, _ := b.eng.SumPinned(sc.lv, sc.lvals)
			ratio *= s / b.sum
		}
	}
	return ratio
}
