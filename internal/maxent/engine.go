package maxent

import (
	"fmt"

	"pka/internal/sumprod"
)

// BlockEngine is the evaluation surface of one block of a snapshot: the
// five primitives Compiled's combination loops call per block, plus the
// block-local argmax the MPE path needs. Every snapshot is a list of
// blocks — a single-block model is the one-component case — so every query
// runs through this interface. The in-process implementation wraps a
// compiled sum-product engine; the serving layer implements it over HTTP
// so one factored model can be sharded across processes while every
// combination loop — and therefore every served probability — runs the
// exact same code and multiplication order as a single process.
//
// All positions and cells are block-local (0..len(block vars)). Callers may
// reuse argument slices between calls; implementations must not retain
// them, and the slices they return belong to the caller. Implementations
// that cannot fail (the in-process engine) return nil errors; remote
// implementations surface transport failures.
type BlockEngine interface {
	// Sum returns the unnormalized block total Σ Π coeffs.
	Sum() (float64, error)
	// SumPinned returns the block total with vars (ascending, block-local)
	// clamped to values.
	SumPinned(vars, values []int) (float64, error)
	// SumFixed is SumPinned with dense clamps: fixed[v] >= 0 pins local
	// variable v, -1 (or out-of-length) leaves it summed over; nil pins
	// nothing.
	SumFixed(fixed []int) (float64, error)
	// MarginalFixed returns the dense row-major marginal over vars
	// (ascending, block-local, first slowest) under the fixed clamps.
	MarginalFixed(vars, fixed []int) ([]float64, error)
	// CellValue multiplies the block's coefficients at cell onto init in
	// term order — the accumulator-chaining primitive CellProb threads
	// through blocks, so the product order matches single-process
	// evaluation bit for bit.
	CellValue(init float64, cell []int) (float64, error)
	// ArgmaxFixed returns the block cell maximizing CellValue(1, ·) among
	// cells agreeing with fixed, ties broken toward the lexicographically
	// smallest cell.
	ArgmaxFixed(fixed []int) ([]int, error)
}

// localBlock adapts a compiled sum-product engine to BlockEngine — the
// in-process implementation every single-machine snapshot uses.
type localBlock struct {
	eng *sumprod.Compiled
}

func (l localBlock) Sum() (float64, error) { return l.eng.Sum(), nil }

func (l localBlock) SumPinned(vars, values []int) (float64, error) {
	return l.eng.SumPinned(vars, values), nil
}

func (l localBlock) SumFixed(fixed []int) (float64, error) {
	return l.eng.SumFixed(fixed), nil
}

func (l localBlock) MarginalFixed(vars, fixed []int) ([]float64, error) {
	return l.eng.MarginalFixed(vars, fixed)
}

func (l localBlock) CellValue(init float64, cell []int) (float64, error) {
	return l.eng.CellValue(init, cell), nil
}

func (l localBlock) ArgmaxFixed(fixed []int) ([]int, error) {
	return l.eng.ArgmaxFixed(fixed)
}

// RemoteBlock describes one block of a distributed factored snapshot: its
// global attribute positions (ascending, matching the model's deterministic
// block decomposition), the cached unnormalized block sum, and the engine
// that evaluates it — typically an RPC client owned by the serving layer.
type RemoteBlock struct {
	Vars []int
	Sum  float64
	Eng  BlockEngine
}

// NewDistributed assembles a factored snapshot whose per-block evaluation
// is delegated to the given engines — the seam a shard coordinator uses to
// serve one model from many processes. Blocks must arrive in the model's
// deterministic block order and together cover every attribute exactly
// once; names, cards, and a0 come from the same fitted model the blocks
// were cut from. Every combination loop (Prob, marginals, MPE, cell-product
// chains) is the same code the in-process factored engine runs, so answers
// are bit-identical to single-process serving whenever each engine returns
// the same block quantities.
func NewDistributed(names []string, cards []int, a0 float64, blocks []RemoteBlock) (*Compiled, error) {
	if len(names) != len(cards) {
		return nil, fmt.Errorf("maxent: %d names for %d cardinalities", len(names), len(cards))
	}
	if len(cards) == 0 {
		return nil, fmt.Errorf("maxent: distributed snapshot needs at least one attribute")
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("maxent: distributed snapshot needs at least one block")
	}
	owner := make([]int, len(cards))
	for i := range owner {
		owner[i] = -1
	}
	cbs := make([]*compiledBlock, 0, len(blocks))
	for bi, rb := range blocks {
		if rb.Eng == nil {
			return nil, fmt.Errorf("maxent: distributed block %d has no engine", bi)
		}
		if len(rb.Vars) == 0 {
			return nil, fmt.Errorf("maxent: distributed block %d is empty", bi)
		}
		b := &compiledBlock{
			vars:  append([]int(nil), rb.Vars...),
			cards: make([]int, len(rb.Vars)),
			local: make([]int, len(cards)),
			eng:   rb.Eng,
			sum:   rb.Sum,
		}
		for i := range b.local {
			b.local[i] = -1
		}
		for i, p := range rb.Vars {
			if p < 0 || p >= len(cards) {
				return nil, fmt.Errorf("maxent: distributed block %d: attribute %d out of range [0,%d)", bi, p, len(cards))
			}
			if i > 0 && rb.Vars[i-1] >= p {
				return nil, fmt.Errorf("maxent: distributed block %d: attributes %v not ascending", bi, rb.Vars)
			}
			if owner[p] >= 0 {
				return nil, fmt.Errorf("maxent: attribute %d claimed by distributed blocks %d and %d", p, owner[p], bi)
			}
			owner[p] = bi
			b.cards[i] = cards[p]
			b.local[p] = i
		}
		cbs = append(cbs, b)
	}
	for p, bi := range owner {
		if bi < 0 {
			return nil, fmt.Errorf("maxent: attribute %d not covered by any distributed block", p)
		}
	}
	return newCompiled(names, cards, a0, cbs), nil
}

// NumBlocks returns the number of blocks the snapshot evaluates over: 1
// for a single-block model, one per constraint-graph component otherwise.
func (c *Compiled) NumBlocks() int { return len(c.blocks) }

// BlockVars returns a copy of block i's global attribute positions,
// ascending.
func (c *Compiled) BlockVars(i int) []int {
	return append([]int(nil), c.blocks[i].vars...)
}

// BlockSum returns block i's cached unnormalized sum.
func (c *Compiled) BlockSum(i int) float64 { return c.blocks[i].sum }

// Block returns block i's evaluation engine — the surface a shard process
// exposes over the wire.
func (c *Compiled) Block(i int) BlockEngine { return c.blocks[i].eng }
