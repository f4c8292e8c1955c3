package sumprod

import (
	"math/rand"
	"sync"
	"testing"
)

// randomEngine builds a random term structure over the cards and returns
// both evaluation paths for comparison.
func randomEngine(t *testing.T, rng *rand.Rand, cards []int) (*Evaluator, *Compiled) {
	t.Helper()
	var terms []Term
	// First-order terms over every attribute.
	for v, card := range cards {
		coeffs := make([]float64, card)
		for i := range coeffs {
			coeffs[i] = 0.1 + rng.Float64()
		}
		terms = append(terms, Term{Vars: []int{v}, Coeffs: coeffs})
	}
	// A few random higher-order terms.
	for k := 0; k < 3; k++ {
		var vars []int
		for v := range cards {
			if rng.Intn(2) == 0 {
				vars = append(vars, v)
			}
		}
		if len(vars) < 2 {
			continue
		}
		size := 1
		for _, v := range vars {
			size *= cards[v]
		}
		coeffs := make([]float64, size)
		for i := range coeffs {
			coeffs[i] = 0.1 + rng.Float64()
		}
		terms = append(terms, Term{Vars: vars, Coeffs: coeffs})
	}
	ev, err := NewEvaluator(cards, terms)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := Compile(cards, terms)
	if err != nil {
		t.Fatal(err)
	}
	return ev, ce
}

// TestCompiledSumFixedBitIdentical: the compiled fold must reproduce the
// per-call Evaluator recursion bit for bit across random pin patterns.
func TestCompiledSumFixedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{{2}, {3, 2}, {2, 3, 2}, {3, 2, 4, 2}, {2, 2, 2, 3, 2}}
	for _, cards := range shapes {
		ev, ce := randomEngine(t, rng, cards)
		if got, want := ce.Sum(), ev.Sum(); got != want {
			t.Errorf("cards %v: Sum = %x, evaluator %x", cards, got, want)
		}
		for trial := 0; trial < 50; trial++ {
			fixed := make([]int, len(cards))
			vars := make([]int, 0, len(cards))
			values := make([]int, 0, len(cards))
			for v, card := range cards {
				if rng.Intn(2) == 0 {
					fixed[v] = rng.Intn(card)
					vars = append(vars, v)
					values = append(values, fixed[v])
				} else {
					fixed[v] = -1
				}
			}
			want := ev.SumFixed(fixed)
			if got := ce.SumFixed(fixed); got != want {
				t.Fatalf("cards %v fixed %v: SumFixed = %x, evaluator %x", cards, fixed, got, want)
			}
			if got := ce.SumPinned(vars, values); got != want {
				t.Fatalf("cards %v pins %v=%v: SumPinned = %x, evaluator %x", cards, vars, values, got, want)
			}
		}
	}
}

// TestCompiledMarginalBitIdentical: every cell of a batch marginal must be
// bit-identical to the SumFixed call that pins the family to that cell —
// the equivalence that keeps discovery results unchanged.
func TestCompiledMarginalBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][]int{{3, 2}, {2, 3, 2}, {3, 2, 4, 2}, {2, 2, 3, 2, 2}}
	for _, cards := range shapes {
		ev, ce := randomEngine(t, rng, cards)
		// Every non-empty subset of attributes as the kept family.
		for mask := 1; mask < 1<<len(cards); mask++ {
			var vars []int
			for v := range cards {
				if mask&(1<<v) != 0 {
					vars = append(vars, v)
				}
			}
			marg, err := ce.MarginalFixed(vars, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Walk the family's cells in row-major order, first var slowest.
			values := make([]int, len(vars))
			fixed := make([]int, len(cards))
			for idx := 0; ; idx++ {
				for i := range fixed {
					fixed[i] = -1
				}
				for i, v := range vars {
					fixed[v] = values[i]
				}
				want := ev.SumFixed(fixed)
				if marg[idx] != want {
					t.Fatalf("cards %v family %v cell %v: batch %x, per-cell %x",
						cards, vars, values, marg[idx], want)
				}
				i := len(vars) - 1
				for i >= 0 {
					values[i]++
					if values[i] < cards[vars[i]] {
						break
					}
					values[i] = 0
					i--
				}
				if i < 0 {
					break
				}
			}
		}
	}
}

// TestCompiledMarginalFixedBitIdentical checks the conditional-slice form:
// keep one variable, clamp another, sum the rest.
func TestCompiledMarginalFixedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cards := []int{3, 2, 4, 2}
	ev, ce := randomEngine(t, rng, cards)
	for target := 0; target < len(cards); target++ {
		for pin := 0; pin < len(cards); pin++ {
			if pin == target {
				continue
			}
			for pv := 0; pv < cards[pin]; pv++ {
				fixed := []int{-1, -1, -1, -1}
				fixed[pin] = pv
				marg, err := ce.MarginalFixed([]int{target}, fixed)
				if err != nil {
					t.Fatal(err)
				}
				for tv := 0; tv < cards[target]; tv++ {
					fixed[target] = tv
					want := ev.SumFixed(fixed)
					if marg[tv] != want {
						t.Fatalf("target %d=%d pin %d=%d: batch %x, per-cell %x",
							target, tv, pin, pv, marg[tv], want)
					}
					fixed[target] = -1
				}
			}
		}
	}
}

func TestCompiledFullJointAndCellValue(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cards := []int{3, 2, 2}
	ev, ce := randomEngine(t, rng, cards)
	want := ev.FullJoint()
	cell := make([]int, len(cards))
	for off := range want {
		rem := off
		for v := len(cards) - 1; v >= 0; v-- {
			cell[v] = rem % cards[v]
			rem /= cards[v]
		}
		if cv := ce.CellValue(1, cell); cv != want[off] {
			t.Errorf("CellValue(%v) = %x, want %x", cell, cv, want[off])
		}
	}
}

func TestCompiledValidation(t *testing.T) {
	if _, err := Compile(nil, nil); err == nil {
		t.Error("empty cards accepted")
	}
	if _, err := Compile([]int{2, 0}, nil); err == nil {
		t.Error("zero cardinality accepted")
	}
	if _, err := Compile([]int{2}, []Term{{Vars: []int{3}, Coeffs: []float64{1}}}); err == nil {
		t.Error("out-of-range term accepted")
	}
	ce, err := Compile([]int{2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.MarginalFixed(nil, nil); err == nil {
		t.Error("empty marginal family accepted")
	}
	if _, err := ce.MarginalFixed([]int{1, 0}, nil); err == nil {
		t.Error("unsorted marginal family accepted")
	}
	if _, err := ce.MarginalFixed([]int{0, 0}, nil); err == nil {
		t.Error("repeated marginal variable accepted")
	}
	if _, err := ce.MarginalFixed([]int{2}, nil); err == nil {
		t.Error("out-of-range marginal variable accepted")
	}
	if _, err := ce.MarginalFixed([]int{0}, []int{1, -1}); err == nil {
		t.Error("kept+clamped variable accepted")
	}
}

// TestCompiledSnapshotIsolation: mutating the source coefficient slices
// after Compile must not change compiled results.
func TestCompiledSnapshotIsolation(t *testing.T) {
	coeffs := []float64{1, 2, 3}
	terms := []Term{{Vars: []int{0}, Coeffs: coeffs}}
	ce, err := Compile([]int{3}, terms)
	if err != nil {
		t.Fatal(err)
	}
	before := ce.Sum()
	coeffs[0] = 100
	if after := ce.Sum(); after != before {
		t.Errorf("compiled sum changed after source mutation: %g -> %g", before, after)
	}
}

// TestCompiledConcurrent hammers one engine from many goroutines; run with
// -race. Every call must return the same bits.
func TestCompiledConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cards := []int{3, 2, 4, 2}
	_, ce := randomEngine(t, rng, cards)
	wantSum := ce.Sum()
	wantMarg, err := ce.MarginalFixed([]int{0, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (g + i) % 3 {
				case 0:
					if got := ce.Sum(); got != wantSum {
						errs <- "Sum mismatch"
						return
					}
				case 1:
					if got := ce.SumPinned([]int{1}, []int{i % 2}); got <= 0 {
						errs <- "SumPinned not positive"
						return
					}
				default:
					marg, err := ce.MarginalFixed([]int{0, 2}, nil)
					if err != nil {
						errs <- err.Error()
						return
					}
					for j := range marg {
						if marg[j] != wantMarg[j] {
							errs <- "Marginal mismatch"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
