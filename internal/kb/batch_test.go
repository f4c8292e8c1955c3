package kb

import (
	"testing"
)

// batchCases enumerates a mixed workload over the memo's schema: joint
// probabilities, conditionals (single- and multi-target, overlapping
// evidence), distributions, and lifts, several sharing one evidence set.
func batchEvidenceSets() [][]Assignment {
	return [][]Assignment{
		nil,
		{{Attr: "SMOKING", Value: "Smoker"}},
		{{Attr: "SMOKING", Value: "Smoker"}, {Attr: "FAMILY HISTORY", Value: "Yes"}},
		// Same set, opposite order: must resolve to the same group.
		{{Attr: "FAMILY HISTORY", Value: "Yes"}, {Attr: "SMOKING", Value: "Smoker"}},
	}
}

// TestBatchBitIdenticalToPerQuery drives every Batch method next to its
// KnowledgeBase counterpart and requires exact (==) agreement, on both the
// dense memo model and a wide factored model. On the dense model each
// conditional must also equal the engine's pinned-sum ratio.
func TestBatchBitIdenticalToPerQuery(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		k := memoKB(t)
		assertBatchMatches(t, k, "CANCER", "Yes", batchEvidenceSets())
	})
	t.Run("factored", func(t *testing.T) {
		k := wideKB(t, 24)
		evidence := [][]Assignment{
			nil,
			{{Attr: "CH02", Value: "hi"}},
			{{Attr: "CH02", Value: "hi"}, {Attr: "CH01", Value: "lo"}},
		}
		assertBatchMatches(t, k, "CH05", "hi", evidence)
	})
}

func assertBatchMatches(t *testing.T, k *KnowledgeBase, targetAttr, targetVal string, evidence [][]Assignment) {
	t.Helper()
	b := NewBatch(k)
	target := Assignment{Attr: targetAttr, Value: targetVal}
	for _, ev := range evidence {
		wantP, errP := k.Probability(ev...)
		gotP, gerrP := b.Probability(ev...)
		if (errP == nil) != (gerrP == nil) || gotP != wantP {
			t.Errorf("Probability(%v): batch %x (%v), per-query %x (%v)", ev, gotP, gerrP, wantP, errP)
		}
		wantC, errC := k.Conditional([]Assignment{target}, ev)
		gotC, gerrC := b.Conditional([]Assignment{target}, ev)
		if (errC == nil) != (gerrC == nil) || gotC != wantC {
			t.Errorf("Conditional(%v|%v): batch %x (%v), per-query %x (%v)", target, ev, gotC, gerrC, wantC, errC)
		}
		if !k.eng.Factored() {
			if pinned := pinnedConditional(t, k, target, ev); gotC != pinned || wantC != pinned {
				t.Errorf("Conditional(%v|%v): batch %x, per-query %x, pinned-sum ratio %x", target, ev, gotC, wantC, pinned)
			}
		}
		wantD, errD := k.Distribution(targetAttr, ev...)
		gotD, gerrD := b.Distribution(targetAttr, ev...)
		if (errD == nil) != (gerrD == nil) || len(gotD) != len(wantD) {
			t.Fatalf("Distribution(%s|%v): batch %v (%v), per-query %v (%v)", targetAttr, ev, gotD, gerrD, wantD, errD)
		}
		for v, want := range wantD {
			if gotD[v] != want {
				t.Errorf("Distribution(%s|%v)[%s]: batch %x, per-query %x", targetAttr, ev, v, gotD[v], want)
			}
		}
		wantV, wantMP, errM := k.MostLikely(targetAttr, ev...)
		gotV, gotMP, gerrM := b.MostLikely(targetAttr, ev...)
		if (errM == nil) != (gerrM == nil) || gotV != wantV || gotMP != wantMP {
			t.Errorf("MostLikely(%s|%v): batch %s/%x, per-query %s/%x", targetAttr, ev, gotV, gotMP, wantV, wantMP)
		}
		wantL, errL := k.Lift(target, ev...)
		gotL, gerrL := b.Lift(target, ev...)
		if (errL == nil) != (gerrL == nil) || gotL != wantL {
			t.Errorf("Lift(%v|%v): batch %x (%v), per-query %x (%v)", target, ev, gotL, gerrL, wantL, errL)
		}
		wantE, errE := k.MostProbableExplanation(ev...)
		gotE, gerrE := b.MostProbableExplanation(ev...)
		if (errE == nil) != (gerrE == nil) || gotE.Probability != wantE.Probability {
			t.Fatalf("MPE(%v): batch %x (%v), per-query %x (%v)", ev, gotE.Probability, gerrE, wantE.Probability, errE)
		}
		for i := range wantE.Assignments {
			if gotE.Assignments[i] != wantE.Assignments[i] {
				t.Errorf("MPE(%v)[%d]: batch %v, per-query %v", ev, i, gotE.Assignments[i], wantE.Assignments[i])
			}
		}
	}
	// Multi-target conditionals and targets overlapping the evidence take
	// the joint fallback path.
	multi := []Assignment{target, {Attr: evidence[1][0].Attr, Value: evidence[1][0].Value}}
	wantC, errC := k.Conditional(multi, evidence[1])
	gotC, gerrC := b.Conditional(multi, evidence[1])
	if (errC == nil) != (gerrC == nil) || gotC != wantC {
		t.Errorf("Conditional(multi): batch %x (%v), per-query %x (%v)", gotC, gerrC, wantC, errC)
	}
}

// pinnedConditional prices P(target | given) straight from the engine as
// eng.Prob(target ∪ given) / eng.Prob(given) — two pinned sums, the
// reference the dense conditional-slice sweep must reproduce bit for bit.
// Empty evidence is certain, as in Probability.
func pinnedConditional(t *testing.T, k *KnowledgeBase, target Assignment, given []Assignment) float64 {
	t.Helper()
	pinned := func(assigns []Assignment) float64 {
		if len(assigns) == 0 {
			return 1
		}
		vs, values, err := k.resolve(assigns)
		if err != nil {
			t.Fatal(err)
		}
		p, err := k.eng.Prob(vs, values)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return pinned(append([]Assignment{target}, given...)) / pinned(given)
}

// TestBatchGroupsEvidence: a same-evidence group of single-target
// conditionals must cost one denominator and one conditional-slice sweep
// per attribute — not two engine evaluations per query like the memo-less
// per-query path.
func TestBatchGroupsEvidence(t *testing.T) {
	k := memoKB(t)
	b := NewBatch(k)
	evidence := []Assignment{{Attr: "SMOKING", Value: "Smoker"}, {Attr: "FAMILY HISTORY", Value: "Yes"}}
	reordered := []Assignment{{Attr: "FAMILY HISTORY", Value: "Yes"}, {Attr: "SMOKING", Value: "Smoker"}}
	queries := 0
	for _, ev := range [][]Assignment{evidence, reordered} {
		for _, v := range []string{"Yes", "No"} {
			if _, err := b.Conditional([]Assignment{{Attr: "CANCER", Value: v}}, ev); err != nil {
				t.Fatal(err)
			}
			queries++
		}
	}
	// Per-query serving costs 2 engine evaluations per conditional (the
	// denominator pin and the numerator sweep); the batch pays 1 denominator
	// + 1 sweep for the whole group, across both evidence orderings.
	sequential := 2 * queries
	if got, want := b.Evals(), 2; got != want {
		t.Errorf("batch evals = %d, want %d (sequential path would use %d)", got, want, sequential)
	}
	// A distribution over the same (evidence, attribute) pair rides the
	// same cached sweep; MPE adds exactly one argmax pass.
	if _, err := b.Distribution("CANCER", evidence...); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Evals(), 2; got != want {
		t.Errorf("evals after cached distribution = %d, want %d", got, want)
	}
	if _, err := b.MostProbableExplanation(evidence...); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Evals(), 3; got != want {
		t.Errorf("evals after MPE = %d, want %d", got, want)
	}
}

// TestBatchErrorParity: validation failures must match the per-query
// messages exactly, so batch serving is indistinguishable to clients.
func TestBatchErrorParity(t *testing.T) {
	k := memoKB(t)
	b := NewBatch(k)
	cases := []struct {
		name string
		per  func() error
		bat  func() error
	}{
		{"unknown evidence attr",
			func() error {
				_, err := k.Conditional([]Assignment{{Attr: "CANCER", Value: "Yes"}}, []Assignment{{Attr: "NOPE", Value: "x"}})
				return err
			},
			func() error {
				_, err := b.Conditional([]Assignment{{Attr: "CANCER", Value: "Yes"}}, []Assignment{{Attr: "NOPE", Value: "x"}})
				return err
			}},
		{"unknown target value",
			func() error { _, err := k.Conditional([]Assignment{{Attr: "CANCER", Value: "Maybe"}}, nil); return err },
			func() error { _, err := b.Conditional([]Assignment{{Attr: "CANCER", Value: "Maybe"}}, nil); return err }},
		{"contradictory evidence",
			func() error {
				_, err := k.Probability(Assignment{Attr: "CANCER", Value: "Yes"}, Assignment{Attr: "CANCER", Value: "No"})
				return err
			},
			func() error {
				_, err := b.Probability(Assignment{Attr: "CANCER", Value: "Yes"}, Assignment{Attr: "CANCER", Value: "No"})
				return err
			}},
		{"self-conditioning",
			func() error { _, err := k.Distribution("CANCER", Assignment{Attr: "CANCER", Value: "Yes"}); return err },
			func() error { _, err := b.Distribution("CANCER", Assignment{Attr: "CANCER", Value: "Yes"}); return err }},
		{"unknown distribution attr",
			func() error { _, err := k.Distribution("NOPE"); return err },
			func() error { _, err := b.Distribution("NOPE"); return err }},
	}
	for _, tc := range cases {
		perErr, batErr := tc.per(), tc.bat()
		if perErr == nil || batErr == nil {
			t.Fatalf("%s: expected errors, got per-query %v, batch %v", tc.name, perErr, batErr)
		}
		if perErr.Error() != batErr.Error() {
			t.Errorf("%s: per-query %q, batch %q", tc.name, perErr, batErr)
		}
	}
}

// TestBatchCacheHitAllocs pins the alloc ceiling of the serving hot path:
// once a batch session is warm, repeated conditionals over a cached
// evidence set must not allocate key strings — the reusable key scratch
// plus the compiler's no-copy map lookups keep steady-state allocations to
// the per-call resolution scratch only.
func TestBatchCacheHitAllocs(t *testing.T) {
	k := memoKB(t)
	b := NewBatch(k)
	target := []Assignment{{Attr: "CANCER", Value: "Yes"}}
	given := []Assignment{{Attr: "SMOKING", Value: "Smoker"}}
	warm := func() {
		if _, err := b.Conditional(target, given); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Probability(given...); err != nil {
			t.Fatal(err)
		}
	}
	warm() // populate every cache the steady state reads
	avg := testing.AllocsPerRun(200, warm)
	// The warm path still resolves names (one VarSet/values pair per call);
	// what it must NOT do is rebuild key strings per lookup. The pre-change
	// string-concat keys cost 6+ allocations per warm pair of calls; the
	// scratch-buffer keys cost at most the resolution's own 2.
	if avg > 2 {
		t.Errorf("warm batch pair of calls allocates %.1f times, want <= 2", avg)
	}
}
