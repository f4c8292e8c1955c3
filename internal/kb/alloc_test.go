//go:build !race

// The race detector instruments allocations and makes sync.Pool drop
// pooled values at random, so exact alloc counts hold only without it.

package kb

import (
	"testing"

	"pka/internal/memo"
)

// TestSingleQueryAllocCeilings pins the steady-state allocations of one
// query of each kind through the KnowledgeBase methods, on the dense memo
// model and the wide factored model, engine cache off and on. A single
// query runs on a session without a memo: should it ever pick up the
// batch memo (maps, key scratch, evidence records), these counts jump by
// a dozen and the test fails. The ceilings are the counts measured on
// linux/amd64 with go1.24.
func TestSingleQueryAllocCeilings(t *testing.T) {
	type ceilings struct{ prob, cond, dist, mpe, lift float64 }
	cases := []struct {
		name     string
		k        func(*testing.T) *KnowledgeBase
		attr     string
		val      string
		given    Assignment
		cacheOff ceilings
		cacheOn  ceilings
	}{
		{"dense", func(t *testing.T) *KnowledgeBase { return memoKB(t) },
			"CANCER", "Yes", Assignment{Attr: "SMOKING", Value: "Smoker"},
			ceilings{3, 7, 9, 12, 10}, ceilings{2, 5, 4, 3, 7}},
		{"factored", func(t *testing.T) *KnowledgeBase { return wideKB(t, 24) },
			"CH05", "hi", Assignment{Attr: "CH02", Value: "hi"},
			ceilings{3, 7, 8, 75, 10}, ceilings{2, 5, 4, 3, 7}},
	}
	for _, tc := range cases {
		base := tc.k(t)
		for _, cached := range []bool{false, true} {
			k, want, mode := base, tc.cacheOff, "cache_off"
			if cached {
				k, want, mode = base.WithCache(memo.New(-1), 1), tc.cacheOn, "cache_on"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				target := Assignment{Attr: tc.attr, Value: tc.val}
				targets := []Assignment{target}
				given := []Assignment{tc.given}
				kinds := []struct {
					name    string
					ceiling float64
					run     func() error
				}{
					{"prob", want.prob, func() error { _, err := k.Probability(target, tc.given); return err }},
					{"cond", want.cond, func() error { _, err := k.Conditional(targets, given); return err }},
					{"dist", want.dist, func() error { _, err := k.Distribution(tc.attr, given...); return err }},
					{"mpe", want.mpe, func() error { _, err := k.MostProbableExplanation(given...); return err }},
					{"lift", want.lift, func() error { _, err := k.Lift(target, given...); return err }},
				}
				for _, kind := range kinds {
					if err := kind.run(); err != nil {
						t.Fatalf("%s: %v", kind.name, err)
					}
					got := testing.AllocsPerRun(100, func() { _ = kind.run() })
					t.Logf("%s: %.0f allocs/query", kind.name, got)
					if got > kind.ceiling {
						t.Errorf("%s allocates %.0f per query, ceiling %v", kind.name, got, kind.ceiling)
					}
				}
			})
		}
	}
}
