package rules

import (
	"math"
	"strings"
	"testing"

	"pka/internal/contingency"
	"pka/internal/core"
	"pka/internal/dataset"
	"pka/internal/kb"
)

// memoKB builds the discovered memo knowledge base.
func memoKB(t testing.TB) *kb.KnowledgeBase {
	t.Helper()
	tab := contingency.MustNew(
		[]string{"SMOKING", "CANCER", "FAMILY HISTORY"}, []int{3, 2, 2})
	data := [3][2][2]int64{
		{{130, 110}, {410, 640}},
		{{62, 31}, {580, 460}},
		{{78, 22}, {520, 385}},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				if err := tab.Set(data[i][j][k], i, j, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	res, err := core.Discover(tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "SMOKING", Values: []string{"Smoker", "Non smoker", "Non smoker married to a smoker"}},
		{Name: "CANCER", Values: []string{"Yes", "No"}},
		{Name: "FAMILY HISTORY", Values: []string{"Yes", "No"}},
	})
	k, err := kb.New(schema, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestOptionsValidation(t *testing.T) {
	k := memoKB(t)
	bad := []Options{
		{MinProbability: -0.1},
		{MinProbability: 1.1},
		{MinSupport: -0.1},
		{MinSupport: 2},
		{MinLiftDistance: -1},
		{MaxRules: -1},
	}
	for i, o := range bad {
		if _, err := FromKnowledgeBase(k, o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestMemoRulesContainSmokingCancer(t *testing.T) {
	// The memo's worked example: IF SMOKING=Smoker THEN CANCER=Yes with
	// probability P(cancer|smoker) ≈ 240/1290 = .186.
	k := memoKB(t)
	rs, err := FromKnowledgeBase(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no rules generated")
	}
	found := false
	for _, r := range rs {
		if len(r.If) == 1 && r.If[0].Attr == "SMOKING" && r.If[0].Value == "Smoker" &&
			r.Then.Attr == "CANCER" && r.Then.Value == "Yes" {
			found = true
			if math.Abs(r.Probability-240.0/1290) > 5e-3 {
				t.Errorf("rule probability %.4f, empirical %.4f", r.Probability, 240.0/1290)
			}
			if r.Lift < 1.3 || r.Lift > 1.6 {
				t.Errorf("rule lift %.3f, want ≈1.47", r.Lift)
			}
			if math.Abs(r.Support-240.0/3428) > 5e-3 {
				t.Errorf("rule support %.4f, empirical %.4f", r.Support, 240.0/3428)
			}
		}
	}
	if !found {
		t.Errorf("IF SMOKING=Smoker THEN CANCER=Yes not generated:\n%s", Render(rs))
	}
}

func TestRulesProbabilitiesValid(t *testing.T) {
	k := memoKB(t)
	rs, err := FromKnowledgeBase(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Probability < 0 || r.Probability > 1+1e-9 {
			t.Errorf("rule %s: probability out of range", r)
		}
		if r.Support < 0 || r.Support > r.Probability+1e-9 {
			t.Errorf("rule %s: support %g exceeds probability %g", r, r.Support, r.Probability)
		}
		if r.Lift < 0 {
			t.Errorf("rule %s: negative lift", r)
		}
		// Consequent must not appear among antecedents.
		for _, a := range r.If {
			if a.Attr == r.Then.Attr {
				t.Errorf("rule %s: consequent attribute in antecedent", r)
			}
		}
		// The shared session must price every statistic exactly as the
		// ratio of per-query joints would.
		pIf, err := k.Probability(r.If...)
		if err != nil {
			t.Fatal(err)
		}
		support, err := k.Probability(append(append([]kb.Assignment{}, r.If...), r.Then)...)
		if err != nil {
			t.Fatal(err)
		}
		base, err := k.Probability(r.Then)
		if err != nil {
			t.Fatal(err)
		}
		if want := support / pIf; r.Probability != want {
			t.Errorf("rule %s: probability %x, want P(then, if)/P(if) = %x", r, r.Probability, want)
		}
		if r.Support != support {
			t.Errorf("rule %s: support %x, want P(then, if) = %x", r, r.Support, support)
		}
		if want := support / pIf / base; r.Lift != want {
			t.Errorf("rule %s: lift %x, want P(then | if)/P(then) = %x", r, r.Lift, want)
		}
	}
}

func TestRulesRankedByLiftDistance(t *testing.T) {
	k := memoKB(t)
	rs, err := FromKnowledgeBase(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		di := math.Abs(rs[i-1].Lift - 1)
		dj := math.Abs(rs[i].Lift - 1)
		if di < dj-1e-12 {
			t.Errorf("rules %d and %d out of lift order: %.4f then %.4f", i-1, i, di, dj)
		}
	}
}

func TestRuleFilters(t *testing.T) {
	k := memoKB(t)
	all, err := FromKnowledgeBase(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := FromKnowledgeBase(k, Options{MinLiftDistance: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(strong) >= len(all) {
		t.Errorf("lift filter did not reduce rules: %d vs %d", len(strong), len(all))
	}
	for _, r := range strong {
		if math.Abs(r.Lift-1) < 0.2 {
			t.Errorf("rule %s survived lift filter", r)
		}
	}
	capped, err := FromKnowledgeBase(k, Options{MaxRules: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) > 3 {
		t.Errorf("MaxRules=3 returned %d rules", len(capped))
	}
	probFiltered, err := FromKnowledgeBase(k, Options{MinProbability: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range probFiltered {
		if r.Probability < 0.5 {
			t.Errorf("rule %s survived probability filter", r)
		}
	}
	supFiltered, err := FromKnowledgeBase(k, Options{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range supFiltered {
		if r.Support < 0.1 {
			t.Errorf("rule %s survived support filter", r)
		}
	}
}

func TestRulesDeduplicated(t *testing.T) {
	k := memoKB(t)
	rs, err := FromKnowledgeBase(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range rs {
		if seen[r.key()] {
			t.Errorf("duplicate rule %s", r)
		}
		seen[r.key()] = true
	}
}

func TestRuleStringAndRender(t *testing.T) {
	r := Rule{
		If:          []kb.Assignment{{Attr: "B", Value: "1"}, {Attr: "C", Value: "2"}},
		Then:        kb.Assignment{Attr: "A", Value: "x"},
		Probability: 0.75,
		Support:     0.2,
		Lift:        1.5,
	}
	s := r.String()
	for _, want := range []string{"IF B=1 AND C=2", "THEN A=x", "p=0.750", "lift=1.50"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
	out := Render([]Rule{r, r})
	if !strings.Contains(out, "  1. ") || !strings.Contains(out, "  2. ") {
		t.Errorf("Render numbering wrong:\n%s", out)
	}
}

func TestRulesFromThirdOrderConstraints(t *testing.T) {
	// Build data with a genuine 3-way interaction (XOR): Z = X xor Y plus
	// noise. The discovered third-order constraints must yield rules with
	// two antecedents.
	tab := contingency.MustNew([]string{"X", "Y", "Z"}, []int{2, 2, 2})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			xor := i ^ j
			if err := tab.Set(900, i, j, xor); err != nil {
				t.Fatal(err)
			}
			if err := tab.Set(100, i, j, 1-xor); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := core.Discover(tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.MustSchema([]dataset.Attribute{
		{Name: "X", Values: []string{"0", "1"}},
		{Name: "Y", Values: []string{"0", "1"}},
		{Name: "Z", Values: []string{"0", "1"}},
	})
	k, err := kb.New(schema, res.Model)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := FromKnowledgeBase(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	saw2 := false
	for _, r := range rs {
		if len(r.If) == 2 {
			saw2 = true
			break
		}
	}
	if !saw2 {
		t.Errorf("no two-antecedent rules from XOR data:\n%s", Render(rs))
	}
	// The XOR prediction rule must be strong: IF X=0 AND Y=1 THEN Z=1 with
	// p ≈ 0.9.
	for _, r := range rs {
		if len(r.If) == 2 &&
			r.If[0].Attr == "X" && r.If[0].Value == "0" &&
			r.If[1].Attr == "Y" && r.If[1].Value == "1" &&
			r.Then.Attr == "Z" && r.Then.Value == "1" {
			if math.Abs(r.Probability-0.9) > 0.03 {
				t.Errorf("XOR rule probability %.3f, want ≈0.9", r.Probability)
			}
		}
	}
}

// TestOptionsRejectNonFinite is the NaN/Inf regression: NaN compares false
// with every bound, so the pre-fix range checks (v < 0 || v > 1) let it
// through and the thresholds then filtered with always-false comparisons.
func TestOptionsRejectNonFinite(t *testing.T) {
	k := memoKB(t)
	bad := []Options{
		{MinProbability: math.NaN()},
		{MinProbability: math.Inf(1)},
		{MinSupport: math.NaN()},
		{MinSupport: math.Inf(-1)},
		{MinLiftDistance: math.NaN()},
		{MinLiftDistance: math.Inf(1)},
	}
	for i, opts := range bad {
		if _, err := FromKnowledgeBase(k, opts); err == nil {
			t.Errorf("options %d (%+v) accepted a non-finite threshold", i, opts)
		}
	}
	// Finite thresholds still pass.
	if _, err := FromKnowledgeBase(k, Options{MinProbability: 0.1, MinLiftDistance: 0.05}); err != nil {
		t.Errorf("finite options rejected: %v", err)
	}
}
