package rules

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pka/internal/kb"
)

// Rule is one IF-THEN statement with its statistics.
type Rule struct {
	// If lists the antecedent assignments (sorted by attribute name).
	If []kb.Assignment
	// Then is the consequent assignment.
	Then kb.Assignment
	// Probability is P(Then | If) — the memo's "with probability p".
	Probability float64
	// Support is P(Then ∧ If): how much of the population the rule covers.
	Support float64
	// Lift is P(Then | If)/P(Then): association strength (1 = independent).
	Lift float64
}

// String renders the memo's IF-THEN form.
func (r Rule) String() string {
	conds := make([]string, len(r.If))
	for i, a := range r.If {
		conds[i] = a.String()
	}
	return fmt.Sprintf("IF %s THEN %s (p=%.3f, support=%.3f, lift=%.2f)",
		strings.Join(conds, " AND "), r.Then, r.Probability, r.Support, r.Lift)
}

// Options filters generated rules.
type Options struct {
	// MinProbability drops rules with conditional probability below this
	// (0 keeps all).
	MinProbability float64
	// MinSupport drops rules covering less of the population than this.
	MinSupport float64
	// MinLiftDistance keeps only rules with |lift - 1| >= this, i.e.
	// meaningfully away from independence.
	MinLiftDistance float64
	// MaxRules truncates the ranked output (0 = no cap).
	MaxRules int
}

func (o Options) validate() error {
	// The range checks are written as negations so that NaN — for which
	// both v < lo and v > hi are false — fails them too: a NaN threshold
	// would otherwise slip through and silently filter out every rule.
	if !(o.MinProbability >= 0 && o.MinProbability <= 1) {
		return fmt.Errorf("rules: MinProbability %g outside [0,1]", o.MinProbability)
	}
	if !(o.MinSupport >= 0 && o.MinSupport <= 1) {
		return fmt.Errorf("rules: MinSupport %g outside [0,1]", o.MinSupport)
	}
	if !(o.MinLiftDistance >= 0) || math.IsInf(o.MinLiftDistance, 0) {
		return fmt.Errorf("rules: MinLiftDistance %g must be finite and non-negative", o.MinLiftDistance)
	}
	if o.MaxRules < 0 {
		return fmt.Errorf("rules: negative MaxRules %d", o.MaxRules)
	}
	return nil
}

// FromKnowledgeBase generates rules from every discovered constraint of
// order >= 2: for a constraint over attributes {X, Y, Z}, each attribute in
// turn becomes the consequent with the remaining assignments as antecedent.
// Rules are ranked by |lift - 1| descending (strongest associations first),
// then by support descending for determinism. The whole extraction runs on
// one kb.Batch session, so each antecedent, joint and base rate is priced
// once however many rules name it.
func FromKnowledgeBase(k *kb.KnowledgeBase, opts Options) ([]Rule, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	b := kb.NewBatch(k)
	schema := k.Schema()
	seen := make(map[string]bool)
	var out []Rule
	for _, c := range k.Model().Constraints() {
		if c.Order() < 2 {
			continue
		}
		members := c.Family.Members()
		assigns := make([]kb.Assignment, len(members))
		for i, p := range members {
			attr := schema.Attr(p)
			assigns[i] = kb.Assignment{Attr: attr.Name, Value: attr.Values[c.Values[i]]}
		}
		for ti := range assigns {
			rule, ok, err := buildRule(b, assigns, ti)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			key := rule.key()
			if seen[key] {
				continue
			}
			seen[key] = true
			if rule.Probability < opts.MinProbability ||
				rule.Support < opts.MinSupport {
				continue
			}
			if d := rule.Lift - 1; d < opts.MinLiftDistance && d > -opts.MinLiftDistance {
				continue
			}
			out = append(out, rule)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		di := absF(out[i].Lift - 1)
		dj := absF(out[j].Lift - 1)
		if di != dj {
			return di > dj
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].key() < out[j].key()
	})
	if opts.MaxRules > 0 && len(out) > opts.MaxRules {
		out = out[:opts.MaxRules]
	}
	return out, nil
}

// buildRule makes the rule with assigns[ti] as consequent. ok is false when
// the antecedent has zero probability (no rule can condition on it). The
// session's memo serves the antecedent again as Conditional's denominator
// and, on factored engines, the support as its numerator.
func buildRule(b *kb.Batch, assigns []kb.Assignment, ti int) (Rule, bool, error) {
	then := assigns[ti]
	ifs := make([]kb.Assignment, 0, len(assigns)-1)
	for i, a := range assigns {
		if i != ti {
			ifs = append(ifs, a)
		}
	}
	sort.Slice(ifs, func(i, j int) bool { return ifs[i].Attr < ifs[j].Attr })
	pIf, err := b.Probability(ifs...)
	if err != nil {
		return Rule{}, false, err
	}
	if pIf == 0 {
		return Rule{}, false, nil
	}
	cond, err := b.Conditional([]kb.Assignment{then}, ifs)
	if err != nil {
		return Rule{}, false, err
	}
	all := append(append([]kb.Assignment{}, ifs...), then)
	support, err := b.Probability(all...)
	if err != nil {
		return Rule{}, false, err
	}
	base, err := b.Probability(then)
	if err != nil {
		return Rule{}, false, err
	}
	lift := 0.0
	if base > 0 {
		lift = cond / base
	}
	return Rule{If: ifs, Then: then, Probability: cond, Support: support, Lift: lift}, true, nil
}

func (r Rule) key() string {
	parts := make([]string, 0, len(r.If)+1)
	for _, a := range r.If {
		parts = append(parts, a.String())
	}
	parts = append(parts, "=>", r.Then.String())
	return strings.Join(parts, "|")
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render writes the rules one per line.
func Render(rs []Rule) string {
	var b strings.Builder
	for i, r := range rs {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, r.String())
	}
	return b.String()
}
