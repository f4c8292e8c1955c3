package kb

import (
	"fmt"

	"pka/internal/contingency"
	"pka/internal/dataset"
)

// session is the one implementation of the six query kinds. A single
// query runs on a session without a memo (the KnowledgeBase methods); a
// Batch is a session with one, so queries that share evidence share its
// resolution and pricing. Either way every engine primitive goes through
// the knowledge base's engine cache when one is attached, and every
// float64 comes from the same arithmetic, so a query answers
// bit-identically whichever surface asked it.
type session struct {
	k *KnowledgeBase
	m *batchMemo // nil: answer without intra-session reuse
}

// evidence is one resolved evidence set. In a memo it is shared by every
// query that names the set, in any assignment order.
type evidence struct {
	vs     contingency.VarSet
	values []int
	key    string // canonical key; set only for memoized evidence
	fixed  []int  // full-width clamp vector, built on first use
}

// resolveEvidence resolves given through the memo when there is one.
// Without a memo it fills scratch, which the caller keeps on its stack.
func (s session) resolveEvidence(given []Assignment, scratch *evidence) (*evidence, error) {
	if s.m == nil {
		vs, values, err := s.k.resolve(given)
		if err != nil {
			return nil, err
		}
		*scratch = evidence{vs: vs, values: values}
		return scratch, nil
	}
	return s.m.evidenceFor(s.k, given)
}

// prob prices one resolved assignment: the memo first, then the engine
// cache, then the engine.
func (s session) prob(vs contingency.VarSet, values []int) (float64, error) {
	if s.m == nil {
		p, _, err := s.k.cachedProb(vs, values)
		return p, err
	}
	key := s.m.canonKey(vs, values)
	if p, ok := s.m.probs[string(key)]; ok { // no-copy lookup
		return p, nil
	}
	p, hit, err := s.k.cachedProb(vs, values)
	if err != nil {
		return 0, err
	}
	s.m.counted(hit)
	s.m.probs[string(key)] = p
	return p, nil
}

// denominator prices non-empty evidence as a conditional's denominator
// (empty evidence is certain) and rejects evidence of probability zero.
func (s session) denominator(ev *evidence, given []Assignment) (float64, error) {
	if len(given) == 0 {
		return 1, nil
	}
	p, err := s.prob(ev.vs, ev.values)
	if err == nil && p == 0 {
		err = fmt.Errorf("kb: conditioning on zero-probability evidence %v", given)
	}
	return p, err
}

// clampVector returns the evidence's full-width fixed slice (-1 marks a
// free attribute), built once per evidence set.
func (s session) clampVector(ev *evidence) []int {
	if ev.fixed == nil {
		ev.fixed = make([]int, s.k.schema.R())
		next := 0
		for p := range ev.fixed {
			ev.fixed[p] = -1
			if ev.vs.Has(p) {
				ev.fixed[p] = ev.values[next]
				next++
			}
		}
	}
	return ev.fixed
}

// sliceNums returns the conditional-slice numerators of attribute pos
// under the evidence, from one engine sweep per (evidence, attribute)
// pair. The slice may be a published cache value: callers only read it.
func (s session) sliceNums(ev *evidence, pos int) ([]float64, error) {
	fixed := func() []int { return s.clampVector(ev) }
	if s.m == nil {
		nums, _, err := s.k.cachedMarginal(ev.vs, ev.values, pos, fixed)
		return nums, err
	}
	key := s.m.sliceKey(ev, pos)
	if nums, ok := s.m.dists[string(key)]; ok { // no-copy lookup
		return nums, nil
	}
	nums, hit, err := s.k.cachedMarginal(ev.vs, ev.values, pos, fixed)
	if err != nil {
		return nil, err
	}
	s.m.counted(hit)
	s.m.dists[string(key)] = nums
	return nums, nil
}

// Probability prices the canonical joint of the assignments; the empty
// event is certain.
func (s session) Probability(assigns ...Assignment) (float64, error) {
	if len(assigns) == 0 {
		return 1, nil
	}
	vs, values, err := s.k.resolve(assigns)
	if err != nil {
		return 0, err
	}
	return s.prob(vs, values)
}

// Conditional is the ratio of joints P(target, given) / P(given). On a
// single-block engine a single-target numerator is read off the
// conditional-slice sweep, which is bit-identical to the pinned sum per
// cell (see sumprod.Compiled) and shared by every value of the attribute.
// Factored (multi-block) engines combine their blocks in a different order
// in the sweep, so they always pin the joint.
func (s session) Conditional(target, given []Assignment) (float64, error) {
	if len(target) == 0 {
		return 1, nil
	}
	var scratch evidence
	ev, err := s.resolveEvidence(given, &scratch)
	if err != nil {
		return 0, err
	}
	denom, err := s.denominator(ev, given)
	if err != nil {
		return 0, err
	}
	if len(target) == 1 && !s.k.eng.Factored() {
		if a, pos, aerr := s.k.schema.AttrByName(target[0].Attr); aerr == nil && !ev.vs.Has(pos) {
			vi := a.ValueIndex(target[0].Value)
			if vi < 0 {
				return 0, fmt.Errorf("kb: attribute %q has no value %q", target[0].Attr, target[0].Value)
			}
			nums, err := s.sliceNums(ev, pos)
			if err != nil {
				return 0, err
			}
			return nums[vi] / denom, nil
		}
		// Unknown attributes fall through so resolving the joint reports
		// the error; targets overlapping the evidence fall through to its
		// duplicate/contradiction handling.
	}
	both := make([]Assignment, 0, len(target)+len(given))
	both = append(both, target...)
	both = append(both, given...)
	num, err := s.Probability(both...)
	if err != nil {
		return 0, err
	}
	return num / denom, nil
}

// conditionalSlice returns attr's slice numerators under the evidence and
// the evidence denominator, guarding that the conditional distribution
// they form sums to 1 — the body of Distribution and MostLikely.
func (s session) conditionalSlice(attr string, given []Assignment) (dataset.Attribute, []float64, float64, error) {
	a, pos, err := s.k.schema.AttrByName(attr)
	if err != nil {
		return a, nil, 0, fmt.Errorf("kb: %w", err)
	}
	for _, g := range given {
		if g.Attr == attr {
			return a, nil, 0, fmt.Errorf("kb: cannot condition %q on itself", attr)
		}
	}
	var scratch evidence
	ev, err := s.resolveEvidence(given, &scratch)
	if err != nil {
		return a, nil, 0, err
	}
	denom, err := s.denominator(ev, given)
	if err != nil {
		return a, nil, 0, err
	}
	nums, err := s.sliceNums(ev, pos)
	if err != nil {
		return a, nil, 0, err
	}
	total := 0.0
	for i := range a.Values {
		total += nums[i] / denom
	}
	if total < 0.999999 || total > 1.000001 {
		return a, nil, 0, fmt.Errorf("kb: conditional distribution of %q sums to %g", a.Name, total)
	}
	return a, nums, denom, nil
}

// Distribution divides one slice sweep's numerators by the evidence
// denominator, one entry per value label.
func (s session) Distribution(attr string, given ...Assignment) (map[string]float64, error) {
	a, nums, denom, err := s.conditionalSlice(attr, given)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, a.Card())
	for i, v := range a.Values {
		out[v] = nums[i] / denom
	}
	return out, nil
}

// MostLikely takes the argmax of the same conditional slice Distribution
// reads, in value-label order (ties break toward the earlier label).
func (s session) MostLikely(attr string, given ...Assignment) (string, float64, error) {
	a, nums, denom, err := s.conditionalSlice(attr, given)
	if err != nil {
		return "", 0, err
	}
	best, bestP := "", -1.0
	for i, v := range a.Values {
		if p := nums[i] / denom; p > bestP {
			best, bestP = v, p
		}
	}
	return best, bestP, nil
}

// Lift is P(target | given) / P(target), its base rate and denominator
// priced like any other joint of the session.
func (s session) Lift(target Assignment, given ...Assignment) (float64, error) {
	base, err := s.Probability(target)
	if err != nil {
		return 0, err
	}
	if base == 0 {
		return 0, fmt.Errorf("kb: target %v has zero base probability", target)
	}
	cond, err := s.Conditional([]Assignment{target}, given)
	if err != nil {
		return 0, err
	}
	return cond / base, nil
}

// MostProbableExplanation labels the engine's argmax cell under the
// evidence; a memo keeps the labeled completion per evidence set.
func (s session) MostProbableExplanation(given ...Assignment) (Explanation, error) {
	var scratch evidence
	ev, err := s.resolveEvidence(given, &scratch)
	if err != nil {
		return Explanation{}, err
	}
	if s.m != nil {
		if exp, ok := s.m.mpes[ev.key]; ok {
			return copyExplanation(exp), nil
		}
	}
	// The evidence probability comes from the engine even when the
	// evidence is empty (where it is the model total).
	pEvidence, err := s.prob(ev.vs, ev.values)
	if err != nil {
		return Explanation{}, err
	}
	if pEvidence == 0 {
		return Explanation{}, fmt.Errorf("kb: evidence %v has zero probability", given)
	}
	exp, hit, err := s.k.cachedMPE(ev.vs, ev.values, func() []int { return s.clampVector(ev) })
	if err != nil || s.m == nil {
		return exp, err
	}
	s.m.counted(hit)
	s.m.mpes[ev.key] = exp
	return copyExplanation(exp), nil
}

// copyExplanation guards a memoized completion from caller mutation.
func copyExplanation(e Explanation) Explanation {
	return Explanation{
		Assignments: append([]Assignment(nil), e.Assignments...),
		Probability: e.Probability,
	}
}
