// Package query defines the unified query surface of the knowledge-base
// serving layer: the canonical Querier interface every queryable model
// implements, the first-class Query value (typed kind plus target and
// evidence assignments, JSON-serializable), and the Answer/AnswerBatch
// executors that route a Query to the right Querier method. The CLI's
// machine-readable output and the HTTP server share this package's types
// and encoder, so there is exactly one wire format.
package query

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"pka/internal/contingency"
	"pka/internal/dataset"
	"pka/internal/kb"
	"pka/internal/par"
	"pka/internal/rules"
)

// Querier is the canonical query method set of a probabilistic knowledge
// base. Both the freshly-discovered model and a loaded query-only model
// implement it through one shared core, so anything built against Querier —
// the batch executor, the HTTP server, downstream expert systems — serves
// either interchangeably.
type Querier interface {
	// Schema returns the attribute layout queries are expressed against.
	Schema() *dataset.Schema
	// Probability returns the joint probability of the assignments.
	Probability(assigns ...kb.Assignment) (float64, error)
	// Conditional returns P(target | given), the memo's ratio of joints.
	Conditional(target, given []kb.Assignment) (float64, error)
	// Distribution returns the conditional distribution of attr given the
	// evidence: one probability per value label, summing to 1.
	Distribution(attr string, given ...kb.Assignment) (map[string]float64, error)
	// MostLikely returns attr's most probable value given the evidence.
	MostLikely(attr string, given ...kb.Assignment) (string, float64, error)
	// Lift returns P(target|given)/P(target).
	Lift(target kb.Assignment, given ...kb.Assignment) (float64, error)
	// MostProbableExplanation returns the most likely full completion of
	// the evidence (MPE/MAP inference).
	MostProbableExplanation(given ...kb.Assignment) (kb.Explanation, error)
	// Rules extracts IF-THEN rules from the stored constraints.
	Rules(opts rules.Options) ([]rules.Rule, error)
	// Explain renders the stored probability formula with value labels.
	Explain() string
	// LogLoss returns the average negative log-likelihood (nats/sample)
	// on validation counts of the same shape (dense or sparse).
	LogLoss(counts contingency.Counts) (float64, error)
}

// Kind discriminates what a Query asks for.
type Kind string

// The query kinds, one per probabilistic Querier method.
const (
	KindProbability  Kind = "probability"
	KindConditional  Kind = "conditional"
	KindDistribution Kind = "distribution"
	KindMostLikely   Kind = "most_likely"
	KindLift         Kind = "lift"
	KindMPE          Kind = "mpe"
)

// Query is one probabilistic question as a value: routable, loggable,
// batchable, and JSON-serializable. Target carries the queried
// assignments (probability, conditional, lift), Attr the queried
// attribute (distribution, most_likely), and Given the evidence.
type Query struct {
	Kind   Kind            `json:"kind"`
	Target []kb.Assignment `json:"target,omitempty"`
	Attr   string          `json:"attr,omitempty"`
	Given  []kb.Assignment `json:"given,omitempty"`
}

// Validate checks the query's shape against its kind, before any model
// sees it. Attribute and value names are checked later, by the model.
func (q Query) Validate() error {
	switch q.Kind {
	case KindProbability:
		if len(q.Target) == 0 {
			return fmt.Errorf("query: %s needs at least one target assignment", q.Kind)
		}
		if len(q.Given) > 0 {
			return fmt.Errorf("query: %s takes no evidence (use %q)", q.Kind, KindConditional)
		}
	case KindConditional:
		if len(q.Target) == 0 {
			return fmt.Errorf("query: %s needs at least one target assignment", q.Kind)
		}
	case KindLift:
		if len(q.Target) != 1 {
			return fmt.Errorf("query: %s needs exactly one target assignment", q.Kind)
		}
	case KindDistribution, KindMostLikely:
		if q.Attr == "" {
			return fmt.Errorf("query: %s needs attr", q.Kind)
		}
		if len(q.Target) > 0 {
			return fmt.Errorf("query: %s queries attr, not target assignments", q.Kind)
		}
	case KindMPE:
		if len(q.Target) > 0 || q.Attr != "" {
			return fmt.Errorf("query: %s takes only evidence", q.Kind)
		}
	case "":
		return fmt.Errorf("query: missing kind")
	default:
		return fmt.Errorf("query: unknown kind %q", q.Kind)
	}
	if q.Attr != "" && (q.Kind != KindDistribution && q.Kind != KindMostLikely) {
		return fmt.Errorf("query: %s does not take attr", q.Kind)
	}
	return nil
}

// Result is the answer to one Query, in the shared wire format.
// Probability carries the numeric answer of probability, conditional,
// most_likely (the winning value's probability), and mpe (the completion's
// joint probability) queries; Lift the ratio of lift queries; Value the
// winning label of most_likely; Distribution the per-value map of
// distribution queries; Assignments the completion of mpe queries. In a
// batch, Error marks a query that failed while the rest were answered.
type Result struct {
	Kind         Kind               `json:"kind"`
	Probability  float64            `json:"probability"`
	Lift         float64            `json:"lift"`
	Value        string             `json:"value,omitempty"`
	Distribution map[string]float64 `json:"distribution,omitempty"`
	Assignments  []kb.Assignment    `json:"assignments,omitempty"`
	Error        string             `json:"error,omitempty"`
}

// MarshalJSON emits exactly the fields meaningful for the result's kind:
// probability for probability/conditional/most_likely/mpe answers, lift
// for lift answers, neither on a failed query. A zero on the wire
// therefore always means a computed zero, never an absent answer, and a
// kindless error body (a request rejected before its kind was known)
// carries only the error.
func (r Result) MarshalJSON() ([]byte, error) {
	type wire struct {
		Kind         Kind               `json:"kind,omitempty"`
		Probability  *float64           `json:"probability,omitempty"`
		Lift         *float64           `json:"lift,omitempty"`
		Value        string             `json:"value,omitempty"`
		Distribution map[string]float64 `json:"distribution,omitempty"`
		Assignments  []kb.Assignment    `json:"assignments,omitempty"`
		Error        string             `json:"error,omitempty"`
	}
	w := wire{
		Kind:         r.Kind,
		Value:        r.Value,
		Distribution: r.Distribution,
		Assignments:  r.Assignments,
		Error:        r.Error,
	}
	if r.Error == "" {
		switch r.Kind {
		case KindProbability, KindConditional, KindMostLikely, KindMPE:
			w.Probability = &r.Probability
		case KindLift:
			w.Lift = &r.Lift
		}
	}
	return json.Marshal(w)
}

// EncodeResult writes the result in the wire format shared by the HTTP
// server and the CLI's -json output: one JSON object, trailing newline.
func EncodeResult(w io.Writer, res Result) error {
	return json.NewEncoder(w).Encode(res)
}

// answerer is the method set Answer dispatches over: the six
// probabilistic query kinds. Every Querier satisfies it, and so does a
// *kb.Batch session, which is how AnswerBatch shares engine work.
type answerer interface {
	Probability(assigns ...kb.Assignment) (float64, error)
	Conditional(target, given []kb.Assignment) (float64, error)
	Distribution(attr string, given ...kb.Assignment) (map[string]float64, error)
	MostLikely(attr string, given ...kb.Assignment) (string, float64, error)
	Lift(target kb.Assignment, given ...kb.Assignment) (float64, error)
	MostProbableExplanation(given ...kb.Assignment) (kb.Explanation, error)
}

// Answer executes one query against the model. The error return carries
// validation and model failures; Result.Error stays empty on this path
// (it is filled by AnswerBatch, which must report per-query failures).
func Answer(q Querier, qu Query) (Result, error) {
	if q == nil {
		return Result{}, fmt.Errorf("query: nil querier")
	}
	return answer(q, qu)
}

// answer validates one query and routes it to the matching method of q.
func answer(q answerer, qu Query) (Result, error) {
	if err := qu.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Kind: qu.Kind}
	switch qu.Kind {
	case KindProbability:
		p, err := q.Probability(qu.Target...)
		if err != nil {
			return Result{}, err
		}
		res.Probability = p
	case KindConditional:
		p, err := q.Conditional(qu.Target, qu.Given)
		if err != nil {
			return Result{}, err
		}
		res.Probability = p
	case KindDistribution:
		d, err := q.Distribution(qu.Attr, qu.Given...)
		if err != nil {
			return Result{}, err
		}
		res.Distribution = d
	case KindMostLikely:
		v, p, err := q.MostLikely(qu.Attr, qu.Given...)
		if err != nil {
			return Result{}, err
		}
		res.Value, res.Probability = v, p
	case KindLift:
		l, err := q.Lift(qu.Target[0], qu.Given...)
		if err != nil {
			return Result{}, err
		}
		res.Lift = l
	case KindMPE:
		exp, err := q.MostProbableExplanation(qu.Given...)
		if err != nil {
			return Result{}, err
		}
		res.Assignments, res.Probability = exp.Assignments, exp.Probability
	}
	return res, nil
}

// kbProvider is the seam the batch fast path keys on: queriers backed by a
// compiled knowledge base expose it, and their queries are served through
// a kb.Batch session — evidence validated and priced once per distinct
// set, same-evidence conditionals answered from one batch sweep.
type kbProvider interface {
	KnowledgeBase() *kb.KnowledgeBase
}

// AnswerBatch executes a group of queries against the model, sharing the
// engine work queries have in common instead of issuing len(queries)
// independent calls. Every probability returned is bit-identical to the
// per-query Answer result. One failed query does not sink the batch: its
// slot carries Result.Error and the rest are answered; the error return is
// reserved for a nil querier.
//
// Queriers backed by a compiled knowledge base get the full batch path
// (per-evidence-set validation and denominators, grouped conditional-slice
// sweeps), with the per-evidence-set groups executed concurrently over
// GOMAXPROCS workers — use AnswerBatchWorkers to pin the count; other
// Querier implementations are served per query on the calling goroutine.
func AnswerBatch(q Querier, queries []Query) ([]Result, error) {
	return AnswerBatchWorkers(q, queries, 0)
}

// AnswerBatchWorkers is AnswerBatch with an explicit worker count.
// workers <= 0 uses GOMAXPROCS; 1 forces the sequential single-session
// path (exactly the historical execution). With more workers, queries are
// grouped by their evidence set and each group runs on its own batch
// session over the shared immutable engine: within a group the evidence
// is validated once, its denominator priced once, and same-evidence
// conditionals served from one conditional-slice sweep — the full batch
// fast path — while distinct evidence sets proceed concurrently. Each
// query's Result (wire bytes included) is bit-identical for any worker
// count: the per-query values never depend on which session computed
// them, only the amount of shared work does.
func AnswerBatchWorkers(q Querier, queries []Query, workers int) ([]Result, error) {
	if q == nil {
		return nil, fmt.Errorf("query: nil querier")
	}
	var kbase *kb.KnowledgeBase
	if p, ok := q.(kbProvider); ok {
		kbase = p.KnowledgeBase()
	}
	out := make([]Result, len(queries))
	answerRange := func(exec answerer, idx []int) {
		for _, i := range idx {
			res, err := answer(exec, queries[i])
			if err != nil {
				out[i] = Result{Kind: queries[i].Kind, Error: err.Error()}
				continue
			}
			out[i] = res
		}
	}
	all := make([]int, len(queries))
	for i := range all {
		all[i] = i
	}
	if kbase == nil {
		// Arbitrary Querier implementations carry no concurrency contract
		// and no session to share: serve per query, in order.
		answerRange(q, all)
		return out, nil
	}
	if par.Workers(workers, len(queries)) == 1 {
		answerRange(kb.NewBatch(kbase), all)
		return out, nil
	}
	// Group query indices by evidence set (first-appearance order): each
	// group shares one session — denominators, sweeps, and MPE completions
	// are computed once per group — and groups are independent, so they
	// fan out over the pool. Result slots are written by original index.
	groupOf := make(map[string]int)
	var groups [][]int
	for i, qu := range queries {
		key := evidenceGroupKey(qu.Given)
		g, ok := groupOf[key]
		if !ok {
			g = len(groups)
			groupOf[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	_ = par.Do(len(groups), workers, func(g int) error {
		answerRange(kb.NewBatch(kbase), groups[g])
		return nil // per-query failures land in their Result slot
	})
	return out, nil
}

// CountEvidenceGroups returns how many distinct evidence sets the batch
// spans — the batch's parallelizable width (AnswerBatchWorkers runs one
// session per group). Callers budgeting worker goroutines across many
// concurrent batches use it to avoid reserving parallelism a batch cannot
// spend: a single-group batch executes sequentially no matter how many
// workers it is offered.
func CountEvidenceGroups(queries []Query) int {
	seen := make(map[string]struct{}, len(queries))
	for _, qu := range queries {
		seen[evidenceGroupKey(qu.Given)] = struct{}{}
	}
	return len(seen)
}

// evidenceGroupKey renders a query's evidence as an order-insensitive
// grouping key, so every ordering of the same evidence set lands in one
// batch session. Unresolvable names still key consistently — their
// queries fail identically whichever session sees them.
func evidenceGroupKey(given []kb.Assignment) string {
	if len(given) == 0 {
		return ""
	}
	parts := make([]string, len(given))
	for i, a := range given {
		parts[i] = strconv.Quote(a.Attr) + "=" + strconv.Quote(a.Value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
