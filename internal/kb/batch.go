package kb

import (
	"strconv"

	"pka/internal/contingency"
)

// Batch answers a group of related queries against one knowledge base while
// sharing the engine work they have in common. It is the query session
// with an intra-batch memo: queries are grouped by their resolved evidence
// set, so each distinct set is validated and resolved once, its
// probability (the shared conditional denominator) is evaluated once, and
// — on single-block engines — every single-target conditional over the same
// (evidence, attribute) pair is served from one conditional-slice sweep.
// Joint probabilities, distributions, and MPE completions are likewise
// deduplicated by canonical key.
//
// The six query methods are the KnowledgeBase methods' own bodies, so
// every float64 a Batch returns is bit-identical to the corresponding
// KnowledgeBase call: memo hits replay values the memo-less session would
// recompute.
//
// A Batch is not safe for concurrent use; create one per query group. The
// knowledge base underneath may be shared freely.
type Batch struct {
	session
	memo batchMemo
}

// batchMemo is a Batch's intra-session reuse: resolved evidence and every
// engine primitive it priced, keyed canonically.
type batchMemo struct {
	evals int

	raw   map[string]*evidence   // rendered given slice -> resolved evidence
	canon map[string]*evidence   // canonical (vars, values) key -> shared state
	probs map[string]float64     // canonical key -> eng.Prob value
	dists map[string][]float64   // canonical key + attr pos -> slice numerators
	mpes  map[string]Explanation // canonical key -> MPE completion
	// keyBuf is the reusable scratch every memo key is rendered into: map
	// lookups go through the compiler's no-copy string(keyBuf) conversion,
	// so the serving hot path allocates a key string only when inserting a
	// genuinely new entry. (A Batch is single-goroutine by contract, so one
	// buffer suffices.)
	keyBuf []byte
}

// NewBatch creates an empty batch session over the knowledge base.
func NewBatch(k *KnowledgeBase) *Batch {
	b := &Batch{memo: batchMemo{
		raw:   make(map[string]*evidence),
		canon: make(map[string]*evidence),
		probs: make(map[string]float64),
		dists: make(map[string][]float64),
		mpes:  make(map[string]Explanation),
	}}
	b.session = session{k: k, m: &b.memo}
	return b
}

// Evals returns the number of engine evaluations (pinned sums, batch
// marginal sweeps, and MPE argmax passes) performed so far — the measure
// batching drives down versus one-query-at-a-time serving. An engine
// cache hit is not an evaluation.
func (b *Batch) Evals() int { return b.memo.evals }

// counted records one engine primitive priced for the memo.
func (m *batchMemo) counted(cacheHit bool) {
	if !cacheHit {
		m.evals++
	}
}

// canonKey renders a resolved assignment canonically into the key
// scratch; the returned slice is valid until the next key rendering.
func (m *batchMemo) canonKey(vs contingency.VarSet, values []int) []byte {
	m.keyBuf = appendAssignKey(m.keyBuf[:0], vs, values)
	return m.keyBuf
}

// sliceKey renders the (evidence, attribute) key of a slice sweep into
// the key scratch. Valid until the next key rendering.
func (m *batchMemo) sliceKey(ev *evidence, pos int) []byte {
	key := append(m.keyBuf[:0], ev.key...)
	key = append(key, '|')
	m.keyBuf = strconv.AppendInt(key, int64(pos), 10)
	return m.keyBuf
}

// rawKey renders an assignment slice order-sensitively into the key
// scratch, for the resolution memo (quoting keeps distinct slices from
// colliding). Valid until the next key rendering.
func (m *batchMemo) rawKey(assigns []Assignment) []byte {
	dst := m.keyBuf[:0]
	for _, a := range assigns {
		dst = strconv.AppendQuote(dst, a.Attr)
		dst = append(dst, '=')
		dst = strconv.AppendQuote(dst, a.Value)
		dst = append(dst, ',')
	}
	m.keyBuf = dst
	return dst
}

// evidenceFor resolves an evidence slice once per distinct ordering and
// shares the canonical state across orderings of the same set.
func (m *batchMemo) evidenceFor(k *KnowledgeBase, given []Assignment) (*evidence, error) {
	rk := m.rawKey(given)
	if ev, ok := m.raw[string(rk)]; ok { // no-copy lookup
		return ev, nil
	}
	rkStr := string(rk) // materialize before the scratch is reused below
	vs, values, err := k.resolve(given)
	if err != nil {
		return nil, err
	}
	ck := m.canonKey(vs, values)
	ev, ok := m.canon[string(ck)]
	if !ok {
		ev = &evidence{vs: vs, values: values, key: string(ck)}
		m.canon[ev.key] = ev
	}
	m.raw[rkStr] = ev
	return ev, nil
}
