// Package kb turns a discovery result into the memo's end product: a
// probabilistic knowledge base for an expert system. It stores the fitted
// product-form model together with the attribute schema, answers arbitrary
// joint/marginal/conditional probability queries by the ratio rule
//
//	P(A | B, C) = P(A, B, C) / P(B, C)
//
// (the memo's introduction), computes full conditional distributions over an
// attribute given evidence, explains the stored formula in the memo's
// a-notation, and persists to JSON so a knowledge base built once can be
// shipped without the raw data.
//
// # Compile once, query many
//
// Following the architecture of maximum-entropy shells like SPIRIT, the
// knowledge base separates fitting from serving: New (and Load) compile the
// model's coefficients into an immutable inference engine once, and every
// query runs against that snapshot with pooled scratch memory.
// Distribution prices all values of the target attribute in a single batch
// elimination sweep rather than one recursion per value.
//
// # One query implementation
//
// The six query kinds — Probability, Conditional, Distribution,
// MostLikely, Lift, MostProbableExplanation — have exactly one
// implementation, a query session. A single query through a KnowledgeBase
// method is a session without a memo. A Batch is a session with one: each
// distinct evidence set is resolved and priced once, and joints, slice
// sweeps and MPE completions are reused across the batch's queries. Both
// run the same arithmetic, so a batch answer is bit-identical to the
// single-query answer. An optional engine cache (WithCache) sits under
// both and carries engine results across requests.
//
// # Thread safety
//
// A KnowledgeBase is immutable after construction and safe for concurrent
// use by any number of goroutines with no external locking; a Batch is
// single-goroutine. The one contract: the engine snapshots the model at
// New/Load time, so callers that keep mutating the underlying maxent.Model
// must build a fresh KnowledgeBase from the refitted model to see the new
// coefficients.
package kb
