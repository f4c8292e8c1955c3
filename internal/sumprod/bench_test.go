package sumprod

import (
	"fmt"
	"testing"
)

// benchTerms builds first-order terms plus a pairwise chain over r
// attributes of the given cardinality.
func benchTerms(r, card int) ([]int, []Term) {
	cards := make([]int, r)
	for i := range cards {
		cards[i] = card
	}
	var terms []Term
	for i := 0; i < r; i++ {
		coeffs := make([]float64, card)
		for v := range coeffs {
			coeffs[v] = 0.5 + float64(v%3)*0.3
		}
		terms = append(terms, Term{Vars: []int{i}, Coeffs: coeffs})
	}
	for i := 0; i+1 < r; i++ {
		coeffs := make([]float64, card*card)
		for v := range coeffs {
			coeffs[v] = 0.8 + float64(v%5)*0.1
		}
		terms = append(terms, Term{Vars: []int{i, i + 1}, Coeffs: coeffs})
	}
	return cards, terms
}

func BenchmarkSumRecursion(b *testing.B) {
	for _, r := range []int{4, 6, 8} {
		cards, terms := benchTerms(r, 4)
		ev, err := NewEvaluator(cards, terms)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ev.Sum()
			}
		})
	}
}

func BenchmarkSumBruteForce(b *testing.B) {
	for _, r := range []int{4, 6, 8} {
		cards, terms := benchTerms(r, 4)
		ev, err := NewEvaluator(cards, terms)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				total := 0.0
				for _, v := range ev.FullJoint() {
					total += v
				}
				_ = total
			}
		})
	}
}

func BenchmarkSumFixed(b *testing.B) {
	cards, terms := benchTerms(8, 4)
	ev, err := NewEvaluator(cards, terms)
	if err != nil {
		b.Fatal(err)
	}
	fixed := []int{-1, 2, -1, -1, 1, -1, -1, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.SumFixed(fixed)
	}
}

// BenchmarkCompiledSumFixed is BenchmarkSumFixed on the compiled engine:
// same recursion, scratch buffers pooled instead of reallocated.
func BenchmarkCompiledSumFixed(b *testing.B) {
	cards, terms := benchTerms(8, 4)
	ce, err := Compile(cards, terms)
	if err != nil {
		b.Fatal(err)
	}
	fixed := []int{-1, 2, -1, -1, 1, -1, -1, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ce.SumFixed(fixed)
	}
}

// BenchmarkCompiledMarginal compares evaluating a full second-order family
// marginal (16 cells on the R=8 chain) cell by cell — one SumFixed recursion
// per cell, the pre-compile scan cost — against the compiled batch sweep.
func BenchmarkCompiledMarginal(b *testing.B) {
	cards, terms := benchTerms(8, 4)
	ev, err := NewEvaluator(cards, terms)
	if err != nil {
		b.Fatal(err)
	}
	ce, err := Compile(cards, terms)
	if err != nil {
		b.Fatal(err)
	}
	family := []int{2, 5}
	b.Run("percell", func(b *testing.B) {
		fixed := make([]int, len(cards))
		out := make([]float64, cards[family[0]]*cards[family[1]])
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx := 0
			for x := 0; x < cards[family[0]]; x++ {
				for y := 0; y < cards[family[1]]; y++ {
					for v := range fixed {
						fixed[v] = -1
					}
					fixed[family[0]], fixed[family[1]] = x, y
					out[idx] = ev.SumFixed(fixed)
					idx++
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ce.MarginalFixed(family, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
