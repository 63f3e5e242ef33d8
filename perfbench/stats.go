package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: a p90 over fewer than 100 samples is refused, not guessed.
const minTail = 10

// median returns the median of xs (mean of the two middle values for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailQuantile returns the nearest-rank q-quantile of xs, refusing it when
// fewer than minTail samples lie strictly beyond that rank.
func tailQuantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s)))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := len(s) - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", 100*q, len(s), beyond, minTail)
	}
	return s[rank-1], nil
}

// layerQuantile is tailQuantile for per-layer diagnostics: a refused or
// empty tail reads 0 instead of failing the run.
func layerQuantile(xs []float64, q float64) float64 {
	v, err := tailQuantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
