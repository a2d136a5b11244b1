package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or NaN for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ledger collects per-pass samples of per-layer metrics; a metric's
// value is the median of its samples.
type ledger map[string][]float64

func (l ledger) add(name string, v float64) { l[name] = append(l[name], v) }

func (l ledger) value(name string) (float64, bool) {
	xs, ok := l[name]
	if !ok || len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

// digest is the FNV-1a/64 digest of the given parts, printed as hex.
func digest(parts ...[]byte) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
