package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the two nearest ranks. xs need not be sorted;
// it is not modified. An empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the percentiles a tail figure may use, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie above a reported percentile
// before that percentile counts as measured.
const minBeyond = 10

// Tail is the highest percentile a sample supports, with the sample
// count it rests on.
type Tail struct {
	P     float64 // percentile, 0..100; 100 means the maximum
	Value float64
	N     int
}

// tail applies the reporting rule: the highest percentile of tailLadder
// with at least minBeyond samples beyond it. A sample too small for
// any of them reports its maximum (P = 100), so a reader sees that no
// percentile was supported.
func tail(xs []float64) Tail {
	n := len(xs)
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 { // tolerate rounding in 1-p/100
			return Tail{P: p, Value: percentile(xs, p), N: n}
		}
	}
	return Tail{P: 100, Value: percentile(xs, 100), N: n}
}

// Label names the percentile as it is printed: "p99", "p99.9", "max".
func (t Tail) Label() string {
	if t.P == 100 {
		return "max"
	}
	return fmt.Sprintf("p%g", t.P)
}
