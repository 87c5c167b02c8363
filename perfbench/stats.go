package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (mean of the two middle ones for even n).
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

// tailCap is the deepest percentile a tail reports. On a shared host the
// slowest few percent of operations are the ones a neighbour preempted, so
// a deeper tail measures the neighbours: on a shared 2-vCPU VM the
// eleventh-largest of about 900 refine-ladder steps (p98.8) moved by an IQR
// of 32% of its median across ten runs, while p90 stays among the program's
// own operations.
const tailCap = 0.90

// tail is the highest percentile, up to tailCap, that has at least ten
// samples beyond it; note names the percentile and the sample count, and
// says when so few samples leave the percentile at or below the median.
// With ten samples or fewer it is the maximum.
func tail(xs []float64) (v float64, note string) {
	n := len(xs)
	if n == 0 {
		return 0, "no samples"
	}
	s := sorted(xs)
	if n <= 10 {
		return s[n-1], fmt.Sprintf("max, n=%d: fewer than 11 samples", n)
	}
	// Index i has n-1-i samples beyond it and sits at percentile i/(n-1).
	i := min(n-11, int(math.Floor(tailCap*float64(n-1))))
	p := 100 * float64(i) / float64(n-1)
	note = fmt.Sprintf("p%.1f, n=%d, %d beyond", p, n, n-1-i)
	if p <= 50 {
		note += "; too few samples: at or below the median, so not a tail"
	}
	return s[i], note
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
