package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is a set of observations in milliseconds (or any unit the caller
// keeps consistent). Percentiles use the nearest-rank method on a sorted
// copy, so they are exact order statistics of what was measured.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// pct returns the p-th percentile (0 < p <= 100), or 0 for an empty sample.
func (s sample) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	srt := s.sorted()
	rank := int(math.Ceil(p / 100 * float64(len(srt))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(srt) {
		rank = len(srt)
	}
	return srt[rank-1]
}

func (s sample) median() float64 { return s.pct(50) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tailPct is the highest of the usual tail percentiles that still has at
// least ten samples beyond it; 50 when even p75 has fewer.
func tailPct(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// geomean of positive values; 0 for an empty input.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	l := 0.0
	for _, v := range vs {
		l += math.Log(v)
	}
	return math.Exp(l / float64(len(vs)))
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method), so the repeat mode prints the spreads the bounds are set from.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sample(vs).sorted()
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := float64(n + 1)
		j := int(math.Floor(float64(i) * m / 4))
		delta := float64(i)*m/4 - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never loads).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one named number the benchmark reports.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int    // observations behind the value (0 = a count or ratio)
	Note    string // e.g. which percentile a tail stands for
}

func (m metric) String() string {
	s := fmt.Sprintf("%-40s %14.6g %-6s", m.Name, m.Value, m.Unit)
	if m.Samples > 0 {
		s += fmt.Sprintf(" n=%d", m.Samples)
	}
	if m.Note != "" {
		s += " " + m.Note
	}
	return s
}
