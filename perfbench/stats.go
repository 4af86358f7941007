package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, the definition numpy and most
// dashboards default to. It returns NaN for an empty sample.
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

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts operations against failures. Every operation the benchmark
// attempts goes through exactly one of ok or fail, and a failure is never
// filtered out of the count: a wrong answer, a non-2xx response and a
// refused request are all failures.
type tally struct {
	attempted int
	failed    int
	// wrong counts failures whose output was checked and found incorrect,
	// as opposed to refused or errored operations; any wrong output makes
	// the run's "correct" field false.
	wrong int
	// reasons keeps the first few failure messages for the stderr summary.
	reasons []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(wrong bool, reason string) {
	t.attempted++
	t.failed++
	if wrong {
		t.wrong++
	}
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, reason)
	}
}

// check records one operation whose output passed (err == nil) or failed
// its output check.
func (t *tally) check(err error) {
	if err != nil {
		t.fail(true, err.Error())
		return
	}
	t.ok()
}

func (t *tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// goodput is the rate of requests that succeeded, passed their output
// checks and finished within limit, over a phase lasting span. Failed
// requests count as missing the limit whatever their latency.
func goodput(lat []float64, good []bool, limit time.Duration, span time.Duration) float64 {
	n := 0
	for i, l := range lat {
		if good[i] && l <= ms(limit) {
			n++
		}
	}
	return float64(n) / span.Seconds()
}

// perSeedMedians groups samples by seed and returns each seed's median,
// in seed order. Closed-loop runs visit seeds a whole number of times plus
// a partial pass, so summarising per seed first keeps one slow seed from
// weighing more just because the run ended inside its pass.
func perSeedMedians(bySeed map[int64][]float64) []float64 {
	seeds := make([]int64, 0, len(bySeed))
	for s := range bySeed {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	out := make([]float64, len(seeds))
	for i, s := range seeds {
		out[i] = median(bySeed[s])
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
