package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile: a percentile with fewer samples past it is an
// anecdote, not a statistic.
const minBeyond = 10

// dist summarises one latency sample: the median and a tail
// percentile — the requested one, or the highest below it that has at
// least minBeyond samples beyond it — with the sample count and the
// percentile actually reported.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

// summarize applies the percentile rule up to p99.
func summarize(xs []float64) dist { return summarizeAt(xs, 0.99) }

// summarizeAt applies the percentile rule to xs (any unit; xs is left
// as it was) with the tail at quantile q at most. Percentiles use the
// nearest-rank definition. With fewer than minBeyond+1 samples no tail
// is supported and Tail is the maximum, reported at TailPct 0.
func summarizeAt(xs []float64, q float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	d := dist{N: n, P50: xs[rank(0.5, n)]}
	idx, pct := tailRank(n, q)
	if idx < 0 {
		d.Tail = xs[n-1]
		return d
	}
	d.Tail, d.TailPct = xs[idx], pct
	return d
}

// windowed summarises latencies taken over a schedule of n requests,
// where seq[j] is the request number of lat[j], with the tail at
// quantile q at most. It cuts the schedule into the most equal windows
// that hold, on average, just enough samples for q to have minBeyond
// beyond it (1000 for p99, 100 for p90; one window for a smaller
// sample), applies the percentile rule in each window and reports the
// medians across windows — so one stall moves one window, not the
// figure. TailPct is the lowest percentile any window reported.
func windowed(lat []float64, seq []int, n int, q float64) dist {
	size := int(math.Round(minBeyond / (1 - q)))
	k := max(1, len(lat)/size)
	if k == 1 || n <= 0 {
		return summarizeAt(lat, q)
	}
	wins := make([][]float64, k)
	for j, l := range lat {
		w := min(seq[j]*k/n, k-1)
		wins[w] = append(wins[w], l)
	}
	var p50s, tails []float64
	out := dist{N: len(lat), TailPct: 100}
	for _, w := range wins {
		if len(w) == 0 {
			continue
		}
		d := summarizeAt(w, q)
		p50s, tails = append(p50s, d.P50), append(tails, d.Tail)
		out.TailPct = math.Min(out.TailPct, d.TailPct)
	}
	out.P50 = summarize(p50s).P50
	out.Tail = summarize(tails).P50
	return out
}

// windowMin is the fewest attempts a ladder verdict window holds:
// enough for p99 to have minBeyond beyond it.
const windowMin = 1000

// rank is the 0-based nearest-rank index of quantile q in n samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// tailRank returns the sorted-sample index of the highest percentile,
// capped at quantile q, that leaves at least minBeyond samples beyond
// it, and that percentile (in percent). It returns -1 when n is too
// small.
func tailRank(n int, q float64) (idx int, pct float64) {
	if n < minBeyond+1 {
		return -1, 0
	}
	idx = rank(q, n)
	if lim := n - 1 - minBeyond; idx > lim {
		idx = lim
	}
	return idx, 100 * float64(idx+1) / float64(n)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recallAt returns recall@k of got against the exact neighbours truth:
// the share of truth's first k IDs present among got's first k.
func recallAt(k int, truth, got []int64) float64 {
	if k <= 0 {
		return 0
	}
	want := make(map[int64]bool, k)
	for i := 0; i < k && i < len(truth); i++ {
		want[truth[i]] = true
	}
	hit := 0
	for i := 0; i < k && i < len(got); i++ {
		if want[got[i]] {
			hit++
			delete(want, got[i])
		}
	}
	return float64(hit) / float64(k)
}

// The goodput ladder: rung i offers ladderBase·ladderStep^i requests
// per second, so neighbouring rungs are 5% apart. The ladder is fixed;
// only which rungs a run visits depends on the outcomes.
const (
	ladderBase = 100.0
	ladderStep = 1.05
)

func ladderRate(i int) float64 { return ladderBase * math.Pow(ladderStep, float64(i)) }

// ladderIndex returns the lowest rung offering at least rate.
func ladderIndex(rate float64) int {
	if rate <= ladderBase {
		return 0
	}
	i := int(math.Ceil(math.Log(rate/ladderBase)/math.Log(ladderStep) - 1e-9))
	return i
}

// rungStats is what one open-loop rung yields for the ladder verdict.
type rungStats struct {
	Rate      float64
	Attempted int
	Failed    int
	// LatMS holds the due-time latency of every successful request and
	// Seq its request number; FailSeq holds the request numbers of the
	// failed ones.
	LatMS   []float64
	Seq     []int
	FailSeq []int
	// BacklogFirst and BacklogSecond are the mean backlog (requests
	// outstanding plus requests due but not yet sent) over the first and
	// second half of the rung's send window.
	BacklogFirst, BacklogSecond float64
}

// maxFailShare is the share of failed or refused requests a passing
// rung may have.
const maxFailShare = 0.001

// backlogGrew reports whether the backlog grew across a rung by more
// than the arrivals of one latency limit: a server that keeps up holds
// a steady backlog, one that does not accumulates (rate−capacity)·t.
func backlogGrew(first, second, rate float64, limit time.Duration) bool {
	return second-first > rate*limit.Seconds()
}

// verdict decides whether a rung meets the workload's limits: failures
// at most maxFailShare of attempts; p99 latency at or under limit, with
// every failed request counted as missing it; and no backlog growth.
// p99 is judged the way search_p99_ms is reported: per window of at
// least windowMin attempts, passing when the median window's p99 meets
// the limit. why names the first rule broken.
func verdict(r rungStats, limit time.Duration) (pass bool, why string) {
	if r.Attempted == 0 {
		return false, "no requests"
	}
	if float64(r.Failed) > maxFailShare*float64(r.Attempted) {
		return false, "failures"
	}
	k := max(1, r.Attempted/windowMin)
	attempts := make([]int, k)
	misses := make([]int, k)
	win := func(seq int) int { return min(seq*k/r.Attempted, k-1) }
	for _, q := range r.FailSeq {
		attempts[win(q)]++
		misses[win(q)]++
	}
	lim := ms(limit)
	for j, l := range r.LatMS {
		w := 0
		if k > 1 {
			w = win(r.Seq[j])
		}
		attempts[w]++
		if l > lim {
			misses[w]++
		}
	}
	// A window's nearest-rank p99, failures ranked beyond any latency,
	// meets the limit when no more than 1% of its attempts missed.
	met := 0
	for w := range attempts {
		if attempts[w]-misses[w] >= rank(0.99, attempts[w])+1 {
			met++
		}
	}
	if met < k-rank(0.5, k) {
		return false, "p99"
	}
	if backlogGrew(r.BacklogFirst, r.BacklogSecond, r.Rate, limit) {
		return false, "backlog"
	}
	return true, ""
}

// climb searches the ladder for the highest rung that passes: from
// start it walks up (or down) step rungs at a time until the outcome
// flips, then bisects between the highest pass and the lowest fail. It
// tries rungs while more allows and returns the highest passing rung
// seen, or -1 when none passed. pass is assumed monotone (a system that
// meets the limits at some rate meets them at every lower rate).
func climb(start, step int, more func() bool, pass func(i int) bool) int {
	const none = math.MaxInt
	lo, hi := -1, none
	i := start
	for more() {
		if pass(i) {
			lo = i
		} else {
			hi = i
		}
		switch {
		case hi == none:
			i = lo + step
		case lo == -1:
			if hi == 0 {
				return -1
			}
			i = max(hi-step, 0)
		case hi-lo <= 1:
			return lo
		default:
			i = (lo + hi) / 2
		}
	}
	return lo
}
